"""Host-speed yardstick: a fixed kernel, timed from a timer signal, that
scales the benchmark's times to a steady reference speed.

On a shared host the same code runs up to 2x slower for seconds to
minutes at a time, while neighbours load the physical cores under our
virtual ones.  The process is charged that time as its own CPU time, so
neither wall nor CPU time can tell a slower program from a busier host.

The yardstick runs a kernel every INTERVAL_S from a SIGALRM handler, in
the workload's own process and thread, between its Python steps.  The
kernels do not use gaussqfi; each does the kind of work of the workloads
it serves: ``small`` the small-matrix numpy and plain Python of the
engine, the CLI and the optimizer, ``dense`` the Fock oracle's dense
linear algebra.  A contended stretch slows the kernel and the workload
alike, so a time measured over ``[a, b]`` is scaled by ``ref / (mean
kernel time around [a, b])``: it reads as the time on a host on which the
kernel takes ``ref``.  Time spent in the handler is counted in ``spent``
and left out of the workload's times.  The handler cannot run inside one
long C call; the samples before and after it stand in.

The kernels do not call the program, so a change to it moves the scaled
times as it moves the raw ones, unless it changes how much the program
slows the kernel run next to it (the dense kernel takes about 1.8 times
as long during the Fock panel as alone).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
import scipy.linalg

INTERVAL_S = 0.04
# Samples within PAD_S of an interval count for it; an interval with no
# sample that near (inside one long C call, say) takes the nearest ones.
PAD_S = 0.1
NEAREST = 4

_rng = np.random.default_rng(20260810)
_POOL = [a @ a.T + 4.0 * np.eye(4) for a in _rng.standard_normal((64, 4, 4))]
_J = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_next = [0]


def small() -> float:
    """Small-matrix work, as in the engine, the CLI and the optimizer:
    three rounds of 4x4 decompositions, solves and products across the
    numpy API, then a short loop of float, list and dict operations."""
    acc = 0.0
    for _ in range(3):
        _next[0] = (_next[0] + 1) % len(_POOL)
        m = _POOL[_next[0]]
        w, v = np.linalg.eigh(m)
        inv = np.linalg.inv(m)
        x = np.linalg.solve(m, v[:, 0])
        big = np.block([[m, _J], [-_J, inv]])
        k = np.kron(m[:2, :2], np.eye(2))
        e = np.einsum("ij,jk->ik", big[:4, :4], k)
        acc += float(np.trace(e)) + float(np.linalg.det(m)) + float(np.linalg.norm(x))
        acc += float(np.concatenate([w, np.diag(inv)]).sum())
        acc += bool(np.allclose(m, m.T))
    table, values = {}, []
    for i in range(300):
        x = (i + 1.0) ** 0.5 * 1.0001
        table[i & 63] = x
        values.append(x)
        acc += table.get((i * 7) & 63, x)
    values.sort()
    return acc + values[0]


_a = _rng.standard_normal((64, 64))
_DENSE = _a @ _a.T / 64 + np.eye(64)


def dense() -> float:
    """Dense linear algebra, as in the Fock oracle: a 64x64 symmetric
    eigendecomposition, a product and a matrix exponential."""
    w, v = np.linalg.eigh(_DENSE)
    b = (v * w) @ v.T
    return float(scipy.linalg.expm(-0.1 * _DENSE)[0, 0] + b[0, 0])


# Each kernel's time on an unloaded 2-vCPU Xeon VM (Python 3.11, numpy 2.4,
# one BLAS thread), so that scaled figures read close to that host's raw
# ones: the fifth percentile of 400 timed runs.
KERNELS = {"small": (small, 3.8e-4), "dense": (dense, 4.9e-4)}


class Yardstick:
    """Kernel times sampled from SIGALRM while started."""

    def __init__(self, kind: str = "small"):
        """``kind`` names the kernel in KERNELS."""
        self.kernel, self.ref = KERNELS[kind]
        self.ends: list[float] = []   # perf_counter at each sample's end
        self.times: list[float] = []  # kernel seconds of each sample
        self.spent = 0.0              # seconds spent in the handler

    def _handler(self, signum, frame):
        # the first run brings the kernel's code and data back into the
        # caches, so that the timed second run does not depend on how much
        # of them the workload evicted
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.kernel()
        t2 = time.perf_counter()
        self.ends.append(t2)
        self.times.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sampled(self):
        if not self.times:  # nothing sampled yet: sample now
            for _ in range(NEAREST):
                self._handler(None, None)

    def scale(self, a: float | None = None, b: float | None = None) -> float:
        """The kernel's reference time over its mean time around [a, b]
        (over all samples when no interval is given)."""
        self._sampled()
        if a is None:
            return self.ref / statistics.fmean(self.times)
        i = bisect.bisect_left(self.ends, a - PAD_S)
        j = bisect.bisect_right(self.ends, b + PAD_S)
        if j - i < NEAREST:
            mid = bisect.bisect_left(self.ends, (a + b) / 2)
            i = max(0, min(i, mid - NEAREST // 2))
            j = min(len(self.ends), max(j, i + NEAREST))
            i = max(0, min(i, j - NEAREST))
        return self.ref / statistics.fmean(self.times[i:j])

"""Energy-constrained probe optimization and scaling-exponent fits.

The search runs a derivative-free Nelder-Mead simplex from many starts.
Energy feasibility is exact by construction: the per-mode displacement
and thermal fractions live in a sigmoid-squashed simplex and the
squeezing parameter absorbs whatever energy remains, so every iterate
satisfies the budget.  Warm starts at the analytically known optima make
the regression against the closed-form limits deterministic.
"""
from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .channels import (
    BEAMSPLIT,
    COMBINED,
    PHASE,
    SQUEEZE1_MODE1,
    TWOMODE_SQUEEZE,
    ChannelSpec,
)
from .errors import DegenerateBudgetError, InvalidInputError
from .probes import OneModeProbeParams, TwoModeProbeParams, squeezing_from_energy
from .qfi import DEGENERACY_TOL, qfi_unitary

log = logging.getLogger(__name__)

ONE_MODE = "one-mode"
TWO_MODE = "two-mode-restricted"

# sigmoid(-SATURATION) ~ 9e-14: numerically "all energy into squeezing"
SATURATION = 30.0


@dataclass(frozen=True)
class EnergyBudget:
    """Mean-energy budget with per-mode displacement/thermal fractions.

    ``splits[k] = (f_d, f_th)`` are fractions of mode k's energy share;
    squeezing receives the remainder through the mean-energy relation.
    """

    n_total: float
    splits: tuple = ((0.0, 0.0),)
    mode_fractions: tuple = None

    def __post_init__(self):
        if self.n_total < 0:
            raise InvalidInputError("n_total must be >= 0")
        splits = tuple((float(fd), float(ft)) for fd, ft in self.splits)
        for fd, ft in splits:
            if fd < 0 or ft < 0 or fd + ft > 1.0 + 1e-12:
                raise InvalidInputError(f"infeasible split (f_d={fd}, f_th={ft})")
        fractions = self.mode_fractions
        if fractions is None:
            fractions = tuple(1.0 / len(splits) for _ in splits)
        fractions = tuple(float(g) for g in fractions)
        if len(fractions) != len(splits) or abs(sum(fractions) - 1.0) > 1e-9 \
                or min(fractions) < 0:
            raise InvalidInputError("mode_fractions must be a distribution over modes")
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "mode_fractions", fractions)

    @property
    def modes(self) -> int:
        return len(self.splits)

    def mode_allocations(self):
        """Per-mode (n_d, n_th, r) resolving the energy relation."""
        out = []
        for (fd, ft), g in zip(self.splits, self.mode_fractions):
            n_k = g * self.n_total
            n_d, n_th = fd * n_k, ft * n_k
            out.append((n_d, n_th, squeezing_from_energy(n_k, n_d, n_th)))
        return out

    def one_mode_params(self, theta: float = 0.0, phi_d: float = 0.0) -> OneModeProbeParams:
        if self.modes != 1:
            raise InvalidInputError("budget is not single-mode")
        n_d, n_th, r = self.mode_allocations()[0]
        return OneModeProbeParams(lambda1=1.0 + 2 * n_th, r=r, theta=theta,
                                  d_mag=np.sqrt(n_d), phi_d=phi_d)

    def two_mode_params(self, theta=0.0, psi=0.0, phi1=0.0, phi2=0.0,
                        phi_d1=0.0, phi_d2=0.0) -> TwoModeProbeParams:
        if self.modes != 2:
            raise InvalidInputError("budget is not two-mode")
        (nd1, nth1, r1), (nd2, nth2, r2) = self.mode_allocations()
        return TwoModeProbeParams(
            lambda1=1.0 + 2 * nth1, lambda2=1.0 + 2 * nth2, r1=r1, r2=r2,
            theta=theta, psi=psi, phi1=phi1, phi2=phi2,
            d1_mag=np.sqrt(nd1), d2_mag=np.sqrt(nd2),
            phi_d1=phi_d1, phi_d2=phi_d2)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 32
    max_iter: int = 2000
    seed: int = 0
    tol: float = 1e-10

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizerConfig":
        return cls(restarts=int(data.get("restarts", 32)),
                   max_iter=int(data.get("max_iter", 2000)),
                   seed=int(data.get("seed", 0)),
                   tol=float(data.get("tol", 1e-10)))


@dataclass
class OptimizationResult:
    best_params: dict
    best_qfi: float
    trace: list = field(default_factory=list)
    restarts: int = 0
    converged: bool = False


# ---------------------------------------------------------------------------
# Raw-array objective (same math as qfi.qfi_unitary, no container overhead;
# equality of the two paths is asserted in the test suite)

def _fast_s0_one(r: float, theta: float) -> np.ndarray:
    ch, sh = np.cosh(r), np.sinh(r)
    ph = np.exp(-1j * theta)
    return np.array([[ph * ch, -ph * sh], [-sh / ph, ch / ph]])


def _fast_s0_two(r1, r2, theta, psi, phi1, phi2) -> np.ndarray:
    ct, st = np.cos(theta), np.sin(theta)
    # passive part R1(phi1) R2(phi2) B(theta) Ras(psi), written out entrywise
    e1, e2 = np.exp(-1j * phi1), np.exp(-1j * phi2)
    ep, em = np.exp(-1j * psi), np.exp(1j * psi)
    u00, u01 = e1 * ct * ep, e1 * st * em
    u10, u11 = -e2 * st * ep, e2 * ct * em
    c1, c2 = np.cosh(r1), np.cosh(r2)
    s1, s2 = np.sinh(r1), np.sinh(r2)
    # S0 = blkdiag(u, conj u) @ [[C, -Sh], [-Sh, C]] with diagonal C, Sh
    out = np.empty((4, 4), dtype=complex)
    out[0, 0], out[0, 1] = u00 * c1, u01 * c2
    out[1, 0], out[1, 1] = u10 * c1, u11 * c2
    out[0, 2], out[0, 3] = -u00 * s1, -u01 * s2
    out[1, 2], out[1, 3] = -u10 * s1, -u11 * s2
    out[2:, :2] = out[:2, 2:].conj()
    out[2:, 2:] = out[:2, :2].conj()
    return out


def _fast_qfi(ikw: np.ndarray, gamma: np.ndarray, s0: np.ndarray,
              lams: np.ndarray, d_tilde: np.ndarray) -> float:
    n = lams.shape[0]
    # symplectic inverse K S0^dag K by sign flips on the off blocks
    s0inv = s0.conj().T.copy()
    s0inv[:n, n:] *= -1.0
    s0inv[n:, :n] *= -1.0
    p = s0inv @ ikw @ s0
    h = 0.0
    for i in range(n):
        li = lams[i]
        for j in range(n):
            lj = lams[j]
            prod = li * lj
            if prod - 1.0 >= DEGENERACY_TOL:
                z = p[i, j]
                h += (li - lj) ** 2 / (prod - 1.0) * (z.real * z.real + z.imag * z.imag)
            z = p[i, n + j]
            h += (li + lj) ** 2 / (prod + 1.0) * (z.real * z.real + z.imag * z.imag)
    d0 = np.concatenate([d_tilde, d_tilde.conj()])
    u = s0inv @ (ikw @ d0 + gamma)
    au = np.abs(u)
    for i in range(n):
        h += 2.0 * (au[i] ** 2 + au[n + i] ** 2) / lams[i]
    return h


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _logit(p: float) -> float:
    p = min(max(p, 1e-12), 1 - 1e-12)
    return float(np.log(p / (1 - p)))


def _decode(x: np.ndarray, family: str, n_total: float, constraint: str):
    """Map an unconstrained search vector to feasible probe parameters."""
    if family == ONE_MODE:
        theta, phi_d = x[0], x[1]
        if constraint == "coherent-only":
            f_d, f_th = 1.0, 0.0
        elif constraint == "squeezing-only":
            f_d, f_th = 0.0, 0.0
        else:
            f_d = _sigmoid(x[2])
            f_th = (1.0 - f_d) * _sigmoid(x[3])
        budget = EnergyBudget(n_total, ((f_d, f_th),))
        return budget.one_mode_params(theta=theta, phi_d=phi_d), budget
    theta, psi, phi1, phi2, phi_d1, phi_d2 = x[:6]
    g = _sigmoid(x[6])
    if constraint == "coherent-only":
        s1 = s2 = (1.0, 0.0)
    elif constraint == "squeezing-only":
        s1 = s2 = (0.0, 0.0)
    else:
        fd1 = _sigmoid(x[7])
        s1 = (fd1, (1.0 - fd1) * _sigmoid(x[8]))
        fd2 = _sigmoid(x[9])
        s2 = (fd2, (1.0 - fd2) * _sigmoid(x[10]))
    budget = EnergyBudget(n_total, (s1, s2), (g, 1.0 - g))
    params = budget.two_mode_params(theta=theta, psi=psi, phi1=phi1, phi2=phi2,
                                    phi_d1=phi_d1, phi_d2=phi_d2)
    return params, budget


def _dimension(family: str, constraint: str) -> int:
    if family == ONE_MODE:
        return 2 if constraint else 4
    return 7 if constraint else 11


def _warm_starts(channel: ChannelSpec, family: str, constraint: str):
    """Deterministic seeds at the analytically optimal probe angles."""
    chi = channel.chi
    starts = []
    lo = -SATURATION

    def one(theta, phi_d):
        if constraint:
            return np.array([theta, phi_d], dtype=float)
        return np.array([theta, phi_d, lo, lo], dtype=float)

    def two(theta, psi, phi1, phi2, pd1, pd2):
        base = [theta, psi, phi1, phi2, pd1, pd2, 0.0]
        if not constraint:
            base += [lo, lo, lo, lo]
        return np.array(base, dtype=float)

    if family == ONE_MODE:
        if channel.kind == PHASE:
            starts.append(one(0.0, np.pi / 2))
        elif channel.kind == SQUEEZE1_MODE1:
            starts.append(one(np.pi / 4 - chi / 2, np.pi / 4 + chi / 2))
        elif channel.kind == COMBINED:
            starts.append(one(-chi / 2 - np.pi / 4, chi / 2 - np.pi / 4))
        starts.append(one(0.0, 0.0))
    else:
        if channel.kind == TWOMODE_SQUEEZE:
            a = np.pi / 4 - chi / 2
            b = np.pi / 4 + chi / 2
            starts.append(two(0.0, 0.0, a, a, b, b))
            starts.append(two(np.pi / 4, 0.0, a, a, b, b))
        elif channel.kind == BEAMSPLIT:
            starts.append(two(0.0, 0.0, np.pi / 4 - chi / 2, -np.pi / 4 + chi / 2,
                              np.pi / 4 + chi / 2, -np.pi / 4 - chi / 2))
            starts.append(two(np.pi / 4, np.pi / 4, 0.0, 0.0, 0.0, -np.pi / 2))
        starts.append(two(0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    return starts


def _halton(index: int, base: int) -> float:
    result, f = 0.0, 1.0
    while index > 0:
        f /= base
        result += f * (index % base)
        index //= base
    return result


_HALTON_BASES = (2, 3, 5, 7, 11, 13)
_SPLIT_LATTICE = ((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.3, 0.3))


def _start_points(channel, family, constraint, config):
    starts = _warm_starts(channel, family, constraint)
    n_angles = 2 if family == ONE_MODE else 6
    i = 0
    while len(starts) < config.restarts:
        idx = config.seed * 1000 + i + 1
        angles = [2 * np.pi * (_halton(idx, _HALTON_BASES[j % 6]) - 0.5)
                  for j in range(n_angles)]
        x = list(angles)
        if family == TWO_MODE:
            x.append(_logit(0.25 + 0.5 * _halton(idx, 17)))
        if not constraint:
            fd, ft = _SPLIT_LATTICE[i % len(_SPLIT_LATTICE)]
            us = [_logit(fd) if fd else -SATURATION,
                  _logit(ft) if ft else -SATURATION]
            x += us * (1 if family == ONE_MODE else 2)
        starts.append(np.array(x, dtype=float))
        i += 1
    return starts[:config.restarts]


def _fractions(x, offset: int, constraint: str):
    if constraint == "coherent-only":
        return 1.0, 0.0
    if constraint == "squeezing-only":
        return 0.0, 0.0
    f_d = _sigmoid(x[offset])
    return f_d, (1.0 - f_d) * _sigmoid(x[offset + 1])


def _fast_objective(x, family, n_total, constraint, ikw, gamma):
    """Negative QFI of the decoded candidate (raw-array path)."""
    if family == ONE_MODE:
        f_d, f_th = _fractions(x, 2, constraint)
        n_d, n_th = f_d * n_total, f_th * n_total
        lam = 1.0 + 2.0 * n_th
        r = np.arcsinh(np.sqrt(max(n_total - n_d - n_th, 0.0) / lam))
        s0 = _fast_s0_one(r, x[0])
        d = np.array([np.sqrt(n_d) * np.exp(1j * x[1])])
        return -_fast_qfi(ikw, gamma, s0, np.array([lam]), d)
    g = _sigmoid(x[6])
    fd1, ft1 = _fractions(x, 7, constraint)
    fd2, ft2 = _fractions(x, 9, constraint)
    lams, rs, ds = [], [], []
    for n_k, fd, ft, pd in ((g * n_total, fd1, ft1, x[4]),
                            ((1.0 - g) * n_total, fd2, ft2, x[5])):
        n_d, n_th = fd * n_k, ft * n_k
        lam = 1.0 + 2.0 * n_th
        lams.append(lam)
        rs.append(np.arcsinh(np.sqrt(max(n_k - n_d - n_th, 0.0) / lam)))
        ds.append(np.sqrt(n_d) * np.exp(1j * pd))
    s0 = _fast_s0_two(rs[0], rs[1], x[0], x[1], x[2], x[3])
    return -_fast_qfi(ikw, gamma, s0, np.array(lams), np.array(ds))


def _run_start(channel, family, n_total, constraint, x0, max_iter, tol):
    """One Nelder-Mead descent; returns (qfi, x, converged) or None."""
    ikw = channel.generator.ikw()
    gamma = channel.generator.gamma

    def objective(x):
        try:
            value = _fast_objective(x, family, n_total, constraint, ikw, gamma)
        except (FloatingPointError, ValueError):
            return np.inf
        return value if np.isfinite(value) else np.inf

    if not np.isfinite(objective(x0)):
        return None
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": max_iter, "xatol": tol, "fatol": tol,
                            "adaptive": True})
    if not np.isfinite(res.fun):
        return None
    return -float(res.fun), np.asarray(res.x), bool(res.success)


def optimize_probe(channel: ChannelSpec, family: str, budget: EnergyBudget,
                   config: OptimizerConfig = OptimizerConfig(),
                   constraint: str = None, jobs: int = 1) -> OptimizationResult:
    """Maximize the channel QFI over a probe family at fixed mean energy.

    Args:
        channel: one-parameter channel to estimate.
        family: "one-mode" or "two-mode-restricted".
        budget: energy budget; only ``n_total`` is binding, the split is
            part of the search space (unless constrained).
        config: restart count, iteration cap, seed, simplex tolerance.
        constraint: None, "coherent-only" (all energy displaced) or
            "squeezing-only".
        jobs: optional process-level parallelism over restarts; the
            result is independent of the worker count.
    """
    if family not in (ONE_MODE, TWO_MODE):
        raise InvalidInputError(f"unknown probe family {family!r}")
    if constraint not in (None, "coherent-only", "squeezing-only"):
        raise InvalidInputError(f"unknown constraint {constraint!r}")
    expected_modes = 1 if family == ONE_MODE else 2
    if channel.modes != expected_modes:
        raise InvalidInputError(
            f"family {family} needs a {expected_modes}-mode channel")
    if budget.n_total <= 0:
        raise DegenerateBudgetError("optimization needs n_total > 0")

    starts = _start_points(channel, family, constraint, config)
    args = [(channel, family, budget.n_total, constraint, x0,
             config.max_iter, config.tol) for x0 in starts]
    if jobs and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_start_tuple, args))
    else:
        outcomes = [_run_start(*a) for a in args]

    trace = []
    best = None
    aborted = 0
    for idx, out in enumerate(outcomes):
        if out is None:
            aborted += 1
            log.warning("optimizer start %d aborted (non-finite objective)", idx)
            continue
        value, x, converged = out
        trace.append((idx, value))
        if best is None or value > best[0]:
            best = (value, x, converged, idx)
    if best is None:
        raise InvalidInputError("all optimizer starts aborted")

    value, x, converged, _ = best
    params, bud = _decode(x, family, budget.n_total, constraint)
    engine_value = qfi_unitary(params.to_probe_state(), channel).total
    if abs(engine_value - value) > 1e-9 * max(1.0, abs(value)):
        raise InvalidInputError(
            f"search objective ({value:.12g}) and engine ({engine_value:.12g}) "
            "disagree on the optimum")
    best_params = {"family": family, "probe": params, "splits": bud.splits,
                   "mode_fractions": bud.mode_fractions}
    return OptimizationResult(best_params=best_params, best_qfi=value,
                              trace=trace, restarts=len(starts) - aborted,
                              converged=converged)


def _run_start_tuple(args):
    return _run_start(*args)


# ---------------------------------------------------------------------------
# Scaling-exponent classification

FAMILY_OPTIMAL = "optimal-squeezing"
FAMILY_COHERENT = "coherent-only"
FAMILY_ONE_MODE_PROBE = "one-mode-probe"


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    prefactor: float
    n_grid: tuple
    qfi_values: tuple


def _strategy_probe(channel: ChannelSpec, family: str, n: float):
    chi = channel.chi
    if channel.modes == 1:
        if family == FAMILY_COHERENT:
            angles = {"phase": (0.0, np.pi / 2)}.get(channel.kind, (0.0, 0.0))
            return OneModeProbeParams(d_mag=np.sqrt(n), theta=angles[0],
                                      phi_d=angles[1])
        r = float(np.arcsinh(np.sqrt(n)))
        if channel.kind == PHASE:
            return OneModeProbeParams(r=r, theta=0.0)
        if channel.kind == SQUEEZE1_MODE1:
            return OneModeProbeParams(r=r, theta=np.pi / 4 - chi / 2)
        if channel.kind == COMBINED:
            return OneModeProbeParams(r=r, theta=-chi / 2 - np.pi / 4)
        raise InvalidInputError(f"no optimal-squeezing strategy for {channel.kind!r}")
    if family == FAMILY_ONE_MODE_PROBE:
        return TwoModeProbeParams(r1=float(np.arcsinh(np.sqrt(n))))
    if family == FAMILY_COHERENT:
        return TwoModeProbeParams(d1_mag=np.sqrt(n / 2), d2_mag=np.sqrt(n / 2))
    r = float(np.arcsinh(np.sqrt(n / 2)))
    if channel.kind == TWOMODE_SQUEEZE:
        a = np.pi / 4 - chi / 2
        b = np.pi / 4 + chi / 2
        return TwoModeProbeParams(r1=r, r2=r, phi1=a, phi2=a, phi_d1=b, phi_d2=b)
    if channel.kind == BEAMSPLIT:
        return TwoModeProbeParams(r1=r, r2=r, phi1=np.pi / 4 - chi / 2,
                                  phi2=-np.pi / 4 + chi / 2)
    raise InvalidInputError(f"no optimal-squeezing strategy for {channel.kind!r}")


def scaling_exponent(channel: ChannelSpec, family: str, n_grid) -> ScalingFit:
    """Fit ``log H`` vs ``log n`` on the tail half of an energy grid.

    An exponent near 2 flags Heisenberg scaling, near 1 shot-noise
    scaling.  The fit window is the largest half of the grid so additive
    constants in the closed forms do not bias the slope.
    """
    grid = sorted(float(n) for n in n_grid)
    if len(grid) < 4:
        raise InvalidInputError("n_grid needs at least 4 points")
    if grid[0] <= 0 or grid[-1] / grid[0] < 10.0:
        raise InvalidInputError("n_grid must be positive and span >= one decade")
    values = []
    for n in grid:
        params = _strategy_probe(channel, family, n)
        values.append(qfi_unitary(params.to_probe_state(), channel).total)
    values = np.asarray(values)
    if np.any(values <= 0):
        raise InvalidInputError("family yields non-positive QFI on the grid")
    tail = len(grid) // 2
    logn = np.log(np.asarray(grid)[tail:])
    logh = np.log(values[tail:])
    slope, intercept = np.polyfit(logn, logh, 1)
    return ScalingFit(float(slope), float(np.exp(intercept)),
                      tuple(grid), tuple(float(v) for v in values))


def conjecture_probe(channel: ChannelSpec, n_grid, restarts: int = 32,
                     seed: int = 0, jobs: int = 1) -> list:
    """Numeric evidence on where optimal probes put their energy.

    For each budget the unconstrained optimum is located and its
    displacement/thermal fractions recorded; entries are flagged when a
    fraction exceeds 1e-3, which would be evidence against squeezing
    exclusivity.  This gathers evidence only; it proves nothing.
    """
    family = ONE_MODE if channel.modes == 1 else TWO_MODE
    config = OptimizerConfig(restarts=restarts, seed=seed)
    report = []
    for n in n_grid:
        splits_shape = ((0.0, 0.0),) if family == ONE_MODE else ((0.0, 0.0), (0.0, 0.0))
        result = optimize_probe(channel, family, EnergyBudget(float(n), splits_shape),
                                config, jobs=jobs)
        splits = result.best_params["splits"]
        fractions = result.best_params["mode_fractions"]
        # fractions of the *total* budget; a mode whose energy share is zero
        # carries no information in its per-mode split
        f_d = sum(g * fd for g, (fd, _) in zip(fractions, splits))
        f_th = sum(g * ft for g, (_, ft) in zip(fractions, splits))
        flagged = f_d > 1e-3 or f_th > 1e-3
        report.append({"n": float(n), "best_qfi": result.best_qfi,
                       "splits": splits, "mode_fractions": fractions,
                       "f_d": f_d, "f_th": f_th, "flagged": flagged})
    return report

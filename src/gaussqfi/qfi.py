"""Quantum Fisher information for Gaussian states.

``qfi_unitary`` evaluates the one-parameter-group formula (Šafránek &
Fuentes, arXiv 1603.05545).  The probe enters through its Williamson
factors, the channel through its quadratic generator; the result needs no
channel parameter value because the QFI of a one-parameter group is the
same at every point.  It validates its inputs and calls ``qfi_kernel``,
the raw-array form of the same formula with the batch on the trailing
axis of every array; the optimizer evaluates whole batches of candidate
probes, and ``gaussqfi sweep`` a whole grid of probes or of channels,
through that kernel, whose small 2N axes are contracted as elementwise
products of length-B vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# validate_state is not called here; it stays bound because perfbench's
# tracer patches qfi.validate_state until the next change to the benchmark
# (ROADMAP item 4)
from .core import PHYSICALITY_TOL, GaussianState, validate_state
from .errors import InvalidInputError, NumericalInstabilityError
from .symplectic import WilliamsonForm
from .channels import ChannelSpec
from ._util import _freeze

# Eigenvalue products within this distance of 1 trigger the degenerate
# (pure-pure) conventions of the QFI formula.
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class ProbeState:
    """Probe specified by Williamson factors plus a displacement.

    The equivalent moments are ``sigma = S diag(lams, lams) S^dag`` and
    ``d = (d_tilde, conj(d_tilde))``.
    """

    williamson: WilliamsonForm
    d_tilde: np.ndarray = None

    def __post_init__(self):
        n = self.williamson.modes
        d = self.d_tilde
        d = np.zeros(n, dtype=complex) if d is None else np.atleast_1d(np.array(d, dtype=complex))
        if d.shape != (n,):
            raise InvalidInputError(f"d_tilde must have length {n}")
        lam_min = self.williamson.eigenvalues.min()
        if lam_min < 1.0 - PHYSICALITY_TOL:
            raise InvalidInputError(
                f"probe symplectic eigenvalues must be >= 1, smallest is {lam_min:.12g}")
        object.__setattr__(self, "d_tilde", _freeze(d))

    @property
    def modes(self) -> int:
        return self.williamson.modes

    def to_state(self) -> GaussianState:
        sigma = self.williamson.covariance
        n = self.modes
        return GaussianState(self.d_tilde, sigma[:n, :n], sigma[:n, n:])

    @classmethod
    def from_state(cls, state: GaussianState) -> "ProbeState":
        """Probe from raw moments.  The constructor of ``state`` checks its
        structure; ``williamson`` and the eigenvalue floor above are the
        physicality test."""
        from .symplectic import williamson

        return cls(williamson(state.covariance), state.d_tilde)


@dataclass(frozen=True)
class PMatrix:
    """Blocks of ``P = S^{-1} dS/deps``, an element of the symplectic
    Lie algebra (``PK + KP^dag = 0``)."""

    r_block: np.ndarray
    q_block: np.ndarray

    def algebra_residual(self) -> float:
        """Max-norm residual of the Lie-algebra condition."""
        r, q = self.r_block, self.q_block
        return max(float(np.max(np.abs(r + r.conj().T))),
                   float(np.max(np.abs(q - q.T))))


@dataclass(frozen=True)
class QfiBreakdown:
    """QFI total split into its four formula terms; ``eigen_term`` is 0
    for a unitary channel, which leaves the symplectic eigenvalues fixed."""

    r_term: float
    q_term: float
    eigen_term: float
    disp_term: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "total",
            self.r_term + self.q_term + self.eigen_term + self.disp_term)

    def to_dict(self) -> dict:
        return {"r_term": self.r_term, "q_term": self.q_term,
                "eigen_term": self.eigen_term, "disp_term": self.disp_term,
                "total": self.total}


def _mode_factors(lams: np.ndarray):
    """Pairwise eigenvalue factors ``(l_i - l_j)^2 / (l_i l_j - 1)``, zero
    for a pure-pure pair, and ``(l_i + l_j)^2 / (l_i l_j + 1)``, from
    ``lams`` (N, ...) to (N, N, ...); trailing axes are batch axes.  Each is
    divided through by ``l_i l_j`` and has the value ``temperature_factors``
    gives (up to the sign of a zero), so no finite eigenvalue overflows
    them."""
    li = lams[:, None]
    lj = lams[None, :]
    inv = 1.0 / li / lj
    # 1 + l_j / l_i is the transpose of l_i / l_j + 1, and (l_j - l_i) / l_i
    # that of (l_i - l_j) / l_j
    half = li / lj + 1.0
    f_plus = half.swapaxes(0, 1) * half / (1.0 + inv)
    c = (li - lj) / lj
    # -inf gives a pure-pure pair 0; an inf product is not pure, as it should be
    den = np.where(li * lj - 1.0 < DEGENERACY_TOL, -np.inf, inv - 1.0)
    return c.swapaxes(0, 1) * c / den, f_plus


def p_matrix(probe: ProbeState, channel: ChannelSpec) -> PMatrix:
    """Blocks of ``S_0^{-1} (iKW) S_0`` for the group framework."""
    if probe.modes != channel.modes:
        raise InvalidInputError(
            f"probe has {probe.modes} modes but channel has {channel.modes}")
    n = probe.modes
    s0 = probe.williamson.s
    p = s0.inverse().matrix @ channel.generator.ikw() @ s0.matrix
    return PMatrix(p[:n, :n], p[:n, n:])


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``sum_k a[i, k] b[k, j]`` over the two leading axes, batch axes
    trailing: one elementwise multiply-add per k over contiguous batch
    vectors, in order of k.  Each column is computed alone, so its value
    does not depend on the batch it is in."""
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, b.shape[0]):
        out += a[:, k, None] * b[None, k]
    return out


def _leading_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the two leading axes of ``x`` (I, J, ...) in a fixed order
    (``np.sum`` may pair terms differently for different batch sizes)."""
    return sum(x.reshape((-1,) + x.shape[2:]))


def qfi_kernel(s0: np.ndarray, lams: np.ndarray, d_tilde: np.ndarray,
               ikw: np.ndarray, gamma: np.ndarray):
    """Group-framework QFI terms from raw arrays, batch axes trailing.

    Args:
        s0: Williamson factors ``S_0``, shape ``(2N, 2N, ...)``.
        lams: symplectic eigenvalues, shape ``(N, ...)``.
        d_tilde: first half of the complex-form displacement, ``(N, ...)``.
        ikw: the channel generator's ``iKW``, ``(2N, 2N)`` or
            ``(2N, 2N, ...)`` with one generator per batch column.
        gamma: the generator's linear part, ``(2N,)`` or ``(2N, ...)``.

    A generator with batch axes needs probe arrays with as many (a single
    probe carries a trailing axis of length 1); the two broadcast against
    each other.  Returns ``(r_term, q_term, disp_term)``, each of the
    broadcast batch shape.  No input is checked: ``qfi_unitary`` is the
    validated entry point.

    Only the top N rows of ``P = S_0^{-1} iKW S_0`` and of
    ``u = S_0^{-1} v`` are formed.  ``S_0``, ``iKW`` and their products
    have the block-conjugation form ``[[a, b], [conj b, conj a]]``, and
    ``v = iKW d_0 + gamma`` is ``(w, conj w)``, so the bottom rows only
    repeat the top ones conjugated: the R and Q blocks are P's top rows,
    and ``2 v^dag sigma_0^{-1} v = 4 sum_top |u|^2 / lams``.  Both come
    from one product ``T = S_0^{-1} [iKW | gamma]``:
    ``P = T[:, :2N] S_0`` and ``u = T[:, :2N] d_0 + T[:, 2N]``.  Each
    contraction is a sequence of elementwise multiply-adds over the batch
    (never a BLAS product across it), so a probe's value does not depend
    on the batch it is in.
    """
    n = lams.shape[0]
    # top rows [A^dag, -B^T] of the symplectic inverse K S0^dag K, written in
    # place, with no temporaries and no concatenated copy
    s0inv_top = np.empty((n, 2 * n) + s0.shape[2:], dtype=complex)
    np.conj(s0[:n, :n].swapaxes(0, 1), out=s0inv_top[:, :n])
    np.negative(s0[:n, n:].swapaxes(0, 1), out=s0inv_top[:, n:])
    ext = np.concatenate([ikw, gamma[:, None]], axis=1)
    t = _contract(s0inv_top, ext.reshape(ext.shape + (1,) * (s0.ndim - ext.ndim)))
    t_ikw = t[:, :2 * n]
    p_top = _contract(t_ikw, s0)
    d0 = np.concatenate([d_tilde, np.conj(d_tilde)])
    u = _contract(t_ikw, d0[:, None])[:, 0] + t[:, 2 * n]

    f_minus, f_plus = _mode_factors(lams)
    p_abs2 = p_top.real ** 2 + p_top.imag ** 2
    r_term = _leading_sum(f_minus * p_abs2[:, :n])
    q_term = _leading_sum(f_plus * p_abs2[:, n:])
    disp_term = 4.0 * sum((u.real ** 2 + u.imag ** 2) / lams)
    return r_term, q_term, disp_term


def qfi_unitary(probe: ProbeState, channel: ChannelSpec) -> QfiBreakdown:
    """QFI of a one-parameter Gaussian unitary channel on a Gaussian probe.

    The symplectic eigenvalues are unchanged by a unitary channel, so the
    eigenvalue term vanishes identically; the displacement term evaluates
    ``2 v^dag sigma_0^{-1} v`` with ``v = iKW d_0 + gamma`` through the
    Williamson factors of the probe.  Raises NumericalInstabilityError
    naming the terms when their sum is not finite (a term overflows, or
    finite terms add past float64's range).
    """
    if probe.modes != channel.modes:
        raise InvalidInputError(
            f"probe has {probe.modes} modes but channel has {channel.modes}")
    form, w = probe.williamson, channel.generator
    with np.errstate(over="ignore", invalid="ignore"):
        terms = qfi_kernel(form.s.matrix, form.eigenvalues, probe.d_tilde, w.ikw(), w.gamma)
    r_term, q_term, disp_term = map(float, terms)
    if not math.isfinite(r_term + q_term + disp_term):
        raise _not_finite(r_term, q_term, disp_term)
    return QfiBreakdown(r_term, q_term, 0.0, disp_term)


def _not_finite(r_term: float, q_term: float, disp_term: float):
    return NumericalInstabilityError(
        f"QFI is not finite: r_term={r_term}, q_term={q_term}, disp_term={disp_term}")


def kernel_terms(s0: np.ndarray, lams: np.ndarray, d_tilde: np.ndarray,
                 ikw: np.ndarray, gamma: np.ndarray):
    """``qfi_kernel`` as a ``(3, B)`` array of ``(r_term, q_term,
    disp_term)`` rows, and the ``(B,)`` mask of the columns whose QFI
    ``r_term + q_term + disp_term`` is finite (a sum of floats is finite
    only when each term is).  An overflow raises no warning: the mask
    reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.reshape(qfi_kernel(s0, lams, d_tilde, ikw, gamma), (3, -1))
        finite = np.isfinite(terms[0] + terms[1] + terms[2])
    return terms, finite


def finite_terms(s0: np.ndarray, lams: np.ndarray, d_tilde: np.ndarray,
                 channel: ChannelSpec) -> np.ndarray:
    """``kernel_terms`` of a batch of probes (or one) on ``channel``.
    Raises NumericalInstabilityError naming the terms of the first probe
    whose QFI is not finite (for example at squeezing whose squared
    entries overflow, or with finite terms whose sum overflows)."""
    terms, finite = kernel_terms(s0, lams, d_tilde, channel.generator.ikw(),
                                 channel.generator.gamma)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise _not_finite(*map(float, terms[:, bad[0]]))
    return terms


def temperature_factors(lam_i: float, lam_j: float):
    """The four eigenvalue factor types appearing in the QFI formula.

    Returns ``(lam_i^2/(1+lam_i^2), (lam_i+lam_j)^2/(lam_i lam_j + 1),
    (lam_i-lam_j)^2/(lam_i lam_j - 1), 1/lam_i)`` with the third factor
    set to zero at a pure-pure degeneracy.
    """
    # written so that NaN fails: nan >= 1.0 is false; infinity gives NaN factors
    if not (1.0 <= lam_i < np.inf and 1.0 <= lam_j < np.inf):
        raise InvalidInputError(
            f"symplectic eigenvalues must be finite and >= 1, got {lam_i} and {lam_j}")
    lam_i, lam_j = float(lam_i), float(lam_j)
    # the eigenvalue product may overflow to inf (not pure); + 0.0 clears -0.0
    with np.errstate(over="ignore"):
        f_minus, f_plus = _mode_factors(np.array([lam_i, lam_j]))
    return (1.0 / (1.0 + (1.0 / lam_i) ** 2), float(f_plus[0, 1]),
            float(f_minus[0, 1]) + 0.0, 1.0 / lam_i)

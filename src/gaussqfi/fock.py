"""Brute-force QFI oracle in a truncated Fock basis.

A probe is carried as a factor ``B`` of its density matrix,
``rho = B B^dag``, with one column per thermal weight kept.  ``B`` starts
as ``sqrt(p_k) e_k`` for each weight of the thermal diagonal above
``SUPPORT_TOL / 2``; the dropped mass counts against the leak rule.
Conjugating rho by a truncated unitary multiplies ``B`` from the left:
one-mode factors act on their own mode axis of the row index, rotations
are elementwise phases, and the beam splitter, which conserves
``n1 + n2``, acts one block of constant total number at a time on that
block's rows.  Every other generator is anti-Hermitian and tridiagonal:
the displacement, each beam-splitter block, and the squeezer, which
couples ``n`` to ``n +- 2`` and so splits into an even-level and an
odd-level block.  Each such generator is a scalar (``-r/2``, ``|gamma|``
or ``theta``) times a unit-hop matrix fixed by the block's shape alone
(kind, cutoff, parity or total photon number).  That real symmetric
tridiagonal matrix is decomposed once per shape and process, and its
level index and the phase column of a real hop are kept with it
(``_unit_eigenbasis``); every exponential with that shape is applied in
factored form from its eigenbasis with the eigenvalues scaled
(``_expm_tridiag``), with no dense matrix exponential; a step whose
arguments are all 0 is the identity and is not built.  The leak rule is
read on the thermal start and after each step that moves population,
which a rotation's unit-modulus phases do not.
``B B^dag`` is positive semidefinite by construction, and every
truncated exponential of an anti-Hermitian generator is unitary, so the
columns of ``B`` stay orthogonal with squared norms equal to the kept
weights: they are rho's support eigenvectors and eigenvalues, with no
eigendecomposition.  The channel ``U = exp(eps G)`` with anti-Hermitian
``G`` is differentiated exactly, ``drho/deps = G rho - rho G`` at
``eps = 0``, and ``G`` is applied to the eigenvectors by ladder shifts:
each ``a`` or ``a^dag`` moves its own mode axis by one level, scaled by
``sqrt(n + 1)``, a column kept once per cutoff.  The QFI is evaluated
through the spectral form of the symmetric logarithmic derivative;
unitaries keep the rank, so that sum over the support is continuous in
the channel parameter, and completeness supplies the pairs outside it.
Nothing here touches the phase-space machinery, which is the point: it
validates the fast path from outside the formalism.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np
# scipy.linalg is not called here; it stays bound because perfbench's
# tracer swaps fock.scipy.linalg.expm until the next change to the
# benchmark (ROADMAP items 4-5)
import scipy.linalg
from scipy.linalg.lapack import dstevd

from ._util import _freeze, _is_integral
from .channels import ChannelSpec
from .errors import CutoffTooSmallError, InvalidInputError
from .probes import OneModeProbeParams, TwoModeProbeParams

# Trace loss allowed after every truncated conjugation (cumulative).
LEAK_TOL = 1e-8
MAX_CUTOFF_ONE_MODE = 512
MAX_CUTOFF_TWO_MODE = 80
# Eigenvalue pairs with p_j + p_k below this are outside the support.
SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class FockDensity:
    """Density matrix ``factor @ factor^dag`` on a truncated Fock space
    (cutoff levels per mode); ``factor`` is ``cutoff ** modes`` by the
    number of kept thermal weights, with orthogonal columns."""

    cutoff: int
    modes: int
    factor: np.ndarray


@cache
def _levels(cutoff: int) -> np.ndarray:
    """Read-only level index ``n = 0 .. cutoff - 1``."""
    return _freeze(np.arange(cutoff))


def _thermal_diag(lam: float, cutoff: int) -> np.ndarray:
    n_th = (lam - 1.0) / 2.0
    # n_th = 0 (pure) gives exactly (1, 0, 0, ...); the ratio's powers
    # underflow gently where n_th ** k would overflow
    return (n_th / (1.0 + n_th)) ** _levels(cutoff) / (1.0 + n_th)


def _rotation_phases(theta: float, cutoff: int) -> np.ndarray:
    """Diagonal of the rotation operator ``exp(-i theta n)``."""
    return np.exp(-1j * theta * _levels(cutoff))


def _real_left(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``v @ z`` for real ``v`` and C-contiguous complex ``z``, as one
    real product on ``z``'s float view."""
    return (v @ z.view(float)).view(complex)


@cache
def _unit_eigenbasis(kind: str, cutoff: int, index: int) -> tuple:
    """Read-only eigenpairs ``(w, V)``, level index ``k`` and ``alpha = 0``
    phase column ``e^{-i (pi/2) k}`` of one block's unit-hop matrix, the
    real symmetric tridiagonal matrix with zero diagonal whose generator
    is a scalar times it.  Every block of one shape (kind, cutoff, and the
    parity or total photon number ``index``) is built once per process."""
    if kind == "squeeze":
        # a^dag^2 |n> = sqrt((n + 1) (n + 2)) |n + 2>, n of parity index
        n = np.arange(index, cutoff - 2, 2)
        hop = np.sqrt((n + 1.0) * (n + 2.0))
    elif kind == "displace":
        # a^dag |n> = sqrt(n + 1) |n + 1>
        hop = np.sqrt(np.arange(1.0, cutoff))
    else:
        # "beamsplit": a1^dag a2 |n1, n2> = sqrt((n1 + 1) n2) |n1 + 1, n2 - 1>
        # at n1 + n2 = index
        n1 = np.arange(max(0, index - cutoff + 1), min(index, cutoff - 1))
        hop = np.sqrt((n1 + 1.0) * (index - n1))
    w, v, info = dstevd(np.zeros(hop.size + 1), hop)
    if info:
        raise np.linalg.LinAlgError(f"dstevd failed with info {info}")
    k = np.arange(w.size)
    return tuple(map(_freeze, (w, v, k, np.exp(1j * (0.0 - np.pi / 2) * k)[:, None])))


def _expm_tridiag(basis: tuple, scale: float, alpha: float, mat: np.ndarray) -> np.ndarray:
    """``exp(T) @ mat`` along axis -2 of ``mat`` (other axes broadcast) for
    the anti-Hermitian tridiagonal ``T`` with subdiagonal
    ``scale hop e^{i alpha}`` and superdiagonal ``-scale hop e^{-i alpha}``,
    where ``basis = (w, V, k, d0)`` from ``_unit_eigenbasis`` diagonalizes
    the unit-hop matrix ``J = V diag(w) V^T``.

    ``T = D (i scale J) D^-1`` with ``D = diag(e^{i (alpha - pi/2) k})``,
    so ``exp(T) = D V e^{i scale w} V^T D^-1``, unitary to rounding (the
    eigenvector method for normal matrices).  Scaling the eigenvalues and
    keeping ``V`` holds for either sign of ``scale``; it does not rely on
    the order of the eigenvalues.
    """
    w, v, k, d0 = basis
    d = d0 if alpha == 0 else np.exp(1j * (alpha - np.pi / 2) * k)[:, None]
    inner = _real_left(v.T, d.conj() * mat)
    return d * _real_left(v, np.exp(1j * scale * w)[:, None] * inner)


def _squeeze(r: float, mat: np.ndarray) -> np.ndarray:
    """Truncated ``exp(-(r/2) (a^dag^2 - a^2)) @ mat`` along axis -2.

    The generator couples ``n`` to ``n +- 2``: one tridiagonal block on
    the even levels and one on the odd levels.
    """
    cutoff = mat.shape[-2]
    out = np.empty(mat.shape, dtype=complex)
    for parity in (0, 1):
        out[..., parity::2, :] = _expm_tridiag(_unit_eigenbasis("squeeze", cutoff, parity),
                                               -0.5 * r, 0.0, mat[..., parity::2, :])
    return out


def _displace(gamma: complex, mat: np.ndarray) -> np.ndarray:
    """Truncated ``exp(gamma a^dag - gamma^* a) @ mat`` along axis -2."""
    return _expm_tridiag(_unit_eigenbasis("displace", mat.shape[-2], 0),
                         abs(gamma), float(np.angle(gamma)), mat)


def _beamsplit(theta: float, chi: float, cutoff: int, mat: np.ndarray) -> np.ndarray:
    """Truncated ``exp(theta (e^{i chi} a1^dag a2 - h.c.)) @ mat`` on the
    ``cutoff ** 2`` two-mode space.

    The generator conserves ``n1 + n2``, so it is block diagonal with one
    block of at most ``cutoff`` levels per total; each block is
    tridiagonal in ``n1`` and is applied to its own rows, ``n1 cutoff + n2
    = total + n1 (cutoff - 1)``: a strided slice.  The one-level blocks
    (totals 0 and ``2 cutoff - 2``) have a zero generator and keep their
    rows.
    """
    out = np.array(mat, dtype=complex)
    for total in range(1, 2 * cutoff - 2):
        rows = slice(total + max(0, total - cutoff + 1) * (cutoff - 1),
                     total + min(total, cutoff - 1) * (cutoff - 1) + 1, cutoff - 1)
        out[rows] = _expm_tridiag(_unit_eigenbasis("beamsplit", cutoff, total),
                                  theta, chi, mat[rows])
    return out


def _apply_local(op, args: tuple, cutoff: int, mat: np.ndarray) -> np.ndarray:
    """``(op(args[0], .) x op(args[1], .) x ...) @ mat``, one mode axis of
    the row index at a time instead of forming the Kronecker product:
    ``op(arg, .)`` maps a stack of ``(cutoff, m)`` blocks along mode k's
    axis, and a zero ``args[k]`` is the identity on its mode."""
    out = mat
    for k, arg in enumerate(args):
        if arg != 0:
            out = op(arg, out.reshape(cutoff ** k, cutoff, -1))
    return out.reshape(mat.shape)


def _leak(probs: np.ndarray, cutoff: int, modes: int) -> float:
    """Trace leak of a state with diagonal ``probs``: the trace lost or,
    if larger, the population in the top two Fock levels of any mode.
    Truncated exponentials of anti-Hermitian generators are exactly
    unitary, so trace alone never drops; the mass at the edge of the
    basis is what would have leaked past the cutoff and bounds the
    truncation error of every later step.  Two levels are read because
    parity-restricted states leave the very top level empty."""
    total = np.add.reduce(probs, axis=None)
    interior = np.add.reduce(probs.reshape((cutoff,) * modes)[(slice(cutoff - 2),) * modes],
                             axis=None)
    return max(1.0 - float(total), float(total - interior))


def build_fock_state(params, cutoff: int) -> FockDensity:
    """Truncated density matrix of a parametric probe, as its factor.

    Raises CutoffTooSmallError when the thermal start or any step that
    moves population leaks more than LEAK_TOL of trace, read from the row
    norms of the factor (the diagonal of rho), and InvalidInputError for
    a cutoff that is not an integer (16.0 counts as 16) of at least 8.
    """
    if not _is_integral(cutoff):
        raise InvalidInputError(f"cutoff must be an integer, got {cutoff!r}")
    cutoff = int(cutoff)
    if cutoff < 8:
        raise InvalidInputError(f"cutoff must be >= 8, got {cutoff}")

    # (label, op, arguments), one argument per mode but for the beam
    # splitter; rotations carry no label: their phases move no population
    if isinstance(params, OneModeProbeParams):
        modes = 1
        weights = _thermal_diag(params.lambda1, cutoff)
        steps = [("squeezing", _squeeze, (params.r,)),
                 (None, _rotation_phases, (params.theta,)),
                 ("displacement", _displace, (params.d_mag * np.exp(1j * params.phi_d),))]
    elif isinstance(params, TwoModeProbeParams):
        modes = 2
        weights = np.multiply.outer(_thermal_diag(params.lambda1, cutoff),
                                    _thermal_diag(params.lambda2, cutoff)).ravel()
        steps = [("squeezing", _squeeze, (params.r1, params.r2)),
                 (None, _rotation_phases, (params.psi, -params.psi)),
                 ("beam splitter", _beamsplit, (params.theta,)),
                 (None, _rotation_phases, (params.phi1, params.phi2)),
                 ("displacement", _displace, (params.d1_mag * np.exp(1j * params.phi_d1),
                                              params.d2_mag * np.exp(1j * params.phi_d2)))]
    else:
        raise InvalidInputError(f"unsupported probe parameter type {type(params)!r}")

    def check(label, probs):
        leak = _leak(probs, cutoff, modes)
        if leak > LEAK_TOL:
            raise CutoffTooSmallError(f"cutoff {cutoff}: trace leakage {leak:.2e} after {label}")

    kept = weights > SUPPORT_TOL / 2
    factor = np.zeros((weights.size, np.count_nonzero(kept)), dtype=complex)
    factor[kept, np.arange(factor.shape[1])] = np.sqrt(weights[kept])
    check("thermal truncation", np.where(kept, weights, 0.0))  # the start's squared row norms
    for label, op, args in steps:
        if not any(args):
            continue  # a step whose arguments are all 0 is the identity and is not built
        if op is _rotation_phases:
            phases = reduce(np.multiply.outer, [op(t, cutoff) for t in args]).ravel()
            factor = phases[:, None] * factor
        elif op is _beamsplit:
            factor = op(*args, 0.0, cutoff, factor)
        else:
            factor = _apply_local(op, args, cutoff, factor)
        if label:
            check(label, np.add.reduce(factor.real ** 2 + factor.imag ** 2, axis=1))
    return FockDensity(cutoff, modes, factor)


@cache
def _ladder_roots(cutoff: int) -> np.ndarray:
    """Read-only column ``sqrt(n + 1)``, ``n = 0 .. cutoff - 2``."""
    return _freeze(np.sqrt(np.arange(1.0, cutoff))[:, None])


def _shift(raising: bool, mat: np.ndarray) -> np.ndarray:
    """Truncated ``a^dag @ mat`` (``raising``) or ``a @ mat`` along axis -2,
    with ``a^dag |n> = sqrt(n + 1) |n + 1>``."""
    root = _ladder_roots(mat.shape[-2])
    out = np.zeros(mat.shape, dtype=complex)
    if raising:
        np.multiply(root, mat[..., :-1, :], out=out[..., 1:, :])
    else:
        np.multiply(root, mat[..., 1:, :], out=out[..., :-1, :])
    return out


def apply_generator(channel: ChannelSpec, cutoff: int, vecs: np.ndarray) -> np.ndarray:
    """``G @ vecs`` for the anti-Hermitian Fock-space generator of the
    channel's unitary group, in complex form over
    ``A = (a_1..a_N, a_1^dag..a_N^dag)``,
    ``G = (i/2) sum_ij W_ij (A^dag)_i A_j + sum_i K_ii gamma_i (A^dag)_i``.
    Each ladder operator is a shift on its mode axis; a same-mode product
    is two shifts, equal to the truncated matrix product.  Any number of
    modes is read; the probes built here have one or two."""
    n = channel.modes

    def component(i, dagger, mat):
        """``(A^dag)_i @ mat`` (``dagger``) or ``A_i @ mat``, a shift on
        axis -2 of mode ``i % n``'s stack of ``(cutoff, m)`` blocks."""
        block = mat.reshape(cutoff ** (i % n), cutoff, -1)
        return _shift(dagger == (i < n), block).reshape(mat.shape)

    w, gamma = channel.generator.matrix, channel.generator.gamma
    out = np.zeros(vecs.shape, dtype=complex)
    for i, j in np.argwhere(w):
        out += 0.5j * w[i, j] * component(i, True, component(j, False, vecs))
    for i in np.flatnonzero(gamma):
        out += (gamma[i] if i < n else -gamma[i]) * component(i, True, vecs)  # K_ii gamma_i
    return out


def _check_modes(params, channel: ChannelSpec):
    if channel.modes != len(params.ENERGY):
        raise InvalidInputError("probe and channel mode counts differ")


def ladder_state(params) -> FockDensity:
    """Probe state at the smallest cutoff on the doubling ladder that
    passes the leak rule (8, 16, ..., 512 one mode; 10, 20, 40, 80 two
    modes)."""
    cutoff, limit = ((8, MAX_CUTOFF_ONE_MODE) if len(params.ENERGY) == 1
                     else (10, MAX_CUTOFF_TWO_MODE))
    last_err = None
    while cutoff <= limit:
        try:
            return build_fock_state(params, cutoff)
        except CutoffTooSmallError as err:
            last_err = err
            cutoff *= 2
    raise CutoffTooSmallError(
        f"no cutoff up to {limit} passes the leak rule: {last_err}")


def choose_cutoff(params, channel: ChannelSpec = None) -> int:
    """Smallest cutoff from the doubling ladder that passes the leak rule.

    The state built at that cutoff is dropped.  A caller that goes on to
    evaluate a QFI should take ``ladder_state`` and pass it to
    ``state_qfi``, which builds the state once.
    """
    if channel is not None:
        _check_modes(params, channel)
    return ladder_state(params).cutoff


def state_qfi(rho: FockDensity, channel: ChannelSpec) -> float:
    """QFI of a built Fock state under the channel, via the SLD spectral sum.

    ``H = 2 sum_jk |<j| drho |k>|^2 / (p_j + p_k)`` over the support
    ``p_j + p_k > SUPPORT_TOL``, with the exact derivative
    ``drho = G rho - rho G``.  In rho's eigenbasis
    ``<j| drho |k> = (p_k - p_j) g_jk`` with ``g_jk = <j| G |k>``.

    The factor's columns are orthogonal, so the eigenpairs with
    ``p > SUPPORT_TOL / 2`` (the set S) are their squared norms and the
    normalised columns; every pair in the support has an index in S.
    Pairs inside S are summed exactly.  A pair with ``j`` in S and ``k``
    outside has ``p_k <= SUPPORT_TOL / 2`` and weight
    ``(p_j - p_k)^2 / (p_j + p_k)``, taken as ``p_j`` (off by at most
    ``3 |p_k|``), and completeness of the eigenbasis sums its ``|g_jk|^2``
    over k: ``sum_{k not in S} |g_jk|^2 = |G v_j|^2 - sum_{k in S} |g_jk|^2``.
    For a nearly pure state S holds a handful of vectors.
    """
    if channel.modes != rho.modes:
        raise InvalidInputError("probe and channel mode counts differ")
    b = rho.factor
    probs = np.add.reduce(b.real ** 2 + b.imag ** 2)
    vecs = b / np.sqrt(probs)
    g_vecs = apply_generator(channel, rho.cutoff, vecs)
    g_sq = np.abs(vecs.conj().T @ g_vecs) ** 2
    inside = np.add.reduce(g_sq * (probs[:, None] - probs[None, :]) ** 2
                           / (probs[:, None] + probs[None, :]), axis=None)
    outside = np.add.reduce(np.abs(g_vecs) ** 2) - np.add.reduce(g_sq)
    # pairs (j, k) and (k, j) with k outside S contribute alike
    return 2.0 * float(inside + 2.0 * np.dot(probs, outside))


def fock_qfi(params, channel: ChannelSpec, cutoff: int = None) -> float:
    """QFI of a parametric probe under the channel in the Fock basis.

    Builds the probe at ``cutoff``, or at the first cutoff of the ladder
    that passes the leak rule, and evaluates ``state_qfi`` on it.
    """
    _check_modes(params, channel)
    rho = ladder_state(params) if cutoff is None else build_fock_state(params, cutoff)
    return state_qfi(rho, channel)

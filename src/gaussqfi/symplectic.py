"""Structured symplectic linear algebra: the one symplectic check (for a
matrix or a batch), generator exponentials, the displacement integral,
Williamson decomposition and the batched Bloch-Messiah product.

Each exponential is one ``scipy.linalg.expm`` (Al-Mohy & Higham 2009); the
displacement integral is read off an augmented one (Van Loan 1978)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
import scipy.linalg

from ._util import _as_complex, _complex_form, _freeze
from .core import STRUCTURE_ATOL, _block_pair, _spectrum, exceeds_structure_tol, k_signs
from .errors import (
    DecompositionFailureError,
    InvalidDimensionError,
    NumericalInstabilityError,
    StructureError,
)

RECONSTRUCTION_FAIL_RTOL = 1e-8


@dataclass(frozen=True)
class SymplecticMatrix:
    """Complex-form symplectic matrix stored by its (alpha, beta) blocks.

    The full matrix ``[[alpha, beta], [conj(beta), conj(alpha)]]``
    satisfies ``S K S^dag = K``; equivalently
    ``alpha alpha^dag - beta beta^dag = I`` with ``alpha beta^T`` symmetric.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.array(self.alpha, dtype=complex))
        n = a.shape[0]
        b = _as_complex(self.beta, (n, n), "beta")
        if a.shape != (n, n):
            raise InvalidDimensionError("alpha must be square")
        res, ok = symplectic_check(a, b)
        if not math.isfinite(res):
            raise StructureError("blocks must be finite, with squares that do not overflow")
        if not ok:
            raise StructureError(f"blocks violate the symplectic condition (residual {res:.2e})")
        object.__setattr__(self, "alpha", _freeze(a))
        object.__setattr__(self, "beta", _freeze(b))

    @property
    def modes(self) -> int:
        return self.alpha.shape[0]

    # assembled on first use and read-only: a probe's factor is read by the
    # reconstruction check and again by the QFI
    @cached_property
    def matrix(self) -> np.ndarray:
        return _freeze(_complex_form(self.alpha, self.beta))

    def inverse(self) -> "SymplecticMatrix":
        """Symplectic inverse ``K S^dag K`` (never a general inverse)."""
        return SymplecticMatrix(self.alpha.conj().T, -self.beta.T)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        a = self.alpha @ other.alpha + self.beta @ other.beta.conj()
        b = self.alpha @ other.beta + self.beta @ other.alpha.conj()
        return SymplecticMatrix(a, b)

    @classmethod
    def identity(cls, modes: int) -> "SymplecticMatrix":
        return cls(np.eye(modes, dtype=complex), np.zeros((modes, modes), dtype=complex))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "SymplecticMatrix":
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
            raise InvalidDimensionError(f"matrix must be 2N x 2N, got {m.shape}")
        n = m.shape[0] // 2
        res = float(np.max(np.abs(m - _complex_form(m[:n, :n], m[:n, n:]))))
        if exceeds_structure_tol(res, m):
            raise StructureError(f"matrix lacks block-conjugation structure (residual {res:.2e})")
        return cls(m[:n, :n], m[:n, n:])


@cache
def _eye(n: int) -> np.ndarray:
    return _freeze(np.eye(n))


def symplectic_check(alpha: np.ndarray, beta: np.ndarray):
    """``S K S^dag = K`` for the blocks of one matrix, (N, N), or of a batch,
    (..., N, N): per matrix, the max-norm residual of ``alpha alpha^dag -
    beta beta^dag = I`` and of ``alpha beta^T`` symmetric, and whether it
    passes ``STRUCTURE_ATOL * max(1, max|alpha|^2 + max|beta|^2)`` (roundoff
    grows with the squared entries).  The residual of NaN, inf or
    overflowing squares is NaN, which fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        ab = alpha @ beta.swapaxes(-1, -2)
        gram = alpha @ alpha.conj().swapaxes(-1, -2) - beta @ beta.conj().swapaxes(-1, -2)
        res = np.maximum(abs(gram - _eye(alpha.shape[-1])),
                         abs(ab - ab.swapaxes(-1, -2))).max((-2, -1))
        scale = abs(alpha).max((-2, -1)) ** 2 + abs(beta).max((-2, -1)) ** 2
        res = res + 0.0 * scale  # NaN where the scale is NaN or inf
    return res, res <= STRUCTURE_ATOL * np.maximum(1.0, scale)


def symplectic_residual(s: SymplecticMatrix) -> float:
    """Max-norm residual of ``S K S^dag - K``."""
    return float(symplectic_check(s.alpha, s.beta)[0])


@dataclass(frozen=True)
class GeneratorW:
    """Hermitian quadratic generator with optional linear part.

    ``W = [[X, Y], [conj(Y), conj(X)]]`` with X Hermitian and Y symmetric;
    the linear part is stored as ``gamma_tilde`` with the full vector being
    ``(gamma_tilde, conj(gamma_tilde))``.
    """

    x_block: np.ndarray
    y_block: np.ndarray
    gamma_tilde: np.ndarray = None

    def __post_init__(self):
        x = np.atleast_2d(np.array(self.x_block, dtype=complex))
        n = x.shape[0]
        g = self.gamma_tilde
        g = np.zeros(n, dtype=complex) if g is None else np.atleast_1d(np.array(g, dtype=complex))
        if g.shape != (n,):
            raise InvalidDimensionError(f"gamma_tilde must have length {n}")
        _block_pair(self, n, ("x_block", x, "X"), ("y_block", self.y_block, "Y"), "generator", g)
        object.__setattr__(self, "gamma_tilde", _freeze(g))

    @property
    def modes(self) -> int:
        return self.x_block.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return _complex_form(self.x_block, self.y_block)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _freeze(np.concatenate([self.gamma_tilde, self.gamma_tilde.conj()]))

    def scaled(self, factor: float) -> "GeneratorW":
        return GeneratorW(factor * self.x_block, factor * self.y_block,
                          factor * self.gamma_tilde)

    def ikw(self) -> np.ndarray:
        """The matrix ``iKW`` generating the symplectic flow (read-only)."""
        return self._ikw

    # formed on first use: every QFI evaluation of a channel reads iKW and gamma
    @cached_property
    def _ikw(self) -> np.ndarray:
        return _freeze(1j * k_signs(self.modes)[:, None] * self.matrix)


def exp_generator(w: GeneratorW) -> SymplecticMatrix:
    """Symplectic matrix ``exp(iKW)`` of a quadratic generator.

    One ``scipy.linalg.expm`` of iKW; the result must be finite and pass
    ``SymplecticMatrix.from_matrix``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = scipy.linalg.expm(w.ikw())
    if not np.isfinite(m).all():
        raise NumericalInstabilityError("exponential overflowed; reduce |W|")
    try:
        return SymplecticMatrix.from_matrix(m)
    except StructureError as exc:
        raise NumericalInstabilityError(f"exponential is not symplectic: {exc}; reduce |W|") from exc


def displacement_shift(w: GeneratorW) -> np.ndarray:
    """Displacement ``b = (integral_0^1 exp(iKW t) dt) gamma``.

    ``b`` is the last column of ``expm([[iKW, gamma], [0, 0]])`` (Van Loan
    1978), exact for singular iKW and exactly zero for zero gamma.
    """
    n2 = 2 * w.modes
    aug = np.zeros((n2 + 1, n2 + 1), dtype=complex)
    aug[:n2, :n2] = w.ikw()
    aug[:n2, n2] = w.gamma
    with np.errstate(over="ignore", invalid="ignore"):
        b = scipy.linalg.expm(aug)[:n2, n2]
    if not np.isfinite(b).all():
        raise NumericalInstabilityError("displacement integral overflowed; reduce |W|")
    return b


@dataclass(frozen=True)
class WilliamsonForm:
    """Williamson factorization ``sigma = S diag(lams, lams) S^dag``."""

    s: SymplecticMatrix
    eigenvalues: np.ndarray

    def __post_init__(self):
        lams = np.atleast_1d(np.array(self.eigenvalues, dtype=float))
        if lams.shape != (self.s.modes,):
            raise InvalidDimensionError("eigenvalue count must match modes")
        object.__setattr__(self, "eigenvalues", _freeze(lams))

    @property
    def modes(self) -> int:
        return self.s.modes

    @property
    def covariance(self) -> np.ndarray:
        m = self.s.matrix
        d = np.concatenate([self.eigenvalues, self.eigenvalues])
        return (m * d[None, :]) @ m.conj().T


def williamson(sigma: np.ndarray) -> WilliamsonForm:
    """Williamson decomposition of a valid complex-form covariance.

    Raises what ``core.symplectic_eigenvalues`` raises.  Among equal
    eigenvalues the factor is fixed only up to a unitary; no gauge is chosen.
    """
    sigma = np.asarray(sigma, dtype=complex)
    lams, cols = _spectrum(sigma)
    s = SymplecticMatrix(cols[:lams.size], cols[lams.size:].conj())
    form = WilliamsonForm(s, lams)
    res = float(abs(form.covariance - sigma).max())
    scale = float(abs(sigma).max())
    if res > RECONSTRUCTION_FAIL_RTOL * max(scale, 1.0):
        raise DecompositionFailureError(
            f"reconstruction residual {res:.2e} exceeds {RECONSTRUCTION_FAIL_RTOL:.0e}")
    return form


def bloch_messiah(u: np.ndarray, r: np.ndarray, v: np.ndarray = None) -> np.ndarray:
    """Complex form of ``blkdiag(u, conj u) Z(r) blkdiag(v, conj v)``:
    ``alpha = u cosh(r) v`` and ``beta = -u sinh(r) conj(v)`` (Bloch-Messiah,
    Braunstein 2005), with ``v = None`` the identity.  Batch axes trail:
    ``u`` and ``v`` are (N, N, ...), ``r`` is (N, ...) and the result is
    (2N, 2N, ...).  Nothing is checked; ``SymplecticMatrix`` checks one."""
    n = u.shape[0]
    s0 = np.empty((2 * n, 2 * n) + u.shape[2:], dtype=complex)
    a, b = s0[:n, :n], s0[:n, n:]
    np.multiply(u, np.cosh(r), out=a)
    # (-u) sinh(r), not u (-sinh(r)): the two differ in the sign of zeros
    np.negative(u, out=b)
    b *= np.sinh(r)
    if v is not None:
        # elementwise rank-one terms: a column's bits do not depend on the batch
        a[...] = sum(a[:, j, None] * v[j] for j in range(n))
        b[...] = sum(b[:, j, None] * v[j].conj() for j in range(n))
    np.conj(b, out=s0[n:, :n])
    np.conj(a, out=s0[n:, n:])
    return s0

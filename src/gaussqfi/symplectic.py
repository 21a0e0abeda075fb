"""Structured symplectic linear algebra: generator exponentials, the
displacement integral, Williamson decomposition and Euler composition.

Each exponential is one ``scipy.linalg.expm`` (Al-Mohy & Higham 2009); the
displacement integral is read off an augmented one (Van Loan 1978)."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from ._util import _as_complex, _check_finite, _complex_form, _freeze
from .core import STRUCTURE_ATOL, _spectrum, exceeds_structure_tol, k_signs
from .errors import (
    DecompositionFailureError,
    InvalidDimensionError,
    InvalidInputError,
    NumericalInstabilityError,
    StructureError,
)

SYMPLECTIC_FAIL_ATOL = 1e-9
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
        # roundoff in the defining products grows with the squared entry
        # scale; NaN, inf or overflowing squares leave nothing to check
        ma, mb = float(np.max(np.abs(a))), float(np.max(np.abs(b)))
        scale = ma * ma + mb * mb
        if not math.isfinite(scale):
            raise StructureError("blocks must be finite, with squares that do not overflow")
        res = max(
            float(np.max(np.abs(a @ a.conj().T - b @ b.conj().T - np.eye(n)))),
            float(np.max(np.abs(a @ b.T - (a @ b.T).T))),
        )
        if not res <= STRUCTURE_ATOL * max(1.0, scale):  # NaN fails
            raise StructureError(f"blocks violate the symplectic condition (residual {res:.2e})")
        object.__setattr__(self, "alpha", _freeze(a))
        object.__setattr__(self, "beta", _freeze(b))

    @property
    def modes(self) -> int:
        return self.alpha.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return _complex_form(self.alpha, self.beta)

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


def symplectic_residual(s: SymplecticMatrix) -> float:
    """Max-norm residual of ``S K S^dag - K``."""
    m = s.matrix
    k = np.diag(k_signs(s.modes))
    return float(np.max(np.abs(m @ k @ m.conj().T - k)))


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
        x = _as_complex(x, (n, n), "x_block")
        y = _as_complex(self.y_block, (n, n), "y_block")
        g = self.gamma_tilde
        g = np.zeros(n, dtype=complex) if g is None else np.atleast_1d(np.asarray(g, dtype=complex))
        if g.shape != (n,):
            raise InvalidDimensionError(f"gamma_tilde must have length {n}")
        _check_finite("generator", x, y, g)
        if exceeds_structure_tol(np.max(np.abs(x - x.conj().T)), x, y):
            raise StructureError("X block must be Hermitian")
        if exceeds_structure_tol(np.max(np.abs(y - y.T)), x, y):
            raise StructureError("Y block must be symmetric")
        object.__setattr__(self, "x_block", _freeze(x / 2 + x.conj().T / 2))
        object.__setattr__(self, "y_block", _freeze(y / 2 + y.T / 2))
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

    One ``scipy.linalg.expm`` of iKW; the result must be finite, keep the
    block-conjugation structure and satisfy ``S K S^dag = K``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        m = scipy.linalg.expm(w.ikw())
    if not np.isfinite(m).all():
        raise NumericalInstabilityError("exponential overflowed; reduce |W|")
    n = w.modes
    scale = max(1.0, float(np.max(np.abs(m))))
    res = float(np.max(np.abs(m - _complex_form(m[:n, :n], m[:n, n:]))))
    if res > SYMPLECTIC_FAIL_ATOL * scale:
        raise NumericalInstabilityError(
            f"exponential lost block structure (residual {res:.2e}); reduce |W|")
    try:
        s = SymplecticMatrix(m[:n, :n], m[:n, n:])
    except StructureError as exc:
        raise NumericalInstabilityError(f"exponential lost symplecticity: {exc}") from exc
    res = symplectic_residual(s)
    if res > SYMPLECTIC_FAIL_ATOL * scale * scale:
        raise NumericalInstabilityError(
            f"exponential lost symplecticity (residual {res:.2e}); reduce |W|")
    return s


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
        lams = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
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
    lams, cols = _spectrum(sigma)
    s = SymplecticMatrix(cols[:lams.size], cols[lams.size:].conj())
    form = WilliamsonForm(s, lams)
    res = float(np.max(np.abs(form.covariance - sigma)))
    scale = float(np.max(np.abs(sigma)))
    if res > RECONSTRUCTION_FAIL_RTOL * max(scale, 1.0):
        raise DecompositionFailureError(
            f"reconstruction residual {res:.2e} exceeds {RECONSTRUCTION_FAIL_RTOL:.0e}")
    return form


@dataclass(frozen=True)
class EulerFactors:
    """Euler (Bloch-Messiah) factors: passive U1, squeezings r, passive U2."""

    u1: np.ndarray
    squeezings: np.ndarray
    u2: np.ndarray

    def __post_init__(self):
        u1 = np.atleast_2d(np.array(self.u1, dtype=complex))
        n = u1.shape[0]
        u2 = _as_complex(self.u2, (n, n), "u2")
        r = np.atleast_1d(np.asarray(self.squeezings, dtype=float))
        if r.shape != (n,):
            raise InvalidDimensionError("squeezings must have one entry per mode")
        for name, u in (("u1", u1), ("u2", u2)):
            if exceeds_structure_tol(np.max(np.abs(u @ u.conj().T - np.eye(n))), u):
                raise InvalidInputError(f"{name} must be unitary")
        object.__setattr__(self, "u1", _freeze(u1))
        object.__setattr__(self, "u2", _freeze(u2))
        object.__setattr__(self, "squeezings", _freeze(r))


def euler_compose(factors: EulerFactors) -> SymplecticMatrix:
    """Assemble ``blkdiag(U1, conj U1) . squeeze(r) . blkdiag(U2, conj U2)``.

    The middle factor carries the ``-sinh`` off-diagonal sign convention.
    """
    ch = np.diag(np.cosh(factors.squeezings)).astype(complex)
    sh = np.diag(np.sinh(factors.squeezings)).astype(complex)
    alpha = factors.u1 @ ch @ factors.u2
    beta = -factors.u1 @ sh @ factors.u2.conj()
    return SymplecticMatrix(alpha, beta)

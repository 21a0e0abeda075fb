"""Complex-form phase-space data model for N-mode Gaussian states.

Conventions (fixed globally, hbar-free):

* mode operators are collected as ``A = (a_1..a_N, a_1^dag..a_N^dag)``;
* the commutation matrix is ``K = diag(+I, -I)``;
* first moments ``d = <A>`` carry the conjugate-pair structure
  ``d = (d_tilde, conj(d_tilde))``;
* second moments use the anticommutator form
  ``sigma_ij = <{dA_i, dA_j^dag}>`` so the vacuum covariance is the
  identity and a thermal mode has ``sigma = diag(lam, lam)`` with
  ``lam = 1 + 2 n_th >= 1``.

Only the irredundant halves (``d_tilde`` and the ``X``, ``Y`` covariance
blocks) are stored; full vectors and matrices are assembled views, which
makes the conjugate-pair structure impossible to violate through the
typed constructors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from ._util import _as_complex, _complex_form, _freeze, _is_integral
from .errors import InvalidDimensionError, InvalidInputError, \
    NumericalInstabilityError, StructureError

# Gate for accepting nearly-Hermitian / nearly-symmetric blocks at
# construction (accepted blocks are symmetrized exactly) and for the
# imaginary residue of a real-form map, relative to the largest entry
# (see exceeds_structure_tol).
STRUCTURE_ATOL = 1e-8
# Symplectic eigenvalues >= 1 - PHYSICALITY_TOL count as physical (the
# floor of validate_moments and of qfi.ProbeState); the symplectic spectrum
# is refused where the covariance's conditioning cannot resolve it.
PHYSICALITY_TOL = 1e-9
_EPS = np.finfo(float).eps


def exceeds_structure_tol(res: float, *arrays) -> bool:
    """Whether a structure residual exceeds ``STRUCTURE_ATOL`` scaled by the
    largest entry of ``arrays`` (at least 1).  Roundoff in a residual grows
    with the entries it comes from, so a fixed gate would refuse valid large
    inputs.  The scale is computed only for a residual past the fixed gate."""
    return res > STRUCTURE_ATOL and res > STRUCTURE_ATOL * max(
        1.0, *(float(abs(a).max()) for a in arrays))


def _block_pair(obj, n: int, x_field: tuple, y_field: tuple, what: str, *others):
    """Freeze the (n, n) Hermitian X and symmetric Y blocks of dataclass ``obj``,
    each given as ``(field, value, label)``, after checking them with ``others``."""
    (x_name, x, x_label), (y_name, y, y_label) = x_field, y_field
    x, y = _as_complex(x, (n, n), x_name), _as_complex(y, (n, n), y_name)
    # NaN and inf pass every ``>`` tolerance test below
    if not (np.isfinite(x).all() and np.isfinite(y).all()
            and all(np.isfinite(a).all() for a in others)):
        raise InvalidInputError(f"{what} entries must be finite")
    for name, label, kind, b, bt in ((x_name, x_label, "Hermitian", x, x.conj().T),
                                     (y_name, y_label, "symmetric", y, y.T)):
        if exceeds_structure_tol(abs(b - bt).max(), x, y):
            raise StructureError(f"{label} block must be {kind}")
        object.__setattr__(obj, name, _freeze(b / 2 + bt / 2))


@cache
def k_signs(modes: int) -> np.ndarray:
    """Diagonal of the commutation matrix as a length-2N sign vector, built
    once per mode count and read-only."""
    if modes < 1:
        raise InvalidDimensionError(f"modes must be >= 1, got {modes}")
    return _freeze(np.concatenate([np.ones(modes), -np.ones(modes)]))


@cache
def l_matrix(modes: int) -> np.ndarray:
    """Fixed linear map from ladder to quadrature ordering, built once per
    mode count and read-only.

    ``Q = L A`` with ``x = (a^dag + a)/sqrt2``, ``p = i(a^dag - a)/sqrt2``
    and real-form ordering ``(x_1..x_N, p_1..p_N)``.
    """
    eye = np.eye(modes)
    return _freeze(np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0))


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of an N-mode Gaussian state.

    Attributes:
        d_tilde: length-N complex vector of mode expectations ``<a_k>``.
        cov_x: ``N x N`` Hermitian block ``<{da_k, da_l^dag}>``.
        cov_y: ``N x N`` symmetric block ``<{da_k, da_l}>``.
    """

    d_tilde: np.ndarray
    cov_x: np.ndarray
    cov_y: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.d_tilde, dtype=complex))
        n = d.shape[0]
        if d.ndim != 1 or n < 1:
            raise InvalidDimensionError("d_tilde must be a non-empty vector")
        _block_pair(self, n, ("cov_x", self.cov_x, "cov_x"), ("cov_y", self.cov_y, "cov_y"),
                    "state moment", d)
        object.__setattr__(self, "d_tilde", _freeze(d))

    @property
    def modes(self) -> int:
        return self.d_tilde.shape[0]

    @property
    def displacement(self) -> np.ndarray:
        """Full conjugate-pair displacement ``(d_tilde, conj(d_tilde))``."""
        return np.concatenate([self.d_tilde, self.d_tilde.conj()])

    @property
    def covariance(self) -> np.ndarray:
        """Full 2N x 2N covariance ``[[X, Y], [conj(Y), conj(X)]]``."""
        return _complex_form(self.cov_x, self.cov_y)

    @classmethod
    def vacuum(cls, modes: int) -> "GaussianState":
        if modes < 1:
            raise InvalidDimensionError(f"modes must be >= 1, got {modes}")
        return cls(np.zeros(modes, dtype=complex),
                   np.eye(modes, dtype=complex),
                   np.zeros((modes, modes), dtype=complex))

    @classmethod
    def from_moments(cls, displacement, covariance) -> "GaussianState":
        """Build a state from full complex-form moments, checking structure."""
        d = np.atleast_1d(np.asarray(displacement, dtype=complex))
        sigma = np.asarray(covariance, dtype=complex)
        if d.shape[0] % 2 != 0 or sigma.shape != (d.shape[0], d.shape[0]):
            raise InvalidDimensionError(
                f"inconsistent moment shapes {d.shape} / {sigma.shape}")
        n = d.shape[0] // 2
        problems = _structure_report(d, sigma, n)
        if problems:
            raise StructureError("; ".join(problems))
        return cls(d[:n], sigma[:n, :n], sigma[:n, n:])


def _structure_report(d: np.ndarray, sigma: np.ndarray, n: int) -> list:
    report = []
    res = np.max(np.abs(d[n:] - d[:n].conj()))
    if exceeds_structure_tol(res, d):
        report.append(f"displacement lacks conjugate-pair structure (residual {res:.2e})")
    res = np.max(np.abs(sigma - sigma.conj().T))
    if exceeds_structure_tol(res, sigma):
        report.append(f"covariance is not Hermitian (residual {res:.2e})")
    res = np.max(np.abs(sigma - _complex_form(sigma[:n, :n], sigma[:n, n:])))
    if exceeds_structure_tol(res, sigma):
        report.append(f"covariance lacks (X, Y) block-conjugation structure (residual {res:.2e})")
    return report


def _spectrum(sigma: np.ndarray):
    """Symplectic spectrum, descending, and the K-normalised Williamson columns
    of a complex-form covariance, from eigh of ``sigma^{1/2} K sigma^{1/2}``."""
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] % 2:
        raise InvalidDimensionError(f"covariance must be 2N x 2N, got {sigma.shape}")
    n = sigma.shape[0] // 2
    sigma_h = sigma.conj().T
    if exceeds_structure_tol(abs(sigma - sigma_h).max(), sigma):
        raise InvalidInputError("covariance must be Hermitian")
    evals, evecs = np.linalg.eigh(sigma / 2 + sigma_h / 2)
    # eps * cond(sigma) bounds the rounding; past it sigma may even look indefinite
    size = abs(evals)
    lo, hi = size.min(), size.max()
    if _EPS * hi > PHYSICALITY_TOL * lo:
        raise NumericalInstabilityError(
            f"covariance condition number {hi / lo if lo else np.inf:.2e} cannot "
            f"resolve symplectic eigenvalues to {PHYSICALITY_TOL:.0e}")
    if evals[0] <= 0:
        raise InvalidInputError(
            f"covariance must be positive-definite (min eigenvalue {evals[0]:.3e})")
    root = (evecs * np.sqrt(evals)) @ evecs.conj().T
    t = root @ (k_signs(n)[:, None] * root)
    t = t / 2 + t.conj().T / 2
    tvals, tvecs = np.linalg.eigh(t)
    # t has n positive and n negative eigenvalues, each at least evals[0] in
    # size, so eigh's ascending order puts the positive half in its top n
    lams = tvals[n:][::-1]
    return lams, root @ tvecs[:, n:][:, ::-1] / np.sqrt(lams)


def symplectic_eigenvalues(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of a complex-form covariance, sorted descending.

    Raises what ``williamson`` raises: InvalidInputError unless ``sigma`` is
    Hermitian and positive-definite, NumericalInstabilityError when its
    conditioning cannot resolve the spectrum to ``PHYSICALITY_TOL`` (pure
    one-mode squeezing r of about 3.84 and above).
    """
    return _spectrum(sigma)[0]


def validate_moments(displacement, covariance) -> list:
    """Validation report for raw full complex-form moments.

    Returns a list of human-readable violations (empty when valid).  A
    covariance whose Hermitian part is not positive-definite, or too
    ill-conditioned to resolve the eigenvalue floor, is one report line.
    Raises InvalidDimensionError when the shapes are inconsistent.
    """
    d = np.atleast_1d(np.asarray(displacement, dtype=complex))
    sigma = np.asarray(covariance, dtype=complex)
    if d.ndim != 1 or d.shape[0] % 2 != 0 or d.shape[0] == 0:
        raise InvalidDimensionError(f"displacement length must be even, got {d.shape}")
    if sigma.shape != (d.shape[0], d.shape[0]):
        raise InvalidDimensionError(
            f"covariance shape {sigma.shape} does not match displacement {d.shape}")
    report = _structure_report(d, sigma, d.shape[0] // 2)
    try:
        lam_min = _spectrum(sigma / 2 + sigma.conj().T / 2)[0][-1]
    except (InvalidInputError, NumericalInstabilityError) as exc:
        return report + [str(exc)]
    if lam_min < 1.0 - PHYSICALITY_TOL:
        report.append(
            f"physicality violated: smallest symplectic eigenvalue {lam_min:.12g} < 1")
    return report


def validate_state(state: GaussianState) -> list:
    """Validation report for a GaussianState (empty when valid)."""
    return validate_moments(state.displacement, state.covariance)


def complex_to_real(state: GaussianState):
    """Map a state to real-form moments ``(d_re, sigma_re)``.

    Ordering is ``(x_1..x_N, p_1..p_N)``; the output is checked to be real
    to ``exceeds_structure_tol`` and the imaginary residue is discarded.
    """
    el = l_matrix(state.modes)
    d_re = el @ state.displacement
    sigma_re = el @ state.covariance @ el.conj().T
    res = max(np.max(np.abs(d_re.imag)), np.max(np.abs(sigma_re.imag)))
    if exceeds_structure_tol(res, d_re, sigma_re):
        raise StructureError(
            f"complex-form input maps to non-real moments (imag residue {res:.2e})")
    return d_re.real, sigma_re.real


def complex_to_real_matrix(matrix: np.ndarray) -> np.ndarray:
    """Real form ``L M L^dag`` of a complex-form symplectic matrix."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0] // 2
    el = l_matrix(n)
    out = el @ m @ el.conj().T
    if exceeds_structure_tol(np.max(np.abs(out.imag)), out):
        raise StructureError("matrix lacks the block-conjugation structure")
    return out.real


def real_to_complex_matrix(matrix_re: np.ndarray) -> np.ndarray:
    """Inverse of complex_to_real_matrix: ``L^dag M_re L``."""
    m = np.asarray(matrix_re, dtype=float)
    n = m.shape[0] // 2
    el = l_matrix(n)
    return el.conj().T @ m @ el


def real_to_complex(displacement_re, covariance_re) -> GaussianState:
    """Build a GaussianState from real-form moments."""
    d_re = np.atleast_1d(np.asarray(displacement_re, dtype=float))
    sig_re = np.asarray(covariance_re, dtype=float)
    if d_re.shape[0] % 2 != 0 or sig_re.shape != (d_re.shape[0], d_re.shape[0]):
        raise InvalidDimensionError(
            f"inconsistent real-form shapes {d_re.shape} / {sig_re.shape}")
    if exceeds_structure_tol(np.max(np.abs(sig_re - sig_re.T)), sig_re):
        raise StructureError("real-form covariance must be symmetric")
    n = d_re.shape[0] // 2
    d = l_matrix(n).conj().T @ d_re
    sigma = real_to_complex_matrix(sig_re)
    return GaussianState(d[:n], sigma[:n, :n], sigma[:n, n:])


def mean_photon_number(state: GaussianState) -> float:
    """Mean total particle number ``sum_k (sigma_kk - 1)/2 + |d_k|^2``."""
    diag = np.diagonal(state.cov_x).real
    return float(np.sum((diag - 1.0) / 2.0 + np.abs(state.d_tilde) ** 2))


# ---------------------------------------------------------------------------
# JSON interchange (the schema used by the CLI)

def _pairs(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _unpairs(pairs, shape, name: str, size: str = None) -> np.ndarray:
    """``[re, im]`` rows as a complex array of ``shape``; ``size`` states
    the expected row count in the error message (default: the count)."""
    size = size or int(np.prod(shape))
    problem = f"field {name!r} must hold {size} [re, im] pairs of numbers"
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError) as exc:
        # an entry that is not a number, or rows of unequal length
        raise StructureError(problem) from exc
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] != int(np.prod(shape)):
        raise StructureError(problem)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(shape)


def state_to_dict(state: GaussianState) -> dict:
    return {
        "modes": state.modes,
        "d_tilde": _pairs(state.d_tilde),
        "sigma_X": _pairs(state.cov_x),
        "sigma_Y": _pairs(state.cov_y),
    }


def state_from_dict(data: dict) -> GaussianState:
    # messages print modes as given: 1e300, not the 601 digits of its square
    modes = data.get("modes")
    if not _is_integral(modes):
        raise StructureError(f"state JSON needs an integer 'modes', got {modes!r}")
    n = int(modes)
    if n < 1:
        raise InvalidDimensionError(f"modes must be >= 1, got {modes!r}")
    if "sigma_X" not in data:
        raise StructureError("state JSON needs a 'sigma_X' field")
    # sigma_X first: its shape check bounds n before any default is built
    x = _unpairs(data["sigma_X"], (n, n), "sigma_X", f"modes**2 (modes = {modes!r})")
    d = _unpairs(data.get("d_tilde", [[0.0, 0.0]] * n), (n,), "d_tilde")
    y = _unpairs(data.get("sigma_Y", [[0.0, 0.0]] * (n * n)), (n, n), "sigma_Y")
    return GaussianState(d, x, y)

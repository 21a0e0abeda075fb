"""Parametric probe families and the energy bookkeeping that links them.

One-mode probes are squeezed rotated displaced thermal states built as
``S_0 = R(theta) S(r)`` on a thermal core ``diag(lam1, lam1)``.  The
restricted two-mode family applies local rotations, a beam splitter, an
asymmetric rotation and local squeezers to a two-mode thermal core:
``S_0 = R_1(phi1) R_2(phi2) B(theta) R_as(psi) S_1(r1) S_2(r2)``.
Each class's static ``arrays`` builds this data for a batch of field
values, with the batch on the trailing axis of every array; ``to_probe_state``
and the optimizer's objective both use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from ._util import _complex_form
from .errors import InvalidInputError, StructureError
from .qfi import ProbeState
from .symplectic import SymplecticMatrix, WilliamsonForm


def _check_finite(params):
    # NaN slips through every range check below, since nan < 1.0 is false
    for name, value in vars(params).items():
        if not math.isfinite(value):
            raise InvalidInputError(f"{name} must be finite, got {value}")


def _squeezed(u: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``S_0 = blkdiag(u, conj u) S(r)`` from passive unitaries ``u``
    (N, N, B) and squeezing parameters ``r`` (N, B)."""
    return _complex_form(u * np.cosh(r)[None], -u * np.sinh(r)[None])


def _probe_state(params) -> ProbeState:
    # one symplectic check, on the finished S_0
    s0, lams, d_tilde = params.arrays(*np.array([list(vars(params).values())]).T)
    n = lams.shape[0]
    s = SymplecticMatrix(s0[:n, :n, 0], s0[:n, n:, 0])
    return ProbeState(WilliamsonForm(s, lams[:, 0]), d_tilde[:, 0])


@dataclass(frozen=True)
class OneModeProbeParams:
    """General one-mode Gaussian probe parameters."""

    lambda1: float = 1.0
    r: float = 0.0
    theta: float = 0.0
    d_mag: float = 0.0
    phi_d: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.lambda1 < 1.0:
            raise InvalidInputError(f"lambda1 must be >= 1, got {self.lambda1}")
        if self.d_mag < 0.0:
            raise InvalidInputError("d_mag must be >= 0")

    @staticmethod
    def arrays(lambda1, r, theta, d_mag, phi_d):
        """Raw Williamson data of a batch of probes, one (B,) array per
        field: ``s0`` (2, 2, B), ``lams`` (1, B) and ``d_tilde`` (1, B),
        the inputs of ``qfi.qfi_kernel``.  Nothing is checked."""
        u = np.exp(-1j * theta)[None, None]
        return (_squeezed(u, r[None]), lambda1[None],
                (d_mag * np.exp(1j * phi_d))[None])

    def to_probe_state(self) -> ProbeState:
        return _probe_state(self)

    def mean_photon(self) -> float:
        n_th = (self.lambda1 - 1.0) / 2.0
        return self.d_mag ** 2 + n_th + (1.0 + 2.0 * n_th) * np.sinh(self.r) ** 2


@dataclass(frozen=True)
class TwoModeProbeParams:
    """Restricted two-mode probe family (covers all two-mode pure states)."""

    lambda1: float = 1.0
    lambda2: float = 1.0
    r1: float = 0.0
    r2: float = 0.0
    theta: float = 0.0
    psi: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0
    d1_mag: float = 0.0
    d2_mag: float = 0.0
    phi_d1: float = 0.0
    phi_d2: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        if self.lambda1 < 1.0 or self.lambda2 < 1.0:
            raise InvalidInputError("lambda1, lambda2 must be >= 1")
        if self.d1_mag < 0.0 or self.d2_mag < 0.0:
            raise InvalidInputError("displacement magnitudes must be >= 0")

    @staticmethod
    def arrays(lambda1, lambda2, r1, r2, theta, psi, phi1, phi2,
               d1_mag, d2_mag, phi_d1, phi_d2):
        """Raw Williamson data of a batch of probes, one (B,) array per
        field: ``s0`` (4, 4, B), ``lams`` (2, B) and ``d_tilde`` (2, B),
        the inputs of ``qfi.qfi_kernel``.  Nothing is checked."""
        # the passive part R_1(phi1) R_2(phi2) B(theta) R_as(psi)
        ct, st = np.cos(theta), np.sin(theta)
        e1, e2 = np.exp(-1j * phi1), np.exp(-1j * phi2)
        ep, em = np.exp(-1j * psi), np.exp(1j * psi)
        u = np.array([[e1 * ct * ep, e1 * st * em],
                      [-e2 * st * ep, e2 * ct * em]])
        d_tilde = np.stack([d1_mag * np.exp(1j * phi_d1),
                            d2_mag * np.exp(1j * phi_d2)])
        return (_squeezed(u, np.stack([r1, r2])),
                np.stack([lambda1, lambda2]), d_tilde)

    def to_probe_state(self) -> ProbeState:
        return _probe_state(self)

    def mean_photon(self) -> float:
        total = 0.0
        for lam, r, d in ((self.lambda1, self.r1, self.d1_mag),
                          (self.lambda2, self.r2, self.d2_mag)):
            total += d ** 2 + (lam - 1.0) / 2.0 + lam * np.sinh(r) ** 2
        return total


def one_mode_probe_on_two(lambda1: float, r1: float, phi1: float = 0.0,
                          d1_mag: float = 0.0, phi_d1: float = 0.0) -> TwoModeProbeParams:
    """General one-mode probe in mode 1, vacuum in mode 2."""
    return TwoModeProbeParams(lambda1=lambda1, r1=r1, phi1=phi1,
                              d1_mag=d1_mag, phi_d1=phi_d1)


def squeezing_from_energy(n: float, n_d: float, n_th: float) -> float:
    """Invert the mean-energy relation for the squeezing parameter.

    ``n = n_d + n_th + (1 + 2 n_th) sinh^2 r`` gives
    ``r = arcsinh(sqrt((n - n_d - n_th) / (1 + 2 n_th)))``.
    """
    rest = n - n_d - n_th
    if rest < -1e-12:
        raise InvalidInputError(
            f"energy budget infeasible: n={n} < n_d + n_th = {n_d + n_th}")
    return float(np.arcsinh(np.sqrt(max(rest, 0.0) / (1.0 + 2.0 * n_th))))


# ---------------------------------------------------------------------------
# JSON interchange for probe configurations

def probe_params_to_dict(params) -> dict:
    if isinstance(params, OneModeProbeParams):
        return {"kind": "one-mode", **asdict(params)}
    if isinstance(params, TwoModeProbeParams):
        return {"kind": "two-mode", **asdict(params)}
    raise InvalidInputError(f"unsupported probe parameter type {type(params)!r}")


def probe_params_from_dict(data: dict):
    kind = data.get("kind")
    fields = {k: float(v) for k, v in data.items() if k != "kind"}
    try:
        if kind == "one-mode":
            return OneModeProbeParams(**fields)
        if kind == "two-mode":
            return TwoModeProbeParams(**fields)
    except TypeError as exc:
        raise StructureError(f"bad probe parameters: {exc}") from exc
    raise StructureError(f"unknown probe kind {kind!r}")

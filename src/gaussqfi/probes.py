"""Parametric probe families and the energy bookkeeping that links them.

One-mode probes are squeezed rotated displaced thermal states built as
``S_0 = R(theta) S(r)`` on a thermal core ``diag(lam1, lam1)``.  The
restricted two-mode family applies local rotations, a beam splitter, an
asymmetric rotation and local squeezers to a two-mode thermal core:
``S_0 = R_1(phi1) R_2(phi2) B(theta) R_as(psi) S_1(r1) S_2(r2)``.
``arrays`` builds this data from the blocks of the family's layout, with
the batch on the trailing axis of every array: each family's ``factors``
gives its passive unitary ``U``, from one ``cos`` and one ``sin`` call on
the angle rows, and ``symplectic.bloch_messiah`` finishes
``S_0 = blkdiag(U, conj U) Z(r)``.  The optimizer's objective calls it on
the blocks it decodes, and ``probe_arrays`` on a list of probes, for
``to_probe_state``, ``scaling_exponent`` and ``gaussqfi sweep``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import cache
from operator import attrgetter

import numpy as np

from .core import mean_photon_number
from .errors import InvalidInputError, StructureError
from .qfi import ProbeState
from .symplectic import SymplecticMatrix, WilliamsonForm, bloch_messiah


def _phases(angles: np.ndarray):
    """``exp(-1j a)``, ``exp(1j a)`` and ``sin a`` of stacked angle rows
    ``a`` from one ``cos`` and one ``sin`` call, bit for bit the values of
    ``np.exp``; ``cos a`` is the real part of the first."""
    minus = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=minus.real)
    s = np.sin(angles)
    np.negative(s, out=minus.imag)
    # + 0.0: at a = -0.0, np.exp(1j * a) is 1 + 0j, not the conjugate's 1 - 0j
    return minus, np.conj(minus) + 0.0, s


@cache
def _layout_getter(cls):
    """Getter of a family's fields in the row order of ``arrays``' blocks."""
    return attrgetter(*cls.ANGLES, *sum(zip(*cls.ENERGY), ()))


def probe_arrays(params: list):
    """``arrays`` of probes of one family: ``(s0, lams, d_tilde)``, the
    probe inputs of ``qfi.qfi_kernel``, one batch column per probe."""
    cls = type(params[0])
    get, a = _layout_getter(cls), len(cls.ANGLES)
    rows = np.array([get(p) for p in params]).T
    return cls.arrays(rows[:a], *rows[a:].reshape(3, len(cls.ENERGY), -1))


def column_state(s0: np.ndarray, lams: np.ndarray, d_tilde: np.ndarray,
                 j: int = 0) -> ProbeState:
    """Batch column ``j`` of ``probe_arrays`` as a ProbeState."""
    # one symplectic check, on the finished S_0
    n = lams.shape[0]
    s = SymplecticMatrix(s0[:n, :n, j], s0[:n, n:, j])
    return ProbeState(WilliamsonForm(s, lams[:, j]), d_tilde[:, j])


class _Family:
    """The checks and the energy shared by the parametric families.  Each
    family states its layout once, for every caller to read: ``kind``, its
    JSON kind; ``ENERGY``, the ``(lambda, r, d_mag)`` field names of each
    mode, the fields that spend energy; ``ANGLES``, the other fields in
    field order."""

    def __post_init__(self):
        for name, value in vars(self).items():
            # NaN slips through every range check below, since nan < 1.0 is false
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} must be finite, got {value}")
        for lam, _, d_mag in self.ENERGY:
            for name, floor in ((lam, 1.0), (d_mag, 0.0)):
                value = getattr(self, name)
                if value < floor:
                    raise InvalidInputError(f"{name} must be >= {floor:g}, got {value}")

    def mean_photon(self) -> float:
        """Mean total particle number of the state the family builds."""
        return mean_photon_number(self.to_probe_state().to_state())

    @classmethod
    def arrays(cls, angles, lams, r, d_mag):
        """Raw Williamson data of B probes from the layout's blocks, the
        angle rows (A, B) in ``ANGLES`` order and the mode rows (N, B) in
        ``ENERGY`` order: ``s0`` (2N, 2N, B), ``lams`` and ``d_tilde``
        (N, B), the inputs of ``qfi.qfi_kernel``.  Nothing is checked."""
        # factors' phase rows are freed before S_0 is allocated: fewer fresh pages
        u, d_tilde = cls.factors(angles, d_mag)
        return bloch_messiah(u, r), lams, d_tilde


@dataclass(frozen=True)
class OneModeProbeParams(_Family):
    """General one-mode Gaussian probe parameters."""

    kind = "one-mode"
    ENERGY = (("lambda1", "r", "d_mag"),)
    ANGLES = ("theta", "phi_d")

    lambda1: float = 1.0
    r: float = 0.0
    theta: float = 0.0
    d_mag: float = 0.0
    phi_d: float = 0.0

    @staticmethod
    def factors(angles, d_mag):
        """``arrays``' ``u`` (1, 1, B) and ``d_tilde`` (1, B)."""
        minus, plus, _ = _phases(angles)
        return minus[None, :1], d_mag * plus[1:]

    def to_probe_state(self) -> ProbeState:
        return column_state(*probe_arrays([self]))


@dataclass(frozen=True)
class TwoModeProbeParams(_Family):
    """Restricted two-mode probe family.  It covers every pure two-mode
    state, but not every mixed one: no passive ``V`` acts on the thermal
    core before the squeezers."""

    kind = "two-mode"
    ENERGY = (("lambda1", "r1", "d1_mag"), ("lambda2", "r2", "d2_mag"))
    ANGLES = ("theta", "psi", "phi1", "phi2", "phi_d1", "phi_d2")

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

    @staticmethod
    def factors(angles, d_mag):
        """``arrays``' ``u`` (2, 2, B) and ``d_tilde`` (2, B)."""
        minus, plus, s = _phases(angles)
        ct, st = minus[0].real, s[0]
        ep, em, e1, e2 = minus[1], plus[1], minus[2], minus[3]
        # the passive part R_1(phi1) R_2(phi2) B(theta) R_as(psi)
        u = np.empty((2, 2) + ct.shape, dtype=complex)
        np.multiply(e1 * ct, ep, out=u[0, 0])
        np.multiply(e1 * st, em, out=u[0, 1])
        np.multiply(-e2 * st, ep, out=u[1, 0])
        np.multiply(e2 * ct, em, out=u[1, 1])
        return u, d_mag * plus[4:]

    def to_probe_state(self) -> ProbeState:
        return column_state(*probe_arrays([self]))


FAMILIES = {cls.kind: cls for cls in (OneModeProbeParams, TwoModeProbeParams)}


# ---------------------------------------------------------------------------
# JSON interchange for probe configurations

def probe_params_to_dict(params) -> dict:
    if not isinstance(params, _Family):
        raise InvalidInputError(f"unsupported probe parameter type {type(params)!r}")
    return {"kind": params.kind, **asdict(params)}


def probe_params_from_dict(data: dict):
    kind = data.get("kind")
    fields = {k: float(v) for k, v in data.items() if k != "kind"}
    family = FAMILIES.get(kind) if isinstance(kind, str) else None
    if family is None:
        raise StructureError(f"unknown probe kind {kind!r}")
    try:
        return family(**fields)
    except TypeError as exc:
        raise StructureError(f"bad probe parameters: {exc}") from exc

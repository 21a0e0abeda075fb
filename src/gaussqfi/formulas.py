"""Closed-form QFI expressions for the cataloged channels.

These are direct formula evaluations in the probe parameters, kept fully
independent of the matrix engine so the two paths can cross-validate.
The two-mode "full" expressions were re-derived from the block structure
of ``S_0^{-1}(iKW)S_0`` (see tests for the numerical equivalence sweeps):
with ``u, v`` the rotated squeezing-orientation coefficients, every
temperature bracket reduces to two squared coefficients multiplying
``sinh^2/cosh^2`` of ``r_1 -+ r_2``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalInstabilityError
from .probes import OneModeProbeParams, TwoModeProbeParams
from .qfi import DEGENERACY_TOL

TWO_PI = 2.0 * np.pi


def _f_plus(l1: float, l2: float) -> float:
    return (l1 + l2) ** 2 / (l1 * l2 + 1.0)


def _f_minus(l1: float, l2: float) -> float:
    prod = l1 * l2
    if prod - 1.0 < DEGENERACY_TOL:
        return 0.0
    return (l1 - l2) ** 2 / (prod - 1.0)


def _g(lam: float) -> float:
    return lam ** 2 / (lam ** 2 + 1.0)


# ---------------------------------------------------------------------------
# One-mode channels

def qfi_one_mode_combined(p: OneModeProbeParams, omega_p: float, omega_s: float,
                          chi: float = 0.0) -> float:
    """QFI of the channel combining phase change and squeezing."""
    two = 2.0 * p.theta + chi
    sq = (omega_s ** 2 * (np.cos(two) ** 2 + np.cosh(2 * p.r) ** 2 * np.sin(two) ** 2)
          + omega_p ** 2 * np.sinh(2 * p.r) ** 2
          - omega_s * omega_p * np.sin(two) * np.sinh(4 * p.r))
    a = p.theta - p.phi_d + chi
    b = p.theta + p.phi_d
    disp = (np.exp(2 * p.r) * (omega_s * np.cos(a) - omega_p * np.sin(b)) ** 2
            + np.exp(-2 * p.r) * (omega_s * np.sin(a) + omega_p * np.cos(b)) ** 2)
    return 4.0 * _g(p.lambda1) * sq + 4.0 * p.d_mag ** 2 / p.lambda1 * disp


def combined_max(lambda1: float, r: float, d_mag: float,
                 omega_p: float, omega_s: float) -> float:
    """Maximum of the combined-channel QFI over the probe angles."""
    return (4.0 * _g(lambda1) * (omega_s * np.cosh(2 * r) + omega_p * np.sinh(2 * r)) ** 2
            + 4.0 * d_mag ** 2 / lambda1 * np.exp(2 * r) * (omega_s + omega_p) ** 2)


def combined_heisenberg(n: float, omega_p: float, omega_s: float) -> float:
    """Combined-channel limit with the full energy budget in squeezing."""
    return 2.0 * (omega_s * (2 * n + 1) + omega_p * 2.0 * np.sqrt(n * (1 + n))) ** 2


def combined_shotnoise(n: float, omega_p: float, omega_s: float) -> float:
    """Combined-channel value for a coherent probe of energy n."""
    return 2.0 * omega_s ** 2 + 4.0 * n * (omega_s + omega_p) ** 2


def qfi_phase(p: OneModeProbeParams) -> float:
    """QFI of the phase-changing channel."""
    ang = p.theta + p.phi_d
    disp = np.exp(2 * p.r) * np.sin(ang) ** 2 + np.exp(-2 * p.r) * np.cos(ang) ** 2
    return (4.0 * _g(p.lambda1) * np.sinh(2 * p.r) ** 2
            + 4.0 * p.d_mag ** 2 / p.lambda1 * disp)


def qfi_squeeze1(p: OneModeProbeParams, chi: float = 0.0) -> float:
    """QFI of the one-mode squeezing channel at angle chi."""
    two = 2.0 * p.theta + chi
    ang = p.theta - p.phi_d + chi
    sq = np.cos(two) ** 2 + np.cosh(2 * p.r) ** 2 * np.sin(two) ** 2
    disp = np.exp(2 * p.r) * np.cos(ang) ** 2 + np.exp(-2 * p.r) * np.sin(ang) ** 2
    return 4.0 * _g(p.lambda1) * sq + 4.0 * p.d_mag ** 2 / p.lambda1 * disp


# ---------------------------------------------------------------------------
# Two-mode squeezing channel

def _st_angles(p: TwoModeProbeParams, chi: float):
    return (p.phi1 + p.phi2 + chi,          # phi_chi
            p.phi1 - p.phi_d2 + chi,        # phi_1chi
            p.phi2 - p.phi_d1 + chi)        # phi_2chi


def qfi_twomode_squeeze_separable(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Two-mode squeezing channel probed by two local squeezed states.

    Valid on the no-mixing slice of the family; ``p.theta`` and ``p.psi``
    are fixed to zero by this formula (a nonzero psi only shifts
    phi1 -> phi1 + psi, phi2 -> phi2 - psi at theta = 0).
    """
    pc, p1c, p2c = _st_angles(p, chi)
    h = 2.0 * _f_plus(p.lambda1, p.lambda2) * (
        np.cos(pc) ** 2 * np.cosh(p.r1 - p.r2) ** 2
        + np.sin(pc) ** 2 * np.cosh(p.r1 + p.r2) ** 2)
    h += 2.0 * _f_minus(p.lambda1, p.lambda2) * (
        np.cos(pc) ** 2 * np.sinh(p.r1 - p.r2) ** 2
        + np.sin(pc) ** 2 * np.sinh(p.r1 + p.r2) ** 2)
    h += 4.0 * p.d2_mag ** 2 / p.lambda1 * (
        np.exp(2 * p.r1) * np.cos(p1c) ** 2 + np.exp(-2 * p.r1) * np.sin(p1c) ** 2)
    h += 4.0 * p.d1_mag ** 2 / p.lambda2 * (
        np.exp(2 * p.r2) * np.cos(p2c) ** 2 + np.exp(-2 * p.r2) * np.sin(p2c) ** 2)
    return h


def qfi_twomode_squeeze_bs(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Two-mode squeezing channel probed with a balanced beam splitter
    (theta = pi/4) in the preparation; ``p.theta`` is ignored."""
    pc, p1c, p2c = _st_angles(p, chi)
    h = 4.0 * _g(p.lambda1) * (np.cos(pc + 2 * p.psi) ** 2
                               + np.sin(pc + 2 * p.psi) ** 2 * np.cosh(2 * p.r1) ** 2)
    h += 4.0 * _g(p.lambda2) * (np.cos(pc - 2 * p.psi) ** 2
                                + np.sin(pc - 2 * p.psi) ** 2 * np.cosh(2 * p.r2) ** 2)
    h += 2.0 / p.lambda1 * (
        np.exp(2 * p.r1) * (p.d1_mag * np.cos(p2c + p.psi) - p.d2_mag * np.cos(p1c + p.psi)) ** 2
        + np.exp(-2 * p.r1) * (p.d1_mag * np.sin(p2c + p.psi) - p.d2_mag * np.sin(p1c + p.psi)) ** 2)
    h += 2.0 / p.lambda2 * (
        np.exp(2 * p.r2) * (p.d1_mag * np.cos(p2c - p.psi) + p.d2_mag * np.cos(p1c - p.psi)) ** 2
        + np.exp(-2 * p.r2) * (p.d1_mag * np.sin(p2c - p.psi) + p.d2_mag * np.sin(p1c - p.psi)) ** 2)
    return h


def qfi_twomode_squeeze_full(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Two-mode squeezing channel, full restricted family (any theta, psi)."""
    pc, p1c, p2c = _st_angles(p, chi)
    c2t, s2t = np.cos(2 * p.theta), np.sin(2 * p.theta)
    ct, st = np.cos(p.theta), np.sin(p.theta)
    h = 2.0 * c2t ** 2 * (
        _f_plus(p.lambda1, p.lambda2) * (np.cos(pc) ** 2 * np.cosh(p.r1 - p.r2) ** 2
                                         + np.sin(pc) ** 2 * np.cosh(p.r1 + p.r2) ** 2)
        + _f_minus(p.lambda1, p.lambda2) * (np.cos(pc) ** 2 * np.sinh(p.r1 - p.r2) ** 2
                                            + np.sin(pc) ** 2 * np.sinh(p.r1 + p.r2) ** 2))
    h += 4.0 * s2t ** 2 * (
        _g(p.lambda1) * (np.cos(pc + 2 * p.psi) ** 2
                         + np.sin(pc + 2 * p.psi) ** 2 * np.cosh(2 * p.r1) ** 2)
        + _g(p.lambda2) * (np.cos(pc - 2 * p.psi) ** 2
                           + np.sin(pc - 2 * p.psi) ** 2 * np.cosh(2 * p.r2) ** 2))
    h += 4.0 / p.lambda1 * (
        np.exp(2 * p.r1) * (p.d1_mag * st * np.cos(p2c + p.psi)
                            - p.d2_mag * ct * np.cos(p1c + p.psi)) ** 2
        + np.exp(-2 * p.r1) * (p.d1_mag * st * np.sin(p2c + p.psi)
                               - p.d2_mag * ct * np.sin(p1c + p.psi)) ** 2)
    h += 4.0 / p.lambda2 * (
        np.exp(2 * p.r2) * (p.d1_mag * ct * np.cos(p2c - p.psi)
                            + p.d2_mag * st * np.cos(p1c - p.psi)) ** 2
        + np.exp(-2 * p.r2) * (p.d1_mag * ct * np.sin(p2c - p.psi)
                               + p.d2_mag * st * np.sin(p1c - p.psi)) ** 2)
    return h


def twomode_squeeze_separable_max(l1, l2, r1, r2, d1_mag, d2_mag) -> float:
    """Angle-optimized separable-probe value for the two-mode squeezer."""
    return (2.0 * _f_plus(l1, l2) * np.cosh(r1 + r2) ** 2
            + 2.0 * _f_minus(l1, l2) * np.sinh(r1 + r2) ** 2
            + 4.0 * d2_mag ** 2 / l1 * np.exp(2 * r1)
            + 4.0 * d1_mag ** 2 / l2 * np.exp(2 * r2))


def twomode_squeeze_bs_max(l1, l2, r1, r2, d1_mag, d2_mag) -> float:
    """Angle-optimized beam-splitter-probe value (both r >= 0 branch)."""
    return (4.0 * _g(l1) * np.cosh(2 * r1) ** 2 + 4.0 * _g(l2) * np.cosh(2 * r2) ** 2
            + 2.0 / l1 * (d1_mag - d2_mag) ** 2 * np.exp(2 * r1)
            + 2.0 / l2 * (d1_mag + d2_mag) ** 2 * np.exp(2 * r2))


def twomode_squeeze_bs_max_opposite(l1, l2, r1, r2, d1_mag, d2_mag) -> float:
    """Angle-optimized beam-splitter-probe value (r1 <= 0 <= r2 branch)."""
    return (4.0 * _g(l1) * np.cosh(2 * r1) ** 2 + 4.0 * _g(l2) * np.cosh(2 * r2) ** 2
            + 2.0 / l1 * (d1_mag - d2_mag) ** 2 * np.exp(-2 * r1)
            + 2.0 / l2 * (d1_mag + d2_mag) ** 2 * np.exp(2 * r2))


def bs_advantage(r1: float, r2: float, d1_mag: float, d2_mag: float) -> float:
    """Difference between the pure-probe beam-splitter and separable maxima.

    Vanishes at the optimal strategy ``r1 = r2``.
    """
    return (4.0 * np.cosh(2 * (r1 + r2)) * np.sinh(r2 - r1) ** 2
            + 4.0 * (d2_mag ** 2 + 2 * d1_mag * d2_mag - d1_mag ** 2)
            * np.exp(r1 + r2) * np.sinh(r2 - r1))


# ---------------------------------------------------------------------------
# Mode-mixing channel

def _mix_angles(p: TwoModeProbeParams, chi: float):
    return (p.phi1 - p.phi2 + chi,          # phi_chi
            p.phi1 + p.phi_d2 + chi,        # phi_1chi
            p.phi2 + p.phi_d1 - chi)        # phi_2chi


def qfi_mix_separable(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Mode-mixing channel probed by two local squeezed states (theta = 0,
    psi = 0 slice; ``p.theta``, ``p.psi`` are ignored)."""
    pc, p1c, p2c = _mix_angles(p, chi)
    h = 2.0 * _f_plus(p.lambda1, p.lambda2) * (
        np.cos(pc) ** 2 * np.sinh(p.r1 - p.r2) ** 2
        + np.sin(pc) ** 2 * np.sinh(p.r1 + p.r2) ** 2)
    h += 2.0 * _f_minus(p.lambda1, p.lambda2) * (
        np.cos(pc) ** 2 * np.cosh(p.r1 - p.r2) ** 2
        + np.sin(pc) ** 2 * np.cosh(p.r1 + p.r2) ** 2)
    h += 4.0 * p.d2_mag ** 2 / p.lambda1 * (
        np.exp(2 * p.r1) * np.cos(p1c) ** 2 + np.exp(-2 * p.r1) * np.sin(p1c) ** 2)
    h += 4.0 * p.d1_mag ** 2 / p.lambda2 * (
        np.exp(2 * p.r2) * np.cos(p2c) ** 2 + np.exp(-2 * p.r2) * np.sin(p2c) ** 2)
    return h


def qfi_mix_bs(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Mode-mixing channel with a balanced beam splitter in the
    preparation (theta = pi/4 slice; ``p.theta`` is ignored)."""
    pc, p1c, p2c = _mix_angles(p, chi)
    h = 4.0 * np.sin(pc) ** 2 * (_g(p.lambda1) * np.sinh(2 * p.r1) ** 2
                                 + _g(p.lambda2) * np.sinh(2 * p.r2) ** 2)
    h += 2.0 * np.cos(pc) ** 2 * (
        _f_plus(p.lambda1, p.lambda2) * (np.cos(2 * p.psi) ** 2 * np.sinh(p.r1 - p.r2) ** 2
                                         + np.sin(2 * p.psi) ** 2 * np.sinh(p.r1 + p.r2) ** 2)
        + _f_minus(p.lambda1, p.lambda2) * (np.cos(2 * p.psi) ** 2 * np.cosh(p.r1 - p.r2) ** 2
                                            + np.sin(2 * p.psi) ** 2 * np.cosh(p.r1 + p.r2) ** 2))
    h += 2.0 / p.lambda1 * (
        np.exp(2 * p.r1) * (p.d1_mag * np.cos(p2c + p.psi) + p.d2_mag * np.cos(p1c + p.psi)) ** 2
        + np.exp(-2 * p.r1) * (p.d1_mag * np.sin(p2c + p.psi) + p.d2_mag * np.sin(p1c + p.psi)) ** 2)
    h += 2.0 / p.lambda2 * (
        np.exp(2 * p.r2) * (p.d1_mag * np.cos(p2c - p.psi) - p.d2_mag * np.cos(p1c - p.psi)) ** 2
        + np.exp(-2 * p.r2) * (p.d1_mag * np.sin(p2c - p.psi) - p.d2_mag * np.sin(p1c - p.psi)) ** 2)
    return h


def qfi_mix_full(p: TwoModeProbeParams, chi: float = 0.0) -> float:
    """Mode-mixing channel, full restricted family (any theta, psi).

    The temperature brackets share the rotated orientation coefficients
    ``u = cos(phi_chi) cos(2 psi) - cos(2 theta) sin(phi_chi) sin(2 psi)`` and
    ``v = cos(phi_chi) sin(2 psi) + cos(2 theta) sin(phi_chi) cos(2 psi)``.
    """
    pc, p1c, p2c = _mix_angles(p, chi)
    c2t, s2t = np.cos(2 * p.theta), np.sin(2 * p.theta)
    ct, st = np.cos(p.theta), np.sin(p.theta)
    u = np.cos(pc) * np.cos(2 * p.psi) - c2t * np.sin(pc) * np.sin(2 * p.psi)
    v = np.cos(pc) * np.sin(2 * p.psi) + c2t * np.sin(pc) * np.cos(2 * p.psi)
    h = 4.0 * s2t ** 2 * np.sin(pc) ** 2 * (
        _g(p.lambda1) * np.sinh(2 * p.r1) ** 2 + _g(p.lambda2) * np.sinh(2 * p.r2) ** 2)
    h += 2.0 * _f_plus(p.lambda1, p.lambda2) * (
        u ** 2 * np.sinh(p.r1 - p.r2) ** 2 + v ** 2 * np.sinh(p.r1 + p.r2) ** 2)
    h += 2.0 * _f_minus(p.lambda1, p.lambda2) * (
        u ** 2 * np.cosh(p.r1 - p.r2) ** 2 + v ** 2 * np.cosh(p.r1 + p.r2) ** 2)
    h += 4.0 / p.lambda1 * (
        np.exp(2 * p.r1) * (p.d1_mag * st * np.cos(p2c + p.psi)
                            + p.d2_mag * ct * np.cos(p1c + p.psi)) ** 2
        + np.exp(-2 * p.r1) * (p.d1_mag * st * np.sin(p2c + p.psi)
                               + p.d2_mag * ct * np.sin(p1c + p.psi)) ** 2)
    h += 4.0 / p.lambda2 * (
        np.exp(2 * p.r2) * (p.d1_mag * ct * np.cos(p2c - p.psi)
                            - p.d2_mag * st * np.cos(p1c - p.psi)) ** 2
        + np.exp(-2 * p.r2) * (p.d1_mag * ct * np.sin(p2c - p.psi)
                               - p.d2_mag * st * np.sin(p1c - p.psi)) ** 2)
    return h


def mix_separable_max(l1, l2, r1, r2, d1_mag, d2_mag) -> float:
    """Angle-optimized separable-probe value for the mode mixer."""
    return (2.0 * _f_plus(l1, l2) * np.sinh(r1 + r2) ** 2
            + 2.0 * _f_minus(l1, l2) * np.cosh(r1 + r2) ** 2
            + 4.0 * d2_mag ** 2 / l1 * np.exp(2 * r1)
            + 4.0 * d1_mag ** 2 / l2 * np.exp(2 * r2))


def universal_mix_probe_qfi(r: float, d1_mag: float = 0.0, d2_mag: float = 0.0) -> float:
    """QFI of the universal mode-mixing probe, independent of the mixing
    direction by construction."""
    # written so that NaN fails: nan >= 0 and nan < inf are false
    if not abs(r) < np.inf:
        raise InvalidInputError(f"r must be finite, got {r}")
    if not (0 <= d1_mag < np.inf and 0 <= d2_mag < np.inf):
        raise InvalidInputError(
            f"displacement magnitudes must be finite and >= 0, got {d1_mag} and {d2_mag}")
    # 4 ((d1^2 + d2^2) cosh 2r + 2 d1 d2 sinh 2r) as a sum of non-negative
    # terms, so that a term overflows only where the value does (with cosh
    # and sinh it is inf - inf at large |d| and negative r)
    with np.errstate(all="ignore"):
        e = np.exp(np.float64(r))
        value = (4.0 * np.sinh(2 * r) ** 2
                 + 2.0 * (((d1_mag + d2_mag) * e) ** 2 + ((d1_mag - d2_mag) / e) ** 2))
    if not np.isfinite(value):
        raise NumericalInstabilityError(
            f"universal-probe QFI overflows at r={r}, d1_mag={d1_mag}, d2_mag={d2_mag}")
    return value


def qfi_onemode_probe_on_twomode(kind: str, lambda1: float, r1: float,
                                 d1_mag: float = 0.0) -> float:
    """QFI of a two-mode channel probed by a one-mode state (mode 2 vacuum).

    ``kind`` is the catalog name of the channel, ``"two-mode-squeeze"`` or
    ``"beamsplit"``.  Equals ``4(n+1)`` for the two-mode squeezer and
    ``4n`` for the mode mixer regardless of how the energy is split.
    """
    if not lambda1 >= 1.0:
        raise InvalidInputError(f"lambda1 must be >= 1, got {lambda1}")
    base = 2.0 * lambda1 * np.cosh(2 * r1) + 4.0 * d1_mag ** 2
    if kind == "two-mode-squeeze":
        return base + 2.0
    if kind == "beamsplit":
        return base - 2.0
    raise InvalidInputError(f"unknown two-mode channel kind {kind!r}")


# ---------------------------------------------------------------------------
# Scaling-limit tables

@dataclass(frozen=True)
class LimitTable:
    """Heisenberg and shot-noise limits of one channel as functions of n."""

    kind: str
    heisenberg: Callable[[float], float]
    shotnoise: Callable[[float], float]


def limit_table() -> dict:
    """Limits for the four named channels, keyed by channel kind."""
    return {
        "phase": LimitTable("phase", lambda n: 8.0 * n * (n + 1.0), lambda n: 4.0 * n),
        "squeeze1-mode1": LimitTable("squeeze1-mode1",
                                     lambda n: 2.0 * (2.0 * n + 1.0) ** 2,
                                     lambda n: 2.0 * (2.0 * n + 1.0)),
        "beamsplit": LimitTable("beamsplit", lambda n: 4.0 * n * (n + 2.0),
                                lambda n: 4.0 * n),
        "two-mode-squeeze": LimitTable("two-mode-squeeze",
                                       lambda n: 4.0 * (n + 1.0) ** 2,
                                       lambda n: 4.0 * (n + 1.0)),
    }


# ---------------------------------------------------------------------------
# Optimal-temperature condition for the one-mode channels

def optimal_temperature_residual(channel: str, lambda1: float, r: float,
                                 d_mag: float) -> float:
    """Left-minus-right of the stationarity condition in lambda1.

    The optimum of the angle-maximized one-mode QFI over temperature
    satisfies ``lam^3/(lam^2+1)^2 = d^2 e^{2r} / (2 sinh^2 2r)`` for the
    phase channel and the ``cosh^2`` analog for the squeezing channel;
    ``channel`` is the catalog name, ``"phase"`` or ``"squeeze1-mode1"``.
    """
    if not 1.0 <= lambda1 < np.inf:
        raise InvalidInputError(f"lambda1 must be finite and >= 1, got {lambda1}")
    if not (abs(r) < np.inf and abs(d_mag) < np.inf):
        raise InvalidInputError(f"r and d_mag must be finite, got {r} and {d_mag}")
    lambda1, r, d_mag = float(lambda1), float(r), float(d_mag)
    # both sides in scaled form, so that neither overflows at large lambda1
    # or |r|: 2 sinh^2 2r = e^{4|r|} q^2 / 2 with q = 1 - e^{-4|r|}, and
    # 2 cosh^2 2r the same with q = 1 + e^{-4|r|}
    left = 1.0 / (lambda1 * (1.0 + (1.0 / lambda1) ** 2) ** 2)
    if channel == "phase":
        q = -math.expm1(-4.0 * abs(r))
        if q == 0.0:
            raise InvalidInputError("phase-channel condition needs r != 0")
    elif channel == "squeeze1-mode1":
        q = 1.0 + math.exp(-4.0 * abs(r))
    else:
        raise InvalidInputError(f"unknown one-mode channel {channel!r}")
    root = d_mag * math.exp(r - 2.0 * abs(r)) / q
    residual = left - 2.0 * root * root
    if not math.isfinite(residual):
        raise NumericalInstabilityError(
            f"temperature residual overflows at lambda1={lambda1}, r={r}, d_mag={d_mag}")
    return residual


def optimal_temperature(channel: str, r: float, d_mag: float,
                        lam_max: float = 1e3, tol: float = 1e-12) -> list:
    """All zero crossings of the optimal-temperature residual on [1, lam_max].

    The stationarity condition can have several crossings (minima and
    maxima interleave); classification is left to a direct grid search
    over the QFI.  Returns an empty list when the residual never changes
    sign, signalling that the optimum sits at a boundary (lambda1 = 1 or
    the high-temperature end).
    """
    # imported here: scipy.optimize would add a quarter second to every
    # import of gaussqfi
    from scipy.optimize import brentq

    if not 1.0 <= lam_max < np.inf:
        raise InvalidInputError(f"lam_max must be finite and >= 1, got {lam_max}")

    def func(lam):
        return optimal_temperature_residual(channel, lam, r, d_mag)

    grid = np.geomspace(1.0, lam_max, 2049)
    values = np.array([func(lam) for lam in grid])
    roots = []
    for lo, hi, f_lo, f_hi in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if f_lo == 0.0:
            roots.append(float(lo))
        elif f_lo * f_hi < 0.0:
            roots.append(float(brentq(func, lo, hi, xtol=tol)))
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return roots

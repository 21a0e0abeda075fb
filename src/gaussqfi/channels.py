"""Catalog of Gaussian unitary channels and their symplectic matrices.

Every cataloged channel is a one-parameter group ``S(eps) = exp(iKW eps)``
with a purely quadratic generator (gamma = 0), and every kind, cataloged or
custom, is evaluated by the one generator exponential.  The closed-form
matrices below are references that the test suite checks it against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _pairs, _unpairs
from .errors import InvalidInputError, StructureError
from .symplectic import GeneratorW, SymplecticMatrix, displacement_shift, exp_generator

PHASE = "phase"
SQUEEZE1_MODE1 = "squeeze1-mode1"
SQUEEZE1_MODE2 = "squeeze1-mode2"
BEAMSPLIT = "beamsplit"
TWOMODE_SQUEEZE = "two-mode-squeeze"
COMBINED = "combined-one-mode"
CUSTOM = "custom"

CATALOG = (PHASE, SQUEEZE1_MODE1, SQUEEZE1_MODE2, BEAMSPLIT, TWOMODE_SQUEEZE, COMBINED)


# ---------------------------------------------------------------------------
# Closed-form symplectic matrices (complex form), references for the tests

def phase_matrix(theta: float, mode: int = 0, modes: int = 1) -> SymplecticMatrix:
    """Phase rotation ``diag(e^{-i theta}, e^{i theta})`` on one mode."""
    alpha = np.eye(modes, dtype=complex)
    alpha[mode, mode] = np.exp(-1j * theta)
    return SymplecticMatrix(alpha, np.zeros((modes, modes), dtype=complex))


def squeeze_matrix(r: float, chi: float = 0.0, mode: int = 0, modes: int = 1) -> SymplecticMatrix:
    """One-mode squeezing at angle chi; ``beta = -e^{i chi} sinh r``."""
    alpha = np.eye(modes, dtype=complex)
    beta = np.zeros((modes, modes), dtype=complex)
    alpha[mode, mode] = np.cosh(r)
    beta[mode, mode] = -np.exp(1j * chi) * np.sinh(r)
    return SymplecticMatrix(alpha, beta)


def mix_matrix(theta: float, chi: float = 0.0) -> SymplecticMatrix:
    """Two-mode mixing (beam splitter at chi = 0, transmissivity cos^2 theta)."""
    alpha = np.array([[np.cos(theta), np.exp(1j * chi) * np.sin(theta)],
                      [-np.exp(-1j * chi) * np.sin(theta), np.cos(theta)]], dtype=complex)
    return SymplecticMatrix(alpha, np.zeros((2, 2), dtype=complex))


def twomode_squeeze_matrix(r: float, chi: float = 0.0) -> SymplecticMatrix:
    """Two-mode squeezing; anti-diagonal ``beta = -e^{i chi} sinh r``."""
    alpha = np.cosh(r) * np.eye(2, dtype=complex)
    off = -np.exp(1j * chi) * np.sinh(r)
    beta = np.array([[0.0, off], [off, 0.0]], dtype=complex)
    return SymplecticMatrix(alpha, beta)


# ---------------------------------------------------------------------------
# Generators (per unit channel parameter)

def _zeros(n):
    return np.zeros((n, n), dtype=complex)


def phase_generator(mode: int = 0, modes: int = 1) -> GeneratorW:
    x = _zeros(modes)
    x[mode, mode] = -1.0
    return GeneratorW(x, _zeros(modes))


def squeeze_generator(chi: float = 0.0, mode: int = 0, modes: int = 1) -> GeneratorW:
    y = _zeros(modes)
    y[mode, mode] = 1j * np.exp(1j * chi)
    return GeneratorW(_zeros(modes), y)


def mix_generator(chi: float = 0.0) -> GeneratorW:
    x = np.array([[0.0, -1j * np.exp(1j * chi)],
                  [1j * np.exp(-1j * chi), 0.0]], dtype=complex)
    return GeneratorW(x, _zeros(2))


def twomode_squeeze_generator(chi: float = 0.0) -> GeneratorW:
    y = np.array([[0.0, 1j * np.exp(1j * chi)],
                  [1j * np.exp(1j * chi), 0.0]], dtype=complex)
    return GeneratorW(_zeros(2), y)


def combined_generator(omega_p: float, omega_s: float, chi: float = 0.0) -> GeneratorW:
    x = np.array([[-omega_p]], dtype=complex)
    y = np.array([[1j * omega_s * np.exp(1j * chi)]], dtype=complex)
    return GeneratorW(x, y)


# ---------------------------------------------------------------------------
# Channel specifications

@dataclass(frozen=True)
class ChannelSpec:
    """A one-parameter Gaussian unitary channel ``exp(iKW eps)``."""

    kind: str
    generator: GeneratorW
    chi: float = 0.0
    omega_p: float = 0.0
    omega_s: float = 0.0

    @property
    def modes(self) -> int:
        return self.generator.modes


def phase_channel() -> ChannelSpec:
    return ChannelSpec(PHASE, phase_generator(), omega_p=1.0)


def squeeze_channel(chi: float = 0.0, mode: int = 0, modes: int = 1) -> ChannelSpec:
    if (mode, modes) not in ((0, 1), (0, 2), (1, 2)):
        raise InvalidInputError("one-mode squeezing channel supports 1 or 2 modes")
    kind = SQUEEZE1_MODE2 if mode == 1 else SQUEEZE1_MODE1
    return ChannelSpec(kind, squeeze_generator(chi, mode, modes), chi=chi, omega_s=1.0)


def mix_channel(chi: float = 0.0) -> ChannelSpec:
    return ChannelSpec(BEAMSPLIT, mix_generator(chi), chi=chi)


def twomode_squeeze_channel(chi: float = 0.0) -> ChannelSpec:
    return ChannelSpec(TWOMODE_SQUEEZE, twomode_squeeze_generator(chi), chi=chi)


def combined_channel(omega_p: float, omega_s: float, chi: float = 0.0) -> ChannelSpec:
    """Channel combining phase change (rate omega_p) and squeezing (rate
    omega_s) in direction chi."""
    if not (np.isfinite(omega_p) and np.isfinite(omega_s) and np.isfinite(chi)):
        raise InvalidInputError("channel parameters must be finite")
    return ChannelSpec(COMBINED, combined_generator(omega_p, omega_s, chi),
                       chi=chi, omega_p=omega_p, omega_s=omega_s)


def custom_channel(generator: GeneratorW) -> ChannelSpec:
    return ChannelSpec(CUSTOM, generator)


def channel_symplectic(spec: ChannelSpec, eps: float) -> SymplecticMatrix:
    """Symplectic matrix ``exp(iKW eps)`` of the channel at parameter eps."""
    return exp_generator(spec.generator.scaled(eps))


def channel_shift(spec: ChannelSpec, eps: float) -> np.ndarray:
    """Displacement ``b(eps)`` of the channel (zero for cataloged kinds)."""
    if not np.any(spec.generator.gamma_tilde):
        return np.zeros(2 * spec.modes, dtype=complex)
    return displacement_shift(spec.generator.scaled(eps))


# ---------------------------------------------------------------------------
# JSON interchange

def channel_to_dict(spec: ChannelSpec) -> dict:
    data = {"kind": spec.kind, "chi": spec.chi,
            "omega_p": spec.omega_p, "omega_s": spec.omega_s}
    if spec.kind == CUSTOM:
        w = spec.generator
        data["custom_W"] = {"X": _pairs(w.x_block), "Y": _pairs(w.y_block),
                            "gamma": _pairs(w.gamma_tilde)}
    return data


def channel_from_dict(data: dict) -> ChannelSpec:
    kind = data.get("kind")
    chi = float(data.get("chi", 0.0))
    if kind == PHASE:
        return phase_channel()
    if kind == SQUEEZE1_MODE1:
        return squeeze_channel(chi)
    if kind == SQUEEZE1_MODE2:
        return squeeze_channel(chi, mode=1, modes=2)
    if kind == BEAMSPLIT:
        return mix_channel(chi)
    if kind == TWOMODE_SQUEEZE:
        return twomode_squeeze_channel(chi)
    if kind == COMBINED:
        return combined_channel(float(data.get("omega_p", 0.0)),
                                float(data.get("omega_s", 0.0)), chi)
    if kind == CUSTOM:
        raw = data.get("custom_W")
        if not isinstance(raw, dict) or not {"X", "Y"} <= raw.keys():
            raise StructureError(
                "custom channel needs a 'custom_W' object with 'X' and 'Y'")
        n = math.isqrt(len(raw["X"]))
        if n * n != len(raw["X"]):
            raise StructureError("custom_W blocks must be square row-major arrays")
        w = GeneratorW(_unpairs(raw["X"], (n, n), "X"), _unpairs(raw["Y"], (n, n), "Y"),
                       _unpairs(raw["gamma"], (n,), "gamma") if "gamma" in raw else None)
        return custom_channel(w)
    raise StructureError(f"unknown channel kind {kind!r}")

"""Catalog of Gaussian unitary channels and their symplectic matrices.

Every cataloged channel is a one-parameter group ``S(eps) = exp(iKW eps)``
with a purely quadratic generator (gamma = 0), and every kind, cataloged or
custom, is evaluated by the one generator exponential.  The closed-form
matrices below are references that the test suite checks it against.

``CATALOG`` maps each cataloged kind to its constructor and the parameters
it reads, in constructor order: the kind's JSON keys, the channel keys a
sweep can vary and the channel parameters of a closed-form row.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._util import _finite_number
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
# Channel specifications; each constructor builds its generator per unit
# channel parameter

def _zeros(n):
    return np.zeros((n, n), dtype=complex)


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
    return ChannelSpec(PHASE, GeneratorW(-np.eye(1), _zeros(1)), omega_p=1.0)


def squeeze_channel(chi: float = 0.0, mode: int = 0, modes: int = 1) -> ChannelSpec:
    if (mode, modes) not in ((0, 1), (1, 2)):
        raise InvalidInputError("one-mode squeezing acts on mode 0 of one or mode 1 of two")
    y = _zeros(modes)
    y[mode, mode] = 1j * np.exp(1j * chi)
    kind = SQUEEZE1_MODE2 if mode == 1 else SQUEEZE1_MODE1
    return ChannelSpec(kind, GeneratorW(_zeros(modes), y), chi=chi, omega_s=1.0)


def mix_channel(chi: float = 0.0) -> ChannelSpec:
    x = np.array([[0.0, -1j * np.exp(1j * chi)],
                  [1j * np.exp(-1j * chi), 0.0]], dtype=complex)
    return ChannelSpec(BEAMSPLIT, GeneratorW(x, _zeros(2)), chi=chi)


def twomode_squeeze_channel(chi: float = 0.0) -> ChannelSpec:
    y = np.array([[0.0, 1j * np.exp(1j * chi)],
                  [1j * np.exp(1j * chi), 0.0]], dtype=complex)
    return ChannelSpec(TWOMODE_SQUEEZE, GeneratorW(_zeros(2), y), chi=chi)


def combined_channel(omega_p: float, omega_s: float, chi: float = 0.0) -> ChannelSpec:
    """Channel combining phase change (rate omega_p) and squeezing (rate
    omega_s) in direction chi."""
    w = GeneratorW(np.array([[-omega_p]], dtype=complex),
                   np.array([[1j * omega_s * np.exp(1j * chi)]], dtype=complex))
    return ChannelSpec(COMBINED, w, chi=chi, omega_p=omega_p, omega_s=omega_s)


def custom_channel(generator: GeneratorW) -> ChannelSpec:
    return ChannelSpec(CUSTOM, generator)


CATALOG = {
    PHASE: (phase_channel, ()),
    SQUEEZE1_MODE1: (squeeze_channel, ("chi",)),
    SQUEEZE1_MODE2: (functools.partial(squeeze_channel, mode=1, modes=2), ("chi",)),
    BEAMSPLIT: (mix_channel, ("chi",)),
    TWOMODE_SQUEEZE: (twomode_squeeze_channel, ("chi",)),
    COMBINED: (combined_channel, ("omega_p", "omega_s", "chi")),
}


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
    """``kind`` and the parameters the kind reads (``custom_W`` for custom)."""
    if spec.kind == CUSTOM:
        w = spec.generator
        return {"kind": CUSTOM, "custom_W": {"X": _pairs(w.x_block), "Y": _pairs(w.y_block),
                                             "gamma": _pairs(w.gamma_tilde)}}
    return {"kind": spec.kind, **{name: getattr(spec, name) for name in CATALOG[spec.kind][1]}}


def channel_from_dict(data: dict) -> ChannelSpec:
    """Inverse of ``channel_to_dict``: an absent parameter is 0, an unread key an error."""
    kind = data.get("kind")
    if kind == CUSTOM:
        names = ("custom_W",)
    elif isinstance(kind, str) and kind in CATALOG:
        constructor, names = CATALOG[kind]
    else:
        raise StructureError(f"unknown channel kind {kind!r}")
    unread = [key for key in data if key != "kind" and key not in names]
    if unread:
        raise StructureError(f"channel kind {kind!r} reads only {list(names)}, got {unread}")
    if kind != CUSTOM:
        given = [data.get(name, 0.0) for name in names]
        values = [_finite_number(v) for v in given]
        if None in values:
            raise InvalidInputError(f"channel parameters must be finite numbers, got {given}")
        return constructor(*values)
    raw = data.get("custom_W")
    if not isinstance(raw, dict) or not {"X", "Y"} <= raw.keys():
        raise StructureError("custom channel needs a 'custom_W' object with 'X' and 'Y'")
    n = math.isqrt(len(raw["X"]))
    if n * n != len(raw["X"]):
        raise StructureError("custom_W blocks must be square row-major arrays")
    w = GeneratorW(_unpairs(raw["X"], (n, n), "X"), _unpairs(raw["Y"], (n, n), "Y"),
                   _unpairs(raw["gamma"], (n,), "gamma") if "gamma" in raw else None)
    return custom_channel(w)

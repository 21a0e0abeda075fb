"""Closed-form symplectic matrices (complex form) of the cataloged channels.

They are written out entry by entry, independent of ``exp_generator``, so
that the tests can check the generator exponential and the probe builder
against them.
"""
import numpy as np

from gaussqfi.symplectic import SymplecticMatrix


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

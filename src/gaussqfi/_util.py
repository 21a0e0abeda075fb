"""Small shared helpers for array normalization in typed containers."""
import math
import numbers

import numpy as np

from .errors import InvalidDimensionError


def _as_complex(a, shape, name: str) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    if arr.shape != shape:
        raise InvalidDimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def _is_integral(value) -> bool:
    """4, numpy's int64(4) and 4.0 are integers; 2.9, true, "7" and
    infinity are not."""
    return not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, float) and value.is_integer()))


def _finite_number(value):
    """``value`` as a float if it is a finite number, else None: true, "0.4",
    infinity and an integer too large for a float are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _complex_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[[a, b], [conj b, conj a]]`` from ``(N, N, ...)`` blocks (trailing
    axes are batch axes), written into one preallocated array."""
    n = a.shape[0]
    out = np.empty((2 * n, 2 * n) + a.shape[2:], dtype=complex)
    out[:n, :n], out[:n, n:] = a, b
    out[n:, :n], out[n:, n:] = np.conj(b), np.conj(a)
    return out

"""Small shared helpers: array normalization in typed containers, number
tests and the unread-key check of config readers."""
import math
import numbers

import numpy as np

from .errors import InvalidDimensionError, StructureError


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


def _only_keys(data, known, what: str, error=StructureError) -> dict:
    """``data`` if it is an object holding only keys in ``known``, the keys
    its reader reads: a misspelled key would be read as absent and change
    the answer."""
    if not isinstance(data, dict):
        raise error(f"{what} must be an object, got {type(data).__name__}")
    unread = sorted(set(data) - set(known))
    if unread:
        raise error(f"{what} reads only {sorted(known)}, got {unread}")
    return data


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

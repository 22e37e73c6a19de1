"""What the package accepts as a number: the coercions its public functions apply at entry.

A real number is a Python or numpy int or float; bool and np.bool_ are not,
nor are complex numbers, strings or None. A real must be finite, which an
int too large for a double is not; a count is an int within its bounds.
Each coercion returns plain int or float (reals in bulk as a float64 array),
so no numpy scalar reaches a cache header or a CSV, and refuses anything
else with ValueError, whose message names the argument.
"""
from __future__ import annotations

import numpy as np

_INF = float("inf")
_REALS = "real numbers are Python and numpy ints and floats"


def _is_real(value):
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _describe(value):
    """How a refused value reads in a message: its type and repr, or the size of a huge int."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    return f"{type(value).__name__} {value!r}"


def real(value, name, nonnegative=False):
    """value as a finite float, at least 0 if nonnegative, or ValueError naming name."""
    if type(value) is float and -_INF < value < _INF and not (nonnegative and value < 0.0):
        return value
    if not _is_real(value):
        raise ValueError(f"{name} must be a finite real number, got {_describe(value)}; {_REALS}")
    try:
        number = float(value)
    except OverflowError:  # an int too large for a double
        number = _INF
    if not -_INF < number < _INF:
        raise ValueError(f"{name} must be a finite real number, got {_describe(value)}")
    if nonnegative and number < 0.0:
        raise ValueError(f"{name} must be nonnegative, got {number!r}")
    return number


def reals(values, name, nonnegative=False):
    """values as a 1-D float64 array of finite reals, at least 0 if nonnegative, or ValueError naming name.

    A list of floats and an array of int or float dtype are cast whole; any
    other sequence is checked element by element.
    """
    want = "finite nonnegative reals" if nonnegative else "finite reals"
    if type(values) is list and all(type(v) is float for v in values):
        array = np.array(values, dtype=np.float64)
    elif isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        array = values.astype(np.float64, copy=False)
    else:
        items = np.asarray(values, dtype=object)
        for item in items.ravel().tolist():
            if not _is_real(item):
                raise ValueError(f"{name} must hold {want}, got {_describe(item)}; {_REALS}")
        try:
            array = items.astype(np.float64)
        except OverflowError:
            raise ValueError(f"{name} must hold {want}, got an int too large for a double") from None
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got {array.ndim} dimensions")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must hold {want}, got {float(array[~np.isfinite(array)][0])!r}")
    if nonnegative and (array < 0.0).any():
        raise ValueError(f"{name} must hold {want}, got {float(array[array < 0.0][0])!r}")
    return array


def count(value, name, lo=1, hi=2**53, hi_text="2^53"):
    """value as an int in [lo, hi], or ValueError naming name; hi_text is how hi reads."""
    if type(value) is int and lo <= value <= hi:
        return value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= int(value) <= hi:
        return int(value)
    kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(lo, f"an integer of at least {lo}")
    raise ValueError(f"{name} must be {kind}, at most {hi_text}, got {_describe(value)}")


def seed(value, name="master_seed"):
    """value as an int in [0, 2^64), the range of a Philox key word, or ValueError naming name."""
    return count(value, name, 0, 2**64 - 1, "2^64 - 1")

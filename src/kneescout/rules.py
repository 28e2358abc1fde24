"""The library's input rules: how a number or an array it is given is read.

Every module that checks a value it is given calls these functions, so each
rule and its message live in one place. This module imports nothing of the
package but ``errors``, so any module can import it.
"""

import math
import numbers

import numpy as np

from .errors import InputError, NonFiniteInput


def as_number(value, integral: bool = False):
    """``value`` as an ``int`` if ``integral``, else as a ``float``; None if
    it is a bool or not a number of that kind (``numbers.Integral``,
    ``numbers.Real``).

    This is the library's one rule for a number it is given. A NumPy scalar
    or a ``Fraction`` is a number; a string, None or a NumPy bool is not. A
    real number past float64 reads as +-inf, so the caller's range check
    rejects it like any other infinity.
    """
    if isinstance(value, bool):
        return None
    if integral:
        return int(value) if isinstance(value, numbers.Integral) else None
    if not isinstance(value, numbers.Real):
        return None
    try:
        return float(value)
    except OverflowError:  # an int or a Fraction past float64
        return math.inf if value > 0 else -math.inf


def check_count(value, name: str, low: int, error=InputError) -> int:
    """``value`` as an int >= ``low`` if ``as_number`` reads it as an integer,
    else ``error`` naming ``name``: the library's one rule for a count, an
    iteration cap or a seed."""
    count = as_number(value, integral=True)
    if count is None or count < low:
        raise error(f"{name} must be an int >= {low}, got {value!r}")
    return count


def check_positive(value, name: str, error=InputError) -> float:
    """``value`` as a float if ``as_number`` reads it as a finite real > 0,
    else ``error`` naming ``name``: the library's one rule for a width, a
    rate, an onset cycle or a nominal capacity."""
    number = as_number(value)
    if number is None or not 0 < number < math.inf:  # NaN fails too
        raise error(f"{name} must be a finite real number > 0, got {value!r}")
    return number


def check_number(value, name: str, integral: bool = False, error=InputError):
    """``value`` as ``as_number`` reads it, else ``error`` naming ``name``."""
    number = as_number(value, integral)
    if number is None:
        kind = "an int" if integral else "a real number"
        raise error(f"{name} must be {kind}, got {value!r}")
    return number


def check_fraction(value, name: str) -> float:
    """``value`` as a float in (0, 1), else InputError naming ``name``."""
    number = check_number(value, name)
    if not 0.0 < number < 1.0:
        raise InputError(f"{name}: must be in (0, 1), got {value}")
    return number


def check_finite(values: np.ndarray, name: str) -> None:
    """NonFiniteInput naming ``name`` if ``values`` hold NaN or an infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteInput(f"{name} holds a non-finite value")


def as_array(values, name: str, dtype=np.float64, vector: bool = False) -> np.ndarray:
    """``values`` by NumPy's ``same_kind`` cast to ``dtype``, else InputError
    naming ``name``; with ``vector``, InputError too if not one-dimensional.
    An array of ``dtype`` comes back as it is. Complex, string, object and
    datetime values are refused, and floats for ``int64``: none is parsed,
    truncated or read as its real part. An unsigned array holding a value
    past the largest ``int64`` is refused too, as the cast would wrap it to a
    negative number. A list holding None, a ``Fraction`` or an int past
    uint64 reads as an object array."""
    given = np.asarray(values)
    try:
        array = given.astype(dtype, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name}: cannot read as {np.dtype(dtype)} values: {exc}") from None
    # int() so that the comparison is exact at every NumPy version
    if given.dtype.kind == "u" and array.dtype.kind == "i" and given.size and (
            int(given.max()) > np.iinfo(array.dtype).max):
        raise InputError(f"{name}: cannot read as {array.dtype} values: "
                         f"{given.max()} is past the largest {array.dtype}")
    if vector and array.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got shape {array.shape}")
    return array

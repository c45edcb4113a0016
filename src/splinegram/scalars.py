"""Scalar helpers: the package computes over either exact rationals or floats.

The scalar mode is decided once per object, by ``scalar_type``, in the
constructors of ``KnotSequence`` (its ``exact`` field) and of
``SymBandedMatrix`` (its bands' dtype); every later routine reads it from
there or from an array's dtype: object arrays hold Fractions, float64
arrays floats.  The other helpers handle parsing/formatting at the JSON
boundary, where exact values travel as ``"p/q"`` strings and floats as plain
numbers.  ``_integer_parts`` splits an exact array into the Python ints
inside its Fractions, so that exact arithmetic, signs and float images can
run on those ints and build at most one Fraction per value kept.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import InputError


def scalar_type(values, what: str) -> type:
    """The one scalar type of the sequence ``values``: Fraction when every
    value is an int or a Fraction, float when any is a float.  Any other
    value (a bool, a string, None, ...) is an InputError naming it as
    ``what``."""
    for x in values:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction, float)):
            raise InputError(f"{what} {x!r} is not a rational or float scalar")
    return Fraction if all(isinstance(x, (int, Fraction)) for x in values) else float


def _integer_parts(values, what: str) -> tuple:
    """The integer parts of an object array of Fractions or ints: its
    numerators and its denominators, object arrays of Python ints of its
    shape (a Fraction's are in lowest terms, with the sign on the
    numerator).  An entry with no integer parts (a float, a string, ...) is
    an InputError naming it as ``what``."""
    from operator import attrgetter

    import numpy as np

    try:
        return tuple(np.frompyfunc(attrgetter(name), 1, 1)(values)
                     for name in ("numerator", "denominator"))
    except AttributeError:
        bad = next(x for x in values.flat if not isinstance(x, (int, Fraction)))
        raise InputError(f"{what} {bad!r} is not an int or a Fraction") from None


def parse_scalar(value):
    """Parse a JSON-level number: ``"p/q"`` strings exactly, numbers as given.

    Integers are promoted to Fraction so that downstream arithmetic stays
    exact; floats stay floats (approximate by declaration).
    """
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse scalar {value!r}: {exc}") from exc
    if isinstance(value, bool):
        raise InputError(f"cannot parse scalar {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return value
    raise InputError(f"cannot parse scalar {value!r}")


def format_scalar(x):
    """Format for JSON: Fractions as ``"p/q"`` strings, floats as numbers.
    Decimal prints every digit, where str() of an int stops at
    sys.get_int_max_str_digits() (a guard for parsing, 4300 by default)."""
    if isinstance(x, Fraction):
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
    if isinstance(x, int):
        return f"{Decimal(x)}/1"
    return float(x)


def format_scalars(values) -> list:
    """``format_scalar`` over a 1-D array, decided once by its dtype: the
    Fractions of an object array become ``"p/q"`` strings, float64 entries
    pass through as Python floats (via ``tolist``)."""
    if values.dtype == object:
        return [format_scalar(x) for x in values]
    return values.tolist()

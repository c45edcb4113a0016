"""Scalar helpers: the package computes over either exact rationals or floats.

Every numerical routine is written generically (plain ``+ - * /`` and integer
literals), so passing ``fractions.Fraction`` values keeps a computation exact
while passing ``float`` values runs it in double precision.  These helpers
handle parsing/formatting at the JSON boundary, where exact values travel as
``"p/q"`` strings and floats as plain numbers.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def is_exact(x) -> bool:
    """True for scalars that carry exact rational semantics."""
    return isinstance(x, (Fraction, int))


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
    """Format for JSON: Fractions as ``"p/q"`` strings, floats as numbers."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return float(x)


def format_scalars(values, exact: bool) -> list:
    """``format_scalar`` over an ndarray of one scalar type, decided once by
    the caller: exact values become ``"p/q"`` strings, floats pass through
    as Python floats (via ``tolist``)."""
    if exact:
        return [format_scalar(x) for x in values]
    return values.tolist()

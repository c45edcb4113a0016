"""Scalar helpers: the package computes over either exact rationals or floats.

The scalar mode is decided once per object, by ``scalar_type``, in the
constructors of ``KnotSequence`` (its ``exact`` field) and of
``SymBandedMatrix`` (its bands' dtype); every later routine reads it from
there or from an array's dtype: object arrays hold Fractions (or, in the
exact kernels, the pair arrays below), float64 arrays floats.  The other
helpers handle parsing/formatting at the JSON boundary, where exact values
travel as ``"p/q"`` strings and floats as plain numbers.

``_Pairs`` is the one exact array type the kernels read: exact rationals
kept as unreduced pairs (N, D) of Python ints, D > 0, on which + - * /,
comparison with a bound and the float image take no gcd.  The closed forms,
the lemma battery and the readers of an exact inverse compute in it (an
object array of Fractions enters by its integer parts), so that a Fraction,
and its gcd, is built only for a value that is kept (a Gram entry), never
for one that is only checked.
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction
from functools import reduce

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


def _float_quotient(n: int, d: int) -> float:
    """n / d for Python ints by int true division, correctly rounded (so
    bit for bit float(Fraction(n, d)), reduced or not); +-inf beyond the
    float range and at d = 0, with n's sign."""
    try:
        return n / d
    except (OverflowError, ZeroDivisionError):
        return math.inf if n >= 0 else -math.inf


def _float_quotients(N, D):
    """``_float_quotient`` elementwise over an object array N of Python ints
    and D, one of N's shape or a Python int, as a float64 array: one array
    division, and a per-entry pass only where some entry leaves the float
    range or has d = 0."""
    import numpy as np

    try:
        return (N / D).astype(float)
    except (OverflowError, ZeroDivisionError):
        return np.frompyfunc(_float_quotient, 2, 1)(N, D).astype(float)


def _object_where(cond, a, b):
    """numpy.where over Python ints that is dtype object whatever a and b
    are: numpy.where(cond, 1, 5) is int64, whose later products wrap."""
    import numpy as np

    return np.where(cond, np.asarray(a, object), np.asarray(b, object))


def _value(n: int, d: int):
    """One pair as a value: the canonical Fraction n/d, or +-inf at d = 0."""
    return Fraction(n, d) if d else _float_quotient(n, d)


def _times(x, k):
    """x * k for an object array or an int x and an int k (or an array),
    skipping the pass over x when k is the int 1."""
    return x if type(k) is int and k == 1 else x * k


class _Pairs:
    """Exact rationals N/D elementwise, kept as unreduced pairs: N is an
    object array of Python ints of any shape, D one of its shape or a single
    Python int shared by every entry (the exact brackets' common
    denominator, an exact inverse's lam), D > 0, and no gcd is taken but
    between two shared denominators.  D = 0 occurs only in the pair (1, 0)
    of ``infinite``, which reads +inf as a value, as a float and in
    comparisons.  A pair array is a value: only a fresh one (``copy``,
    ``infinite``) is written in place.

    + - * / take ints, Fractions, object arrays of Fractions and ints (by
    their integer parts, see ``_operand``) and other pair arrays, on either
    side (of a difference, only the left); a sum of two shared denominators
    is taken over their lcm, a quotient moves its divisor's sign onto N, and
    a zero divisor raises ZeroDivisionError, as Fraction does.  A comparison
    with such an operand (a bound) is N * d <op> n * D over the ints, exact
    as both denominators are positive.
    ``floats`` is the float image N / D by int true division, bit for bit
    float(Fraction(N, D)), and ``fractions`` the canonical Fractions.  An
    index of one entry or ``tolist`` gives canonical Fractions; a slice or
    index arrays give a pair array.  numpy's operators defer to these
    (``__array_ufunc__ = None``), so an object array of Fractions meets a
    pair array on either side.
    """

    __slots__ = ("N", "D")
    __array_ufunc__ = None

    def __init__(self, N, D):
        self.N, self.D = N, D

    @classmethod
    def infinite(cls, n: int):
        """A fresh array of n entries +inf, each the pair (1, 0)."""
        import numpy as np

        return cls(np.full(n, 1, object), np.zeros(n, object))

    @classmethod
    def monomial(cls, num_factors, den_factors) -> tuple:
        """The monomial ratio of exact factors (pair arrays, object arrays
        of Fractions and ints, ints), with at least one array among the
        numerator factors, under the 0/0 rule: the pair array N/Q with N the
        product of the numerator factors' numerators and the denominator
        factors' denominators, and Q the reverse, unreduced but for the gcd
        of their int parts (the constants and shared denominators), which
        is cancelled once.  N is zero exactly where a numerator factor is,
        and where Q is zero too the pair is 0/1; Q's sign moves onto N.
        Returned with the bool array of the entries whose Q is zero while N
        is not, which read N/1 here and are the caller's to reject."""
        import numpy as np

        top, bottom = map(_operand, num_factors), map(_operand, den_factors)
        (num_n, num_d), (den_n, den_d) = zip(*top), zip(*bottom)
        sides = [(reduce(operator.mul, (f for f in fs if type(f) is int), 1),
                  [f for f in fs if type(f) is not int])
                 for fs in (num_n + den_d, num_d + den_n)]
        g = math.gcd(sides[0][0], sides[1][0])
        N, Q = (_times(reduce(operator.mul, arrays), k // g) if arrays else k // g
                for k, arrays in sides)
        zero = Q == 0
        if np.any(zero):  # nothing is divided there
            Q = _object_where(zero, 1, Q)
        return _quotient(N, Q, Q), zero & (N != 0)

    @property
    def dtype(self):
        return self.N.dtype

    @property
    def shape(self):
        return self.N.shape

    def __len__(self):
        return len(self.N)

    def _denominators(self):
        """D as an array of N's shape."""
        import numpy as np

        return self.D if type(self.D) is not int else np.full(self.N.shape, self.D, object)

    def __getitem__(self, key):
        n = self.N[key]
        d = self.D if type(self.D) is int else self.D[key]
        return _value(n, d) if isinstance(n, int) else _Pairs(n, d)

    def __setitem__(self, key, value):
        self.D = self._denominators()
        self.N[key], self.D[key] = _operand(value)

    def __iter__(self):
        return iter(self.tolist())

    def copy(self):
        return _Pairs(self.N.copy(), self._denominators().copy())

    def tolist(self) -> list:
        import numpy as np

        return np.frompyfunc(_value, 2, 1)(self.N, self.D).tolist()

    def fractions(self):
        """The canonical Fractions N/D as an object array (D > 0 throughout:
        an entry (1, 0) raises ZeroDivisionError)."""
        import numpy as np

        return np.frompyfunc(Fraction, 2, 1)(self.N, self.D)

    def floats(self):
        """The float64 image N / D (``_float_quotients``)."""
        return _float_quotients(self.N, self.D)

    def __neg__(self):
        return _Pairs(-self.N, self.D)

    def __abs__(self):
        return _Pairs(abs(self.N), self.D)

    def _sum(self, other, sign):
        n, d = _operand(other)
        if type(self.D) is int and type(d) is int:  # over the lcm
            L = math.lcm(self.D, d)
            top, n = _times(self.N, L // self.D), _times(n, L // d)
        else:
            top, n, L = _times(self.N, d), _times(n, self.D), self.D * d
        return _Pairs(top + n if sign > 0 else top - n, L)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __mul__(self, other):
        n, d = _operand(other)
        return _Pairs(_times(self.N, n), _times(self.D, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        n, d = _operand(other)
        return _quotient(_times(self.N, d), _times(self.D, n), n)

    def __rtruediv__(self, other):
        n, d = _operand(other)
        return _quotient(_times(self.D, n), _times(self.N, d), self.N)

    def _compare(self, other, op):
        n, d = _operand(other)
        return op(_times(self.N, d), 0 if type(n) is int and n == 0 else _times(self.D, n))

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)


def _operand(x) -> tuple:
    """x as (numerators, denominators) for ``_Pairs`` arithmetic: a pair
    array's N and D, an int's or a Fraction's two ints, and for an object
    array of Fractions and ints its integer parts, object arrays of Python
    ints of its shape (a Fraction's in lowest terms, with the sign on the
    numerator).  An entry of such an array with no integer parts (a float,
    a string, ...) is an InputError naming it; any other x is a TypeError."""
    import numpy as np

    if isinstance(x, _Pairs):
        return x.N, x.D
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x.numerator, x.denominator
    if isinstance(x, np.ndarray) and x.dtype == object:
        try:
            return tuple(np.frompyfunc(operator.attrgetter(name), 1, 1)(x)
                         for name in ("numerator", "denominator"))
        except AttributeError:
            bad = next(v for v in x.flat if not isinstance(v, (int, Fraction)))
            raise InputError(f"exact entry {bad!r} is not an int or a Fraction") from None
    raise TypeError(f"no exact rational arithmetic with {type(x).__name__}")


def _quotient(N, D, divisor):
    """The pair array N/D of a quotient whose divisor has the numerators
    ``divisor`` (an array or an int; D carries their signs):
    ZeroDivisionError where one is zero, else their signs moved onto N and
    off D, so that D > 0."""
    import numpy as np

    if np.any(divisor == 0):
        raise ZeroDivisionError("division of a rational array by zero")
    if type(N) is int:  # a scalar over a pair array
        N = np.full(D.shape, N, object)
    neg = divisor < 0
    if type(D) is int:  # a shared denominator, of a scalar divisor
        return _Pairs(-N, -D) if neg else _Pairs(N, D)
    if np.any(neg):
        N, D = _object_where(neg, -N, N), _object_where(neg, -D, D)
    return _Pairs(N, D)


def _where(cond, a, b):
    """numpy.where(cond, a, b), kept a pair array when a or b is one (the
    other an exact scalar or array), dtype object throughout."""
    import numpy as np

    if not isinstance(a, _Pairs) and not isinstance(b, _Pairs):
        return np.where(cond, a, b)
    (an, ad), (bn, bd) = _operand(a), _operand(b)
    return _Pairs(_object_where(cond, an, bn), _object_where(cond, ad, bd))


def _rational(values):
    """An object array of Fractions and ints as a pair array of its shape,
    by its integer parts (``_operand``); a pair array or a float64 array as
    it is."""
    if isinstance(values, _Pairs) or values.dtype != object:
        return values
    return _Pairs(*_operand(values))


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

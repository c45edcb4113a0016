"""Exact sparse multivariate polynomials and rational functions.

``MultiPoly`` stores a polynomial in ``nvars`` variables as a dict mapping
exponent tuples to nonzero rational coefficients (int where possible).  The
canonical term order is graded lexicographic: terms sorted by total degree,
then lexicographically on the exponent tuple, ascending.  Instances are
immutable and hashable, so polynomials can serve as dictionary keys (the
factored-denominator representation relies on this).

``FactoredRational`` is a rational function whose denominator is a dict
{factor polynomial: exponent}.  No polynomial GCD is ever computed: addition
lifts both operands to the factor-wise least common denominator by
*syntactic* factor matching; this keeps denominators as explicit products,
which is exactly what the nonnegativity certificates need to inspect.

Multiplications enforce a global term budget (default 5,000,000 accumulated
terms) and raise ResourceBudgetError with partial statistics when exceeded.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError, ResourceBudgetError

DEFAULT_TERM_BUDGET = 5_000_000
_term_budget = DEFAULT_TERM_BUDGET
_BUDGET_CHECK_STRIDE = 4096


def get_term_budget() -> int:
    return _term_budget


def set_term_budget(n: int) -> None:
    global _term_budget
    if not isinstance(n, int) or n < 1:
        raise InputError(f"term budget must be a positive integer, got {n!r}")
    _term_budget = n


@contextmanager
def term_budget(n: int):
    """Temporarily cap the number of accumulated terms per multiplication."""
    global _term_budget
    old = _term_budget
    set_term_budget(n)
    try:
        yield
    finally:
        _term_budget = old


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise InputError(f"coefficient {c!r} is not an exact rational")
    return c


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms):
        if not isinstance(nvars, int) or nvars < 0:
            raise InputError(f"nvars must be a nonnegative integer, got {nvars!r}")
        clean = {}
        for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exps = tuple(exps)
            if len(exps) != nvars or any(not isinstance(e, int) or e < 0 for e in exps):
                raise InputError(f"exponent tuple {exps!r} invalid for {nvars} variables")
            coeff = _norm_coeff(coeff)
            if coeff == 0:
                continue
            if exps in clean:
                coeff = _norm_coeff(clean[exps] + coeff)
                if coeff == 0:
                    del clean[exps]
                    continue
            clean[exps] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The variable x_i, 1-based index."""
        if not (1 <= i <= nvars):
            raise InputError(f"variable index {i} outside [1,{nvars}]")
        exps = tuple(1 if j == i - 1 else 0 for j in range(nvars))
        return cls(nvars, {exps: 1})

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum total degree (-1 for the zero polynomial)."""
        return max((sum(e) for e in self.terms), default=-1)

    def sorted_terms(self) -> list:
        """Terms as (exponents, coefficient), graded-lex ascending."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def leading_coefficient(self):
        """Coefficient of the graded-lex greatest term (0 for zero poly)."""
        if not self.terms:
            return 0
        return self.terms[max(self.terms, key=_grlex_key)]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def content(self) -> Fraction:
        """Positive rational content (0 for the zero polynomial)."""
        if not self.terms:
            return Fraction(0)
        nums = 0
        dens = 1
        for c in self.terms.values():
            f = Fraction(c)
            nums = gcd(nums, f.numerator)
            dens = lcm(dens, f.denominator)
        return Fraction(nums, dens)

    def primitive(self):
        """(content, self/content): content signed so the primitive part has
        positive leading coefficient and coprime integer coefficients."""
        c = self.content()
        if c == 0:
            return Fraction(0), self
        if self.leading_coefficient() < 0:
            c = -c
        return c, self._scale(1 / c)

    def _scale(self, s) -> "MultiPoly":
        if s == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {e: c * s for e, c in self.terms.items()})

    def min_coefficient(self):
        """(exponents, coefficient) of the smallest coefficient, graded-lex
        first among ties; (None, 0) for the zero polynomial."""
        best = None
        for exps, coeff in self.sorted_terms():
            if best is None or coeff < best[1]:
                best = (exps, coeff)
        return best if best is not None else (None, 0)

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check_compat(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = acc.get(exps, 0) + coeff
            if new == 0:
                acc.pop(exps, None)
            else:
                acc[exps] = new
        return MultiPoly(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(_norm_coeff(other))
        self._check_compat(other)
        budget = _term_budget
        acc = {}
        pairs = 0
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                new = acc.get(exps, 0) + c1 * c2
                if new == 0:
                    acc.pop(exps, None)
                else:
                    acc[exps] = new
                pairs += 1
                if pairs % _BUDGET_CHECK_STRIDE == 0 and len(acc) > budget:
                    raise ResourceBudgetError(
                        f"term budget {budget} exceeded during multiplication",
                        partial={"accumulated_terms": len(acc),
                                 "budget": budget,
                                 "left_terms": len(self.terms),
                                 "right_terms": len(other.terms)})
        if len(acc) > budget:
            raise ResourceBudgetError(
                f"term budget {budget} exceeded during multiplication",
                partial={"accumulated_terms": len(acc), "budget": budget,
                         "left_terms": len(self.terms),
                         "right_terms": len(other.terms)})
        return MultiPoly(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError(f"polynomial power must be a nonnegative integer, got {n!r}")
        result = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __call__(self, point):
        """Evaluate at a point (any scalar field; exact for rationals)."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise InputError(f"point has {len(point)} coordinates, need {self.nvars}")
        if (self.terms
                and all(isinstance(x, (int, Fraction)) for x in point)
                and all(isinstance(c, int) for c in self.terms.values())):
            return self._eval_rational(point)
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def _eval_rational(self, point):
        """Exact evaluation over the integers: clear each variable's
        denominator once, so the term sum avoids per-operation gcd
        normalization (Fraction arithmetic is quadratically slower here)."""
        fracs = [Fraction(x) for x in point]
        dmax = [0] * self.nvars
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e > dmax[i]:
                    dmax[i] = e
        ppow, qpow = [], []
        for i, x in enumerate(fracs):
            prow, qrow = [1], [1]
            for _ in range(dmax[i]):
                prow.append(prow[-1] * x.numerator)
                qrow.append(qrow[-1] * x.denominator)
            ppow.append(prow)
            qpow.append(qrow)
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for i, e in enumerate(exps):
                term *= ppow[i][e] * qpow[i][dmax[i] - e]
            total += term
        den = 1
        for i in range(self.nvars):
            den *= qpow[i][dmax[i]]
        # always a Fraction so downstream division stays exact
        return Fraction(total, den)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self == MultiPoly.constant(self.nvars, other)
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            key = (self.nvars, tuple(self.sorted_terms()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def canonical_key(self) -> tuple:
        """Deterministic sort key for sets of polynomials."""
        return (self.total_degree(), tuple(self.sorted_terms()))

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def poly_product(factors) -> MultiPoly:
    """Product of an iterable of MultiPolys (1 for an empty iterable)."""
    result = None
    for f in factors:
        result = f if result is None else result * f
    if result is None:
        raise InputError("poly_product of an empty sequence has unknown nvars")
    return result


# ---------------------------------------------------------------------------
# Rational functions with factored denominators


class FactoredRational:
    """scalar * num / prod(factor^exp): the certificate-side representation.

    Denominators stay factored forever; addition matches factors
    syntactically (equal MultiPoly keys) and lifts to the factor-wise LCD.
    All polynomial coefficients are integers; the rational content lives in
    ``scalar``.
    """

    __slots__ = ("scalar", "num", "den_factors")

    def __init__(self, scalar, num: MultiPoly, den_factors=None):
        den_factors = dict(den_factors or {})
        scalar = Fraction(scalar)
        content, num = num.primitive()
        scalar *= content
        clean = {}
        for f, e in den_factors.items():
            if not isinstance(e, int) or e < 1:
                raise InputError(f"factor exponent {e!r} must be a positive integer")
            if f.nvars != num.nvars:
                raise InputError("factor variable count differs from numerator")
            fc, fp = f.primitive()
            if fc == 0:
                raise InputError("zero polynomial as denominator factor")
            scalar /= fc ** e
            clean[fp] = clean.get(fp, 0) + e
        if scalar == 0 or num.is_zero():
            scalar, num, clean = Fraction(0), MultiPoly.zero(num.nvars), {}
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den_factors", clean)

    def __setattr__(self, *a):
        raise AttributeError("FactoredRational is immutable")

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @classmethod
    def from_scalar(cls, nvars: int, c) -> "FactoredRational":
        return cls(c, MultiPoly.constant(nvars, 1))

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "FactoredRational":
        return cls(1, p)

    def is_zero(self) -> bool:
        return self.scalar == 0

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredRational.from_poly(other)
        elif not isinstance(other, FactoredRational):
            return FactoredRational(self.scalar * Fraction(other), self.num,
                                    self.den_factors)
        if self.is_zero() or other.is_zero():
            return FactoredRational.from_scalar(self.nvars, 0)
        merged = dict(self.den_factors)
        for f, e in other.den_factors.items():
            merged[f] = merged.get(f, 0) + e
        return FactoredRational(self.scalar * other.scalar,
                                self.num * other.num, merged)

    __rmul__ = __mul__

    def __neg__(self):
        return FactoredRational(-self.scalar, self.num, self.den_factors)

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredRational.from_poly(other)
        elif not isinstance(other, FactoredRational):
            other = FactoredRational.from_scalar(self.nvars, other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lcd = dict(self.den_factors)
        for f, e in other.den_factors.items():
            lcd[f] = max(lcd.get(f, 0), e)
        lift_self = [f ** (lcd[f] - self.den_factors.get(f, 0))
                     for f in lcd if lcd[f] > self.den_factors.get(f, 0)]
        lift_other = [f ** (lcd[f] - other.den_factors.get(f, 0))
                      for f in lcd if lcd[f] > other.den_factors.get(f, 0)]
        b = lcm(self.scalar.denominator, other.scalar.denominator)
        c1 = self.scalar.numerator * (b // self.scalar.denominator)
        c2 = other.scalar.numerator * (b // other.scalar.denominator)
        n1 = self.num if not lift_self else self.num * poly_product(lift_self)
        n2 = other.num if not lift_other else other.num * poly_product(lift_other)
        return FactoredRational(Fraction(1, b), c1 * n1 + c2 * n2, lcd)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredRational.from_poly(other)
        elif not isinstance(other, FactoredRational):
            other = FactoredRational.from_scalar(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def inverse(self) -> "FactoredRational":
        """1/self; the numerator becomes the single denominator factor."""
        if self.is_zero():
            raise InputError("cannot invert the zero rational function")
        num = MultiPoly.constant(self.nvars, 1)
        for f, e in self._sorted_factors():
            num = num * f ** e
        return FactoredRational(1 / self.scalar, num, {self.num: 1})

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredRational.from_poly(other)
        elif not isinstance(other, FactoredRational):
            return FactoredRational(self.scalar / Fraction(other), self.num,
                                    self.den_factors)
        return self * other.inverse()

    # -- export -------------------------------------------------------------

    def _sorted_factors(self) -> list:
        return sorted(self.den_factors.items(), key=lambda t: t[0].canonical_key())

    def denominator_expanded(self) -> MultiPoly:
        den = MultiPoly.constant(self.nvars, 1)
        for f, e in self._sorted_factors():
            den = den * f ** e
        return den

    def __call__(self, point):
        val = self.scalar * self.num(point)
        for f, e in self.den_factors.items():
            fv = f(point)
            if fv == 0:
                raise InputError(f"denominator factor vanishes at {point!r}")
            val = val / fv ** e
        return val

    def __repr__(self):
        return (f"FactoredRational({self.scalar}, {self.num!r}, "
                f"{{{', '.join(f'{f!r}: {e}' for f, e in self._sorted_factors())}}})")

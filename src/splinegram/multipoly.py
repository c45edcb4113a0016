"""Exact sparse multivariate polynomials and rational functions.

``MultiPoly`` stores a polynomial in ``nvars`` variables as a dict mapping
packed monomials to nonzero rational coefficients (int where possible).  A
monomial x1^e1 ... xn^en is one int (Kronecker substitution, as in
Monagan-Pearce sparse multiplication): n fields of ``bits`` bits hold
e1, ..., en, variable 1 in the most significant field, and the total degree
sits in an open-ended field above them.  Multiplying two monomials is then a
single int addition, and ascending packed ints are exactly the canonical
graded lexicographic order: total degree first, then the exponent tuple
lexicographically.  The field width is a function of the polynomial, the
bit length of its total degree but at least ``_MIN_BITS``, so no exponent
can reach a neighbouring field and equal polynomials have equal packed
dicts.  A product takes the width of its own degree, deg p + deg q, before
any exponent is added, which rules out carries.  ``terms`` and
``sorted_terms`` unpack to exponent tuples.

The public constructor ``MultiPoly(nvars, terms)`` validates every exponent
tuple and coefficient.  The arithmetic builds its results through the
trusted ``MultiPoly._make``, which takes packed terms the engine made itself
without re-checking them.  Content and primitive part are computed over the
integers (``math.gcd`` and exact ``//``).  Rational evaluation clears each
variable's denominator once and sums over the packed terms in integers.
Instances are immutable and hashable, so polynomials can serve as dictionary
keys (the factored-denominator representation relies on this).

``FactoredRational`` is a rational function whose denominator is a dict
{factor polynomial: exponent}.  No polynomial GCD is ever computed: addition
lifts both operands to the factor-wise least common denominator by
*syntactic* factor matching; this keeps denominators as explicit products,
which is exactly what the nonnegativity certificates need to inspect.  Its
scalars pass the same exactness check as polynomial coefficients.

Multiplications enforce a term budget (default 5,000,000 accumulated terms)
and raise ResourceBudgetError with partial statistics when it is exceeded.
The budget lives in a context variable: ``term_budget`` acts on the current
thread or task only.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import InputError, ResourceBudgetError

DEFAULT_TERM_BUDGET = 5_000_000
_term_budget = ContextVar("splinegram_term_budget", default=DEFAULT_TERM_BUDGET)
_MIN_BITS = 8


def _valid_budget(n) -> int:
    if not isinstance(n, int) or n < 1:
        raise InputError(f"term budget must be a positive integer, got {n!r}")
    return n


def get_term_budget() -> int:
    return _term_budget.get()


@contextmanager
def term_budget(n: int):
    """Temporarily cap the number of accumulated terms per multiplication."""
    token = _term_budget.set(_valid_budget(n))
    try:
        yield
    finally:
        _term_budget.reset(token)


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise InputError(f"coefficient {c!r} is not an exact rational")
    return c


def _check_nvars(nvars) -> None:
    if not isinstance(nvars, int) or nvars < 0:
        raise InputError(f"nvars must be a nonnegative integer, got {nvars!r}")


# ---------------------------------------------------------------------------
# Packed monomials


def _bits_for(degree: int) -> int:
    """The canonical field width for a polynomial of total degree ``degree``."""
    return max(_MIN_BITS, degree.bit_length())


def _pack(exps, bits: int) -> int:
    key = sum(exps)
    for e in exps:
        key = (key << bits) | e
    return key


def _unpacker(nvars: int, bits: int):
    """Packed monomial -> exponent tuple, for fields of ``bits`` bits."""
    mask = (1 << bits) - 1
    shifts = [bits * (nvars - 1 - i) for i in range(nvars)]
    return lambda key: tuple([(key >> s) & mask for s in shifts])


def _repack(terms: dict, nvars: int, old: int, new: int) -> dict:
    if old == new:
        return terms
    unpack = _unpacker(nvars, old)
    return {_pack(unpack(k), new): c for k, c in terms.items()}


def _tidy(terms: dict) -> dict:
    """Turn integral Fraction coefficients back into ints, in place."""
    for k, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[k] = c.numerator
    return terms


def _all_int(terms: dict) -> bool:
    return set(map(type, terms.values())) <= {int}


class MultiPoly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "_bits", "_terms", "_hash", "_plan")

    def __init__(self, nvars: int, terms):
        _check_nvars(nvars)
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
        bits = _bits_for(max(map(sum, clean), default=0))
        self._init(nvars, bits, {_pack(e, bits): c for e, c in clean.items()})

    def _init(self, nvars: int, bits: int, terms: dict) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_plan", None)

    @classmethod
    def _make(cls, nvars: int, bits: int, terms: dict) -> "MultiPoly":
        """Trusted constructor for engine-made terms: ``terms`` maps packed
        monomials of width ``bits`` (canonical for their degree) to nonzero
        int or non-integral Fraction coefficients; nothing is re-checked."""
        self = object.__new__(cls)
        self._init(nvars, bits, terms)
        return self

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        _check_nvars(nvars)
        return cls._make(nvars, _MIN_BITS, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        _check_nvars(nvars)
        c = _norm_coeff(c)
        return cls._make(nvars, _MIN_BITS, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The variable x_i, 1-based index."""
        if not (1 <= i <= nvars):
            raise InputError(f"variable index {i} outside [1,{nvars}]")
        b = _MIN_BITS
        return cls._make(nvars, b, {(1 << b * nvars) | (1 << b * (nvars - i)): 1})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, unpacked afresh on each access."""
        unpack = _unpacker(self.nvars, self._bits)
        return {unpack(k): c for k, c in self._terms.items()}

    def __len__(self) -> int:
        """Number of nonzero terms."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum total degree (-1 for the zero polynomial)."""
        if not self._terms:
            return -1
        return max(self._terms) >> (self._bits * self.nvars)

    def sorted_terms(self) -> list:
        """Terms as (exponents, coefficient), graded-lex ascending."""
        unpack = _unpacker(self.nvars, self._bits)
        return [(unpack(k), c) for k, c in sorted(self._terms.items())]

    def leading_coefficient(self):
        """Coefficient of the graded-lex greatest term (0 for zero poly)."""
        if not self._terms:
            return 0
        return self._terms[max(self._terms)]

    def _integral(self):
        """(d, numerators): the least common denominator d of the
        coefficients, and the coefficients times d as ints."""
        coeffs = self._terms.values()
        dens = [c.denominator for c in coeffs if type(c) is not int]
        if not dens:
            return 1, coeffs
        d = lcm(*dens)
        return d, [c * d if type(c) is int else c.numerator * (d // c.denominator)
                   for c in coeffs]

    def primitive(self):
        """(content, self/content): content signed so the primitive part has
        positive leading coefficient and coprime integer coefficients."""
        if not self._terms:
            return Fraction(0), self
        d, nums = self._integral()
        g = gcd(*nums)
        if self.leading_coefficient() < 0:
            g = -g
        if g == 1 and d == 1:
            return Fraction(1), self
        return Fraction(g, d), MultiPoly._make(
            self.nvars, self._bits, {k: n // g for k, n in zip(self._terms, nums)})

    def _scale(self, s) -> "MultiPoly":
        if s == 0:
            return MultiPoly.zero(self.nvars)
        if s == 1:
            return self
        terms = {k: c * s for k, c in self._terms.items()}
        if type(s) is not int or not _all_int(self._terms):
            _tidy(terms)
        return MultiPoly._make(self.nvars, self._bits, terms)

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables")

    def _add(self, other, negate: bool) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check_compat(other)
        nvars = self.nvars
        bits = max(self._bits, other._bits)
        acc = dict(_repack(self._terms, nvars, self._bits, bits))
        get = acc.get
        items = _repack(other._terms, nvars, other._bits, bits).items()
        if negate:
            items = [(k, -c) for k, c in items]
        for k, c in items:
            new = get(k, 0) + c
            if new:
                if type(new) is Fraction and new.denominator == 1:
                    new = new.numerator
                acc[k] = new
            else:
                del acc[k]
        if not acc:
            return MultiPoly.zero(nvars)
        if bits > _MIN_BITS:    # cancellation may have lowered the degree
            canon = _bits_for(max(acc) >> (bits * nvars))
            acc, bits = _repack(acc, nvars, bits, canon), canon
        return MultiPoly._make(nvars, bits, acc)

    def __add__(self, other):
        return self._add(other, False)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make(self.nvars, self._bits,
                               {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self._add(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(_norm_coeff(other))
        self._check_compat(other)
        nvars = self.nvars
        if not self._terms or not other._terms:
            return MultiPoly.zero(nvars)
        # every exponent of the product is at most its total degree, so at
        # this width no exponent sum carries into the neighbouring field
        bits = _bits_for(self.total_degree() + other.total_degree())
        left = _repack(self._terms, nvars, self._bits, bits)
        right = list(_repack(other._terms, nvars, other._bits, bits).items())
        budget = get_term_budget()
        acc = {}
        get = acc.get
        for k1, c1 in left.items():
            for k2, c2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
            if len(acc) > budget:
                raise ResourceBudgetError(
                    f"term budget {budget} exceeded during multiplication",
                    partial={"accumulated_terms": len(acc), "budget": budget,
                             "left_terms": len(self._terms),
                             "right_terms": len(other._terms)})
        terms = {k: c for k, c in acc.items() if c}
        if not (_all_int(self._terms) and _all_int(other._terms)):
            _tidy(terms)
        return MultiPoly._make(nvars, bits, terms)

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

    # -- evaluation ---------------------------------------------------------

    def __call__(self, point):
        """Evaluate at a point (any scalar field; exact for rationals)."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise InputError(f"point has {len(point)} coordinates, need {self.nvars}")
        if (self._terms and all(isinstance(x, (int, Fraction)) for x in point)
                and self._eval_plan()):
            return self._eval_rational(point)
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff
            for x, e in zip(point, exps):
                if e:
                    term = term * x ** e
            total = total + term
        return total

    def _eval_plan(self):
        """The integer evaluation layout, built once per polynomial: the
        maximal exponent of each variable, and the terms grouped by the
        exponents of the leading half of the variables.  Each group lists its
        coefficients and, per term, the index of its trailing-half exponents
        among the distinct ones.  Empty when a coefficient is not an int."""
        if self._plan is None:
            plan = ()
            if _all_int(self._terms):
                n, h = self.nvars, self.nvars // 2
                terms = self.terms
                dmax = tuple(map(max, zip(*terms))) if n else ()
                lo_index, groups = {}, {}
                for t, c in terms.items():
                    idx, cs = groups.setdefault(t[:h], ([], []))
                    idx.append(lo_index.setdefault(t[h:], len(lo_index)))
                    cs.append(c)
                plan = (dmax, h, list(lo_index),
                        [(hi, idx, cs) for hi, (idx, cs) in groups.items()])
            object.__setattr__(self, "_plan", plan)
        return self._plan

    def _eval_rational(self, point):
        """Exact evaluation over the integers: with x_i = p_i/q_i and d_i the
        largest exponent of x_i, the value times prod q_i^d_i is
        sum c prod p_i^e_i q_i^(d_i-e_i).  Each variable's factors come from
        a per-point table, products over the trailing half of the variables
        are formed once per distinct exponent pattern, and each group of
        terms sharing the leading half is summed before one multiplication
        by its leading-half product."""
        dmax, h, lo_keys, groups = self._plan
        tables, den = [], 1
        for x, d in zip(point, dmax):
            x = Fraction(x)
            p, q = x.numerator, x.denominator
            ppow, qpow = [1], [1]
            for _ in range(d):
                ppow.append(ppow[-1] * p)
                qpow.append(qpow[-1] * q)
            tables.append([a * b for a, b in zip(ppow, reversed(qpow))])
            den *= qpow[d]
        lo_tables, hi_tables = tables[h:], tables[:h]
        lo_vals = []
        for lo in lo_keys:
            v = 1
            for t, e in zip(lo_tables, lo):
                v *= t[e]
            lo_vals.append(v)
        total = 0
        for hi, idx, cs in groups:
            v = sum(map(mul, cs, map(lo_vals.__getitem__, idx)))
            for t, e in zip(hi_tables, hi):
                v *= t[e]
            total += v
        # always a Fraction so downstream division stays exact
        return Fraction(total, den)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self == MultiPoly.constant(self.nvars, other)
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            key = (self.nvars, frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", hash(key))
        return self._hash

    def canonical_key(self) -> tuple:
        """Deterministic sort key for sets of polynomials."""
        return (self.total_degree(), tuple(self.sorted_terms()))

    def __repr__(self):
        if not self._terms:
            return "MultiPoly(0)"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(f"x{i+1}^{e}" if e > 1 else f"x{i+1}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


def poly_product(factors) -> MultiPoly:
    """Product of a nonempty iterable of MultiPolys."""
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
        scalar = Fraction(_norm_coeff(scalar))
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
            return FactoredRational(self.scalar * _norm_coeff(other), self.num,
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
            return FactoredRational(self.scalar / _norm_coeff(other), self.num,
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

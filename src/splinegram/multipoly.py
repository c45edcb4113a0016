"""Exact sparse multivariate polynomials and rational functions.

``MultiPoly`` stores a polynomial in ``nvars`` variables as its packed
monomials and their nonzero int coefficients, in one of the two forms
described below; all rational content lives in the scalar of a
``FactoredRational``.  A monomial x1^e1 ... xn^en is one int (Kronecker
substitution, as in Monagan-Pearce sparse multiplication): n fields of
``_BITS`` = 8 bits hold e1, ..., en, variable 1 in the most significant
field, and the total degree sits in a field above them.  Multiplying two
monomials is then a single int addition, and ascending packed ints are
exactly the canonical graded lexicographic order: total degree first, then
the exponent tuple lexicographically.  A polynomial's total degree is at
most ``_MAX_DEGREE`` = 255, so no exponent can reach a neighbouring field
and equal polynomials have equal packed terms.  The public constructor
rejects a term of higher degree, and a product checks deg p + deg q
against the cap before it forms any term pair; a sum never raises the
degree.  A polynomial has at most ``_MAX_VARS`` = 6 variables, so the
exponent fields and the degree field fill at most 56 bits and every packed
monomial is an int64.  ``terms`` and ``sorted_terms`` unpack to exponent
tuples.

The public constructor ``MultiPoly(nvars, terms)`` validates every exponent
tuple, its total degree and every coefficient: a coefficient, like a number
added to or multiplied with a polynomial, must be an int (not a bool, a
float or a Fraction, even an integral one).  ``nvars`` is an int in
[0, ``_MAX_VARS``] for every constructor.  The arithmetic builds its
results through the trusted ``MultiPoly._make`` and
``MultiPoly._from_arrays``, which take packed terms the engine made itself
without re-checking them.  Content and primitive part are ints and int
polynomials (gcd and exact ``//``).  Evaluation takes int or Fraction
coordinates (not bools), clears each variable's denominator once and sums the terms in
integers, in one pass over the array form that the float filter reads too.
Instances are immutable and hashable, so
polynomials can serve as dictionary keys (the factored-denominator
representation relies on this).

``FactoredRational`` is a rational function whose denominator is a dict
{factor polynomial: exponent}.  No polynomial GCD is ever computed: addition
lifts both operands to the factor-wise least common denominator by
*syntactic* factor matching; this keeps denominators as explicit products,
which is exactly what the nonnegativity certificates need to inspect.  Its
scalar is a Fraction, built from ints and Fractions only.

The two forms.  The dict form maps packed monomials to coefficients.  The
array form holds the packed monomials as an ascending int64 array (so in
graded-lex order) and the coefficients as an array beside it.  A
polynomial is array-resident only when the engine made it with at least
``_ARRAY_CUTOFF`` terms; every other polynomial, and everything the public
constructor builds, is a dict.  Operations with an array-resident operand,
or a product of at least ``_ARRAY_CUTOFF`` term pairs, run on arrays:
  - a product (``_array_product``) forms blocks of whole rows, at most
    ``_BLOCK_PAIRS`` pairs each, as the outer sums of the keys and the outer
    products of the coefficients, and merges the blocks into the sorted
    result with a stable argsort and ``add.reduceat``;
  - a sum merges the two sorted key arrays the same way, and a difference
    is the sum with the negation;
  - integer scaling (negation is scaling by -1) and ``primitive``
    (``numpy.gcd.reduce``) act on the coefficients and keep the keys;
  - ``total_degree`` and the coefficient scan (``_first_negative``) read the
    last key and the coefficients.
A result below the cutoff comes back as a dict, so small polynomials never
touch numpy in their arithmetic.  Evaluation and the float filter read the
arrays, and build them for a dict form.  Every other reader takes the dict,
which ``_dict`` builds afresh for an array form: ``terms``,
``sorted_terms`` (and through it ``repr`` and ``canonical_key``),
``leading_coefficient``, ``__eq__`` and ``__hash__`` (whose value is kept).

Coefficient arrays are int64 only while a bound proves that no value
overflows, and object arrays of Python ints otherwise, which numpy's C
loops add and multiply exactly.  An int64 coefficient has |c| < 2^63, so
negation and ``abs`` are exact; a sum stays int64 when
max|a| + max|b| < 2^63, an integer scaling by s when max|c| |s| < 2^63, and
a product when max|a| max|b| min(len a, len b) < 2^63, which bounds every
product and every per-monomial sum (a monomial gets at most one pair per
term of either operand).  An object result whose values all fit is stored
as int64 again.  The cutoff sits where the two ways break even: numpy's
fixed cost per call makes a 42-pair product take 34 us instead of 15 us in
the dict loop, and products break even near 256 pairs (CPython 3.11,
numpy 2.4, 2-core VM).  numpy is imported on the first array operation, not
with this module.

Signs at many points come from a float filter (``_float_signs``), which
the spot checks of the certificates use: all points are evaluated at once
in float64 (power tables by repeated multiplication, each term as the
product of its table entries and its rounded coefficient), giving S~, the
float value, and A~, the float sum of the terms' absolute values.  With T
terms, total degree D, n variables and K = T + 2D + n + 2, every rounding
is covered by Higham's gamma_K: |S~ - S| <= gamma_K / (1 - gamma_K) A~, and
the sign of S~ is taken only where |S~| exceeds twice that, the factor 2
covering the rounding of the margin itself.  The bound assumes that no
intermediate leaves the normal range, so a point is filtered only when its
coordinates lie in [2^-s, 2^s] with s D + log2 max|c| + log2 T < 1000;
every other point is left undecided for the exact evaluation.

Multiplications enforce a term budget (default 5,000,000 accumulated terms)
and raise ResourceBudgetError with partial statistics when it is exceeded,
checked after each left row of the dict loop and, in the array product,
whenever the merged and held terms together could exceed it.  The budget
lives in a context variable: ``term_budget`` acts on the current thread or
task only.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul

from .errors import InputError, ResourceBudgetError

DEFAULT_TERM_BUDGET = 5_000_000
_term_budget = ContextVar("splinegram_term_budget", default=DEFAULT_TERM_BUDGET)
_BITS = 8                  # bits per exponent field
_MAX_VARS = 6              # variables: 6 exponent fields and the degree field
                           # make every packed monomial an int64
_MAX_DEGREE = (1 << _BITS) - 1    # the largest field value: the cap on the
                                  # total degree, and the field mask
_ARRAY_CUTOFF = 256        # term pairs of an array product, and terms of
                           # an array-resident polynomial
_INT64 = 1 << 63
_BLOCK_PAIRS = 1 << 16     # term pairs per block of the array product, and
                           # monomial values per block of the float evaluation


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


def _int_coeff(c) -> int:
    if isinstance(c, bool) or not isinstance(c, int):
        raise InputError(f"coefficient {c!r} is not an int")
    return c


def _exact_scalar(c):
    if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
        raise InputError(f"scalar {c!r} is not an exact rational")
    return c


def _check_nvars(nvars) -> None:
    if isinstance(nvars, bool) or not isinstance(nvars, int) or not 0 <= nvars <= _MAX_VARS:
        raise InputError(f"nvars must be an integer in [0, {_MAX_VARS}], got {nvars!r}")


# ---------------------------------------------------------------------------
# Packed monomials


def _pack(exps) -> int:
    key = sum(exps)
    for e in exps:
        key = (key << _BITS) | e
    return key


def _unpacker(nvars: int):
    """Packed monomial -> exponent tuple."""
    shifts = [_BITS * (nvars - 1 - i) for i in range(nvars)]
    return lambda key: tuple([(key >> s) & _MAX_DEGREE for s in shifts])


def _budget_error(budget: int, accumulated: int, left_terms: int,
                  right_terms: int):
    return ResourceBudgetError(
        f"term budget {budget} exceeded during multiplication",
        partial={"accumulated_terms": accumulated, "budget": budget,
                 "left_terms": left_terms, "right_terms": right_terms})


# ---------------------------------------------------------------------------
# The array form: ascending int64 packed keys and their coefficients


def _max_abs(coeffs) -> int:
    return int(abs(coeffs).max())


def _merge(keys: list, coeffs: list):
    """One sorted key array with the coefficients of equal keys summed, from
    lists of key and coefficient arrays; zero sums are kept.  The stable
    sort merges the ascending runs it is given rather than sorting them."""
    import numpy as np

    k, c = np.concatenate(keys), np.concatenate(coeffs)
    order = k.argsort(kind="stable")
    k = k[order]
    first = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    return k[first], np.add.reduceat(c[order], first)


def _array_sum(ak, ac, bk, bc):
    """The nonzero terms of a + b from two array forms: int64 when max|a| + max|b| < 2^63 bounds every sum, objects otherwise."""
    if (ac.dtype != object and bc.dtype != object
            and _max_abs(ac) + _max_abs(bc) >= _INT64):
        ac, bc = ac.astype(object), bc.astype(object)
    keys, coeffs = _merge([ak, bk], [ac, bc])
    nonzero = coeffs != 0
    return keys[nonzero], coeffs[nonzero]


def _array_product(lk, lc, rk, rc, budget: int, sizes: tuple):
    """The nonzero terms of left * right from two array forms, by the
    blocked product of the module docstring.  The longer operand is the right
    one, so each row of a block is one long ascending run.  Blocks are held
    unmerged until they outnumber the merged terms, so a product whose pairs
    hardly share monomials is merged O(log) times, not once per block.  The
    budget counts every distinct monomial formed, zero sums included, as the
    dict loop does: whenever the merged and held terms together could exceed
    it, they are merged and counted."""
    import numpy as np

    if len(lk) > len(rk):
        lk, lc, rk, rc = rk, rc, lk, lc
    if lc.dtype != object and rc.dtype != object and (
            _max_abs(lc) * _max_abs(rc) * len(lk) >= _INT64):
        lc, rc = lc.astype(object), rc.astype(object)
    keys, coeffs = lk[:0], np.multiply(lc[:0], rc[:0])
    held_keys, held_coeffs, held = [], [], 0
    rows = max(1, _BLOCK_PAIRS // len(rk))
    for i in range(0, len(lk), rows):
        held_keys.append(np.add.outer(lk[i:i + rows], rk).ravel())
        held_coeffs.append(np.multiply.outer(lc[i:i + rows], rc).ravel())
        held += len(held_keys[-1])
        if held >= len(keys) or len(keys) + held > budget or i + rows >= len(lk):
            keys, coeffs = _merge([keys, *held_keys], [coeffs, *held_coeffs])
            held_keys, held_coeffs, held = [], [], 0
            if len(keys) > budget:
                raise _budget_error(budget, len(keys), *sizes)
    nonzero = coeffs != 0
    return keys[nonzero], coeffs[nonzero]


def _exponents(keys, nvars: int) -> list:
    """The exponent arrays e_1, ..., e_n of an int64 array of packed
    monomials."""
    return [(keys >> (_BITS * (nvars - 1 - i))) & _MAX_DEGREE for i in range(nvars)]


class _TermArrays:
    """The array form of a polynomial's packed terms: ascending distinct
    int64 keys and their nonzero int coefficients (int64 or objects)."""

    __slots__ = ("keys", "coeffs")

    def __init__(self, keys, coeffs):
        self.keys, self.coeffs = keys, coeffs

    def __len__(self) -> int:
        return len(self.keys)

    def as_dict(self) -> dict:
        return dict(zip(self.keys.tolist(), self.coeffs.tolist()))


class MultiPoly:
    """Immutable sparse polynomial with int coefficients."""

    # _terms: the packed terms, a dict or (the array form) a _TermArrays
    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms):
        _check_nvars(nvars)
        clean = {}
        for exps, coeff in (terms.items() if isinstance(terms, dict) else terms):
            exps = tuple(exps)
            if len(exps) != nvars or any(not isinstance(e, int) or e < 0 for e in exps):
                raise InputError(f"exponent tuple {exps!r} invalid for {nvars} variables")
            if sum(exps) > _MAX_DEGREE:
                raise InputError(f"exponent tuple {exps!r} has total degree "
                                 f"above {_MAX_DEGREE}")
            coeff = _int_coeff(coeff)
            if coeff == 0:
                continue
            if exps in clean:
                coeff += clean[exps]
                if coeff == 0:
                    del clean[exps]
                    continue
            clean[exps] = coeff
        self._init(nvars, {_pack(e): c for e, c in clean.items()})

    def _init(self, nvars: int, terms) -> None:
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, nvars: int, terms) -> "MultiPoly":
        """Trusted constructor for engine-made terms: ``terms`` maps packed
        monomials of total degree at most ``_MAX_DEGREE`` to nonzero int
        coefficients, or is their array form; nothing is re-checked."""
        self = object.__new__(cls)
        self._init(nvars, terms)
        return self

    @classmethod
    def _from_arrays(cls, nvars: int, keys, coeffs) -> "MultiPoly":
        """Trusted constructor from engine-made arrays: ascending distinct
        int64 packed monomials of total degree at most ``_MAX_DEGREE`` and
        nonzero int coefficients, int64 or objects.  Fewer than
        ``_ARRAY_CUTOFF`` terms come back as a dict; object coefficients that
        all fit are stored as int64."""
        if len(keys) < _ARRAY_CUTOFF:
            return cls._make(nvars, dict(zip(keys.tolist(), coeffs.tolist())))
        if coeffs.dtype == object and _max_abs(coeffs) < _INT64:
            coeffs = coeffs.astype(keys.dtype)
        return cls._make(nvars, _TermArrays(keys, coeffs))

    def __setattr__(self, *a):
        raise AttributeError("MultiPoly is immutable")

    def _dict(self) -> dict:
        terms = self._terms
        return terms if type(terms) is dict else terms.as_dict()

    def _arrays(self):
        """(keys, coeffs) in the array form."""
        terms = self._terms
        if type(terms) is not dict:
            return terms.keys, terms.coeffs
        import numpy as np

        keys = np.fromiter(terms, np.int64, len(terms))
        coeffs = list(terms.values())
        coeffs = np.array(coeffs, np.int64 if max(map(abs, coeffs)) < _INT64 else object)
        order = keys.argsort()
        return keys[order], coeffs[order]

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        _check_nvars(nvars)
        return cls._make(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "MultiPoly":
        _check_nvars(nvars)
        c = _int_coeff(c)
        return cls._make(nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        """The variable x_i, 1-based index."""
        _check_nvars(nvars)
        if not (1 <= i <= nvars):
            raise InputError(f"variable index {i} outside [1,{nvars}]")
        return cls._make(nvars, {(1 << _BITS * nvars) | (1 << _BITS * (nvars - i)): 1})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, unpacked afresh on each access."""
        unpack = _unpacker(self.nvars)
        return {unpack(k): c for k, c in self._dict().items()}

    def __len__(self) -> int:
        """Number of nonzero terms."""
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        """Maximum total degree (-1 for the zero polynomial)."""
        terms = self._terms
        if type(terms) is _TermArrays:
            return int(terms.keys[-1]) >> (_BITS * self.nvars)
        if not terms:
            return -1
        return max(terms) >> (_BITS * self.nvars)

    def sorted_terms(self) -> list:
        """Terms as (exponents, coefficient), graded-lex ascending."""
        unpack = _unpacker(self.nvars)
        return [(unpack(k), c) for k, c in sorted(self._dict().items())]

    def leading_coefficient(self):
        """Coefficient of the graded-lex greatest term (0 for zero poly)."""
        terms = self._dict()
        return terms[max(terms)] if terms else 0

    def _first_negative(self, sign: int):
        """The graded-lex-first (exponents, sign * coeff) with
        sign * coeff < 0, or None: the smallest such packed key, the only
        one unpacked."""
        terms = self._terms
        if type(terms) is _TermArrays:
            bad = terms.coeffs < 0 if sign > 0 else terms.coeffs > 0
            i = int(bad.argmax())
            if not bad[i]:
                return None
            key, coeff = int(terms.keys[i]), int(terms.coeffs[i])
        else:
            key = min((k for k, c in terms.items() if sign * c < 0), default=None)
            if key is None:
                return None
            coeff = terms[key]
        return _unpacker(self.nvars)(key), sign * coeff

    def primitive(self):
        """(content, self/content): the int content, signed so the primitive
        part has positive leading coefficient and coprime coefficients."""
        terms = self._terms
        if not terms:
            return 0, self
        if type(terms) is _TermArrays:
            import numpy as np

            g = int(np.gcd.reduce(terms.coeffs))
            if terms.coeffs[-1] < 0:
                g = -g
            if g == 1:
                return 1, self
            return g, MultiPoly._from_arrays(self.nvars, terms.keys, terms.coeffs // g)
        g = gcd(*terms.values())
        if terms[max(terms)] < 0:
            g = -g
        if g == 1:
            return 1, self
        return g, MultiPoly._make(self.nvars, {k: c // g for k, c in terms.items()})

    def _scale(self, s: int) -> "MultiPoly":
        if s == 0:
            return MultiPoly.zero(self.nvars)
        if s == 1:
            return self
        terms = self._terms
        if type(terms) is _TermArrays:
            c = terms.coeffs
            if c.dtype != object and _max_abs(c) * abs(s) >= _INT64:
                c = c.astype(object)
            return MultiPoly._from_arrays(self.nvars, terms.keys, c * s)
        return MultiPoly._make(self.nvars, {k: c * s for k, c in terms.items()})

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise InputError(
                f"mixing polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        self._check_compat(other)
        nvars = self.nvars
        a, b = self._terms, other._terms
        if type(a) is not dict or type(b) is not dict:
            if not b:
                return self
            if not a:
                return other
            keys, coeffs = _array_sum(*self._arrays(), *other._arrays())
            return MultiPoly._from_arrays(nvars, keys, coeffs)
        acc = dict(a)
        get = acc.get
        for k, c in b.items():
            new = get(k, 0) + c
            if new:
                acc[k] = new
            else:
                del acc[k]
        return MultiPoly._make(nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return self._scale(-1)

    def __sub__(self, other):
        # coerce first: -True is the int -1, which would pass the check
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self._scale(_int_coeff(other))
        self._check_compat(other)
        nvars = self.nvars
        left, right = self._terms, other._terms
        if not left or not right:
            return MultiPoly.zero(nvars)
        # every exponent of the product is at most its total degree, so under
        # the cap no exponent sum carries into the neighbouring field
        degree = self.total_degree() + other.total_degree()
        if degree > _MAX_DEGREE:
            raise InputError(f"product of total degree {degree} exceeds "
                             f"{_MAX_DEGREE}")
        budget = get_term_budget()
        sizes = len(left), len(right)
        if sizes[0] * sizes[1] >= _ARRAY_CUTOFF:    # else both are dicts
            keys, coeffs = _array_product(*self._arrays(), *other._arrays(),
                                          budget, sizes)
            return MultiPoly._from_arrays(nvars, keys, coeffs)
        acc = {}
        get = acc.get
        right_items = list(right.items())
        for k1, c1 in left.items():
            for k2, c2 in right_items:
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
            if len(acc) > budget:
                raise _budget_error(budget, len(acc), *sizes)
        return MultiPoly._make(nvars, {k: c for k, c in acc.items() if c})

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
        """The exact value, a Fraction, at a point of int or Fraction
        coordinates (not bools), in one pass over the array form: with x_i = p_i/q_i and
        d_i the largest exponent of x_i, the value times prod q_i^d_i is
        sum c prod p_i^e_i q_i^(d_i-e_i), each factor looked up in a
        per-variable table of p_i^j q_i^(d_i-j) and multiplied into the
        coefficients as Python ints."""
        point = tuple(point)
        if len(point) != self.nvars:
            raise InputError(f"point has {len(point)} coordinates, need {self.nvars}")
        if not all(isinstance(x, (int, Fraction)) and not isinstance(x, bool)
                   for x in point):
            raise InputError(f"point {point!r} is not exact: coordinates must "
                             f"be ints or Fractions")
        if not self._terms:
            return Fraction(0)
        import numpy as np

        keys, coeffs = self._arrays()
        total, den = coeffs.astype(object), 1
        for x, e in zip(point, _exponents(keys, self.nvars)):
            x = Fraction(x)
            p, q, d = x.numerator, x.denominator, int(e.max())
            table = np.array([p ** j * q ** (d - j) for j in range(d + 1)], object)
            total = total * table[e]
            den *= q ** d
        return Fraction(int(total.sum()), den)

    def _float_signs(self, p, q):
        """The signs of this polynomial at the points x = p/q, proven in
        float64: p and q are int64 arrays of shape (npoints, nvars) with
        entries in [1, 2^53).  Returns an int8 array over the points, +1 or
        -1 where the float filter decides and 0 where it cannot.

        With x~ = fl(p/q), the power tables x~^e by repeated multiplication,
        each term fl(c) times its table entries, and S~, A~ the float sums of
        the terms and of their absolute values: a term of exponents e_i
        carries at most 1 + 2 sum(e_i) + n <= 2D + n + 1 roundings (fl(c);
        x~ e_i times and e_i - 1 table products per variable; n products
        into the term) and at most T - 1 more in any summation order.  By
        Higham's Lemma 3.1 (Accuracy and Stability of Numerical Algorithms,
        2002, section 3.3), with u = 2^-53, K = T + 2D + n + 2 and
        gamma_K = K u / (1 - K u),
            |S~ - S| <= gamma_K A   and   A~ >= (1 - gamma_K) A,
        where S is the exact value and A the exact sum of absolute term
        values, so |S~ - S| <= g A~ with g = gamma_K / (1 - gamma_K)
        = K u / (1 - 2 K u) (K u < 1/4 for any T a dict can hold).  The sign
        of S~ is taken only where |S~| > 2 fl(fl(g) A~): fl(g) and the
        product carry three roundings, or, if the product is subnormal, an
        absolute error below 2^-1075, far below g A~ >= 2^-1052, so
        2 fl(fl(g) A~) >= g A~ >= |S~ - S| and S is nonzero with the sign of
        S~.

        The model needs every rounded product in the normal range.  A point
        is filtered only when every coordinate lies in [2^-s, 2^s] with
        s D + log2 max|c| + log2 T < 1000 (logarithms rounded up).  Then
        every table entry, monomial, term and sum is below 2^1000 (1 + K u)
        in magnitude, every table entry, monomial and term is at least
        2^-1000 (1 - K u), and a sum with a subnormal result is exact.  Other
        points are left undecided and their tables are never formed."""
        import numpy as np

        signs = np.zeros(len(p), np.int8)
        n, T, D = self.nvars, len(self), self.total_degree()
        if not T:
            return signs
        keys, coeffs = self._arrays()
        x = p / q
        e = np.frexp(x)[1].astype(np.int64)    # 2^(e-1) <= x < 2^e
        s = np.maximum(e, 1 - e).max(axis=1, initial=0)
        size = _max_abs(coeffs).bit_length() + T.bit_length()
        rows = np.flatnonzero(s * D + size < 1000)
        if not len(rows):
            return signs
        x = x[rows]
        exps = _exponents(keys, n)
        tables = []
        for i, ei in enumerate(exps):
            table = np.ones((len(x), int(ei.max()) + 1))
            for d in range(1, table.shape[1]):
                table[:, d] = table[:, d - 1] * x[:, i]
            tables.append(table)
        coeffs = coeffs.astype(float)     # correctly rounded, as float(int)
        S, A = np.zeros(len(x)), np.zeros(len(x))
        step = max(1, _BLOCK_PAIRS // T)      # points per block
        width = _BLOCK_PAIRS // step          # terms per block
        for r in range(0, len(x), step):
            block = slice(r, r + step)
            for j in range(0, T, width):
                vals = np.tile(coeffs[j:j + width], (len(x[block]), 1))
                for table, ei in zip(tables, exps):
                    vals *= table[block, ei[j:j + width]]
                S[block] += vals.sum(axis=1)
                A[block] += np.abs(vals).sum(axis=1)
        K = T + 2 * D + n + 2
        g = K * 2.0 ** -53 / (1 - K * 2.0 ** -52)
        signs[rows] = np.where(np.abs(S) > 2 * (g * A), np.sign(S), 0)
        return signs

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, int) and not isinstance(other, bool):
                return self == MultiPoly.constant(self.nvars, other)
            return NotImplemented
        if self.nvars != other.nvars or len(self._terms) != len(other._terms):
            return False
        return self._dict() == other._dict()

    def __hash__(self):
        if self._hash is None:
            key = (self.nvars, frozenset(self._dict().items()))
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
        scalar = Fraction(_exact_scalar(scalar))
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
            return FactoredRational(self.scalar * _exact_scalar(other), self.num,
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

    def _coerce(self, other) -> "FactoredRational":
        """A summand as a FactoredRational: a polynomial through
        ``from_poly``, any other non-FactoredRational through the validating
        ``from_scalar``."""
        if isinstance(other, FactoredRational):
            return other
        if isinstance(other, MultiPoly):
            return FactoredRational.from_poly(other)
        return FactoredRational.from_scalar(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
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
        n1 = self.num if not lift_self else self.num * reduce(mul, lift_self)
        n2 = other.num if not lift_other else other.num * reduce(mul, lift_other)
        return FactoredRational(Fraction(1, b), c1 * n1 + c2 * n2, lcd)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def inverse(self) -> "FactoredRational":
        """1/self; the numerator becomes the single denominator factor."""
        if self.is_zero():
            raise InputError("cannot invert the zero rational function")
        return FactoredRational(1 / self.scalar, self.denominator_expanded(),
                                {self.num: 1})

    def __truediv__(self, other):
        if isinstance(other, MultiPoly):
            other = FactoredRational.from_poly(other)
        elif not isinstance(other, FactoredRational):
            return FactoredRational(self.scalar / _exact_scalar(other), self.num,
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

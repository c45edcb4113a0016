"""Exact sparse polynomial engine: ring laws, normalization, packing,
budgets."""

import contextlib
import contextvars
import math
import random
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinegram import (FactoredRational, InputError, MultiPoly,
                        ResourceBudgetError, term_budget)
from splinegram import multipoly
from splinegram.multipoly import _MAX_DEGREE, get_term_budget, poly_product
from splinegram.polycert import GapBasis, _nonneg_witness, build_inequality

NVARS = 3


def _poly(terms):
    return MultiPoly(NVARS, terms)


coeffs = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * NVARS)
polys = st.dictionaries(exponents, coeffs, max_size=6).map(_poly)
points = st.tuples(*(st.fractions(min_value=-3, max_value=3, max_denominator=5),) * NVARS)


# ---------------------------------------------------------------------------
# Ring laws and evaluation homomorphism


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(NVARS) == a
    assert a * MultiPoly.constant(NVARS, 1) == a
    assert a - a == MultiPoly.zero(NVARS)


@settings(max_examples=60, deadline=None)
@given(polys, polys, points)
def test_eval_homomorphism(a, b, pt):
    assert (a + b)(pt) == a(pt) + b(pt)
    assert (a * b)(pt) == a(pt) * b(pt)
    assert (a ** 3)(pt) == a(pt) ** 3


@settings(max_examples=40, deadline=None)
@given(polys)
def test_primitive_reconstruction(p):
    content, prim = p.primitive()
    assert prim._scale(content) == p
    if not p.is_zero():
        assert prim.leading_coefficient() > 0
        assert all(isinstance(cf, int) for cf in prim.terms.values())


# ---------------------------------------------------------------------------
# Packed monomials against a tuple-keyed reference
#
# Exponents are drawn near half and all of the field's top _MAX_DEGREE = 255
# as well as small, and each tuple is cut to total degree 255, so products
# reach the top of the field or raise.

TOP = _MAX_DEGREE


def ref_mul(a: dict, b: dict) -> dict:
    """Tuple-keyed schoolbook product, zero coefficients dropped."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def ref_eval(terms: dict, point) -> F:
    total = F(0)
    for exps, coeff in terms.items():
        term = F(coeff)
        for x, e in zip(point, exps):
            term *= F(x) ** e
        total += term
    return total


wide_exponent = st.one_of(st.integers(0, 3),
                          st.sampled_from([TOP // 2 - 1, TOP // 2, TOP // 2 + 1,
                                           TOP - 2, TOP - 1, TOP]))


def _capped(exps) -> tuple:
    """exps with each exponent cut to the degree the cap leaves it."""
    out, room = [], TOP
    for e in exps:
        out.append(min(e, room))
        room -= out[-1]
    return tuple(out)


@st.composite
def poly_pairs(draw):
    """Two tuple-keyed term dicts in a common nvars in 1..6."""
    nvars = draw(st.integers(1, 6))
    terms = st.dictionaries(st.tuples(*(wide_exponent,) * nvars).map(_capped),
                            coeffs, max_size=5)
    return nvars, draw(terms), draw(terms)


def _fits(pa, pb) -> bool:
    """Whether pa * pb stays within the degree cap."""
    return pa.total_degree() + pb.total_degree() <= TOP


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_packed_product_matches_reference(pair):
    nvars, a, b = pair
    pa, pb = MultiPoly(nvars, a), MultiPoly(nvars, b)
    if not _fits(pa, pb):
        with pytest.raises(InputError):
            pa * pb
        return
    expected = ref_mul(a, b)
    assert (pa * pb).terms == expected
    assert (pa * pb) == MultiPoly(nvars, expected)
    assert hash(pa * pb) == hash(MultiPoly(nvars, expected))


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_packed_sum_and_order_match_reference(pair):
    nvars, a, b = pair
    pa, pb = MultiPoly(nvars, a), MultiPoly(nvars, b)
    total = {e: c for e, c in a.items() if c}
    for e, c in b.items():
        total[e] = total.get(e, 0) + c
    total = {e: c for e, c in total.items() if c}
    assert (pa + pb).terms == total
    assert (pa - pa).is_zero() and (pa - pb) + pb == pa
    for p in (pa, pb, pa - pb, *([pa * pb] if _fits(pa, pb) else [])):
        terms = p.sorted_terms()
        assert terms == sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        assert p.total_degree() == max((sum(e) for e, _ in terms), default=-1)
        assert all(p.terms.get(e) == c for e, c in terms)


@settings(max_examples=60, deadline=None)
@given(poly_pairs(), st.lists(st.fractions(min_value=0, max_value=4,
                                           max_denominator=6),
                              min_size=6, max_size=6))
def test_packed_evaluation_matches_reference(pair, coords):
    nvars, a, b = pair
    point = tuple(coords[:nvars])
    for terms in (a, b):
        p = MultiPoly(nvars, terms)
        assert p(point) == ref_eval(terms, point)
        # the primitive part, as FactoredRational numerators use it
        _, prim = p.primitive()
        assert prim(point) == ref_eval(prim.terms, point)


def test_square_at_field_width_does_not_carry():
    half = TOP // 2                                 # 127
    x = MultiPoly(3, {(half, 0, 0): 1})
    y = MultiPoly(3, {(0, half, 0): 1, (0, 0, half): -1})
    assert (x * x).terms == {(2 * half, 0, 0): 1}
    assert (y * y).terms == {(0, 2 * half, 0): 1, (0, half, half): -2,
                             (0, 0, 2 * half): 1}
    assert (x * y).sorted_terms() == [((half, 0, half), -1), ((half, half, 0), 1)]
    # up to the top of the field: 255 in one exponent, and in the degree
    x1, x3 = MultiPoly.variable(3, 1), MultiPoly.variable(3, 3)
    assert (x * x * x1).terms == {(TOP, 0, 0): 1}
    assert (y * y * x3).sorted_terms() == [((0, 0, TOP), 1), ((0, half, half + 1), -2),
                                           ((0, 2 * half, 1), 1)]
    # cancelling the top-degree terms leaves a polynomial that equality and
    # hashing match with a freshly built one
    small = MultiPoly(3, {(1, 0, 0): 1})
    back = (x * x * x1 + small) - x * x * x1
    assert back == small and hash(back) == hash(small)


def test_total_degree_cap():
    x = MultiPoly.variable(2, 1)
    assert MultiPoly(2, {(200, 55): 3}).total_degree() == TOP
    assert (x ** 127 * x ** 128).terms == {(TOP, 0): 1}
    assert (x ** TOP + x).total_degree() == TOP       # sums never raise it
    with pytest.raises(InputError):
        MultiPoly(2, {(200, 56): 3})
    with pytest.raises(InputError):
        x ** (TOP + 1)
    # the cap is checked before any term pair is formed: two 300-term
    # operands of degree 163 raise InputError, not ResourceBudgetError
    p = MultiPoly(2, {(130 + i, j): i - j or 1 for i in range(20) for j in range(15)})
    assert len(p) == 300 and p.total_degree() == 163
    with term_budget(10):
        with pytest.raises(InputError):
            p * p


# ---------------------------------------------------------------------------
# Canonical order and inspection


def test_graded_lex_order():
    p = _poly({(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): -2, (0, 0, 0): 5})
    assert p.sorted_terms() == [
        ((0, 0, 0), 5), ((0, 0, 1), -2), ((0, 1, 0), -2), ((1, 0, 0), 1)]
    assert p.total_degree() == 1
    assert p.leading_coefficient() == 1
    # first negative coefficient in canonical order
    assert _nonneg_witness(p, 1) == ((0, 0, 1), -2)


def test_zero_polynomial_properties():
    z = MultiPoly.zero(NVARS)
    assert z.is_zero() and z.total_degree() == -1
    assert z.leading_coefficient() == 0
    assert z.primitive()[0] == 0
    assert z.sorted_terms() == [] and _nonneg_witness(z, 1) is None


def test_variables_and_constants():
    x1 = MultiPoly.variable(NVARS, 1)
    assert x1((F(2), F(0), F(0))) == 2
    assert MultiPoly.constant(NVARS, 4) == 2 * MultiPoly.constant(NVARS, 2) == 4
    with pytest.raises(InputError):
        MultiPoly.variable(NVARS, 4)
    with pytest.raises(InputError):
        MultiPoly(NVARS, {(0, 1): 1})
    with pytest.raises(InputError):
        MultiPoly(NVARS, {(0, -1, 0): 1})
    with pytest.raises(InputError):
        MultiPoly(NVARS, {(0, 0, 0): 0.5})


def test_immutability_and_hashing():
    p = _poly({(1, 0, 0): 1})
    q = _poly({(1, 0, 0): 1})
    with pytest.raises(AttributeError):
        p.terms = {}
    assert hash(p) == hash(q) and p == q
    table = {p: "a"}
    assert table[q] == "a"


def test_mixed_nvars_rejected():
    with pytest.raises(InputError):
        _poly({(1, 0, 0): 1}) + MultiPoly(2, {(1, 0): 1})


def test_poly_product():
    x1, x2 = (MultiPoly.variable(2, i) for i in (1, 2))
    assert poly_product([x1 + x2, x1 + x2]) == (x1 + x2) ** 2
    with pytest.raises(InputError):
        poly_product([])


# ---------------------------------------------------------------------------
# The blocked array product against the dict loop and evaluation
#
# Products of at least _ARRAY_CUTOFF term pairs run as numpy arrays.  Each is compared with the tuple-keyed schoolbook product,
# with the same product forced through the dict loop, and with p(x) q(x) at
# a rational point.


@contextmanager
def _dict_loop_only():
    """Every product and sum in the dict loop: with an infinite cutoff no
    array product runs and no polynomial is array-resident."""
    saved = multipoly._ARRAY_CUTOFF
    multipoly._ARRAY_CUTOFF = float("inf")
    try:
        yield
    finally:
        multipoly._ARRAY_CUTOFF = saved


def _check_array_product(nvars, a, b, point):
    p, q = MultiPoly(nvars, a), MultiPoly(nvars, b)
    assert len(p) * len(q) >= multipoly._ARRAY_CUTOFF
    product = p * q
    with _dict_loop_only():
        by_dict = p * q
    expected = ref_mul(a, b)
    assert product == by_dict == MultiPoly(nvars, expected)
    assert product.terms == expected and hash(product) == hash(by_dict)
    assert all(type(c) is int for c in product.terms.values())
    assert product(point) == p(point) * q(point)
    return product


big_ints = st.integers(2 ** 62, 2 ** 70).flatmap(
    lambda c: st.sampled_from([c, -c]))
array_coeffs = {
    "int64": st.integers(-1000, 1000),
    "object_int": st.one_of(big_ints, st.integers(-3, 3)),
}


@st.composite
def array_pairs(draw, coeffs):
    """Two term dicts of 16..40 terms each in nvars in 2..4."""
    nvars = draw(st.integers(2, 4))
    terms = st.dictionaries(st.tuples(*(st.integers(0, 9),) * nvars),
                            coeffs.filter(bool), min_size=16, max_size=40)
    point = draw(st.tuples(*(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=7),) * nvars))
    return nvars, draw(terms), draw(terms), point


@pytest.mark.parametrize("kind", sorted(array_coeffs))
def test_array_product_matches_dict_loop(kind):
    @settings(max_examples=25, deadline=None)
    @given(array_pairs(array_coeffs[kind]))
    def check(case):
        _check_array_product(*case)

    check()


def test_array_product_coefficients_at_the_int64_bound():
    # dense univariate operands of 32 terms: the middle coefficient sums 32
    # products, 32 (2^29)^2 = 2^63, one past int64; 2^29 - 1 stays below
    rng = random.Random(5)
    for c in (2 ** 29 - 1, 2 ** 29, -(2 ** 29)):
        a = {(i,): c for i in range(32)}
        b = {(i,): c if rng.random() < 0.9 else -c for i in range(32)}
        _check_array_product(1, a, b, (F(-2, 3),))
        _check_array_product(1, a, a, (F(5, 4),))


def test_array_product_with_mixed_int_and_fraction_coefficients():
    # a Fraction coefficient among ints is refused; with its denominators
    # cleared into ints, the product mixes int64 and object-int coefficients
    rng = random.Random(6)
    a = {(i, j): F(rng.randint(-9, 9), rng.randint(1, 4))
         for i in range(5) for j in range(5)}
    b = {(i, j): rng.randint(-2 ** 40, 2 ** 40) for i in range(4) for j in range(6)}
    with pytest.raises(InputError):
        MultiPoly(2, {**b, **a})
    q = MultiPoly(2, b)
    for c in a.values():
        with pytest.raises(InputError):
            q * c
    den = math.lcm(*(c.denominator for c in a.values()))
    cleared = {e: int(c * den) for e, c in a.items() if c}
    point = (F(1, 2), F(-3, 5))
    product = _check_array_product(2, cleared, b, point)
    assert product(point) == den * ref_eval(a, point) * ref_eval(b, point)


def test_array_product_cancellation():
    # (sum_{i+j=15} x^i y^j) (x - y) h = (x^16 - y^16) h: 512 term pairs
    # whose sums cancel to 2 len(h) terms, no zero coefficient kept
    x, y = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    f = MultiPoly(2, {(i, 15 - i): 1 for i in range(16)})
    h = MultiPoly(2, {(i, 2 * i % 7): i + 1 for i in range(16)})
    g = (x - y) * h
    product = _check_array_product(2, f.terms, g.terms, (F(2), F(3)))
    assert product == (x ** 16 - y ** 16) * h and len(product) == 2 * len(h)
    assert 0 not in product.terms.values()


def test_array_product_keys_beyond_int64():
    # six 8-bit exponent fields under the degree field keep every packed key
    # below 2^56: products in six variables up to the degree cap run on
    # int64 keys, the degree in the top field, and agree with the dict loop
    import numpy as np

    rng = random.Random(7)
    for top in (127, 128, TOP):
        def terms():
            out = {(top // 2,) + (0,) * 5: 1}
            while len(out) < 40:
                e = [rng.randint(0, 2) for _ in range(6)]
                out[tuple(e)] = rng.randint(-50, 50) or 1
            return out
        a, b = terms(), terms()
        a[(0,) * 5 + (top - top // 2,)] = 3
        point = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6))
        product = _check_array_product(6, a, b, point)
        keys = _array_form(product).keys
        assert keys.dtype == np.int64 and int(keys[-1]) >> 48 == top
        assert product.total_degree() == top


@pytest.mark.parametrize("rows, cols, array_path", [(15, 17, False), (16, 16, True)])
def test_products_either_side_of_the_cutoff(monkeypatch, rows, cols, array_path):
    assert (rows * cols >= multipoly._ARRAY_CUTOFF) == array_path
    calls = []
    array_product = multipoly._array_product

    def spy(lk, lc, rk, rc, budget, sizes):
        calls.append(len(lk) * len(rk))
        return array_product(lk, lc, rk, rc, budget, sizes)

    monkeypatch.setattr(multipoly, "_array_product", spy)
    rng = random.Random(rows)
    a = {(i, 0): rng.randint(-9, 9) or 1 for i in range(rows)}
    b = {(i % 5, i): rng.randint(-9, 9) or 1 for i in range(cols)}
    p, q = MultiPoly(2, a), MultiPoly(2, b)
    product, point = p * q, (F(-5, 3), F(2, 7))
    assert calls == ([rows * cols] if array_path else [])
    assert product == MultiPoly(2, ref_mul(a, b))
    assert product(point) == p(point) * q(point)


# ---------------------------------------------------------------------------
# The array form against the dict route
#
# A polynomial with at least _ARRAY_CUTOFF terms is array-resident.  Each operation on such operands is compared with the same
# operation on the same polynomials rebuilt as dicts, every product and sum
# in the dict loop: term for term, by == both ways and by hash.


def _array_form(p):
    """p's packed terms when it is array-resident, else None."""
    return p._terms if isinstance(p._terms, multipoly._TermArrays) else None


def _as_dict(p):
    """The same polynomial through the public constructor, dict-resident."""
    q = MultiPoly(p.nvars, p.terms)
    assert _array_form(q) is None
    return q


def _resident(p):
    """p, array-resident when its form allows (a product by the constant
    1 of at least _ARRAY_CUTOFF pairs runs as arrays)."""
    return p * MultiPoly.constant(p.nvars, 1)


def _check_array_form(p):
    import numpy as np

    keys, coeffs = p._terms.keys, p._terms.coeffs
    assert keys.dtype == np.int64 and (keys[1:] > keys[:-1]).all()
    fits = max(map(abs, coeffs.tolist())) < 2 ** 63
    assert coeffs.dtype == (np.int64 if fits else object)
    assert (coeffs != 0).all() and len(coeffs) == len(keys) >= multipoly._ARRAY_CUTOFF
    assert p.total_degree() <= TOP


def _assert_same(got, ref):
    assert _array_form(ref) is None
    assert got == ref and ref == got and hash(got) == hash(ref)
    assert got.terms == ref.terms
    assert got.sorted_terms() == ref.sorted_terms()
    assert all(type(c) is int for c in got.terms.values())
    if _array_form(got) is not None:    # never below the cutoff
        _check_array_form(got)


def _both_routes(op, *operands):
    """op on the operands as given, and on dict copies in the dict loop."""
    got = op(*operands)
    with _dict_loop_only():
        ref = op(*map(_as_dict, operands))
    if isinstance(got, tuple):        # primitive: (content, part)
        assert got[0] == ref[0] and type(got[0]) is type(ref[0])
        _assert_same(got[1], ref[1])
    else:
        _assert_same(got, ref)
    return got


_OPS = {
    "product": lambda a, b: a * b,
    "sum": lambda a, b: a + b,
    "difference": lambda a, b: a - b,
    "reverse difference": lambda a, b: b - a,
    "negation": lambda a, b: -a,
    "scale 3": lambda a, b: 3 * a,
    "scale -1": lambda a, b: a * -1,
    "scale 2^62": lambda a, b: a * 2 ** 62,
    "scale -2^63": lambda a, b: -(2 ** 63) * a,
    "primitive": lambda a, b: a.primitive(),
    "primitive of a multiple": lambda a, b: (-6 * a).primitive(),
    "cancellation": lambda a, b: (a + b) - b,
}

_EDGE = [2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63), 1, -1, 3]
_COEFFS = {
    "small": lambda rng: rng.randint(-1000, 1000) or 1,
    "int64 edge": lambda rng: rng.choice(_EDGE),
    "beyond int64": lambda rng: rng.choice([-1, 1]) * rng.randint(2 ** 63, 2 ** 70),
}


def _random_poly(rng, nvars, count, top, coeff):
    terms = {}
    while len(terms) < count:
        terms[tuple(rng.randint(0, top) for _ in range(nvars))] = coeff(rng)
    return MultiPoly(nvars, terms)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(2, 4),
       st.sampled_from(sorted(_COEFFS)), st.sampled_from(sorted(_COEFFS)),
       st.sampled_from([40, 255, 256, 300]), st.sampled_from([1, 12, 256, 300]))
def test_array_form_matches_dict_route(seed, nvars, kind_a, kind_b, size_a, size_b):
    rng = random.Random(seed)
    top = 30 if nvars == 2 else 9
    a = _resident(_random_poly(rng, nvars, size_a, top, _COEFFS[kind_a]))
    b = _resident(_random_poly(rng, nvars, size_b, top, _COEFFS[kind_b]))
    assert (_array_form(a) is not None) == (size_a >= multipoly._ARRAY_CUTOFF)
    for op in _OPS.values():
        _both_routes(op, a, b)
    assert _both_routes(lambda a, b: a - b, a, a).is_zero()


def test_array_form_sums_and_products_leaving_int64():
    # all coefficients +-2^62, 2^63 - 1 or -2^63: sums and products leave
    # int64 and run on objects; their results come back as int64 when the
    # values fit again
    x = [MultiPoly.variable(3, i) for i in (1, 2, 3)]
    base = (1 + x[0] + x[1] + x[2]) ** 12           # 455 terms
    assert _array_form(base) is not None
    for c in (2 ** 62, -(2 ** 62), 2 ** 63 - 1, -(2 ** 63)):
        a = _resident(MultiPoly(3, {e: c for e in base.terms}))
        b = _resident(MultiPoly(3, {e: -c if e[0] == 1 else c for e in base.terms}))
        assert _array_form(a) is not None
        assert _array_form(a).coeffs.dtype == (object if c == -(2 ** 63) else "int64")
        double = _both_routes(lambda a, b: a + b, a, b)    # 2c, 377 terms
        assert len(double) < len(a) and _array_form(double).coeffs.dtype == object
        back = _both_routes(lambda a, b: a - b, double, a)  # c and -c again
        assert _array_form(back).coeffs.dtype == (object if c == -(2 ** 63) else "int64")
        _both_routes(lambda a, b: a * b, a, b)
        _both_routes(lambda a, b: -a, a, b)
        _both_routes(lambda a, b: 2 * a, a, b)
        content, part = _both_routes(lambda a, b: a.primitive(), a, b)
        assert content == c and part.terms == dict.fromkeys(base.terms, 1)


def test_array_form_cancellation_and_width():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    low = _resident(MultiPoly(2, {(i, j): i - j or 7 for i in range(20) for j in range(20)}))
    top = 5 * x1 ** 200 * x2 ** 17                 # degree 217 = 255 - 38
    assert _array_form(low) is not None and low.total_degree() == 38
    high = _both_routes(lambda a, b: a + b, low, top)
    assert _array_form(high) is not None and high.total_degree() == 217
    # a degree drop back to low's, and a product at the cap
    dropped = _both_routes(lambda a, b: a - b, high, top)
    assert _array_form(dropped) is not None and dropped == low
    assert dropped.total_degree() == 38
    assert _both_routes(lambda a, b: a * b, high, low).total_degree() == TOP
    with pytest.raises(InputError):
        high * high
    assert _both_routes(lambda a, b: a - b, high, high + 0).is_zero()
    # cancellation below the cutoff comes back as a dict
    small = _both_routes(lambda a, b: a - b, high, low)
    assert _array_form(small) is None and small == top
    assert _both_routes(lambda a, b: a - b, low, low).is_zero()


def test_non_int_coefficients_and_inexact_points_are_rejected():
    # coefficients are ints only, an integral Fraction included; rational
    # content belongs in a FactoredRational's scalar
    rng = random.Random(3)
    a = _resident(_random_poly(rng, 3, 300, 9, lambda r: r.randint(-9, 9) or 1))
    small = MultiPoly(3, {(1, 0, 0): 1, (0, 0, 2): -3})
    assert _array_form(a) is not None and _array_form(small) is None
    for bad in (F(1, 3), F(1, 2), F(4, 2), 0.5, 2.0, True):
        calls = [lambda: MultiPoly(3, {(0, 1, 0): bad}),
                 lambda: MultiPoly(3, [((0, 1, 0), 1), ((0, 1, 0), bad)]),
                 lambda: MultiPoly.constant(3, bad)]
        for p in (a, small):
            calls += [lambda p=p: p * bad, lambda p=p: bad * p,
                      lambda p=p: p + bad, lambda p=p: bad + p,
                      lambda p=p: p - bad, lambda p=p: bad - p]
        for call in calls:
            with pytest.raises(InputError):
                call()
    # evaluation takes int or Fraction coordinates only
    assert small((F(1, 2), 3, F(2))) == F(1, 2) - 12
    for point in ((0.5, 0, 0), (F(1, 2), 1.0, 0), (1, 2, float("nan"))):
        for p in (a, small, MultiPoly.zero(3)):
            with pytest.raises(InputError):
                p(point)


def test_array_form_keys_beyond_int64():
    # the variable cap keeps packed keys within int64: 7 and 8 variables,
    # whose keys at the degree cap would not fit, are refused by every
    # constructor, and so by GapBasis
    for nvars in (7, 8):
        calls = [lambda: MultiPoly(nvars, {}),
                 lambda: MultiPoly(nvars, {(1,) * nvars: 1}),
                 lambda: MultiPoly.zero(nvars),
                 lambda: MultiPoly.constant(nvars, 1),
                 lambda: MultiPoly.variable(nvars, 1),
                 lambda: GapBasis(nvars)]
        for call in calls:
            with pytest.raises(InputError, match=f"got {nvars}"):
                call()
    assert multipoly._MAX_VARS == 6
    assert MultiPoly.variable(6, 6) ** TOP == MultiPoly(6, {(0,) * 5 + (TOP,): 1})
    assert GapBasis(6).nvars == 6


def test_bool_nvars_rejected():
    for call in (lambda: MultiPoly(True, {}), lambda: MultiPoly(False, {}),
                 lambda: MultiPoly.zero(True), lambda: MultiPoly.constant(True, 1),
                 lambda: MultiPoly.variable(True, 1), lambda: GapBasis(True)):
        with pytest.raises(InputError, match="got (True|False)"):
            call()


def test_equality_with_bool_is_false():
    # == never raises: a bool, like a float, is not a polynomial's coefficient
    for p in (MultiPoly.constant(2, 1), MultiPoly.zero(2), MultiPoly.variable(2, 1)):
        for other in (True, False, 1.0, 0.0):
            assert (p == other) is False and (other == p) is False
            assert (p != other) is True
    assert MultiPoly.constant(2, 1) == 1 and MultiPoly.zero(2) == 0


def test_factored_sum_matches_factors_of_both_forms():
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    f = (1 + 2 * x1 + x2 + 3 * x3) ** 10
    f_dict = _as_dict(f)
    assert _array_form(f) is not None and f == f_dict and hash(f) == hash(f_dict)
    total = (FactoredRational(1, x1, {f: 1}) + FactoredRational(F(1, 2), x2, {f_dict: 1})
             + FactoredRational(3, x3, {f_dict: 2}))
    assert list(total.den_factors.values()) == [2]
    ref = (FactoredRational(1, x1, {f_dict: 1}) + FactoredRational(F(1, 2), x2, {f_dict: 1})
           + FactoredRational(3, x3, {f_dict: 2}))
    assert total.scalar == ref.scalar and total.num == ref.num
    assert list(total.den_factors) == list(ref.den_factors) == [f]
    assert total.denominator_expanded() == f ** 2
    assert repr(total) == repr(ref)


# ---------------------------------------------------------------------------
# Term budget


def test_budget_exceeded_and_restored():
    default = get_term_budget()
    x1, x2, x3 = (MultiPoly.variable(NVARS, i) for i in (1, 2, 3))
    dense = (1 + x1 + x2 + x3) ** 4
    with term_budget(10):
        with pytest.raises(ResourceBudgetError) as err:
            dense * dense
        assert err.value.partial["budget"] == 10
        assert err.value.partial["accumulated_terms"] > 10
    assert get_term_budget() == default


def test_budget_validation():
    with pytest.raises(InputError):
        with term_budget(0):
            pass
    with pytest.raises(InputError):
        with term_budget(-1):
            pass


def test_budget_is_context_local():
    default = get_term_budget()

    def inner():
        with term_budget(7):
            return get_term_budget(), contextvars.copy_context()

    ctx = contextvars.copy_context()
    inside, snapshot = ctx.run(inner)
    assert inside == 7 and snapshot.run(get_term_budget) == 7
    assert ctx.run(get_term_budget) == default
    assert get_term_budget() == default
    x1 = MultiPoly.variable(2, 1)
    dense = (1 + x1 + MultiPoly.variable(2, 2)) ** 3
    assert len(dense * dense) > 7      # the other context's cap is not ours


def test_budget_stops_a_large_product_after_one_block():
    # 1000 x 1000 distinct monomials of degree at most 62 in 4 variables:
    # 10^6 term pairs, which the array product would hold in 8 MB per int64
    # array; the budget of 1000 trips after the first block, before any
    # array of 10^6 elements exists
    import numpy  # noqa: F401  (imported before tracing starts)
    low = [divmod(i, 32) for i in range(1000)]
    p = MultiPoly(4, {(a, b, 0, 0): (32 * a + b) % 7 + 1 for a, b in low})
    q = MultiPoly(4, {(0, 0, a, b): (32 * a + b) % 5 + 1 for a, b in low})
    tracemalloc.start()
    try:
        with term_budget(1000):
            with pytest.raises(ResourceBudgetError) as err:
                p * q
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    partial = err.value.partial
    assert 1000 < partial["accumulated_terms"] <= multipoly._BLOCK_PAIRS
    assert (partial["left_terms"], partial["right_terms"]) == (1000, 1000)
    assert peak < 8 * 10 ** 6


@pytest.mark.parametrize("sparse", [True, False])
def test_array_product_holds_blocks_and_keeps_the_budget(monkeypatch, sparse):
    # blocks of 64 pairs: a product whose pairs all form new monomials holds
    # blocks unmerged, one that accumulates merges after each; both give the
    # dict loop's terms and, like the dict loop, exceed the budget exactly
    # when the distinct monomials formed (zero sums included) exceed it
    monkeypatch.setattr(multipoly, "_BLOCK_PAIRS", 64)
    rng = random.Random(8)
    if sparse:
        p = MultiPoly(2, {(i, 0): rng.randint(1, 9) for i in range(40)})
        q = MultiPoly(2, {(0, j): rng.randint(-9, 9) or 1 for j in range(30)})
    else:
        p = q = MultiPoly(2, {(i, j): rng.randint(-9, 9) or 1
                              for i in range(6) for j in range(6)})
    formed = len({(a[0] + b[0], a[1] + b[1]) for a in p.terms for b in q.terms})
    with _dict_loop_only():
        expected = p * q
    assert p * q == expected and (formed == len(p) * len(q)) == sparse
    for route in (contextlib.nullcontext, _dict_loop_only):
        with route(), term_budget(formed):
            assert p * q == expected
        with route(), term_budget(formed - 1):
            with pytest.raises(ResourceBudgetError) as err:
                p * q
        assert err.value.partial["accumulated_terms"] > formed - 1


def test_budget_restored_after_exception():
    default = get_term_budget()
    with pytest.raises(RuntimeError):
        with term_budget(3):
            assert get_term_budget() == 3
            raise RuntimeError("boom")
    assert get_term_budget() == default


# ---------------------------------------------------------------------------
# Float sign filter


def _float_signs(poly, points):
    import numpy as np

    pq = np.array([[(x.numerator, x.denominator) for x in pt] for pt in points],
                  np.int64).reshape(len(points), poly.nvars, 2)
    return poly._float_signs(pq[..., 0], pq[..., 1]).tolist()


def _exact_sign(poly, point):
    v = poly(point)
    return (v > 0) - (v < 0)


@st.composite
def signed_polys(draw):
    """(poly, points): integer coefficients up to 10^20 in 0..3 variables,
    coordinates p/q up to 60/1 or up to 2^53 - 1 in p and q, and in half the
    cases a factor q0 x1 - p0 that vanishes at the first point."""
    nvars = draw(st.integers(0, 3))
    big = st.integers(-10 ** 20, 10 ** 20)
    terms = draw(st.dictionaries(st.tuples(*(st.integers(0, 6),) * nvars), big,
                                 max_size=8))
    side = st.one_of(st.integers(1, 60), st.integers(1, 2 ** 53 - 1))
    coord = st.builds(F, side, side)
    points = draw(st.lists(st.tuples(*(coord,) * nvars), min_size=1, max_size=6))
    poly = MultiPoly(nvars, terms)
    if nvars and draw(st.booleans()):
        x0 = points[0][0]
        poly = poly * (x0.denominator * MultiPoly.variable(nvars, 1) - x0.numerator)
    return poly, points


@settings(max_examples=200, deadline=None)
@given(signed_polys())
def test_float_signs_are_proven(case):
    poly, points = case
    for sign, point in zip(_float_signs(poly, points), points):
        assert sign in (-1, 0, 1)
        if sign:
            assert sign == _exact_sign(poly, point), (poly, point)


def test_float_signs_abstain_at_rounded_zeros():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    # zero at x2 = 3 x1, where fl(1/7) and fl(3/7) leave a nonzero float sum
    poly = (3 * x1 - x2) ** 6 * (x1 + x2) - (3 * x1 - x2) ** 7
    points = [(F(1, 7), F(3, 7)), (F(5, 11), F(15, 11)), (F(1, 3), F(2, 3))]
    assert [_exact_sign(poly, pt) for pt in points] == [0, 0, 1]
    assert _float_signs(poly, points) == [0, 0, 1]
    # q^32 x^32 - p^32 at x = p/q: the rounding of fl(p/q), raised to the
    # 32nd power, leaves |S~| at 7-8.5 u A~, beyond any margin not scaled by K
    y = MultiPoly.variable(1, 1)
    for p, q in ((1, 3), (1, 7), (7, 13)):
        assert _float_signs(q ** 32 * y ** 32 - p ** 32, [(F(p, q),)]) == [0]


def test_float_signs_decide_certificate_numerators():
    rng = random.Random(11)
    for name in ("psi_a", "phi_step"):
        num = build_inequality(name).num
        points = [tuple(F(rng.randint(1, 60), rng.randint(1, 60))
                        for _ in range(num.nvars)) for _ in range(20)]
        assert _float_signs(num, points) == [1] * 20


def test_float_signs_range_guard():
    x1 = MultiPoly.variable(1, 1)
    points = [(F(1, 60),), (F(60),), (F(1),), (F(3, 2),)]
    # 2^-6 < 1/60 and 60 < 2^6: s = 6, and 6 * 255 exceeds the range;
    # 1 and 3/2 lie in [2^-1, 2^1], and 255 + 9 does not
    assert _float_signs(x1 ** 255 + 1, points) == [0, 0, 1, 1]
    assert _float_signs(x1 ** 255 - 2 * x1, points) == [0, 0, -1, 1]
    # coefficients beyond the float range are never filtered; x1 - 1/2,
    # cleared to ints, is filtered at every point in range
    assert _float_signs(x1 + 3 ** 700, points) == [0] * 4
    assert _float_signs(2 * x1 - 1, points) == [-1, 1, 1, 1]
    assert _float_signs(MultiPoly.zero(1), points) == [0] * 4
    assert _float_signs(MultiPoly.constant(0, -5), [()] * 2) == [-1, -1]


def test_float_signs_in_blocks(monkeypatch):
    """Blocks of one point and of fewer terms than the polynomial has."""
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    poly = (x1 - 2 * x2 + 1) ** 5 * (x1 + x2)
    rng = random.Random(4)
    points = [(F(rng.randint(1, 60), rng.randint(1, 60)),
               F(rng.randint(1, 60), rng.randint(1, 60))) for _ in range(9)]
    expected = [_exact_sign(poly, pt) for pt in points]
    assert _float_signs(poly, points) == expected
    monkeypatch.setattr(multipoly, "_BLOCK_PAIRS", 5)
    assert len(poly) > 5
    assert _float_signs(poly, points) == expected


# ---------------------------------------------------------------------------
# FactoredRational


def test_factored_addition_lcd():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    f1, f2 = x1 + x2, x1 + 2 * x2
    a = FactoredRational(F(1, 3), x1, {f1: 1})
    b = FactoredRational(F(1, 5), x2, {f2: 2})
    s = a + b
    assert s.den_factors == {f1: 1, f2: 2}
    pt = (F(2), F(7))
    assert s(pt) == a(pt) + b(pt)


def test_factored_content_extraction():
    x1 = MultiPoly.variable(1, 1)
    fr = FactoredRational(1, 3 * x1, {(2 * x1): 1})
    assert fr.scalar == F(3, 2)
    assert fr.num == x1 and fr.den_factors == {x1: 1}


def test_factored_inverse_division_expand():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    a = FactoredRational(F(2), x1 + x2, {x1: 1, (x1 + 2 * x2): 2})
    pt = (F(3), F(5))
    assert a.inverse()(pt) == 1 / a(pt)
    assert (a / a)(pt) == 1
    with pytest.raises(InputError):
        FactoredRational.from_scalar(2, 0).inverse()


def test_factored_zero_collapse_and_scalars():
    x1 = MultiPoly.variable(1, 1)
    z = FactoredRational(F(5), MultiPoly.zero(1), {x1: 2})
    assert z.is_zero() and z.den_factors == {}
    assert (z + FactoredRational.from_poly(x1))((F(4),)) == 4
    s = FactoredRational.from_scalar(1, F(3, 7))
    assert (s * 7)((F(1),)) == 3
    assert (2 - s)((F(9),)) == F(11, 7)
    with pytest.raises(InputError):
        FactoredRational(1, x1, {MultiPoly.zero(1): 1})
    with pytest.raises(InputError):
        FactoredRational(1, x1, {x1: 0})


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/2"])
def test_factored_scalars_must_be_exact(bad):
    x1 = MultiPoly.variable(1, 1)
    fr = FactoredRational(F(1, 3), x1, {(x1 + 1): 1})
    entry_points = [
        lambda: FactoredRational(bad, x1),
        lambda: FactoredRational.from_scalar(1, bad),
        lambda: fr * bad, lambda: bad * fr,
        lambda: fr + bad, lambda: bad + fr,
        lambda: fr - bad, lambda: bad - fr,
        lambda: fr / bad,
    ]
    for call in entry_points:
        with pytest.raises(InputError):
            call()


def test_factored_exact_scalars_still_accepted():
    x1 = MultiPoly.variable(1, 1)
    fr = FactoredRational(F(4, 2), x1)
    assert fr.scalar == 2 and (fr * F(1, 2)).scalar == 1
    assert (fr / 4).scalar == F(1, 2) and (fr + 1)((F(3),)) == 7


def test_factored_denominator_expansion_order_independent():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    a = FactoredRational(1, x1, {(x1 + x2): 1, (x1 + 2 * x2): 1})
    b = FactoredRational(1, x1, {(x1 + 2 * x2): 1, (x1 + x2): 1})
    assert a.denominator_expanded() == b.denominator_expanded()

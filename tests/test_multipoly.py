"""Exact sparse polynomial engine: ring laws, normalization, packing,
budgets."""

import contextvars
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinegram import (FactoredRational, InputError, MultiPoly,
                        ResourceBudgetError, term_budget)
from splinegram.multipoly import _MIN_BITS, get_term_budget, poly_product
from splinegram.polycert import _nonneg_witness

NVARS = 3


def _poly(terms):
    return MultiPoly(NVARS, terms)


coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.fractions(min_value=-5, max_value=5, max_denominator=7))
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
# Exponents are drawn around the packing field width 2^_MIN_BITS as well as
# small, so products and sums cross it and widen the field.

WIDE = 1 << _MIN_BITS


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
                          st.sampled_from([WIDE - 2, WIDE - 1, WIDE, WIDE + 1]))


@st.composite
def poly_pairs(draw):
    """Two tuple-keyed term dicts in a common nvars in 1..6."""
    nvars = draw(st.integers(1, 6))
    terms = st.dictionaries(st.tuples(*(wide_exponent,) * nvars), coeffs,
                            max_size=5)
    return nvars, draw(terms), draw(terms)


@settings(max_examples=80, deadline=None)
@given(poly_pairs())
def test_packed_product_matches_reference(pair):
    nvars, a, b = pair
    pa, pb = MultiPoly(nvars, a), MultiPoly(nvars, b)
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
    for p in (pa, pb, pa * pb, pa - pb):
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
        # the all-int path, as FactoredRational numerators use it
        _, prim = p.primitive()
        assert prim(point) == ref_eval(prim.terms, point)


def test_square_at_field_width_does_not_carry():
    top = WIDE - 1
    x = MultiPoly(3, {(top, 0, 0): 1})
    y = MultiPoly(3, {(0, top, 0): 1, (0, 0, top): -1})
    assert (x * x).terms == {(2 * top, 0, 0): 1}
    assert (y * y).terms == {(0, 2 * top, 0): 1, (0, top, top): -2,
                             (0, 0, 2 * top): 1}
    assert (x * y).sorted_terms() == [((top, 0, top), -1), ((top, top, 0), 1)]
    # cancelling the wide terms narrows the field back; equality and
    # hashing still agree with a freshly built polynomial
    small = MultiPoly(3, {(1, 0, 0): 1})
    back = (x * x + small) - x * x
    assert back == small and hash(back) == hash(small)


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
    assert MultiPoly.constant(NVARS, F(2, 4)) == MultiPoly.constant(NVARS, F(1, 2))
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


def test_budget_restored_after_exception():
    default = get_term_budget()
    with pytest.raises(RuntimeError):
        with term_budget(3):
            assert get_term_budget() == 3
            raise RuntimeError("boom")
    assert get_term_budget() == default


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

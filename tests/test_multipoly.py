"""Exact sparse polynomial engine: ring laws, normalization, budgets."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinegram import (FactoredRational, InputError, MultiPoly,
                        ResourceBudgetError, get_term_budget, term_budget)
from splinegram.multipoly import poly_product

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
# Canonical order and inspection


def test_graded_lex_order():
    p = _poly({(1, 0, 0): 1, (0, 1, 0): -2, (0, 0, 1): -2, (0, 0, 0): 5})
    assert p.sorted_terms() == [
        ((0, 0, 0), 5), ((0, 0, 1), -2), ((0, 1, 0), -2), ((1, 0, 0), 1)]
    assert p.total_degree() == 1
    assert p.leading_coefficient() == 1
    # first negative coefficient in canonical order
    assert p.min_coefficient() == ((0, 0, 1), -2)


def test_zero_polynomial_properties():
    z = MultiPoly.zero(NVARS)
    assert z.is_zero() and z.total_degree() == -1
    assert z.leading_coefficient() == 0
    assert z.content() == 0
    assert z.min_coefficient() == (None, 0)


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


def test_factored_denominator_expansion_order_independent():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    a = FactoredRational(1, x1, {(x1 + x2): 1, (x1 + 2 * x2): 1})
    b = FactoredRational(1, x1, {(x1 + 2 * x2): 1, (x1 + x2): 1})
    assert a.denominator_expanded() == b.denominator_expanded()

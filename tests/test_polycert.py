"""Symbolic nonnegativity certificates: builders, dual routes, failure paths."""

import hashlib
import random
import re
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (array_at, bracket, gaps_for, nonneg_witness_sorted,
                     phi_step_six_terms, scalar_ratio, spot_check_exact,
                     theta_product_left_to_right)
from splinegram import (ArithmeticFailure, Certificate, FactoredRational,
                        GapBasis, InputError, KnotSequence, MultiPoly,
                        ResourceBudgetError, build_gram, build_inequality,
                        certificate_to_json, certify_inequality,
                        certify_nonneg, spot_check, term_budget)
from splinegram.decay import minor_formula, phi_inv_formula, psi_inv_formula
from splinegram.gram import quad_formula
from splinegram.polycert import (INEQUALITY_NAMES, _expect_den, _sym,
                                 sym_ratio)

# ---------------------------------------------------------------------------
# GapBasis


def test_bracket_forms():
    basis = GapBasis(4)
    # (2 0) at offset 1 covers gaps x2, x3
    assert basis.bracket(2, 0, 1) == basis.gap(2) + basis.gap(3)
    # ell == en is the empty gap sum
    assert basis.bracket(2, 2, 1).is_zero()
    assert basis.linear_form({2: 4, 4: 6}) == 4 * basis.gap(2) + 6 * basis.gap(4)


def test_bracket_range_validation():
    basis = GapBasis(3)
    with pytest.raises(InputError):
        basis.bracket(4, 0, 0)      # needs gap x4
    with pytest.raises(InputError):
        basis.bracket(1, -1, 0)     # needs gap x0
    with pytest.raises(InputError):
        basis.bracket(0, 1, 0)      # ell < en
    with pytest.raises(InputError):
        GapBasis(0)


# ---------------------------------------------------------------------------
# The shared formulas under the combinators: over gap brackets with
# polycert.sym_ratio and evaluated at a partition's gaps, they equal the same
# formulas over its scalar knot brackets with the oracle's scalar ratio, and
# the package's array pass (knot brackets, gram.ratio) at that index.
# The partition is irregular so every bracket is a distinct positive rational.

KS = KnotSequence(3, [F(1, 7), F(1, 3), F(2, 5), F(5, 9), F(3, 4), F(8, 9)])
ANCHOR = 3          # gaps x_r = t_{3+r} - t_{2+r}, all six strictly positive
BASIS = GapBasis(6)
GAPS = gaps_for(KS, ANCHOR, 6)


def both(formula, p, *args):
    """``formula`` at offset p over the gaps and at ANCHOR + p over KS."""
    sym = _sym(formula, BASIS)(p, *args)(GAPS)
    assert sym == formula(partial(bracket, KS), scalar_ratio, ANCHOR + p, *args)
    return sym


def test_sym_ratio_of_integer_factors():
    # an all-integer numerator is the constant 1 in the denominator's
    # variables; with no polynomial factor the variable count is unknown
    t = GapBasis(3).bracket(2, 0, 0)
    fr = sym_ratio((2,), (3, t))
    assert (fr.scalar, fr.num, fr.den_factors) == (F(2, 3), MultiPoly.constant(3, 1), {t: 1})
    assert fr((F(1, 2), F(1, 4), 7)) == F(8, 9)
    with pytest.raises(InputError):
        sym_ratio((2,), (3,))


def test_gaps_for_values():
    assert GAPS[0] == F(1, 7) and GAPS[1] == F(1, 3) - F(1, 7)
    assert sum(GAPS) == KS.knot(9) - KS.knot(3)
    assert all(g > 0 for g in GAPS)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_symbolic_gram_diag_matches_concrete(p):
    assert both(quad_formula, p, 0) == build_gram(KS).get(ANCHOR + p, ANCHOR + p)


@pytest.mark.parametrize("p", [1, 2])
def test_symbolic_gram_offdiag_matches_concrete(p):
    n = ANCHOR + p
    A = build_gram(KS)
    assert both(quad_formula, p, 1) == A.get(n, n + 1)
    assert both(quad_formula, p, 2) == A.get(n, n + 2)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_symbolic_phi_psi_match_concrete(p):
    assert both(phi_inv_formula, p) == array_at(phi_inv_formula, KS, ANCHOR + p)
    assert both(psi_inv_formula, p) == array_at(psi_inv_formula, KS, ANCHOR + p)


@pytest.mark.parametrize("p", [0, 1])
def test_symbolic_minor_factor_matches_concrete(p):
    # M at offset p is the formula at p + 2
    assert both(minor_formula, p + 2) == array_at(minor_formula, KS, ANCHOR + p + 2)


def test_psi_at_unit_gaps():
    # 1/psi at unit gaps is 1/9 + 1/12 + 1/6, so psi = 36/13; on a uniform
    # partition the gap lengths scale psi to 36/(13 h)
    assert _sym(psi_inv_formula, GapBasis(3))(0)((1, 1, 1)) == F(13, 36)
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    assert 1 / array_at(psi_inv_formula, ks, 4) == F(36, 13) * 6


def test_phi_degenerates_without_interior_knots():
    """Collapsing the three leading gaps recovers phi = 5/(30).

    Pointwise the symbolic form hits 0/0 (rejected as input); the limit
    along positive gaps exists, and the concrete function applies the
    zero-numerator convention to land exactly on 5/(30)."""
    f = _sym(phi_inv_formula, GapBasis(4))(1)
    with pytest.raises(InputError):
        f((0, 0, 0, 1))
    for eps in (F(1, 10), F(1, 100), F(1, 1000)):
        assert abs(f((eps, eps, eps, F(1))) - F(1, 5)) < eps
    ks = KnotSequence(3, [])
    assert 1 / array_at(phi_inv_formula, ks, 1) == 5 / bracket(ks, 3, 0, 1) == 5


# ---------------------------------------------------------------------------
# The five public certificates

# (num_terms, den_terms, max_total_degree) of each certificate
SHAPES = {
    "offdiag": (64, 36, 8),
    "phi_step": (10430, 4860, 29),
    "psi_a": (18, 26, 5),
    "theta_product": (11152, 11152, 32),
    "tp_minor": (64, 36, 8),
    "psi_from_phi": (2, 3, 3),
}


def _shape(cert):
    return (cert.num_terms, cert.den_terms, cert.max_total_degree)


@pytest.mark.parametrize("name", INEQUALITY_NAMES)
def test_certificates_succeed(name, monkeypatch):
    cert = certify_inequality(name)
    assert cert.success and cert.witness is None
    assert _shape(cert) == SHAPES[name]
    for pre in cert.prerequisites:
        assert pre.success and _shape(pre) == SHAPES[pre.name]

    # independent numeric cross-route at random positive points, decided by
    # the float filter alone: the exact evaluation never runs for a
    # certificate or its prerequisite
    def exact(self, point):
        raise AssertionError(f"exact evaluation of {self!r:.60} at {point}")

    monkeypatch.setattr(MultiPoly, "__call__", exact)
    for checked in (name, *(pre.name for pre in cert.prerequisites)):
        assert spot_check(build_inequality(checked), 100, seed=17) == 100


# First 16 hex digits of sha256(repr(build_inequality(name))).  The repr
# lists every coefficient, monomial and denominator factor in canonical
# order, so a change to the polynomial engine that alters any of them, or
# the order, fails here even where the term counts above still agree.
REPR_DIGESTS = {
    "offdiag": "44a3f441a57515b6",
    "phi_step": "b0b44636ce1a7ead",
    "psi_a": "e573d82d215b1495",
    "theta_product": "71039bad10a24aef",
    "psi_from_phi": "82e4da70724bc293",
    "tp_minor": "75f44a20b5905863",
}


@pytest.mark.parametrize("name", sorted(REPR_DIGESTS))
def test_certificate_expressions_are_pinned(name):
    text = repr(build_inequality(name))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == REPR_DIGESTS[name]


# The stated order of each large certificate, against the package's
# factored order: the same scalar, numerator and factored denominator.
STATED_ORDER = {"phi_step": phi_step_six_terms,
                "theta_product": theta_product_left_to_right}


@pytest.mark.parametrize("name", sorted(STATED_ORDER))
def test_factored_order_builds_the_stated_expression(name):
    fr, stated = build_inequality(name), STATED_ORDER[name]()
    assert fr.scalar == stated.scalar
    assert fr.num == stated.num
    assert fr.den_factors == stated.den_factors


def test_theta_product_records_minor_prerequisite():
    cert = certify_inequality("theta_product")
    assert len(cert.prerequisites) == 1
    minor = cert.prerequisites[0]
    assert minor.name == "tp_minor" and minor.success
    assert certify_inequality("offdiag").prerequisites == ()


def test_offdiag_denominator_is_stated_product():
    fr = build_inequality("offdiag")
    basis = GapBasis(5)
    stated = (basis.bracket(1, -1, 1) * basis.bracket(2, 0, 1) ** 2
              * basis.bracket(3, 1, 1) ** 2 * basis.bracket(4, 2, 1))
    actual = fr.denominator_expanded()
    # equal up to a positive scalar
    _, actual_prim = actual.primitive()
    _, stated_prim = stated.primitive()
    assert actual_prim == stated_prim


def test_phi_step_denominator_divides_bracket_product():
    fr = build_inequality("phi_step")
    basis = GapBasis(6)
    bound = {basis.bracket(1, -1, 1): 4, basis.bracket(2, 0, 1): 5,
             basis.bracket(3, 1, 1): 8, basis.bracket(4, 2, 1): 5,
             basis.bracket(5, 3, 1): 2}
    for factor, exp in fr.den_factors.items():
        assert factor in bound and exp <= bound[factor]


def test_psi_a_denominator_factors():
    fr = build_inequality("psi_a")
    basis = GapBasis(4)
    assert fr.den_factors == {
        basis.bracket(2, 0, 0): 1, basis.bracket(2, 0, 1): 1,
        basis.bracket(4, 2, 0): 1, basis.bracket(3, 0, 1): 1,
        basis.linear_form({2: 4, 3: 3, 4: 6}): 1}


def test_psi_from_phi_closed_form():
    fr = build_inequality("psi_from_phi")
    basis = GapBasis(2)
    x1, x2 = basis.gap(1), basis.gap(2)
    assert fr.scalar == F(1, 6)
    assert fr.num == 5 * x1 * x2 * x2 + 6 * x2 ** 3
    assert fr.den_factors == {(x1 + x2): 2}


def test_unknown_inequality_rejected():
    with pytest.raises(InputError):
        build_inequality("diag_step")
    with pytest.raises(InputError):
        certify_inequality("")


def test_phi_step_respects_term_budget():
    with term_budget(10):
        with pytest.raises(ResourceBudgetError) as err:
            build_inequality("phi_step")
    assert err.value.partial["budget"] == 10


# The smallest term budget at which each large certificate certifies: the
# term count of its largest product (phi_step: F_{n-1}, 33 terms, times a
# 3678-term partial sum; theta_product: the lead ratio, 8 terms, times
# th_n th_{n+1}, 6912 terms).
BUDGET_THRESHOLDS = {"phi_step": 10520, "theta_product": 11152}


@pytest.mark.parametrize("name", sorted(BUDGET_THRESHOLDS))
def test_term_budget_threshold(name):
    least = BUDGET_THRESHOLDS[name]
    with term_budget(least - 1):
        with pytest.raises(ResourceBudgetError):
            certify_inequality(name)
    with term_budget(least):
        assert certify_inequality(name).success


# ---------------------------------------------------------------------------
# certify_nonneg failure paths and reporting


def _fr(num, den_factors=None):
    return FactoredRational(1, num, den_factors or {})


def test_perfect_square_over_shared_factor_certifies():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    # (x1+x2)^2 / (x1+x2): every coefficient on both sides is positive
    cert = certify_nonneg(_fr((x1 + x2) ** 2, {(x1 + x2): 1}), "demo")
    assert cert.success and cert.witness is None


def test_sign_indefinite_numerator_fails_with_witness():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    cert = certify_nonneg(_fr(x1 - x2), "demo")
    assert not cert.success and cert.witness == ((0, 1), -1)


def test_nonnegative_square_still_fails():
    # (x1-x2)^2 >= 0 everywhere, yet the -2 x1 x2 coefficient trips the
    # test: coefficient nonnegativity is sufficient, not necessary
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    cert = certify_nonneg(_fr(x1 ** 2 - 2 * x1 * x2 + x2 ** 2), "demo")
    assert not cert.success and cert.witness == ((1, 1), -2)


def test_negative_numerator_witness_is_graded_lex_first():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    # two negative coefficients; x2^2 precedes x1^3 in graded-lex order
    p = x1 - x2 * x2 - x1 ** 3
    cert = certify_nonneg(_fr(p), "demo")
    assert not cert.success and cert.where == "numerator"
    assert cert.witness == ((0, 2), -1)


def test_negative_scalar_flips_effective_sign():
    x1 = MultiPoly.variable(1, 1)
    # scalar -2 over a primitive numerator x1: effective coefficient is -1
    cert = certify_nonneg(FactoredRational(-2, x1, {}), "demo")
    assert not cert.success and cert.witness == ((1,), -1)
    assert certify_nonneg(FactoredRational(-2, -1 * x1, {}), "demo").success


def test_mixed_sign_denominator_factor_rejected():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    cert = certify_nonneg(_fr(x1, {(x1 - x2): 1}), "demo")
    assert not cert.success and cert.where == "denominator"
    assert cert.witness == ((0, 1), -1)


@st.composite
def witness_polys(draw):
    """Sparse polynomials in 1..3 variables with int coefficients of either
    sign (the zero polynomial included), and in half the cases a product of
    two polynomials of 20..40 terms, mostly above the array cutoff."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*(st.integers(0, 9),) * nvars)
    if draw(st.booleans()):
        return MultiPoly(nvars, draw(st.dictionaries(exps, st.integers(-50, 50),
                                                     max_size=12)))
    ints = st.dictionaries(exps, st.integers(-50, 50).filter(bool),
                           min_size=20, max_size=40)
    return MultiPoly(nvars, draw(ints)) * MultiPoly(nvars, draw(ints))


def _same_witness(poly, sign):
    found, expected = poly._first_negative(sign), nonneg_witness_sorted(poly, sign)
    assert found == expected
    if found is not None:
        assert type(found[1]) is type(expected[1])
        assert all(type(e) is int for e in found[0])
    return found


@settings(max_examples=150, deadline=None)
@given(witness_polys(), st.sampled_from([1, -1]))
def test_nonneg_witness_matches_sorted_scan(poly, sign):
    _same_witness(poly, sign)


def test_nonneg_witness_edge_cases():
    assert _same_witness(MultiPoly.zero(3), 1) is None
    assert _same_witness(MultiPoly.zero(3), -1) is None
    mixed = MultiPoly(2, {(1, 0): 3, (0, 1): -2, (2, 0): 24})
    assert _same_witness(mixed, 1) == ((0, 1), -2)
    assert _same_witness(mixed, -1) == ((1, 0), -3)
    # (1 + x1 + x2 + x3)^10 has 286 terms, array-resident, with positive
    # coefficients; two are pushed below zero, x1^2 x2 (360) graded-lex first
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in (1, 2, 3))
    p = (1 + x1 + x2 + x3) ** 10 - 1000 * x1 ** 2 * x2 - 10 ** 6 * x3 ** 7
    assert not isinstance(p._terms, dict) and len(p) == 286
    assert _same_witness(p, 1) == ((2, 1, 0), -640)
    assert _same_witness(p, -1) == ((0, 0, 0), -1)
    assert _same_witness(-p, -1) == ((2, 1, 0), -640)


def test_zero_function_certifies():
    cert = certify_nonneg(_fr(MultiPoly.zero(2)), "demo")
    assert cert.success and cert.num_terms == 0


def test_expect_den_mismatch_is_engine_failure():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    fr = _fr(x1, {(x1 + x2): 2})
    _expect_den(fr, {(x1 + x2): 2}, "demo")
    _expect_den(fr, {(x1 + x2): 3, x1: 1}, "demo", allow_divisor=True)
    with pytest.raises(ArithmeticFailure):
        _expect_den(fr, {(x1 + x2): 1}, "demo", allow_divisor=True)
    with pytest.raises(ArithmeticFailure):
        _expect_den(fr, {(x1 + x2): 3}, "demo")


def _spot_points(npoints, nvars, seed):
    rng = random.Random(seed)
    return [tuple(F(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(nvars))
            for _ in range(npoints)]


def test_spot_check_reports_negative_value():
    x1 = MultiPoly.variable(1, 1)
    assert spot_check(_fr(x1), 25, seed=3) == 25
    first = _spot_points(1, 1, 3)[0]
    with pytest.raises(InputError, match=re.escape(
            f"spot check failed: value {-first[0]} at {first}")):
        spot_check(FactoredRational(-1, x1, {}), 25, seed=3)
    # x1 - 1 is negative from the first point with x1 < 1 on
    point = next(pt for pt in _spot_points(25, 1, 3) if pt[0] < 1)
    with pytest.raises(InputError, match=re.escape(
            f"spot check failed: value {point[0] - 1} at {point}")):
        spot_check(_fr(x1 - 1), 25, seed=3)
    # the point count: 0 is valid, a bool, a non-int or a negative is not
    assert spot_check(_fr(x1), 0, seed=3) == 0
    for bad in (-3, True, False, 2.5, "4", None):
        with pytest.raises(InputError, match="point count"):
            spot_check(_fr(x1), bad, seed=1)


def _outcome(check, fr, npoints, seed):
    """The returned count, or the exception's type and message."""
    try:
        return check(fr, npoints, seed)
    except Exception as exc:  # any type: the type is part of the outcome
        return type(exc), str(exc)


@st.composite
def spot_rationals(draw):
    """FactoredRationals in 1..3 variables with mixed-sign and positive
    sparse parts, numerators that vanish at x1 = 1 (every point with
    p = q), denominator factors that vanish there, x1^255 parts (the
    degree cap) beyond the float filter's range at most points, negative and zero scalars."""
    nvars = draw(st.integers(1, 3))
    x1 = MultiPoly.variable(nvars, 1)
    exps = st.tuples(*(st.integers(0, 4),) * nvars)

    def sparse(positive):
        lo = 1 if positive else -10 ** 20
        c = st.integers(lo, 10 ** 20).filter(bool)
        return MultiPoly(nvars, draw(st.dictionaries(exps, c, min_size=1, max_size=6)))

    num = draw(st.sampled_from(["mixed", "positive", "square", "wide", "zero"]))
    num = {"mixed": lambda: sparse(False), "positive": lambda: sparse(True),
           "square": lambda: (x1 * x1 - 2 * x1 + 1) * sparse(True),
           "wide": lambda: x1 ** 255 - sparse(draw(st.booleans())),
           "zero": lambda: MultiPoly.zero(nvars)}[num]()
    den = {}
    for kind in draw(st.lists(st.sampled_from(["mixed", "positive", "x1 - 1"]),
                              max_size=2)):
        f = x1 - 1 if kind == "x1 - 1" else sparse(kind == "positive")
        den[f] = draw(st.integers(1, 3))
    scalar = draw(st.sampled_from([F(1), F(-1), F(0), F(-3, 7), F(5, 2)]))
    return FactoredRational(scalar, num, den)


@settings(max_examples=150, deadline=None)
@given(spot_rationals(), st.integers(0, 12), st.integers(0, 2 ** 32))
def test_spot_check_matches_exact_route(fr, npoints, seed):
    assert (_outcome(spot_check, fr, npoints, seed)
            == _outcome(spot_check_exact, fr, npoints, seed))


def test_spot_check_exact_fallbacks_match_exact_route():
    x1, x2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    y = MultiPoly.variable(1, 1)
    ones = [i for i, pt in enumerate(_spot_points(200, 2, 5)) if pt[0] == 1]
    assert ones   # the points with x1 = 1 that the cases below rely on
    at_one = f"at {_spot_points(200, 2, 5)[ones[0]]}"
    cases = [
        (_fr((x1 - 1) ** 2 * (x2 + 1)), 200),                  # zero at x1 = 1
        (_fr(x2, {x1 - 1: 2}), "denominator factor vanishes " + at_one),
        (_fr(x2, {x1 - 1: 1}), "spot check failed"),           # x1 < 1 first
        (FactoredRational(-2, x1 + x2, {}), "spot check failed"),
        (FactoredRational(0, x1 + x2, {}), 200),
        (FactoredRational(F(3, 7), y ** 3 + 2 * y, {y + 1: 2}), 200),
        (_fr(x1 ** 255 + x2), 200),                            # beyond the range
        (_fr(x1 ** 255 - x2 ** 255), "spot check failed"),
    ]
    for fr, expected in cases:
        outcome = _outcome(spot_check, fr, 200, 5)
        assert outcome == _outcome(spot_check_exact, fr, 200, 5), fr
        if isinstance(expected, int):
            assert outcome == expected, fr
        else:
            assert outcome[0] is InputError and expected in outcome[1], fr


def test_certificate_json_shape():
    good = certificate_to_json(certify_inequality("psi_from_phi"))
    assert good == {"name": "psi_from_phi", "success": True,
                    "den_terms": good["den_terms"],
                    "num_terms": 2, "max_total_degree": 3, "witness": None}
    x1 = MultiPoly.variable(1, 1)
    bad = certificate_to_json(certify_nonneg(FactoredRational(-3, x1, {}), "demo"))
    assert bad["witness"] == {"monomial": [1], "coeff": "-1/1"}


def test_certificate_is_frozen():
    cert = Certificate("demo", True, 1, 1, 1, None)
    with pytest.raises(AttributeError):
        cert.success = False

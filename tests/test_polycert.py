"""Symbolic nonnegativity certificates: builders, dual routes, failure paths."""

import hashlib
from fractions import Fraction as F

import pytest

from oracles import array_at, gaps_for, scalar_ratio
from splinegram import (ArithmeticFailure, Certificate, FactoredRational,
                        GapBasis, InputError, KnotSequence, MultiPoly,
                        ResourceBudgetError, build_gram, build_inequality,
                        certificate_to_json, certify_inequality,
                        certify_nonneg, spot_check, term_budget)
from splinegram.decay import minor_formula, phi_inv_formula, psi_inv_formula
from splinegram.gram import quad_formula
from splinegram.polycert import INEQUALITY_NAMES, _expect_den, _sym

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
    assert sym == formula(KS.bracket, scalar_ratio, ANCHOR + p, *args)
    return sym


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
    assert 1 / array_at(phi_inv_formula, ks, 1) == 5 / ks.bracket(3, 0, 1) == 5


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
def test_certificates_succeed(name):
    cert = certify_inequality(name)
    assert cert.success and cert.witness is None
    assert _shape(cert) == SHAPES[name]
    for pre in cert.prerequisites:
        assert pre.success and _shape(pre) == SHAPES[pre.name]
    # independent numeric cross-route at random positive points
    assert spot_check(build_inequality(name), 100, seed=17) == 100


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


def test_spot_check_reports_negative_value():
    x1 = MultiPoly.variable(1, 1)
    assert spot_check(_fr(x1), 25, seed=3) == 25
    with pytest.raises(InputError):
        spot_check(FactoredRational(-1, x1, {}), 25, seed=3)


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

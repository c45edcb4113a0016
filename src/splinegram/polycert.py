"""Machine-checked nonnegativity certificates for the decay-bound inequalities.

Each certificate states that a rational function of consecutive knot gaps is
nonnegative whenever all gaps are nonnegative.  The engine builds the function
with factored denominators (multipoly.FactoredRational), then checks

  1. every denominator factor has exclusively nonnegative coefficients and is
     nonzero, hence positive on the open positive orthant, and
  2. the cleared numerator has exclusively nonnegative coefficients.

Both conditions together certify nonnegativity for all positive gap values
(and, by continuity, on the closed orthant wherever the function extends).
The check is purely syntactic on exact integer coefficients; no polynomial
GCD, factorization, or floating point is involved.

Gap variables: a certificate anchored at index ``a`` uses x_r = t_{a+r} -
t_{a+r-1}, and every knot bracket becomes the linear form

    (l e)_{a+p} = x_{p+e+1} + ... + x_{p+l}.

The Gram entries, the bound functions and the proofs' constants are not
restated here.  The builders evaluate the formulas written once in gram
(``quad_formula``) and decay (``phi_inv_formula``, ``psi_inv_formula``,
``minor_formula``) over ``GapBasis.bracket``, with a ratio combinator that
keeps integer constants in the scalar and bracket factors in the factored
denominator, and read decay's ``PSI_A_3`` and ``GAMMA_SQ_3``.  A certificate
is thus about the same functions and constants that the numeric lemma
checks evaluate.

Certified inequalities (public names):

  offdiag        a_{n,n+1} a_{n-1,n} - 2 a_{n,n} a_{n-1,n+1} >= 0
  phi_step       the induction step propagating the diagonal bound phi
  psi_a          (6/5)(20)_n/(30)_n - psi_n a_{n-1,n} >= 0
  theta_product  87/100 - ((30)_n/(20)_n)((30)_{n+1}/(20)_{n+1})
                 phi_n M_n phi_{n+1} M_{n+1} >= 0
  psi_from_phi   (32) - ((21)(32)/(31))(1 + (32)/(6(31))) >= 0

plus the internal ``tp_minor`` (a 2x2 total-positivity minor) which justifies
substituting the upper bound phi_s for b_{s,s}^s inside theta_product: the
substitution enlarges theta_s = b_{s,s}^s M_s only when M_s >= 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from . import decay
from .decay import minor_formula, phi_inv_formula, psi_inv_formula
from .errors import ArithmeticFailure, InputError
from .gram import quad_formula
from .multipoly import _MAX_VARS, FactoredRational, MultiPoly
from .scalars import format_scalar


class GapBasis:
    """Linear forms of knot brackets over ``nvars`` consecutive gap variables."""

    def __init__(self, nvars: int):
        if isinstance(nvars, bool) or not isinstance(nvars, int) or not 1 <= nvars <= _MAX_VARS:
            raise InputError(f"nvars must be an integer in [1, {_MAX_VARS}], got {nvars!r}")
        self.nvars = nvars

    def gap(self, r: int) -> MultiPoly:
        return MultiPoly.variable(self.nvars, r)

    def bracket(self, ell: int, en: int, p: int) -> MultiPoly:
        """(ell en)_{anchor+p} = sum of gaps x_{p+en+1} .. x_{p+ell}."""
        if ell < en:
            raise InputError(f"bracket ({ell},{en}) has ell < en")
        lo, hi = p + en + 1, p + ell
        if ell > en and not (1 <= lo and hi <= self.nvars):
            raise InputError(
                f"bracket ({ell},{en}) at offset {p} needs gaps {lo}..{hi}, "
                f"have 1..{self.nvars}")
        total = MultiPoly.zero(self.nvars)
        for r in range(lo, hi + 1):
            total = total + self.gap(r)
        return total

    def linear_form(self, coeffs: dict) -> MultiPoly:
        """sum coeffs[r] * x_r (1-based variable indices)."""
        return MultiPoly(self.nvars, {
            tuple(1 if j == r - 1 else 0 for j in range(self.nvars)): c
            for r, c in coeffs.items()})


# ---------------------------------------------------------------------------
# The shared order-3 formulas over gap brackets


def sym_ratio(num_factors, den_factors) -> FactoredRational:
    """The certificate-side ratio combinator: integer factors go to the
    scalar, bracket polynomials to the numerator and to the factored
    denominator.  An all-integer numerator is the constant 1 in the
    variables of the denominator's polynomials; with no polynomial factor
    at all the variable count is unknown, an InputError."""
    scalar, num, den = Fraction(1), None, {}
    for f in num_factors:
        if isinstance(f, int):
            scalar *= f
        else:
            num = f if num is None else num * f
    for f in den_factors:
        if isinstance(f, int):
            scalar /= f
        else:
            den[f] = den.get(f, 0) + 1
    if num is None:    # an all-integer numerator: the constant 1
        if not den:
            raise InputError("sym_ratio needs a polynomial factor")
        num = MultiPoly.constant(next(iter(den)).nvars, 1)
    return FactoredRational(scalar, num, den)


def _sym(formula, basis: GapBasis):
    """One of the shared formulas (gram.quad_formula, decay.phi_inv_formula,
    psi_inv_formula, minor_formula) over the gap brackets of ``basis``; its
    index is the offset p from the anchor."""
    return partial(formula, basis.bracket, sym_ratio)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class Certificate:
    """Result of one nonnegativity check.

    ``witness`` is None on success, else (monomial exponents, coefficient) of
    the graded-lex-first negative coefficient; ``where`` says whether the
    offender sits in the numerator or a denominator factor.
    """

    name: str
    success: bool
    den_terms: int
    num_terms: int
    max_total_degree: int
    witness: tuple | None
    where: str = "numerator"
    prerequisites: tuple = ()


def certify_nonneg(fr: FactoredRational, name: str) -> Certificate:
    """Certify fr >= 0 on the positive orthant by coefficient inspection."""
    den = fr.denominator_expanded()
    num_terms = len(fr.num)
    den_terms = len(den)
    degree = max(fr.num.total_degree(), den.total_degree())
    for factor, _ in fr._sorted_factors():
        bad = factor._first_negative(1)
        if bad is not None:
            return Certificate(name, False, den_terms, num_terms, degree,
                               bad, where="denominator")
    if fr.is_zero():
        return Certificate(name, True, den_terms, 0, degree, None)
    sign = 1 if fr.scalar > 0 else -1
    bad = fr.num._first_negative(sign)
    if bad is not None:
        return Certificate(name, False, den_terms, num_terms, degree, bad)
    return Certificate(name, True, den_terms, num_terms, degree, None)


def _expect_den(fr: FactoredRational, expected: dict, name: str,
                allow_divisor: bool = False) -> None:
    """Assert the factored denominator matches the stated product shape.

    With ``allow_divisor`` the actual denominator may divide the stated one
    (subset factors, exponents no larger); otherwise it must match exactly.
    A mismatch is an engine defect, not a mathematical failure, so it raises.
    """
    actual = dict(fr.den_factors)
    if allow_divisor:
        ok = all(f in expected and e <= expected[f] for f, e in actual.items())
    else:
        ok = actual == expected
    if not ok:
        raise ArithmeticFailure(
            f"certificate {name}: denominator shape mismatch",
            context={"actual": {repr(f): e for f, e in actual.items()},
                     "expected": {repr(f): e for f, e in expected.items()}})


def _build_offdiag() -> FactoredRational:
    """a_{n,n+1} a_{n-1,n} - 2 a_{n,n} a_{n-1,n+1}; gaps anchored at n-1."""
    basis = GapBasis(5)
    a = _sym(quad_formula, basis)
    p = a(1, 1) * a(0, 1) - 2 * a(1, 0) * a(0, 2)
    expected = {basis.bracket(1, -1, 1): 1, basis.bracket(2, 0, 1): 2,
                basis.bracket(3, 1, 1): 2, basis.bracket(4, 2, 1): 1}
    _expect_den(p, expected, "offdiag")
    return p


def _build_tp_minor() -> FactoredRational:
    """The 2x2 minor a_{n-1,n} a_{n,n+1} - a_{n-1,n+1} a_{n,n}; anchor n-1."""
    a = _sym(quad_formula, GapBasis(5))
    return a(0, 1) * a(1, 1) - a(0, 2) * a(1, 0)


def _build_psi_a() -> FactoredRational:
    """(6/5)(20)_n/(30)_n - psi_n a_{n-1,n} (6/5 is decay.PSI_A_3); gaps
    anchored at n-1."""
    basis = GapBasis(4)
    t20 = basis.bracket(2, 0, 1)
    t30 = basis.bracket(3, 0, 1)
    lead = sym_ratio((decay.PSI_A_3.numerator, t20), (decay.PSI_A_3.denominator, t30))
    p = lead - _sym(quad_formula, basis)(0, 1) / _sym(psi_inv_formula, basis)(1)
    expected = {basis.bracket(2, 0, 0): 1, t20: 1, basis.bracket(4, 2, 0): 1,
                t30: 1, basis.linear_form({2: 4, 3: 3, 4: 6}): 1}
    _expect_den(p, expected, "psi_a")
    return p


def _build_psi_from_phi() -> FactoredRational:
    """(32) - ((21)(32)/(31))(1 + (32)/(6(31))) with x1=(21), x2=(32)."""
    basis = GapBasis(2)
    x1, x2 = basis.gap(1), basis.gap(2)
    t31 = x1 + x2
    return (FactoredRational.from_poly(x2)
            - FactoredRational(1, x1 * x2, {t31: 1})
            - FactoredRational(Fraction(1, 6), x1 * x2 * x2, {t31: 2}))


def _build_phi_step() -> FactoredRational:
    """Induction step for the diagonal bound phi; gaps anchored at n-2.

    With F_s := 1/phi_s (decay.phi_inv_formula), the step inequality
    multiplied by the positive quantity F_n F_{n-1}^2 a_{n-1,n} reads

        F_n F_{n-1}^2 a_{n-1,n} a_{n+1,n+1}
      - F_{n-1}^2 a_{n,n+1} (a_{n-1,n} a_{n,n+1} - 2 a_{n,n} a_{n-1,n+1})
      - 2 F_n F_{n-1}^2 a_{n,n+1} a_{n-1,n+1}
      - F_n F_{n-1} a_{n-1,n} a_{n-1,n+1}^2
      - a_{n-1,n}^3 a_{n-1,n+1}^2
      - F_n F_{n-1}^2 F_{n+1} a_{n-1,n}  >= 0,

    every inverse bound function having been cancelled against its
    reciprocal beforehand, so the factored denominator is a pure product of
    bracket linear forms.  The code factors F_{n-1} out twice and F_n once
    (Horner-like).  A product adds denominator exponents, a sum takes their
    factor-wise max, and + distributes over max: every bracketing (no partial
    result zero) gives one FactoredRational.
    """
    basis = GapBasis(6)
    a, phi_inv = _sym(quad_formula, basis), _sym(phi_inv_formula, basis)
    F1, F2, F3 = phi_inv(1), phi_inv(2), phi_inv(3)   # at n-1, n, n+1
    a12, a23, a13 = a(1, 1), a(2, 1), a(1, 2)   # a_{n-1,n}, a_{n,n+1}, a_{n-1,n+1}
    a22, a33 = a(2, 0), a(3, 0)                 # a_{n,n}, a_{n+1,n+1}
    inner = (F2 * (a12 * a33 - 2 * a23 * a13 - F3 * a12)
             - a23 * (a12 * a23 - 2 * a22 * a13))
    p = F1 * (F1 * inner - F2 * a12 * a13 * a13) - a12 * a12 * a12 * a13 * a13
    bound = {basis.bracket(1, -1, 1): 4, basis.bracket(2, 0, 1): 5,
             basis.bracket(3, 1, 1): 8, basis.bracket(4, 2, 1): 5,
             basis.bracket(5, 3, 1): 2}
    _expect_den(p, bound, "phi_step", allow_divisor=True)
    return p


def _build_theta_product() -> FactoredRational:
    """gamma^2 - ((30)_n/(20)_n)((30)_{n+1}/(20)_{n+1}) th_n th_{n+1},
    th_s = phi_s M_s, gamma^2 = decay.GAMMA_SQ_3 = 87/100; gaps anchored at
    n-2.

    phi_s = 1/phi_inv brings the (all-nonnegative) numerator polynomial of
    phi_inv into the denominator, and M_s divides by a_{s-2,s-1}; both are
    legitimate because certify_nonneg checks every denominator factor
    coefficient-wise rather than assuming a product of brackets.  th_n
    th_{n+1} is formed first: 336 x 336 then 8 x 6912 pairs, not 1050 x 336.
    """
    basis = GapBasis(6)
    M, phi_inv = _sym(minor_formula, basis), _sym(phi_inv_formula, basis)
    th_n, th_n1 = M(2) / phi_inv(2), M(3) / phi_inv(3)
    br = basis.bracket
    lead = sym_ratio((br(3, 0, 2), br(3, 0, 3)), (br(2, 0, 2), br(2, 0, 3)))
    return FactoredRational.from_scalar(6, decay.GAMMA_SQ_3) - lead * (th_n * th_n1)


_BUILDERS = {
    "offdiag": _build_offdiag,
    "phi_step": _build_phi_step,
    "psi_a": _build_psi_a,
    "theta_product": _build_theta_product,
    "psi_from_phi": _build_psi_from_phi,
    "tp_minor": _build_tp_minor,
}

INEQUALITY_NAMES = ("offdiag", "phi_step", "psi_a", "theta_product",
                    "psi_from_phi")


def build_inequality(name: str) -> FactoredRational:
    """The certificate expression for one of the named inequalities."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(f"unknown inequality {name!r}; "
                         f"expected one of {sorted(_BUILDERS)}") from None
    return builder()


def certify_inequality(name: str) -> Certificate:
    """Build and certify a named inequality.

    theta_product first certifies the internal tp_minor inequality (recorded
    in ``prerequisites``): the minor's nonnegativity is what makes the
    phi-for-b substitution inside theta sound.
    """
    if name != "theta_product":
        return certify_nonneg(build_inequality(name), name)
    minor = certify_inequality("tp_minor")
    if not minor.success:
        return Certificate(name, False, 0, 0, -1, minor.witness,
                           where="prerequisite", prerequisites=(minor,))
    return replace(certify_nonneg(build_inequality(name), name), prerequisites=(minor,))


def spot_check(fr: FactoredRational, npoints: int, seed: int) -> int:
    """Check fr >= 0 at ``npoints`` random positive rational points; an
    InputError names the first point where fr is negative or a denominator
    factor vanishes.  Returns the number of points checked (the independent
    numeric cross-route for a certificate).

    Each coordinate is p/q with p, q drawn from randint(1, 60) of
    random.Random(seed), p first.  The numerator and every denominator
    factor are evaluated at all points at once in float64
    (``MultiPoly._float_signs``), and sign(scalar) sign(num) prod sign(f)^e
    is fr's sign wherever each of them is proven.  Only at a point where a
    sign is unproven (a zero value, a value within the rounding bound of
    zero, a point outside the filter's range) or the proven sign is negative
    is fr evaluated exactly, in point order, so the verdict, the error and
    its message are those of evaluating fr exactly at every point."""
    if isinstance(npoints, bool) or not isinstance(npoints, int) or npoints < 0:
        raise InputError(
            f"spot check point count must be a nonnegative integer, got {npoints!r}")
    import numpy as np

    rng = random.Random(seed)
    draws = np.array([rng.randint(1, 60) for _ in range(2 * npoints * fr.nvars)],
                     np.int64).reshape(npoints, fr.nvars, 2)
    p, q = draws[..., 0], draws[..., 1]
    sign = ((fr.scalar > 0) - (fr.scalar < 0)) * fr.num._float_signs(p, q)
    for f, e in fr.den_factors.items():
        sign *= f._float_signs(p, q) ** e
    for i in np.flatnonzero(sign <= 0):
        point = tuple(map(Fraction, p[i].tolist(), q[i].tolist()))
        value = fr(point)
        if value < 0:
            raise InputError(f"spot check failed: value {value} at {point}")
    return npoints


def certificate_to_json(cert: Certificate) -> dict:
    witness = None
    if cert.witness is not None:
        exps, coeff = cert.witness
        witness = {"monomial": list(exps), "coeff": format_scalar(Fraction(coeff))}
    return {
        "name": cert.name,
        "success": cert.success,
        "den_terms": cert.den_terms,
        "num_terms": cert.num_terms,
        "max_total_degree": cert.max_total_degree,
        "witness": witness,
    }

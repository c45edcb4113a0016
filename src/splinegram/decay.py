"""Geometric-decay bounds for inverses of B-spline Gram matrices.

For orders k = 2 and k = 3 the inverse entries satisfy

    |b_{i,j}| <= K * gamma^{|i-j|} / eta_ij,

with explicit rational constants.  Each proof step's constant is written
once, as a module constant: gamma^2 and the last-column constant at k = 2
(GAMMA_SQ_2, LASTCOL_2); gamma^2, psi_a's 6/5, the chain bound 12 and the
factor 16/13 at k = 3 (GAMMA_SQ_3, PSI_A_3, CHAIN_3, FULL_3).
``decay_constants`` derives the rest from them: K = 4(1 + gamma^2/(1 -
gamma^2)) at k = 2, and C = 12 (6/5)^2 / gamma^2, K = C(1 + (16/13)C) at
k = 3; gamma is the float square root of gamma^2.  The lemma families and the
certificates of polycert read the same constants.  This module evaluates the
closed-form bound functions (1/phi, 1/psi, M), verifies every intermediate
inequality of the two proofs on concrete instances, and produces decay
reports.  gamma is irrational for k = 3, so exact-mode comparisons use the
squared form

    x <= K gamma^d / eta   <=>   (x*eta)^2 * den(gamma^2)^d <= K^2 * num(gamma^2)^d,

which is lossless for nonnegative x.  Exact verdicts stay exact, but most
are settled by a filter: an entry whose float ratio x eta / (K gamma^d) is
at most 1 - (2m + 16) 2^-52 passes, since that margin exceeds every rounding
error the ratio can carry (derived in ``_decay_kernel``), and only the
remaining entries, near the bound or beyond it, are compared in the squared
form over integers, every denominator cleared.  An exact inverse is read as
a ``scalars._Pairs`` array, integer numerators over positive denominators:
an exact GrowingInverse's scaled form (B's numerators over one shared
denominator, each history column's over its own), or the integer parts of
a Fraction array.  The float image of an entry n/d is the int true
division n / d, correctly rounded like float(n/d) and so equal to it bit
for bit, and its sign is n's; no Fraction is built.  Where a float ratio's
factors are zero or subnormal (gamma^d underflows from d = 1838 at k = 2)
the ratio is taken from mantissa/exponent pairs, so that it is finite,
never 0/0.  For other orders
no certified constants are available: a report against the envelope
observed on the inverse itself gives its ratios and no verdict.

One private kernel, ``_decay_kernel``, evaluates the bound on a vector of
entries in either scalar mode; the decay report (which also yields the
full_decay lemma family), the last-column family, the observed envelope and
the CSV rows only build its index vectors.

The batteries only compute each lemma family's values and witnesses; one
rule, ``_lemma_check``, decides: exact values (dtype object) pass at value
<= bound, compared over integers, floats at value <= bound + slack.  The bound is 1 for a value
lhs/rhs and 0 for the signed values of minor_nonneg and theta_hat_bound,
whose worst_slack (1 - worst_ratio, as for every family) is thus no
distance to their bound.  ``verify_lemmas`` takes the caller's constants,
and ``decay_report(..., lemma_checks=)`` puts its families in front of
full_decay, so one set of constants builds a report.

The order-3 bound functions 1/phi_n, 1/psi_n and M_n are written once
(``phi_inv_formula``, ``psi_inv_formula``, ``minor_formula``) over a bracket
provider and a ratio combinator, like gram.quad_formula.  The batteries
evaluate them, and every family, as array passes over all leading sizes n at
once: the array brackets ``KnotSequence.brackets`` with gram.ratio acting
elementwise, float64 arrays in float mode with the per-element operation
order of a loop over n.  In exact mode every family is a ``scalars._Pairs``
array of unreduced integer pairs (N, D): the brackets, the closed forms,
the diagonal history and the Gram bands (split into their integer parts)
combine with no gcd, and ``_lemma_check`` compares N <= bound * D, so the
battery builds no Fraction for a value it only checks.  That is their one
numeric evaluation; polycert evaluates the same formulas over gap-variable
brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ArithmeticFailure, InputError
from .gram import SymBandedMatrix, quad_formula, ratio
from .invstep import GrowingInverse, _history_parts, _parts
from .knots import KnotSequence
from .scalars import _Pairs, _rational, _where, format_scalar


@dataclass(frozen=True)
class DecayConstants:
    """Constants of the decay bound |b_ij| <= K gamma^|i-j| / eta_ij.

    ``lastcol_K`` is the (smaller) constant valid for the last column of each
    leading inverse; ``gamma_sq`` is exact, ``gamma`` its float square root,
    for the ``certified`` constants of the symbolic certificates.  Those
    observed on one inverse are floats: lastcol_K = K, gamma_sq = gamma^2.
    """

    order: int
    K: object
    lastcol_K: object
    gamma: float
    gamma_sq: object
    certified: bool


# The constants of the proofs' steps, each written once.  decay_constants
# derives K, C and gamma from them; the lemma families and polycert's
# certificates read them.
GAMMA_SQ_2 = Fraction(4, 9)      # k = 2: gamma^2
LASTCOL_2 = Fraction(4)          # k = 2: the last-column constant
GAMMA_SQ_3 = Fraction(87, 100)   # k = 3: gamma^2, theta_consec's and theta_product's bound
PSI_A_3 = Fraction(6, 5)         # k = 3: psi_n a_{n-1,n} <= (6/5)(20)_n/(30)_n
CHAIN_3 = 12                     # k = 3: psi_n <= 12/(30)_n
FULL_3 = Fraction(16, 13)        # k = 3: K = C(1 + (16/13)C), C the last-column constant


def decay_constants(order: int) -> DecayConstants:
    """Certified decay constants (orders 2 and 3 only), derived from the
    proof steps' constants."""
    if order == 2:
        g, C = GAMMA_SQ_2, LASTCOL_2
        K = C * (1 + g / (1 - g))
    elif order == 3:
        g, C = GAMMA_SQ_3, CHAIN_3 * PSI_A_3 ** 2 / GAMMA_SQ_3
        K = C * (1 + FULL_3 * C)
    else:
        raise InputError(f"no certified decay constants for order {order}")
    return DecayConstants(order, K, C, math.sqrt(float(g)), g, True)


# ---------------------------------------------------------------------------
# Bound functions phi, psi, theta (order 3)


def phi_inv_formula(br, ratio, n: int):
    """1/phi_n over a bracket provider and a ratio combinator (as in
    gram.quad_formula), brackets taken at n:

    (10)/9 + (21)/12 + (32)/5 - ((21)(32)/(30(31)))(1 + (32)/(6(31))
    - 20(10)/(9(20))) + 5(0,-1)(10)/(108(1,-1)) + 2(0,-1)^2(10)/(73(1,-1)^2),
    expanded into monomial ratios.
    """
    b10, b21, b32 = br(1, 0, n), br(2, 1, n), br(3, 2, n)
    b20, b31 = br(2, 0, n), br(3, 1, n)
    b0m1, b1m1 = br(0, -1, n), br(1, -1, n)
    return (ratio((b10,), (9,)) + ratio((b21,), (12,)) + ratio((b32,), (5,))
            - ratio((b21, b32), (30, b31))
            - ratio((b21, b32, b32), (180, b31, b31))
            + ratio((2, b10, b21, b32), (27, b20, b31))
            + ratio((5, b0m1, b10), (108, b1m1))
            + ratio((2, b0m1, b0m1, b10), (73, b1m1, b1m1)))


def psi_inv_formula(br, ratio, n: int):
    """1/psi_n = (10)/9 + (21)/12 + (32)/6, brackets at n."""
    return (ratio((br(1, 0, n),), (9,)) + ratio((br(2, 1, n),), (12,))
            + ratio((br(3, 2, n),), (6,)))


def minor_formula(br, ratio, n: int, a=None):
    """M_n = a_{n-1,n} - a_{n-2,n} a_{n-1,n-1} / a_{n-2,n-1}, from an entry
    provider a(i, d) = a_{i,i+d}; by default gram.quad_formula over br."""
    if a is None:
        def a(i, d):
            return quad_formula(br, ratio, i, d)
    return a(n - 1, 1) - a(n - 2, 2) * a(n - 1, 0) / a(n - 2, 1)


# ---------------------------------------------------------------------------
# Lemma families


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one verified inequality family on a concrete instance."""

    name: str
    passed: bool
    worst_ratio: float
    worst_slack: float
    witness: tuple | None
    comparisons: int


def _lemma_check(name, values, ok, witness, slack, bound=1) -> LemmaCheck:
    """The verdict rule of every lemma family: the verdicts ok decide when
    given; else exact values (dtype object: a ``scalars._Pairs`` array, or
    an object array of Fractions and ints, split into one by its integer
    parts) pass at value <= bound, compared over the integers, and float
    values at value <= bound + slack.  The reported ratios are floats, an
    exact value's by int true division, bit for bit float(value).  The
    witness, from a tuple of index columns, is the first maximal value's;
    an empty family reads ratio 0.0 and witness None."""
    import numpy as np

    if not len(values):
        return LemmaCheck(name, True, 0.0, 1.0, None, 0)
    if values.dtype == object:
        values = _rational(values)
        ratio = values.floats()
        if ok is None:
            ok = values <= bound
    else:
        ratio = np.asarray(values, dtype=float)
        if ok is None:
            ok = values <= bound + slack
    at = int(np.argmax(ratio))
    worst = float(ratio[at])
    passed = bool(np.all(ok))
    return LemmaCheck(name, passed, worst, 1.0 - worst,
                      tuple(int(c[at]) for c in witness), len(ratio))


# ---------------------------------------------------------------------------
# The decay kernel


def _abs_floats(x):
    """|x| as float64 for a 1-D array of floats, or of exact entries (a
    ``_Pairs`` array, or an object array of Fractions and ints, read by its
    integer parts).  An exact entry N/D becomes |N / D| by int true division
    (``_Pairs.floats``), correctly rounded like float(N/D) and so equal to
    it bit for bit, reduced to lowest terms or not; an entry beyond the
    float range reads inf."""
    import numpy as np

    return np.abs(_rational(x).floats() if x.dtype == object else x.astype(float))


def _decay_kernel(x, lo, hi, ks: KnotSequence, K, gamma: float, gamma_sq=None):
    """x <= K gamma^d / eta at every entry of x, d = hi - lo.

    x is a 1-D vector of inverse entries, float64 or a ``_Pairs`` array (an
    object array of Fractions and ints enters by its integer parts), and
    lo <= hi the 0-based positions whose eta_{lo+1,hi+1} weighs them.
    Returns (eta, raw, ratio, ok): the floats eta (correctly rounded), raw =
    |x| eta and ratio = raw / (K gamma^d) (1.0 = bound attained), and, given
    gamma_sq (for exact entries only), the exact verdicts
    (x eta)^2 den(gamma_sq)^d <= K^2 num(gamma_sq)^d (else None).  Exact
    knots give eta as a pair array too, the differences of the knots'
    integer numerators over their common denominator
    (``KnotSequence._integer_knots``), each float by one int true division.
    For exact entries the float |x| is ``_abs_floats``'; where |x| or eta is
    not a normal float (an entry beyond the float range, an eta that
    underflows) raw is the float of the pair product |x| eta.  Where raw,
    gamma^d or K gamma^d is zero or subnormal the ratio is
    ``_split_ratios``' (finite, never NaN); every other ratio is the plain
    quotient above.

    The exact verdicts are filtered: an entry whose float ratio is at most
    1 - delta, delta = (2m + 16) 2^-52, passes, and the exact comparison runs
    only on the rest (near-ties, failures, and entries with a zero,
    subnormal or non-finite float among |x|, eta, raw, gamma^d, K gamma^d).
    With u = 2^-53 and r = |x| eta / (K gamma^d) the true ratio, the float
    ratio is r times factors (1 + e)^(+-1) with
      |e| <= u   float(|x|), float(eta), float(K) (correctly rounded from
                 Fractions), the products raw and K gamma^d, the division;
      |e| <= 2u  gamma ** d from libm pow (accurate to one ulp);
      |e| <= 2u  float gamma against sqrt(gamma_sq), d times, checked as
                 |gamma^2 - gamma_sq| <= 4u gamma_sq (else nothing is
                 filtered; both certified gammas are within 1u in gamma^2).
    These bounds hold as all operands are normal, so
    L = |ln(ratio / r)| <= (8 + 2d) u / (1 - 2u) < (2m + 8) u, as d < m.
    ratio <= 1 - delta = 1 - (4m + 32) u then gives
    r <= (1 - delta) e^L <= e^(L - delta) < 1: the entry passes exactly.
    A quotient that underflows lies far below 1 and needs no margin.
    The exact comparison clears every denominator: with the pair product
    |x| eta = N/D (a float eta taken as its integer ratio) and K =
    K_num/K_den it is
    (N K_den)^2 den(gamma_sq)^d <= K_num^2 num(gamma_sq)^d D^2,
    over Python ints.
    """
    import numpy as np

    k, x = ks.order, _rational(x)
    exact = x.dtype == object
    if ks.exact:
        # integer differences over the common denominator, each rounded once
        # by int true division: the floats of float(t_a - t_b), far cheaper
        num, common = ks._integer_knots
        eta_q = _Pairs(num[hi + k] - num[lo], common)
        eta = eta_q.floats()
    else:
        knots = np.array(ks.knots)
        eta = knots[hi + k] - knots[lo]
    d = hi - lo
    ax = _abs_floats(x)
    with np.errstate(invalid="ignore"):  # inf * 0, replaced just below
        raw = ax * eta
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if ks.exact and exact:
        e = np.flatnonzero(~((ax >= tiny) & (ax <= huge) & (eta >= tiny)))
        if len(e):
            raw[e] = (abs(x[e]) * eta_q[e]).floats()
    powers = [gamma ** e for e in range(ks.m)]
    pw = np.array(powers)[d]
    scale = float(K) * pw
    with np.errstate(divide="ignore", invalid="ignore"):  # replaced just below
        ratio = raw / scale
    low = np.flatnonzero((raw < tiny) | (scale < tiny) | (pw < tiny))
    if len(low):
        ratio[low] = _split_ratios(ax[low], eta[low], raw[low], pw[low], d[low], K, gamma)
    ok = None
    if gamma_sq is not None:
        g = Fraction(gamma_sq)
        ok = ratio <= 1 - (2 * ks.m + 16) * 2.0 ** -52  # False for nan
        if not (math.isfinite(gamma)
                and abs(Fraction(gamma) ** 2 - g) <= g * Fraction(4, 2 ** 53)):
            ok[:] = False  # the margin needs gamma within 2u of sqrt(gamma_sq)
        for v in (ax, eta, raw, pw, scale):
            ok &= (v >= tiny) & (v <= huge)
        todo = np.flatnonzero(~ok)
        if len(todo):
            dt = d[todo]
            top = int(dt.max()) + 1
            Kq = Fraction(K)
            den_pow = np.array([Kq.denominator ** 2 * g.denominator ** e
                                for e in range(top)], dtype=object)
            num_pow = np.array([Kq.numerator ** 2 * g.numerator ** e
                                for e in range(top)], dtype=object)
            if ks.exact:
                q = eta_q[todo]
            else:  # a float eta is exact as its integer ratio
                q = _Pairs(*(np.array(v, dtype=object) for v in
                             zip(*map(float.as_integer_ratio, eta[todo].tolist()))))
            p = abs(x[todo]) * q
            ok[todo] = p.N * p.N * den_pow[dt] <= num_pow[dt] * (p.D * p.D)
    return eta, raw, ratio, ok


def _split_ratios(ax, eta, raw, pw, d, K, gamma: float):
    """raw / (K gamma^d) for entries where raw, pw = gamma ** d or K pw is
    zero or subnormal, where the plain quotient reads 0/0 or x/0, or loses
    digits: each factor as an ``np.frexp`` pair of mantissa and binary
    exponent.  raw is its own pair, or, where it is not normal but |x| and
    eta are finite and nonzero, the product of theirs.  gamma^d is pw's
    pair where pw is normal; else (gamma < 1) d = q c + r, with c the
    largest power whose gamma^c is normal, and gamma^d is frexp(gamma^c)'s
    mantissa to the power q (normal while q < 1022) times gamma^r, the
    exponents added.  The mantissas' quotient is scaled by ``np.ldexp``:
    the result is finite or inf, never NaN, and zero only where raw is."""
    import numpy as np

    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    rm, re = np.frexp(raw)
    sub = ~(raw >= tiny) & (ax > 0) & (ax <= huge) & (eta > 0)
    (xm, xe), (em, ee) = np.frexp(ax[sub]), np.frexp(eta[sub])
    rm[sub], re[sub] = xm * em, xe + ee
    pm, pe = np.frexp(pw)
    low = np.flatnonzero(pw < tiny)
    if len(low):
        c = max(1, int(math.log(tiny) / math.log(gamma)))
        while c > 1 and gamma ** c < tiny:
            c -= 1
        q, r = np.divmod(d[low], c)
        cm, ce = math.frexp(gamma ** c)
        (qm, qe), (sm, se) = np.frexp(cm ** q), np.frexp(gamma ** r)
        pm[low], pe[low] = qm * sm, qe + se + ce * q
    return np.ldexp(rm / (float(K) * pm), re - pe)


# ---------------------------------------------------------------------------
# Lemma batteries: each family as (name, bound, witness n, values), the
# values one array over n of exact scalars (a ``_Pairs`` array) or float64;
# verify_lemmas applies the verdict rule.


def _select(cond, value):
    """value(at) at the positions ``at`` where cond holds, +inf elsewhere
    (``_Pairs.infinite`` for exact values): value sees only those
    positions, so what cond guards never runs."""
    import numpy as np

    at = np.flatnonzero(cond)
    part = value(at)
    if isinstance(part, _Pairs):
        out = _Pairs.infinite(len(cond))
    else:
        out = np.full(len(cond), math.inf, part.dtype)
    out[at] = part
    return out


def _linear_families(ks: KnotSequence, A: SymBandedMatrix, b) -> tuple:
    """The order-2 families over all leading sizes n, one array pass each
    over the diagonal history b, each value lhs/rhs of its inequality
    (bound 1; inf where b_{n,n}^n <= 0):
      sandwich_lower   3/(20)_n <= b_{n,n}^n
      sandwich_middle  b_{n,n}^n <= 3/((3/4)(10)_n + (21)_n)
      sandwich_outer   3/((3/4)(10)_n + (21)_n) <= 4/(20)_n
    """
    import numpy as np

    br, n, b = ks.brackets, np.arange(1, ks.m + 1), _rational(b)
    b20, b10, b21 = br(2, 0, n), br(1, 0, n), br(2, 1, n)
    mid_den = 3 * b10 + 4 * b21  # 4*((3/4)(10) + (21))
    return (("sandwich_lower", 1, n, _select(b > 0, lambda at: 3 / (b20[at] * b[at]))),
            ("sandwich_middle", 1, n, _select(b > 0, lambda at: b[at] * mid_den[at] / 12)),
            ("sandwich_outer", 1, n, 3 * b20 / mid_den))


def _quadratic_families(ks: KnotSequence, A: SymBandedMatrix, b) -> tuple:
    """The order-3 families, each one array pass over n: the diagonal
    history b, 1/phi_n and 1/psi_n for all n at once, a_{n-1,n} and the
    other entries of M_n from the diagonals of the Gram matrix A.  Each
    value is lhs/rhs of its inequality (bound 1; inf where b_{n,n}^n <= 0),
    except the two sign families, whose signed values -M_n/a_{n-1,n} and
    -(phi_n M_n - theta_n)/(phi_n M_n) have bound 0:
      chain_b_le_phi    b_{n,n}^n <= phi_n
      chain_phi_le_psi  phi_n <= psi_n
      chain_psi_le_12   psi_n <= CHAIN_3/(30)_n
      offdiag_pair      b_{n,n}^n a_{n-1,n} <= PSI_A_3 (20)_n/(30)_n   (n >= 2)
      minor_nonneg      M_n >= 0                                    (n >= 3)
      theta_hat_bound   theta_n <= phi_n M_n                        (n >= 3)
      theta_consec      theta_n theta_{n+1} <= GAMMA_SQ_3 *
                        ((20)_n/(30)_n)((20)_{n+1}/(30)_{n+1})      (3 <= n < m)
    A 1/phi_n <= 0 at n >= 3 raises ArithmeticFailure at the first such n.
    """
    import numpy as np

    br, n, b = ks.brackets, np.arange(1, ks.m + 1), _rational(b)
    bands = [_rational(band) for band in A.bands]
    phin_inv = phi_inv_formula(br, ratio, n)
    psin_inv = psi_inv_formula(br, ratio, n)
    bad = np.flatnonzero(phin_inv[2:] <= 0)
    if len(bad):
        at = 2 + int(bad[0])
        raise ArithmeticFailure("phi_n^{-1} must be positive", step=at + 1,
                                context=phin_inv[at])
    chain_phi = _select(b > 0, lambda at: b[at] * phin_inv[at])  # b/phi
    chain_psi = psin_inv / phin_inv  # phi/psi
    chain_12 = br(3, 0, n) / (CHAIN_3 * psin_inv)  # psi*(30)/12

    a = bands[1]  # a_{n-1,n} for n = 2..m
    n2, n3 = n[1:], n[2:]
    c = PSI_A_3
    pair = c.denominator * (b[1:] * a) * br(3, 0, n2) / (c.numerator * br(2, 0, n2))
    Mn = minor_formula(br, ratio, n3, lambda i, d: bands[d][i - 1])
    theta = b[2:] * Mn
    minor = -Mn / a[1:]
    hat_val = (1 / phin_inv[2:]) * Mn
    diff = hat_val - theta  # >= 0 since b <= phi and M >= 0
    hat = -diff / _where(hat_val > 0, hat_val, 1)
    q = br(2, 0, n3) / br(3, 0, n3)
    # the float of gamma^2 in float mode, as Fraction * float computes
    g = GAMMA_SQ_3 if q.dtype == object else float(GAMMA_SQ_3)
    consec = theta[:-1] * theta[1:] / (g * q[:-1] * q[1:])

    return (("chain_b_le_phi", 1, n, chain_phi), ("chain_phi_le_psi", 1, n, chain_psi),
            ("chain_psi_le_12", 1, n, chain_12), ("offdiag_pair", 1, n2, pair),
            ("minor_nonneg", 0, n3, minor), ("theta_hat_bound", 0, n3, hat),
            ("theta_consec", 1, n3[:-1], consec))


def verify_lemmas(ks: KnotSequence, A: SymBandedMatrix, state: GrowingInverse,
                  consts: DecayConstants, slack: float = 0.0) -> tuple:
    """Check the inequalities of the order-2 or order-3 decay proof on this
    instance: the Gram matrix A of ks and its inverse ``state`` (exact or
    float per B's dtype), against the constants ``consts``.  First the
    order's own families, then lastcol_decay, |b_{j,n}^n| <= lastcol_K
    gamma^{n-j} / eta_jn for all j <= n <= m, one kernel pass over the
    history columns (n outer, j inner), read from an exact inverse's scaled
    form without building their Fractions.  The exact families are computed
    and compared as unreduced integer pairs (``scalars._Pairs``), so the
    Fractions built here are those of the constants, as many at any m.  The
    proofs' last family, full_decay, comes from decay_report, which takes
    these checks as its ``lemma_checks``."""
    import numpy as np

    families = {2: _linear_families, 3: _quadratic_families}.get(ks.order)
    if families is None:
        raise InputError(f"no certified lemma battery for order {ks.order}")
    x = _history_parts(state)
    if state.diag_history is None or x is None:
        raise InputError("verification requires keep_history=True inversion state")
    if A.n != ks.m or A.bandwidth != ks.order - 1:
        raise InputError(f"Gram matrix of size {A.n} and bandwidth {A.bandwidth} "
                         f"does not match m = {ks.m} and order {ks.order}")
    if state.n != ks.m:
        raise InputError(f"inverse of size {state.n} does not match m = {ks.m}")
    if consts.order != ks.order:
        raise InputError(f"constants for order {consts.order} used with order {ks.order}")
    checks = [_lemma_check(name, values, None, (n,), slack, bound)
              for name, bound, n, values in families(ks, A, state.diag_history)]
    hi, lo = np.tril_indices(ks.m)
    _, _, ratio, ok = _decay_kernel(x, lo, hi, ks, consts.lastcol_K, consts.gamma,
                                    consts.gamma_sq if x.dtype == object else None)
    checks.append(_lemma_check("lastcol_decay", ratio, ok, (lo + 1, hi + 1), slack))
    return tuple(checks)


# ---------------------------------------------------------------------------
# Decay reports


@dataclass(frozen=True)
class DecayReport:
    """Decay-bound evaluation of a full inverse against given constants."""

    order: int
    m: int
    K: object
    gamma_sq: object
    worst_ratio: float
    worst_entry: tuple
    passed: bool | None
    certified: bool
    lemma_checks: tuple = field(default_factory=tuple)


def decay_report(B, ks: KnotSequence, consts: DecayConstants,
                 slack: float = 0.0, lemma_checks: tuple = ()) -> DecayReport:
    """Evaluate |b_ij| * eta_ij / (K gamma^|i-j|) over the full inverse.

    B is the m x m inverse as ``invstep._parts`` reads it: a
    GrowingInverse, whose exact entries are read from its scaled form
    without building B's Fractions, or a numpy array or rows of exact
    scalars or floats.  One kernel pass
    covers the upper triangle in row-major order; the worst entry is the
    first maximal ratio in that order.  With exact input and
    certified constants the pass/fail decision is exact: an entry passes on
    its float ratio only below 1 - (2m + 16) 2^-52, a margin that covers the
    ratio's rounding errors, and every other entry gets the exact squared
    comparison.  The reported ratios are floats either way.  Certified
    constants also carry this pass as the ``full_decay`` lemma family, after
    ``lemma_checks`` (a battery's families, from verify_lemmas with the same
    constants); the report passes when full_decay and every one of them
    pass.  Uncertified (observed) constants certify nothing: the report
    gives their ratios, and ``passed`` is None.
    """
    import numpy as np

    if consts.order != ks.order:
        raise InputError(f"constants for order {consts.order} used with order {ks.order}")
    m = ks.m
    try:
        B = _parts(B)
    except ValueError:  # ragged rows
        B = np.empty(0)
    if B.shape != (m, m):
        raise InputError(f"inverse must be {m}x{m} to match the knot sequence")
    lo, hi = np.triu_indices(m)
    exact = B.dtype == object and consts.certified
    _, _, ratio, ok = _decay_kernel(B[lo, hi], lo, hi, ks, consts.K, consts.gamma,
                                    consts.gamma_sq if exact else None)
    full = _lemma_check("full_decay", ratio, ok, (lo + 1, hi + 1), slack)
    certified = consts.certified
    passed = full.passed and all(c.passed for c in lemma_checks)
    return DecayReport(ks.order, m, consts.K, consts.gamma_sq, full.worst_ratio,
                       full.witness, passed if certified else None, certified,
                       lemma_checks + ((full,) if certified else ()))


def _observed_constants(B, ks: KnotSequence) -> DecayConstants:
    """Uncertified constants read off the inverse B (as decay_report takes
    it): with M_d the largest |b_ij| eta_ij at |i - j| = d, K = M_0 and
    gamma = max_{1 <= d < m} (M_d / M_0)^(1/d), the least rate with
    M_0 gamma^d >= M_d for every d (roots by Python float **, as the
    kernel's gamma ** e); gamma = 1 where no such M_d is positive (order 1,
    m = 1), as a rate of 0 would make the off-diagonal ratios 0/0."""
    import numpy as np

    lo, hi = np.triu_indices(ks.m)
    _, raw, _, _ = _decay_kernel(_parts(B)[lo, hi], lo, hi, ks, 1, 1.0)
    diag_max = np.zeros(ks.m)
    np.maximum.at(diag_max, hi - lo, raw)
    K = float(diag_max[0])
    q = (diag_max[1:] / K).tolist()
    gamma = max((x ** (1 / d) for d, x in enumerate(q, 1)), default=0) or 1.0
    return DecayConstants(ks.order, K, K, gamma, gamma * gamma, False)


# ---------------------------------------------------------------------------
# Serialization


def report_to_json(report: DecayReport) -> dict:
    return {
        "k": report.order,
        "m": report.m,
        "K": format_scalar(report.K),
        "gamma_sq": format_scalar(report.gamma_sq),
        "certified": report.certified,
        "passed": report.passed,
        "worst_ratio": report.worst_ratio,
        "worst_entry": list(report.worst_entry),
        "lemma_checks": [
            {"name": c.name, "pass": c.passed, "worst_slack": c.worst_slack,
             "worst_ratio": c.worst_ratio,
             "witness": list(c.witness) if c.witness is not None else None}
            for c in report.lemma_checks
        ],
    }


def report_csv_rows(B, ks: KnotSequence, consts: DecayConstants):
    """(i, j, abs_b, eta, distance, ratio) rows of Python scalars for every
    entry, row-major; B as decay_report takes it."""
    import numpy as np

    i, j = np.indices((ks.m, ks.m)).reshape(2, -1)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    x = _parts(B)[i, j]
    eta, _, ratio, _ = _decay_kernel(x, lo, hi, ks, consts.K, consts.gamma)
    return zip((i + 1).tolist(), (j + 1).tolist(), _abs_floats(x).tolist(),
               eta.tolist(), (hi - lo).tolist(), ratio.tolist())

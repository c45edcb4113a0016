"""Geometric-decay bounds for inverses of B-spline Gram matrices.

For orders k = 2 and k = 3 the inverse entries satisfy

    |b_{i,j}| <= K * gamma^{|i-j|} / eta_ij,

with explicit rational constants: K = 36/5, gamma = 2/3 for k = 2, and
K = C(1 + (16/13)C), C = 576/29, gamma = sqrt(87/100) for k = 3.  This module
evaluates the closed-form bound functions (1/phi, 1/psi, M), verifies every
intermediate inequality of the two proofs on concrete instances, and produces
decay reports.  gamma is irrational for k = 3, so exact-mode comparisons use
the squared form

    x <= K gamma^d / eta   <=>   (x*eta)^2 * den(gamma^2)^d <= K^2 * num(gamma^2)^d,

which is lossless for nonnegative x.  Exact verdicts stay exact, but most
are settled by a filter: an entry whose float ratio x eta / (K gamma^d) is
at most 1 - (2m + 16) 2^-52 passes, since that margin exceeds every rounding
error the ratio can carry (derived in ``_decay_kernel``), and only the
remaining entries, near the bound or beyond it, are compared in the squared
form over Fractions.  For k >= 4 no certified constants are available and
only an empirical least-squares fit is reported.

One private kernel, ``_decay_kernel``, evaluates the bound on a vector of
entries in either scalar mode; the decay report (which also yields the
full_decay lemma family), the last-column family, the empirical fit and the
CSV rows only build its index vectors.

The batteries only compute each lemma family's values and witnesses; one
rule decides: exact values pass at value <= bound, floats at value <= bound
+ slack.  The bound is 1 for a value lhs/rhs and 0 for the signed values of
minor_nonneg and theta_hat_bound, whose worst_slack (1 - worst_ratio, as
for every family) is thus no distance to their bound.

The order-3 bound functions 1/phi_n, 1/psi_n and M_n are written once
(``phi_inv_formula``, ``psi_inv_formula``, ``minor_formula``) over a bracket
provider and a ratio combinator, like gram.quad_formula.  The batteries
evaluate them, and every family, as array passes over all leading sizes n at
once: the array brackets ``KnotSequence.brackets`` with gram.ratio acting
elementwise, float64 arrays in float mode and object arrays of Fractions in
exact mode, with the per-element operation order of a loop over n.  That
is their one numeric evaluation; polycert evaluates the same formulas over
gap-variable brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain

from .errors import ArithmeticFailure, InputError
from .gram import _quad_bands, quad_formula, ratio
from .invstep import GrowingInverse
from .knots import KnotSequence
from .scalars import format_scalar, is_exact


@dataclass(frozen=True)
class DecayConstants:
    """Constants of the decay bound |b_ij| <= K gamma^|i-j| / eta_ij.

    ``lastcol_K`` is the (smaller) constant valid for the last column of each
    leading inverse; ``gamma_sq`` is exact, ``gamma`` its float square root.
    ``certified`` marks constants backed by the symbolic certificates rather
    than an empirical fit.
    """

    order: int
    K: object
    lastcol_K: object
    gamma: float
    gamma_sq: object
    certified: bool
    provenance: str


def decay_constants(order: int) -> DecayConstants:
    """Certified decay constants (orders 2 and 3 only)."""
    if order == 2:
        return DecayConstants(
            order=2, K=Fraction(36, 5), lastcol_K=Fraction(4),
            gamma=2.0 / 3.0, gamma_sq=Fraction(4, 9), certified=True,
            provenance="K = 36/5 = 4*(1 + (4/9)/(1 - 4/9)), gamma = 2/3, "
                       "last-column constant 4")
    if order == 3:
        C = Fraction(576, 29)
        C1 = C * (1 + Fraction(16, 13) * C)
        return DecayConstants(
            order=3, K=C1, lastcol_K=C,
            gamma=math.sqrt(0.87), gamma_sq=Fraction(87, 100), certified=True,
            provenance="gamma^2 = 87/100, C = 12*(6/5)^2/gamma^2 = 576/29, "
                       "K = C*(1 + (16/13)*C) = 5525568/10933")
    raise InputError(f"no certified decay constants for order {order}")


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


def _lemma_check(name, ratio, ok, witness, slack, bound=1) -> LemmaCheck:
    """The verdict rule of every lemma family: the exact verdicts ok decide
    when given, else each float value in ratio passes at ratio <= bound +
    slack.  The witness, from a tuple of index columns, is the first maximal
    ratio's; an empty family reads ratio 0.0 and witness None."""
    import numpy as np

    ratio = np.asarray(ratio, dtype=float)
    if not len(ratio):
        return LemmaCheck(name, True, 0.0, 1.0, None, 0)
    at = int(np.argmax(ratio))
    worst = float(ratio[at])
    passed = bool(np.all(ok if ok is not None else ratio <= bound + slack))
    return LemmaCheck(name, passed, worst, 1.0 - worst,
                      tuple(int(c[at]) for c in witness), len(ratio))


# ---------------------------------------------------------------------------
# The decay kernel


def _abs_float(v) -> float:
    """|v| as a float, inf beyond the float range (where float() raises)."""
    try:
        return abs(float(v))
    except OverflowError:
        return math.inf


def _abs_floats(x):
    """|x| as float64 for a 1-D array of Fractions or floats."""
    import numpy as np

    try:
        return np.abs(x.astype(float))
    except OverflowError:
        return np.array([_abs_float(v) for v in x])


def _decay_kernel(x, lo, hi, ks: KnotSequence, K, gamma: float, gamma_sq=None):
    """x <= K gamma^d / eta at every entry of x, d = hi - lo.

    x is a 1-D array of inverse entries (dtype object holding Fractions, or
    float64) and lo <= hi the 0-based positions whose eta_{lo+1,hi+1} weighs
    them.  Returns (eta, raw, ratio, ok): the floats eta (correctly rounded),
    raw = |x| eta and ratio = raw / (K gamma^d) (1.0 = bound attained), and,
    given gamma_sq, the exact verdicts
    (x eta)^2 den(gamma_sq)^d <= K^2 num(gamma_sq)^d (else None).  For exact
    entries whose float |x| or eta is not a normal float (an entry beyond the
    float range, an eta that underflows) raw is the float of the exact
    product |x| eta.

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
                 filtered; 2/3 and sqrt(0.87) are within 1u in gamma^2).
    These bounds hold as all operands are normal, so
    L = |ln(ratio / r)| <= (8 + 2d) u / (1 - 2u) < (2m + 8) u, as d < m.
    ratio <= 1 - delta = 1 - (4m + 32) u then gives
    r <= (1 - delta) e^L <= e^(L - delta) < 1: the entry passes exactly.
    A quotient that underflows lies far below 1 and needs no margin.
    """
    import numpy as np

    k, ts = ks.order, ks.knots
    knots = np.array(ts)
    exact_knots = isinstance(ts[0], Fraction)
    if exact_knots:
        # integer differences over the common denominator, each rounded once
        # by int true division: the floats of float(t_a - t_b), far cheaper
        common = math.lcm(*(t.denominator for t in ts))
        num = np.array([t.numerator * (common // t.denominator) for t in ts],
                       dtype=object)
        eta = ((num[hi + k] - num[lo]) / common).astype(float)
    else:
        eta = knots[hi + k] - knots[lo]
    d = hi - lo
    ax = _abs_floats(x)
    with np.errstate(invalid="ignore"):  # inf * 0, replaced just below
        raw = ax * eta
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if exact_knots and x.dtype == object:
        for e in np.flatnonzero(~((ax >= tiny) & (ax <= huge) & (eta >= tiny))):
            raw[e] = _abs_float(x[e] * (knots[hi[e] + k] - knots[lo[e]]))
    pw = np.array([gamma ** e for e in range(ks.m)])[d]
    scale = float(K) * pw
    ratio = raw / scale
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
            den = np.array([g.denominator ** e for e in range(top)], dtype=object)
            rhs = np.array([K * K * g.numerator ** e for e in range(top)],
                           dtype=object)
            v = np.abs(x[todo]) * (knots[hi[todo] + k] - knots[lo[todo]])
            ok[todo] = v * v * den[dt] <= rhs[dt]
    return eta, raw, ratio, ok


# ---------------------------------------------------------------------------
# Lemma batteries: each family as (name, bound, witness n, values), the
# values one array over n of exact scalars (an object array) or float64;
# verify_lemmas applies the verdict rule.


def _select(cond, value, fill=math.inf):
    """value(at) at the positions ``at`` where cond holds, fill elsewhere:
    value sees only those positions, so what cond guards never runs."""
    import numpy as np

    at = np.flatnonzero(cond)
    part = value(at)
    out = np.full(len(cond), fill, part.dtype)
    out[at] = part
    return out


def _linear_families(ks: KnotSequence, state: GrowingInverse) -> tuple:
    """The order-2 families over all leading sizes n, one array pass each,
    each value lhs/rhs of its inequality (bound 1; inf where b_{n,n}^n <= 0):
      sandwich_lower   3/(20)_n <= b_{n,n}^n
      sandwich_middle  b_{n,n}^n <= 3/((3/4)(10)_n + (21)_n)
      sandwich_outer   3/((3/4)(10)_n + (21)_n) <= 4/(20)_n
    """
    import numpy as np

    br, n = ks.brackets, np.arange(1, ks.m + 1)
    b = np.array(state.diag_history)
    b20, b10, b21 = br(2, 0, n), br(1, 0, n), br(2, 1, n)
    mid_den = 3 * b10 + 4 * b21  # 4*((3/4)(10) + (21))
    return (("sandwich_lower", 1, n, _select(b > 0, lambda at: 3 / (b20[at] * b[at]))),
            ("sandwich_middle", 1, n, _select(b > 0, lambda at: b[at] * mid_den[at] / 12)),
            ("sandwich_outer", 1, n, 3 * b20 / mid_den))


def _quadratic_families(ks: KnotSequence, state: GrowingInverse) -> tuple:
    """The order-3 families, each one array pass over n: 1/phi_n and 1/psi_n
    for all n at once, a_{n-1,n} and the other entries of M_n from the
    Gram diagonals of gram._quad_bands.  Each value is lhs/rhs of its
    inequality (bound 1; inf where b_{n,n}^n <= 0), except the two sign
    families, whose signed values -M_n/a_{n-1,n} and
    -(phi_n M_n - theta_n)/(phi_n M_n) have bound 0:
      chain_b_le_phi    b_{n,n}^n <= phi_n
      chain_phi_le_psi  phi_n <= psi_n
      chain_psi_le_12   psi_n <= 12/(30)_n
      offdiag_pair      b_{n,n}^n a_{n-1,n} <= (6/5)(20)_n/(30)_n   (n >= 2)
      minor_nonneg      M_n >= 0                                    (n >= 3)
      theta_hat_bound   theta_n <= phi_n M_n                        (n >= 3)
      theta_consec      theta_n theta_{n+1} <= (87/100) *
                        ((20)_n/(30)_n)((20)_{n+1}/(30)_{n+1})      (3 <= n < m)
    A 1/phi_n <= 0 at n >= 3 raises ArithmeticFailure at the first such n.
    """
    import numpy as np

    br, n = ks.brackets, np.arange(1, ks.m + 1)
    b = np.array(state.diag_history)
    phin_inv, psin_inv = phi_inv_formula(br, ratio, n), psi_inv_formula(br, ratio, n)
    bad = np.flatnonzero(phin_inv[2:] <= 0)
    if len(bad):
        at = 2 + int(bad[0])
        raise ArithmeticFailure("phi_n^{-1} must be positive", step=at + 1,
                                context=phin_inv.tolist()[at])
    chain_phi = _select(b > 0, lambda at: b[at] * phin_inv[at])  # b/phi
    chain_psi = psin_inv / phin_inv  # phi/psi
    chain_12 = br(3, 0, n) / (12 * psin_inv)  # psi*(30)/12

    bands = _quad_bands(ks)
    a = bands[1]  # a_{n-1,n} for n = 2..m
    n2, n3 = n[1:], n[2:]
    pair = 5 * (b[1:] * a) * br(3, 0, n2) / (6 * br(2, 0, n2))
    Mn = minor_formula(br, ratio, n3, lambda i, d: bands[d][i - 1])
    theta = b[2:] * Mn
    minor = -Mn / a[1:]
    hat_val = (1 / phin_inv[2:]) * Mn
    diff = hat_val - theta  # >= 0 since b <= phi and M >= 0
    hat = -diff / np.where(hat_val > 0, hat_val, 1)
    q = br(2, 0, n3) / br(3, 0, n3)
    # the float of 87/100 in float mode, as Fraction * float computes
    g = Fraction(87, 100) if q.dtype == object else float(Fraction(87, 100))
    consec = theta[:-1] * theta[1:] / (g * q[:-1] * q[1:])

    return (("chain_b_le_phi", 1, n, chain_phi), ("chain_phi_le_psi", 1, n, chain_psi),
            ("chain_psi_le_12", 1, n, chain_12), ("offdiag_pair", 1, n2, pair),
            ("minor_nonneg", 0, n3, minor), ("theta_hat_bound", 0, n3, hat),
            ("theta_consec", 1, n3[:-1], consec))


def verify_lemmas(ks: KnotSequence, state: GrowingInverse,
                  slack: float = 0.0) -> tuple:
    """Check the inequalities of the order-2 or order-3 decay proof on this
    instance (exact or float per the history's scalars): the order's own
    families, then lastcol_decay, |b_{j,n}^n| <= lastcol_K gamma^{n-j} / eta_jn
    for all j <= n <= m, one kernel pass over the history columns (n outer,
    j inner).  The proofs' last family, full_decay, comes from decay_report.
    Exact values are compared with their family's bound here, float values
    in _lemma_check."""
    import numpy as np

    families = {2: _linear_families, 3: _quadratic_families}.get(ks.order)
    if families is None:
        raise InputError(f"no certified lemma battery for order {ks.order}")
    if state.diag_history is None or state.col_history is None:
        raise InputError("verification requires keep_history=True inversion state")
    if state.n != ks.m:
        raise InputError(f"inverse of size {state.n} does not match m = {ks.m}")
    consts = decay_constants(ks.order)
    exact = is_exact(state.diag_history[0])
    checks = []
    for name, bound, n, values in families(ks, state):
        ok = values <= bound if exact else None
        checks.append(_lemma_check(name, values, ok, (n,), slack, bound))
    hi, lo = np.tril_indices(ks.m)
    x = np.array(list(chain.from_iterable(state.col_history)))
    _, _, ratio, ok = _decay_kernel(x, lo, hi, ks, consts.lastcol_K, consts.gamma,
                                    consts.gamma_sq if exact else None)
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
    passed: bool
    certified: bool
    lemma_checks: tuple = field(default_factory=tuple)


def decay_report(B, ks: KnotSequence, consts: DecayConstants | None = None,
                 slack: float = 0.0) -> DecayReport:
    """Evaluate |b_ij| * eta_ij / (K gamma^|i-j|) over the full inverse.

    B is the dense m x m inverse (rows of exact scalars, or a numpy array).
    One kernel pass covers the upper triangle in row-major order; the worst
    entry is the first maximal ratio in that order.  With exact input and
    certified constants the pass/fail decision is exact: an entry passes on
    its float ratio only below 1 - (2m + 16) 2^-52, a margin that covers the
    ratio's rounding errors, and every other entry gets the exact squared
    comparison.  The reported ratios are floats either way.  Certified
    constants also carry this pass as the ``full_decay`` lemma family.
    """
    import numpy as np

    if consts is None:
        consts = decay_constants(ks.order)
    if consts.order != ks.order:
        raise InputError(f"constants for order {consts.order} used with order {ks.order}")
    m = ks.m
    if len(B) != m or any(len(row) != m for row in B):
        raise InputError(f"inverse must be {m}x{m} to match the knot sequence")
    B = np.asarray(B)
    exact_verdicts = B.dtype == object and consts.certified
    lo, hi = np.triu_indices(m)
    _, _, ratio, ok = _decay_kernel(B[lo, hi], lo, hi, ks, consts.K, consts.gamma,
                                    consts.gamma_sq if exact_verdicts else None)
    full = _lemma_check("full_decay", ratio, ok, (lo + 1, hi + 1), slack)
    return DecayReport(ks.order, m, consts.K, consts.gamma_sq, full.worst_ratio,
                       full.witness, full.passed, consts.certified,
                       (full,) if consts.certified else ())


def fit_decay_constants(B, ks: KnotSequence) -> DecayConstants:
    """Empirical (uncertified) constants from a least-squares geometric fit.

    Fits log(max_{|i-j|=d} |b_ij| eta_ij) ~ log K + d log gamma over the
    diagonals with nonzero maxima.  Intended for orders >= 4 where no
    certified constants exist.
    """
    import numpy as np

    lo, hi = np.triu_indices(ks.m)
    _, raw, _, _ = _decay_kernel(np.asarray(B)[lo, hi], lo, hi, ks, 1, 1.0)
    diag_max = np.zeros(ks.m)
    np.maximum.at(diag_max, hi - lo, raw)
    ds = np.flatnonzero(diag_max > 0)
    if len(ds) >= 2:
        slope, intercept = np.polyfit(ds.astype(float), np.log(diag_max[ds]), 1)
        gamma = float(np.exp(slope))
        K = float(np.exp(intercept))
    else:
        gamma, K = 1.0, (float(diag_max[ds[0]]) if len(ds) else 1.0)
    gamma = min(max(gamma, 1e-12), 1.0)
    return DecayConstants(order=ks.order, K=K, lastcol_K=K, gamma=gamma,
                          gamma_sq=gamma * gamma, certified=False,
                          provenance=f"least-squares fit over {len(ds)} diagonals")


def attach_lemma_checks(report: DecayReport, checks) -> DecayReport:
    """Put a battery's families in front of the report's own (full_decay)."""
    checks = tuple(checks)
    return replace(report, lemma_checks=checks + report.lemma_checks,
                   passed=report.passed and all(c.passed for c in checks))


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
    entry, row-major."""
    import numpy as np

    i, j = np.indices((ks.m, ks.m)).reshape(2, -1)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    x = np.asarray(B)[i, j]
    eta, _, ratio, _ = _decay_kernel(x, lo, hi, ks, consts.K, consts.gamma)
    return zip((i + 1).tolist(), (j + 1).tolist(), _abs_floats(x).tolist(),
               eta.tolist(), (hi - lo).tolist(), ratio.tolist())

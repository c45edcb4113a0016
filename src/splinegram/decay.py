"""Geometric-decay bounds for inverses of B-spline Gram matrices.

For orders k = 2 and k = 3 the inverse entries satisfy

    |b_{i,j}| <= K * gamma^{|i-j|} / eta_ij,

with explicit rational constants: K = 36/5, gamma = 2/3 for k = 2, and
K = C(1 + (16/13)C), C = 576/29, gamma = sqrt(87/100) for k = 3.  This module
evaluates the closed-form bound functions (phi, psi, theta), verifies every
intermediate inequality of the two proofs on concrete instances, and produces
decay reports.  gamma is irrational for k = 3, so exact-mode comparisons use
the squared form

    x <= K gamma^d / eta   <=>   (x*eta)^2 * den(gamma^2)^d <= K^2 * num(gamma^2)^d,

which is lossless for nonnegative x.  For k >= 4 no certified constants are
available and only an empirical least-squares fit is reported.

The order-3 bound functions 1/phi_n, 1/psi_n and M_n are written once
(``phi_inv_formula``, ``psi_inv_formula``, ``minor_formula``) over a bracket
provider and a ratio combinator, like gram.quad_formula; the functions here
apply them to knot brackets, and polycert to gap-variable brackets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .errors import ArithmeticFailure, InputError
from .gram import quad_entry, quad_formula, ratio
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


def minor_formula(br, ratio, n: int):
    """M_n = a_{n-1,n} - a_{n-2,n} a_{n-1,n-1} / a_{n-2,n-1}, from the
    entries of gram.quad_formula."""
    def a(i, d):
        return quad_formula(br, ratio, i, d)
    return a(n - 1, 1) - a(n - 2, 2) * a(n - 1, 0) / a(n - 2, 1)


def phi_inv(ks: KnotSequence, n: int):
    """1/phi_n: the lower bound for 1/b_{n,n}^n (phi_inv_formula at the knot
    brackets, zero-numerator rule of gram.ratio)."""
    if ks.order != 3:
        raise InputError("phi is defined for order-3 sequences")
    if not (1 <= n <= ks.m):
        raise InputError(f"index {n} outside [1,{ks.m}]")
    return phi_inv_formula(ks.bracket, ratio, n)


def phi_fn(ks: KnotSequence, n: int):
    """phi_n, the certified upper bound for b_{n,n}^n (order 3)."""
    inv = phi_inv(ks, n)
    if inv <= 0:
        raise ArithmeticFailure("phi_n^{-1} must be positive", step=n, context=inv)
    return 1 / inv


def psi_inv(ks: KnotSequence, n: int):
    """1/psi_n (psi_inv_formula at the knot brackets)."""
    if ks.order != 3:
        raise InputError("psi is defined for order-3 sequences")
    if not (1 <= n <= ks.m):
        raise InputError(f"index {n} outside [1,{ks.m}]")
    return psi_inv_formula(ks.bracket, ratio, n)


def psi_fn(ks: KnotSequence, n: int):
    """psi_n, the weaker product-friendly upper bound for b_{n,n}^n."""
    inv = psi_inv(ks, n)
    if inv <= 0:
        raise ArithmeticFailure("psi_n^{-1} must be positive", step=n, context=inv)
    return 1 / inv


def minor_adjusted_factor(ks: KnotSequence, n: int):
    """M_n (minor_formula at the knot brackets; order 3, n >= 3).

    The numerator of M_n is the 2x2 minor on rows (n-2,n-1), columns (n-1,n);
    total positivity makes it nonnegative.
    """
    if ks.order != 3:
        raise InputError("the minor-adjusted factor requires order 3")
    if n < 3:
        raise InputError(f"minor-adjusted factor needs n >= 3, got {n}")
    if n > ks.m:
        raise InputError(f"index {n} outside [1,{ks.m}]")
    return minor_formula(ks.bracket, ratio, n)


def theta_fn(ks: KnotSequence, n: int, b_nn):
    """theta_n = b_{n,n}^n * M_n; defined for n >= 3 (InputError below)."""
    return b_nn * minor_adjusted_factor(ks, n)


# ---------------------------------------------------------------------------
# Comparison helpers


def _decay_ok_exact(x, eta_val, d: int, K, gamma_sq) -> bool:
    """Exact test of x <= K*gamma^d/eta for x, eta >= 0 via the squared form."""
    lhs = Fraction(x) ** 2 * Fraction(eta_val) ** 2 * Fraction(gamma_sq).denominator ** d
    rhs = Fraction(K) ** 2 * Fraction(gamma_sq).numerator ** d
    return lhs <= rhs


def _decay_ratio_float(x, eta_val, d: int, K, gamma: float) -> float:
    """x*eta/(K*gamma^d) as a float (reporting value, 1.0 = bound attained)."""
    return float(x) * float(eta_val) / (float(K) * gamma ** d)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one verified inequality family on a concrete instance."""

    name: str
    passed: bool
    worst_ratio: float
    worst_slack: float
    witness: tuple | None
    comparisons: int


class _CheckAccumulator:
    """Tracks the worst ratio/witness over a family of comparisons."""

    def __init__(self, name: str, slack: float):
        self.name = name
        self.slack = slack
        self.worst = float("-inf")
        self.witness = None
        self.count = 0
        self.failed = False

    def add(self, ratio: float, ok: bool | None, witness) -> None:
        self.count += 1
        if ratio > self.worst:
            self.worst = ratio
            self.witness = witness
        passed = ok if ok is not None else (ratio <= 1.0 + self.slack)
        if not passed:
            self.failed = True

    def result(self) -> LemmaCheck:
        worst = self.worst if self.count else 0.0
        return LemmaCheck(self.name, not self.failed, worst, 1.0 - worst,
                          self.witness, self.count)


def _require_history(ks: KnotSequence, state: GrowingInverse):
    if state.diag_history is None or state.col_history is None:
        raise InputError("verification requires keep_history=True inversion state")
    if state.n != ks.m:
        raise InputError(f"inverse of size {state.n} does not match m = {ks.m}")


# ---------------------------------------------------------------------------
# Order-2 lemma battery


def verify_linear_lemmas(ks: KnotSequence, state: GrowingInverse,
                         slack: float = 0.0) -> tuple:
    """Check every inequality of the order-2 decay proof on this instance.

    Families (all leading sizes n, exact or float per the input scalars):
      sandwich_lower   3/(20)_n <= b_{n,n}^n
      sandwich_middle  b_{n,n}^n <= 3/((3/4)(10)_n + (21)_n)
      sandwich_outer   3/((3/4)(10)_n + (21)_n) <= 4/(20)_n
      lastcol_decay    |b_{j,n}^n| <= 4 (2/3)^{n-j} / eta_jn
      full_decay       |b_{i,j}| <= (36/5)(2/3)^{|i-j|} / eta_ij  (n = m)
    """
    if ks.order != 2:
        raise InputError("verify_linear_lemmas requires an order-2 sequence")
    _require_history(ks, state)
    consts = decay_constants(2)
    exact = is_exact(state.diag_history[0])
    m = ks.m
    br = ks.bracket

    lower = _CheckAccumulator("sandwich_lower", slack)
    middle = _CheckAccumulator("sandwich_middle", slack)
    outer = _CheckAccumulator("sandwich_outer", slack)
    for n in range(1, m + 1):
        b = state.diag_history[n - 1]
        b20, b10, b21 = br(2, 0, n), br(1, 0, n), br(2, 1, n)
        mid_den = 3 * b10 + 4 * b21  # 4*((3/4)(10) + (21))
        if b <= 0:
            lower.add(float("inf"), False, (n,))
            middle.add(float("inf"), False, (n,))
        else:
            r = 3 / (b20 * b)
            lower.add(float(r), (r <= 1) if exact else None, (n,))
            r = b * mid_den / 12
            middle.add(float(r), (r <= 1) if exact else None, (n,))
        r = 3 * b20 / mid_den
        outer.add(float(r), (r <= 1) if exact else None, (n,))

    return (lower.result(), middle.result(), outer.result(),
            _lastcol_decay(ks, state, consts, exact, slack),
            _full_decay(ks, state.B, consts, exact, slack))


def _lastcol_decay(ks: KnotSequence, state: GrowingInverse,
                   consts: DecayConstants, exact: bool, slack: float) -> LemmaCheck:
    """|b_{j,n}^n| <= lastcol_K gamma^{n-j} / eta_jn for all j <= n <= m."""
    lastcol = _CheckAccumulator("lastcol_decay", slack)
    for n in range(1, ks.m + 1):
        col = state.col_history[n - 1]
        for j in range(1, n + 1):
            x = abs(col[j - 1])
            ev = ks.eta(j, n)
            d = n - j
            r = _decay_ratio_float(x, ev, d, consts.lastcol_K, consts.gamma)
            ok = _decay_ok_exact(x, ev, d, consts.lastcol_K, consts.gamma_sq) \
                if exact else None
            lastcol.add(r, ok, (j, n))
    return lastcol.result()


def _full_decay(ks: KnotSequence, B, consts: DecayConstants, exact: bool,
                slack: float) -> LemmaCheck:
    """|b_{i,j}| <= K gamma^{|i-j|} / eta_ij over the full inverse."""
    acc = _CheckAccumulator("full_decay", slack)
    m, K = ks.m, consts.K
    if exact:
        for i in range(1, m + 1):
            for j in range(i, m + 1):
                x = abs(B[i - 1][j - 1])
                ev = ks.eta(i, j)
                d = j - i
                r = _decay_ratio_float(x, ev, d, K, consts.gamma)
                acc.add(r, _decay_ok_exact(x, ev, d, K, consts.gamma_sq), (i, j))
        return acc.result()
    import numpy as np

    tk = np.array([float(ks.knot(i)) for i in range(1, m + ks.order + 1)])
    idx = np.arange(m)
    hi = np.maximum.outer(idx, idx) + ks.order  # max(i,j)+k as 0-based knot index
    lo = np.minimum.outer(idx, idx)
    eta_mat = tk[hi] - tk[lo]
    d_mat = np.abs(np.subtract.outer(idx, idx))
    ratios = np.abs(np.asarray(B, dtype=float)) * eta_mat / (float(K) * consts.gamma ** d_mat)
    flat = int(np.argmax(ratios))
    i0, j0 = divmod(flat, m)
    worst = float(ratios[i0, j0])
    acc.add(worst, worst <= 1.0 + slack, (i0 + 1, j0 + 1))
    acc.count = m * m
    return acc.result()


# ---------------------------------------------------------------------------
# Order-3 lemma battery


def verify_quadratic_lemmas(ks: KnotSequence, state: GrowingInverse,
                            slack: float = 0.0) -> tuple:
    """Check every inequality of the order-3 decay proof on this instance.

    Families:
      chain_b_le_phi    b_{n,n}^n <= phi_n
      chain_phi_le_psi  phi_n <= psi_n
      chain_psi_le_12   psi_n <= 12/(30)_n
      offdiag_pair      b_{n,n}^n a_{n-1,n} <= (6/5)(20)_n/(30)_n   (n >= 2)
      minor_nonneg      M_n >= 0                                    (n >= 3)
      theta_hat_bound   theta_n <= phi_n M_n                        (n >= 3)
      theta_consec      theta_n theta_{n+1} <= (87/100) *
                        ((20)_n/(30)_n)((20)_{n+1}/(30)_{n+1})      (3 <= n < m)
      lastcol_decay     |b_{j,n}^n| <= C q^{n-j}/eta_jn, C = 576/29
      full_decay        |b_{i,j}| <= C1 q^{|i-j|}/eta_ij at n = m
    """
    if ks.order != 3:
        raise InputError("verify_quadratic_lemmas requires an order-3 sequence")
    _require_history(ks, state)
    consts = decay_constants(3)
    exact = is_exact(state.diag_history[0])
    m = ks.m
    br = ks.bracket

    chain_phi = _CheckAccumulator("chain_b_le_phi", slack)
    chain_psi = _CheckAccumulator("chain_phi_le_psi", slack)
    chain_12 = _CheckAccumulator("chain_psi_le_12", slack)
    for n in range(1, m + 1):
        b = state.diag_history[n - 1]
        phin_inv, psin_inv = phi_inv(ks, n), psi_inv(ks, n)
        if b <= 0:
            chain_phi.add(float("inf"), False, (n,))
        else:
            r = b * phin_inv  # b/phi
            chain_phi.add(float(r), (r <= 1) if exact else None, (n,))
        r = psin_inv / phin_inv  # phi/psi = (1/psi)/(1/phi) inverted
        chain_psi.add(float(r), (r <= 1) if exact else None, (n,))
        r = br(3, 0, n) / (12 * psin_inv)  # psi*(30)/12
        chain_12.add(float(r), (r <= 1) if exact else None, (n,))

    pair = _CheckAccumulator("offdiag_pair", slack)
    for n in range(2, m + 1):
        b = state.diag_history[n - 1]
        lhs = b * quad_entry(ks, n - 1, n)
        r = 5 * lhs * br(3, 0, n) / (6 * br(2, 0, n))
        pair.add(float(r), (r <= 1) if exact else None, (n,))

    minor = _CheckAccumulator("minor_nonneg", slack)
    hat = _CheckAccumulator("theta_hat_bound", slack)
    thetas = {}
    for n in range(3, m + 1):
        Mn = minor_adjusted_factor(ks, n)
        b = state.diag_history[n - 1]
        thetas[n] = b * Mn
        # ratio -M/scale so that any positive value signals failure
        scale = quad_entry(ks, n - 1, n)
        r = -Mn / scale
        minor.add(float(r), (Mn >= 0) if exact else None, (n,))
        hat_val = phi_fn(ks, n) * Mn
        diff = hat_val - thetas[n]  # >= 0 since b <= phi and M >= 0
        r = -diff / (hat_val if hat_val > 0 else 1)
        hat.add(float(r), (diff >= 0) if exact else None, (n,))

    consec = _CheckAccumulator("theta_consec", slack)
    for n in range(3, m):
        lhs = thetas[n] * thetas[n + 1]
        rhs = (Fraction(87, 100) if exact else 0.87) \
            * (br(2, 0, n) / br(3, 0, n)) * (br(2, 0, n + 1) / br(3, 0, n + 1))
        r = lhs / rhs
        consec.add(float(r), (lhs <= rhs) if exact else None, (n,))

    return (chain_phi.result(), chain_psi.result(), chain_12.result(),
            pair.result(), minor.result(), hat.result(), consec.result(),
            _lastcol_decay(ks, state, consts, exact, slack),
            _full_decay(ks, state.B, consts, exact, slack))


def verify_lemmas(ks: KnotSequence, state: GrowingInverse,
                  slack: float = 0.0) -> tuple:
    """Dispatch to the order-2 or order-3 battery."""
    if ks.order == 2:
        return verify_linear_lemmas(ks, state, slack)
    if ks.order == 3:
        return verify_quadratic_lemmas(ks, state, slack)
    raise InputError(f"no certified lemma battery for order {ks.order}")


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
    per_diagonal_max: tuple
    passed: bool
    certified: bool
    lemma_checks: tuple = field(default_factory=tuple)


def decay_report(B, ks: KnotSequence, consts: DecayConstants | None = None,
                 slack: float = 0.0) -> DecayReport:
    """Evaluate |b_ij| * eta_ij / (K gamma^|i-j|) over the full inverse.

    B is the dense m x m inverse (rows of exact scalars, or a numpy array).
    With exact input and certified constants the pass/fail decision uses
    exact squared comparisons; the reported ratios are floats either way.
    """
    if consts is None:
        consts = decay_constants(ks.order)
    if consts.order != ks.order:
        raise InputError(f"constants for order {consts.order} used with order {ks.order}")
    m = ks.m
    if len(B) != m or any(len(row) != m for row in B):
        raise InputError(f"inverse must be {m}x{m} to match the knot sequence")
    exact = all(is_exact(x) for row in B for x in row)

    per_diag = [0.0] * m
    worst = float("-inf")
    worst_entry = (1, 1)
    passed = True
    use_exact = exact and consts.certified
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            x = abs(B[i - 1][j - 1])
            ev = ks.eta(i, j)
            d = j - i
            raw = float(x) * float(ev)
            if raw > per_diag[d]:
                per_diag[d] = raw
            ratio = _decay_ratio_float(x, ev, d, consts.K, consts.gamma)
            if ratio > worst:
                worst, worst_entry = ratio, (i, j)
            if use_exact:
                if not _decay_ok_exact(x, ev, d, consts.K, consts.gamma_sq):
                    passed = False
            elif ratio > 1.0 + slack:
                passed = False
    return DecayReport(ks.order, m, consts.K, consts.gamma_sq, worst,
                       worst_entry, tuple(per_diag), passed, consts.certified)


def fit_decay_constants(B, ks: KnotSequence) -> DecayConstants:
    """Empirical (uncertified) constants from a least-squares geometric fit.

    Fits log(max_{|i-j|=d} |b_ij| eta_ij) ~ log K + d log gamma over the
    diagonals with nonzero maxima.  Intended for orders >= 4 where no
    certified constants exist.
    """
    import numpy as np

    m = ks.m
    diag_max = [0.0] * m
    for i in range(1, m + 1):
        for j in range(i, m + 1):
            raw = abs(float(B[i - 1][j - 1])) * float(ks.eta(i, j))
            d = j - i
            if raw > diag_max[d]:
                diag_max[d] = raw
    pts = [(d, v) for d, v in enumerate(diag_max) if v > 0]
    if len(pts) >= 2:
        ds = np.array([p[0] for p in pts], dtype=float)
        logs = np.log(np.array([p[1] for p in pts]))
        slope, intercept = np.polyfit(ds, logs, 1)
        gamma = float(np.exp(slope))
        K = float(np.exp(intercept))
    else:
        gamma, K = 1.0, (pts[0][1] if pts else 1.0)
    gamma = min(max(gamma, 1e-12), 1.0)
    return DecayConstants(order=ks.order, K=K, lastcol_K=K, gamma=gamma,
                          gamma_sq=gamma * gamma, certified=False,
                          provenance=f"least-squares fit over {len(pts)} diagonals")


def attach_lemma_checks(report: DecayReport, checks) -> DecayReport:
    return replace(report, lemma_checks=tuple(checks),
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
    """Yield (i, j, abs_b, eta, distance, ratio) rows for every entry."""
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            x = abs(B[i - 1][j - 1])
            ev = ks.eta(i, j)
            d = abs(i - j)
            yield (i, j, float(x), float(ev), d,
                   _decay_ratio_float(x, ev, d, consts.K, consts.gamma))

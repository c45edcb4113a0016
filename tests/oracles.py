"""Independent reference implementations that the tests compare the
package against, and small helpers the tests share.

None of this is reached by the CLI: each oracle computes a quantity by a
route of its own (scalar brackets one index at a time, fraction-free dense
elimination, exhaustive minors, the explicit quadratic branches, the
Takahashi recurrence one row at a time), so that a test equating it with
the package's array paths checks both.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd

from splinegram.decay import minor_formula, phi_inv_formula
from splinegram.errors import ArithmeticFailure, InputError, ResourceBudgetError
from splinegram.gram import SymBandedMatrix, quad_formula, ratio
from splinegram.invstep import GrowingInverse
from splinegram.knots import KnotSequence, knots_to_json
from splinegram.multipoly import FactoredRational
from splinegram.polycert import GapBasis, _sym, sym_ratio


# ---------------------------------------------------------------------------
# Scalar formulas


def bracket(ks: KnotSequence, ell: int, en: int, j: int):
    """(ell en)_j = t_{j+ell} - t_{j+en}, one index at a time (the package's
    ``KnotSequence.brackets`` gathers whole index arrays)."""
    return ks.knot(j + ell) - ks.knot(j + en)


def eta(ks: KnotSequence, i: int, j: int):
    """eta_ij = t_{max(i,j)+k} - t_{min(i,j)}, the length of J_ij."""
    m = ks.m
    if not (1 <= i <= m and 1 <= j <= m):
        raise InputError(f"eta indices must lie in [1,{m}], got ({i},{j})")
    return ks.knot(max(i, j) + ks.order) - ks.knot(min(i, j))


def scalar_ratio(num_factors, den_factors):
    """The zero-numerator rule on scalars: a zero numerator factor gives
    that factor's zero before any division; factors multiply left to
    right, the numerator's first."""
    num = None
    for f in num_factors:
        if f == 0:
            return f * 0
        num = f if num is None else num * f
    den = None
    for f in den_factors:
        den = f if den is None else den * f
    return num / den


def quadratic_cross_terms(ks: KnotSequence, i: int):
    """The two partial integrals of N_i N_{i+1} (order 3).

    Returns (integral over [t_{i+1},t_{i+2}], integral over [t_{i+2},t_{i+3}]);
    their sum is the Gram entry a_{i,i+1}.
    """
    if ks.order != 3:
        raise InputError("quadratic_cross_terms requires an order-3 knot sequence")
    if not (1 <= i <= ks.m - 1):
        raise InputError(f"cross-term index {i} outside [1,{ks.m - 1}]")
    br = partial(bracket, ks)
    b10, b21, b32, b43 = br(1, 0, i), br(2, 1, i), br(3, 2, i), br(4, 3, i)
    b20, b31, b42 = br(2, 0, i), br(3, 1, i), br(4, 2, i)
    first = (scalar_ratio((b21, b21), (10, b31))
             + scalar_ratio((b21, b21, b10), (30, b20, b31))
             + scalar_ratio((b21, b21, b32), (5, b31, b31)))
    second = (scalar_ratio((b32, b32), (10, b31))
              + scalar_ratio((b32, b32, b43), (30, b42, b31))
              + scalar_ratio((b32, b32, b21), (5, b31, b31)))
    return first, second


def interval_index(ks: KnotSequence, x):
    """Largest j with t_j <= x < t_{j+1}; x = 1 belongs to [t_m, t_{m+1}).

    Returns an index in [k, m] for x in [0,1] (the nonempty intervals), by
    binary search: the oracles' own point locator (the package never
    locates a point, since its quadrature works interval by interval).
    """
    k, m = ks.order, ks.m
    if x < 0 or x > 1:
        raise InputError(f"evaluation point {x!r} outside [0,1]")
    if x == 1:
        return m
    lo, hi = k, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ks.knot(mid) <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def eval_bspline(ks: KnotSequence, i: int, ord: int, x):
    """N_{i,ord}(x) by the Cox-de Boor recursion, one spline at a time
    (the package's ``gram._bspline_pieces`` builds the triangles of every
    knot interval at once).

    Half-open-interval convention: N_{j,1} is the indicator of the interval
    that contains x, x = 1 belonging to the last nonempty one, so the last
    spline is 1 at x = 1.  Terms over zero-length knot intervals contribute
    zero.
    """
    if not (1 <= i <= ks.m):
        raise InputError(f"spline index {i} outside [1,{ks.m}]")
    if not (1 <= ord <= ks.order):
        raise InputError(f"spline order {ord} outside [1,{ks.order}]")
    j = interval_index(ks, x)
    t, zero = ks.knot, x * 0

    def N(p, r):
        if r == 1:
            return zero + 1 if p == j else zero
        value = zero
        if t(p + r - 1) != t(p):
            value += (x - t(p)) / (t(p + r - 1) - t(p)) * N(p, r - 1)
        if t(p + r) != t(p + 1):
            value += (t(p + r) - x) / (t(p + r) - t(p + 1)) * N(p + 1, r - 1)
        return value

    return N(i, ord)


def eval_quadratic_closed(ks: KnotSequence, i: int, x):
    """The explicit three-branch quadratic N_{i,3}(x) (order k = 3 only).

    Branches (b := the index of the interval containing x, x = 1 clamping to
    the last nonempty interval, matching eval_bspline):

      [t_i,t_{i+1}):   (x-t_i)^2 / ((20)_i (10)_i)
      [t_{i+1},t_{i+2}): (x-t_i)(t_{i+2}-x)/((20)_i (21)_i)
                          + (x-t_{i+1})(t_{i+3}-x)/((31)_i (21)_i)
      [t_{i+2},t_{i+3}): (t_{i+3}-x)^2 / ((31)_i (32)_i)
    """
    if ks.order != 3:
        raise InputError("eval_quadratic_closed requires an order-3 sequence")
    if not (1 <= i <= ks.m):
        raise InputError(f"spline index {i} outside [1,{ks.m}]")
    j = interval_index(ks, x)
    zero = x * 0
    t = ks.knot
    if j == i:
        return (x - t(i)) ** 2 / (bracket(ks, 2, 0, i) * bracket(ks, 1, 0, i))
    if j == i + 1:
        first = (x - t(i)) * (t(i + 2) - x) / (bracket(ks, 2, 0, i) * bracket(ks, 2, 1, i))
        second = (x - t(i + 1)) * (t(i + 3) - x) / (bracket(ks, 3, 1, i) * bracket(ks, 2, 1, i))
        return first + second
    if j == i + 2:
        return (t(i + 3) - x) ** 2 / (bracket(ks, 3, 1, i) * bracket(ks, 3, 2, i))
    return zero


# ---------------------------------------------------------------------------
# Dense exact inverse


def to_dense(A: SymBandedMatrix) -> list:
    """A as a dense list of row lists."""
    return [[A.get(i, j) for j in range(1, A.n + 1)] for i in range(1, A.n + 1)]


def dense_inverse_oracle(A):
    """Exact inverse by fraction-free Gauss-Jordan elimination.

    Rows are scaled to integers (row lcm of denominators), eliminated with
    Bareiss-style one-step exact divisions, and the result is verified by
    A * Ainv == I before returning.  Accepts a dense list of rows or a
    SymBandedMatrix.  Raises ArithmeticFailure if A is exactly singular.
    """
    if isinstance(A, SymBandedMatrix):
        A = to_dense(A)
    n = len(A)
    rows = [[Fraction(x) for x in row] for row in A]
    if any(len(r) != n for r in rows):
        raise InputError("dense_inverse_oracle requires a square matrix")
    if not all(isinstance(x, (int, Fraction)) for row in A for x in row):
        raise InputError("dense_inverse_oracle requires exact scalars")
    aug = []
    for i, row in enumerate(rows):
        scale = 1
        for x in row:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        irow = [int(x * scale) for x in row]
        aug.append(irow + [scale if j == i else 0 for j in range(n)])

    prev = 1
    for col in range(n):
        if aug[col][col] == 0:
            for r in range(col + 1, n):
                if aug[r][col] != 0:
                    aug[col], aug[r] = aug[r], aug[col]
                    break
            else:
                raise ArithmeticFailure("singular matrix in dense_inverse_oracle",
                                        context=A)
        piv = aug[col][col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            row_r, row_c = aug[r], aug[col]
            for j in range(2 * n):
                q, rem = divmod(piv * row_r[j] - f * row_c[j], prev)
                if rem:
                    raise ArithmeticFailure("fraction-free division failed",
                                            step=col, context=A)
                row_r[j] = q
        prev = piv

    inv = []
    for i in range(n):
        d = aug[i][i]
        if d == 0:
            raise ArithmeticFailure("singular matrix in dense_inverse_oracle",
                                    context=A)
        inv.append([Fraction(aug[i][n + j], d) for j in range(n)])

    for i in range(n):  # full verification: A * inv == I
        for j in range(n):
            acc = sum(rows[i][t] * inv[t][j] for t in range(n))
            if acc != (1 if i == j else 0):
                raise ArithmeticFailure("oracle verification A*Ainv != I failed",
                                        context=(i + 1, j + 1))
    return inv


# ---------------------------------------------------------------------------
# Row-by-row banded inverse


def ldlt_rowwise(A: SymBandedMatrix, zero):
    """invstep._ldlt, and with ``zero`` = Fraction(0) invstep._ldlt_pairs,
    over numpy scalars, each sum by ``sum()`` from ``zero``: the pivots d
    and ``Lb[j, r] = l_{j+r+1, j}`` as arrays of the bands' dtype (Lb has at
    least one column, zero past the last row)."""
    import numpy as np

    m, w, bands = A.n, A.bandwidth, A.bands  # a_{j+1, i+1} = bands[i-j][j]
    d = np.empty(m, bands[0].dtype)
    Lb = np.full((m, max(w, 1)), zero, bands[0].dtype)
    for j in range(m):
        dj = bands[0][j] - sum(
            (Lb[k, j - k - 1] ** 2 * d[k] for k in range(max(0, j - w), j)), zero)
        if dj == 0:
            raise ArithmeticFailure("zero pivot in the LDL^T factorization",
                                    step=j + 1, context=bands[0][j])
        d[j] = dj
        for i in range(j + 1, min(m, j + w + 1)):
            s = bands[i - j][j] - sum(
                (Lb[k, i - k - 1] * Lb[k, j - k - 1] * d[k]
                 for k in range(max(0, i - w), j)), zero)
            Lb[j, i - j - 1] = s / dj
    return d, Lb


def invert_rowwise(A: SymBandedMatrix, keep_history: bool = False) -> GrowingInverse:
    """invstep.invert_iteratively by the Takahashi recurrence one row at a
    time from the bottom, B's row and Y's row each by its own matmul, the
    row mirrored into B's column at once; the same errors."""
    import numpy as np

    dtype = A.bands[0].dtype
    zero = Fraction(0) if dtype == object else 0.0
    with np.errstate(all="ignore"):  # float overflow is caught below
        d, Lb = ldlt_rowwise(A, zero)
        m, w = Lb.shape
        B = np.empty((m, m), dtype)
        Y = np.full((m, m), zero, dtype) if keep_history else None
        for i in range(m - 1, -1, -1):
            hi = min(m, i + w + 1)
            neg_l = -Lb[i, : hi - i - 1]
            row = neg_l @ B[i + 1:hi, i + 1:]
            B[i, i + 1:] = B[i + 1:, i] = row
            B[i, i] = 1 / d[i] + neg_l @ row[: hi - i - 1]
            if keep_history:
                Y[i, i] = 1 / d[i]
                Y[i, i + 1:] = neg_l @ Y[i + 1:hi, i + 1:]
    if dtype == float:
        finite = np.isfinite(B) if Y is None else np.isfinite(B) & np.isfinite(Y)
        if not finite.all():
            raise ArithmeticFailure("non-finite entry in the float inverse "
                                    "(a pivot too small for float64)",
                                    step=int(np.argmin(finite.all(axis=1))) + 1)
    diag_hist = col_hist = None
    if keep_history:
        Y[:, m - 1] = B[:, m - 1]
        diag_hist = Y.diagonal()
        col_hist = tuple(Y[:n, n - 1] for n in range(1, m + 1))
    return GrowingInverse(m, B, diag_hist, col_hist)


# ---------------------------------------------------------------------------
# Total positivity


@dataclass(frozen=True)
class MinorReport:
    """Result of exhaustive minor enumeration up to a given order."""

    max_order: int
    minors_checked: int
    min_value: object
    witness: tuple  # (alpha, beta) of the minimal minor

    @property
    def passed(self) -> bool:
        return self.min_value >= 0


def _int_det_bareiss(rows) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r][r] == 0:
            for i in range(r + 1, n):
                if a[i][r] != 0:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return 0
        piv = a[r][r]
        for i in range(r + 1, n):
            air = a[i][r]
            row_i = a[i]
            row_r = a[r]
            for j in range(r + 1, n):
                row_i[j] = (piv * row_i[j] - air * row_r[j]) // prev
            row_i[r] = 0
        prev = piv
    return sign * a[n - 1][n - 1]


DEFAULT_MINOR_BUDGET = 2_000_000


def check_total_positivity(A: SymBandedMatrix, max_order: int,
                           budget: int = DEFAULT_MINOR_BUDGET) -> MinorReport:
    """Enumerate all minors det A[alpha;beta] of order <= max_order, exactly.

    Minors are visited in increasing order, lexicographic alpha then beta;
    enumeration stops early at the first negative minor (witness retained).
    Banded structural zeros (some |alpha_p - beta_p| > bandwidth forces a zero
    block meeting the antidiagonal) are counted without elimination.  Raises
    ResourceBudgetError with a partial report when the minor count exceeds
    ``budget``.
    """
    if A.bands[0].dtype != object:
        raise InputError("total positivity check requires exact scalars")
    if not (1 <= max_order <= A.n):
        raise InputError(f"max_order must lie in [1,{A.n}]")
    n, w = A.n, A.bandwidth
    dense = [[Fraction(A.get(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    den_lcm = 1
    for row in dense:
        for x in row:
            den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    M = [[int(x * den_lcm) for x in row] for row in dense]

    checked = 0
    min_value = None
    witness = None
    for ell in range(1, max_order + 1):
        scale = Fraction(1, den_lcm**ell)
        for alpha in itertools.combinations(range(1, n + 1), ell):
            for beta in itertools.combinations(range(1, n + 1), ell):
                checked += 1
                if checked > budget:
                    partial = MinorReport(max_order, checked - 1,
                                          min_value if min_value is not None else 0,
                                          witness if witness is not None else ((), ()))
                    raise ResourceBudgetError(
                        f"minor budget {budget} exceeded at order {ell}",
                        partial=partial)
                if any(abs(a - b) > w for a, b in zip(alpha, beta)):
                    value = Fraction(0)
                else:
                    sub = [[M[a - 1][b - 1] for b in beta] for a in alpha]
                    value = _int_det_bareiss(sub) * scale
                if min_value is None or value < min_value:
                    min_value = value
                    witness = (alpha, beta)
                    if value < 0:
                        return MinorReport(max_order, checked, min_value, witness)
    return MinorReport(max_order, checked, min_value, witness)


# ---------------------------------------------------------------------------
# The two large certificates in the order their docstrings state them


def phi_step_six_terms() -> FactoredRational:
    """polycert's phi_step as the six-term sum of its docstring, each
    product expanded on its own (the package evaluates it in factored
    order); gaps anchored at n-2."""
    basis = GapBasis(6)
    a, phi_inv = _sym(quad_formula, basis), _sym(phi_inv_formula, basis)
    F1, F2, F3 = phi_inv(1), phi_inv(2), phi_inv(3)
    a12, a23, a13, a22, a33 = a(1, 1), a(2, 1), a(1, 2), a(2, 0), a(3, 0)
    F1sq = F1 * F1
    return (F2 * F1sq * a12 * a33
            - F1sq * a23 * (a12 * a23 - 2 * a22 * a13)
            - 2 * F2 * F1sq * a23 * a13
            - F2 * F1 * a12 * a13 * a13
            - a12 * a12 * a12 * a13 * a13
            - F2 * F1sq * F3 * a12)


def theta_product_left_to_right() -> FactoredRational:
    """polycert's theta_product with the product taken left to right,
    (lead th_n) th_{n+1} (the package forms th_n th_{n+1} first)."""
    basis = GapBasis(6)
    M, phi_inv = _sym(minor_formula, basis), _sym(phi_inv_formula, basis)
    th_n, th_n1 = M(2) / phi_inv(2), M(3) / phi_inv(3)
    br = basis.bracket
    lead = sym_ratio((br(3, 0, 2), br(3, 0, 3)), (br(2, 0, 2), br(2, 0, 3)))
    return FactoredRational.from_scalar(6, Fraction(87, 100)) - lead * th_n * th_n1


# ---------------------------------------------------------------------------
# Helpers


def array_at(formula, ks: KnotSequence, n: int, *args):
    """One of the shared formulas (gram.quad_formula, decay.phi_inv_formula,
    ...) by the package's array pass, over ks.brackets and gram.ratio, at
    the one-entry index array [n]."""
    import numpy as np

    return formula(ks.brackets, ratio, np.array([n]), *args)[0]


def gaps_for(ks, anchor: int, nvars: int) -> tuple:
    """Concrete gap values (t_{anchor+1}-t_{anchor}, ...) from a knot
    sequence, for evaluating certificate expressions at real partitions."""
    return tuple(ks.knot(anchor + r) - ks.knot(anchor + r - 1)
                 for r in range(1, nvars + 1))


def nonneg_witness_sorted(poly, sign: int):
    """MultiPoly._first_negative by a scan of every term in graded-lex order:
    the first (exponents, sign*coeff) with sign*coeff < 0, or None."""
    for exps, coeff in poly.sorted_terms():
        if sign * coeff < 0:
            return (exps, sign * coeff)
    return None


def spot_check_exact(fr: FactoredRational, npoints: int, seed: int) -> int:
    """polycert.spot_check by exact evaluation at every point: the same
    points (p/q, p and q from randint(1, 60) of random.Random(seed), p
    first), fr evaluated over Fractions, InputError at the first negative
    value or vanishing denominator factor."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(npoints):
        point = tuple(Fraction(rng.randint(1, 60), rng.randint(1, 60))
                      for _ in range(fr.nvars))
        value = fr(point)
        if value < 0:
            raise InputError(f"spot check failed: value {value} at {point}")
        checked += 1
    return checked


def save_partition(ks: KnotSequence, path) -> None:
    """Write a partition file (one line of JSON, as ``splinegram gen``)."""
    with open(path, "w") as fh:
        json.dump(knots_to_json(ks), fh)
        fh.write("\n")

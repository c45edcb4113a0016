"""Independent reference implementations that the tests compare the
package against, and small helpers the tests share.

None of this is reached by the CLI: each oracle computes a quantity by a
route of its own (scalar brackets one index at a time, fraction-free dense
elimination, exhaustive minors, the explicit quadratic branches), so that a
test equating it with the package's array paths checks both.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from splinegram.errors import ArithmeticFailure, InputError, ResourceBudgetError
from splinegram.gram import SymBandedMatrix, ratio
from splinegram.knots import KnotSequence, _interval_index, knots_to_json
from splinegram.scalars import is_exact


# ---------------------------------------------------------------------------
# Scalar formulas


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
    br = ks.bracket
    b10, b21, b32, b43 = br(1, 0, i), br(2, 1, i), br(3, 2, i), br(4, 3, i)
    b20, b31, b42 = br(2, 0, i), br(3, 1, i), br(4, 2, i)
    first = (scalar_ratio((b21, b21), (10, b31))
             + scalar_ratio((b21, b21, b10), (30, b20, b31))
             + scalar_ratio((b21, b21, b32), (5, b31, b31)))
    second = (scalar_ratio((b32, b32), (10, b31))
              + scalar_ratio((b32, b32, b43), (30, b42, b31))
              + scalar_ratio((b32, b32, b21), (5, b31, b31)))
    return first, second


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
    j = _interval_index(ks, x)
    zero = x * 0
    t = ks.knot
    if j == i:
        return (x - t(i)) ** 2 / (ks.bracket(2, 0, i) * ks.bracket(1, 0, i))
    if j == i + 1:
        first = (x - t(i)) * (t(i + 2) - x) / (ks.bracket(2, 0, i) * ks.bracket(2, 1, i))
        second = (x - t(i + 1)) * (t(i + 3) - x) / (ks.bracket(3, 1, i) * ks.bracket(2, 1, i))
        return first + second
    if j == i + 2:
        return (t(i + 3) - x) ** 2 / (ks.bracket(3, 1, i) * ks.bracket(3, 2, i))
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
    if not all(is_exact(x) for row in A for x in row):
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
    if not A.is_exact_matrix():
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


def save_partition(ks: KnotSequence, path) -> None:
    """Write a partition file (one line of JSON, as ``splinegram gen``)."""
    with open(path, "w") as fh:
        json.dump(knots_to_json(ks), fh)
        fh.write("\n")

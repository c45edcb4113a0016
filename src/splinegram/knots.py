"""Knot sequences, bracket notation, eta distances, and B-spline evaluation.

A knot sequence of order ``k`` on [0,1] clamps both endpoints to multiplicity
k: t_1 = ... = t_k = 0 and t_{m+1} = ... = t_{m+k} = 1, where
m = k + (number of interior breakpoints).  Indices outside the stored range
clamp: t_i = 0 for i <= 0 and t_i = 1 for i >= m+k+1.

All scalar arithmetic is generic: build the sequence from ``Fraction`` values
and every evaluation stays exact; build from floats and it runs in double
precision.  Indexing follows the mathematical convention (1-based).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .scalars import format_scalar, is_exact, parse_scalar


@dataclass(frozen=True)
class KnotSequence:
    """Clamped knot vector with multiplicity-k endpoints.

    ``knot(i)`` returns t_i for any integer i under the clamping convention;
    ``m`` is the number of B-splines N_{1,k} .. N_{m,k} supported on it.
    """

    order: int
    interior: tuple
    knots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k = self.order
        if not isinstance(k, int) or k < 1:
            raise InputError(f"order must be an integer >= 1, got {k!r}")
        interior = tuple(self.interior)
        for a in interior:
            if isinstance(a, bool) or not isinstance(a, (int, Fraction, float)):
                raise InputError(f"breakpoint {a!r} is not a rational or float scalar")
        # One scalar field for the whole sequence: exact inputs promote to
        # Fraction, any float demotes everything to double precision.
        if all(is_exact(a) for a in interior):
            interior = tuple(Fraction(a) for a in interior)
            zero, one = Fraction(0), Fraction(1)
        else:
            interior = tuple(float(a) for a in interior)
            zero, one = 0.0, 1.0
        for a, b in zip(interior, interior[1:]):
            if not a < b:
                raise InputError("interior breakpoints must be strictly increasing")
        for a in interior:
            if not (0 < a < 1):
                raise InputError("interior breakpoints must lie strictly inside (0,1)")
        full = (zero,) * k + interior + (one,) * k
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "knots", full)

    @property
    def m(self) -> int:
        """Number of B-splines of order k on this sequence."""
        return self.order + len(self.interior)

    @property
    def mesh(self):
        """|Delta| = max_i (t_{i+1} - t_i)."""
        ts = self.knots
        return max(b - a for a, b in zip(ts, ts[1:]))

    def knot(self, i: int):
        """t_i with index clamping (t_i = 0 for i <= 0, = 1 past the end)."""
        if i < 1:
            return self.knots[0] * 0
        if i > len(self.knots):
            return self.knots[-1]
        return self.knots[i - 1]

    def bracket(self, ell: int, en: int, j: int):
        """(ell en)_j = t_{j+ell} - t_{j+en}."""
        return self.knot(j + ell) - self.knot(j + en)

    def eta(self, i: int, j: int):
        """eta_ij = t_{max(i,j)+k} - t_{min(i,j)}, the length of J_ij."""
        m = self.m
        if not (1 <= i <= m and 1 <= j <= m):
            raise InputError(f"eta indices must lie in [1,{m}], got ({i},{j})")
        return self.knot(max(i, j) + self.order) - self.knot(min(i, j))

    def gaps(self) -> tuple:
        """All knot gaps (t_{i+1} - t_i) for i = 1..m+k-1 (many are zero)."""
        ts = self.knots
        return tuple(b - a for a, b in zip(ts, ts[1:]))

    def breakpoints(self) -> tuple:
        """Distinct breakpoints 0 = x_0 < x_1 < ... < x_last = 1."""
        zero = self.knots[0] * 0
        one = self.knots[-1]
        return (zero,) + self.interior + (one,)


def build_knots(order: int, interior) -> KnotSequence:
    """Build the clamped knot sequence of the given order.

    Raises InputError for non-monotone interior breakpoints or breakpoints on
    the boundary (endpoint multiplicities are fixed by the clamping).
    """
    return KnotSequence(order, tuple(interior))


def _interval_index(ks: KnotSequence, x):
    """Largest j with t_j <= x < t_{j+1}; x = 1 belongs to [t_m, t_{m+1}).

    Returns an index in [k, m] for x in [0,1] (the nonempty intervals).
    """
    k, m = ks.order, ks.m
    if x < 0 or x > 1:
        raise InputError(f"evaluation point {x!r} outside [0,1]")
    if x == 1:
        return m
    # knots are sorted; scan the nonempty intervals [t_j, t_{j+1}), k <= j <= m
    lo, hi = k, m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ks.knot(mid) <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def eval_bspline(ks: KnotSequence, i: int, ord: int, x):
    """N_{i,ord}(x) by the de Boor recursion.

    Half-open-interval convention: right-continuous on [0,1), and at x = 1
    the last spline evaluates to 1.  Recursion terms with zero-length knot
    intervals contribute zero (no division is attempted).
    """
    if not (1 <= i <= ks.m):
        raise InputError(f"spline index {i} outside [1,{ks.m}]")
    if not (1 <= ord <= ks.order):
        raise InputError(f"spline order {ord} outside [1,{ks.order}]")
    if x < 0 or x > 1:
        raise InputError(f"evaluation point {x!r} outside [0,1]")
    j = _interval_index(ks, x)
    zero = x * 0
    # order-1 indicator of the located interval; build upward from it
    cur = {j: zero + 1}
    for r in range(2, ord + 1):
        nxt = {}
        for p in range(j - r + 1, j + 1):
            left = cur.get(p, zero)
            right = cur.get(p + 1, zero)
            acc = zero
            if left != 0:
                den = ks.knot(p + r - 1) - ks.knot(p)
                if den != 0:
                    acc = acc + (x - ks.knot(p)) / den * left
            if right != 0:
                den = ks.knot(p + r) - ks.knot(p + 1)
                if den != 0:
                    acc = acc + (ks.knot(p + r) - x) / den * right
            if acc != 0:
                nxt[p] = acc
        cur = nxt
    return cur.get(i, zero)


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


def bspline_l1(ks: KnotSequence, i: int):
    """||N_{i,k}||_{L^1} = (t_{i+k} - t_i)/k."""
    if not (1 <= i <= ks.m):
        raise InputError(f"spline index {i} outside [1,{ks.m}]")
    return (ks.knot(i + ks.order) - ks.knot(i)) / ks.order


# ---------------------------------------------------------------------------
# Partition file format: {"order": int, "interior": [numbers or "p/q"]}


def knots_from_json(obj) -> KnotSequence:
    """Build a KnotSequence from the partition-file JSON object."""
    if not isinstance(obj, dict) or "order" not in obj or "interior" not in obj:
        raise InputError('partition JSON must be {"order": int, "interior": [...]}')
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise InputError(f"partition order must be an integer, got {order!r}")
    interior = [parse_scalar(v) for v in obj["interior"]]
    return build_knots(order, interior)


def knots_to_json(ks: KnotSequence) -> dict:
    return {"order": ks.order, "interior": [format_scalar(v) for v in ks.interior]}


def load_partition(path) -> KnotSequence:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"partition file {path}: {exc}") from exc
    return knots_from_json(obj)


def save_partition(ks: KnotSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(knots_to_json(ks), fh)
        fh.write("\n")

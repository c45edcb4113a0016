"""Knot sequences, bracket notation, eta distances, and B-spline evaluation.

A knot sequence of order ``k`` on [0,1] clamps both endpoints to multiplicity
k: t_1 = ... = t_k = 0 and t_{m+1} = ... = t_{m+k} = 1, where
m = k + (number of interior breakpoints).  Indices outside the stored range
clamp: t_i = 0 for i <= 0 and t_i = 1 for i >= m+k+1.

All scalar arithmetic is generic: build the sequence from ``Fraction`` values
and every evaluation stays exact; build from floats and it runs in double
precision.  Indexing follows the mathematical convention (1-based).

``KnotSequence.brackets`` is the array bracket provider, which evaluates a
bracket at a whole index array n at once (numpy arrays of Fractions in exact
mode, float64 in float mode); every closed form in the package reads its
brackets from it.  ``KnotSequence.bracket`` and ``KnotSequence.eta`` are the
one-line scalar definitions of a bracket and of eta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .scalars import format_scalar, is_exact, parse_scalar

# Knot indices the array bracket provider reaches beyond 1..m+k on each side.
BRACKET_PAD = 4


@dataclass(frozen=True)
class KnotSequence:
    """Clamped knot vector with multiplicity-k endpoints.

    ``knot(i)`` returns t_i for any integer i under the clamping convention;
    ``m`` is the number of B-splines N_{1,k} .. N_{m,k} supported on it.
    """

    order: int
    interior: tuple
    knots: tuple = field(init=False, repr=False)
    # (ell, en) -> bracket array of ``brackets``; the padded knots at None
    _arrays: dict = field(init=False, repr=False, compare=False,
                          default_factory=dict)

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

    def brackets(self, ell: int, en: int, n):
        """The array bracket provider: (ell en)_n for every entry of an int
        index array n with 0 <= n <= m, as a numpy array (Fractions in an
        object array in exact mode, float64 in float mode), each entry the
        same knot difference as ``bracket(ell, en, n)``.

        The brackets come from a clamped knot array padded by BRACKET_PAD
        knots on each side, built once; each (ell, en) bracket is computed
        once for all n per sequence, and a call only gathers its entries."""
        arrays = self._arrays
        key = (ell, en)
        if key not in arrays:
            import numpy as np

            pad, m = BRACKET_PAD, self.m
            if not (-pad <= min(ell, en) and max(ell, en) <= self.order + pad):
                raise InputError(f"bracket ({ell},{en}) reaches past the "
                                 f"knot padding of {pad}")
            if None not in arrays:  # t_i at position i + pad
                arrays[None] = np.array(
                    [self.knot(i) for i in range(-pad, m + self.order + pad + 1)],
                    dtype=float if isinstance(self.knots[0], float) else object)
            t = arrays[None]
            arrays[key] = t[pad + ell:pad + ell + m + 1] - t[pad + en:pad + en + m + 1]
        return arrays[key][n]

    def eta(self, i: int, j: int):
        """eta_ij = t_{max(i,j)+k} - t_{min(i,j)}, the length of J_ij."""
        m = self.m
        if not (1 <= i <= m and 1 <= j <= m):
            raise InputError(f"eta indices must lie in [1,{m}], got ({i},{j})")
        return self.knot(max(i, j) + self.order) - self.knot(min(i, j))

    def breakpoints(self) -> tuple:
        """Distinct breakpoints 0 = x_0 < x_1 < ... < x_last = 1."""
        zero = self.knots[0] * 0
        one = self.knots[-1]
        return (zero,) + self.interior + (one,)


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


# ---------------------------------------------------------------------------
# Partition file format: {"order": int, "interior": [numbers or "p/q"]}


def knots_from_json(obj) -> KnotSequence:
    """Build a KnotSequence from the partition-file JSON object."""
    if not isinstance(obj, dict) or "order" not in obj or "interior" not in obj:
        raise InputError('partition JSON must be {"order": int, "interior": [...]}')
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise InputError(f"partition order must be an integer, got {order!r}")
    if not isinstance(obj["interior"], list):
        raise InputError(f"partition interior must be a list, got {obj['interior']!r}")
    return KnotSequence(order, tuple(parse_scalar(v) for v in obj["interior"]))


def knots_to_json(ks: KnotSequence) -> dict:
    return {"order": ks.order, "interior": [format_scalar(v) for v in ks.interior]}


def load_partition(path) -> KnotSequence:
    """Read a partition file; a file that cannot be read or parsed is an
    InputError."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"partition file {path}: {exc.strerror or exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"partition file {path}: {exc}") from exc
    return knots_from_json(obj)

"""Knot sequences and bracket notation.

A knot sequence of order ``k`` on [0,1] clamps both endpoints to multiplicity
k: t_1 = ... = t_k = 0 and t_{m+1} = ... = t_{m+k} = 1, where
m = k + (number of interior breakpoints).  Indices outside the stored range
clamp: t_i = 0 for i <= 0 and t_i = 1 for i >= m+k+1.

The scalar mode is decided once, in the constructor, and kept in the
derived field ``exact``: build the sequence from ints and ``Fraction`` values
and every evaluation stays exact; one float among them and it runs in double
precision.  Indexing follows the mathematical convention (1-based).

An exact sequence also keeps its knots once as integers, built on first
use: ``_integer_knots`` = (numerators, common denominator), the numerators
of t_1 .. t_{m+k} over the least common denominator of all the knots.

``KnotSequence.brackets`` is the array bracket provider, which evaluates a
bracket (ell en)_n = t_{n+ell} - t_{n+en} at a whole index array n at once
(in exact mode a ``scalars._Pairs`` array of integer knot differences over
the common denominator, unreduced; float64 in float mode); every closed form
in the package reads its brackets from it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError
from .scalars import _Pairs, format_scalar, parse_scalar, scalar_type

# Knot indices the array bracket provider reaches beyond 1..m+k on each side.
BRACKET_PAD = 4


@dataclass(frozen=True)
class KnotSequence:
    """Clamped knot vector with multiplicity-k endpoints.

    ``knot(i)`` returns t_i for any integer i under the clamping convention;
    ``m`` is the number of B-splines N_{1,k} .. N_{m,k} supported on it.
    ``exact`` is True when the knots are Fractions, False when floats.
    """

    order: int
    interior: tuple
    knots: tuple = field(init=False, repr=False)
    exact: bool = field(init=False, compare=False)
    # (ell, en) -> bracket array of ``brackets``; the padded knots at None
    _arrays: dict = field(init=False, repr=False, compare=False,
                          default_factory=dict)

    def __post_init__(self):
        k = self.order
        if not isinstance(k, int) or k < 1:
            raise InputError(f"order must be an integer >= 1, got {k!r}")
        # One scalar field for the whole sequence: exact inputs promote to
        # Fraction, any float demotes everything to double precision.
        interior = tuple(self.interior)
        scalar = scalar_type(interior, "breakpoint")
        interior = tuple(map(scalar, interior))
        for a, b in zip(interior, interior[1:]):
            if not a < b:
                raise InputError("interior breakpoints must be strictly increasing")
        for a in interior:
            if not (0 < a < 1):
                raise InputError("interior breakpoints must lie strictly inside (0,1)")
        full = (scalar(0),) * k + interior + (scalar(1),) * k
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "knots", full)
        object.__setattr__(self, "exact", scalar is Fraction)

    @functools.cached_property
    def _integer_knots(self) -> tuple:
        """(num, common) for exact knots, built on first use: t_i = num[i-1] /
        common, num an object array of Python ints and common the least
        common denominator of the knots."""
        import numpy as np

        common = math.lcm(*(t.denominator for t in self.knots))
        return np.array([t.numerator * (common // t.denominator) for t in self.knots],
                        dtype=object), common

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

    def brackets(self, ell: int, en: int, n):
        """The array bracket provider: (ell en)_n = t_{n+ell} - t_{n+en} for
        every entry of an int index array n with 0 <= n <= m, each entry the
        knot difference of ``knot``'s clamped knots: in exact mode a
        ``_Pairs`` array, the differences of ``_integer_knots``' numerators
        over their common denominator (unreduced), in float mode a float64
        array.

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
            if None not in arrays:  # t_i (exact: its numerator) at position i + pad
                at = np.arange(-pad, m + self.order + pad + 1)
                at = np.minimum(np.maximum(at, 1), len(self.knots)) - 1
                knots = self._integer_knots[0] if self.exact else np.array(self.knots)
                arrays[None] = knots[at]
            t = arrays[None]
            diff = t[pad + ell:pad + ell + m + 1] - t[pad + en:pad + en + m + 1]
            if self.exact:  # over the common denominator, shared by every entry
                diff = _Pairs(diff, self._integer_knots[1])
            arrays[key] = diff
        return arrays[key][n]

    def breakpoints(self) -> tuple:
        """Distinct breakpoints 0 = x_0 < x_1 < ... < x_last = 1."""
        zero = self.knots[0] * 0
        one = self.knots[-1]
        return (zero,) + self.interior + (one,)


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

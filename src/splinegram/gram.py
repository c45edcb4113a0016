"""B-spline Gram matrices: closed forms (k=2, k=3), a quadrature oracle for
any order, and exact total-positivity checks.

The Gram matrix A has entries a_{i,j} = integral of N_{i,k} N_{j,k} over
[0,1]; it is symmetric, positive definite, and banded with bandwidth k-1.
Closed forms follow the bracket notation (ln)_j = t_{j+l} - t_{j+n}; boundary
0/0 ratios resolve by the rule of ``ratio``: a monomial ratio whose numerator
contains a zero factor is 0, before any division.

The order-3 entries are written once, in ``quad_formula``, over a bracket
provider and a ratio combinator.  ``quad_entry`` instantiates it with the
knot brackets and ``ratio``; polycert instantiates the same formula with
gap-variable brackets and factored rational functions for the certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, ResourceBudgetError
from .knots import KnotSequence, eval_bspline
from .scalars import format_scalar, is_exact, parse_scalar


@dataclass(frozen=True)
class SymBandedMatrix:
    """Symmetric banded matrix over a generic scalar field.

    ``bands[d]`` stores the d-th superdiagonal (a_{i,i+d} for i = 1..n-d);
    entries with |i-j| > bandwidth are exactly zero.  Indices are 1-based.
    """

    n: int
    bandwidth: int
    bands: tuple

    def __post_init__(self):
        if self.n < 1 or self.bandwidth < 0:
            raise InputError("matrix dimension must be >= 1 and bandwidth >= 0")
        if len(self.bands) != self.bandwidth + 1:
            raise InputError("bands must hold bandwidth+1 diagonals")
        for d, band in enumerate(self.bands):
            if len(band) != max(self.n - d, 0):
                raise InputError(f"band {d} has wrong length")

    def get(self, i: int, j: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"index ({i},{j}) outside [1,{self.n}]^2")
        d = abs(i - j)
        if d > self.bandwidth:
            return self.bands[0][0] * 0
        return self.bands[d][min(i, j) - 1]

    def row_sum(self, i: int):
        lo = max(1, i - self.bandwidth)
        hi = min(self.n, i + self.bandwidth)
        total = self.bands[0][0] * 0
        for j in range(lo, hi + 1):
            total = total + self.get(i, j)
        return total

    def to_dense(self):
        return [[self.get(i, j) for j in range(1, self.n + 1)] for i in range(1, self.n + 1)]

    def is_exact_matrix(self) -> bool:
        return all(is_exact(x) for band in self.bands for x in band)

    def leading(self, n: int) -> "SymBandedMatrix":
        """Leading principal submatrix A_n (same bandwidth)."""
        if not (1 <= n <= self.n):
            raise InputError(f"leading dimension {n} outside [1,{self.n}]")
        bands = tuple(tuple(band[: max(n - d, 0)]) for d, band in enumerate(self.bands))
        return SymBandedMatrix(n, self.bandwidth, bands)


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


def ratio(num_factors, den_factors):
    """Monomial ratio under the 0/0 rule.

    If any numerator factor is zero the ratio is that factor's zero (no
    division attempted); otherwise all denominator factors must be nonzero.
    Factors multiply left to right, the numerator's first.
    """
    num = None
    for f in num_factors:
        if f == 0:
            return f * 0
        num = f if num is None else num * f
    den = None
    for f in den_factors:
        den = f if den is None else den * f
    return num / den


def linear_entry(ks: KnotSequence, i: int, j: int):
    """Closed-form order-2 Gram entry a_{i,j} (zero beyond the band)."""
    if ks.order != 2:
        raise InputError("linear_entry requires an order-2 knot sequence")
    if not (1 <= i <= ks.m and 1 <= j <= ks.m):
        raise InputError(f"index ({i},{j}) outside [1,{ks.m}]^2")
    i, j = min(i, j), max(i, j)
    if j == i:
        return ks.bracket(2, 0, i) / 3
    if j == i + 1:
        return ks.bracket(2, 1, i) / 6
    return ks.knot(1) * 0


def quad_formula(br, ratio, i: int, d: int):
    """Order-3 Gram entry a_{i,i+d}, d in {0, 1, 2}, over a bracket provider
    ``br(l, e, i)`` = (le)_i and a monomial ``ratio(num, den)`` combinator:

    a_{i,i}   = (30)_i/5 - (30)_i (21)_i^2 / (15 (20)_i (31)_i)
    a_{i,i+1} = (31)_i/10 + (21)_i^2 (10)_i / (30 (20)_i (31)_i)
                          + (32)_i^2 (43)_i / (30 (31)_i (42)_i)
    a_{i,i+2} = (32)_i^3 / (30 (31)_i (42)_i)
    """
    b31 = br(3, 1, i)
    if d == 0:
        b30, b21 = br(3, 0, i), br(2, 1, i)
        return (ratio((b30,), (5,))
                - ratio((b30, b21, b21), (15, br(2, 0, i), b31)))
    b32 = br(3, 2, i)
    if d == 1:
        b21 = br(2, 1, i)
        return (ratio((b31,), (10,))
                + ratio((b21, b21, br(1, 0, i)), (30, br(2, 0, i), b31))
                + ratio((b32, b32, br(4, 3, i)), (30, b31, br(4, 2, i))))
    return ratio((b32, b32, b32), (30, b31, br(4, 2, i)))


def quad_entry(ks: KnotSequence, i: int, j: int):
    """Closed-form order-3 Gram entry a_{i,j} (zero beyond the band), the
    formula of quad_formula over the knot brackets.

    Monomial ratios with a zero numerator factor vanish (clamped ends).
    """
    if ks.order != 3:
        raise InputError("quad_entry requires an order-3 knot sequence")
    if not (1 <= i <= ks.m and 1 <= j <= ks.m):
        raise InputError(f"index ({i},{j}) outside [1,{ks.m}]^2")
    i, j = min(i, j), max(i, j)
    if j - i > 2:
        return ks.knot(1) * 0
    return quad_formula(ks.bracket, ratio, i, j - i)


def gram_linear(ks: KnotSequence) -> SymBandedMatrix:
    """Order-2 Gram matrix: a_{i,i} = (20)_i/3, a_{i,i+1} = (21)_i/6."""
    if ks.order != 2:
        raise InputError("gram_linear requires an order-2 knot sequence")
    m = ks.m
    diag = tuple(linear_entry(ks, i, i) for i in range(1, m + 1))
    off = tuple(linear_entry(ks, i, i + 1) for i in range(1, m))
    return SymBandedMatrix(m, 1, (diag, off))


def gram_quadratic(ks: KnotSequence) -> SymBandedMatrix:
    """Order-3 Gram matrix with the closed-form bracket entries of quad_entry."""
    if ks.order != 3:
        raise InputError("gram_quadratic requires an order-3 knot sequence")
    m = ks.m
    diag = tuple(quad_entry(ks, i, i) for i in range(1, m + 1))
    off1 = tuple(quad_entry(ks, i, i + 1) for i in range(1, m))
    off2 = tuple(quad_entry(ks, i, i + 2) for i in range(1, m - 1))
    return SymBandedMatrix(m, 2, (diag, off1, off2))


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
    first = (ratio((b21, b21), (10, b31))
             + ratio((b21, b21, b10), (30, b20, b31))
             + ratio((b21, b21, b32), (5, b31, b31)))
    second = (ratio((b32, b32), (10, b31))
              + ratio((b32, b32, b43), (30, b42, b31))
              + ratio((b32, b32, b21), (5, b31, b31)))
    return first, second


# ---------------------------------------------------------------------------
# Quadrature oracle


def _gauss_nodes(k: int):
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(k)
    return list(x), list(w)


_NC_CACHE = {}


def _newton_cotes_weights(npoints: int):
    """Exact closed Newton-Cotes weights on [0,1] for equally spaced nodes.

    Integrates polynomials of degree <= npoints-1 exactly; npoints = 1 is the
    midpoint rule (degree 1).  Returns (nodes, weights) as Fractions.
    """
    if npoints in _NC_CACHE:
        return _NC_CACHE[npoints]
    if npoints == 1:
        out = ([Fraction(1, 2)], [Fraction(1)])
        _NC_CACHE[npoints] = out
        return out
    nodes = [Fraction(i, npoints - 1) for i in range(npoints)]
    weights = []
    for i in range(npoints):
        # integrate the i-th Lagrange basis polynomial exactly
        coeffs = [Fraction(1)]  # polynomial in s, ascending powers
        denom = Fraction(1)
        for j in range(npoints):
            if j == i:
                continue
            xj = nodes[j]
            coeffs = [Fraction(0)] + coeffs  # multiply by s
            for p in range(len(coeffs) - 1):
                coeffs[p] -= xj * coeffs[p + 1]
            denom *= nodes[i] - xj
        integral = sum(c / (p + 1) for p, c in enumerate(coeffs))
        weights.append(integral / denom)
    out = (nodes, weights)
    _NC_CACHE[npoints] = out
    return out


def gram_quadrature(ks: KnotSequence, mode: str | None = None) -> SymBandedMatrix:
    """Gram matrix of any order by per-interval quadrature.

    mode "float": k-node Gauss-Legendre per knot interval (exact for degree
    2k-1 >= 2k-2 up to rounding).  mode "exact": closed Newton-Cotes on 2k-1
    rational nodes per interval, exact for the degree-(2k-2) integrand; valid
    because order >= 2 splines are continuous (endpoint values are two-sided)
    and the order-1 case uses the midpoint rule on each interval.
    If mode is None it is inferred from the knot scalars.
    """
    if mode is None:
        mode = "exact" if all(is_exact(t) for t in ks.knots) else "float"
    if mode not in ("exact", "float"):
        raise InputError(f"unknown quadrature mode {mode!r}")
    k, m = ks.order, ks.m
    if mode == "float" and not all(isinstance(t, float) for t in ks.knots):
        ks = KnotSequence(k, tuple(float(t) for t in ks.interior))
    if mode == "exact":
        if not all(is_exact(t) for t in ks.knots):
            raise InputError("exact quadrature requires rational knots")
        ref_nodes, ref_weights = _newton_cotes_weights(2 * k - 1) if k > 1 else _newton_cotes_weights(1)
    else:
        ref_nodes, ref_weights = _gauss_nodes(k)

    zero = ks.knot(1) * 0
    acc = {}  # (i,j) i<=j -> accumulated integral

    for l in range(k, m + 1):
        a, b = ks.knot(l), ks.knot(l + 1)
        h = b - a
        if h == 0:
            continue
        active = [i for i in range(l - k + 1, l + 1) if 1 <= i <= m]
        for node, weight in zip(ref_nodes, ref_weights):
            if mode == "exact":
                x = a + h * node
                w = h * weight
            else:
                x = (a + b) / 2 + h / 2 * node
                w = h / 2 * weight
            vals = [(i, eval_bspline(ks, i, k, x)) for i in active]
            for (i, vi), (j, vj) in itertools.combinations_with_replacement(vals, 2):
                key = (i, j) if i <= j else (j, i)
                acc[key] = acc.get(key, zero) + w * vi * vj

    w_band = k - 1
    bands = []
    for d in range(w_band + 1):
        bands.append(tuple(acc.get((i, i + d), zero) for i in range(1, m - d + 1)))
    return SymBandedMatrix(m, w_band, tuple(bands))


def build_gram(ks: KnotSequence, method: str = "auto") -> SymBandedMatrix:
    """Assemble the Gram matrix for a knot sequence.

    method "closed" uses the order-2/3 closed forms, "quadrature" the
    quadrature oracle, "auto" the closed form when one exists.
    """
    if method == "auto":
        method = "closed" if ks.order in (2, 3) else "quadrature"
    if method == "closed":
        if ks.order == 2:
            return gram_linear(ks)
        if ks.order == 3:
            return gram_quadratic(ks)
        raise InputError(f"no closed form for order {ks.order}")
    if method == "quadrature":
        return gram_quadrature(ks)
    raise InputError(f"unknown gram method {method!r}")


# ---------------------------------------------------------------------------
# Total positivity


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
# Matrix dump JSON


def matrix_to_json(A: SymBandedMatrix) -> dict:
    entries = []
    for d in range(A.bandwidth + 1):
        for i in range(1, A.n - d + 1):
            entries.append([i, i + d, format_scalar(A.bands[d][i - 1])])
    entries.sort(key=lambda e: (e[0], e[1]))
    return {"n": A.n, "bandwidth": A.bandwidth, "entries": entries}


def matrix_from_json(obj) -> SymBandedMatrix:
    try:
        n = obj["n"]
        w = obj["bandwidth"]
        raw = obj["entries"]
    except (TypeError, KeyError) as exc:
        raise InputError(f"malformed matrix dump: {exc}") from exc
    vals = {}
    for item in raw:
        i, j, v = item
        vals[(min(i, j), abs(i - j))] = parse_scalar(v)
    bands = []
    for d in range(w + 1):
        try:
            bands.append(tuple(vals[(i, d)] for i in range(1, n - d + 1)))
        except KeyError as exc:
            raise InputError(f"matrix dump missing entry on diagonal {d}") from exc
    return SymBandedMatrix(n, w, tuple(bands))

"""B-spline Gram matrices: closed forms (k=2, k=3) and quadrature for any
order.

The Gram matrix A has entries a_{i,j} = integral of N_{i,k} N_{j,k} over
[0,1]; it is symmetric, positive definite, and banded with bandwidth k-1.
Closed forms follow the bracket notation (ln)_j = t_{j+l} - t_{j+n}; boundary
0/0 ratios resolve by the rule of ``ratio``: a monomial ratio whose numerator
contains a zero factor is 0, before any division, elementwise over arrays.
The scalar mode comes from the knots (``KnotSequence.exact``): every builder
returns bands of Fractions in object arrays for exact knots, float64 arrays
for float knots.

The order-2 and order-3 entries are written once (``linear_formula``,
``quad_formula``) over a bracket provider and a ratio combinator.
``build_gram`` evaluates them in one array pass per band over all indices
i at once, with the array brackets ``KnotSequence.brackets`` and ``ratio``,
the one evaluation of a Gram entry.  In float mode both are float64
arrays.  In exact mode they are ``scalars._Pairs`` arrays, unreduced
integer pairs (N, D): the brackets are integer knot differences over the
knots' common denominator, ``ratio`` takes one Python-int product per side
of each monomial ratio, and the formulas' sums and differences take no
gcd; ``build_gram`` then reduces each band entry once, to its canonical
Fraction.  polycert instantiates the same formulas with gap-variable
brackets and factored rational functions for the certificates.

``gram_quadrature`` runs the same array passes in both modes: every point
of every knot interval at once, through one Cox-de Boor triangle
(``_bspline_pieces``) and one sum over the nodes per pair of splines;
the mode chooses only its node table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from operator import mul

from .errors import ArithmeticFailure, InputError
from .knots import KnotSequence
from .scalars import _Pairs, format_scalars, scalar_type


@dataclass(frozen=True, eq=False)
class SymBandedMatrix:
    """Symmetric banded matrix, exact or float.

    ``bands[d]`` stores the d-th superdiagonal (a_{i,i+d} for i = 1..n-d);
    entries with |i-j| > bandwidth are exactly zero.  Indices are 1-based.
    The constructor decides the scalar mode once: the bands become 1-D
    arrays of one dtype, object holding Fractions when every entry is an int
    or a Fraction, float64 otherwise (float64 arrays pass as they are); any
    other entry is an InputError.  Equality is identity.
    """

    n: int
    bandwidth: int
    bands: tuple

    def __post_init__(self):
        import numpy as np

        if self.n < 1 or self.bandwidth < 0:
            raise InputError("matrix dimension must be >= 1 and bandwidth >= 0")
        if len(self.bands) != self.bandwidth + 1:
            raise InputError("bands must hold bandwidth+1 diagonals")
        for d, band in enumerate(self.bands):
            if len(band) != max(self.n - d, 0):
                raise InputError(f"band {d} has wrong length")
        bands = tuple(self.bands)
        if not all(isinstance(b, np.ndarray) and b.ndim == 1 and b.dtype == float
                   for b in bands):
            rows = [b.tolist() if isinstance(b, np.ndarray) else list(b) for b in bands]
            scalar = scalar_type([x for row in rows for x in row], "band entry")
            dtype = object if scalar is Fraction else float
            # an entry already of the scalar type is kept, not copied
            bands = tuple(np.array([x if type(x) is scalar else scalar(x) for x in row],
                                   dtype) for row in rows)
        object.__setattr__(self, "bands", bands)

    def get(self, i: int, j: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"index ({i},{j}) outside [1,{self.n}]^2")
        d = abs(i - j)
        if d > self.bandwidth:
            return self.bands[0][0] * 0
        return self.bands[d][min(i, j) - 1]


def _zero_denominator(zero) -> ArithmeticFailure:
    """The failure of a monomial ratio over zero, at the first position
    where the bool array ``zero`` holds: its step is that 1-based
    position."""
    import numpy as np

    return ArithmeticFailure("a monomial ratio has a zero denominator (in float "
                             "mode, a bracket product that underflows)",
                             step=int(np.flatnonzero(zero)[0]) + 1)


def _divide(num, den):
    """num / den elementwise over floats, for den a float64 array or a
    nonzero int.  A zero denominator raises ArithmeticFailure (see
    ``_zero_denominator``): float64 would divide to inf, and a product of
    tiny float brackets can underflow to 0.0."""
    if getattr(den, "dtype", None) != float or den.all():
        return num / den
    raise _zero_denominator(den == 0)


def ratio(num_factors, den_factors):
    """Monomial ratio under the 0/0 rule, elementwise over 1-D numpy arrays
    of one length; scalar factors broadcast, and at least one numerator
    factor is an array.

    Where any numerator factor is zero the ratio is zero, and nothing is
    divided there; elsewhere all denominator factors must be nonzero, and a
    zero one raises ArithmeticFailure with step its 1-based position, the
    first.  Exact factors (``scalars._Pairs`` arrays such as the exact
    brackets, object arrays of Fractions, int scalars) are multiplied on
    their integer parts: one Python-int product per side, the numerators of
    the numerator factors with the denominators of the denominator factors
    and the reverse, kept unreduced as a ``_Pairs`` array (no gcd, no
    Fraction; see ``_Pairs.monomial``).  Float factors multiply left to
    right, the numerator's first (see ``_divide``), and a dead entry is the
    zero of its factor.
    """
    import numpy as np

    if next(f for f in num_factors
            if isinstance(f, (np.ndarray, _Pairs))).dtype == object:
        out, zero = _Pairs.monomial(num_factors, den_factors)
        if zero.any():
            raise _zero_denominator(zero)
        return out
    live = True
    for f in num_factors:
        live = live & (f != 0)
    num, den = reduce(mul, num_factors), reduce(mul, den_factors)
    if live.all():
        return _divide(num, den)
    dead = np.flatnonzero(~live)
    if isinstance(den, np.ndarray):  # no division at the dead positions
        den = den.copy()
        den[dead] = 1
    out = _divide(num, den)
    for e in dead.tolist():
        for f in num_factors:
            z = f[e] if isinstance(f, np.ndarray) else f
            if z == 0:
                out[e] = z * 0
                break
    return out


def linear_formula(br, ratio, i, d: int):
    """Order-2 Gram entry a_{i,i+d}, d in {0, 1}, over a bracket provider
    ``br(l, e, i)`` = (le)_i: a_{i,i} = (20)_i/3, a_{i,i+1} = (21)_i/6.
    It takes quad_formula's arguments; its denominators are constants, so
    it needs no ``ratio``."""
    return br(2, 0, i) / 3 if d == 0 else br(2, 1, i) / 6


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


# ---------------------------------------------------------------------------
# Quadrature


@cache
def _newton_cotes_weights(npoints: int):
    """Exact closed Newton-Cotes weights on [0,1] for equally spaced nodes.

    Integrates polynomials of degree <= npoints-1 exactly; npoints = 1 is the
    midpoint rule (degree 1).  Returns (nodes, weights), tuples of Fractions,
    cached per npoints.
    """
    if npoints == 1:
        return (Fraction(1, 2),), (Fraction(1),)
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
    return tuple(nodes), tuple(weights)


def _bspline_pieces(ks: KnotSequence, nodes):
    """The order-k B-splines on every knot interval at once, each as its
    polynomial piece there, at the points x = t_l + h_l * node.

    The intervals [t_l, t_{l+1}], k <= l <= m, are the nonempty ones, and
    h_l = t_{l+1} - t_l.  ``nodes`` is a 1-D array on [0, 1] (endpoints
    included) in the scalar type of the knots.  Returns (h, N), with
    N[c, s, q] = N_{l-k+1+s,k}(t_l + h_l * nodes[q]) for l = k + c: one
    Cox-de Boor triangle per point, built upward from N_{l,1} = 1.  Each
    order-(r-1) spline N_p enters the order-r step divided by the length
    t_{p+r-1} - t_p of its support, which contains [t_l, t_{l+1}] and so is
    never zero.
    """
    import numpy as np

    k, m = ks.order, ks.m
    t = np.array(ks.knots)  # t[i - 1] = t_i
    ls = np.arange(k, m + 1)[:, None]
    h = t[ls] - t[ls - 1]
    x = (t[ls - 1] + h * nodes)[:, None, :]
    N = np.ones_like(x)
    for r in range(2, k + 1):
        p = ls + np.arange(2 - r, 1)  # N holds N_{p,r-1}, p = l-r+2 .. l
        tp, tpr = t[p - 1][..., None], t[p + r - 2][..., None]
        N = N / (tpr - tp)
        zero = np.zeros_like(x)
        N = (np.concatenate([(tpr - x) * N, zero], axis=1)
             + np.concatenate([zero, (x - tp) * N], axis=1))
    return h[:, 0], N


def gram_quadrature(ks: KnotSequence) -> SymBandedMatrix:
    """Gram matrix of any order by per-interval quadrature, in the scalar
    mode of the knots.

    Every knot interval takes the same rule, mapped to [0, 1]: the point
    t_l + h * node has weight h * w.  Float knots: k-node Gauss-Legendre
    (exact for degree 2k-1 >= 2k-2 up to rounding).  Exact knots: closed
    Newton-Cotes on 2k-1 rational nodes, exact for the degree-(2k-2)
    integrand; the midpoint rule at order 1.  Gauss nodes are irrational,
    and Newton-Cotes weights in float lose accuracy at high order (the sum
    of their magnitudes is 3.06 at k = 6 and 175 at k = 10).  Each band
    entry a_{i,i+d} sums, over the intervals where both splines live, the
    weighted products of the pieces of ``_bspline_pieces``.
    """
    import numpy as np

    k, m = ks.order, ks.m
    if ks.exact:
        nodes, weights = map(np.array, _newton_cotes_weights(2 * k - 1))
    else:
        x, w = np.polynomial.legendre.leggauss(k)
        nodes, weights = (1 + x) / 2, w / 2
    h, N = _bspline_pieces(ks, nodes)
    WN = (h[:, None] * weights)[:, None, :] * N
    bands = [np.zeros(m - d, N.dtype) for d in range(k)]
    for s1 in range(k):  # interval l adds to a_{l-k+1+s1, l-k+1+s2}
        for s2 in range(s1, k):
            bands[s2 - s1][s1:s1 + m - k + 1] += (WN[:, s1] * N[:, s2]).sum(axis=1)
    return SymBandedMatrix(m, k - 1, tuple(bands))


def build_gram(ks: KnotSequence, method: str = "auto") -> SymBandedMatrix:
    """Assemble the Gram matrix for a knot sequence.

    method "closed" uses the order-2/3 closed forms, each band a_{i,i+d}
    one pass of the formula over the index array i = 1..m-d, "quadrature"
    the quadrature, "auto" the closed form when one exists.
    """
    import numpy as np

    k = ks.order
    if method == "auto":
        method = "closed" if k in (2, 3) else "quadrature"
    if method == "closed":
        formula = {2: linear_formula, 3: quad_formula}.get(k)
        if formula is None:
            raise InputError(f"no closed form for order {k}")
        bands = [formula(ks.brackets, ratio, np.arange(1, ks.m - d + 1), d)
                 for d in range(k)]
        if ks.exact:  # each entry reduced once, to its canonical Fraction
            bands = [band.fractions() for band in bands]
        return SymBandedMatrix(ks.m, k - 1, tuple(bands))
    if method == "quadrature":
        return gram_quadrature(ks)
    raise InputError(f"unknown gram method {method!r}")


# ---------------------------------------------------------------------------
# Matrix dump JSON


def matrix_to_json(A: SymBandedMatrix) -> dict:
    """The band's upper half as (i, j, a_ij) triples, row by row."""
    bands = [format_scalars(b) for b in A.bands]
    entries = [[i, i + d, bands[d][i - 1]] for i in range(1, A.n + 1)
               for d in range(min(A.bandwidth, A.n - i) + 1)]
    return {"n": A.n, "bandwidth": A.bandwidth, "entries": entries}


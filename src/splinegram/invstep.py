"""Inversion of a symmetric banded matrix and of all its leading principal
submatrices from one banded LDL^T factorization.

A = L D L^T with L unit lower triangular of the same bandwidth w.  The pivot
d_n is the Schur complement of A_{n-1} in A_n, so b_{n,n}^n = 1/d_n; and
since L_n^{-1} e_n = e_n, the last column of A_n^{-1} is column n of L^{-T}
divided by d_n.  L^T B = D^{-1} L^{-1} is lower triangular with diagonal
1/d_i, which gives B = A^{-1} row by row from the bottom up (Takahashi,
Fagan and Chen, 1973):

    b_{i,j} = delta_{ij}/d_i - sum_{k=i+1}^{i+w} l_{k,i} b_{k,j}   (j >= i).

Y = L^{-T} D^{-1} satisfies the same recurrence (L^T Y = D^{-1}), but is
upper triangular where B is symmetric; its column n, cut to length n, is
the last column of A_n^{-1}.  The factorization costs O(m w^2) and each
recurrence O(m^2 w).

Three paths evaluate the recurrence, chosen by bandwidth and scalar mode.
In float mode at bandwidth 1 (order 2; bandwidth 0 goes the same way with
l = 0), the inverse of a tridiagonal matrix has the product form
b_{i,j} = u_i v_j (Gantmacher and Krein), and the recurrence is a product
chain up each column: b_{i,j} = (-l_{i+1,i}) b_{i+1,j} above the diagonal,
after the diagonal's scalar recurrence b_{i,i} = 1/d_i + (-l_{i+1,i})
((-l_{i+1,i}) b_{i+1,i+1}); one ``multiply.accumulate`` per matrix builds
every column of B and of Y with no Python loop.  In float mode at bandwidth
w >= 2 one row step computes row i of B and of Y together, by one matmul
over the two stacked, and mirrors B's row into its column.  Each entry of
both float paths is the same operations in the same order as the plain
row-by-row recurrence, so they give its B and history bit for bit (a zero
may differ in sign).  In exact mode no Fraction enters the arithmetic.  The
factorization runs on (numerator, denominator) pairs of Python ints, read
once from the band entries: each pivot and multiplier is one unreduced sum
of products, reduced when it is stored, so that it is kept in lowest terms
(a gcd per value, where one common denominator for all would grow much
larger).  At every bandwidth the row steps then run over integer
numerators: by Cramer's rule B's entries share a denominator, and so do
those of each column of Y (the last column of some A_n^{-1}).  Each row
step is an integer matmul and one exact division per entry, and a
denominator grows only where a division demands it (the integer-preserving
elimination of Bareiss, 1968, which defers every reduction to the end).  The exact
inverse is kept in that scaled form, and the canonical Fractions of B and
of the history columns are built only when they are first read; only the
m Fractions of the diagonal history, 1/d_n, are built at once.  The decay
report, its CSV rows, the lemma battery and the checkerboard read the
scaled form itself, as ``scalars._Pairs`` arrays (``_parts``,
``_history_parts``).

One routine serves both scalar modes, taken from the dtype of A's bands:
numpy arrays of dtype object hold Fractions in exact mode, float64 arrays
hold floats in float mode; the returned history is views of Y.  Public
(i,j) indices are 1-based to match the formulas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithmeticFailure, InputError
from .gram import SymBandedMatrix
from .scalars import _Pairs, _rational, format_scalars


class _built(functools.cached_property):
    """A dataclass field built on first read: a value given to the
    constructor is stored as it is, and the field's default (this
    descriptor) leaves the attribute unset until the decorated method builds
    it into the instance ``__dict__``."""

    def __set__(self, obj, value):
        if value is not self:
            obj.__dict__[self.attrname] = value


@dataclass(frozen=True, eq=False)
class GrowingInverse:
    """The inverse B = A_n^{-1}, an n x n array of dtype object (Fractions)
    or float64, plus the opt-in leading-inverse history.

    ``diag_history`` holds (b_{1,1}^1, ..., b_{n,n}^n) and ``col_history`` the
    last column of every leading inverse (b_{.,j}^j, of length j), 1-D views
    of one array of B's dtype, when history retention is on; else None.

    An exact inverse from ``invert_iteratively`` keeps the scaled form
    ``_scaled = (N_B, lam, N_Y, mu)``: B = N_B / lam and column j of Y =
    N_Y[:, j] / mu[j], object arrays of Python ints over positive
    denominators, the last column of Y being B's (N_Y and mu are None
    without history).  Its B and col_history are canonical Fractions built
    from that form on first read; its diag_history, 1/d_n, is built at once
    from the factorization's reduced integer pairs.
    A B given to the constructor drops the scaled form.  Equality is
    identity.
    """

    n: int
    B: object  # B and col_history default to their builders below
    diag_history: object = None
    col_history: tuple | None
    _scaled: tuple | None = None

    def __post_init__(self):
        if self._scaled is not None and "B" in vars(self):
            # a B given beside the scaled form (dataclasses.replace) is the
            # one every reader must see
            object.__setattr__(self, "_scaled", None)

    @_built
    def B(self):
        import numpy as np

        NB, lam = self._scaled[:2]
        upper = np.triu_indices(self.n)
        B = np.empty(NB.shape, object)
        B[upper] = _Pairs(NB[upper], lam).fractions()
        B.T[upper] = B[upper]
        return B

    @_built
    def col_history(self):
        import numpy as np

        _, _, NY, mu = self._scaled
        upper = np.triu_indices(self.n, 1)
        Y = self.diag_history.base  # the array the diagonal is a view of
        Y[upper] = _Pairs(NY[upper], mu[upper[1]]).fractions()
        return tuple(Y[:n, n - 1] for n in range(1, self.n + 1))


def _parts(B):
    """An inverse as the kernels read it: float entries as a numeric array,
    exact ones as a ``scalars._Pairs`` array of B's shape.  B is a
    GrowingInverse, whose exact entries are its scaled form N_B over the
    shared lam, with no Fraction built, or an array or nested rows, whose
    Fractions and ints enter by their integer parts (``scalars._rational``;
    an object entry with none is an InputError).  Ragged rows raise
    ValueError, as numpy does."""
    import numpy as np

    if isinstance(B, GrowingInverse):
        if B._scaled is not None:
            return _Pairs(*B._scaled[:2])
        B = B.B
    return _rational(np.asarray(B))


def _history_parts(state: GrowingInverse):
    """The history columns end to end (n outer, j inner), as ``_parts``
    gives entries: column n of the scaled form over its mu[n]; None without
    history."""
    import numpy as np

    if state._scaled is None:
        if state.col_history is None:
            return None
        return _parts(np.concatenate(state.col_history))
    _, _, NY, mu = state._scaled
    if NY is None:
        return None
    hi, lo = np.tril_indices(state.n)
    return _Pairs(NY[lo, hi], mu[hi])


def _ldlt(A: SymBandedMatrix):
    """Float pivots d and the columns of L below the diagonal (``L[j][r] =
    l_{j+r+1, j}``, 0.0 past the last row), as lists of Python floats.  L's
    rows have at least one entry, so that bandwidth 0 takes the bandwidth-1
    path.  A zero pivot d_n raises ArithmeticFailure with step n.

    Each sum accumulates left to right from 0.0 (``sum()`` of floats is
    compensated from CPython 3.12 on).  A finite float whose square leaves
    float64 raises OverflowError from ``**``; that factorization reruns on
    numpy scalars, whose square is inf as before."""
    m, w = A.n, A.bandwidth
    bands = [b.tolist() for b in A.bands]  # a_{j+1, i+1} = bands[i-j][j]
    try:
        return _ldlt_rows(m, w, bands)
    except OverflowError:
        return _ldlt_rows(m, w, [list(b) for b in A.bands])


def _ldlt_rows(m, w, bands):
    d, L = [], [[0.0] * max(w, 1) for _ in range(m)]
    for j in range(m):
        acc = 0.0
        for k in range(max(0, j - w), j):
            acc = acc + L[k][j - k - 1] ** 2 * d[k]
        dj = bands[0][j] - acc
        if dj == 0:
            raise ArithmeticFailure("zero pivot in the LDL^T factorization",
                                    step=j + 1, context=bands[0][j])
        d.append(dj)
        for i in range(j + 1, min(m, j + w + 1)):
            acc = 0.0
            for k in range(max(0, i - w), j):
                acc = acc + L[k][i - k - 1] * L[k][j - k - 1] * d[k]
            L[j][i - j - 1] = (bands[i - j][j] - acc) / dj
    return d, L


def _ldlt_pairs(A: SymBandedMatrix):
    """The exact ``_ldlt``: d and L as (numerator, denominator) pairs of
    Python ints, each in lowest terms over a positive denominator, (0, 1)
    past the last row.

    Each band entry's integer parts are read once.  Beside l_{i,j} the
    factorization keeps u_{i,j} = l_{i,j} d_j, the multiplier before its
    division, and d_j = u_{j,j}: u_{i,j} = a_{i,j} - sum_k l_{i,k} u_{j,k}
    is one unreduced sum of products, reduced by one gcd when it is stored,
    and l_{i,j} = u_{i,j} / d_j by the two gcds that cross its reduced
    parts.  A zero pivot d_n raises ArithmeticFailure with step n and the
    band entry a_{n,n} as context."""
    m, w = A.n, A.bandwidth
    bands = [[(x.numerator, x.denominator) for x in b.tolist()] for b in A.bands]
    d, L = [], [[(0, 1)] * max(w, 1) for _ in range(m)]
    U = [[None] * w for _ in range(m)]  # U[j][r] = u_{j+r+1, j}
    for j in range(m):
        for i in range(j, min(m, j + w + 1)):
            n, q = bands[i - j][j]
            for k in range(max(0, i - w), j):
                (a, b), (c, e) = L[k][i - k - 1], U[k][j - k - 1]
                be = b * e
                n, q = n * be - a * c * q, q * be
            g = math.gcd(n, q)
            n, q = n // g, q // g
            if i == j:
                if n == 0:
                    raise ArithmeticFailure("zero pivot in the LDL^T factorization",
                                            step=j + 1, context=A.bands[0][j])
                d.append((n, q))
                continue
            U[j][i - j - 1] = n, q
            dn, dd = d[j]
            g, h = math.gcd(n, dn), math.gcd(q, dd)
            if dn < 0:
                g = -g
            L[j][i - j - 1] = (n // g) * (dd // h), (q // h) * (dn // g)
    return d, L


def _product_chains(L, inv_d, depth):
    """Float B and, at depth 2, Y of bandwidth at most 1, stacked as S[0]
    and S[1]: the diagonal of B by its scalar recurrence, then each column of
    both as one product chain up from the diagonal, b_{i,j} = (-l_{i+1,i})
    b_{i+1,j}.
    A zero l (bandwidth 0) enters as +0.0, so that B's zeros off the
    diagonal are +0.0, as the matmul sums of the row step are."""
    import numpy as np

    m = len(L)
    nl = [-row[0] if row[0] else 0.0 for row in L]
    b = [inv_d[-1] + 0.0]  # the last row's empty sum, as the row step adds it
    for i in range(m - 2, -1, -1):
        b.append(inv_d[i] + nl[i] * (nl[i] * b[-1]))
    # -l above the diagonal, the chain's start on it and 1 below it
    lower = np.tri(m, m, -1, bool)
    S = np.ones((depth, m, m))
    np.copyto(S, np.array(nl, float)[:, None], where=lower.T)
    S.reshape(depth, m * m)[:, ::m + 1] = (b[::-1], inv_d)[:depth]
    bottom_up = S[:, ::-1]
    np.multiply.accumulate(bottom_up, axis=1, out=bottom_up)
    S[0][lower] = S[0].T[lower]
    if depth > 1:
        S[1][lower] = 0.0
    return S


def _row_steps(L, inv_d, depth):
    """Float B and, at depth 2, Y of bandwidth w >= 2, stacked as S[0] and
    S[1], row by row from the bottom: each step computes row i of both with
    one matmul and mirrors B's row into its column."""
    import numpy as np

    m, w = len(L), len(L[0])
    NL = -np.array(L, float)
    S = np.zeros((depth, m, m))
    if depth > 1:
        S[1].reshape(m * m)[::m + 1] = inv_d
    B = S[0]
    for i in range(m - 1, -1, -1):
        neg_l = NL[i, : min(w, m - i - 1)]
        rows = neg_l @ S[:, i + 1:i + 1 + len(neg_l), i + 1:]
        S[:, i, i + 1:] = rows
        B[i + 1:, i] = rows[0]
        B[i, i] = inv_d[i] + neg_l @ rows[0, : len(neg_l)]
    return S


def _integer_rows(L, inv_d, depth):
    """Exact B and, at depth 2, Y of any bandwidth in the scaled form
    (N_B, lam, N_Y, mu), N_Y and mu None at depth 1: the row steps of
    ``_row_steps`` over integer numerators, B's over one shared denominator
    lam and each column of Y's over its own, mu[j].  L and inv_d are
    ``_ldlt_pairs``' reduced pairs, inv_d[i] = (q, p) for 1/d_i = q/p with
    p > 0.

    Row i writes -l_{i+r+1,i} = c_r/Q over the row's common Q, and its
    numerators are s // Q with s = c @ (the numerator rows below).  Where a
    division leaves a remainder, the denominators it spans grow by the
    least factor that makes it exact, Q / gcd(Q, s...), and their
    numerators with them.  B's diagonal lam q/p + (c . row)/Q is
    (lam q Q + (c . row) p) / (p Q), reduced by one gcd, and lam grows by
    the denominator left.  So lam and mu stay the least common denominators
    of what they hold, and no numerator is reduced: N_B is symmetric, N_Y
    upper triangular, and both hold Python ints."""
    import numpy as np

    m, w = len(L), len(L[0])
    split = np.frompyfunc(divmod, 2, 2)
    N = np.zeros((depth, m, m), object)  # Python ints
    NB, lam = N[0], 1
    mu = np.array([p for _, p in inv_d], object)
    if depth > 1:
        N[1].reshape(m * m)[::m + 1] = [q for q, _ in inv_d]
    for i in range(m - 1, -1, -1):
        neg_l = L[i][: min(w, m - i - 1)]
        Q = math.lcm(*(b for _, b in neg_l))
        c = np.array([-a * (Q // b) for a, b in neg_l], object)
        s = c @ N[:, i + 1:i + 1 + len(c), i + 1:]
        rows, rem = split(s, Q)
        if rem[0].any():
            g = math.gcd(Q, *rem[0])
            lam *= Q // g
            NB[i + 1:, i + 1:] *= Q // g
            rows[0] = s[0] // g
        if depth > 1 and rem[1].any():
            cols = np.flatnonzero(rem[1])
            g = np.gcd(rem[1, cols], Q)
            grown = i + 1 + cols
            N[1][:, grown] *= Q // g
            mu[grown] *= Q // g
            rows[1, cols] = s[1, cols] // g
        N[:, i, i + 1:] = rows
        NB[i + 1:, i] = rows[0]
        q, p = inv_d[i]
        top, bottom = lam * q * Q + (c @ rows[0, : len(c)]) * p, p * Q
        g = math.gcd(top, bottom)
        if bottom > g:
            lam *= bottom // g
            NB[i:, i:] *= bottom // g
        NB[i, i] = top // g
    return (NB, lam, N[1], mu) if depth > 1 else (NB, lam, None, None)


def invert_iteratively(A: SymBandedMatrix, keep_history: bool = False) -> GrowingInverse:
    """Invert A and, with ``keep_history``, every leading A_n, from one
    banded LDL^T factorization (see the module docstring).

    Exact matrices (bands of dtype object) are factored on integer pairs
    (``_ldlt_pairs``) and inverted over integer numerators
    (``_integer_rows``), and give B and the history as arrays of Fractions in
    lowest terms, built from the scaled form on first read (the diagonal
    history at once); float matrices run in float64 (``_ldlt``), and B and
    the history are float64 arrays.
    A zero pivot raises ArithmeticFailure with the 1-based step n of the
    singular A_n.  In float mode a non-finite entry of B or of the history
    (a subnormal pivot whose reciprocal overflows) raises ArithmeticFailure
    with step its 1-based row, the first.
    """
    import numpy as np

    m = A.n
    if A.bands[0].dtype == object:
        d, L = _ldlt_pairs(A)
        inv_d = [(q, p) if p > 0 else (-q, -p) for p, q in d]  # 1/d_i = q/p
        NB, lam, NY, mu = _integer_rows(L, inv_d, 1 + keep_history)
        if not keep_history:
            return GrowingInverse(m, col_history=None, _scaled=(NB, lam, None, None))
        # the last leading inverse is B itself: take its column
        NY[:, m - 1], mu[m - 1] = NB[:, m - 1], lam
        Y = np.full((m, m), Fraction(0), object)
        Y.reshape(m * m)[::m + 1] = [Fraction(q, p) for q, p in inv_d]
        return GrowingInverse(m, diag_history=Y.diagonal(), _scaled=(NB, lam, NY, mu))
    with np.errstate(all="ignore"):  # float overflow is caught below
        d, L = _ldlt(A)
        inv_d = [1 / x for x in d]
        S = (_product_chains if len(L[0]) == 1 else _row_steps)(
            L, inv_d, 1 + keep_history)
    if not np.isfinite(S).all():
        raise ArithmeticFailure("non-finite entry in the float inverse "
                                "(a pivot too small for float64)",
                                step=int(np.argmin(np.isfinite(S).all(axis=(0, 2)))) + 1)
    B = S[0]
    diag_hist = col_hist = None
    if keep_history:
        Y = S[1]
        # the last leading inverse is B itself: take its column bit for bit
        Y[:, m - 1] = B[:, m - 1]
        diag_hist = Y.diagonal()
        col_hist = tuple(Y[:n, n - 1] for n in range(1, m + 1))
    return GrowingInverse(m, B, diag_hist, col_hist)


def check_checkerboard(B):
    """Check (-1)^{i+j} b_{i,j} >= 0 for all entries.

    B is a GrowingInverse, or a 2-D array or nested sequences of floats,
    ints or Fractions, as ``_parts`` reads it.  Exact entries (dtype object)
    are read by the signs of their numerators over positive denominators:
    an exact GrowingInverse's scaled form, without building its Fractions,
    or the integer parts of an object array.  Returns (passed, witness) with
    witness the first violating 1-based (i,j) in row-major order, or None.
    """
    import numpy as np

    B = _parts(B)
    if B.dtype == object:
        B = B.N
    odd = np.indices(B.shape).sum(axis=0) & 1 == 1
    bad = np.empty(B.shape, bool)  # one comparison per entry, x not negated
    bad[odd], bad[~odd] = B[odd] > 0, B[~odd] < 0
    at = np.flatnonzero(bad)
    if not len(at):
        return True, None
    return False, tuple(int(x) + 1 for x in np.unravel_index(at[0], B.shape))


def max_residual(A: SymBandedMatrix, B) -> float:
    """max |B A - I| entry, computed in float64 whatever B's dtype: the
    residual that perfbench's float gates (``check_float_residual``) and the
    tests bound."""
    import numpy as np

    n = A.n
    Ad = np.zeros((n, n))
    for d, band in enumerate(A.bands):
        i = np.arange(n - d)
        Ad[i, i + d] = Ad[i + d, i] = band.astype(float)
    Bd = np.asarray(B, dtype=float)
    return float(np.max(np.abs(Bd @ Ad - np.eye(n))))


# ---------------------------------------------------------------------------
# Dumps


def inverse_to_json(state: GrowingInverse) -> dict:
    """The upper triangle as (i, j, b_ij) triples, row by row."""
    entries = [[i, j, x] for i in range(1, state.n + 1)
               for j, x in enumerate(format_scalars(state.B[i - 1, i - 1:]), start=i)]
    return {"n": state.n, "bandwidth": state.n - 1, "entries": entries}


def history_to_json(state: GrowingInverse) -> list:
    if state.diag_history is None:
        raise InputError("history was not retained; rerun with keep_history")
    diag = format_scalars(state.diag_history)
    return [{"n": n, "b_nn": b, "last_col": format_scalars(col)}
            for n, (b, col) in enumerate(zip(diag, state.col_history), start=1)]

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
recurrence O(m^2 w).  One routine serves both scalar modes, taken from the
dtype of A's bands: numpy arrays of dtype object hold Fractions in exact
mode, float64 arrays hold floats in float mode; the returned history is
views of Y.  Public (i,j) indices are 1-based to match the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithmeticFailure, InputError
from .gram import SymBandedMatrix
from .scalars import format_scalars


@dataclass(frozen=True, eq=False)
class GrowingInverse:
    """The inverse B = A_n^{-1}, an n x n array of dtype object (Fractions)
    or float64, plus the opt-in leading-inverse history.

    ``diag_history`` holds (b_{1,1}^1, ..., b_{n,n}^n) and ``col_history`` the
    last column of every leading inverse (b_{.,j}^j, of length j), 1-D views
    of one array of B's dtype, when history retention is on; else None.
    Equality is identity.
    """

    n: int
    B: object
    diag_history: object = None
    col_history: tuple | None = None


def _ldlt(A: SymBandedMatrix, zero):
    """Pivots d (1-D array) and the columns of L below the diagonal
    (``Lb[j, r] = l_{j+r+1, j}``, zero past the last row), of the bands'
    dtype.  Lb has at least one column, so that at bandwidth 0 products over
    it are zero scalars rather than the integer 0 of an empty sum.  A zero
    pivot d_n raises ArithmeticFailure with step n."""
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


def invert_iteratively(A: SymBandedMatrix, keep_history: bool = False) -> GrowingInverse:
    """Invert A and, with ``keep_history``, every leading A_n, from one
    banded LDL^T factorization (see the module docstring).

    Exact matrices (bands of dtype object) run over Fractions and float
    matrices in float64, and B and the history are arrays of that dtype.
    A zero pivot raises ArithmeticFailure with the 1-based step n of the
    singular A_n.  In float mode a non-finite entry of B or of the history
    (a subnormal pivot whose reciprocal overflows) raises ArithmeticFailure
    with step its 1-based row, the first.
    """
    import numpy as np

    dtype = A.bands[0].dtype
    zero = Fraction(0) if dtype == object else 0.0
    with np.errstate(all="ignore"):  # float overflow is caught below
        d, Lb = _ldlt(A, zero)
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
        # the last leading inverse is B itself: take its column bit for bit
        Y[:, m - 1] = B[:, m - 1]
        diag_hist = Y.diagonal()
        col_hist = tuple(Y[:n, n - 1] for n in range(1, m + 1))
    return GrowingInverse(m, B, diag_hist, col_hist)


def check_checkerboard(B):
    """Check (-1)^{i+j} b_{i,j} >= 0 for all entries.

    Returns (passed, witness) with witness the first violating 1-based (i,j)
    in row-major order, or None.
    """
    import numpy as np

    B = np.asarray(B)
    odd = np.indices(B.shape).sum(axis=0) & 1 == 1
    bad = np.empty(B.shape, bool)  # one comparison per entry, x not negated
    bad[odd], bad[~odd] = B[odd] > 0, B[~odd] < 0
    at = np.flatnonzero(bad)
    if not len(at):
        return True, None
    return False, tuple(int(x) + 1 for x in np.unravel_index(at[0], B.shape))


def max_residual(A: SymBandedMatrix, B) -> float:
    """max |B A - I| entry, float mode (test utility for the residual bound)."""
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

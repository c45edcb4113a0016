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
recurrence O(m^2 w).  One routine serves both scalar modes: numpy arrays of
dtype object hold Fractions in exact mode, float64 arrays hold floats in
float mode.  Public (i,j) indices are 1-based to match the formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ArithmeticFailure, InputError
from .gram import SymBandedMatrix
from .scalars import format_scalars, is_exact


@dataclass(frozen=True)
class GrowingInverse:
    """The inverse B = A_n^{-1}, plus the opt-in leading-inverse history.

    ``diag_history`` holds (b_{1,1}^1, ..., b_{n,n}^n) and ``col_history`` the
    last column of every leading inverse (b_{.,j}^j as a tuple of length j)
    when history retention is on; both are None otherwise.
    """

    n: int
    B: object
    diag_history: tuple | None = None
    col_history: tuple | None = None

    def entry(self, i: int, j: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise InputError(f"index ({i},{j}) outside [1,{self.n}]^2")
        return self.B[i - 1][j - 1]


def _ldlt(A: SymBandedMatrix, scalar, dtype):
    """Pivots d (1-D array) and the columns of L below the diagonal
    (``Lb[j, r] = l_{j+r+1, j}``, zero past the last row).  Lb has at least
    one column, so that at bandwidth 0 products over it are zero scalars
    rather than the integer 0 of an empty sum.  A zero pivot d_n raises
    ArithmeticFailure with step n."""
    import numpy as np

    m, w, bands = A.n, A.bandwidth, A.bands  # a_{j+1, i+1} = bands[i-j][j]
    zero = scalar(0)
    d = np.empty(m, dtype)
    Lb = np.full((m, max(w, 1)), zero, dtype)
    for j in range(m):
        dj = scalar(bands[0][j]) - sum(
            (Lb[k, j - k - 1] ** 2 * d[k] for k in range(max(0, j - w), j)), zero)
        if dj == 0:
            raise ArithmeticFailure("zero pivot in the LDL^T factorization",
                                    step=j + 1, context=bands[0][j])
        d[j] = dj
        for i in range(j + 1, min(m, j + w + 1)):
            s = scalar(bands[i - j][j]) - sum(
                (Lb[k, i - k - 1] * Lb[k, j - k - 1] * d[k]
                 for k in range(max(0, i - w), j)), zero)
            Lb[j, i - j - 1] = s / dj
    return d, Lb


def invert_iteratively(A: SymBandedMatrix, keep_history: bool = False) -> GrowingInverse:
    """Invert A and, with ``keep_history``, every leading A_n, from one
    banded LDL^T factorization (see the module docstring).

    Exact matrices run over Fractions and return B as a tuple of row
    tuples; float matrices run in float64 and return B as an ndarray.  A
    zero pivot raises ArithmeticFailure with the 1-based step n of the
    singular leading submatrix A_n.  In float mode a non-finite entry of B
    or of the history (a subnormal pivot whose reciprocal overflows)
    raises ArithmeticFailure with step its 1-based row, the first.
    """
    import numpy as np

    exact = A.is_exact_matrix()
    scalar, dtype = (Fraction, object) if exact else (float, float)
    with np.errstate(all="ignore"):  # float overflow is caught below
        d, Lb = _ldlt(A, scalar, dtype)
        m, w = Lb.shape
        B = np.empty((m, m), dtype)
        Y = np.full((m, m), scalar(0), dtype) if keep_history else None
        for i in range(m - 1, -1, -1):
            hi = min(m, i + w + 1)
            neg_l = -Lb[i, : hi - i - 1]
            row = neg_l @ B[i + 1:hi, i + 1:]
            B[i, i + 1:] = B[i + 1:, i] = row
            B[i, i] = 1 / d[i] + neg_l @ row[: hi - i - 1]
            if keep_history:
                Y[i, i] = 1 / d[i]
                Y[i, i + 1:] = neg_l @ Y[i + 1:hi, i + 1:]
    if not exact:
        finite = np.isfinite(B) if Y is None else np.isfinite(B) & np.isfinite(Y)
        if not finite.all():
            raise ArithmeticFailure("non-finite entry in the float inverse "
                                    "(a pivot too small for float64)",
                                    step=int(np.argmin(finite.all(axis=1))) + 1)
    diag_hist = col_hist = None
    if keep_history:
        # tolist: Python floats in float mode, the same Fractions in exact
        diag_hist = tuple(Y.diagonal().tolist())
        # the last leading inverse is B itself: take its column bit for bit
        col_hist = tuple(tuple(Y[:n, n - 1].tolist()) for n in range(1, m))
        col_hist += (tuple(B[:, m - 1].tolist()),)
    if exact:
        B = tuple(map(tuple, B))
    return GrowingInverse(m, B, diag_hist, col_hist)


def check_checkerboard(B):
    """Check (-1)^{i+j} b_{i,j} >= 0 for all entries.

    Returns (passed, witness) with witness the first violating 1-based (i,j)
    in row-major order, or None.
    """
    for i, row in enumerate(B):
        for j, x in enumerate(row):
            # (-1)^{i+j} x < 0 decided by one comparison, without negating x
            if (x > 0) if (i + j) & 1 else (x < 0):
                return False, (i + 1, j + 1)
    return True, None


def max_residual(A: SymBandedMatrix, B) -> float:
    """max |B A - I| entry, float mode (test utility for the residual bound)."""
    import numpy as np

    n = A.n
    Ad = np.zeros((n, n))
    for i in range(1, n + 1):
        for j in range(max(1, i - A.bandwidth), min(n, i + A.bandwidth) + 1):
            Ad[i - 1, j - 1] = float(A.get(i, j))
    Bd = np.asarray(B, dtype=float)
    return float(np.max(np.abs(Bd @ Ad - np.eye(n))))


# ---------------------------------------------------------------------------
# Dumps


def inverse_to_json(state: GrowingInverse) -> dict:
    """The upper triangle as (i, j, b_ij) triples, row by row."""
    exact = is_exact(state.B[0][0])
    entries = [[i, j, x] for i in range(1, state.n + 1)
               for j, x in enumerate(format_scalars(state.B[i - 1][i - 1:], exact),
                                     start=i)]
    return {"n": state.n, "bandwidth": state.n - 1, "entries": entries}


def history_to_json(state: GrowingInverse) -> list:
    if state.diag_history is None:
        raise InputError("history was not retained; rerun with keep_history")
    exact = is_exact(state.diag_history[0])
    diag = format_scalars(state.diag_history, exact)
    return [{"n": n, "b_nn": b, "last_col": format_scalars(col, exact)}
            for n, (b, col) in enumerate(zip(diag, state.col_history), start=1)]

"""LDL^T + Takahashi inversion and leading-inverse history against the dense
exact oracle of tests/oracles.py."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import dense_inverse_oracle, to_dense
from splinegram import (ArithmeticFailure, KnotSequence, SymBandedMatrix,
                        build_gram, check_checkerboard, history_to_json,
                        invert_iteratively, max_residual)
from splinegram.partitions import shrink_one_gap


def _random_exact(rng, order, count):
    den = rng.randint(count + 2, 4 * count + 12)
    interior = sorted(rng.sample(range(1, den), count)) if count else []
    return KnotSequence(order, [F(p, den) for p in interior])


# ---------------------------------------------------------------------------
# Frozen small instances


def test_bernstein_linear_inverse():
    # A = [[1/3,1/6],[1/6,1/3]] -> inverse [[4,-2],[-2,4]] (det = 1/12)
    state = invert_iteratively(build_gram(KnotSequence(2, [])))
    assert state.B.tolist() == [[F(4), F(-2)], [F(-2), F(4)]]


def test_single_knot_linear_inverse_and_history():
    # A = [[1/6,1/12,0],[1/12,1/3,1/12],[0,1/12,1/6]]
    # dense elimination gives B_3 = [[7,-2,1],[-2,4,-2],[1,-2,7]];
    # leading inverses give b_{1,1}^1 = 6 and b_{2,2}^2 = 24/7
    state = invert_iteratively(build_gram(KnotSequence(2, [F(1, 2)])),
                               keep_history=True)
    assert state.B.tolist() == [[F(7), F(-2), F(1)],
                                [F(-2), F(4), F(-2)],
                                [F(1), F(-2), F(7)]]
    assert state.diag_history.tolist() == [F(6), F(24, 7), F(7)]
    assert state.col_history[1].tolist() == [F(-12, 7), F(24, 7)]
    assert state.col_history[2].tolist() == [F(1), F(-2), F(7)]


# ---------------------------------------------------------------------------
# Oracle equality and exactness


def test_matches_dense_oracle_exactly():
    rng = random.Random(11)
    for order in (2, 3):
        for _ in range(5):
            ks = _random_exact(rng, order, rng.randint(1, 9))
            A = build_gram(ks)
            state = invert_iteratively(A)
            oracle = dense_inverse_oracle(A)
            assert [list(row) for row in state.B] == oracle, (order, ks.interior)


def test_exact_entries_are_fractions():
    # order 1 has bandwidth 0: its off-diagonal zeros are Fractions too
    rng = random.Random(21)
    for order in (1, 2, 3):
        st = invert_iteratively(build_gram(_random_exact(rng, order, 4)),
                                keep_history=True)
        assert all(type(x) is F for row in st.B for x in row)
        assert all(type(x) is F for col in st.col_history for x in col)


def test_inverse_times_matrix_is_identity():
    rng = random.Random(12)
    for order in (2, 3):
        ks = _random_exact(rng, order, 7)
        A = build_gram(ks)
        B = invert_iteratively(A).B
        n = A.n
        for i in range(n):
            for j in range(n):
                v = sum(B[i][t] * A.get(t + 1, j + 1) for t in range(n))
                assert v == (1 if i == j else 0)


def test_singular_step_raises():
    A = SymBandedMatrix(2, 1, [[F(1), F(1)], [F(1)]])  # [[1,1],[1,1]]
    with pytest.raises(ArithmeticFailure) as err:
        invert_iteratively(A)
    assert err.value.step == 2


@pytest.mark.parametrize("scalar", [F, float])
def test_zero_pivot_reports_its_step(scalar):
    # [[1,1,0],[1,2,1],[0,1,1]]: pivots 1, 1, 0, so A_3 is the first
    # singular leading submatrix; the pivots are exact in floats too
    one, two = scalar(1), scalar(2)
    A = SymBandedMatrix(3, 1, [[one, two, one], [one, one]])
    for keep_history in (False, True):
        with pytest.raises(ArithmeticFailure) as err:
            invert_iteratively(A, keep_history=keep_history)
        assert err.value.step == 3


@pytest.mark.filterwarnings("error")
def test_float_overflow_reports_its_row():
    # the first pivot is subnormal and its reciprocal overflows float64:
    # row 1 of B (and of the history) is the first non-finite one
    A = build_gram(KnotSequence(3, [1e-310, 0.5]))
    for keep_history in (False, True):
        with pytest.raises(ArithmeticFailure) as err:
            invert_iteratively(A, keep_history=keep_history)
        assert err.value.step == 1


def test_zero_corner_start_raises():
    A = SymBandedMatrix(1, 0, [[F(0)]])
    with pytest.raises(ArithmeticFailure) as err:
        invert_iteratively(A)
    assert err.value.step == 1


def test_history_columns_match_oracle_of_leading_submatrices():
    # col_history[n-1] is the last column of A_n^{-1}; every second mesh
    # has one gap shrunk by 1e-4, which drives rational bit growth
    rng = random.Random(19)
    for order in (2, 3):
        for trial in range(6):
            ks = _random_exact(rng, order, rng.randint(1, 9))
            if trial % 2:
                ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1),
                                    F(1, 10 ** 4))
            A = build_gram(ks)
            st = invert_iteratively(A, keep_history=True)
            assert len(st.col_history) == len(st.diag_history) == A.n
            rows = to_dense(A)
            for n in range(1, A.n + 1):
                oracle = dense_inverse_oracle([row[:n] for row in rows[:n]])
                assert st.col_history[n - 1].tolist() == [row[n - 1] for row in oracle]
                assert st.diag_history[n - 1] == oracle[n - 1][n - 1]


# ---------------------------------------------------------------------------
# Recursive bound invariants used by the decay proofs


def test_recursive_diag_bound_invariant():
    # b_{n+1,n+1} <= (a_{n+1,n+1}
    #                 - b_nn a_{n,n+1}(a_{n,n+1} - 2 a_nn a_{n-1,n+1}/a_{n-1,n})
    #                 - 2 a_{n,n+1} a_{n-1,n+1}/a_{n-1,n}
    #                 - a_{n-1,n+1}^2 b_{n-1,n-1}(1 + b_nn b_{n-1,n-1} a_{n-1,n}^2)
    #                )^{-1}     for 2 <= n <= m-1, exactly
    rng = random.Random(15)
    for _ in range(4):
        ks = _random_exact(rng, 3, rng.randint(3, 8))
        A = build_gram(ks)
        st = invert_iteratively(A, keep_history=True)
        d = st.diag_history
        for n in range(2, ks.m):
            a_nn = A.get(n, n)
            a_n_n1 = A.get(n, n + 1)
            a_nm1_n = A.get(n - 1, n)
            a_nm1_n1 = A.get(n - 1, n + 1)
            denom = (A.get(n + 1, n + 1)
                     - d[n - 1] * a_n_n1 * (a_n_n1 - 2 * a_nn * a_nm1_n1 / a_nm1_n)
                     - 2 * a_n_n1 * a_nm1_n1 / a_nm1_n
                     - a_nm1_n1 ** 2 * d[n - 2]
                     * (1 + d[n - 1] * d[n - 2] * a_nm1_n ** 2))
            assert denom > 0
            assert d[n] <= 1 / denom, (ks.interior, n)


def test_lastcol_propagation_invariants():
    # |b_{j,n}^n| <= |b_{j,n-1}^{n-1}| b_nn a_{n-1,n}            (n >= 2)
    # |b_{j,n}^n| <= |b_{j,n-1}^{n-1}| b_nn (a_{n-1,n}
    #                 - a_{n-2,n} a_{n-1,n-1}/a_{n-2,n-1})       (n >= 3, j <= n-2)
    rng = random.Random(16)
    for _ in range(4):
        ks = _random_exact(rng, 3, rng.randint(3, 8))
        A = build_gram(ks)
        st = invert_iteratively(A, keep_history=True)
        cols = st.col_history
        diag = st.diag_history
        for n in range(2, ks.m + 1):
            for j in range(1, n):
                lhs = abs(cols[n - 1][j - 1])
                base = abs(cols[n - 2][j - 1]) * diag[n - 1]
                assert lhs <= base * A.get(n - 1, n)
                if n >= 3 and j <= n - 2:
                    adj = (A.get(n - 1, n)
                           - A.get(n - 2, n) * A.get(n - 1, n - 1) / A.get(n - 2, n - 1))
                    assert lhs <= base * adj


# ---------------------------------------------------------------------------
# Float path


def test_float_residual_small():
    rng = random.Random(17)
    for order in (2, 3):
        count = 200 - order
        pts = sorted(rng.random() for _ in range(count))
        ks = KnotSequence(order, pts)
        assert ks.m == 200
        A = build_gram(ks)
        st = invert_iteratively(A)
        assert max_residual(A, st.B) <= 1e-10


def test_float_history_last_column_is_inverse_column():
    rng = random.Random(20)
    for order in (2, 3):
        ks = KnotSequence(order, sorted(rng.random() for _ in range(40)))
        st = invert_iteratively(build_gram(ks), keep_history=True)
        last = st.col_history[-1]
        assert len(last) == st.n
        assert all(x == y for x, y in zip(last, st.B[:, st.n - 1]))
        assert st.diag_history[-1] == st.B[st.n - 1, st.n - 1]


def test_history_scalar_types():
    # the history is views of one array of B's dtype: the recurrence's
    # Fractions in exact mode, float64 in float mode; history_to_json still
    # writes Python floats
    for order in (2, 3):
        for scalar, dtype in ((F, object), (float, np.float64)):
            ks = KnotSequence(order, [scalar(F(1, 4)), scalar(F(2, 3))])
            st = invert_iteratively(build_gram(ks), keep_history=True)
            arrays = (st.B, st.diag_history, *st.col_history)
            assert all(a.dtype == dtype for a in arrays)
            Y = st.diag_history.base
            assert all(col.base is Y for col in st.col_history)
            if scalar is F:
                values = [*st.diag_history, *(x for col in st.col_history for x in col)]
                assert all(type(x) is F for x in values)
            else:
                for rec in history_to_json(st):
                    assert all(type(x) is float for x in (rec["b_nn"], *rec["last_col"]))


def test_float_history_matches_exact():
    exact_ks = KnotSequence(2, [F(1, 4), F(2, 3)])
    float_ks = KnotSequence(2, [0.25, 2 / 3])
    st_e = invert_iteratively(build_gram(exact_ks), keep_history=True)
    st_f = invert_iteratively(build_gram(float_ks), keep_history=True)
    for be, bf in zip(st_e.diag_history, st_f.diag_history):
        assert abs(float(be) - bf) <= 1e-12 * float(be)


# ---------------------------------------------------------------------------
# Structure of the inverse


def test_checkerboard_sign_pattern():
    rng = random.Random(18)
    for order in (2, 3):
        ks = _random_exact(rng, order, 6)
        st = invert_iteratively(build_gram(ks))
        ok, witness = check_checkerboard(st.B)
        assert ok, witness


def test_checkerboard_detects_violation():
    ok, witness = check_checkerboard(((F(1), F(1)), (F(1), F(1))))
    assert not ok and witness == (1, 2)
    # a positive entry at odd i+j, (2,1), and a negative one at even i+j,
    # (1,3): the witness is the first in row-major order; zeros never
    # violate; float arrays are checked the same way
    B = [[F(1), F(-1), F(-1)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    for rows in (B, np.array(B, dtype=float)):
        ok, witness = check_checkerboard(rows)
        assert not ok and witness == (1, 3) and all(type(x) is int for x in witness)
    B[0][2] = F(1)
    assert check_checkerboard(B) == (False, (2, 1))
    B[1][0] = F(-1)
    assert check_checkerboard(B) == (True, None)


def test_oracle_accepts_banded_and_dense():
    A = build_gram(KnotSequence(2, [F(1, 3), F(2, 3)]))
    assert dense_inverse_oracle(A) == dense_inverse_oracle(to_dense(A))


def test_matrix_and_inverse_compare_by_identity():
    # both hold arrays: == and hash are identity's and never raise
    A = build_gram(KnotSequence(2, [F(1, 2)]))
    A2 = build_gram(KnotSequence(2, [F(1, 2)]))
    st, st2 = invert_iteratively(A, keep_history=True), invert_iteratively(A)
    assert A == A and A != A2 and st == st and st != st2
    assert len({hash(A), hash(A2), hash(st), hash(st2)}) == 4


def test_growing_inverse_accessors():
    st = invert_iteratively(build_gram(KnotSequence(2, [F(1, 2)])),
                            keep_history=True)
    assert st.B[0, 2] == F(1)
    # the last column of the full inverse is the history's last column
    assert [st.B[i - 1, 2] for i in (1, 2, 3)] == st.col_history[2].tolist() \
        == [F(1), F(-2), F(7)]

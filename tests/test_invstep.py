"""LDL^T + Takahashi inversion and leading-inverse history against the dense
exact oracle and the row-by-row recurrence of tests/oracles.py."""

import math
import random
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_inverse_oracle, invert_rowwise, ldlt_rowwise, to_dense
from splinegram import (ArithmeticFailure, InputError, KnotSequence,
                        SymBandedMatrix, build_gram, check_checkerboard,
                        history_to_json, invert_iteratively, max_residual)
from splinegram.invstep import _ldlt_pairs
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


def test_exact_zero_pivot_at_bandwidth_two():
    # d = (2, 1/3, 0) with l_21 = 1/2, l_31 = -1 and l_32 = 3: the third
    # pivot is 5 - (-1)^2 * 2 - 3^2 * 1/3 = 0 exactly, and the failure names
    # step 3 and the band entry a_33 itself
    A = SymBandedMatrix(4, 2, [[F(2), F(5, 6), F(5), F(7)], [F(1), F(0), F(1)],
                               [F(-2), F(1)]])
    for keep_history in (False, True):
        with pytest.raises(ArithmeticFailure, match="zero pivot") as err:
            invert_iteratively(A, keep_history=keep_history)
        assert err.value.step == 3
        assert type(err.value.context) is F and err.value.context == F(5)


@pytest.mark.filterwarnings("error")
def test_float_overflow_reports_its_row():
    # the first pivot is subnormal and its reciprocal overflows float64:
    # row 1 of B (and of the history) is the first non-finite one, on the
    # row steps of bandwidth 2 and on the product chains of bandwidth 1
    for order in (3, 2):
        A = build_gram(KnotSequence(order, [1e-310, 0.5]))
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
# Identity with the row-by-row recurrence


def _same(x, y) -> bool:
    """Equal Fractions in canonical form (positive denominator, lowest
    terms) in exact mode; in float mode equal bits, zeros compared by value
    (a product chain and a matmul sum may give a zero different signs)."""
    if x.dtype == object:
        return x.tolist() == y.tolist() and all(
            type(v) is F and v.denominator > 0 and gcd(v.numerator, v.denominator) == 1
            for v in x.ravel())
    bits = x.view(np.int64) == y.view(np.int64)
    return bool((bits | ((x == 0) & (y == 0))).all())


def _assert_matches_rowwise(A):
    for keep_history in (False, True):
        st, ref = invert_iteratively(A, keep_history), invert_rowwise(A, keep_history)
        assert st.B.dtype == ref.B.dtype and _same(st.B, ref.B)
        if keep_history:
            assert _same(st.diag_history, ref.diag_history)
            assert len(st.col_history) == len(ref.col_history) == A.n
            assert all(_same(c, r) for c, r in zip(st.col_history, ref.col_history))
        else:
            assert st.diag_history is st.col_history is None


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_matches_rowwise_oracle(order, mode):
    # bandwidths 0..4 from the smallest m (no interior knot; its float
    # bands are the exact ones rounded) up to m = 60 exact and 300 float,
    # each size once more with one gap shrunk by 1e-4
    rng = random.Random(40 + order)
    exact = mode == "exact"
    smallest = build_gram(KnotSequence(order, []))
    if not exact:
        smallest = SymBandedMatrix(order, order - 1,
                                   [b.astype(float) for b in smallest.bands])
    _assert_matches_rowwise(smallest)
    sizes = (1, 2, 5, 20, 60 - order) if exact else (1, 2, 5, 40, 150, 300 - order)
    if exact and order > 3:
        sizes = sizes[:-1]  # rational bit growth: 3 s for m = 60 at order 5
    for count in sizes:
        ks = _random_exact(rng, order, count)
        if not exact:
            ks = KnotSequence(order, sorted(rng.random() for _ in range(count)))
        for mesh in (ks, shrink_one_gap(ks, rng.randrange(count + 1), F(1, 10 ** 4)
                                        if exact else 1e-4)):
            _assert_matches_rowwise(build_gram(mesh))


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_lazy_fractions_match_rowwise_oracle(order):
    # an exact inverse is kept as integer numerators over shared
    # denominators; B and the history columns are canonical Fractions built
    # on first read, equal to the row-by-row recurrence's at every
    # bandwidth, 0 and 1 included; lam and each mu[j] but the last (B's
    # lam) are the least common denominators of what they hold
    rng = random.Random(70 + order)
    for count in (0, 1, 6, 30 - 4 * order):
        ks = _random_exact(rng, order, count)
        for mesh in (ks, shrink_one_gap(ks, rng.randrange(count + 1), F(1, 10 ** 4))):
            A = build_gram(mesh)
            for keep_history in (False, True):
                st = invert_iteratively(A, keep_history)
                ref = invert_rowwise(A, keep_history)
                assert "B" not in vars(st)
                assert ("col_history" not in vars(st)) == keep_history
                NB, lam, NY, mu = st._scaled
                assert _same(st.B, ref.B) and "B" in vars(st)
                assert lam == math.lcm(*(x.denominator for x in st.B.ravel()))
                assert (NB == lam * st.B).all()
                if not keep_history:
                    assert st.diag_history is st.col_history is NY is mu is None
                    continue
                assert _same(st.diag_history, ref.diag_history)
                assert all(_same(c, r) for c, r in zip(st.col_history, ref.col_history))
                assert len(st.col_history) == A.n and mu[-1] == lam
                for n, col in enumerate(st.col_history, start=1):
                    assert (NY[:n, n - 1] == mu[n - 1] * col).all()
                    assert n == A.n or mu[n - 1] == math.lcm(*(x.denominator for x in col))


def test_integer_rows_grow_each_denominator():
    # exact bandwidth 2 runs over integer numerators: B's over one shared
    # denominator, each column of Y's over its own.  Pivots 3, 8/3, 1, 1/2
    # and -l = (-1/3, 1/3), (-1/2, -3/4), (1,): B's denominator is 1 after
    # b_44 = 2 and row 3; row 2 (Q = 4) has numerators -12/4 and -10/4, so
    # it grows to 2, and b_22 = 3/4 + 27/4 over it grows it to 4; in the
    # same row Y's column 3 (not the last, which B's replaces) grows from 1
    # to 2 for y_23 = -1/2, and column 4 for y_24 = -5/2
    A = SymBandedMatrix(4, 2, [[3, 3, 2, 3], [1, 1, 0], [-1, 2]])
    st = invert_iteratively(A, keep_history=True)
    assert st.B.tolist() == [[F(7, 4), F(-9, 4), F(2), F(3, 2)],
                             [F(-9, 4), F(15, 4), F(-3), F(-5, 2)],
                             [F(2), F(-3), F(3), F(2)],
                             [F(3, 2), F(-5, 2), F(2), F(2)]]
    assert st.B.tolist() == dense_inverse_oracle(A)
    assert st.diag_history.tolist() == [F(1, 3), F(3, 8), F(1), F(2)]
    assert [c.tolist() for c in st.col_history[:3]] == [
        [F(1, 3)], [F(-1, 8), F(3, 8)], [F(1, 2), F(-1, 2), F(1)]]
    _assert_matches_rowwise(A)


def _assert_pairs_match_oracle(A):
    # every pivot and multiplier of the exact factorization is two Python
    # ints in lowest terms over a positive denominator, and read as a
    # Fraction it is the row-by-row factorization's, the zeros past the
    # last row included
    d, L = _ldlt_pairs(A)
    ref_d, ref_L = ldlt_rowwise(A, F(0))
    pairs = [*d, *(p for row in L for p in row)]
    assert all(type(n) is int and type(q) is int and q > 0 and gcd(n, q) == 1
               for n, q in pairs)
    assert [F(*p) for p in d] == ref_d.tolist()
    assert [[F(*p) for p in row] for row in L] == ref_L.tolist()


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_pair_factorization_matches_rowwise_oracle(order):
    # bandwidths 0..4 on random meshes, each once more with one gap shrunk
    # by 1e-4, and a mesh with gaps of 10^-400
    rng = random.Random(90 + order)
    for count in (0, 1, 6, 20):
        ks = _random_exact(rng, order, count)
        _assert_pairs_match_oracle(build_gram(ks))
        _assert_pairs_match_oracle(build_gram(
            shrink_one_gap(ks, rng.randrange(count + 1), F(1, 10 ** 4))))
    tiny = F(1, 10 ** 400)
    _assert_pairs_match_oracle(build_gram(
        KnotSequence(order, [tiny, 2 * tiny, 3 * tiny, F(1, 3), F(1, 2), 1 - tiny])))


def test_pair_factorization_of_an_indefinite_matrix():
    # pivots 1, -3 and 4/3: l_32 = 1/(-3) keeps its sign in the numerator,
    # and 1/d_2 = -1/3 enters the inverse over a positive denominator; at
    # bandwidth 2 the pivots are 2, -1/2, -3 and 31/4
    A = SymBandedMatrix(3, 1, [[F(1), F(1), F(1)], [F(2), F(1)]])
    assert _ldlt_pairs(A) == ([(1, 1), (-3, 1), (4, 3)], [[(2, 1)], [(-1, 3)], [(0, 1)]])
    wide = SymBandedMatrix(4, 2, [[F(2), F(0), F(1), F(-1)], [F(1), F(1), F(1, 2)],
                                  [F(3), F(2)]])
    assert _ldlt_pairs(wide)[0] == [(2, 1), (-1, 2), (-3, 1), (31, 4)]
    for M in (A, wide):
        _assert_pairs_match_oracle(M)
        _assert_matches_rowwise(M)


@st.composite
def exact_meshes(draw):
    # order 2 or 3 on a grid of step 1/den, one gap shrunk by 10^-e or none
    order = draw(st.sampled_from((2, 3)))
    den = draw(st.integers(2, 400))
    interior = sorted(draw(st.sets(st.integers(1, den - 1), max_size=24)))
    ks = KnotSequence(order, [F(p, den) for p in interior])
    e = draw(st.integers(0, 12))
    if e:
        ks = shrink_one_gap(ks, draw(st.integers(0, len(interior))), F(1, 10 ** e))
    return ks


@settings(max_examples=60, deadline=None)
@given(exact_meshes())
def test_pair_factorization_matches_oracle_on_drawn_meshes(ks):
    _assert_pairs_match_oracle(build_gram(ks))


def test_square_overflow_in_the_factorization_matches_rowwise():
    # l_{2,1} = 1e197 squares past float64: that factorization reruns on
    # numpy scalars, and B = [[1e200, 0], [0, 0]] as before
    A = SymBandedMatrix(2, 1, [[1e-200, 1.0], [1e-3]])
    _assert_matches_rowwise(A)
    assert invert_iteratively(A).B.tolist() == [[1e200, 0.0], [0.0, 0.0]]


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


def test_checkerboard_reads_exact_signs():
    # the only violation is an entry whose float image is -0.0: the signs
    # of an exact B come from its numerators, never from floats
    tiny = F(1, 10 ** 400)
    assert float(-tiny) == 0.0
    B = np.array([[F(2), F(-1), tiny], [F(-1), -tiny, F(-1)], [tiny, F(-1), F(2)]],
                 dtype=object)
    assert check_checkerboard(B) == (False, (2, 2))
    B[1, 1] = tiny
    assert check_checkerboard(B) == (True, None)
    # ints and Fractions mixed in one object matrix
    mixed = np.array([[1, F(-1, 2), 0], [-3, F(7, 2), F(-1)], [F(1, 9), -1, 5]],
                     dtype=object)
    assert check_checkerboard(mixed) == (True, None)
    mixed[2, 1] = 1
    assert check_checkerboard(mixed) == (False, (3, 2))
    # an object entry with no integer parts is bad input, named
    B[0, 1] = -0.5
    with pytest.raises(InputError, match="-0.5"):
        check_checkerboard(B)


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


def test_replaced_inverse_is_the_one_read():
    # dataclasses.replace(state, B=...) gives an inverse whose every reader,
    # the scaled-form ones included, sees the new B and the history it kept
    import dataclasses

    from splinegram import decay_constants, decay_report
    ks = KnotSequence(2, [F(1, 3), F(1, 2)])
    st = invert_iteratively(build_gram(ks), keep_history=True)
    flipped = dataclasses.replace(st, B=-st.B)
    assert flipped._scaled is None and st._scaled is not None
    assert check_checkerboard(st) == (True, None)
    assert check_checkerboard(flipped) == (False, (1, 1))
    report = decay_report(dataclasses.replace(st, B=100 * st.B), ks, decay_constants(2))
    assert not report.passed and report.worst_ratio > 1
    assert all(_same(c, r) for c, r in zip(flipped.col_history, st.col_history))

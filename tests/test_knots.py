"""Knot sequences, brackets, eta, and B-spline evaluation."""

import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from oracles import (bracket, eta, eval_bspline, eval_quadratic_closed,
                     save_partition)
from splinegram import InputError, KnotSequence, gram_quadrature, knots_to_json
from splinegram.gram import _bspline_pieces
from splinegram.knots import knots_from_json, load_partition


# ---------------------------------------------------------------------------
# Construction and normalization


def test_bernstein_knots():
    ks = KnotSequence(2, [])
    assert ks.knots == (0, 0, 1, 1)
    assert ks.m == 2


def test_single_interior_knot():
    ks = KnotSequence(3, [F(1, 2)])
    assert ks.knots == (0, 0, 0, F(1, 2), 1, 1, 1)
    assert ks.m == 4


def test_non_monotone_interior_rejected():
    with pytest.raises(InputError):
        KnotSequence(2, [0.7, 0.3])


def test_interior_outside_unit_interval_rejected():
    with pytest.raises(InputError):
        KnotSequence(2, [F(1, 2), F(3, 2)])
    with pytest.raises(InputError):
        KnotSequence(2, [F(0)])


def test_bad_scalars_rejected():
    with pytest.raises(InputError):
        KnotSequence(2, [True])
    with pytest.raises(InputError):
        KnotSequence(2, ["0.5"])
    with pytest.raises(InputError):
        KnotSequence(0, [F(1, 2)])


def test_scalar_field_normalization():
    exact = KnotSequence(2, [F(1, 4), F(1, 2)])
    assert all(isinstance(t, F) for t in exact.knots)
    mixed = KnotSequence(2, [0.25, F(1, 2)])
    assert all(isinstance(t, float) for t in mixed.knots)
    # the mode is decided once, derived, and cannot be passed or set
    assert exact.exact and KnotSequence(3, []).exact
    assert not mixed.exact
    with pytest.raises(TypeError):
        KnotSequence(2, [], exact=False)
    with pytest.raises(AttributeError):
        exact.exact = False


def test_build_knots_helper():
    # a list of breakpoints builds the same sequence as a tuple
    assert KnotSequence(2, [F(1, 2)]) == KnotSequence(2, (F(1, 2),))


# ---------------------------------------------------------------------------
# Clamped indexing, brackets, eta


def test_knot_index_clamping():
    ks = KnotSequence(2, [F(1, 2)])
    assert ks.knot(0) == 0 and ks.knot(-3) == 0
    assert ks.knot(6) == 1 and ks.knot(99) == 1
    # bracket reaching below the first knot is zero by clamping
    assert bracket(ks, 0, -1, 1) == 0


def test_bracket_values():
    ks = KnotSequence(2, [F(1, 2)])
    # knots (0, 0, 1/2, 1, 1): t_3 - t_1 = 1/2
    assert bracket(ks, 2, 0, 1) == F(1, 2)
    assert bracket(KnotSequence(3, []), 3, 0, 1) == 1


@pytest.mark.parametrize("interior", [[F(1, 7), F(2, 5), F(3, 4)], [0.1, 0.35, 0.9], []],
                         ids=["exact", "float", "no-interior"])
def test_array_brackets_equal_scalar_brackets(interior):
    import numpy as np

    for k in (2, 3):
        ks = KnotSequence(k, interior)
        n = np.arange(0, ks.m + 1)
        for ell in range(-4, k + 5):
            for en in range(-4, ell + 1):
                got = ks.brackets(ell, en, n).tolist()
                assert got == [bracket(ks, ell, en, j) for j in range(ks.m + 1)]
                assert all(type(x) is type(ks.knot(1)) for x in got)
        # any int index array, in any order, with repeats
        at = np.array([ks.m, 1, 1])
        assert ks.brackets(3, 0, at).tolist() == [bracket(ks, 3, 0, j) for j in at.tolist()]
        with pytest.raises(InputError):
            ks.brackets(k + 5, 0, n)
        with pytest.raises(InputError):
            ks.brackets(1, -5, n)


def test_eta_values():
    assert eta(KnotSequence(2, []), 1, 1) == 1
    ks = KnotSequence(2, [F(1, 2)])
    assert eta(ks, 1, 2) == 1          # t_4 - t_1 on (0,0,1/2,1,1)
    assert eta(ks, 2, 1) == 1          # symmetric
    assert eta(ks, 3, 3) == F(1, 2)    # t_5 - t_3
    with pytest.raises(InputError):
        eta(ks, 0, 1)
    with pytest.raises(InputError):
        eta(ks, 1, 4)


def test_eta_inequality_invariant():
    # eta_{j,n+1} (t_{n+k} - t_{n+1}) <= eta_{j,n} (t_{n+k+1} - t_{n+1})
    # for all j <= n <= m-1; exact, on random exact partitions.
    rng = random.Random(20260814)
    checked = 0
    for _ in range(25):
        k = rng.choice((2, 3, 4))
        count = rng.randint(0, 9)
        den = rng.randint(count + 2, 4 * count + 12)
        interior = sorted(rng.sample(range(1, den), count)) if count else []
        ks = KnotSequence(k, [F(p, den) for p in interior])
        for n in range(1, ks.m):
            for j in range(1, n + 1):
                lhs = eta(ks, j, n + 1) * bracket(ks, k, 1, n)
                rhs = eta(ks, j, n) * bracket(ks, k + 1, 1, n)
                assert lhs <= rhs, (k, interior, j, n)
                checked += 1
    assert checked > 500


# ---------------------------------------------------------------------------
# Evaluation


def test_hat_function_value():
    ks = KnotSequence(2, [])
    # N_1 is the decreasing hat 1-x on [0,1]
    assert eval_bspline(ks, 1, 2, F(1, 4)) == F(3, 4)
    assert eval_bspline(ks, 2, 2, F(1, 4)) == F(1, 4)


def test_partition_of_unity_exact():
    ks = KnotSequence(3, [F(1, 5), F(2, 5), F(7, 10)])
    for x in (F(0), F(1, 10), F(1, 5), F(1, 2), F(9, 10), F(1)):
        total = sum(eval_bspline(ks, i, 3, x) for i in range(1, ks.m + 1))
        assert total == 1, x


def test_bspline_nonneg_and_support():
    ks = KnotSequence(3, [F(1, 3), F(2, 3)])
    for i in range(1, ks.m + 1):
        for x in (F(j, 12) for j in range(13)):
            v = eval_bspline(ks, i, 3, x)
            assert v >= 0
            if not (ks.knot(i) <= x <= ks.knot(i + 3)):
                assert v == 0


def test_uniform_middle_spline_center():
    ks = KnotSequence(3, [F(1, 3), F(2, 3)])
    # middle spline of the uniform order-3 basis peaks at 3/4
    assert eval_bspline(ks, 3, 3, F(1, 2)) == F(3, 4)
    assert eval_quadratic_closed(ks, 3, F(1, 2)) == F(3, 4)


def test_quadratic_closed_branches():
    # left branch vanishes at the left support endpoint
    ks = KnotSequence(3, [F(1, 3), F(2, 3)])
    assert eval_quadratic_closed(ks, 4, F(1, 3)) == 0
    # Bernstein: rightmost branch is (1-x)^2 for the first spline
    bern = KnotSequence(3, [])
    assert eval_quadratic_closed(bern, 1, F(1, 2)) == F(1, 4)


def test_quadratic_closed_matches_recursion():
    ks = KnotSequence(3, [F(1, 7), F(2, 5), F(1, 2), F(6, 7)])
    grid = [F(j, 23) for j in range(24)]
    for i in range(1, ks.m + 1):
        for x in grid:
            assert eval_quadratic_closed(ks, i, x) == eval_bspline(ks, i, 3, x)


def test_quadratic_closed_needs_order_3():
    with pytest.raises(InputError):
        eval_quadratic_closed(KnotSequence(2, []), 1, F(1, 2))


def test_eval_at_right_endpoint():
    ks = KnotSequence(2, [F(1, 2)])
    assert eval_bspline(ks, ks.m, 2, F(1)) == 1
    assert eval_bspline(ks, 1, 2, F(1)) == 0


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_bspline_pieces_match_recursion(order, exact):
    # the package's triangles over every knot interval at once, which
    # gram_quadrature reads, against the spline-by-spline oracle at both
    # interval endpoints and inside
    scalar = F if exact else float
    ks = KnotSequence(order, [scalar(x) for x in (F(1, 7), F(2, 5), F(3, 7), F(6, 7))])
    nodes = np.array([scalar(x) for x in (0, F(1, 5), F(1, 2), F(2, 3), 1)])
    h, N = _bspline_pieces(ks, nodes)
    assert N.shape == (ks.m - order + 1, order, len(nodes))
    for c, ell in enumerate(range(order, ks.m + 1)):
        for q, node in enumerate(nodes):
            x = ks.knot(ell) + h[c] * node
            for s in range(order):
                i = ell - order + 1 + s
                if order == 1 and node == 1:
                    # the order-1 piece is 1 on the closed interval; the
                    # half-open oracle moves t_{l+1} to the next interval
                    expected = 1
                else:
                    expected = eval_bspline(ks, i, order, x)
                if exact:
                    assert N[c, s, q] == expected, (ell, i, node)
                else:
                    assert abs(N[c, s, q] - expected) <= 1e-14, (ell, i, node)


# ---------------------------------------------------------------------------
# L1 norms: by the partition of unity, row i of the Gram matrix sums to
# ||N_i||_1 = (t_{i+k} - t_i)/k; the quadrature route gives it exactly


def _l1(ks, i):
    A = gram_quadrature(ks)
    return sum(A.get(i, j) for j in range(1, ks.m + 1))


def test_bspline_l1_values():
    assert _l1(KnotSequence(2, []), 1) == F(1, 2)
    assert _l1(KnotSequence(3, [F(1, 2)]), 2) == F(1, 3)


def test_bspline_l1_identity():
    # ||N_i||_1 = (t_{i+k} - t_i)/k, and they sum to 1 (partition of unity)
    ks = KnotSequence(2, [F(1, 2)])
    total = 0
    for i in range(1, ks.m + 1):
        v = _l1(ks, i)
        assert v == bracket(ks, 2, 0, i) / 2
        total += v
    assert total == 1


# ---------------------------------------------------------------------------
# JSON round trips


def test_partition_json_roundtrip(tmp_path):
    ks = KnotSequence(3, [F(1, 4), F(2, 3)])
    assert knots_from_json(knots_to_json(ks)) == ks
    path = tmp_path / "part.json"
    save_partition(ks, path)
    assert load_partition(path) == ks
    payload = json.loads(path.read_text())
    assert payload["order"] == 3
    assert payload["interior"] == ["1/4", "2/3"]


def test_partition_json_float_roundtrip(tmp_path):
    ks = KnotSequence(2, [0.25, 0.75])
    path = tmp_path / "part.json"
    save_partition(ks, path)
    back = load_partition(path)
    assert back.interior == (0.25, 0.75)
    assert isinstance(back.knot(1), float)


def test_bool_order_rejected():
    # True is an int to isinstance, but knots_from_json rejects
    # {"order": true}: a sequence of order True would write a partition
    # file that it cannot read back
    with pytest.raises(InputError):
        KnotSequence(True, ())
    with pytest.raises(InputError):
        knots_from_json({"order": True, "interior": []})
    ks = KnotSequence(1, ())
    assert knots_from_json(json.loads(json.dumps(knots_to_json(ks)))) == ks


def test_partition_json_rejects_garbage():
    with pytest.raises(InputError):
        knots_from_json({"order": 2})
    with pytest.raises(InputError):
        knots_from_json({"order": 2, "interior": ["1/0"]})

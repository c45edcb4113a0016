"""Gram matrices: closed forms, quadrature oracle, total positivity."""

import json
import random
from fractions import Fraction as F

import pytest

from splinegram import (InputError, KnotSequence, ResourceBudgetError,
                        SymBandedMatrix, build_gram, check_total_positivity,
                        gram_linear, gram_quadratic, gram_quadrature,
                        linear_entry, matrix_from_json, matrix_to_json,
                        quad_entry)
from splinegram.cli import main
from splinegram.gram import quadratic_cross_terms, ratio


def _random_exact(rng, order, count):
    den = rng.randint(count + 2, 4 * count + 12)
    interior = sorted(rng.sample(range(1, den), count)) if count else []
    return KnotSequence(order, [F(p, den) for p in interior])


# ---------------------------------------------------------------------------
# Order 2 closed form


def test_linear_bernstein():
    # hand integration: int (1-x)^2 = 1/3, int x(1-x) = 1/6
    A = gram_linear(KnotSequence(2, []))
    assert A.to_dense() == [[F(1, 3), F(1, 6)], [F(1, 6), F(1, 3)]]


def test_linear_single_knot():
    A = gram_linear(KnotSequence(2, [F(1, 2)]))
    assert [A.get(i, i) for i in (1, 2, 3)] == [F(1, 6), F(1, 3), F(1, 6)]
    assert [A.get(i, i + 1) for i in (1, 2)] == [F(1, 12), F(1, 12)]


def test_linear_row_sums():
    # row i sums to ||N_i||_1 = (t_{i+2} - t_i)/2
    rng = random.Random(5)
    for _ in range(6):
        ks = _random_exact(rng, 2, rng.randint(0, 8))
        A = gram_linear(ks)
        for i in range(1, ks.m + 1):
            total = sum(A.get(i, j) for j in range(1, ks.m + 1))
            assert total == ks.bracket(2, 0, i) / 2


# ---------------------------------------------------------------------------
# Order 3 closed form


def test_quadratic_bernstein_corner():
    # a_{1,1} reduces to (30)_1/5 because (20)_1 = 0
    A = gram_quadratic(KnotSequence(3, []))
    assert A.get(1, 1) == F(1, 5)


def test_quadratic_uniform_interior_values():
    # fully interior row on uniform gaps h: 11h/20, 13h/60, h/120
    # (cross-checked against cardinal B-spline self-convolution values
    #  66/120, 26/120, 1/120 scaled by h)
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    h = F(1, 6)
    A = gram_quadratic(ks)
    assert A.get(4, 4) == 11 * h / 20 == F(11, 120)
    assert A.get(4, 5) == 13 * h / 60 == F(13, 360)
    assert A.get(4, 6) == h / 120 == F(1, 720)


def test_quadratic_row_sums():
    rng = random.Random(6)
    for _ in range(6):
        ks = _random_exact(rng, 3, rng.randint(0, 8))
        A = gram_quadratic(ks)
        for i in range(1, ks.m + 1):
            total = sum(A.get(i, j) for j in range(1, ks.m + 1))
            assert total == ks.bracket(3, 0, i) / 3


def test_single_entry_accessors():
    ks = KnotSequence(3, [F(1, 3), F(1, 2)])
    A = gram_quadratic(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            assert quad_entry(ks, i, j) == A.get(i, j)
    assert quad_entry(ks, 1, 4) == 0
    ks2 = KnotSequence(2, [F(1, 3)])
    A2 = gram_linear(ks2)
    for i in range(1, ks2.m + 1):
        for j in range(1, ks2.m + 1):
            assert linear_entry(ks2, i, j) == A2.get(i, j)
    with pytest.raises(InputError):
        quad_entry(ks, 0, 1)
    with pytest.raises(InputError):
        linear_entry(ks2, 1, 99)


@pytest.mark.parametrize("zero", [F(0), 0.0], ids=["Fraction", "float"])
def test_ratio_zero_numerator_rule(zero):
    one = zero + 1
    # a zero numerator factor wins before any division, even by zero
    r = ratio((one, zero, one), (30, zero, one))
    assert r == 0 and type(r) is type(zero)
    with pytest.raises(ZeroDivisionError):
        ratio((one,), (30, zero))
    # otherwise factors multiply left to right, the numerator's first
    a, b, c, d = one / 3, one / 7, one / 11, one / 13
    assert ratio((a, b, c), (15, d, a)) == a * b * c / (15 * d * a)
    assert type(ratio((a, b), (5,))) is type(zero)


# ---------------------------------------------------------------------------
# Cross terms (order 3, first off-diagonal)


def test_cross_terms_uniform_first_piece():
    # equal gaps h: the first partial integral is h*13/120
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    first, second = quadratic_cross_terms(ks, 4)
    assert first == F(13, 120) * F(1, 6)
    assert second == F(13, 120) * F(1, 6)  # mirror symmetry on uniform gaps


def test_cross_terms_sum_is_entry():
    rng = random.Random(7)
    for _ in range(8):
        ks = _random_exact(rng, 3, rng.randint(1, 8))
        A = gram_quadratic(ks)
        for i in range(1, ks.m):
            first, second = quadratic_cross_terms(ks, i)
            assert first + second == A.get(i, i + 1), (ks.interior, i)


def test_cross_terms_validation():
    ks = KnotSequence(3, [F(1, 2)])
    with pytest.raises(InputError):
        quadratic_cross_terms(ks, ks.m)
    with pytest.raises(InputError):
        quadratic_cross_terms(KnotSequence(2, []), 1)


# ---------------------------------------------------------------------------
# Quadrature oracle (independent route)


def test_quadrature_matches_linear_float():
    ks = KnotSequence(2, [0.3, 0.55, 0.7])
    A = gram_linear(ks)
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            a, q = float(A.get(i, j)), float(Q.get(i, j))
            assert abs(a - q) <= 1e-15 * max(1.0, abs(a))


def test_quadrature_matches_quadratic_float():
    ks = KnotSequence(3, [i / 7 for i in range(1, 7)])
    A = gram_quadratic(KnotSequence(3, [F(i, 7) for i in range(1, 7)]))
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            a, q = float(A.get(i, j)), float(Q.get(i, j))
            assert abs(a - q) <= 1e-13 * max(1.0, abs(a))


def test_quadrature_exact_mode_equals_closed():
    rng = random.Random(8)
    for order, builder in ((2, gram_linear), (3, gram_quadratic)):
        for _ in range(3):
            ks = _random_exact(rng, order, rng.randint(1, 5))
            assert gram_quadrature(ks).to_dense() == builder(ks).to_dense()


def test_quadrature_order4_row_sums():
    ks = KnotSequence(4, [])
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        total = sum(float(Q.get(i, j)) for j in range(1, ks.m + 1))
        expected = float(ks.bracket(4, 0, i)) / 4
        assert abs(total - expected) <= 1e-14


def test_quadrature_order1_midpoint():
    # order 1: piecewise constants; Gram is diagonal with the gap lengths
    ks = KnotSequence(1, [F(1, 3)])
    Q = gram_quadrature(ks)
    assert Q.to_dense() == [[F(1, 3), 0], [0, F(2, 3)]]


def test_build_gram_dispatch():
    ks2 = KnotSequence(2, [F(1, 2)])
    assert build_gram(ks2).to_dense() == gram_linear(ks2).to_dense()
    ks3 = KnotSequence(3, [F(1, 2)])
    assert build_gram(ks3).to_dense() == gram_quadratic(ks3).to_dense()
    ks4 = KnotSequence(4, [F(1, 2)])
    assert build_gram(ks4).to_dense() == gram_quadrature(ks4).to_dense()
    assert build_gram(ks3, "quadrature").to_dense() == gram_quadratic(ks3).to_dense()
    with pytest.raises(InputError):
        build_gram(ks4, "closed")
    with pytest.raises(InputError):
        build_gram(ks2, "simpson")


# ---------------------------------------------------------------------------
# Structure checks


def test_total_positivity_small():
    ks = KnotSequence(3, [F(1, 4), F(1, 2), F(3, 4)])
    report = check_total_positivity(gram_quadratic(ks), max_order=3)
    assert report.min_value >= 0 and report.passed
    assert report.minors_checked > 0


def test_total_positivity_budget():
    ks = KnotSequence(2, [F(i, 9) for i in range(1, 9)])
    with pytest.raises(ResourceBudgetError) as err:
        check_total_positivity(gram_linear(ks), max_order=4, budget=50)
    assert err.value.partial.minors_checked == 50


def test_total_positivity_catches_negative():
    # a symmetric banded matrix with a negative 2x2 minor
    A = SymBandedMatrix(2, 1, [[F(1), F(1)], [F(2)]])
    report = check_total_positivity(A, max_order=2)
    assert report.min_value < 0
    assert report.witness == ((1, 2), (1, 2))


def test_matrix_json_roundtrip(tmp_path):
    ks = KnotSequence(3, [F(1, 3), F(2, 3)])
    A = gram_quadratic(ks)
    back = matrix_from_json(matrix_to_json(A))
    assert back.to_dense() == A.to_dense()
    # the file half goes through the CLI, the one writer of matrix files
    path = tmp_path / "gram.json"
    assert main(["gram", "--order", "3", "--spec", "uniform:2",
                 "--out", str(path)]) == 0
    assert matrix_from_json(json.loads(path.read_text())).to_dense() \
        == A.to_dense()


def test_banded_matrix_validation():
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [[F(1), F(1)]])          # missing a band
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [[F(1)], [F(1)]])        # band 0 too short
    A = SymBandedMatrix(2, 1, [[F(1), F(2)], [F(3)]])
    assert A.get(1, 2) == A.get(2, 1) == 3
    assert A.get(1, 1) == 1
    with pytest.raises(InputError):
        A.get(0, 1)

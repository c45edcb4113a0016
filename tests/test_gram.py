"""Gram matrices: closed forms, quadrature, total positivity (against the
oracle in tests/oracles.py)."""

import json
import math
import random
from fractions import Fraction as F
from functools import partial

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from oracles import (bracket, check_total_positivity, quadratic_cross_terms,
                     scalar_ratio, to_dense)
from splinegram import (ArithmeticFailure, InputError, KnotSequence,
                        ResourceBudgetError, SymBandedMatrix, build_gram,
                        gram_quadrature, matrix_to_json)
from splinegram.cli import main
from splinegram.decay import phi_inv_formula
from splinegram.gram import linear_formula, quad_formula, ratio
from splinegram.scalars import parse_scalar


def _random_exact(rng, order, count):
    den = rng.randint(count + 2, 4 * count + 12)
    interior = sorted(rng.sample(range(1, den), count)) if count else []
    return KnotSequence(order, [F(p, den) for p in interior])


# ---------------------------------------------------------------------------
# Order 2 closed form


def test_linear_bernstein():
    # hand integration: int (1-x)^2 = 1/3, int x(1-x) = 1/6
    A = build_gram(KnotSequence(2, []))
    assert to_dense(A) == [[F(1, 3), F(1, 6)], [F(1, 6), F(1, 3)]]


def test_linear_single_knot():
    A = build_gram(KnotSequence(2, [F(1, 2)]))
    assert [A.get(i, i) for i in (1, 2, 3)] == [F(1, 6), F(1, 3), F(1, 6)]
    assert [A.get(i, i + 1) for i in (1, 2)] == [F(1, 12), F(1, 12)]


def test_linear_row_sums():
    # row i sums to ||N_i||_1 = (t_{i+2} - t_i)/2
    rng = random.Random(5)
    for _ in range(6):
        ks = _random_exact(rng, 2, rng.randint(0, 8))
        A = build_gram(ks)
        for i in range(1, ks.m + 1):
            total = sum(A.get(i, j) for j in range(1, ks.m + 1))
            assert total == bracket(ks, 2, 0, i) / 2


# ---------------------------------------------------------------------------
# Order 3 closed form


def test_quadratic_bernstein_corner():
    # a_{1,1} reduces to (30)_1/5 because (20)_1 = 0
    A = build_gram(KnotSequence(3, []))
    assert A.get(1, 1) == F(1, 5)


def test_quadratic_uniform_interior_values():
    # fully interior row on uniform gaps h: 11h/20, 13h/60, h/120
    # (cross-checked against cardinal B-spline self-convolution values
    #  66/120, 26/120, 1/120 scaled by h)
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    h = F(1, 6)
    A = build_gram(ks)
    assert A.get(4, 4) == 11 * h / 20 == F(11, 120)
    assert A.get(4, 5) == 13 * h / 60 == F(13, 360)
    assert A.get(4, 6) == h / 120 == F(1, 720)


def test_quadratic_row_sums():
    rng = random.Random(6)
    for _ in range(6):
        ks = _random_exact(rng, 3, rng.randint(0, 8))
        A = build_gram(ks)
        for i in range(1, ks.m + 1):
            total = sum(A.get(i, j) for j in range(1, ks.m + 1))
            assert total == bracket(ks, 3, 0, i) / 3


def test_single_entry_accessors():
    # build_gram(ks).get(i, j) against the closed form of that one entry
    # over the scalar brackets, zero beyond the band
    ks = KnotSequence(3, [F(1, 3), F(1, 2)])
    A = build_gram(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            d = abs(i - j)
            entry = quad_formula(partial(bracket, ks), scalar_ratio, min(i, j), d) if d <= 2 else 0
            assert A.get(i, j) == entry
    assert A.get(1, 4) == 0
    ks2 = KnotSequence(2, [F(1, 3)])
    A2 = build_gram(ks2)
    for i in range(1, ks2.m + 1):
        for j in range(1, ks2.m + 1):
            d = abs(i - j)
            entry = linear_formula(partial(bracket, ks2), scalar_ratio, min(i, j), d) if d <= 1 else 0
            assert A2.get(i, j) == entry
    with pytest.raises(InputError):
        A.get(0, 1)
    with pytest.raises(InputError):
        A2.get(1, 99)


@pytest.mark.parametrize("zero", [F(0), 0.0], ids=["Fraction", "float"])
def test_ratio_zero_numerator_rule(zero):
    import numpy as np

    dtype = object if isinstance(zero, F) else float

    def one_entry(x):
        return np.array([x], dtype)

    one = zero + 1
    # a zero numerator factor wins before any division, even by zero
    r = ratio((one_entry(one), one_entry(zero), one_entry(one)),
              (30, one_entry(zero), one_entry(one))).tolist()
    assert r == [0] and type(r[0]) is type(zero)
    with pytest.raises(ArithmeticFailure) as err:
        ratio((one_entry(one),), (30, one_entry(zero)))
    assert err.value.step == 1
    # otherwise factors multiply left to right, the numerator's first
    a, b, c, d = one / 3, one / 7, one / 11, one / 13
    r = ratio((one_entry(a), one_entry(b), one_entry(c)),
              (15, one_entry(d), one_entry(a))).tolist()
    assert r == [a * b * c / (15 * d * a)]
    r = ratio((one_entry(a), one_entry(b)), (5,)).tolist()
    assert type(r[0]) is type(zero)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("zero", [F(0), 0.0], ids=["Fraction", "float"])
def test_ratio_acts_elementwise(zero):
    import numpy as np

    one = zero + 1
    dtype = object if isinstance(zero, F) else float
    num = (np.array([one / 3, zero, one / 5, one], dtype), 2,
           np.array([one / 7, one, zero, one / 9], dtype))
    den = (30, np.array([one / 11, zero, zero, one / 13], dtype))
    r = ratio(num, den)
    assert r.dtype == dtype
    for e, x in enumerate(r.tolist()):
        scalar = scalar_ratio(tuple(f[e] if np.ndim(f) else f for f in num),
                              tuple(f[e] if np.ndim(f) else f for f in den))
        assert x == scalar and type(x) is type(zero)
    with pytest.raises(ArithmeticFailure) as err:  # a live ratio over zero
        ratio(num, (np.array([one, one, one, zero], dtype),))
    assert err.value.step == 4


@st.composite
def exact_ratio_factors(draw):
    """Numerator and denominator factors as the order-3 formulas pass them:
    object arrays of Fractions of one length (negative values included, and
    zeros at up to two positions each) and positive int scalars, at least
    one numerator array."""
    n = draw(st.integers(1, 20))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 9).filter(bool)

    def array():
        f = np.array(draw(st.lists(value, min_size=n, max_size=n)), object)
        f[list(draw(st.sets(st.integers(0, n - 1), max_size=2)))] = F(0)
        return f

    def factors(min_arrays):
        arrays = draw(st.integers(min_arrays, 3))
        scalars = draw(st.lists(st.integers(1, 200), min_size=arrays == 0, max_size=2))
        return tuple(draw(st.permutations([array() for _ in range(arrays)] + scalars)))

    return n, factors(1), factors(0)


# without the explain phase, which takes minutes to annotate a failure of
# these array examples (shrinking alone takes seconds)
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(exact_ratio_factors())
def test_exact_ratio_matches_scalar_oracle(case):
    n, num, den = case

    def at(factors, e):
        return tuple(f[e] if isinstance(f, np.ndarray) else f for f in factors)

    zero_den = [e for e in range(n)
                if all(x != 0 for x in at(num, e)) and 0 in at(den, e)]
    if zero_den:  # a live ratio over zero: the first one is the step
        with pytest.raises(ArithmeticFailure) as err:
            ratio(num, den)
        assert err.value.step == zero_den[0] + 1
        return
    r = ratio(num, den)
    assert r.dtype == object and r.shape == (n,)
    for e, x in enumerate(r.tolist()):
        assert type(x) is F and x == scalar_ratio(at(num, e), at(den, e))


@st.composite
def float_ratio_factors(draw):
    """The float twin of ``exact_ratio_factors``: float64 arrays of one
    length (tiny and subnormal values included, so that a product can
    underflow to 0.0, and zeros at up to two positions each) and positive int
    scalars, at least one numerator array; every value nonnegative, or
    drawn with either sign (zeros -0.0 as well as 0.0)."""
    n = draw(st.integers(1, 20))
    signed = draw(st.booleans())
    value = st.floats(min_value=-3 if signed else 0, max_value=3).filter(bool)
    zero = st.sampled_from([0.0, -0.0] if signed else [0.0])

    def array():
        f = np.array(draw(st.lists(value, min_size=n, max_size=n)), float)
        for e in draw(st.sets(st.integers(0, n - 1), max_size=2)):
            f[e] = draw(zero)
        return f

    def factors(min_arrays):
        arrays = draw(st.integers(min_arrays, 3))
        scalars = draw(st.lists(st.integers(1, 200), min_size=arrays == 0, max_size=2))
        return tuple(draw(st.permutations([array() for _ in range(arrays)] + scalars)))

    return n, factors(1), factors(0)


# a tiny denominator divides to inf, as the oracle's does
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
@given(float_ratio_factors())
def test_float_ratio_matches_scalar_oracle(case):
    # the float mode of the one ratio path: the oracle's values, and its
    # bits (the sign of a zero included) where no factor has a sign bit
    n, num, den = case

    def at(factors, e):
        return tuple(float(f[e]) if isinstance(f, np.ndarray) else f for f in factors)

    def product(factors):
        out = 1
        for f in factors:
            out = out * f
        return out

    zero_den = [e for e in range(n)
                if all(x != 0 for x in at(num, e)) and product(at(den, e)) == 0]
    if zero_den:  # a live ratio over zero (or an underflow): the first one is the step
        with pytest.raises(ArithmeticFailure) as err:
            ratio(num, den)
        assert err.value.step == zero_den[0] + 1
        return
    r = ratio(num, den)
    assert r.dtype == float and r.shape == (n,)
    for e, x in enumerate(r.tolist()):
        expected = scalar_ratio(at(num, e), at(den, e))
        assert x == expected
        if all(math.copysign(1, f) > 0 for f in at(num, e) + at(den, e)):
            assert x.hex() == float(expected).hex()


def test_exact_ratio_integers_are_pinned():
    # the unreduced pairs (N, D) of an exact ratio, dead entries included
    # (zero brackets at both ends: b21 at n = 1, b32 at n = 6, 7 and b31 at
    # n = 7).  A shared denominator cancels its gcd with the other side's
    # and with an int factor, so N and D are one Python-int product per side
    # with the gcd of its int parts cancelled; an array D anywhere, say from
    # the mask of a zero denominator, would skip those gcds and grow them.
    ks = KnotSequence(3, [F(1, 10), F(1, 5), F(1, 2), F(7, 10)])
    br, n = ks.brackets, np.arange(1, ks.m + 1)

    def pairs(p):
        return p.N.tolist(), np.broadcast_to(np.asarray(p.D, object), p.shape).tolist()

    assert pairs(ratio((br(2, 1, n), br(3, 2, n)), (30, br(3, 1, n)))) == (
        [0, 1, 3, 6, 6, 0, 0], [300, 600, 1200, 1500, 1500, 900, 1])
    assert pairs(phi_inv_formula(br, ratio, n)) == (
        [19440000, 55695600000, 420620356224000000, 15945633950400000000,
         237776781096000000000, 28674696316500000000, 713178000],
        [972000000, 2099520000000, 5296837017600000000, 206907696000000000000,
         2069076960000000000000, 523735105500000000000, 17739000000])


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
        A = build_gram(ks)
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
# Quadrature (independent route)


def test_quadrature_matches_linear_float():
    ks = KnotSequence(2, [0.3, 0.55, 0.7])
    A = build_gram(ks)
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            a, q = float(A.get(i, j)), float(Q.get(i, j))
            assert abs(a - q) <= 1e-15 * max(1.0, abs(a))


def test_quadrature_matches_quadratic_float():
    ks = KnotSequence(3, [i / 7 for i in range(1, 7)])
    A = build_gram(KnotSequence(3, [F(i, 7) for i in range(1, 7)]))
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        for j in range(1, ks.m + 1):
            a, q = float(A.get(i, j)), float(Q.get(i, j))
            assert abs(a - q) <= 1e-13 * max(1.0, abs(a))


def test_quadrature_exact_mode_equals_closed():
    rng = random.Random(8)
    for order in (2, 3):
        for _ in range(3):
            ks = _random_exact(rng, order, rng.randint(1, 5))
            assert to_dense(gram_quadrature(ks)) == to_dense(build_gram(ks, "closed"))


def test_quadrature_order4_row_sums():
    ks = KnotSequence(4, [])
    Q = gram_quadrature(ks)
    for i in range(1, ks.m + 1):
        total = sum(float(Q.get(i, j)) for j in range(1, ks.m + 1))
        expected = float(bracket(ks, 4, 0, i)) / 4
        assert abs(total - expected) <= 1e-14


@pytest.mark.parametrize("order", [4, 5, 6])
def test_quadrature_float_matches_exact_of_same_doubles(order):
    # Gauss-Legendre on float knots against Newton-Cotes on the same
    # doubles as Fractions (Fraction(float) is exact), with one gap of 2^-30
    rng = random.Random(order)
    interior = sorted({rng.random() for _ in range(12)} | {0.5, 0.5 + 2.0 ** -30})
    Q = gram_quadrature(KnotSequence(order, interior))
    X = gram_quadrature(KnotSequence(order, [F(x) for x in interior]))
    scale = max(np.abs(b).max() for b in Q.bands)
    for q, x in zip(Q.bands, X.bands):
        assert np.abs(q - x.astype(float)).max() <= 1e-13 * scale


def test_quadrature_order1_midpoint():
    # order 1: piecewise constants; Gram is diagonal with the gap lengths
    ks = KnotSequence(1, [F(1, 3)])
    Q = gram_quadrature(ks)
    assert to_dense(Q) == [[F(1, 3), 0], [0, F(2, 3)]]


def test_build_gram_dispatch():
    for order in (2, 3):
        ks = KnotSequence(order, [F(1, 2)])
        closed = build_gram(ks, "closed")
        assert (closed.n, closed.bandwidth) == (ks.m, order - 1)
        assert to_dense(build_gram(ks)) == to_dense(closed)
        assert to_dense(build_gram(ks, "quadrature")) == to_dense(closed)
    for order in (1, 4):
        ks = KnotSequence(order, [F(1, 2)])
        assert to_dense(build_gram(ks)) == to_dense(gram_quadrature(ks))
        with pytest.raises(InputError):
            build_gram(ks, "closed")
    ks2 = KnotSequence(2, [F(1, 2)])
    with pytest.raises(InputError):
        build_gram(ks2, "simpson")


# ---------------------------------------------------------------------------
# Structure checks


def test_total_positivity_small():
    ks = KnotSequence(3, [F(1, 4), F(1, 2), F(3, 4)])
    report = check_total_positivity(build_gram(ks), max_order=3)
    assert report.min_value >= 0 and report.passed
    assert report.minors_checked > 0


def test_total_positivity_budget():
    ks = KnotSequence(2, [F(i, 9) for i in range(1, 9)])
    with pytest.raises(ResourceBudgetError) as err:
        check_total_positivity(build_gram(ks), max_order=4, budget=50)
    assert err.value.partial.minors_checked == 50


def test_total_positivity_catches_negative():
    # a symmetric banded matrix with a negative 2x2 minor
    A = SymBandedMatrix(2, 1, [[F(1), F(1)], [F(2)]])
    report = check_total_positivity(A, max_order=2)
    assert report.min_value < 0
    assert report.witness == ((1, 2), (1, 2))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("method", ["auto", "quadrature"])
def test_gram_bands_are_typed_arrays(order, mode, method):
    # one dtype per matrix, from the knots: Fractions in object arrays or
    # float64, for the closed forms and quadrature alike
    interior = [F(1, 5), F(1, 3), F(4, 7)]
    if mode == "float":
        interior = [float(x) for x in interior]
    A = build_gram(KnotSequence(order, interior), method)
    assert all(isinstance(b, np.ndarray) and b.ndim == 1 for b in A.bands)
    if mode == "exact":
        assert all(b.dtype == object for b in A.bands)
        assert all(type(x) is F for b in A.bands for x in b)
    else:
        assert all(b.dtype == np.float64 for b in A.bands)


@pytest.mark.parametrize("order", [2, 3, 4])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_matrix_json_lists_entries_row_major(order, mode):
    # (i, j) in row-major order, i <= j <= i + bandwidth, the last rows
    # cut at n; each value is that entry of the band
    interior = [F(1, 5), F(1, 3)]
    if mode == "float":
        interior = [float(x) for x in interior]
    A = build_gram(KnotSequence(order, interior))
    entries = matrix_to_json(A)["entries"]
    assert [(i, j) for i, j, _ in entries] == [
        (i, j) for i in range(1, A.n + 1)
        for j in range(i, min(A.n, i + A.bandwidth) + 1)]
    assert [parse_scalar(v) for _, _, v in entries] == [A.get(i, j) for i, j, _ in entries]


def test_matrix_json_roundtrip(tmp_path):
    ks = KnotSequence(3, [F(1, 3), F(2, 3)])
    A = build_gram(ks)

    def read_back(obj):
        """The dump's entries as {(i, j): scalar}: the band, i <= j."""
        assert (obj["n"], obj["bandwidth"]) == (A.n, A.bandwidth)
        return {(i, j): parse_scalar(v) for i, j, v in obj["entries"]}

    band = {(i, j): A.get(i, j) for i in range(1, A.n + 1)
            for j in range(i, min(A.n, i + A.bandwidth) + 1)}
    assert read_back(matrix_to_json(A)) == band
    # the file half goes through the CLI, the one writer of matrix files
    path = tmp_path / "gram.json"
    assert main(["gram", "--order", "3", "--spec", "uniform:2",
                 "--out", str(path)]) == 0
    assert read_back(json.loads(path.read_text())) == band


def test_banded_matrix_keeps_exact_entries():
    # a Fraction given to the constructor is stored as it is, not copied;
    # an int becomes its Fraction
    third, half = F(1, 3), F(1, 2)
    A = SymBandedMatrix(2, 1, [[third, 2], np.array([half], dtype=object)])
    assert A.bands[0][0] is third and A.bands[1][0] is half
    assert type(A.bands[0][1]) is F and A.bands[0][1] == 2


def test_banded_matrix_validation():
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [[F(1), F(1)]])          # missing a band
    # a bool is no size, as it is no order of a knot sequence
    with pytest.raises(InputError):
        SymBandedMatrix(True, 0, [[F(1)]])
    with pytest.raises(InputError):
        SymBandedMatrix(1, False, [[F(1)]])
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [[F(1)], [F(1)]])        # band 0 too short
    # entries are ints, Fractions or floats, as breakpoints are
    for bad in ("x", None, True, [1], 1j, np.float32(1.0)):
        with pytest.raises(InputError):
            SymBandedMatrix(1, 0, [[bad]])
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [[F(1), F(2)], [None]])
    with pytest.raises(InputError):
        SymBandedMatrix(2, 1, [np.array([1.0, 2.0]), np.array([True])])
    A = SymBandedMatrix(2, 1, [[F(1), F(2)], [F(3)]])
    assert A.get(1, 2) == A.get(2, 1) == 3
    assert A.get(1, 1) == 1
    # ints are promoted to Fractions; one float makes every band float64
    ints = SymBandedMatrix(2, 1, [[1, 2], np.array([3])])
    assert [b.dtype for b in ints.bands] == [object, object]
    assert type(ints.get(1, 2)) is F and type(ints.get(1, 1)) is F
    mixed = SymBandedMatrix(2, 1, [[F(1, 3), 2], [0.5]])
    assert [b.dtype for b in mixed.bands] == [np.float64, np.float64]
    assert mixed.get(1, 1) == 1 / 3 and isinstance(mixed.get(2, 1), float)
    with pytest.raises(InputError):
        A.get(0, 1)

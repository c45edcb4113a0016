"""Partition generators, spec parsing, and sweep configuration."""

import random
from fractions import Fraction as F

import pytest

from oracles import save_partition
from splinegram import (EXACT_SWEEP_MAX_M, InputError, KnotSequence,
                        PartitionSpec, SweepConfig, parse_spec, realize,
                        sweep_partitions)
from splinegram.partitions import (geometric_interior, random_interior,
                                   shrink_one_gap, uniform_interior)

# ---------------------------------------------------------------------------
# deterministic generators


def test_uniform_interior_values():
    assert uniform_interior(3) == (F(1, 4), F(1, 2), F(3, 4))
    assert uniform_interior(0) == ()
    assert all(isinstance(x, F) for x in uniform_interior(5))


def test_geometric_interior_values():
    # gaps 1, 1/2, 1/4 sum to 7/4, so the breakpoints sit at 4/7 and 6/7
    assert geometric_interior(F(1, 2), 2) == (F(4, 7), F(6, 7))
    assert geometric_interior(F(1, 2), 0) == ()
    pts = geometric_interior(0.5, 2)
    assert all(isinstance(x, float) for x in pts)
    assert pts[0] == pytest.approx(4 / 7)


@pytest.mark.parametrize("ratio", [0, F(1), 2, -1, 1.0])
def test_geometric_ratio_must_be_strictly_inside_unit_interval(ratio):
    with pytest.raises(InputError):
        geometric_interior(ratio, 3)


# ---------------------------------------------------------------------------
# random generators


def test_random_interior_exact_is_sorted_distinct_rationals():
    rng = random.Random(5)
    for count in (1, 4, 17):
        pts = random_interior(rng, count, "exact")
        assert len(pts) == count == len(set(pts))
        assert all(isinstance(x, F) and 0 < x < 1 for x in pts)
        assert list(pts) == sorted(pts)
        dens = {x.denominator for x in pts}
        # drawn as p/D for one modest shared D (divisors may cancel)
        assert max(dens) <= 6 * count + 12


def test_random_interior_float_is_sorted_in_unit_interval():
    pts = random_interior(random.Random(5), 30, "float")
    assert len(pts) == 30 and list(pts) == sorted(pts)
    assert all(isinstance(x, float) and 0 < x < 1 for x in pts)


def test_random_interior_deterministic_and_mode_checked():
    a = random_interior(random.Random(9), 6, "exact")
    b = random_interior(random.Random(9), 6, "exact")
    assert a == b
    assert random_interior(random.Random(9), 0, "exact") == ()
    with pytest.raises(InputError):
        random_interior(random.Random(9), 3, "decimal")


# ---------------------------------------------------------------------------
# spec strings


def test_parse_spec_kinds():
    assert parse_spec("uniform:4") == PartitionSpec("uniform", count=4)
    assert parse_spec("random:9") == PartitionSpec("random", count=9)
    geo = parse_spec("geometric:2/3:5")
    assert geo.kind == "geometric" and geo.ratio == F(2, 3) and geo.count == 5
    assert parse_spec("explicit:knots.json").path == "knots.json"


@pytest.mark.parametrize("text", [
    "", "uniform:zero", "uniform:-1", "random:1.5", "geometric:1/2",
    "geometric:half:3", "geometric:1/2:-2", "explicit:", "grid:3",
])
def test_parse_spec_rejects_malformed(text):
    with pytest.raises(InputError):
        parse_spec(text)


def test_realize_each_kind(tmp_path):
    rng = random.Random(3)
    assert realize(parse_spec("uniform:3"), 2).breakpoints() == \
        (0, F(1, 4), F(1, 2), F(3, 4), 1)
    assert realize(parse_spec("geometric:1/2:2"), 3).m == 3 + 2
    ks = realize(parse_spec("random:4"), 2, rng=rng)
    assert ks.m == 2 + 4
    path = tmp_path / "knots.json"
    save_partition(ks, path)
    assert realize(parse_spec(f"explicit:{path}"), 2) == ks
    with pytest.raises(InputError):
        realize(parse_spec(f"explicit:{path}"), 3)     # stored order is 2
    with pytest.raises(InputError):
        realize(parse_spec("random:4"), 2)             # rng required
    with pytest.raises(InputError):
        realize(PartitionSpec("grid", count=3), 2)


# ---------------------------------------------------------------------------
# gap surgery


def test_shrink_one_gap_rescales_and_renormalizes():
    ks = KnotSequence(2, uniform_interior(3))
    out = shrink_one_gap(ks, 1, F(1, 2))
    pts = out.breakpoints()
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    # gap 1 halves relative to the others; everything renormalizes to [0,1]
    assert gaps == [F(2, 7), F(1, 7), F(2, 7), F(2, 7)]
    assert pts[0] == 0 and pts[-1] == 1
    for bad in (-1, 4):
        with pytest.raises(InputError):
            shrink_one_gap(ks, bad, F(1, 2))


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_sizes_count_and_determinism():
    cfg = SweepConfig(order=3, trials=25, max_m=12, scalar_mode="exact", seed=7)
    first = [ks.breakpoints() for ks in sweep_partitions(cfg)]
    second = [ks.breakpoints() for ks in sweep_partitions(cfg)]
    assert first == second and len(first) == 25
    for ks in sweep_partitions(cfg):
        assert ks.order == 3 and 3 + 1 <= ks.m <= 12


def test_sweep_exact_mode_caps_size():
    cfg = SweepConfig(order=2, trials=30, max_m=10 ** 6, scalar_mode="exact",
                      seed=11)
    assert all(ks.m <= EXACT_SWEEP_MAX_M for ks in sweep_partitions(cfg))
    floats = SweepConfig(order=2, trials=30, max_m=200, scalar_mode="float",
                         seed=11)
    assert max(ks.m for ks in sweep_partitions(floats)) > EXACT_SWEEP_MAX_M


def test_sweep_shrinks_about_half_the_gaps():
    cfg = SweepConfig(order=2, trials=60, max_m=20, scalar_mode="exact", seed=2)
    tiny = 0
    for ks in sweep_partitions(cfg):
        pts = ks.breakpoints()
        gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
        if min(gaps) / max(gaps) < F(1, 1000):
            tiny += 1
    assert 15 <= tiny <= 45      # a fair coin decides per partition


def test_sweep_config_validation():
    with pytest.raises(InputError):
        SweepConfig(order=2, trials=0, max_m=10)
    with pytest.raises(InputError):
        SweepConfig(order=2, trials=5, max_m=10, scalar_mode="decimal")
    cfg = SweepConfig(order=5, trials=1, max_m=5)
    with pytest.raises(InputError):
        list(sweep_partitions(cfg))    # no room for interior breakpoints

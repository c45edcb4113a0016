"""Partition generators and randomized sweep configuration.

A partition spec is a compact string:

    uniform:N          N equispaced interior breakpoints i/(N+1)
    random:N           N random interior breakpoints
    geometric:R:N      N interior breakpoints with gap ratio R in (0,1)
    explicit:FILE      JSON file {"order": k, "interior": [...]}

Sweeps draw many random partitions of varying size for the verification
batteries.  Half the sweep draws (a per-partition coin flip) get one gap
adversarially shrunk by 1e-4 to stress the mesh-ratio independence of the
decay bounds.  Exact-mode sweeps cap the matrix size at
``EXACT_SWEEP_MAX_M`` = 60 to keep rational arithmetic affordable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .errors import InputError
from .knots import KnotSequence, load_partition
from .scalars import parse_scalar

EXACT_SWEEP_MAX_M = 60


@dataclass(frozen=True)
class PartitionSpec:
    kind: str
    count: int | None = None
    ratio: object = None
    path: str | None = None


def parse_spec(text: str) -> PartitionSpec:
    """Parse a partition spec string (see module docstring)."""
    if not isinstance(text, str) or not text:
        raise InputError(f"empty partition spec {text!r}")
    head, _, rest = text.partition(":")
    if head == "uniform" or head == "random":
        try:
            count = int(rest)
        except ValueError:
            raise InputError(f"spec {text!r}: expected {head}:N with integer N") from None
        if count < 0:
            raise InputError(f"spec {text!r}: breakpoint count must be >= 0")
        return PartitionSpec(head, count=count)
    if head == "geometric":
        ratio_text, sep, count_text = rest.partition(":")
        if not sep:
            raise InputError(f"spec {text!r}: expected geometric:R:N")
        ratio = parse_scalar(ratio_text)
        try:
            count = int(count_text)
        except ValueError:
            raise InputError(f"spec {text!r}: expected geometric:R:N with integer N") from None
        if count < 0:
            raise InputError(f"spec {text!r}: breakpoint count must be >= 0")
        return PartitionSpec("geometric", count=count, ratio=ratio)
    if head == "explicit":
        if not rest:
            raise InputError(f"spec {text!r}: expected explicit:FILE")
        return PartitionSpec("explicit", path=rest)
    raise InputError(f"unknown partition spec kind {head!r} in {text!r}")


def uniform_interior(count: int) -> tuple:
    """Equispaced interior breakpoints i/(count+1), exact."""
    return tuple(Fraction(i, count + 1) for i in range(1, count + 1))


def _breakpoints_from_gaps(gaps) -> tuple:
    """Interior breakpoints of consecutive gaps normalized to [0, 1]: the
    running sums of all gaps but the last, each divided by the total."""
    total = sum(gaps)
    return tuple(acc / total for acc in accumulate(gaps[:-1]))


def geometric_interior(ratio, count: int) -> tuple:
    """Interior breakpoints whose count+1 gaps form a geometric progression
    1, r, ..., r^count (normalized); exact when the ratio is rational."""
    if not 0 < ratio < 1:
        raise InputError(f"geometric gap ratio must lie in (0,1), got {ratio!r}")
    return _breakpoints_from_gaps([ratio ** j for j in range(count + 1)])


def random_interior(rng: random.Random, count: int, scalar_mode: str) -> tuple:
    """Random strictly increasing interior breakpoints.

    exact: distinct small-denominator rationals p/D (keeps downstream
    rational arithmetic cheap); float: normalized exponential gaps.
    """
    if count == 0:
        return ()
    if scalar_mode == "exact":
        den = rng.randint(2 * count + 2, 6 * count + 12)
        numerators = rng.sample(range(1, den), count)
        return tuple(Fraction(p, den) for p in sorted(numerators))
    if scalar_mode == "float":
        gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
        return _breakpoints_from_gaps(gaps)
    raise InputError(f"unknown scalar mode {scalar_mode!r}")


def realize(spec: PartitionSpec, order: int, rng: random.Random | None = None,
            scalar_mode: str = "exact") -> KnotSequence:
    """Build the knot sequence a spec describes."""
    if spec.kind == "uniform":
        return KnotSequence(order, uniform_interior(spec.count))
    if spec.kind == "geometric":
        return KnotSequence(order, geometric_interior(spec.ratio, spec.count))
    if spec.kind == "random":
        if rng is None:
            raise InputError("random partition spec needs an RNG (set a seed)")
        return KnotSequence(order, random_interior(rng, spec.count, scalar_mode))
    if spec.kind == "explicit":
        ks = load_partition(spec.path)
        if ks.order != order:
            raise InputError(
                f"partition file {spec.path!r} has order {ks.order}, expected {order}")
        return ks
    raise InputError(f"unknown partition spec kind {spec.kind!r}")


def shrink_one_gap(ks: KnotSequence, index: int, factor) -> KnotSequence:
    """Rescale one breakpoint gap by ``factor`` and renormalize to [0, 1]."""
    pts = ks.breakpoints()
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    if not (0 <= index < len(gaps)):
        raise InputError(f"gap index {index} outside 0..{len(gaps) - 1}")
    gaps[index] = gaps[index] * factor
    return KnotSequence(ks.order, _breakpoints_from_gaps(gaps))


@dataclass(frozen=True)
class SweepConfig:
    order: int
    trials: int
    max_m: int
    scalar_mode: str = "exact"
    seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise InputError(f"sweep needs at least one trial, got {self.trials}")
        if self.scalar_mode not in ("exact", "float"):
            raise InputError(f"unknown scalar mode {self.scalar_mode!r}")

    @property
    def effective_max_m(self) -> int:
        """The largest m a sweep draws: max_m, capped at EXACT_SWEEP_MAX_M in
        exact mode."""
        if self.scalar_mode == "exact":
            return min(self.max_m, EXACT_SWEEP_MAX_M)
        return self.max_m


def sweep_partitions(cfg: SweepConfig):
    """Yield ``cfg.trials`` random partitions of varying size.

    Sizes m are drawn uniformly from [order+1, cfg.effective_max_m] (at
    least one interior breakpoint so the matrices are nontrivial).  With
    probability 1/2 each partition has one random gap shrunk by 1e-4.
    """
    max_m = cfg.effective_max_m
    if max_m < cfg.order + 1:
        raise InputError(
            f"max_m {max_m} leaves no room for interior breakpoints at order {cfg.order}")
    rng = random.Random(cfg.seed)
    shrink = Fraction(1, 10 ** 4) if cfg.scalar_mode == "exact" else 1e-4
    for _ in range(cfg.trials):
        count = rng.randint(1, max_m - cfg.order)
        ks = KnotSequence(cfg.order,
                          random_interior(rng, count, cfg.scalar_mode))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(count + 1), shrink)
        yield ks

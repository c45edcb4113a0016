"""The benchmark's workloads: seeded inputs, the operations that run them
through the splinegram CLI in-process, and the correctness gate.

Every input is generated here from the run's seed and reaches the program
only as an ``explicit:FILE`` or ``geometric:R:N`` partition spec (or a
certificate name), so a change to the program's own generators cannot
change a workload.  Each workload is a *pool* of operations; a run repeats
whole passes over its pool, so every run of one seed does the same mix of
work whatever the program's speed.

The gate is untimed.  A wrong answer raises ``GateError`` and aborts the
run; an operation that ends in exit code 2/3 or an exception is a failed
operation instead and is only counted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "splinegram" / "__init__.py").is_file():
    raise ImportError(f"no splinegram sources under {SRC}")
sys.path.insert(0, str(SRC))

from splinegram import cli, invstep, polycert  # noqa: E402

# Largest |B A - I| entry accepted from float mode.  Gram inverses on these
# meshes reach ~2e-15 today; a perturbed entry shows at ~1e-6.
FLOAT_RESIDUAL_MAX = 1e-9

# Graded meshes for float_sweep: (ratio, N range float mode accepts today,
# N range it rejects today).  Float mode rounds the breakpoints and rejects
# geometric:1/10:N for N >= 17, 1/3:N for N >= 34 and 1/2:N for N >= 54.
GRADED = (
    (Fraction(1, 10), (8, 16), (17, 30)),
    (Fraction(1, 3), (20, 33), (34, 45)),
    (Fraction(1, 2), (40, 53), (54, 70)),
)

# Fixed graded set for the float accuracy metrics: (ratio, N) of
# geometric:R:N meshes float mode accepts today.
ACCURACY_MESHES = ((Fraction(1, 10), 14), (Fraction(1, 3), 24), (Fraction(1, 2), 30))
# Relative errors below these count as full accuracy, so that last-digit
# changes of an accurate float path do not read as a regression.
# float_rel_err_max reads 7.7e-4 today (geometric:1/10:14, from rounding
# the breakpoints); float_inv_err_max reads up to 8.3e-15 today.
ACCURACY_FLOOR = 1e-12
INVERSION_FLOOR = 1e-13

# Exact results of each certificate: (num_terms, den_terms, max_total_degree).
CERT_PINS = {
    "offdiag": (64, 36, 8),
    "phi_step": (10430, 4860, 29),
    "psi_a": (18, 26, 5),
    "theta_product": (11152, 11152, 32),
    "tp_minor": (64, 36, 8),
    "psi_from_phi": (2, 3, 3),
}
SPOT_POINTS = 50


class GateError(Exception):
    """An operation returned a wrong answer."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI arguments, or a spot check of a
    certificate (``spot`` = (name, points, seed)) run through the library."""

    workload: str
    label: str
    k: int = 0
    m: int = 0
    argv: tuple = ()
    spot: tuple | None = None
    out_files: tuple = ()
    interior: tuple = ()  # the generated breakpoints, for the gate


@dataclass
class Outcome:
    """What one operation returned; ``captured`` holds the (A, inverse state)
    of every ``invert_iteratively`` call the operation made."""

    rc: int | None
    stdout: str
    value: object = None
    error: str | None = None
    captured: tuple = ()

    @property
    def failed(self) -> bool:
        return self.rc in (cli.EXIT_RESOURCE, cli.EXIT_INPUT) or self.error is not None


# ---------------------------------------------------------------------------
# Input generation


def spaced(lo: int, hi: int, count: int) -> list:
    """``count`` evenly spaced sizes from lo to hi.  Sizes are fixed and only
    the meshes are random, so runs of different seeds do comparable work."""
    return [lo + (hi - lo) * i // max(1, count - 1) for i in range(count)]


def _renormalize(gaps) -> list:
    total = sum(gaps)
    acc = 0
    points = []
    for g in gaps[:-1]:
        acc += g
        points.append(acc / total)
    return points


def exact_interior(rng: random.Random, count: int, shrink: bool) -> tuple:
    """Random rational breakpoints p/D with D drawn from [4c+4, 4c+12] for c
    breakpoints; with ``shrink`` one gap is scaled by 1e-4 and the mesh
    renormalized, which drives rational bit growth.  The narrow range of D
    keeps the cost of meshes of one size close together."""
    den = rng.randint(4 * count + 4, 4 * count + 12)
    points = [Fraction(p, den) for p in sorted(rng.sample(range(1, den), count))]
    if shrink:
        bounds = [Fraction(0)] + points + [Fraction(1)]
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        gaps[rng.randrange(len(gaps))] *= Fraction(1, 10 ** 4)
        points = _renormalize(gaps)
    return tuple(points)


def float_interior(rng: random.Random, count: int, shrink: bool) -> tuple:
    """Random float breakpoints from exponential gaps, one optionally
    shrunk by 1e-4."""
    gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
    if shrink:
        gaps[rng.randrange(len(gaps))] *= 1e-4
    return tuple(_renormalize(gaps))


def _write_partition(workdir: Path, index: int, k: int, interior) -> str:
    path = workdir / f"p{index:03d}.json"
    values = [f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else x
              for x in interior]
    path.write_text(json.dumps({"order": k, "interior": values}))
    return f"explicit:{path}"


# Sizes m of exact_verify for k = 2 and k = 3 (the exact-sweep cap is 60).
# In cost order the median operation falls inside a block of about eight
# meshes of like cost (k=2 m=29 and k=3 m=22, ~0.09 s) and p75 inside one
# of k=2 m=42 and the shrunk k=3 m=34 (~0.28 s); each block is at least two
# operations away from a jump in cost of 2x, so neither percentile hops
# between cost levels from seed to seed.
EXACT_SIZES = {2: (3, 16, 29, 42, 56), 3: (4, 22, 34, 50)}


def exact_verify_pool(rng, workdir, sizes=EXACT_SIZES, reps=5) -> list:
    """``verify --mode exact`` on random rational partitions: ``reps``
    meshes of each size in ``sizes`` (k -> sizes m); alternate meshes have
    one gap shrunk."""
    classes = [(k, m) for k in sorted(sizes) for m in sizes[k]]
    ops = []
    for j in range(reps):  # replicates spread over the pass, not adjacent
        for c, (k, m) in enumerate(classes):
            shrink = (c + j) % 2 == 0
            interior = exact_interior(rng, m - k, shrink)
            spec = _write_partition(workdir, len(ops), k, interior)
            ops.append(Op("exact_verify", f"verify exact k={k} m={m}"
                          + (" shrunk" if shrink else ""), k, m,
                          ("verify", "--order", str(k), "--spec", spec,
                           "--mode", "exact"), interior=interior))
    return ops


def float_sweep_pool(rng, workdir, sizes=20, max_m=100, graded=GRADED) -> list:
    """``verify --mode float`` on random float partitions (k in {2,3}, m
    spaced up to max_m, half with a shrunk gap) plus graded geometric
    meshes on both sides of the size where float mode starts rejecting."""
    ops = []
    for k in (2, 3):
        for s, m in enumerate(spaced(k + 1, max_m, sizes)):
            shrink = s % 2 == k % 2
            interior = float_interior(rng, m - k, shrink)
            spec = _write_partition(workdir, len(ops), k, interior)
            ops.append(Op("float_sweep", f"verify float k={k} m={m}"
                          + (" shrunk" if shrink else ""), k, m,
                          ("verify", "--order", str(k), "--spec", spec,
                           "--mode", "float"), interior=interior))
    for ratio, accepted, rejected in graded:
        for lo, hi in (accepted, rejected):
            for k in (2, 3):
                n = rng.randint(lo, hi)
                spec = f"geometric:{ratio.numerator}/{ratio.denominator}:{n}"
                ops.append(Op("float_sweep", f"verify float k={k} {spec}", k, k + n,
                              ("verify", "--order", str(k), "--spec", spec,
                               "--mode", "float")))
    return ops


def float_invert_pool(rng, workdir, sizes=15, reps=3, min_m=100, max_m=300) -> list:
    """``invert --mode float --history``, ``sizes`` sizes m spaced over
    [min_m, max_m] with ``reps`` meshes each (k alternating between 2 and
    3, which costs the same here), writing the inverse and history files.
    With an odd number of sizes and of meshes, the median and p75
    operations fall among the meshes of one size rather than on the jump
    between two sizes."""
    out = workdir / "inverse.json"
    hist = workdir / "history.json"
    ops = []
    for j in range(reps):
        for c, m in enumerate(spaced(min_m, max_m, sizes)):
            k = 2 + (c + j) % 2
            interior = float_interior(rng, m - k, shrink=False)
            spec = _write_partition(workdir, len(ops), k, interior)
            ops.append(Op("float_invert", f"invert float k={k} m={m}", k, m,
                          ("invert", "--order", str(k), "--spec", spec,
                           "--mode", "float", "--out", str(out),
                           "--history", str(hist)),
                          out_files=(str(out), str(hist)), interior=interior))
    return ops


def certify_pool(rng, workdir, names=polycert.INEQUALITY_NAMES,
                 points=SPOT_POINTS, extra=("tp_minor",)) -> list:
    """Per certificate name: one ``certify NAME`` and one spot check
    (build_inequality + spot_check at ``points`` seeded points); then one
    ``certify NAME`` for each of ``extra``.

    The extra ``certify tp_minor`` (theta_product's prerequisite) makes the
    pool odd, so that the median of a run's operations is one operation
    rather than the mean of two different ones."""
    ops = [Op("certify", f"certify {name}", argv=("certify", name)) for name in extra]
    for name in names:
        ops.append(Op("certify", f"certify {name}", argv=("certify", name)))
        ops.append(Op("certify", f"spot {name}",
                      spot=(name, points, rng.randrange(2 ** 31))))
    return ops


POOLS = {
    "exact_verify": exact_verify_pool,
    "float_sweep": float_sweep_pool,
    "float_invert": float_invert_pool,
    "certify": certify_pool,
}


def make_pool(workload: str, seed: int, workdir: Path, **sizes) -> list:
    """The seeded operation pool of one workload (files go to workdir)."""
    rng = random.Random(f"{workload}:{seed}")
    return POOLS[workload](rng, Path(workdir), **sizes)


# ---------------------------------------------------------------------------
# Running one operation


def run_op(op: Op, captured: list) -> Outcome:
    """Run ``op`` in-process; ``captured`` is the list the inverse capture
    appends to (it is emptied first)."""
    captured.clear()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.spot is None:
                rc, value = cli.main(list(op.argv)), None
            else:
                name, points, seed = op.spot
                fr = polycert.build_inequality(name)
                rc, value = 0, polycert.spot_check(fr, points, seed)
    except Exception as exc:  # a crashed operation is a failed operation
        return Outcome(None, out.getvalue(), error=f"{type(exc).__name__}: {exc}",
                       captured=tuple(captured))
    return Outcome(rc, out.getvalue(), value, captured=tuple(captured))


def output_bytes(op: Op, outcome: Outcome) -> int:
    """Bytes the operation wrote: captured stdout plus its output files."""
    size = len(outcome.stdout.encode())
    for path in op.out_files:
        if os.path.exists(path):
            size += os.path.getsize(path)
    return size


# ---------------------------------------------------------------------------
# Correctness gate


def _require(cond: bool, op: Op, what: str) -> None:
    if not cond:
        raise GateError(f"{op.label}: {what}")


def _clamped_knots(k: int, interior) -> list:
    zero, one = (Fraction(0), Fraction(1)) if interior and isinstance(
        interior[0], Fraction) else (0.0, 1.0)
    return [zero] * k + list(interior) + [one] * k


def _band(A) -> list:
    """Rows of the banded matrix as {column: entry} dicts (0-based)."""
    w = A.bandwidth
    return [{j - 1: A.get(i, j) for j in range(max(1, i - w), min(A.n, i + w) + 1)}
            for i in range(1, A.n + 1)]


def check_exact_inverse(op: Op, A, state) -> None:
    """B A = I exactly, every history column solves A_n x = e_n, and the
    Gram row sums equal (t_{i+k} - t_i)/k on the generated knots."""
    m, k = op.m, op.k
    _require(A.n == m and state.n == m, op, f"size {A.n}/{state.n}, expected {m}")
    band = _band(A)
    t = _clamped_knots(k, op.interior)
    for i, row in enumerate(band):
        _require(sum(row.values()) == (t[i + k] - t[i]) / k, op,
                 f"Gram row {i + 1} does not sum to its support/k")
    B = state.B
    for i in range(m):
        Bi = B[i]
        for j in range(m):
            acc = sum(Bi[r] * a for r, a in band[j].items())  # A symmetric
            _require(acc == (1 if i == j else 0), op, f"(B A)[{i + 1},{j + 1}] != I")
    diag, cols = state.diag_history, state.col_history
    _require(diag is not None and len(cols) == m and len(diag) == m, op,
             "history missing or of the wrong length")
    for n, col in enumerate(cols, start=1):
        _require(len(col) == n and diag[n - 1] == col[n - 1], op,
                 f"history column {n} malformed")
        for r in range(n):
            acc = sum(a * col[c] for c, a in band[r].items() if c < n)
            _require(acc == (1 if r == n - 1 else 0), op,
                     f"history column {n} does not solve A_n x = e_n")


def _check_report(op: Op, outcome: Outcome, exact: bool) -> None:
    report = json.loads(outcome.stdout)
    _require(report["k"] == op.k and report["m"] == op.m, op, "report for wrong k/m")
    _require(report["certified"] and report["passed"], op,
             "report not certified and passing")
    _require(all(c["pass"] for c in report["lemma_checks"]) and report["lemma_checks"],
             op, "lemma battery missing or failing")
    _require(report["checkerboard"] is (True if exact else None), op,
             f"checkerboard {report['checkerboard']!r}")


def _captured_one(op: Op, outcome: Outcome):
    _require(len(outcome.captured) == 1, op,
             f"expected one inversion, saw {len(outcome.captured)}")
    return outcome.captured[0]


def check_float_residual(op: Op, A, B) -> None:
    res = invstep.max_residual(A, B)
    _require(res <= FLOAT_RESIDUAL_MAX, op, f"residual {res:.3g} > {FLOAT_RESIDUAL_MAX}")


def _check_invert_files(op: Op, A) -> None:
    import numpy as np

    out_path, hist_path = op.out_files
    with open(out_path) as fh:
        inv = json.load(fh)
    with open(hist_path) as fh:
        hist = json.load(fh)
    m = op.m
    _require(inv["n"] == m and len(inv["entries"]) == m * (m + 1) // 2, op,
             "inverse file has the wrong size")
    _require(len(hist) == m and all(rec["n"] == n and len(rec["last_col"]) == n
                                    for n, rec in enumerate(hist, start=1)),
             op, "history file has the wrong length")
    B = np.empty((m, m))
    for i, j, x in inv["entries"]:
        B[i - 1, j - 1] = B[j - 1, i - 1] = x
    _require(hist[-1]["last_col"] == B[:, m - 1].tolist(), op,
             "last history column differs from the inverse")
    check_float_residual(op, A, B)


def _check_certify(op: Op, outcome: Outcome) -> None:
    name = op.argv[1]
    records = json.loads(outcome.stdout)["certificates"]
    expected = (["tp_minor"] if name == "theta_product" else []) + [name]
    _require([r["name"] for r in records] == expected, op,
             f"records {[r['name'] for r in records]}")
    for rec in records:
        got = (rec["num_terms"], rec["den_terms"], rec["max_total_degree"])
        _require(rec["success"] and rec["witness"] is None, op,
                 f"{rec['name']} not certified")
        _require(got == CERT_PINS[rec["name"]], op,
                 f"{rec['name']} terms {got}, pinned {CERT_PINS[rec['name']]}")


def check(op: Op, outcome: Outcome) -> None:
    """Gate one successful operation (exit 0); raises GateError."""
    _require(outcome.rc == cli.EXIT_OK, op, f"exit code {outcome.rc}")
    if op.spot is not None:
        _require(outcome.value == op.spot[1], op,
                 f"spot_check returned {outcome.value}, expected {op.spot[1]}")
    elif op.workload == "certify":
        _check_certify(op, outcome)
    elif op.workload == "exact_verify":
        _check_report(op, outcome, exact=True)
        check_exact_inverse(op, *_captured_one(op, outcome))
    elif op.workload == "float_sweep":
        _check_report(op, outcome, exact=False)
        A, state = _captured_one(op, outcome)
        check_float_residual(op, A, state.B)
    elif op.workload == "float_invert":
        A, _ = _captured_one(op, outcome)
        _check_invert_files(op, A)


# ---------------------------------------------------------------------------
# Float accuracy on graded meshes


def geometric_points(ratio: Fraction, count: int) -> list:
    """The exact breakpoints of geometric:R:N: gaps 1, r, ..., r^N, normalized."""
    return _renormalize([ratio ** j for j in range(count + 1)])


def _inverse_entries(k: int, spec: str, mode: str, path: Path) -> list:
    rc = cli.main(["invert", "--order", str(k), "--spec", spec, "--mode", mode,
                   "--out", str(path)])
    if rc != cli.EXIT_OK:
        raise GateError(f"accuracy probe {spec} k={k} {mode}: exit {rc}")
    with open(path) as fh:
        return json.load(fh)["entries"]


def _rel_err_max(spec: str, exact: list, approx: list) -> float:
    if len(exact) != len(approx):
        raise GateError(f"accuracy probe {spec}: {len(approx)} entries, expected {len(exact)}")
    worst = 0.0
    for (i, j, e), (fi, fj, f) in zip(exact, approx):
        if (i, j) != (fi, fj):
            raise GateError(f"accuracy probe {spec}: entry order differs")
        e = Fraction(e)
        worst = max(worst, abs(float(Fraction(f) - e) / float(e)))
    return worst


def float_accuracy(workdir: Path) -> tuple:
    """(float_rel_err_max, float_inv_err_max) over ACCURACY_MESHES at k in
    {2,3}, every inverse computed by the CLI.

    float_rel_err_max: the float inverse of geometric:R:N against the exact
    inverse of the same spec; it includes the error of rounding the
    breakpoints to doubles.  float_inv_err_max: the float inverse of those
    rounded breakpoints (given as explicit doubles) against the exact
    inverse of the same doubles (given as exact fractions), which is the
    error of the float inversion alone."""
    workdir = Path(workdir)
    out = workdir / "accuracy.json"
    rel = inv = 0.0
    for ratio, count in ACCURACY_MESHES:
        spec = f"geometric:{ratio.numerator}/{ratio.denominator}:{count}"
        doubles = [float(x) for x in geometric_points(ratio, count)]
        for k in (2, 3):
            exact = _inverse_entries(k, spec, "exact", out)
            rel = max(rel, _rel_err_max(spec, exact, _inverse_entries(k, spec, "float", out)))
            as_float = _write_partition(workdir, 900 + k, k, doubles)
            as_fraction = _write_partition(workdir, 910 + k, k, map(Fraction, doubles))
            rounded = f"{spec} rounded"
            inv = max(inv, _rel_err_max(rounded, _inverse_entries(k, as_fraction, "exact", out),
                                        _inverse_entries(k, as_float, "float", out)))
    return max(rel, ACCURACY_FLOOR), max(inv, INVERSION_FLOOR)

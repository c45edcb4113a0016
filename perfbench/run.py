"""Benchmark of the splinegram CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact_verify --seed 1 --seconds 16 --trace 0

Runs the CLI in-process (``splinegram.cli.main``) as a closed loop: one
client, one thread, each operation starting when the previous one returns.
The workload's operation pool is generated from ``--seed``; the run repeats
whole passes over it until the operations have taken about ``--seconds``
seconds.  Every operation's result is checked (untimed) by the correctness
gate.

Times are reported in reference seconds.  The speed of a shared virtual machine
drifts by tens of percent within a minute, so a short fixed calibration
loop runs before and after every operation, and each measured time is
scaled by CAL_REF_S / (calibration time around it).  On an idle machine
where the loop takes CAL_REF_S, reference seconds are seconds.  The raw
figures are kept in the run's details.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced pass with a traced pass and reports the per-layer metrics of the
traced passes plus the tracing overhead (traced minus untraced pass time).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``--out FILE`` also writes that result with the run's metadata.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

import tracing

try:
    import workloads
except ImportError as exc:  # run outside a checkout of the program
    workloads, LOAD_ERROR = None, exc

# Latency percentile reported as op_tail_s: one that leaves at least ten
# operations beyond it in a 16-second run of the current program and falls
# among the meshes of one size (exact_verify runs 45 operations,
# float_invert 90, float_sweep about 1600).  A certify run does
# two passes of 11 operations, so its "tail" is the median: it is not a
# tail, and reads the sixth cheapest operation, not one of the costly
# phi_step/theta_product ones.
TAIL_PERCENTILE = {"exact_verify": 75, "float_sweep": 99, "float_invert": 75,
                   "certify": 50}
SETUP_REPEATS = 15
# A run starts no further pass after this many times --seconds of wall
# time, which bounds its length when the machine runs slow.
WALL_CAP = 1.5
# Calibration loop time on an idle 2-core Xeon virtual machine (CPython 3.11).
CAL_REF_S = 4e-4


def _cal_work():
    acc = 0
    for i in range(1, 1500):
        acc += (i * i) % 7 + i // 3
    big = 3 ** 300
    for i in range(150):
        big = (big * 1000003 + i) % (2 ** 1279 - 1)
    x = 0.0
    for i in range(1000):
        x += i * 0.5
    return acc, big, x


def calibrate() -> float:
    """Current time of the calibration loop: the fastest of three runs,
    with the cyclic garbage collector off so the program's heap does not
    leak into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = perf_counter()
            _cal_work()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return min(times)


def _percentile(sorted_values: list, pct: float):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def measure_setup(root: Path, repeats: int = SETUP_REPEATS) -> tuple:
    """Median time, reference and raw, for a fresh interpreter to import
    splinegram.cli (after one untimed start that fills the bytecode cache)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-c", "import splinegram.cli"]
    raw, ref = [], []
    cal = calibrate()
    for i in range(repeats + 1):
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=root, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        dt = perf_counter() - t0
        cal_after = calibrate()
        if i:
            raw.append(dt)
            ref.append(dt * CAL_REF_S * 2 / (cal + cal_after))
        cal = cal_after
    return statistics.median(ref), statistics.median(raw)


class Pass:
    """Latencies of one pass over the pool, raw and in reference seconds."""

    def __init__(self):
        self.raw, self.ref, self.failed = [], [], 0


class Runner:
    """Runs passes over one pool, gating every operation."""

    def __init__(self, pool: list):
        self.pool = pool
        self.captured = []

    def run_pass(self, tracer=None) -> Pass:
        """One pass over the pool; GateError on a wrong answer."""
        result = Pass()
        cal = calibrate()
        for op in self.pool:
            if tracer:
                tracer.begin_op()
            t0 = perf_counter()
            outcome = workloads.run_op(op, self.captured)
            latency = perf_counter() - t0
            cal_after = calibrate()
            factor = CAL_REF_S * 2 / (cal + cal_after)
            cal = cal_after
            result.raw.append(latency)
            result.ref.append(latency * factor)
            if tracer:
                tracer.end_op(latency, factor, op.spot is None, outcome.failed,
                              workloads.output_bytes(op, outcome))
            if outcome.failed:
                result.failed += 1
            else:
                workloads.check(op, outcome)
            # release this operation's results before the next one starts
            self.captured.clear()
            outcome = None
        return result


def _repeat(step, seconds: float) -> list:
    """Call ``step`` (one pass, or a pair of passes; it returns its operation
    time in reference seconds first) at least once, and again while another
    call is expected to end nearer to ``seconds`` than stopping now.  Whole
    passes keep every run's mix of work the same, and counting reference
    seconds keeps the number of passes independent of the machine's drift."""
    wall0 = perf_counter()
    results = [step()]
    while perf_counter() - wall0 < WALL_CAP * seconds:
        measured = sum(r[0] for r in results)
        if measured + measured / len(results) / 2 >= seconds:
            break
        results.append(step())
    return results


def run_timed(runner: Runner, seconds: float) -> list:
    def step():
        p = runner.run_pass()
        return sum(p.ref), p

    return [p for _, p in _repeat(step, seconds)]


def run_traced(runner: Runner, seconds: float) -> dict:
    def step():
        untraced = runner.run_pass()
        tracer = tracing.Tracer()
        with tracing.patched(tracer.wrappers()):
            traced = runner.run_pass(tracer)
        return sum(untraced.ref) + sum(traced.ref), untraced, traced, tracer.finish()

    results = _repeat(step, seconds)
    _, untraced, traced, layer_passes = zip(*results)
    u = [sum(p.ref) for p in untraced]
    t = [sum(p.ref) for p in traced]
    metrics = tracing.median_metrics(layer_passes)
    metrics["trace.untraced_s"] = statistics.median(u)
    metrics["trace.traced_s"] = statistics.median(t)
    metrics["trace.overhead_s"] = statistics.median(b - a for a, b in zip(u, t))
    passes = untraced + traced
    return {"metrics": metrics, "failed": sum(p.failed for p in passes),
            "attempted": sum(len(p.ref) for p in passes), "passes": len(results)}


UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
         "ok_ops_ratio": "ratio", "peak_rss_mb": "MB", "float_rel_err_max": "ratio",
         "float_inv_err_max": "ratio"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


def end_to_end(workload: str, passes: list, setup: tuple, accuracy: tuple) -> tuple:
    ref = sorted(x for p in passes for x in p.ref)
    raw = sorted(x for p in passes for x in p.raw)
    n, failed = len(ref), sum(p.failed for p in passes)
    pct = TAIL_PERCENTILE[workload]
    tail, beyond = _percentile(ref, pct)
    metrics = {
        "setup_s": setup[0],
        "ops_per_s": n / sum(ref),
        "op_p50_s": statistics.median(ref),
        "op_tail_s": tail,
        "ok_ops_ratio": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "float_rel_err_max": accuracy[0],
        "float_inv_err_max": accuracy[1],
    }
    details = {"failed_ops_ratio": failed / n, "tail_percentile": pct,
               "tail_beyond": beyond, "ops": n, "passes": len(passes),
               "raw_setup_s": setup[1], "raw_ops_per_s": n / sum(raw),
               "raw_op_p50_s": statistics.median(raw),
               "raw_op_tail_s": _percentile(raw, pct)[0], "measured_s": sum(raw)}
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}, details


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, root: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    return {"commit": git_commit(root), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "cal_ref_s": CAL_REF_S,
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.POOLS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="also write the result record here")
    return p.parse_args(argv)


def main(argv=None) -> int:
    if workloads is None:
        print(f"perfbench: cannot load the program: {LOAD_ERROR}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    wall0 = perf_counter()
    root = workloads.ROOT
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    try:
        setup = measure_setup(root)
        runner = Runner(workloads.make_pool(args.workload, args.seed, workdir))
        accuracy = workloads.float_accuracy(workdir)
        with tracing.patched(tracing.capture_inverses(runner.captured)):
            if args.trace:
                traced = run_traced(runner, args.seconds)
                result.update(attempted=traced["attempted"], failed=traced["failed"])
                result["metrics"] = {k: {"value": v, "unit": _layer_unit(k)}
                                     for k, v in traced["metrics"].items()}
                details = {"passes": traced["passes"]}
            else:
                passes = run_timed(runner, args.seconds)
                result.update(attempted=sum(len(p.ref) for p in passes),
                              failed=sum(p.failed for p in passes))
                result["metrics"], details = end_to_end(args.workload, passes,
                                                        setup, accuracy)
    except workloads.GateError as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["wall_s"] = perf_counter() - wall0
    for name, m in result["metrics"].items():
        print(f"{args.workload:13s} {name:28s} {m['value']:>14.6g} {m['unit']}")
    for name, value in details.items():
        print(f"{args.workload:13s} {name:28s} {value:>14.6g}")
    if args.out:
        record = {"meta": metadata(args, root), "result": result, "details": details}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: tiny runs of every workload, seeded input
generation, the correctness gate and the compare command.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "exact_verify": dict(sizes={2: (3,), 3: (4,)}, reps=2),
    "float_sweep": dict(sizes=2, max_m=10, graded=workloads.GRADED[:1]),
    "float_invert": dict(sizes=1, reps=1, min_m=10, max_m=14),
    "certify": dict(names=("offdiag", "psi_from_phi"), points=3),
}


def tiny_pool(workload, seed, tmp_path):
    return workloads.make_pool(workload, seed, tmp_path, **TINY[workload])


def run_one(op):
    captured = []
    with tracing.patched(tracing.capture_inverses(captured)):
        return workloads.run_op(op, captured)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_runs_tiny_untraced_and_traced(workload, tmp_path):
    runner = run.Runner(tiny_pool(workload, 1, tmp_path))
    with tracing.patched(tracing.capture_inverses(runner.captured)):
        untraced = runner.run_pass()
        tracer = tracing.Tracer()
        with tracing.patched(tracer.wrappers()):
            traced = runner.run_pass(tracer)
    assert len(untraced.ref) == len(traced.ref) == len(runner.pool)
    # float mode rejects the geometric:1/10 meshes above N = 16 (k = 2 and 3)
    assert untraced.failed == traced.failed == (2 if workload == "float_sweep" else 0)
    layers = tracer.finish()
    assert set(layers) == {n for n in tracing.METRIC_NAMES if not n.startswith("trace.")}
    if workload == "certify":
        assert layers["polycert.num_terms"] == 64 + 2 + 64  # offdiag, psi_from_phi, tp_minor
        assert layers["polycert.spot_points"] == 2 * 3
    else:
        assert layers["invstep.calls"] > 0 and layers["gram.calls"] > 0
        assert layers["cli.output_bytes"] > 0
    if workload == "exact_verify":
        assert layers["invstep.entry_bits_max"] > 0
        assert layers["decay.comparisons"] > 0


def test_patches_are_removed(tmp_path):
    from splinegram import cli, invstep

    original = invstep.invert_iteratively
    with tracing.patched(tracing.Tracer().wrappers()):
        assert cli.invert_iteratively is not original
    assert cli.invert_iteratively is original and invstep.invert_iteratively is original


def _inputs(pool):
    """What a pool hands the program: arguments with partition files inlined
    and output paths (which name the pool's directory) left out."""
    def inline(arg):
        if arg.startswith("explicit:"):
            return Path(arg.split(":", 1)[1]).read_text()
        return None if arg.endswith(".json") else arg

    return [(tuple(map(inline, op.argv)), op.spot) for op in pool]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_seed_determines_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    a = _inputs(tiny_pool(workload, 7, dirs[0]))
    b = _inputs(tiny_pool(workload, 7, dirs[1]))
    c = _inputs(tiny_pool(workload, 8, dirs[2]))
    assert a == b
    assert a != c


def _op(workload, tmp_path, pick=lambda op: True):
    return next(op for op in tiny_pool(workload, 3, tmp_path) if pick(op))


def test_gate_rejects_perturbed_exact_inverse(tmp_path):
    op = _op("exact_verify", tmp_path)
    outcome = run_one(op)
    workloads.check(op, outcome)
    (A, state), = outcome.captured
    rows = [list(r) for r in state.B]
    rows[1][0] += Fraction(1, 10 ** 30)
    bad = dataclasses.replace(state, B=tuple(map(tuple, rows)))
    with pytest.raises(workloads.GateError, match="B A"):
        workloads.check_exact_inverse(op, A, bad)
    cols = list(state.col_history)
    cols[2] = cols[2][:-1] + (cols[2][-1] + Fraction(1, 10 ** 30),)
    bad = dataclasses.replace(state, col_history=tuple(cols))
    with pytest.raises(workloads.GateError, match="history"):
        workloads.check_exact_inverse(op, A, bad)


def test_gate_rejects_failing_report(tmp_path):
    op = _op("exact_verify", tmp_path)
    outcome = run_one(op)
    report = json.loads(outcome.stdout)
    report["passed"] = False
    outcome.stdout = json.dumps(report)
    with pytest.raises(workloads.GateError, match="passing"):
        workloads.check(op, outcome)


def test_gate_rejects_perturbed_float_inverse(tmp_path):
    op = _op("float_sweep", tmp_path, lambda op: "explicit:" in op.argv[4])
    outcome = run_one(op)
    workloads.check(op, outcome)
    (A, state), = outcome.captured
    B = state.B.copy()
    B[0, 1] *= 1 + 1e-6
    B[1, 0] = B[0, 1]
    with pytest.raises(workloads.GateError, match="residual"):
        workloads.check_float_residual(op, A, B)


def test_gate_rejects_truncated_invert_output(tmp_path):
    op = _op("float_invert", tmp_path)
    outcome = run_one(op)
    workloads.check(op, outcome)
    hist_path = Path(op.out_files[1])
    hist = json.loads(hist_path.read_text())
    hist_path.write_text(json.dumps(hist[:-1]))
    with pytest.raises(workloads.GateError, match="history"):
        workloads.check(op, outcome)


def test_gate_rejects_changed_term_count(tmp_path):
    op = _op("certify", tmp_path, lambda op: op.spot is None)
    outcome = run_one(op)
    workloads.check(op, outcome)
    obj = json.loads(outcome.stdout)
    obj["certificates"][0]["num_terms"] += 1
    outcome.stdout = json.dumps(obj)
    with pytest.raises(workloads.GateError, match="pinned"):
        workloads.check(op, outcome)


def test_gate_rejects_short_spot_check(tmp_path):
    op = _op("certify", tmp_path, lambda op: op.spot is not None)
    outcome = run_one(op)
    workloads.check(op, outcome)
    outcome.value -= 1
    with pytest.raises(workloads.GateError, match="spot_check"):
        workloads.check(op, outcome)


def test_float_accuracy_probe(tmp_path):
    rel, inv = workloads.float_accuracy(tmp_path)
    assert workloads.ACCURACY_FLOOR <= rel < 1e-2  # 7.7e-4 today
    assert workloads.INVERSION_FLOOR <= inv < 1e-9  # a few ulps today: the floor


def test_float_accuracy_probe_sees_inversion_error(tmp_path):
    def factory(original):
        def inverse_to_json(state):
            obj = original(state)
            i, j, x = obj["entries"][0]
            if not isinstance(x, str):  # float mode only
                obj["entries"][0] = [i, j, x * (1 + 1e-9)]
            return obj
        return inverse_to_json

    with tracing.patched({("invstep", "inverse_to_json"): factory}):
        _, inv = workloads.float_accuracy(tmp_path)
    assert 0.9e-9 < inv < 1.1e-9


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_result_line(trace, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert run.main(["--workload", "float_sweep", "--seed", "1", "--seconds", "0.01",
                     "--trace", str(trace), "--out", str(out)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] > 0
    bench = json.loads(compare.BENCHMARK.read_text())
    names = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    meta = json.loads(out.read_text())["meta"]
    assert meta["seed"] == 1 and meta["workload"] == "float_sweep"


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    shutil.copy(compare.BENCHMARK, tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _record(directory, workload, seed, value, correct=True, seconds=20):
    path = Path(directory) / workload / f"t0-s{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "meta": {"workload": workload, "seed": seed, "seconds": seconds},
        "result": {"correct": correct, "metrics": {"ops_per_s": {"value": value}}}}))


def test_compare_statuses(tmp_path):
    spec = {"ops_per_s": {"name": "ops_per_s", "unit": "1/s", "better": "higher",
                          "bound": 0.1}}
    for seed in range(1, 11):
        _record(tmp_path / "base", "w", seed, 100 + seed % 3)
        _record(tmp_path / "same", "w", seed, 100 + (seed + 1) % 3)
        _record(tmp_path / "fast", "w", seed, 150 + seed % 3)
        _record(tmp_path / "slow", "w", seed, 70 + seed % 3)
        _record(tmp_path / "noisy", "w", seed, 100 * (1 + seed % 2))
    status = {name: compare.compare(tmp_path / "base", tmp_path / name, spec)[0][3]
              for name in ("same", "fast", "slow", "noisy")}
    assert status["same"]["status"] == "same"
    assert status["fast"]["status"] == "gain" and status["fast"]["win"] == 1.0
    assert status["slow"]["status"] == "regressed"
    assert status["noisy"]["status"] == "unresolved"


def test_compare_refuses_wrong_missing_and_mismatched_sets(tmp_path, monkeypatch, capsys):
    spec = {"ops_per_s": {"name": "ops_per_s", "unit": "1/s", "better": "higher",
                          "bound": 0.1}}
    for seed in range(1, 11):
        for w in ("w", "v"):
            _record(tmp_path / "base", w, seed, 100)
        # wrong answers on some seeds: the correct ones alone would read "gain"
        _record(tmp_path / "wrong", "w", seed, 150, correct=seed > 3)
        _record(tmp_path / "wrong", "v", seed, 100)
        _record(tmp_path / "long", "w", seed, 100, seconds=10 if seed == 1 else 20)
        _record(tmp_path / "long", "v", seed, 100)
        _record(tmp_path / "partial", "w", seed, 100)
    status = {}
    for name in ("wrong", "long", "partial"):
        rows = compare.compare(tmp_path / "base", tmp_path / name, spec)
        status[name] = {(w, r["status"]) for w, _, _, r in rows}
    assert status["wrong"] == {("w", "wrong answer"), ("v", "same")}
    assert status["long"] == {("w", "run length differs"), ("v", "same")}
    assert status["partial"] == {("w", "same"), ("v", "missing")}
    monkeypatch.setattr(compare, "load_spec", lambda: spec)
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "base")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "wrong")]) == 1
    assert "wrong answer: new seeds [1, 2, 3]" in capsys.readouterr().out

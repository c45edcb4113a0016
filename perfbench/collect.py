"""Run the benchmark over several seeds and keep every record as a result set.

    python3 perfbench/collect.py OUTDIR [--seeds 1-10] [--trace 0|1]

Each workload of BENCHMARK.json and each seed runs ``run.py`` in its own
interpreter, one after the other, for the ``run_seconds`` of BENCHMARK.json,
and writes ``OUTDIR/<workload>/t<trace>-s<seed>.json``.  Untraced
sets end with each end-to-end metric's median and quartile spread against
its bound in BENCHMARK.json; ``compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads(compare.BENCHMARK.read_text())
    p = argparse.ArgumentParser(description="Collect a benchmark result set.")
    p.add_argument("outdir")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    outdir = Path(args.outdir)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        (outdir / workload).mkdir(parents=True, exist_ok=True)
        for seed in _seeds(args.seeds):
            out = outdir / workload / f"t{args.trace}-s{seed}.json"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace), "--out", str(out)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            summary = lines[-1] if lines else ""
            print(f"{workload} seed {seed}: exit {proc.returncode} {summary[:120]}",
                  flush=True)
            if proc.returncode != 0:
                failures += 1
                sys.stderr.write(proc.stderr)
    if args.trace == 0:
        spec = compare.load_spec()
        print(f"\n{'workload':13s} {'metric':18s} {'median':>11s} {'spread':>8s} {'bound':>6s}")
        for workload, entry in sorted(compare.load_results(outdir).items()):
            for name, metric in spec.items():
                values = [m[name] for m in entry["ok"].values()]
                if not values:
                    continue
                s = compare.spread(values)
                flag = "" if s < metric["bound"] / 3 else "  > bound/3"
                print(f"{workload:13s} {name:18s} {compare.quartiles(values)[1]:11.5g} "
                      f"{s:8.4f} {metric['bound']:6.2f}{flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

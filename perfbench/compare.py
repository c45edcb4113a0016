"""Compare the benchmark result sets of two commits.

    python3 perfbench/compare.py perfbench/baseline/<commit> <dir of new results>

A result set is a directory of records written by ``run.py --out`` (as
``collect.py`` lays them out: ``<workload>/t0-s<seed>.json``).  One row per
workload and end-to-end metric shows each side's median and quartiles, the
fraction of seed-matched pairs the new side wins (ties count for neither),
and a status:

- ``unresolved``: either side's quartile spread, as a share of its median,
  is wider than the metric's bound in BENCHMARK.json, and not every new run
  beats every base run;
- ``regressed``: the new median is worse than the base median by more than
  the bound;
- ``gain``: the new side wins at least 9 of 10 pairs and the medians differ
  by more than the base side's quartile spread;
- ``same`` otherwise.

A workload gets one row in place of its metric rows, and the command exits
1, when either side has a record with a wrong answer (``correct`` false),
when only one side has results for it, or when its runs on the two sides
were not all measured for the same number of seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec(path: Path = BENCHMARK) -> dict:
    """End-to-end metric name -> its BENCHMARK.json entry."""
    return {m["name"]: m for m in json.loads(path.read_text())["end_to_end"]}


def load_results(directory, trace: int = 0) -> dict:
    """{workload: {"ok": {seed: metrics}, "wrong": [seed], "seconds": {s}}}
    of a result set: the metrics of its correct records, the seeds of its
    records with a wrong answer, and the run lengths of all of them."""
    out = {}
    for path in sorted(Path(directory).glob(f"*/t{trace}-s*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        entry = out.setdefault(meta["workload"], {"ok": {}, "wrong": [], "seconds": set()})
        entry["seconds"].add(meta["seconds"])
        if record["result"]["correct"]:
            entry["ok"][meta["seed"]] = {
                k: v["value"] for k, v in record["result"]["metrics"].items()}
        else:
            entry["wrong"].append(meta["seed"])
    return out


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def compare_metric(base: dict, new: dict, spec: dict) -> dict:
    """Row for one metric; base/new map seed -> value."""
    better, bound = spec["better"], spec["bound"]
    common = sorted(set(base) & set(new))
    if common:
        pairs = [(base[s], new[s]) for s in common]
    else:
        pairs = list(zip(sorted(base.values()), sorted(new.values())))
    wins = sum(_better(n, b, better) for b, n in pairs)
    bq, nq = quartiles(base.values()), quartiles(new.values())
    sign = -1 if better == "higher" else 1
    worse_by = sign * (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
    dominates = all(_better(n, b, better) for n in new.values() for b in base.values())
    if max(spread(base.values()), spread(new.values())) > bound and not dominates:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and abs(nq[1] - bq[1]) > bq[2] - bq[0]:
        status = "gain"
    else:
        status = "same"
    return {"base": bq, "new": nq, "win": wins / len(pairs) if pairs else 0.0,
            "pairs": len(pairs), "status": status}


def _fault(base, new) -> tuple:
    """(status, detail) that keeps a workload's two sides from being
    compared, or None."""
    if base is None or new is None:
        return "missing", f"no results on the {'base' if base is None else 'new'} side"
    wrong = [f"{side} seeds {sorted(s['wrong'])}"
             for side, s in (("base", base), ("new", new)) if s["wrong"]]
    if wrong:
        return "wrong answer", ", ".join(wrong)
    if len(base["seconds"] | new["seconds"]) != 1:
        return "run length differs", (f"base {sorted(base['seconds'])} s, "
                                      f"new {sorted(new['seconds'])} s")
    return None


def compare(base_dir, new_dir, spec: dict) -> list:
    """Rows (workload, metric, unit, row).  A workload that cannot be
    compared gets one row (metric "-") with status and detail instead."""
    base, new = load_results(base_dir), load_results(new_dir)
    rows = []
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload), new.get(workload)
        fault = _fault(b, n)
        if fault:
            rows.append((workload, "-", "", {"status": fault[0], "detail": fault[1]}))
            continue
        for name, metric in spec.items():
            bm = {s: m[name] for s, m in b["ok"].items() if name in m}
            nm = {s: m[name] for s, m in n["ok"].items() if name in m}
            if bm and nm:
                rows.append((workload, name, metric["unit"], compare_metric(bm, nm, metric)))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    p.add_argument("base", help="result set of the parent commit")
    p.add_argument("new", help="result set of the change")
    args = p.parse_args(argv)
    rows = compare(args.base, args.new, load_spec())
    if not rows:
        print("no results on either side", file=sys.stderr)
        return 1
    print(f"{'workload':13s} {'metric':18s} {'unit':6s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'win':>5s}  status")
    faults = 0
    for workload, name, unit, r in rows:
        if "detail" in r:
            faults += 1
            print(f"{workload:13s} {name:18s} {unit:6s} {r['status']}: {r['detail']}")
            continue
        b, n = r["base"], r["new"]
        print(f"{workload:13s} {name:18s} {unit:6s} "
              f"{b[1]:10.4g} [{b[0]:9.4g}, {b[2]:9.4g}] "
              f"{n[1]:10.4g} [{n[0]:9.4g}, {n[2]:9.4g}] "
              f"{r['win']:5.2f}  {r['status']}")
    return 1 if faults else 0

if __name__ == "__main__":
    sys.exit(main())

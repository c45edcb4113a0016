"""Command-line interface.

Subcommands:
    gram      build a Gram matrix and dump it as JSON
    invert    invert it (banded LDL^T factorization + Takahashi recurrence)
    verify    evaluate the decay bounds / lemma batteries on partitions
    certify   machine-check the symbolic nonnegativity certificates
    gen       generate a partition file

Every subcommand writes one line of compact JSON (the json module's C
encoder, default separators) to stdout or to the file its --out/--history
option names; ``python -m json.tool FILE`` pretty-prints it.  Every file a
subcommand names (--out, --history, --csv) is opened before any work is
done, so one that cannot be written, or two options that name one file,
exit 3 with nothing on stdout.

Exit codes: 0 success, 1 a certified bound was violated, 2 a certificate
failed or arithmetic/resource failure (term budget, singular pivot, a float
bracket product that underflows, a float inverse entry that overflows, a
NaN or infinity in the output, which JSON cannot hold), 3 bad input (an
unreadable partition file, an output file that cannot be written).  All
output is deterministic for fixed arguments (seeded RNG, no timestamps).
``main`` builds its argument parser on the first call and reuses it for
every later call in the process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import random
import sys

from .decay import (_observed_constants, decay_constants, decay_report,
                    report_csv_rows, report_to_json, verify_lemmas)
from .errors import ArithmeticFailure, InputError, ResourceBudgetError
from .gram import build_gram, matrix_to_json
from .invstep import (check_checkerboard, history_to_json, inverse_to_json,
                      invert_iteratively)
from .knots import KnotSequence, knots_to_json
from .multipoly import term_budget
from .partitions import (EXACT_SWEEP_MAX_M, SweepConfig, parse_spec, realize,
                         sweep_partitions)
from .polycert import (INEQUALITY_NAMES, certificate_to_json,
                       certify_inequality)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_RESOURCE = 2
EXIT_INPUT = 3
_ENCODER = json.JSONEncoder(allow_nan=False)  # json.dumps's, but refusing NaN


def _emit(obj, out: str | None) -> None:
    try:
        text = _ENCODER.encode(obj) + "\n"
    except ValueError as exc:  # a NaN or an infinity, which JSON cannot hold
        raise ArithmeticFailure(f"output holds a non-finite number: {exc}") from None
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_outputs(args) -> None:
    """Open every file that ``args`` names as --out, --history or --csv for
    appending, which creates a missing one and changes no existing one, so
    an output file that cannot be written raises OSError (exit 3) before
    anything is written.  Two options that name one file (after resolving
    links), of which the later write would replace the earlier, raise
    InputError before any file is opened."""
    named = {}
    for name in ("out", "history", "csv"):
        if path := getattr(args, name, None):
            if (first := named.setdefault(os.path.realpath(path), name)) != name:
                raise InputError(f"--{first} and --{name} name one file: {path}")
    for name in named.values():
        open(getattr(args, name), "a").close()


def _apply_mode(ks: KnotSequence, mode: str) -> KnotSequence:
    if mode == "float" and ks.exact:
        return KnotSequence(ks.order, tuple(float(x) for x in ks.interior))
    if mode == "exact" and not ks.exact:
        raise InputError("cannot promote a float partition to exact mode")
    return ks


def _partition_from_args(args) -> KnotSequence:
    spec = parse_spec(args.spec)
    rng = random.Random(args.seed)
    ks = realize(spec, args.order, rng=rng, scalar_mode=args.mode)
    return _apply_mode(ks, args.mode)


def cmd_gram(args) -> int:
    ks = _partition_from_args(args)
    _emit(matrix_to_json(build_gram(ks, method=args.method)), args.out)
    return EXIT_OK


def cmd_invert(args) -> int:
    ks = _partition_from_args(args)
    A = build_gram(ks)
    state = invert_iteratively(A, keep_history=args.history is not None)
    _emit(inverse_to_json(state), args.out)
    if args.history:
        _emit(history_to_json(state), args.history)
    return EXIT_OK


def _verify_one(ks: KnotSequence, slack: float):
    """(report, checkerboard, inverse, constants) for one partition; for
    orders without a certified battery, the constants observed on the
    inverse (its per-diagonal envelope) and no verdict.  The inverse is the
    GrowingInverse, which every reader here takes as it is: an exact one's
    Fractions are never built."""
    A = build_gram(ks)
    battery = ks.order in (2, 3)
    state = invert_iteratively(A, keep_history=battery)
    if battery:
        consts = decay_constants(ks.order)
        checks = verify_lemmas(ks, A, state, consts, slack)
    else:
        consts, checks = _observed_constants(state, ks), ()
    report = decay_report(state, ks, consts, slack, checks)
    board = check_checkerboard(state)[0] if ks.exact else None
    return report, board, state, consts


def cmd_verify(args) -> int:
    slack = args.slack
    if not (math.isfinite(slack) and slack >= 0):
        raise InputError(f"--slack must be finite and >= 0, got {slack}")
    if (args.spec is None) == (args.trials is None):
        raise InputError("verify needs exactly one of --spec or --trials")
    if args.spec is not None:
        ks = _partition_from_args(args)
        report, board, state, consts = _verify_one(ks, slack)
        obj = report_to_json(report)
        obj["checkerboard"] = board
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["i", "j", "abs_b", "eta", "distance", "ratio"])
                writer.writerows(report_csv_rows(state, ks, consts))
        _emit(obj, args.out)
        return EXIT_VIOLATION if report.passed is False else EXIT_OK
    cfg = SweepConfig(order=args.order, trials=args.trials, max_m=args.max_m,
                      scalar_mode=args.mode, seed=args.seed)
    trials = []
    violations = 0
    worst = (float("-inf"), None)
    for idx, ks in enumerate(sweep_partitions(cfg)):
        report, board, _, _ = _verify_one(ks, slack)
        violations += report.passed is False
        if report.worst_ratio > worst[0]:
            worst = (report.worst_ratio, idx)
        trials.append({"trial": idx, "m": report.m, "passed": report.passed,
                       "certified": report.certified,
                       "worst_ratio": report.worst_ratio,
                       "checkerboard": board})
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(trials[0]))
            writer.writeheader()
            writer.writerows(trials)
    _emit({"k": args.order, "mode": args.mode, "max_m": cfg.effective_max_m,
           "trials": len(trials), "violations": violations,
           "worst_ratio": worst[0], "worst_trial": worst[1], "results": trials},
          args.out)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_certify(args) -> int:
    names = args.names or list(INEQUALITY_NAMES)
    records = []
    ok = True
    for name in names:
        with (term_budget(args.budget) if args.budget is not None
              else contextlib.nullcontext()):
            cert = certify_inequality(name)
        for pre in cert.prerequisites:
            records.append(certificate_to_json(pre))
            ok = ok and pre.success
        records.append(certificate_to_json(cert))
        ok = ok and cert.success
    _emit({"certificates": records}, args.out)
    # a failed certificate is an arithmetic finding, not a bound violation
    return EXIT_OK if ok else EXIT_RESOURCE


def cmd_gen(args) -> int:
    ks = _partition_from_args(args)
    _emit(knots_to_json(ks), args.out)
    return EXIT_OK


def _add_partition_args(p, need_spec=True):
    p.add_argument("--order", type=int, required=True, help="spline order k")
    p.add_argument("--spec", required=need_spec, default=None,
                   help="uniform:N | random:N | geometric:R:N | explicit:FILE")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinegram",
        description="B-spline Gram matrices, their inverses, "
                    "decay bounds, and nonnegativity certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", help="build a Gram matrix")
    _add_partition_args(p)
    p.add_argument("--method", choices=("auto", "closed", "quadrature"),
                   default="auto")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("invert", help="invert by banded LDL^T and the Takahashi "
                       "recurrence")
    _add_partition_args(p)
    p.add_argument("--history", default=None,
                   help="also write the leading-inverse history here")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("verify", help="check decay bounds on partitions")
    _add_partition_args(p, need_spec=False)
    p.add_argument("--trials", type=int, default=None,
                   help="random-partition sweep instead of a single --spec")
    p.add_argument("--max-m", type=int, default=20,
                   help="largest matrix size in a sweep; exact sweeps cap it "
                        f"at {EXACT_SWEEP_MAX_M} (the JSON's max_m is the "
                        "size used)")
    p.add_argument("--slack", type=float, default=1e-12,
                   help="tolerance of the float verdicts at orders 2 and 3 "
                        "(default 1e-12); exact mode compares exactly, and "
                        "orders without certified constants give no verdict")
    p.add_argument("--csv", default=None,
                   help="also write CSV: per-entry ratios for a single "
                        "--spec, per-trial summaries for a sweep")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="machine-check nonnegativity certificates")
    p.add_argument("names", nargs="*", metavar="NAME",
                   help=f"subset of {', '.join(INEQUALITY_NAMES)} (default all)")
    p.add_argument("--budget", type=int, default=None,
                   help="polynomial term budget (exit 2 when exceeded)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gen", help="generate a partition file")
    _add_partition_args(p)
    p.set_defaults(func=cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every main call in this process, built on the first."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceBudgetError, ArithmeticFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:  # an output file that cannot be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

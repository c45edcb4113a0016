"""Command-line interface: subcommands, JSON output, exit codes."""

import json
import math
import sys
from dataclasses import replace
from fractions import Fraction as F

import pytest

from oracles import save_partition
from splinegram import (InputError, KnotSequence, build_gram, invert_iteratively,
                        inverse_to_json, matrix_to_json)
from splinegram import cli, decay
from splinegram.cli import main

UNIFORM = ["--order", "2", "--spec", "uniform:3"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _run_json(capsys, argv):
    code, out = _run(capsys, argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# gram


def test_gram_matches_library(capsys):
    code, obj = _run_json(capsys, ["gram", *UNIFORM])
    assert code == 0
    ks = KnotSequence(2, [F(1, 4), F(1, 2), F(3, 4)])
    assert obj == matrix_to_json(build_gram(ks))


def test_gram_quadrature_equals_closed(capsys):
    code, closed = _run_json(capsys, ["gram", *UNIFORM, "--method", "closed"])
    assert code == 0
    code, quad = _run_json(capsys, ["gram", *UNIFORM, "--method", "quadrature"])
    assert code == 0
    assert closed == quad


def test_gram_out_file(capsys, tmp_path):
    path = tmp_path / "gram.json"
    code, out = _run(capsys, ["gram", *UNIFORM, "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["n"] == 5


def test_gram_no_closed_form_for_high_order(capsys):
    code, _ = _run(capsys, ["gram", "--order", "5", "--spec", "uniform:6",
                            "--method", "closed"])
    assert code == 3


# ---------------------------------------------------------------------------
# invert


def test_invert_with_history(capsys, tmp_path):
    hist_path = tmp_path / "history.json"
    code, obj = _run_json(capsys, ["invert", *UNIFORM,
                                   "--history", str(hist_path)])
    assert code == 0
    ks = KnotSequence(2, [F(1, 4), F(1, 2), F(3, 4)])
    state = invert_iteratively(build_gram(ks), keep_history=True)
    assert obj == inverse_to_json(state)
    history = json.loads(hist_path.read_text())
    assert [rec["n"] for rec in history] == list(range(1, ks.m + 1))


def test_output_is_compact_and_lossless(capsys, tmp_path):
    # each file is one line of json.dumps' default form and parses back to
    # the library's inverse and history: floats bit for bit, exact values
    # through Fraction("p/q"); gram's stdout is its --out file
    knots = tmp_path / "knots.json"
    inv_path, hist_path = tmp_path / "inverse.json", tmp_path / "history.json"
    gram_path = tmp_path / "gram.json"
    interior = [F(1, 7), F(2, 7) + F(1, 10**4), F(3, 7), F(5, 7), F(6, 7)]
    for order in (2, 3):
        save_partition(KnotSequence(order, interior), knots)
        for mode, scalar in (("exact", F), ("float", float)):
            argv = ["--order", str(order), "--spec", f"explicit:{knots}",
                    "--mode", mode]
            assert main(["invert", *argv, "--out", str(inv_path),
                         "--history", str(hist_path)]) == 0
            texts = inv_path.read_text(), hist_path.read_text()
            for text in texts:
                assert text == json.dumps(json.loads(text)) + "\n"
            inverse, history = map(json.loads, texts)

            ks = KnotSequence(order, [scalar(x) for x in interior])
            st = invert_iteratively(build_gram(ks), keep_history=True)
            assert len(inverse["entries"]) == st.n * (st.n + 1) // 2
            for i, j, x in inverse["entries"]:
                assert scalar(x) == st.B[i - 1, j - 1]
            assert [rec["n"] for rec in history] == list(range(1, st.n + 1))
            assert [scalar(rec["b_nn"]) for rec in history] \
                == st.diag_history.tolist()
            assert [list(map(scalar, rec["last_col"])) for rec in history] \
                == [col.tolist() for col in st.col_history]

            capsys.readouterr()
            assert main(["gram", *argv]) == 0
            out = capsys.readouterr().out
            assert main(["gram", *argv, "--out", str(gram_path)]) == 0
            assert out == gram_path.read_text()


# ---------------------------------------------------------------------------
# verify: single partition


def test_verify_single_exact(capsys):
    code, obj = _run_json(capsys, ["verify", "--order", "3",
                                   "--spec", "uniform:5"])
    assert code == 0
    assert obj["k"] == 3 and obj["m"] == 8
    assert obj["certified"] is True and obj["worst_ratio"] <= 1
    assert obj["checkerboard"] is True
    assert len(obj["lemma_checks"]) == 9


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_verify_evaluates_the_gram_bands_once(capsys, monkeypatch, mode):
    # the lemma battery reads a_{n-1,n} and M_n's entries from the Gram
    # matrix it verifies instead of evaluating the order-3 bands again
    from splinegram import gram
    calls = []
    quad_formula = gram.quad_formula

    def counted(br, ratio, i, d):
        calls.append((len(i), d))
        return quad_formula(br, ratio, i, d)

    monkeypatch.setattr(gram, "quad_formula", counted)
    # decay imports it by name, which the patch of gram alone would miss
    monkeypatch.setattr(decay, "quad_formula", counted)
    code, obj = _run_json(capsys, ["verify", "--order", "3", "--spec", "random:12",
                                   "--mode", mode])
    assert code == 0 and len(obj["lemma_checks"]) == 9
    assert calls == [(15, 0), (14, 1), (13, 2)]


def test_verify_lemmas_rejects_a_gram_matrix_of_another_partition():
    ks, other = KnotSequence(3, [F(1, 2)]), KnotSequence(3, [F(1, 3), F(1, 2)])
    state = invert_iteratively(build_gram(ks), keep_history=True)
    consts = decay.decay_constants(3)
    for A in (build_gram(other), build_gram(KnotSequence(2, [F(1, 2), F(3, 4)]))):
        with pytest.raises(InputError):
            decay.verify_lemmas(ks, A, state, consts)
    assert decay.verify_lemmas(ks, build_gram(ks), state, consts)


def test_verify_csv(capsys, tmp_path):
    path = tmp_path / "ratios.csv"
    code, _ = _run_json(capsys, ["verify", *UNIFORM, "--csv", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,abs_b,eta,distance,ratio"
    ks = KnotSequence(2, [F(1, 4), F(1, 2), F(3, 4)])
    assert len(lines) == 1 + ks.m * ks.m


def test_exact_verify_builds_no_fractions_of_the_inverse(capsys, tmp_path, monkeypatch):
    # exact verify reads the inverse and the history as integer numerators
    # over shared denominators: B's and col_history's Fractions, whose gcds
    # dominated the inverse's time, are never built (the cached attributes
    # stay absent from the instance __dict__), for the report, the battery,
    # the checkerboard, the observed envelope and the CSV rows alike
    from splinegram.partitions import shrink_one_gap
    states = []

    def recorded(A, **kwargs):
        states.append(invert_iteratively(A, **kwargs))
        return states[-1]

    monkeypatch.setattr(cli, "invert_iteratively", recorded)
    for k in (2, 3, 4):
        ks = KnotSequence(k, [F(i, 13) for i in (1, 2, 5, 7, 8, 11)])
        for mesh in (ks, shrink_one_gap(ks, 2, F(1, 10 ** 4))):
            report, board, state, _ = cli._verify_one(mesh, 0.0)
            assert state is states[-1] and board is True
            assert report.passed is (True if k < 4 else None)
            assert "B" not in vars(state)
            # orders without a battery keep no history
            assert "col_history" not in vars(state) if k < 4 else state.col_history is None
    path = tmp_path / "ratios.csv"
    for k in ("2", "3"):
        code, _ = _run(capsys, ["verify", "--order", k, "--spec", "random:12",
                                "--csv", str(path)])
        state = states[-1]
        assert code == 0 and len(path.read_text().splitlines()) == 1 + state.n ** 2
        assert "B" not in vars(state) and "col_history" not in vars(state)


def test_verify_rejects_bad_slack(capsys):
    # a negative or non-finite tolerance is bad input, not a violation
    for mode in ("float", "exact"):
        for slack in ("-1", "nan", "inf"):
            code = main(["verify", *UNIFORM, "--mode", mode, "--slack", slack])
            captured = capsys.readouterr()
            assert code == 3 and captured.out == ""
            assert "--slack" in captured.err


def test_verify_violation_exits_1(capsys, monkeypatch):
    # constants 100 times too small make the full-decay family fail; the
    # CLI looks them up once and hands them to the battery and the report
    certified = decay.decay_constants
    monkeypatch.setattr(cli, "decay_constants",
                        lambda k: replace(certified(k), K=certified(k).K / 100))
    code, obj = _run_json(capsys, ["verify", *UNIFORM, "--mode", "float"])
    assert code == 1
    assert obj["certified"] is True and obj["passed"] is False
    failed = [c["name"] for c in obj["lemma_checks"] if not c["pass"]]
    assert failed == ["full_decay"]
    # float mode has no exact checkerboard claim
    assert obj["checkerboard"] is None


def _no_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def test_verify_entries_beyond_the_float_range(capsys, tmp_path):
    # gaps of 10^-400: inverse entries overflow floats and eta underflows,
    # yet each |b| eta / (K gamma^d) is a finite ratio below 1
    tiny = F(1, 10 ** 400)
    path = tmp_path / "mesh.json"
    save_partition(KnotSequence(2, [F(1, 2), F(1, 2) + tiny, F(1, 2) + 2 * tiny]),
                   path)
    csv_path = tmp_path / "ratios.csv"
    argv = ["verify", "--order", "2", "--spec", f"explicit:{path}"]
    for extra in ([], ["--csv", str(csv_path)]):
        code, out = _run(capsys, argv + extra)
        assert code == 0
        obj = json.loads(out, parse_constant=_no_constant)
        assert obj["passed"] and 0 < obj["worst_ratio"] < 1
    assert len(csv_path.read_text().strip().splitlines()) == 1 + 5 * 5


def test_verify_fitted_order_never_fails(capsys):
    code, obj = _run_json(capsys, ["verify", "--order", "4",
                                   "--spec", "uniform:6"])
    assert code == 0
    assert obj["certified"] is False and obj["passed"] is None
    # the observed envelope bounds every entry of its own inverse
    assert obj["worst_ratio"] <= 1 + 1e-12
    # observed constants certify nothing: a sweep records no verdict either
    code, obj = _run_json(capsys, ["verify", "--order", "4", "--trials", "2",
                                   "--max-m", "10"])
    assert code == 0 and obj["violations"] == 0
    assert [(t["certified"], t["passed"]) for t in obj["results"]] == [(False, None)] * 2
    assert all(t["worst_ratio"] <= 1 + 1e-12 for t in obj["results"])
    assert obj["worst_ratio"] <= 1 + 1e-12


def test_gamma_power_underflow_reads_a_finite_ratio(capsys):
    # at m = 1840 the float gamma^d underflows to 0 where b_ij eta_ij has;
    # those ratios come from mantissa/exponent pairs, so the report holds
    # only finite numbers and passes
    code, out = _run(capsys, ["verify", "--order", "2", "--spec", "uniform:1840",
                              "--mode", "float"])
    assert code == 0
    obj = json.loads(out, parse_constant=_no_constant)
    assert obj["passed"] and 0 < obj["worst_ratio"] < 1


def test_non_finite_output_exits_2(capsys, monkeypatch):
    # a report holding NaN, which JSON cannot hold, is an arithmetic failure
    # with nothing on stdout, not a report holding NaN
    real = cli.report_to_json
    monkeypatch.setattr(cli, "report_to_json",
                        lambda report: {**real(report), "worst_ratio": math.nan})
    code, out, err = _call(capsys, ["verify", *UNIFORM, "--mode", "float"])
    assert (code, out) == (2, "")
    assert err.startswith("error: output holds a non-finite number")
    monkeypatch.undo()
    # a passing float report holds only finite numbers
    code, out = _run(capsys, ["verify", *UNIFORM, "--mode", "float"])
    assert code == 0 and json.loads(out, parse_constant=_no_constant)["passed"]


def test_exact_output_beyond_the_int_digit_limit(capsys, tmp_path):
    # gaps of 10^-400 at k = 3 give inverse entries of more than 4300
    # digits, past CPython's int-to-str limit: invert prints every digit,
    # and the limit, which guards parsing, reads the same afterwards
    tiny = F(1, 10 ** 400)
    ks = KnotSequence(3, [tiny, 2 * tiny, 3 * tiny, F(1, 3), F(1, 2), 1 - tiny])
    path, hist_path = tmp_path / "mesh.json", tmp_path / "history.json"
    save_partition(ks, path)
    limit = sys.get_int_max_str_digits()
    code, out = _run(capsys, ["invert", "--order", "3", "--spec", f"explicit:{path}",
                              "--history", str(hist_path)])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    inverse, history = json.loads(out), json.loads(hist_path.read_text())
    assert max(len(x) for _, _, x in inverse["entries"]) > 2 * 4300
    st = invert_iteratively(build_gram(ks), keep_history=True)
    sys.set_int_max_str_digits(0)  # Fraction("p/q") parses through int()
    try:
        assert [F(x) for _, _, x in inverse["entries"]] \
            == [st.B[i - 1, j - 1] for i, j, _ in inverse["entries"]]
        assert [F(rec["b_nn"]) for rec in history] == st.diag_history.tolist()
        assert [list(map(F, rec["last_col"])) for rec in history] \
            == [col.tolist() for col in st.col_history]
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# verify: sweeps


def test_verify_sweep_deterministic(capsys):
    argv = ["verify", "--order", "2", "--trials", "5", "--seed", "7"]
    code_a, out_a = _run(capsys, argv)
    code_b, out_b = _run(capsys, argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    obj = json.loads(out_a)
    assert obj["trials"] == 5 and obj["violations"] == 0
    assert len(obj["results"]) == 5
    assert obj["worst_ratio"] <= 1
    assert all(t["checkerboard"] for t in obj["results"])


def test_verify_sweep_float_mode(capsys):
    code, obj = _run_json(capsys, ["verify", "--order", "3", "--trials", "3",
                                   "--mode", "float", "--max-m", "12"])
    assert code == 0
    assert all(t["checkerboard"] is None for t in obj["results"])


def test_verify_sweep_reports_effective_max_m(capsys):
    # exact sweeps cap m at EXACT_SWEEP_MAX_M = 60 and say so
    code, obj = _run_json(capsys, ["verify", "--order", "2", "--mode", "exact",
                                   "--trials", "2", "--max-m", "100"])
    assert code == 0 and obj["max_m"] == 60
    assert all(t["m"] <= 60 for t in obj["results"])
    code, obj = _run_json(capsys, ["verify", "--order", "2", "--mode", "float",
                                   "--trials", "2", "--max-m", "100"])
    assert code == 0 and obj["max_m"] == 100


def test_verify_spec_and_trials_mutually_exclusive(capsys):
    code, _ = _run(capsys, ["verify", *UNIFORM, "--trials", "3"])
    assert code == 3
    code, _ = _run(capsys, ["verify", "--order", "2"])
    assert code == 3


def test_verify_sweep_csv(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    code, obj = _run_json(capsys, ["verify", "--order", "2", "--trials", "4",
                                   "--csv", str(path)])
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "trial,m,passed,certified,worst_ratio,checkerboard"
    assert len(lines) == 1 + obj["trials"]


# ---------------------------------------------------------------------------
# certify


def test_certify_subset(capsys):
    code, obj = _run_json(capsys, ["certify", "offdiag", "psi_from_phi"])
    assert code == 0
    names = [c["name"] for c in obj["certificates"]]
    assert names == ["offdiag", "psi_from_phi"]
    assert all(c["success"] for c in obj["certificates"])


def test_certify_emits_prerequisite_before_main(capsys):
    code, obj = _run_json(capsys, ["certify", "theta_product"])
    assert code == 0
    names = [c["name"] for c in obj["certificates"]]
    assert names == ["tp_minor", "theta_product"]


def test_certify_budget_exhaustion(capsys):
    code, _ = _run(capsys, ["certify", "phi_step", "--budget", "10"])
    assert code == 2


def test_certify_unknown_name(capsys):
    code, _ = _run(capsys, ["certify", "no_such_inequality"])
    assert code == 3


# ---------------------------------------------------------------------------
# gen and explicit partitions


def test_gen_explicit_roundtrip(capsys, tmp_path):
    path = tmp_path / "knots.json"
    code, out = _run(capsys, ["gen", "--order", "3", "--spec", "random:4",
                              "--seed", "11", "--out", str(path)])
    assert code == 0 and out == ""
    code, obj = _run_json(capsys, ["gram", "--order", "3",
                                   "--spec", f"explicit:{path}"])
    assert code == 0 and obj["n"] == 7 and obj["bandwidth"] == 2


def test_gen_float_mode(capsys):
    code, obj = _run_json(capsys, ["gen", "--order", "2", "--spec", "random:3",
                                   "--mode", "float"])
    assert code == 0
    assert all(isinstance(v, float) for v in obj["interior"])


def test_explicit_wrong_order_rejected(capsys, tmp_path):
    path = tmp_path / "knots.json"
    save_partition(KnotSequence(2, [F(1, 2)]), path)
    code, _ = _run(capsys, ["gram", "--order", "3",
                            "--spec", f"explicit:{path}"])
    assert code == 3


def test_explicit_float_file_in_exact_mode_rejected(capsys, tmp_path):
    path = tmp_path / "knots.json"
    save_partition(KnotSequence(2, [0.3, 0.6]), path)
    code, _ = _run(capsys, ["verify", "--order", "2",
                            "--spec", f"explicit:{path}"])
    assert code == 3
    code, _ = _run(capsys, ["verify", "--order", "2", "--mode", "float",
                            "--spec", f"explicit:{path}"])
    assert code == 0


def test_bad_spec_rejected(capsys):
    code, _ = _run(capsys, ["gram", "--order", "2", "--spec", "grid:3"])
    assert code == 3
    code, _ = _run(capsys, ["gram", "--order", "2", "--spec", "uniform:zero"])
    assert code == 3
    # geometric gap ratio must lie strictly inside (0, 1)
    for ratio in ("0", "1", "2"):
        code, _ = _run(capsys, ["gram", "--order", "2",
                                "--spec", f"geometric:{ratio}:3"])
        assert code == 3


def test_unreadable_partition_file_exits_3(capsys, tmp_path):
    # a missing file, a directory, an interior that is not a list, and bytes
    # that are not text: bad input, one error line and no traceback
    not_a_list = tmp_path / "scalar.json"
    not_a_list.write_text('{"order": 3, "interior": 5}')
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in (tmp_path / "missing.json", tmp_path, not_a_list, binary):
        code, out, err = _call(capsys, ["gen", "--order", "3",
                                        "--spec", f"explicit:{path}"])
        assert (code, out) == (3, ""), path
        assert err.startswith("error: partition ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gen", "--order", "3", "--spec", "uniform:3", "--out"],
    ["invert", "--order", "3", "--spec", "uniform:3", "--history"],
    ["verify", "--order", "3", "--spec", "uniform:3", "--csv"],
    ["verify", "--order", "2", "--trials", "2", "--csv"],
    ["certify", "psi_from_phi", "--out"],
], ids=["gen-out", "invert-history", "verify-csv", "sweep-csv", "certify-out"])
def test_unwritable_output_exits_3(capsys, tmp_path, argv):
    # an output file in a missing directory is bad input, not a violation:
    # exit 3 with one error line naming the path, and no traceback; every
    # file is opened before anything is written, so stdout stays empty
    path = tmp_path / "missing" / "x.json"
    code, out, err = _call(capsys, argv + [str(path)])
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_failed_run_keeps_an_existing_output(capsys, tmp_path):
    # the named files are opened for appending before the run, so a run that
    # then fails (here on a missing partition file) changes no existing one
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    code, stdout, _ = _call(capsys, ["gen", "--order", "3", "--out", str(out),
                                     "--spec", f"explicit:{tmp_path / 'missing.json'}"])
    assert (code, stdout, out.read_text()) == (3, "", "kept\n")


@pytest.mark.parametrize("argv, second", [
    (["invert", *UNIFORM], "--history"),
    (["verify", *UNIFORM], "--csv"),
    (["verify", "--order", "2", "--trials", "2"], "--csv"),
], ids=["invert-history", "verify-csv", "sweep-csv"])
def test_two_outputs_naming_one_file_exit_3(capsys, tmp_path, argv, second):
    # the later write would replace the earlier: bad input, found before
    # any file is opened, so stdout stays empty, an existing file keeps its
    # bytes and a missing one is not created; a link to the file is the file
    kept, missing = tmp_path / "kept.json", tmp_path / "missing.json"
    kept.write_text("kept\n")
    (tmp_path / "link.json").symlink_to(kept)
    for first, other in ((kept, kept), (missing, missing), (kept, tmp_path / "link.json")):
        code, out, err = _call(capsys, argv + ["--out", str(first), second, str(other)])
        assert (code, out) == (3, "")
        assert err == f"error: --out and {second} name one file: {other}\n"
    assert kept.read_text() == "kept\n" and not missing.exists()


@pytest.mark.filterwarnings("error")
def test_float_bracket_underflow_exits_2(capsys, tmp_path):
    # breakpoints near 0: at k = 3 a bracket product in a monomial ratio
    # underflows to 0.0, an arithmetic failure rather than a violation;
    # the order-2 closed forms divide by no bracket product and run
    for k, expected in ((3, 2), (2, 0)):
        path = tmp_path / f"k{k}.json"
        save_partition(KnotSequence(k, [1e-170, 2e-170, 0.5]), path)
        for cmd in ("gram", "verify"):
            code, out, err = _call(capsys, [cmd, "--order", str(k), "--mode", "float",
                                            "--spec", f"explicit:{path}"])
            assert code == expected, (k, cmd)
            if expected:
                assert out == "" and err.count("\n") == 1
                assert err.startswith("error: a monomial ratio has a zero denominator")
            else:
                assert err == "" and json.loads(out)


@pytest.mark.filterwarnings("error")
def test_float_inverse_overflow_exits_2(capsys, tmp_path):
    # a subnormal pivot: 1/d overflows, which is an arithmetic failure, not
    # a violated bound (exit 1) or an inverse holding Infinity (exit 0)
    path = tmp_path / "mesh.json"
    save_partition(KnotSequence(3, [1e-310, 0.5]), path)
    for cmd in ("verify", "invert"):
        code, out, err = _call(capsys, [cmd, "--order", "3", "--mode", "float",
                                        "--spec", f"explicit:{path}"])
        assert (code, out) == (2, ""), cmd
        assert err == "error: non-finite entry in the float inverse " \
                      "(a pivot too small for float64)\n"


# ---------------------------------------------------------------------------
# One parser per process, and no numpy at import

SEQUENCE = (
    ["verify", "--order", "3", "--spec", "random:6", "--seed", "2"],
    ["verify", "--order", "2", "--no-such-flag"],           # usage error: exit 2
    ["gram", "--order", "3", "--spec", "geometric:2:5"],    # bad spec: exit 3
    ["invert", "--order", "3", "--spec", "uniform:4", "--mode", "float"],
    ["certify", "offdiag"],
    ["verify", "--order", "2", "--trials", "3", "--max-m", "8"],
)


def _call(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors exit from parse_args
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_matches_fresh_parsers(capsys, monkeypatch):
    from splinegram import cli

    shared = [_call(capsys, argv) for argv in SEQUENCE]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [_call(capsys, argv) for argv in SEQUENCE]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 3, 0, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in shared[1][2]
    assert shared[2][2].startswith("error: ")


def test_cli_import_loads_no_numpy():
    import os
    import subprocess
    import sys

    import splinegram

    src = os.path.dirname(os.path.dirname(os.path.abspath(splinegram.__file__)))
    code = "import sys, splinegram.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

"""Golden CLI outputs: each argv of golden/manifest.json replayed in-process
through ``cli.main``, in a fresh temporary directory holding the partition
files of ``INPUTS``, gives the recorded exit code, the recorded sha256 of
stdout and of stderr, and the recorded sha256 of every file it writes, so
exact outputs stay bit-identical across refactors.

The manifest covers ``certify``: all names, each name and ``tp_minor``, and
``--budget`` on both sides of the largest products' distinct-monomial counts
(phi_step 10520, theta_product 11152).  In exact mode it also covers
``gram``, ``invert --history``, ``verify`` and ``gen`` at orders 1 to 5 on
``SPECS`` (seed 0), ``verify --trials`` at each order, quadrature Gram
matrices at orders 2 and 3, ``verify`` on an explicit partition file and two
commands that exit 3.  A change that alters a hash names the changed command
and the reason in CHANGES.md.

Float output depends on libm and on the numpy version, so float ``verify``
at orders 2 and 3 on ``SPECS`` plus ``random:100`` is pinned by its verdicts
(golden/float_verdicts.json): the exit code, ``passed``, ``certified``,
``worst_entry`` and each lemma family's ``pass`` and ``witness``.

Regenerate both files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from splinegram.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
VERDICTS = GOLDEN / "float_verdicts.json"
INPUTS = ("partition.json",)
SPECS = ("uniform:4", "random:8", "geometric:1/3:6")
ORDERS = range(1, 6)

ARGVS = [
    ["certify"],
    ["certify", "offdiag"],
    ["certify", "phi_step"],
    ["certify", "psi_a"],
    ["certify", "theta_product"],
    ["certify", "psi_from_phi"],
    ["certify", "tp_minor"],
    ["certify", "phi_step", "--budget", "10520"],
    ["certify", "phi_step", "--budget", "10519"],
    ["certify", "theta_product", "--budget", "11152"],
    ["certify", "theta_product", "--budget", "11151"],
    *([cmd, "--order", str(k), "--spec", spec, *rest]
      for k in ORDERS for spec in SPECS
      for cmd, *rest in (["gram"], ["invert", "--history", "history.json"],
                         ["verify"], ["gen"])),
    *(["verify", "--order", str(k), "--trials", "3", "--max-m", "12"]
      for k in ORDERS),
    ["gram", "--order", "2", "--spec", "random:8", "--method", "quadrature"],
    ["gram", "--order", "3", "--spec", "random:8", "--method", "quadrature"],
    ["verify", "--order", "3", "--spec", "explicit:partition.json"],
    ["gen", "--order", "3", "--spec", "explicit:missing.json"],
    ["verify", "--order", "3", "--spec", "uniform:4", "--trials", "3"],
]
FLOAT_ARGVS = [["verify", "--order", str(k), "--spec", spec, "--mode", "float"]
               for k in (2, 3) for spec in (*SPECS, "random:100")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """The exit code, stdout, stderr and the files written (name -> bytes)
    of one CLI run in a fresh temporary directory."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name in INPUTS:
            shutil.copy(GOLDEN / name, tmp)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(cwd)
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())
                 if p.name not in INPUTS}
    return code, out.getvalue(), err.getvalue(), files


def replay(argv) -> dict:
    """The exit code, the sha256 of stdout and stderr and, when it writes
    files, the sha256 of each, of one CLI run."""
    code, out, err, files = _run(argv)
    files = {name: _sha256(data) for name, data in files.items()}
    entry = {"argv": list(argv), "exit": code,
             "stdout": _sha256(out.encode()),
             "stderr": _sha256(err.encode())}
    if files:
        entry["files"] = files
    return entry


def verdict(argv) -> dict:
    """The exit code and, from the JSON report, ``passed``, ``certified``,
    ``worst_entry`` and each lemma family's [name, pass, witness], of one
    float ``verify`` run."""
    code, out, _, _ = _run(argv)
    report = json.loads(out)
    return {"argv": list(argv), "exit": code, "passed": report["passed"],
            "certified": report["certified"], "worst_entry": report["worst_entry"],
            "lemmas": [[c["name"], c["pass"], c["witness"]]
                       for c in report["lemma_checks"]]}


def _entries(path=MANIFEST):
    return json.loads(path.read_text())["commands"]


def test_manifest_lists_every_command():
    assert [e["argv"] for e in _entries()] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)),
                         ids=[" ".join(argv) for argv in ARGVS])
def test_golden_output(index):
    entry = _entries()[index]
    assert replay(entry["argv"]) == entry


def test_verdicts_list_every_command():
    assert [e["argv"] for e in _entries(VERDICTS)] == FLOAT_ARGVS


@pytest.mark.parametrize("index", range(len(FLOAT_ARGVS)),
                         ids=[" ".join(argv) for argv in FLOAT_ARGVS])
def test_float_verdict(index):
    entry = _entries(VERDICTS)[index]
    assert verdict(entry["argv"]) == entry


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    for path, record, argvs in ((MANIFEST, replay, ARGVS),
                                (VERDICTS, verdict, FLOAT_ARGVS)):
        commands = [record(argv) for argv in argvs]
        path.write_text(json.dumps({"commands": commands}, indent=1) + "\n")

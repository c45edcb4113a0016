"""Golden CLI outputs: each argv of golden/manifest.json replayed in-process
through ``cli.main`` gives the recorded exit code and the recorded sha256 of
stdout and of stderr, so exact outputs stay bit-identical across refactors.

The manifest covers ``certify``: all names, each name and ``tp_minor``, and
``--budget`` on both sides of the largest products' distinct-monomial counts
(phi_step 10520, theta_product 11152).  A change that alters a hash names
the changed command and the reason in CHANGES.md.

Regenerate the manifest with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from splinegram.cli import main

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"

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
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(argv) -> dict:
    """The exit code and the sha256 of stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": _sha256(out.getvalue()), "stderr": _sha256(err.getvalue())}


def _entries():
    return json.loads(MANIFEST.read_text())["commands"]


def test_manifest_lists_every_command():
    assert [e["argv"] for e in _entries()] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)),
                         ids=[" ".join(argv) for argv in ARGVS])
def test_golden_output(index):
    entry = _entries()[index]
    assert replay(entry["argv"]) == entry


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"commands": [replay(a) for a in ARGVS]},
                                   indent=1) + "\n")

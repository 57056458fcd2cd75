"""`tools/certify.py` is the one home of the certification grids: its runner
fails on a claim whose line differs, and the workflow runs it in one step
instead of spelling out grids of its own."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_runner_fails_on_a_line_one_cell_off(capsys, certify):
    (claim,) = [c for c in certify.CLAIMS if c[0] == "scan 3..300 12..21 --j-max 300"]
    name, run, expected = claim
    assert expected == "cells=2980 disagreements=0"
    assert certify.main([claim]) == 0
    assert capsys.readouterr().out.startswith(f"{name} | {expected} | ok | ")
    assert certify.main([(name, run, "cells=2979 disagreements=0")]) != 0
    assert f"{name} | {expected} | MISMATCH | " in capsys.readouterr().out


def test_every_claim_expects_no_disagreement(certify):
    for name, _, expected in certify.CLAIMS:
        assert re.fullmatch(
            r"(cells|tables|labels|bounds)=[1-9][0-9]* (disagreements|mismatches)=0( top=[0-9]+)?",
            expected,
        ), name


def test_the_workflow_certifies_only_through_the_manifest():
    # read as text: CI installs pytest and hypothesis, not a YAML parser
    text = WORKFLOW.read_text(encoding="utf-8")
    assert "powerfib scan" not in text
    assert "residues_general" not in text and "sequence_prefix" not in text
    runs = re.findall(r"^\s*run: (.*)$", text, flags=re.MULTILINE)
    # once in the tier-1 matrix, once on the newest Python with no package installed
    assert [run for run in runs if "tools/certify.py" in run] == ["PYTHONPATH=src python tools/certify.py"] * 2
    newest = text.split("\n  certify-newest-python:\n")[1]
    assert 'python-version: "3.13"' in newest and "pip install" not in newest
    # the steps that check other things stay
    assert sum("PYTHONINTMAXSTRDIGITS=0" in run for run in runs) == 1
    assert "python -m pytest -q benchmarks/tests" in runs
    assert text.count("python3 benchmarks/run.py --workload") == 3


def test_any_argument_gets_the_usage_line_before_any_claim():
    # the claims take about 30 s, so a run that started them times out
    for argv in (["--help"], ["scan", "3..5"]):
        proc = subprocess.run(
            [sys.executable, "tools/certify.py", *argv],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2,
            "",
            "usage: PYTHONPATH=src python tools/certify.py\n",
        ), argv

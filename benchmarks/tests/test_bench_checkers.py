"""Each workload's checker accepts powerfib's real output and rejects a
corrupted copy of it."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import pytest

import tracer
import workloads as wl
from conftest import BENCH_DIR
from powerfib import cli, identities


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def test_certify_accepts_a_real_row_and_rejects_a_period_off_by_one():
    rc, out, err = run_main(wl.certify_argv(6, 50))
    wl.check_certify(6, rc, out, err)
    bad = out.replace("e=2 closed=6 oracle=6", "e=2 closed=7 oracle=7")
    assert bad != out
    with pytest.raises(wl.WrongOutput):
        wl.check_certify(6, rc, bad, err)


@pytest.mark.parametrize(
    "op",
    [
        wl.TableOp(12, 3, "plain", False),
        wl.TableOp(9, 2, "csv", False),
        wl.TableOp(11, 5, "json", False),
        wl.TableOp(9, 2, "plain", True),
        wl.TableOp(10, 1, "json", True),
    ],
)
def test_tables_accept_real_output_and_reject_one_altered_residue(op):
    rc, out, err = run_main(op.argv())
    wl.check_table(op, rc, out, err)
    if op.fmt == "json":
        doc = json.loads(out)
        doc["residues"][3] = str(int(doc["residues"][3]) + 1)
        bad = json.dumps(doc) + "\n"
    else:
        lines = out.split("\n")
        sep = " " if op.fmt == "plain" else ","
        parts = lines[4].split(sep)  # index 3, after the header line
        parts[1] = str(int(parts[1]) + 1)
        lines[4] = sep.join(parts)
        bad = "\n".join(lines)
    with pytest.raises(wl.WrongOutput):
        wl.check_table(op, rc, bad, err)


def test_tables_reject_a_wrong_annotation():
    op = wl.TableOp(8, 1, "plain", True)
    rc, out, err = run_main(op.argv())
    bad = out.replace("\n3 2 F[3]\n", "\n3 2 F[4]\n")
    assert bad != out
    with pytest.raises(wl.WrongOutput):
        wl.check_table(op, rc, bad, err)


def test_sweeps_accept_real_reports_and_reject_wrong_counts():
    for op in flat(wl.sweeps_rounds(seed=1, seconds=1)):
        if op.kind != "ppd" or op.args[0] in (41, 60):
            wl.check_sweep(op, wl.run_sweep(identities, op))
    op = wl.SweepOp("cassini", (130,))
    report = identities.sweep_cassini(130)
    short = identities.VerificationReport(report.identity_name, report.domain_description, 129, report.verdict)
    with pytest.raises(wl.WrongOutput):
        wl.check_sweep(op, short)


def test_ppd_check_uses_independent_factoring():
    result = identities.primitive_prime_divisor(60)
    wl.check_ppd(60, result)
    wrong = dataclasses.replace(result, primitive_prime=61)
    with pytest.raises(wl.WrongOutput):
        wl.check_ppd(60, wrong)  # 61 divides F_60, but F_15 first
    none = identities.PrimitiveDivisorResult(12, None, None, ((2, 4), (3, 2)))
    wl.check_ppd(12, none)


@pytest.mark.parametrize("req", wl.CLI_PASS, ids=lambda r: " ".join(r.argv))
def test_cli_checker_accepts_every_documented_request(req):
    rc, out, err = run_main(req.argv)
    if req.kind == "pipe":
        out = out.split("\n", 1)[0] + "\n"  # what the reader sees before closing
    wl.check_request(req, rc, out, err)


def test_cli_checker_rejects_a_wrong_exit_code_and_a_traceback():
    req = wl.Request("period", ("period", "9", "5"))
    rc, out, err = run_main(req.argv)
    with pytest.raises(wl.OpFailed):
        wl.check_request(req, 1, out, err)
    with pytest.raises(wl.WrongOutput):
        wl.check_request(req, 2, out, err)  # the exit code of a disagreement
    traceback = "Traceback (most recent call last):\n  ...\nBrokenPipeError: [Errno 32] Broken pipe\n"
    with pytest.raises(wl.OpFailed):
        wl.check_request(req, rc, out, traceback)
    usage = wl.Request("usage", ("frobnicate",))
    rc, out, err = run_main(usage.argv)
    wl.check_request(usage, rc, out, err)
    with pytest.raises(wl.OpFailed):
        wl.check_request(usage, 3, out, err)
    with pytest.raises(wl.WrongOutput):
        wl.check_request(usage, rc, out, err + "second line\n")


def test_oracle_checker_rejects_a_false_witness():
    rc, out, err = run_main(("oracle", "10", "3"))
    wl.check_oracle(10, 3, rc, out, err)
    bad = out.replace("d=1 fails witness=0", "d=1 fails witness=1")
    assert bad != out
    with pytest.raises(wl.WrongOutput):
        wl.check_oracle(10, 3, rc, bad, err)


def test_verify_checker_rejects_a_short_case_count():
    rc, out, err = run_main(("verify",))
    wl.check_verify((), rc, out, err)
    bad = out.replace("PASS cassini: cases=120", "PASS cassini: cases=119")
    assert bad != out
    with pytest.raises(wl.WrongOutput):
        wl.check_verify((), rc, bad, err)


def flat(rounds):
    return [op for one in rounds for op in one]


def test_operation_lists_are_fixed_multisets_without_repeats():
    for build in (wl.certify_rounds, wl.tables_rounds, wl.cli_rounds):
        a, b = flat(build(1, 30)), flat(build(2, 30))
        assert a != b and sorted(map(repr, a)) == sorted(map(repr, b))
    for build in (wl.certify_rounds, wl.tables_rounds, wl.sweeps_rounds):
        ops = flat(build(3, 30))
        assert len(set(map(repr, ops))) == len(ops) >= 100
    assert len(flat(wl.cli_rounds(1, 30))) >= wl.MIN_OPS


def test_rounds_hold_the_same_mix_of_sizes():
    rounds = wl.certify_rounds(5, 30)
    sums = [sum(j * j for j in one) for one in rounds]
    assert max(sums) < 1.05 * min(sums)
    assert all(sorted(map(repr, p)) == sorted(map(repr, wl.CLI_PASS)) for p in wl.cli_rounds(5, 30))


def test_self_time_excludes_children_on_the_same_thread():
    t = tracer.Tracer()
    inner = t.wrap(0, lambda: sum(range(10000)))
    outer = t.wrap(1, lambda: [inner() for _ in range(3)])
    outer()
    summary = t.summary()
    first, second = tracer.FUNCTIONS[0], tracer.FUNCTIONS[1]
    assert summary[f"{first}.calls"] == 3 and summary[f"{second}.calls"] == 1
    buf = t.buffers[0]
    total_outer = buf.end[0] - buf.start[0]
    assert 0 <= summary[f"{second}.self_ms"] < total_outer * 1000


def test_launcher_traces_a_cli_request(tmp_path):
    trace_file = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH_DIR.parent / "src"), BENCH_TRACE_FILE=str(trace_file))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "launcher.py"), "period", "10", "4", "--verify"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    wl.check_request(wl.Request("period", ("period", "10", "4", "--verify")), proc.returncode, proc.stdout, proc.stderr)
    summary = json.loads(trace_file.read_text())
    assert summary["cli.main.calls"] == summary["cli.cmd_period.calls"] == 1
    assert summary["oracle.minimal_period_bruteforce.calls"] == 1
    assert summary["oracle.window_terms"] == 20  # the Pisano period of F_10 = 55
    assert summary["fibcore.fib_exact.calls"] == 2
    assert summary["cli.stdout_bytes"] == len(proc.stdout)

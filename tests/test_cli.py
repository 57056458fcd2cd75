import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import powerfib
import powerfib.cli as cli
import powerfib.identities as identities
from powerfib.cli import main
from powerfib.errors import ResourceGuardError
from powerfib.fibcore import fib_exact, fib_prefix
from powerfib.identities import ALL_PASS, COUNTEREXAMPLE, Counterexample, VerificationReport
from powerfib.oracle import OracleTrace, minimal_period_bruteforce
from powerfib.periodicity import PeriodResult
from powerfib.residue_tables import residues_general


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


_ORACLE_9_5 = (
    '{"modulus": "34", "pisano": 36, "power_period": 36, "checked_divisors": ['
    '{"d": 1, "verdict": "fails", "witness_index": 0}, '
    '{"d": 2, "verdict": "fails", "witness_index": 0}, '
    '{"d": 3, "verdict": "fails", "witness_index": 0}, '
    '{"d": 4, "verdict": "fails", "witness_index": 0}, '
    '{"d": 6, "verdict": "fails", "witness_index": 0}, '
    '{"d": 9, "verdict": "fails", "witness_index": 1}, '
    '{"d": 12, "verdict": "fails", "witness_index": 0}, '
    '{"d": 18, "verdict": "fails", "witness_index": 1}, '
    '{"d": 36, "verdict": "holds"}]}'
)

_ZERO_POSITIONS_DOMAIN = "j in {4..20} minus 6, e in [1, 5], i <= 5*j"

_VERIFY_DEFAULT_PLAIN = (
    "PASS gcd: cases=200 (200 sampled index pairs)\n"
    "PASS addition: cases=6480 (n in [1, 80], m in [0, 80])\n"
    "PASS catalan: cases=3321 (0 <= r <= n <= 80)\n"
    "PASS cassini: cases=120 (n in [1, 120])\n"
    "PASS square_lemma: cases=493 (k in [2, 30], alpha in [0, k])\n"
    f"PASS zero_positions: cases=5030 ({_ZERO_POSITIONS_DOMAIN})\n"
    "N/A  zero_positions_j6_exclusion: cases=31 (j = 6, e = 3, i <= 30)"
    " witness=(j=6, e=3, i=3) lhs=1 rhs=0\n"
    "PASS carmichael: cases=38 (j in [3, 40], expected exceptions [6, 12])\n"
    "failures: 0\n"
)

_VERIFY_DEFAULT_JSON = (
    '{"reports": ['
    '{"identity": "gcd", "domain": "200 sampled index pairs", "cases": 200, "verdict": "all_pass"}, '
    '{"identity": "addition", "domain": "n in [1, 80], m in [0, 80]", "cases": 6480, '
    '"verdict": "all_pass"}, '
    '{"identity": "catalan", "domain": "0 <= r <= n <= 80", "cases": 3321, "verdict": "all_pass"}, '
    '{"identity": "cassini", "domain": "n in [1, 120]", "cases": 120, "verdict": "all_pass"}, '
    '{"identity": "square_lemma", "domain": "k in [2, 30], alpha in [0, k]", "cases": 493, '
    '"verdict": "all_pass"}, '
    f'{{"identity": "zero_positions", "domain": "{_ZERO_POSITIONS_DOMAIN}", "cases": 5030, '
    '"verdict": "all_pass"}, '
    '{"identity": "zero_positions_j6_exclusion", "domain": "j = 6, e = 3, i <= 30", '
    '"cases": 31, "verdict": "not_applicable", '
    '"counterexample": {"inputs": {"j": 6, "e": 3, "i": 3}, "lhs": "1", "rhs": "0"}}, '
    '{"identity": "carmichael", "domain": "j in [3, 40], expected exceptions [6, 12]", '
    '"cases": 38, "verdict": "all_pass"}], '
    '"failures": 0}\n'
)

# exact bytes of one invocation per subcommand and accepted format
EXACT_OUTPUTS = [
    ("period 9 5", 0, "period(j=9, e=5) = 36  [ODD_ODD]\n"),
    (
        "period 9 5 --format json",
        0,
        '{"j": 9, "e": 5, "outcome": 36, "case_label": "ODD_ODD"}\n',
    ),
    (
        "period 9 5 --verify",
        0,
        "period(j=9, e=5) = 36  [ODD_ODD]\n"
        "oracle: pisano=36 power_period=36\n"
        "agreement: yes\n",
    ),
    (
        "period 9 5 --verify --format json",
        0,
        '{"closed_form": {"j": 9, "e": 5, "outcome": 36, "case_label": "ODD_ODD"}, '
        f'"oracle": {_ORACLE_9_5}, "agreement": true}}\n',
    ),
    (
        "period 2 4 --verify",
        0,
        "period(j=2, e=4) = 1  [J1_J2]\n"
        "oracle skipped: modulus F_j is below 2 (base case)\n",
    ),
    (
        "period 2 4 --verify --format json",
        0,
        '{"closed_form": {"j": 2, "e": 4, "outcome": 1, "case_label": "J1_J2"}, '
        '"oracle": null, "agreement": null, '
        '"note": "oracle skipped: modulus F_j is below 2 (base case)"}\n',
    ),
    (
        "table 3 2",
        0,
        "table(j=3, e=2): modulus F_3 = 2: the residues repeat the block [0, 1, 1]; "
        "the period is 3\n",
    ),
    (
        "table 3 2 --format json",
        0,
        '{"j": 3, "e": 2, "base_case": "modulus F_3 = 2: the residues repeat the block '
        '[0, 1, 1]; the period is 3"}\n',
    ),
    ("table 3 2 --format csv", 0, "i,rho\n0,0\n1,1\n2,1\n"),
    (
        "table 6 1 --annotate --format json",
        0,
        '{"j": 6, "e": 1, "modulus": "8", "period": 12, '
        '"residues": ["0", "1", "1", "2", "3", "5", "0", "5", "5", "2", "7", "1"], '
        '"case_formulas": ["F[0]", "F[1]", "F[2]", "F[3]", "F[4]", "F[5]", "0", '
        '"F[5]", "Fj-F[4]", "F[3]", "Fj-F[2]", "F[1]"]}\n',
    ),
    (
        "oracle 6 2",
        0,
        "modulus=8 pisano=12 power_period=6\n"
        "d=1 fails witness=0\nd=2 fails witness=0\nd=3 fails witness=0\n"
        "d=4 fails witness=0\nd=6 holds\n",
    ),
    (
        "oracle 6 2 --format json",
        0,
        '{"modulus": "8", "pisano": 12, "power_period": 6, "checked_divisors": ['
        '{"d": 1, "verdict": "fails", "witness_index": 0}, '
        '{"d": 2, "verdict": "fails", "witness_index": 0}, '
        '{"d": 3, "verdict": "fails", "witness_index": 0}, '
        '{"d": 4, "verdict": "fails", "witness_index": 0}, '
        '{"d": 6, "verdict": "holds"}]}\n',
    ),
    (
        "scan 4..6 1..2",
        0,
        "j=4 e=1 closed=8 oracle=8 agree=yes\nj=4 e=2 closed=4 oracle=4 agree=yes\n"
        "j=5 e=1 closed=20 oracle=20 agree=yes\nj=5 e=2 closed=10 oracle=10 agree=yes\n"
        "j=6 e=1 closed=12 oracle=12 agree=yes\nj=6 e=2 closed=6 oracle=6 agree=yes\n"
        "cells=6 disagreements=0\n",
    ),
    (
        "scan 4..6 1..2 --format json",
        0,
        '{"cells": ['
        '{"j": 4, "e": 1, "closed_form": 8, "oracle": 8, "agree": true}, '
        '{"j": 4, "e": 2, "closed_form": 4, "oracle": 4, "agree": true}, '
        '{"j": 5, "e": 1, "closed_form": 20, "oracle": 20, "agree": true}, '
        '{"j": 5, "e": 2, "closed_form": 10, "oracle": 10, "agree": true}, '
        '{"j": 6, "e": 1, "closed_form": 12, "oracle": 12, "agree": true}, '
        '{"j": 6, "e": 2, "closed_form": 6, "oracle": 6, "agree": true}], '
        '"disagreements": 0}\n',
    ),
    (
        "verify zero_positions",
        0,
        f"PASS zero_positions: cases=5030 ({_ZERO_POSITIONS_DOMAIN})\n"
        "N/A  zero_positions_j6_exclusion: cases=31 (j = 6, e = 3, i <= 30)"
        " witness=(j=6, e=3, i=3) lhs=1 rhs=0\n"
        "failures: 0\n",
    ),
    (
        "verify zero_positions --format json",
        0,
        '{"reports": [{"identity": "zero_positions", '
        f'"domain": "{_ZERO_POSITIONS_DOMAIN}", "cases": 5030, "verdict": "all_pass"}}, '
        '{"identity": "zero_positions_j6_exclusion", "domain": "j = 6, e = 3, i <= 30", '
        '"cases": 31, "verdict": "not_applicable", '
        '"counterexample": {"inputs": {"j": 6, "e": 3, "i": 3}, "lhs": "1", "rhs": "0"}}], '
        '"failures": 0}\n',
    ),
    ("verify", 0, _VERIFY_DEFAULT_PLAIN),
    ("verify --format json", 0, _VERIFY_DEFAULT_JSON),
]


@pytest.mark.parametrize(("command", "code", "stdout"), EXACT_OUTPUTS, ids=[c for c, _, _ in EXACT_OUTPUTS])
def test_exact_output(capsys, command, code, stdout):
    assert run(capsys, *command.split()) == (code, stdout, "")


def test_period_plain(capsys):
    rc, out, _ = run(capsys, "period", "7", "1")
    assert rc == 0
    assert out == "period(j=7, e=1) = 28  [ODD_ODD]\n"


def test_period_not_periodic(capsys):
    rc, out, _ = run(capsys, "period", "0", "5")
    assert rc == 0
    assert out == "period(j=0, e=5) = not_periodic  [J0]\n"


def test_period_verified_plain(capsys):
    rc, out, _ = run(capsys, "period", "7", "1", "--verify")
    assert rc == 0
    assert out == (
        "period(j=7, e=1) = 28  [ODD_ODD]\n"
        "oracle: pisano=28 power_period=28\n"
        "agreement: yes\n"
    )


def test_period_json(capsys):
    rc, out, _ = run(capsys, "period", "7", "1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"j": 7, "e": 1, "outcome": 28, "case_label": "ODD_ODD"}


def test_period_verify_skips_oracle_below_domain(capsys):
    rc, out, _ = run(capsys, "period", "2", "4", "--verify", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["closed_form"]["outcome"] == 1
    assert doc["oracle"] is None
    assert doc["agreement"] is None
    assert "note" in doc


def test_period_output_is_reproducible(capsys):
    first = run(capsys, "period", "9", "5", "--verify", "--format", "json")
    second = run(capsys, "period", "9", "5", "--verify", "--format", "json")
    assert first == second


def test_period_rejects_bad_exponent(capsys):
    rc, _, err = run(capsys, "period", "7", "0")
    assert rc == 1
    assert "e" in err


def test_period_rejects_csv(capsys):
    rc, _, err = run(capsys, "period", "7", "1", "--format", "csv")
    assert rc == 1


def test_period_guard_exit(capsys):
    rc, _, err = run(capsys, "period", "26", "1", "--verify")
    assert rc == 3
    assert err == "resource guard: j=26 exceeds the oracle guard j_max=25\n"


def test_period_guard_is_adjustable(capsys):
    rc, out, _ = run(capsys, "period", "26", "1", "--verify", "--j-max", "30")
    assert rc == 0
    assert "agreement: yes" in out


def test_table_plain(capsys):
    rc, out, _ = run(capsys, "table", "6", "2")
    assert rc == 0
    assert out == "# j=6 e=2 modulus=8 period=6\n0 0\n1 1\n2 1\n3 4\n4 1\n5 1\n"


def test_table_csv_exact_bytes(capsys):
    rc, out, _ = run(capsys, "table", "6", "2", "--format", "csv")
    assert rc == 0
    assert out == "i,rho\n0,0\n1,1\n2,1\n3,4\n4,1\n5,1\n"


def test_table_json_round_trip(capsys):
    rc, out, _ = run(capsys, "table", "6", "2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "j": 6,
        "e": 2,
        "modulus": "8",
        "period": 6,
        "residues": ["0", "1", "1", "4", "1", "1"],
    }


def test_table_annotated(capsys):
    rc, out, _ = run(capsys, "table", "6", "2", "--annotate")
    assert rc == 0
    assert out.splitlines()[4] == "3 4 F[3]^2"
    rc, out, _ = run(capsys, "table", "6", "1", "--annotate", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["case_formulas"][6] == "0"
    assert len(doc["case_formulas"]) == doc["period"]
    rc, out, _ = run(capsys, "table", "5", "1", "--annotate")
    assert rc == 0
    assert out == (
        "# j=5 e=1 modulus=5 period=20\n"
        "0 0 F[0]\n1 1 F[1]\n2 1 F[2]\n3 2 F[3]\n4 3 F[4]\n"
        "5 0 0\n6 3 F[4]\n7 3 Fj-F[3]\n8 1 F[2]\n9 4 Fj-F[1]\n"
        "10 0 0\n11 4 Fj-F[1]\n12 4 Fj-F[2]\n13 3 Fj-F[3]\n14 2 Fj-F[4]\n"
        "15 0 0\n16 2 Fj-F[4]\n17 2 F[3]\n18 4 Fj-F[2]\n19 1 F[1]\n"
    )


def test_table_annotate_needs_small_exponent(capsys):
    rc, _, err = run(capsys, "table", "6", "3", "--annotate")
    assert rc == 1
    assert err == "error: --annotate needs e in {1, 2}; no per-entry closed form beyond\n"


def test_table_annotate_rejects_csv(capsys):
    # csv has no column for the labels
    assert run(capsys, "table", "6", "1", "--annotate", "--format", "csv") == (
        1,
        "",
        "error: --annotate applies to plain and json tables, not csv\n",
    )


# every table builder cmd_table can reach
_TABLE_BUILDERS = ("residues_general", "case_breakdown")


def _no_work(*args, **kwargs):
    raise AssertionError("work was done for a request that should be refused first")


@pytest.mark.parametrize(
    ("command", "message"),
    [
        ("table 2000 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
        ("table 2000 2 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
        ("table 0 1 --format csv", "j = 0 has no finite residue table; use plain or json"),
        # before the domain checks too, and --annotate before j = 0
        ("table -1 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
        ("table 0 0 --format csv", "j = 0 has no finite residue table; use plain or json"),
        ("table 0 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
    ],
)
def test_table_csv_usage_errors_come_before_any_work(capsys, monkeypatch, command, message):
    for builder in _TABLE_BUILDERS:
        monkeypatch.setattr(cli, builder, _no_work)
    assert run(capsys, *command.split()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    ("command", "message"),
    [
        ("table -1 1", "j must be nonnegative, got -1"),
        ("table 5 0", "exponent must be at least 1, got 0"),
        ("table 3 1 --annotate", "--annotate applies to closed-form tables (j >= 4)"),
    ],
)
def test_table_domain_errors(capsys, command, message):
    assert run(capsys, *command.split()) == (1, "", f"error: {message}\n")


def test_table_base_cases(capsys):
    rc, out, _ = run(capsys, "table", "2", "1")
    assert rc == 0
    assert out == "table(j=2, e=1): modulus F_2 = 1: every residue is 0; the period is 1\n"
    rc, out, _ = run(capsys, "table", "3", "1", "--format", "csv")
    assert rc == 0
    assert out == "i,rho\n0,0\n1,1\n2,1\n"
    rc, _, _ = run(capsys, "table", "0", "1", "--format", "csv")
    assert rc == 1  # no residues exist mod F_0 = 0


def test_table_general_exponent(capsys):
    rc, out, _ = run(capsys, "table", "6", "3")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[1] for r in rows] == ["0", "1", "1", "0", "3", "5", "0", "5", "5", "0", "7", "1"]


@pytest.fixture
def digit_limit():
    """Python's default limit on printing an integer: 4300 decimal digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no limit on printing an integer")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize(
    "command",
    [
        "table 20578 1",
        "oracle 20578 1 --j-max 20578",
        "period 20578 1 --verify --j-max 20578 --format json",
    ],
)
def test_modulus_too_wide_to_print_trips_guard(capsys, digit_limit, command):
    # F_20578 has 4301 digits
    rc, out, err = run(capsys, *command.split())
    assert (rc, out) == (3, "")
    assert err == (
        "resource guard: F_20578 has more than 4300 decimal digits, "
        "the most this Python prints (sys.set_int_max_str_digits)\n"
    )


def test_widest_printable_modulus_runs(capsys, digit_limit):
    # F_20577 has exactly 4300 digits
    rc, out, err = run(capsys, "oracle", "20577", "1", "--j-max", "20577")
    assert (rc, err) == (0, "")
    assert out.startswith(f"modulus={fib_exact(20577)} pisano=")


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_period_too_wide_to_print_trips_guard(capsys, digit_limit, fmt):
    # j = 99...9 has 4300 digits and parses; its period 4j has 4301
    assert run(capsys, "period", "9" * 4300, "1", "--format", fmt) == (
        3,
        "",
        "resource guard: the period has more than 4300 decimal digits, "
        "the most this Python prints (sys.set_int_max_str_digits)\n",
    )
    # j = 22...2 is even, so its period 2j = 44...4 keeps 4300 digits
    j, period = "2" * 4300, "4" * 4300
    rc, out, err = run(capsys, "period", j, "1", "--format", fmt)
    assert (rc, err) == (0, "")
    if fmt == "plain":
        assert out == f"period(j={j}, e=1) = {period}  [EVEN_ODD]\n"
    else:
        assert json.loads(out) == {"j": int(j), "e": 1, "outcome": int(period), "case_label": "EVEN_ODD"}


def test_digit_guard_is_exact_near_the_limit(digit_limit):
    sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
    for j, f in enumerate(fib_prefix(3100)):
        if f >= 10**640:
            with pytest.raises(ResourceGuardError):
                cli._require_printable_fib(j)
        else:
            cli._require_printable_fib(j)
    sys.set_int_max_str_digits(0)  # no limit
    cli._require_printable_fib(10**6)


def test_digit_bound_is_the_digits_or_one_more():
    for j, f in enumerate(fib_prefix(3001)[2:], start=2):
        assert len(str(f)) <= cli._fib_digit_bound(j) <= len(str(f)) + 1, j


class _CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize(
    "command",
    ["table 40 3", "table 40 1 --annotate", "table 40 2 --format csv", "scan 4..6 1..2 --format json"],
)
def test_success_is_one_write(monkeypatch, command):
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(command.split()) == 0
    assert len(stdout.writes) == 1


def test_table_closed_pipe_exits_quietly():
    # the 1000 rows (about 110 kB) overfill the pipe, so the child is still
    # writing when the reader closes it after the header
    env = dict(os.environ, PYTHONPATH=str(Path(powerfib.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "powerfib", "table", "500", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=60)
    assert first == f"# j=500 e=3 modulus={fib_exact(500)} period=1000\n".encode()
    assert err == b""
    assert rc == 0


def test_oracle_json_matches_library(capsys):
    rc, out, _ = run(capsys, "oracle", "6", "2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == minimal_period_bruteforce(6, 2).to_record()


@pytest.mark.parametrize(("j", "e"), [(1000, 3), (1500, 2)])
def test_json_carries_several_hundred_digit_integers_exactly(capsys, j, e):
    m = fib_exact(j)
    assert len(str(m)) >= 209
    rc, out, _ = run(capsys, "oracle", str(j), str(e), "--j-max", str(j), "--format", "json")
    assert rc == 0
    assert int(json.loads(out)["modulus"]) == m
    rc, out, _ = run(capsys, "table", str(j), str(e), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert int(doc["modulus"]) == m
    want, a, b = [], 0, 1
    for _ in range(doc["period"]):
        want.append(pow(a, e, m))
        a, b = b, (a + b) % m
    assert [int(r) for r in doc["residues"]] == want


def test_oracle_plain_reports_divisors(capsys):
    rc, out, _ = run(capsys, "oracle", "6", "2")
    assert rc == 0
    assert "power_period=6" in out
    assert "d=6 holds" in out


def test_scan_plain(capsys):
    rc, out, _ = run(capsys, "scan", "4..8", "1..3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "j=4 e=1 closed=8 oracle=8 agree=yes"
    assert lines[-1] == "cells=15 disagreements=0"
    assert len(lines) == 16


def test_scan_json(capsys):
    rc, out, _ = run(capsys, "scan", "4..6", "1..2", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["disagreements"] == 0
    assert doc["cells"][0] == {"j": 4, "e": 1, "closed_form": 8, "oracle": 8, "agree": True}
    assert [(c["j"], c["e"]) for c in doc["cells"]] == [
        (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2),
    ]


def test_scan_single_point_range(capsys):
    rc, out, _ = run(capsys, "scan", "7", "2")
    assert rc == 0
    assert out == "j=7 e=2 closed=14 oracle=14 agree=yes\ncells=1 disagreements=0\n"


def test_scan_guard(capsys):
    rc, _, err = run(capsys, "scan", "4..26", "1..1")
    assert rc == 3
    assert "j_max=25" in err
    rc, out, _ = run(capsys, "scan", "25..26", "1..1", "--j-max", "26")
    assert rc == 0


def test_scan_cell_guard_rejects_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "minimal_period_bruteforce", _no_work)
    for e_range, e_count in (("1..200000", 200000), ("1..1000000000000", 1000000000000)):
        assert run(capsys, "scan", "3..3", e_range) == (
            3,
            "",
            f"resource guard: scan range has 1 x {e_count} cells, more than the limit of "
            f"{cli.SCAN_MAX_CELLS}; narrow the j or e range\n",
        )
    assert run(capsys, "scan", "3..12", "1..1001")[0] == 3


def test_scan_cell_guard_admits_its_limit(capsys, monkeypatch):
    # a stub oracle, so the 9980-cell grid costs nothing
    monkeypatch.setattr(
        cli,
        "minimal_period_bruteforce",
        lambda j, e, j_max: OracleTrace(0, 0, cli.period_closed_form(j, e).period, ()),
    )
    rc, out, _ = run(capsys, "scan", "3..1000", "1..10", "--j-max", "1000")
    assert (rc, out.splitlines()[-1]) == (0, "cells=9980 disagreements=0")
    rc, out, _ = run(capsys, "scan", "3..3", f"1..{cli.SCAN_MAX_CELLS}")
    assert (rc, out.splitlines()[-1]) == (0, f"cells={cli.SCAN_MAX_CELLS} disagreements=0")
    assert run(capsys, "scan", "3..3", f"1..{cli.SCAN_MAX_CELLS + 1}")[0] == 3


def _table_guard_message(period, digits):
    return (
        f"resource guard: table has {period} residues x {digits} digits, more than the "
        f"limit of {cli.TABLE_MAX_DIGITS} digits; choose a smaller j\n"
    )


def test_table_size_guard_rejects_before_any_work(capsys, monkeypatch):
    for name in _TABLE_BUILDERS:
        monkeypatch.setattr(cli, name, _no_work)
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        # with no digit limit, only this guard bounds the output
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)
        for command, period, digits in (
            ("table 8001 1 --format csv", 32004, 1672),
            ("table 8001 2 --annotate", 16002, 1672),
            ("table 20001 3 --format json", 80004, 4180),
            ("table 1000000 4", 1000000, 208988),
        ):
            assert run(capsys, *command.split()) == (3, "", _table_guard_message(period, digits))
    finally:
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(saved)


def test_table_size_guard_admits_its_limit(capsys, monkeypatch):
    # stub builders, so a table at the limit costs nothing
    def empty_table(*args):
        return SimpleNamespace(to_record=lambda: {"residues": []})

    monkeypatch.setattr(cli, "residues_general", empty_table)
    # 7996 x 418, the widest table up to j = 2000; 13828 x 1445, just under
    # the limit; 13832 x 1446, just over it
    assert run(capsys, "table", "1999", "1", "--format", "csv") == (0, "i,rho\n", "")
    assert run(capsys, "table", "6914", "1", "--format", "csv") == (0, "i,rho\n", "")
    assert run(capsys, "table", "6916", "1", "--format", "csv") == (
        3,
        "",
        _table_guard_message(13832, 1446),
    )


@pytest.mark.parametrize("e", [1, 2, 5])
def test_table_builds_one_table_whatever_the_exponent(capsys, monkeypatch, e):
    calls = []

    def counted(j, e):
        calls.append((j, e))
        return residues_general(j, e)

    monkeypatch.setattr(cli, "residues_general", counted)
    rc, out, err = run(capsys, "table", "9", str(e))
    assert (rc, err, calls) == (0, "", [(9, e)])
    assert out.startswith(f"# j=9 e={e} modulus=34 ")


_HUGE_J = 10**400


@pytest.mark.parametrize(
    "command",
    [f"oracle {_HUGE_J} 1", f"table {_HUGE_J} 1", f"period {_HUGE_J} 1 --verify"],
    ids=["oracle", "table", "period"],
)
def test_huge_j_trips_digit_guard(capsys, monkeypatch, digit_limit, command):
    # refused from the digit bound alone: neither F_j nor the answer is built
    for name in ("fib_exact", "minimal_period_bruteforce", *_TABLE_BUILDERS):
        monkeypatch.setattr(cli, name, _no_work)
    assert run(capsys, *command.split()) == (
        3,
        "",
        f"resource guard: F_{_HUGE_J} has more than 4300 decimal digits, "
        "the most this Python prints (sys.set_int_max_str_digits)\n",
    )


def test_huge_j_trips_table_guard_with_no_digit_limit(capsys, monkeypatch, digit_limit):
    for name in ("fib_exact", *_TABLE_BUILDERS):
        monkeypatch.setattr(cli, name, _no_work)
    sys.set_int_max_str_digits(0)  # no limit: only the table guard bounds the output
    assert run(capsys, "table", str(_HUGE_J), "1") == (
        3,
        "",
        _table_guard_message(2 * _HUGE_J, cli._fib_digit_bound(_HUGE_J)),
    )


@pytest.mark.parametrize(
    ("command", "message"),
    [
        ("oracle 30 0", "exponent must be at least 1, got 0"),
        (f"oracle {_HUGE_J} 0", "exponent must be at least 1, got 0"),
        (f"oracle {_HUGE_J} -2 --j-max {_HUGE_J}", "exponent must be at least 1, got -2"),
        (f"oracle 2 0 --j-max {_HUGE_J}", "the oracle needs j >= 3 (modulus at least 2), got j=2"),
        ("period 30 0 --verify", "exponent must be at least 1, got 0"),
        (f"period {_HUGE_J} 0 --verify", "exponent must be at least 1, got 0"),
    ],
    ids=["oracle-over-j-max", "oracle-huge-j", "oracle-huge-j-max", "oracle-small-j", "period", "period-huge-j"],
)
def test_bad_exponent_is_a_domain_error_before_any_guard(capsys, monkeypatch, command, message):
    # as `table` and `scan` do, the oracle refuses e < 1 with exit 1 whatever j is
    monkeypatch.setattr(cli, "fib_exact", _no_work)
    assert run(capsys, *command.split()) == (1, "", f"error: {message}\n")


_ORACLE_ROWS = {
    "scan": f"scan {_HUGE_J}..{_HUGE_J} 1..1 --j-max {_HUGE_J}",
    "oracle": f"oracle {_HUGE_J} 1 --j-max {_HUGE_J}",
    "period": f"period {_HUGE_J} 1 --verify --j-max {_HUGE_J}",
}


def _oracle_row_message(j, limit):
    return (
        f"resource guard: F_{j} has more than {limit} decimal digits, the widest modulus "
        "the oracle takes; raise PYTHONINTMAXSTRDIGITS to allow it\n"
    )


@pytest.mark.parametrize("command", list(_ORACLE_ROWS))
@pytest.mark.parametrize("max_str_digits", [4300, 0], ids=["limit", "no-limit"])
def test_huge_j_oracle_row_is_refused_before_any_work(
    capsys, monkeypatch, digit_limit, command, max_str_digits
):
    # --j-max admits the row; the digit bound alone refuses it
    for name in ("fib_exact", "minimal_period_bruteforce"):
        monkeypatch.setattr(cli, name, _no_work)
    sys.set_int_max_str_digits(max_str_digits)
    rc, out, err = run(capsys, *_ORACLE_ROWS[command].split())
    assert (rc, out) == (3, "")
    if max_str_digits and command != "scan":
        # the printing guard comes first where F_j would be printed
        assert err.startswith(f"resource guard: F_{_HUGE_J} has more than 4300 decimal digits, ")
    else:
        assert err == _oracle_row_message(_HUGE_J, 4300)


def test_oracle_row_guard_admits_every_printable_modulus(capsys, monkeypatch, digit_limit):
    # F_20577 has 4300 digits and a bound of 4301; F_20581 has 4301 digits
    # and the same bound, the first to exceed it is F_20582's, 4302
    monkeypatch.setattr(
        cli,
        "minimal_period_bruteforce",
        lambda j, e, j_max: OracleTrace(0, 0, cli.period_closed_form(j, e).period, ()),
    )
    for limit in (4300, 0):
        sys.set_int_max_str_digits(limit)
        assert run(capsys, "scan", "20577..20581", "1", "--j-max", "20581")[0] == 0
        assert run(capsys, "scan", "20582", "1", "--j-max", "20582") == (
            3,
            "",
            _oracle_row_message(20582, 4300),
        )
    sys.set_int_max_str_digits(0)
    assert run(capsys, "oracle", "20581", "1", "--j-max", "20581")[0] == 0
    assert run(capsys, "period", "20582", "1", "--verify", "--j-max", "20582") == (
        3,
        "",
        _oracle_row_message(20582, 4300),
    )


# sha256 of the stdout of the largest tables the benchmark builds, in each
# format: a change to any residue, its place or its rendering shows here
_TABLE_DIGESTS = {
    "table 1999 1": "40746cc2df9f68c569ff18d4007007a281f01bdea2f16cb23800675503596d32",
    "table 1999 1 --format json": "68ea834fe9d47836f99812d3759b40fccf0dbde267a0db2a5f3294e6b35ee391",
    "table 1999 1 --format csv": "71d54a3c3d318ecb70e3e59bfbb8ae98f49d335abf04cfafe9c67ea13dc7811a",
    "table 1999 3": "8109acda8d430a365cf728d34729a004a809dd5bcf508c8fecd7de2725cb938d",
    "table 1999 3 --format json": "88416979e7e4b5eb842a3b41c38e27b7974bbf95ef364d8654104755fec9c084",
    "table 1999 3 --format csv": "7dff9b3017edba1b475dcf78f1185cbf0938dbdaa51cad31d41a406b0ab912a3",
    "table 1999 4": "e7c1bfd9650bb9512b3aaeed39da6d34e4ad37678b45a910b3853df3775eba07",
    "table 1999 4 --format json": "a960344115423bd8e7300d94a7b3dbc1117b50f53bb71a4d79821d0c3e09018c",
    "table 1999 4 --format csv": "8716d0f3b5a4782732b2cc27880c2f524f662ff7e224883776f5fc1ce13605a4",
    "table 1999 8": "031895e2dc8f83541c4f891af4e4b751ca92b83e457ef5cbb67c78b6c94ae665",
    "table 1999 8 --format json": "689e8cd83b763666c91d529f789a9d23b73b31d734a5bb78df5d0462ac7bec19",
    "table 1999 8 --format csv": "7cfcd52c6b0d8b1fdf7c3d26be2d83e71e2f5ae852ef982200da30cb1af97d5b",
    "table 2000 1": "169fd64806857aeb8ae959392c52933523ac6fed9fa90af94d7e86eb237731d5",
    "table 2000 1 --format json": "5cf33db0b473241b8047ec2dcc126c84bd077b1251590df87811f18267541dad",
    "table 2000 1 --format csv": "ab2bad33619e2423f7b0f7b650fc27eca60e1e57ce5ff44c92964e26e4f8930c",
    "table 2000 3": "54e98d57fb303014d4bd1410f5e475b60ab858168f69bdbd331022524faaa221",
    "table 2000 3 --format json": "a458f66bfdcabd120c90cba62cca9ab9b24db2a4ea288d3d7e1c1444afb2650f",
    "table 2000 3 --format csv": "ae1d6e28ad5a7d9babf167dc96747c03fd100bec310e5b0825a5387584072a09",
    "table 2000 4": "b2379107d683c709f81fbb9a6f711b6148e50674bbc157e58c15251a8c873db0",
    "table 2000 4 --format json": "94e51c4d3b0662fc61781d9e1d5a55908b0c17bd94e1ddb4d48ac7766ecb74de",
    "table 2000 4 --format csv": "176b06998db5548fa44e2d40f5c3645adc056a7afb2eeada70e91fdcec784e51",
    "table 2000 8": "264d7319412fe080805e46c96a352d93dbe49e7d758c107f12ad66b8d38963f5",
    "table 2000 8 --format json": "7c115b99dbf287b805e2ed4c008f95ff1aa0877dee59e3ba6c6adc8bc1769f92",
    "table 2000 8 --format csv": "d8d3d327f2c51806e50166047f768ce63a7a1dbf0d8d05269b11ce7875df4aa7",
    "table 1999 1 --annotate": "594944ed2a2d23a31dbca971a73d4c24817156d948b373bea537354efc50dc63",
    "table 2000 1 --annotate --format json": "ed69bac0c72ea7418523c7be1f65585e59ce1150a3555ddff988e59dda08a967",
}


@pytest.mark.parametrize("command", list(_TABLE_DIGESTS))
def test_benchmark_sized_table_bytes(capsys, command):
    rc, out, err = run(capsys, *command.split())
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _TABLE_DIGESTS[command]


def test_scan_usage_errors(capsys):
    assert run(capsys, "scan", "2..8", "1..2")[0] == 1
    assert run(capsys, "scan", "4..8", "0..2")[0] == 1
    assert run(capsys, "scan", "4..3", "1..2")[0] == 1
    rc, _, err = run(capsys, "scan", "4-8", "1..2")
    assert rc == 1
    assert err == "error: range must look like 'a..b' or 'a', got '4-8'\n"
    rc, _, err = run(capsys, "scan", "4..8", "1..2", "--jobs", "2")
    assert rc == 1
    assert err == "error: unrecognized arguments: --jobs 2\n"


def test_verify_single_identity(capsys):
    rc, out, _ = run(capsys, "verify", "gcd")
    assert rc == 0
    assert out == "PASS gcd: cases=200 (200 sampled index pairs)\nfailures: 0\n"


def test_verify_all_json(capsys):
    rc, out, _ = run(capsys, "verify", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert [r["identity"] for r in doc["reports"]] == [
        "gcd",
        "addition",
        "catalan",
        "cassini",
        "square_lemma",
        "zero_positions",
        "zero_positions_j6_exclusion",
        "carmichael",
    ]
    assert all(r["verdict"] in ("all_pass", "not_applicable") for r in doc["reports"])


def test_verify_j6_evidence_line(capsys):
    # the j=6 exclusion evidence rides along with zero_positions
    rc, out, _ = run(capsys, "verify", "zero_positions")
    assert rc == 0
    assert out.splitlines()[1] == (
        "N/A  zero_positions_j6_exclusion: cases=31 (j = 6, e = 3, i <= 30)"
        " witness=(j=6, e=3, i=3) lhs=1 rhs=0"
    )


def test_verify_unknown_identity(capsys):
    rc, _, err = run(capsys, "verify", "bogus")
    assert rc == 1
    assert "unknown identity" in err


def test_subcommands_are_the_five_deterministic_ones(capsys):
    assert cli._PARSER.format_usage() == (
        "usage: powerfib [-h] {period,table,oracle,verify,scan} ...\n"
    )
    rc, out, err = run(capsys, "bench", "--modulus", "144")
    assert (rc, out) == (1, "")
    # one line; how argparse quotes the choices differs between versions
    assert err.startswith("error: argument command: invalid choice: 'bench' (choose from ")
    assert err.count("\n") == 1


def test_unknown_subcommand(capsys):
    assert run(capsys, "nope")[0] == 1
    assert run(capsys)[0] == 1


def test_disagreement_exit_code_period(capsys, monkeypatch):
    def wrong(j, e):
        return PeriodResult(j=j, e=e, period=999, case_label="ODD_ODD")

    monkeypatch.setattr(cli, "period_closed_form", wrong)
    rc, out, _ = run(capsys, "period", "7", "1", "--verify")
    assert rc == 2
    assert "agreement: NO" in out


def test_disagreement_exit_code_scan(capsys, monkeypatch):
    real = cli.period_closed_form

    def wrong_at_5_2(j, e):
        if (j, e) == (5, 2):
            return PeriodResult(j=j, e=e, period=999, case_label="ODD_E2MOD4")
        return real(j, e)

    monkeypatch.setattr(cli, "period_closed_form", wrong_at_5_2)
    rc, out, _ = run(capsys, "scan", "4..6", "1..2")
    assert rc == 2
    assert "j=5 e=2 closed=999 oracle=10 agree=NO" in out
    assert out.splitlines()[-1] == "cells=6 disagreements=1"


def test_verify_names_the_failing_part(capsys, monkeypatch):
    def failing():
        return VerificationReport(
            "square_lemma",
            "stub",
            1,
            COUNTEREXAMPLE,
            Counterexample({"k": 2, "alpha": 0}, 1, 1, "bound_even_index"),
        )

    monkeypatch.setattr(identities, "sweep_square_lemma", failing)
    rc, out, _ = run(capsys, "verify", "square_lemma")
    assert (rc, out) == (
        2,
        "FAIL square_lemma: cases=1 (stub) witness=(k=2, alpha=0) lhs=1 rhs=1"
        " part=bound_even_index\nfailures: 1\n",
    )


def test_disagreement_exit_code_verify(capsys, monkeypatch):
    def failing():
        return VerificationReport(
            identity_name="gcd",
            domain_description="stub",
            cases_checked=1,
            verdict=COUNTEREXAMPLE,
            counterexample=Counterexample(inputs={"n": 1, "m": 2}, lhs=3, rhs=4),
        )

    monkeypatch.setattr(identities, "sweep_gcd", failing)
    rc, out, _ = run(capsys, "verify", "gcd")
    assert rc == 2
    assert out.splitlines()[0].startswith("FAIL gcd:")
    assert out.splitlines()[-1] == "failures: 1"

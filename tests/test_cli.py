"""The command line, pinned request by request, in four tables of rows:
- REQUESTS: the exact exit code, stdout and stderr, each run twice, cold
  (the oracle's row cache cleared) and warm, to the same bytes;
- REFUSED: the exit code and the exact stderr line, with every work
  function stubbed to fail, so each request is refused before any work;
- ADMITTED: each guard's edge, on cheap stub builders;
- LONG: long arguments, each echoed on one short stderr line, exactly.
A row names its test, `name` or `name[case]` for a case of test_name, or a
tuple of tests where two tests pinned one request, and tests/rows.py builds
each test from every row that names it, from any table.
"""

import ast
import contextlib
import hashlib
import io
import json
import os
import re
import string
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powerfib
import powerfib.cli as cli
import powerfib.identities as identities
import powerfib.oracle as oracle
from powerfib.cli import main
from powerfib.errors import ResourceGuardError
from powerfib.fibcore import fib_exact, fib_prefix
from powerfib.identities import COUNTEREXAMPLE, Counterexample, VerificationReport
from powerfib.oracle import OracleTrace, minimal_period_bruteforce
from powerfib.periodicity import PeriodResult
from rows import define_tests


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture(autouse=True)
def _keep_digit_limit():
    saved = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(saved)


def _no_work(*args):
    raise AssertionError("work was done for a request that should be refused first")


def _fib_exact_at_the_edge(j):
    # the modulus rule builds F_j only where its digit bound is the limit plus one
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    return fib_exact(j) if cli._fib_digit_bound(j) == limit + 1 else _no_work()


def _oracle_refusing_its_domain(j, e):
    # the oracle itself refuses a j or e outside its domain, before any work
    return minimal_period_bruteforce(j, e) if j < 3 or e < 1 else _no_work()


# the functions that do a request's work, as `cli` names them
_WORK = ("fib_exact", "minimal_period_bruteforce", "residues_general", "case_breakdown")
_STUBS = {
    "fail": {
        **dict.fromkeys(_WORK, _no_work),
        "fib_exact": _fib_exact_at_the_edge,
        "minimal_period_bruteforce": _oracle_refusing_its_domain,
        "VERIFY_SUITE": dict.fromkeys(identities.VERIFY_SUITE, _no_work),
    },
    # an empty table, and a trace with the closed-form period and no checks
    "cheap": {
        "residues_general": lambda j, e: SimpleNamespace(to_record=lambda: {"residues": []}),
        "minimal_period_bruteforce": lambda j, e: OracleTrace(0, 0, cli.period_closed_form(j, e).period, ()),
    },
}


@pytest.fixture
def work(monkeypatch):
    """work(kind) undoes its last stubs, then stubs the work functions by
    _STUBS[kind]: "real" keeps them, and "log" logs their calls in the list
    it returns."""

    def stub(kind):
        monkeypatch.undo()
        calls = []
        for name, fake in _STUBS.get(kind, {}).items():
            monkeypatch.setattr(cli, name, fake)
        for name in _WORK if kind == "log" else ():
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, name=name, real=real: calls.append((name, *a)) or real(*a))
        return calls

    return stub


class Row(NamedTuple):
    test: str | tuple
    argv: str  # split at single spaces; in an argument, each name of _LONG stands for its text
    code: int
    out: str = ""  # in ADMITTED, the answer's last line, or all of it if it ends in a newline
    err: str | re.Pattern = ""  # a pattern where Python versions word argparse's line differently
    limits: tuple = (None,)  # the digit limits it runs under; None keeps the session's


# X: 5000 characters; N: 10**4299, whose 4300 digits int() still converts;
# E: 10**4300, one digit more; S and Q: 4999 and 5000 characters in runs of
# one, split by spaces or quotes; A and B: 140 and 141 characters of them
_LONG = {"X": "x" * 5000, "N": "1" + "0" * 4299, "E": "1" + "0" * 4300, "S": " ".join("x" * 2500),
         "Q": "x'" * 2500, "A": "x " * 70, "B": "x " * 70 + "x"}


def _run(capsys, row, limit):
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    argv = row.argv.split(" ") if row.argv else []
    return run(capsys, *(re.sub("[XNESQAB]", lambda name: _LONG[name[0]], arg) for arg in argv))


def _check_request(capsys, work, row):
    work("real")
    for limit in row.limits:
        oracle._row.cache_clear()
        assert (_run(capsys, row, limit), _run(capsys, row, limit)) == ((row.code, row.out, row.err),) * 2


def _check_refused(capsys, work, row):
    work("fail")
    for limit in row.limits:
        rc, out, err = _run(capsys, row, limit)
        assert (rc, out) == (row.code, "")
        assert err == row.err if isinstance(row.err, str) else row.err.fullmatch(err), err


def _check_admitted(capsys, work, row):
    work("cheap")
    for limit in row.limits:
        rc, out, err = _run(capsys, row, limit)
        assert (rc, err, out if row.out.endswith("\n") else out.splitlines()[-1]) == (0, "", row.out)


def _invalid_choice(argument: str, value: str, choices: str) -> re.Pattern:
    """argparse's line for a value outside `choices`, which it quotes or not by Python version."""
    head = re.escape(f"error: argument {argument}: invalid choice: {value} (choose from ")
    return re.compile(head + ", ".join(f"'?{choice}'?" for choice in choices.split()) + "\\)\n")


def _modulus_message(j):
    # past 50 characters, F_j is shown as its first 20, '...' and its length
    name = f"F_{j}"
    if len(name) > 50:
        name = f"{name[:20]}... ({len(name)} characters)"
    return (
        f"resource guard: {name} has more than 4300 decimal digits, the widest modulus "
        "powerfib takes; raise PYTHONINTMAXSTRDIGITS to allow it\n"
    )


def _table_guard_message(period, digits, factor=""):
    return (
        f"resource guard: table has {period} residues x {digits} digits{factor}, more than the "
        f"limit of {cli.TABLE_MAX_DIGITS} digits; choose a smaller j\n"
    )


def _scan_guard_message(cells):
    return (
        f"resource guard: scan range has {cells}, more than the limit of "
        f"{cli.SCAN_MAX_CELLS}; narrow the j or e range\n"
    )


_J_MAX_MESSAGE = "resource guard: j={} exceeds the oracle guard j_max={}\n"
_COMMANDS = "period table oracle verify scan"

# each subcommand that takes F_j as its modulus, J standing for j
_EDGE_ROWS = {"table": "table J 1", "oracle": "oracle J 1 --j-max J", "period": "period J 1 --verify --j-max J",
              "scan": "scan J..J 1 --j-max J"}

_ORACLE_9_5 = (
    '{"modulus": "34", "pisano": 36, "power_period": 36, "checked_divisors": ['
    '{"d": 1, "verdict": "fails", "witness_index": 0}, {"d": 2, "verdict": "fails", "witness_index": 0}, '
    '{"d": 3, "verdict": "fails", "witness_index": 0}, {"d": 4, "verdict": "fails", "witness_index": 0}, '
    '{"d": 6, "verdict": "fails", "witness_index": 0}, {"d": 9, "verdict": "fails", "witness_index": 1}, '
    '{"d": 12, "verdict": "fails", "witness_index": 0}, {"d": 18, "verdict": "fails", "witness_index": 1}, '
    '{"d": 36, "verdict": "holds"}]}'
)

_ZERO_POSITIONS_DOMAIN = "j in {4..20} minus 6, e in [1, 5], i <= 5*j"

_VERIFY_DEFAULT_PLAIN = (
    "PASS gcd: cases=200 (200 sampled index pairs)\nPASS addition: cases=6480 (n in [1, 80], m in [0, 80])\n"
    "PASS catalan: cases=3321 (0 <= r <= n <= 80)\nPASS cassini: cases=120 (n in [1, 120])\n"
    "PASS square_lemma: cases=493 (k in [2, 30], alpha in [0, k])\n"
    f"PASS zero_positions: cases=5030 ({_ZERO_POSITIONS_DOMAIN})\n"
    "N/A  zero_positions_j6_exclusion: cases=31 (j = 6, e = 3, i <= 30) witness=(j=6, e=3, i=3) lhs=1 rhs=0\n"
    "PASS carmichael: cases=38 (j in [3, 40], expected exceptions [6, 12])\nfailures: 0\n"
)

_VERIFY_DEFAULT_JSON = (
    '{"reports": ['
    '{"identity": "gcd", "domain": "200 sampled index pairs", "cases": 200, "verdict": "all_pass"}, '
    '{"identity": "addition", "domain": "n in [1, 80], m in [0, 80]", "cases": 6480, "verdict": "all_pass"}, '
    '{"identity": "catalan", "domain": "0 <= r <= n <= 80", "cases": 3321, "verdict": "all_pass"}, '
    '{"identity": "cassini", "domain": "n in [1, 120]", "cases": 120, "verdict": "all_pass"}, '
    '{"identity": "square_lemma", "domain": "k in [2, 30], alpha in [0, k]", "cases": 493, "verdict": "all_pass"}, '
    f'{{"identity": "zero_positions", "domain": "{_ZERO_POSITIONS_DOMAIN}", "cases": 5030, "verdict": "all_pass"}}, '
    '{"identity": "zero_positions_j6_exclusion", "domain": "j = 6, e = 3, i <= 30", "cases": 31, '
    '"verdict": "not_applicable", "counterexample": {"inputs": {"j": 6, "e": 3, "i": 3}, "lhs": "1", "rhs": "0"}}, '
    '{"identity": "carmichael", "domain": "j in [3, 40], expected exceptions [6, 12]", '
    '"cases": 38, "verdict": "all_pass"}], "failures": 0}\n'
)

# 4300 digits, the most Python prints by default; 14281 bits, so 224 words.
# E is odd, so each answer at j = 9 is the one at e = 1
_HUGE_E = 10**4299 + 1
_HUGE_J = 10**400
# j = 99...9 has 4300 digits and parses, while its period 4j has 4301; j =
# 22...2 is even, so its period 2j = 44...4 keeps 4300 digits
_WIDE_J, _WIDE_PERIOD = "2" * 4300, "4" * 4300

_ORACLE_9 = (
    "modulus=34 pisano=36 power_period=36\n"
    "d=1 fails witness=0\nd=2 fails witness=0\nd=3 fails witness=0\nd=4 fails witness=0\n"
    "d=6 fails witness=0\nd=9 fails witness=1\nd=12 fails witness=0\nd=18 fails witness=1\nd=36 holds\n"
)
_TABLE_9_RESIDUES = [0, 1, 1, 2, 3, 5, 8, 13, 21, 0, 21, 21, 8, 29, 3, 32, 1, 33]
_TABLE_9_RESIDUES += [0, 33, 33, 32, 31, 29, 26, 21, 13, 0, 13, 13, 26, 5, 31, 2, 33, 1]
# F_20577, the widest modulus at 4300 digits: 82308 = 2^2 * 3 * 19^3
_WIDEST_ORACLE = f"modulus={fib_exact(20577)} pisano=82308 power_period=82308\n" + "".join(
    f"d={d} fails witness={int(d in (20577, 41154))}\n"
    for d in (1, 2, 3, 4, 6, 12, 19, 38, 57, 76, 114, 228, 361, 722, 1083, 1444, 2166, 4332, 6859, 13718)
    + (20577, 27436, 41154)
) + "d=82308 holds\n"

# exact bytes of one invocation per subcommand and accepted format, then
# any other test that runs it
EXACT_OUTPUTS = [
    ("period 9 5", 0, "period(j=9, e=5) = 36  [ODD_ODD]\n"),
    ("period 9 5 --format json", 0, '{"j": 9, "e": 5, "outcome": 36, "case_label": "ODD_ODD"}\n'),
    ("period 9 5 --verify", 0, "period(j=9, e=5) = 36  [ODD_ODD]\noracle: pisano=36 power_period=36\nagreement: yes\n"),
    ("period 9 5 --verify --format json", 0,
     '{"closed_form": {"j": 9, "e": 5, "outcome": 36, "case_label": "ODD_ODD"}, '
     f'"oracle": {_ORACLE_9_5}, "agreement": true}}\n', "period_output_is_reproducible"),
    ("period 2 4 --verify", 0, "period(j=2, e=4) = 1  [J1_J2]\noracle skipped: modulus F_j is below 2 (base case)\n"),
    ("period 2 4 --verify --format json", 0,
     '{"closed_form": {"j": 2, "e": 4, "outcome": 1, "case_label": "J1_J2"}, "oracle": null, "agreement": null, '
     '"note": "oracle skipped: modulus F_j is below 2 (base case)"}\n', "period_verify_skips_oracle_below_domain"),
    ("table 3 2", 0, "table(j=3, e=2): modulus F_3 = 2: the residues repeat the block [0, 1, 1]; the period is 3\n"),
    ("table 3 2 --format json", 0,
     '{"j": 3, "e": 2, "base_case": "modulus F_3 = 2: the residues repeat the block [0, 1, 1]; the period is 3"}\n'),
    ("table 3 2 --format csv", 0, "i,rho\n0,0\n1,1\n2,1\n"),
    ("table 6 1 --annotate --format json", 0,
     '{"j": 6, "e": 1, "modulus": "8", "period": 12, '
     '"residues": ["0", "1", "1", "2", "3", "5", "0", "5", "5", "2", "7", "1"], '
     '"case_formulas": ["F[0]", "F[1]", "F[2]", "F[3]", "F[4]", "F[5]", "0", '
     '"F[5]", "Fj-F[4]", "F[3]", "Fj-F[2]", "F[1]"]}\n'),
    ("oracle 6 2", 0,
     "modulus=8 pisano=12 power_period=6\n"
     "d=1 fails witness=0\nd=2 fails witness=0\nd=3 fails witness=0\nd=4 fails witness=0\nd=6 holds\n"),
    ("oracle 6 2 --format json", 0,
     '{"modulus": "8", "pisano": 12, "power_period": 6, "checked_divisors": ['
     '{"d": 1, "verdict": "fails", "witness_index": 0}, {"d": 2, "verdict": "fails", "witness_index": 0}, '
     '{"d": 3, "verdict": "fails", "witness_index": 0}, {"d": 4, "verdict": "fails", "witness_index": 0}, '
     '{"d": 6, "verdict": "holds"}]}\n'),
    ("scan 4..6 1..2", 0,
     "j=4 e=1 closed=8 oracle=8 agree=yes\nj=4 e=2 closed=4 oracle=4 agree=yes\n"
     "j=5 e=1 closed=20 oracle=20 agree=yes\nj=5 e=2 closed=10 oracle=10 agree=yes\n"
     "j=6 e=1 closed=12 oracle=12 agree=yes\nj=6 e=2 closed=6 oracle=6 agree=yes\n"
     "cells=6 disagreements=0\n"),
    ("scan 4..6 1..2 --format json", 0,
     '{"cells": ['
     '{"j": 4, "e": 1, "closed_form": 8, "oracle": 8, "agree": true}, '
     '{"j": 4, "e": 2, "closed_form": 4, "oracle": 4, "agree": true}, '
     '{"j": 5, "e": 1, "closed_form": 20, "oracle": 20, "agree": true}, '
     '{"j": 5, "e": 2, "closed_form": 10, "oracle": 10, "agree": true}, '
     '{"j": 6, "e": 1, "closed_form": 12, "oracle": 12, "agree": true}, '
     '{"j": 6, "e": 2, "closed_form": 6, "oracle": 6, "agree": true}], '
     '"disagreements": 0}\n', "scan_json"),
    ("verify zero_positions", 0,
     f"PASS zero_positions: cases=5030 ({_ZERO_POSITIONS_DOMAIN})\n"
     "N/A  zero_positions_j6_exclusion: cases=31 (j = 6, e = 3, i <= 30) witness=(j=6, e=3, i=3) lhs=1 rhs=0\n"
     "failures: 0\n", "verify_j6_evidence_line"),
    ("verify zero_positions --format json", 0,
     '{"reports": [{"identity": "zero_positions", '
     f'"domain": "{_ZERO_POSITIONS_DOMAIN}", "cases": 5030, "verdict": "all_pass"}}, '
     '{"identity": "zero_positions_j6_exclusion", "domain": "j = 6, e = 3, i <= 30", '
     '"cases": 31, "verdict": "not_applicable", '
     '"counterexample": {"inputs": {"j": 6, "e": 3, "i": 3}, "lhs": "1", "rhs": "0"}}], "failures": 0}\n'),
    ("verify", 0, _VERIFY_DEFAULT_PLAIN),
    ("verify --format json", 0, _VERIFY_DEFAULT_JSON),
]

REQUESTS = [
    *(Row((f"exact_output[{argv}]", *also), argv, code, out) for argv, code, out, *also in EXACT_OUTPUTS),
    # the trace that `period 9 5 --verify` embeds, in each format
    Row("oracle_plain_reports_divisors", "oracle 9 5", 0, _ORACLE_9),
    Row("oracle_json_matches_library", "oracle 9 5 --format json", 0, f"{_ORACLE_9_5}\n"),
    Row("verify_all_json", "verify all --format json", 0, _VERIFY_DEFAULT_JSON),
    Row("period_plain", "period 7 1", 0, "period(j=7, e=1) = 28  [ODD_ODD]\n"),
    Row("period_not_periodic", "period 0 5", 0, "period(j=0, e=5) = not_periodic  [J0]\n"),
    Row("period_verified_plain", "period 7 1 --verify", 0,
        "period(j=7, e=1) = 28  [ODD_ODD]\noracle: pisano=28 power_period=28\nagreement: yes\n"),
    Row("period_json", "period 7 1 --format json", 0, '{"j": 7, "e": 1, "outcome": 28, "case_label": "ODD_ODD"}\n'),
    Row("period_rejects_bad_exponent", "period 7 0", 1, err="error: exponent must be at least 1, got 0\n"),
    Row("period_guard_is_adjustable", "period 26 1 --verify --j-max 30", 0,
        "period(j=26, e=1) = 52  [EVEN_ODD]\noracle: pisano=52 power_period=52\nagreement: yes\n"),
    Row("period_too_wide_to_print_trips_guard[plain]", f"period {_WIDE_J} 1 --format plain", 0,
        f"period(j={_WIDE_J}, e=1) = {_WIDE_PERIOD}  [EVEN_ODD]\n", limits=(4300,)),
    Row("period_too_wide_to_print_trips_guard[json]", f"period {_WIDE_J} 1 --format json", 0,
        f'{{"j": {_WIDE_J}, "e": 1, "outcome": {_WIDE_PERIOD}, "case_label": "EVEN_ODD"}}\n', limits=(4300,)),
    Row("table_plain", "table 6 2", 0, "# j=6 e=2 modulus=8 period=6\n0 0\n1 1\n2 1\n3 4\n4 1\n5 1\n"),
    Row("table_csv_exact_bytes", "table 6 2 --format csv", 0, "i,rho\n0,0\n1,1\n2,1\n3,4\n4,1\n5,1\n"),
    Row("table_json_round_trip", "table 6 2 --format json", 0,
        '{"j": 6, "e": 2, "modulus": "8", "period": 6, "residues": ["0", "1", "1", "4", "1", "1"]}\n'),
    Row("table_annotated", "table 6 2 --annotate", 0,
        "# j=6 e=2 modulus=8 period=6\n0 0 F[0]^2\n1 1 F[1]^2\n2 1 F[2]^2\n3 4 F[3]^2\n4 1 F[2]^2\n5 1 F[1]^2\n"),
    Row("table_annotated", "table 5 1 --annotate", 0,
        "# j=5 e=1 modulus=5 period=20\n0 0 F[0]\n1 1 F[1]\n2 1 F[2]\n3 2 F[3]\n4 3 F[4]\n"
        "5 0 0\n6 3 F[4]\n7 3 Fj-F[3]\n8 1 F[2]\n9 4 Fj-F[1]\n10 0 0\n11 4 Fj-F[1]\n12 4 Fj-F[2]\n13 3 Fj-F[3]\n"
        "14 2 Fj-F[4]\n15 0 0\n16 2 Fj-F[4]\n17 2 F[3]\n18 4 Fj-F[2]\n19 1 F[1]\n"),
    Row("table_annotate_needs_small_exponent", "table 6 3 --annotate", 1,
        err="error: --annotate needs e in {1, 2}; no per-entry closed form beyond\n"),
    # csv has no column for the labels
    Row("table_annotate_rejects_csv", "table 6 1 --annotate --format csv", 1,
        err="error: --annotate applies to plain and json tables, not csv\n"),
    *(
        Row(f"table_domain_errors[{argv}-{message}]", argv, 1, err=f"error: {message}\n")
        for argv, message in (
            ("table -1 1", "j must be nonnegative, got -1"),
            ("table 5 0", "exponent must be at least 1, got 0"),
            ("table 3 1 --annotate", "--annotate applies to closed-form tables (j >= 4)"),
        )
    ),
    Row("table_base_cases", "table 2 1", 0, "table(j=2, e=1): modulus F_2 = 1: every residue is 0; the period is 1\n"),
    Row("table_base_cases", "table 3 1 --format csv", 0, "i,rho\n0,0\n1,1\n2,1\n"),
    Row("table_general_exponent", "table 6 3", 0,
        "# j=6 e=3 modulus=8 period=12\n0 0\n1 1\n2 1\n3 0\n4 3\n5 5\n6 0\n7 5\n8 5\n9 0\n10 7\n11 1\n"),
    Row(("widest_printable_modulus_runs", "modulus_rule_at_its_edge[oracle-limit]"), "oracle 20577 1 --j-max 20577", 0,
        _WIDEST_ORACLE, limits=(4300,)),
    *(
        Row(f"every_subcommand_takes_a_4300_digit_exponent[{case}]", argv, 0, out)
        for case, argv, out in (
            ("period", f"period 9 {_HUGE_E}", f"period(j=9, e={_HUGE_E}) = 36  [ODD_ODD]\n"),
            ("period-verify", f"period 9 {_HUGE_E} --verify",
             f"period(j=9, e={_HUGE_E}) = 36  [ODD_ODD]\noracle: pisano=36 power_period=36\nagreement: yes\n"),
            ("oracle", f"oracle 9 {_HUGE_E}", _ORACLE_9),
            ("table", f"table 9 {_HUGE_E}", f"# j=9 e={_HUGE_E} modulus=34 period=36\n"
             + "".join(f"{i} {r}\n" for i, r in enumerate(_TABLE_9_RESIDUES))),
            ("scan", f"scan 4..6 {_HUGE_E}..{_HUGE_E}", "".join(
                f"j={j} e={_HUGE_E} closed={p} oracle={p} agree=yes\n" for j, p in ((4, 8), (5, 20), (6, 12))
            ) + "cells=3 disagreements=0\n"),
        )
    ),
    Row("scan_plain", "scan 4..8 1..3", 0, "".join(
        f"j={j} e={e} closed={p} oracle={p} agree=yes\n"
        for j, periods in ((4, (8, 4, 8)), (5, (20, 10, 20)), (6, (12, 6, 12)), (7, (28, 14, 28)), (8, (16, 8, 16)))
        for e, p in enumerate(periods, start=1)
    ) + "cells=15 disagreements=0\n"),
    Row("scan_single_point_range", "scan 7 2", 0, "j=7 e=2 closed=14 oracle=14 agree=yes\ncells=1 disagreements=0\n"),
    Row("scan_guard", "scan 25..26 1..1 --j-max 26", 0,
        "j=25 e=1 closed=100 oracle=100 agree=yes\nj=26 e=1 closed=52 oracle=52 agree=yes\ncells=2 disagreements=0\n"),
    *(
        Row("scan_usage_errors", argv, 1, err=f"error: {message}\n")
        for argv, message in (
            ("scan 2..8 1..2", "scan needs j >= 3 (the oracle's domain), got 2"),
            ("scan 4..8 0..2", "scan needs e >= 1, got 0"),
            ("scan 4..3 1..2", "empty range '4..3'"),
            ("scan 4-8 1..2", "range must look like 'a..b' or 'a', got '4-8'"),
            ("scan 4..8 1..2 --jobs 2", "unrecognized arguments: --jobs 2"),
        )
    ),
    Row("verify_single_identity", "verify gcd", 0, "PASS gcd: cases=200 (200 sampled index pairs)\nfailures: 0\n"),
    Row("verify_unknown_identity", "verify bogus", 1, err="error: unknown identity 'bogus'; choose from gcd, "
        "addition, catalan, cassini, square_lemma, zero_positions, carmichael, all\n"),
    # argparse joins unrecognized arguments raw; the line shows them as repr does
    Row("stderr_escapes_control_characters", "period 9 5 a\nb", 1, err="error: unrecognized arguments: a\\nb\n"),
]

_BOTH = (4300, 0)

REFUSED = [
    Row("period_guard_exit", "period 26 1 --verify", 3, err=_J_MAX_MESSAGE.format(26, 25)),
    *(
        Row(f"table_csv_usage_errors_come_before_any_work[{argv}-{message}]", argv, 1, err=f"error: {message}\n")
        for argv, message in (
            ("table 2000 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
            ("table 2000 2 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
            ("table 0 1 --format csv", "j = 0 has no finite residue table; use plain or json"),
            # before the domain checks too, and --annotate before j = 0
            ("table -1 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
            ("table 0 0 --format csv", "j = 0 has no finite residue table; use plain or json"),
            ("table 0 1 --annotate --format csv", "--annotate applies to plain and json tables, not csv"),
        )
    ),
    # F_20578 has 4301 digits; each request, then any other test that runs it
    *(
        Row((f"modulus_too_wide_to_print_trips_guard[{argv}]", *also), argv, 3, err=_modulus_message(20578),
            limits=(4300,))
        for argv, *also in (
            ("table 20578 1",),
            ("oracle 20578 1 --j-max 20578", "modulus_rule_at_its_edge[oracle-limit]"),
            ("period 20578 1 --verify --j-max 20578 --format json",),
        )
    ),
    *(
        Row(f"period_too_wide_to_print_trips_guard[{fmt}]", f"period {'9' * 4300} 1 --format {fmt}", 3,
            err="resource guard: the period has more than 4300 decimal digits, "
            "the most this Python prints (sys.set_int_max_str_digits)\n", limits=(4300,))
        for fmt in ("plain", "json")
    ),
    Row("scan_guard", "scan 4..26 1..1", 3, err=_J_MAX_MESSAGE.format(26, 25)),
    *(
        Row(test, argv, 3, err=_scan_guard_message(cells))
        for test, argv, cells in (
            ("scan_cell_guard_rejects_before_any_work", "scan 3..3 1..200000", "1 x 200000 cells"),
            ("scan_cell_guard_rejects_before_any_work", "scan 3..3 1..1000000000000", "1 x 1000000000000 cells"),
            ("scan_cell_guard_rejects_before_any_work", "scan 3..12 1..1001", "10 x 1001 cells"),
            ("scan_cell_guard_admits_its_limit", "scan 3..3 1..10001", "1 x 10001 cells"),
            # each power squares once per bit of e, so the table and scan
            # estimates scale with e's 64-bit words, named from two on
            ("every_subcommand_takes_a_4300_digit_exponent[scan-guard]",
             f"scan 3..100 {_HUGE_E - 1}..{_HUGE_E + 8} --j-max 100", "98 x 10 cells x 224 64-bit words of e"),
            ("size_guards_count_the_exponent_words", f"scan 3..3 {2**64 - 5000}..{2**64} --j-max 100",
             "1 x 5001 cells x 2 64-bit words of e"),
        )
    ),
    *(
        Row(test, f"table {j} {e}", 3, err=_table_guard_message(period, digits, f" x {words} 64-bit words of e"))
        for test, j, e, period, digits, words in (
            ("every_subcommand_takes_a_4300_digit_exponent[table-guard]", 2000, _HUGE_E, 4000, 418, 224),
            ("size_guards_count_the_exponent_words", 2000, 2**1024 - 1, 4000, 418, 16),
            ("size_guards_count_the_exponent_words", 5000, 2**64 + 1, 10000, 1045, 2),
        )
    ),
    # with no digit limit too, this guard bounds every table whose modulus is
    # admitted, up to the widest, F_20577; 13832 x 1446 is just over the limit
    *(
        Row(test, argv, 3, err=_table_guard_message(period, digits), limits=limits)
        for test, argv, period, digits, limits in (
            ("table_size_guard_rejects_before_any_work", "table 8001 1 --format csv", 32004, 1672, (0,)),
            ("table_size_guard_rejects_before_any_work", "table 8001 2 --annotate", 16002, 1672, (0,)),
            ("table_size_guard_rejects_before_any_work", "table 20001 3 --format json", 80004, 4180, (0,)),
            ("table_size_guard_rejects_before_any_work", "table 20577 4", 20577, 4301, (0,)),
            ("table_size_guard_admits_its_limit", "table 6916 1 --format csv", 13832, 1446, (None,)),
            # admitted by the modulus rule, F_20577's 82308 residues trip this guard
            ("modulus_rule_at_its_edge[table-limit]", "table 20577 1", 82308, 4301, (4300,)),
            ("modulus_rule_at_its_edge[table-no-limit]", "table 20577 1", 82308, 4301, (0,)),
        )
    ),
    # as `table` and `scan` do, the oracle refuses e < 1 with exit 1 whatever
    # j is, by its own domain check, before any guard or work
    *(
        Row(f"bad_exponent_is_a_domain_error_before_any_guard[{case}]", argv, 1, err=f"error: {message}\n")
        for case, argv, message in (
            ("oracle-over-j-max", "oracle 30 0", "exponent must be at least 1, got 0"),
            ("oracle-huge-j", f"oracle {_HUGE_J} 0", "exponent must be at least 1, got 0"),
            ("oracle-huge-j-max", f"oracle {_HUGE_J} -2 --j-max {_HUGE_J}", "exponent must be at least 1, got -2"),
            ("oracle-small-j", f"oracle 2 0 --j-max {_HUGE_J}", "j must be at least 3, got 2"),
            ("period", "period 30 0 --verify", "exponent must be at least 1, got 0"),
            ("period-huge-j", f"period {_HUGE_J} 0 --verify", "exponent must be at least 1, got 0"),
        )
    ),
    # refused from the digit bound alone: neither F_j nor the answer is
    # built, and with no limit on printing, Python's default one applies
    *(
        Row(f"huge_j_trips_digit_guard[{argv.split()[0]}]", argv, 3, err=_modulus_message(_HUGE_J), limits=_BOTH)
        for argv in (f"oracle {_HUGE_J} 1", f"table {_HUGE_J} 1", f"period {_HUGE_J} 1 --verify")
    ),
    # --j-max admits the row; the digit bound alone refuses it
    *(
        Row(f"huge_j_oracle_row_is_refused_before_any_work[{case}-{argv.split()[0]}]", argv, 3,
            err=_modulus_message(_HUGE_J), limits=(limit,))
        for case, limit in (("limit", 4300), ("no-limit", 0))
        for argv in (f"scan {_HUGE_J}..{_HUGE_J} 1..1 --j-max {_HUGE_J}", f"oracle {_HUGE_J} 1 --j-max {_HUGE_J}",
                     f"period {_HUGE_J} 1 --verify --j-max {_HUGE_J}")
    ),
    # at the default --j-max, a huge j is refused by its modulus, in scan too
    Row("j_max_is_checked_after_the_modulus", "scan 30000..30000 1..1", 3, err=_modulus_message(30000), limits=_BOTH),
    *(
        Row("j_max_is_checked_after_the_modulus", argv, 3, err=_J_MAX_MESSAGE.format(30, 25), limits=_BOTH)
        for argv in ("oracle 30 1", "period 30 1 --verify", "scan 3..30 1..1")
    ),
    # F_20577 has 4300 digits and F_20578 has 4301, while the digit bound of
    # each is 4301: only the exact F_j tells them apart, whatever the limit
    *(
        Row(f"modulus_rule_at_its_edge[{name}-{case}]", _EDGE_ROWS[name].replace("J", "20578"), 3,
            err=_modulus_message(20578), limits=(limit,))
        for case, limit, names in (("limit", 4300, ("period", "scan")), ("no-limit", 0, _EDGE_ROWS))
        for name in names
    ),
    # every oracle row has j >= 3, so a smaller --j-max is a bad option value
    # wherever it is taken, --verify or not
    *(
        Row("j_max_below_3_is_a_usage_error", argv, 1, err=f"error: --j-max must be at least 3, got {j_max}\n")
        for argv, j_max in (
            ("oracle 5 1 --j-max -3", -3),
            ("period 5 1 --j-max -3", -3),
            ("period 5 1 --verify --j-max 0", 0),
            ("scan 3..5 1..2 --j-max 2", 2),
        )
    ),
    *(
        Row(f"j_max_is_refused_where_no_oracle_runs[{argv}]", argv, 1, err="error: unrecognized arguments: --j-max 3\n")
        for argv in ("table 5 1 --j-max 3", "verify gcd --j-max 3")
    ),
    *(
        Row((f"csv_is_refused_outside_table_before_any_work[{argv}]", *also), f"{argv} --format csv", 1,
            err=_invalid_choice("--format", "'csv'", "plain json"))
        for argv, *also in (("period 7 1", "period_rejects_csv"), ("oracle 6 2",), ("verify gcd",), ("scan 4..8 1..2",))
    ),
    Row("subcommands_are_the_five_deterministic_ones", "bench --modulus 144", 1,
        err=_invalid_choice("command", "'bench'", _COMMANDS)),
    Row("unknown_subcommand", "nope", 1, err=_invalid_choice("command", "'nope'", _COMMANDS)),
    Row("unknown_subcommand", "", 1, err="error: the following arguments are required: command\n"),
]

ADMITTED = [
    # 9980 cells, then 10000 x 1 at the limit
    Row("scan_cell_guard_admits_its_limit", "scan 3..1000 1..10 --j-max 1000", 0, "cells=9980 disagreements=0"),
    Row("scan_cell_guard_admits_its_limit", "scan 3..3 1..10000", 0, "cells=10000 disagreements=0"),
    # 7996 x 418, the widest table up to j = 2000; 13828 x 1445, just under the limit
    Row("table_size_guard_admits_its_limit", "table 1999 1 --format csv", 0, "i,rho\n"),
    Row("table_size_guard_admits_its_limit", "table 6914 1 --format csv", 0, "i,rho\n"),
    # one word up to 2^64 - 1, so 10000 x 1045 passes there and fails at
    # 2^64 + 1; 4000 x 418 x 4 and 800 x 84 x 224 stay under the limit
    *(
        Row("size_guards_admit_one_word_exponents_and_wide_small_tables", argv, 0, line)
        for argv, line in (
            (f"table 5000 {2**64 - 1} --format csv", "i,rho\n"),
            (f"table 2000 {2**256 - 1} --format csv", "i,rho\n"),
            (f"table 400 {_HUGE_E} --format csv", "i,rho\n"),
            (f"scan 3..3 {2**64 - 5000}..{2**64 - 1}", "cells=5000 disagreements=0"),
        )
    ),
    Row("j_max_below_3_is_a_usage_error", "oracle 3 1 --j-max 3", 0, "modulus=0 pisano=0 power_period=3"),
    # the real oracle answers `oracle 20577 1` at 4300 digits, in REQUESTS
    *(
        Row(f"modulus_rule_at_its_edge[{name}-{case}]", _EDGE_ROWS[name].replace("J", "20577"), 0, line, limits=(limit,))
        for case, limit in (("limit", 4300), ("no-limit", 0))
        for name, line in (
            ("oracle", "modulus=0 pisano=0 power_period=82308"),
            ("period", "agreement: yes"),
            ("scan", "cells=1 disagreements=0"),
        )
        if (name, case) != ("oracle", "limit")
    ),
]

# run, as REFUSED, at Python's default limit, where E is too long for int()
LONG = [
    # 4301 digits, one more than int() converts by default
    *(
        Row(f"too_long_integers_are_echoed_in_short[{argv}]", argv, 1, err=f"error: {message}\n")
        for argv, message in (
            ("period 9 E", "argument e: invalid int value: '10000000000000000000...' (4301 characters)"),
            ("table E 1", "argument j: invalid int value: '10000000000000000000...' (4301 characters)"),
            ("oracle 9 E", "argument e: invalid int value: '10000000000000000000...' (4301 characters)"),
            ("scan 4..5 1..E", "range must look like 'a..b' or 'a', got '1..10000000000000000...' (4304 characters)"),
            ("scan E..E 1", "range must look like 'a..b' or 'a', got '10000000000000000000...' (8604 characters)"),
            ("oracle 9 1 --j-max E", "argument --j-max: invalid int value: '10000000000000000000...' (4301 characters)"),
        )
    ),
    # argparse's errors, the library's domain errors and the guard lines alike;
    # a line of runs of one character is cut to its first 150, '...' and its length
    *(
        Row(f"every_failure_shortens_a_long_run[{argv}-{code}]", argv, code, err=err)
        for argv, code, err in (
            ("X", 1, _invalid_choice("command", "'xxxxxxxxxxxxxxxxxxxx...' (5000 characters)", _COMMANDS)),
            ("period 9 5 X", 1, "error: unrecognized arguments: xxxxxxxxxxxxxxxxxxxx... (5000 characters)\n"),
            ("verify X", 1, "error: unknown identity 'xxxxxxxxxxxxxxxxxxxx...' (5000 characters); choose from gcd, "
             "addition, catalan, cassini, square_lemma, zero_positions, carmichael, all\n"),
            ("table 10 --format X 1", 1,
             _invalid_choice("--format", "'xxxxxxxxxxxxxxxxxxxx...' (5000 characters)", "plain json csv")),
            ("period -N 1", 1, "error: j must be nonnegative, got -1000000000000000000... (4301 characters)\n"),
            ("oracle N 1", 3, _modulus_message(10**4299)),
            ("scan 4..5 X", 1, "error: range must look like 'a..b' or 'a', got 'xxxxxxxxxxxxxxxxxxxx...' (5000 characters)\n"),
            ("period 9 NN", 1, "error: argument e: invalid int value: '10000000000000000000...' (8600 characters)\n"),
            ("period 9 S", 1, "error: argument e: invalid int value: '" + "x " * 55 + "x... (5039 characters)\n"),
            ("period 9 Q", 1, "error: argument e: invalid int value: \"x'x'x'x'x'x'x'x'x'x'...\" (5000 characters)\n"),
            ("scan 4..S 1", 1, "error: range must look like 'a..b' or 'a', got '4.." + "x " * 49 + "x... (5051 characters)\n"),
        )
    ),
    Row("every_failure_shortens_a_long_run[period 9 5 x*2500-1]", "period 9 5" + " x" * 2500, 1,
        err="error: unrecognized arguments: " + "x " * 59 + "x... (5030 characters)\n"),
    # a run of 50 characters is echoed whole, one of 51 cut
    *(
        Row("usage_errors_echo_50_characters_whole", argv, 1, err=f"error: {message}\n")
        for argv, message in (
            ("period 9 x", "argument e: invalid int value: 'x'"),
            (f"table {'x' * 50} 1", f"argument j: invalid int value: '{'x' * 50}'"),
            (f"table {'x' * 51} 1", "argument j: invalid int value: 'xxxxxxxxxxxxxxxxxxxx...' (51 characters)"),
            (f"scan 4..{'x' * 50} 1", "range must look like 'a..b' or 'a', got '4..xxxxxxxxxxxxxxxxx...' (53 characters)"),
        )
    ),
    # a run opening with a quote of the other kind keeps both quotes; a line of
    # runs of one character is kept whole to 180 characters
    *(
        Row("a_long_line_is_cut_to_its_head_and_length", argv, 1, err=f"error: argument e: invalid int value: {shown}\n")
        for argv, shown in (
            ("period 9 '" + "x" * 60, "\"'xxxxxxxxxxxxxxxxxxx...\" (61 characters)"),
            ("period 9 A", "'" + "x " * 70 + "'"),
            ("period 9 B", "'" + "x " * 55 + "x... (181 characters)"),
        )
    ),
]
LONG = [row._replace(limits=(4300,)) for row in LONG]

globals().update(
    define_tests(
        [(_check_request, REQUESTS), (_check_refused, REFUSED), (_check_admitted, ADMITTED), (_check_refused, LONG)],
        fixtures=("capsys", "work"),
    )
)


def test_every_message_cli_raises_has_a_row():
    # the longest literal part of each message, against every expected line
    messages = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            if getattr(node.exc.func, "id", None) in ("ResourceGuardError", "_UsageError"):
                text = node.exc.args[0]
                if isinstance(text, ast.Name):
                    continue  # _Parser.error passes argparse's message on
                parts = text.values if isinstance(text, ast.JoinedStr) else [text]
                messages.append(max((p.value for p in parts if isinstance(p, ast.Constant)), key=len))
    assert len(messages) == 15  # so a walk that finds none cannot pass
    lines = [row.err for row in REQUESTS + REFUSED + LONG if isinstance(row.err, str)]
    assert [m for m in messages if not any(m in line for line in lines)] == []


def test_table_size_guard_admits_exactly_its_limit(capsys, work, monkeypatch):
    # no request under a million-digit e lands on the limit itself, so the
    # limit moves to the 7996 x 418 digits of `table 1999 1`
    work("cheap")
    monkeypatch.setattr(cli, "TABLE_MAX_DIGITS", 7996 * 418)
    assert run(capsys, "table", "1999", "1", "--format", "csv") == (0, "i,rho\n", "")
    assert run(capsys, "table", "2001", "1", "--format", "csv") == (3, "", _table_guard_message(8004, 418))


@pytest.mark.parametrize("e", [1, 2, 5])
def test_table_builds_one_table_whatever_the_exponent(capsys, work, e):
    calls = work("log")
    rc, out, err = run(capsys, "table", "9", str(e))
    assert (rc, err, calls) == (0, "", [("residues_general", 9, e)])
    assert out.startswith(f"# j=9 e={e} modulus=34 ")


def test_digit_guard_is_exact_near_the_limit():
    sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
    for j, f in enumerate(fib_prefix(3100)):
        if f >= 10**640:
            with pytest.raises(ResourceGuardError):
                cli._require_printable_modulus(j)
        else:
            cli._require_printable_modulus(j)
    sys.set_int_max_str_digits(0)  # no limit: Python's default one applies
    with pytest.raises(ResourceGuardError):
        cli._require_printable_modulus(10**6)


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


# csv only where a residue table is printed, --j-max only where the oracle runs
_OPTIONS = {
    "period": ("{plain,json}", {"--j-max", "--verify"}),
    "table": ("{plain,json,csv}", {"--annotate"}),
    "oracle": ("{plain,json}", {"--j-max"}),
    "verify": ("{plain,json}", set()),
    "scan": ("{plain,json}", {"--j-max"}),
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_each_subcommand_lists_exactly_its_options(capsys, command):
    formats, options = _OPTIONS[command]
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == {"--help", "--format", *options}
    assert set(re.findall(r"--format (\{.*?\})", text)) == {formats}


@st.composite
def _requests(draw) -> list[str]:
    """A subcommand with small j, e and ranges (j <= 30, e <= 6), then any
    subset of --format, --j-max, --verify and --annotate in any order, and
    maybe one 5000-character token at any position, one to three letters,
    digits, spaces, tabs, newlines or quotes repeated."""
    command = draw(st.sampled_from(list(_OPTIONS)))
    j, e = st.integers(-2, 30), st.integers(-1, 6)
    if command == "scan":
        argv = ["{}..{}".format(*sorted(draw(st.tuples(r, r)))) for r in (j, e)]
    elif command == "verify":
        argv = draw(st.lists(st.sampled_from([*identities.VERIFY_SUITE, "all", "bogus"]), max_size=2))
    else:
        argv = [str(draw(j)), str(draw(e))]
    options = [
        ("--format", draw(st.sampled_from(["plain", "json", "csv"]))),
        ("--j-max", str(draw(st.integers(0, 30)))),
        ("--verify",),
        ("--annotate",),
    ]
    for option in draw(st.lists(st.sampled_from(options), unique=True)):
        argv += option
    argv = [command, *argv]
    chars = string.ascii_letters + string.digits + " \t\n'\""
    unit = draw(st.none() | st.text(chars, min_size=1, max_size=3))
    if unit is not None:
        argv.insert(draw(st.integers(0, len(argv))), (unit * 5000)[:5000])
    return argv


@settings(max_examples=200, deadline=None)
@given(_requests())
@example(["period", "9", "5", "x\n" * 2500])  # argparse echoes an unrecognized argument raw
def test_any_request_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in out + err, argv
    # the closed forms agree with the oracle and every identity holds on this
    # small domain, so no request ends in a disagreement (2)
    assert rc in (0, 1, 3), (argv, rc, out, err)
    if rc:
        assert out == "", argv
        assert err.startswith(("error: ", "resource guard: ")), argv
        assert err.count("\n") == 1 and err.endswith("\n"), argv
        assert len(err) < 200, argv
    else:
        assert err == "", argv


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

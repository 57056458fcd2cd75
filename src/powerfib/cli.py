"""Command line surface.

Subcommands: period, table, oracle, verify, scan.  Exit codes: 0 success
or agreement, 1 usage, 2 mathematical disagreement, 3 resource guard.
Output is deterministic byte for byte for identical invocations, as the
request tables of tests/test_cli.py pin, stderr lines included.  A reader
that closes stdout early (`powerfib table 500 3 | head -1`) ends the run
quietly with exit code 0: the output it took is complete.

Each `cmd_*` function does the work and returns `(exit_code, record)`,
where the record is the JSON document of its answer, built from the
library's `to_record()` methods, so big integers are already decimal
strings.  Only `main` renders, by `--format` (`cmd_table` reads it only
for csv's usage errors): json prints the record as one line, plain and csv
pass it to the subcommand's renderer in `_RENDERERS`, which returns the
output lines.  Either way `main` writes the whole text
with a single `sys.stdout.write`; a failure writes nothing to stdout and
one line to stderr, where a character that does not print shows as repr
shows it (`\\n`, `\\t`, `\\x1b`), any run of more than 50 characters
without whitespace or quote as its first 20 and its length, and a line
still past 180 characters as its first 150 and its length.  The resource
guard trips before any work, whatever the size of j, on a modulus F_j
wider than Python prints
(`sys.get_int_max_str_digits()`, or its default where printing has no
limit), then on an oracle row past `--j-max`, a `period` answer too wide
to print, a `scan` over more than `SCAN_MAX_CELLS` (j, e) cells or a
`table` estimated at more than `TABLE_MAX_DIGITS` digits, each estimate
times the 64-bit words of its largest exponent, since a power squares
once per bit.
"""

import argparse
import os
import re
import sys

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from .fibcore import fib_exact
from .identities import ALL_PASS, NOT_APPLICABLE, VERIFY_SUITE
from .oracle import OracleTrace, minimal_period_bruteforce
from .periodicity import period_closed_form
from .residue_tables import case_breakdown, residues_general

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_GUARD = 3

# --j-max's default: the largest j of an oracle row
J_MAX = 25
# the most (j, e) cells one scan checks, times the 64-bit words of its
# largest e; admits `scan 3..1000 1..10` (9980)
SCAN_MAX_CELLS = 10_000
# the most residue digits one table holds, estimated as its period times the
# digits of F_j, times the 64-bit words of e; admits every table up to
# j = 2000 at e < 2^64 (at most 7996 x 418)
TABLE_MAX_DIGITS = 2 * 10**7

# log10(phi) = 0.208987640249978733769..., times 10^20 and rounded up
_DIGITS_PER_INDEX = 20898764024997873377


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; this CLI reserves 2 for
    # mathematical disagreement, so usage problems become exceptions
    def error(self, message):
        raise _UsageError(message)


class _OracleGuard(argparse.Action):
    # every oracle row has j >= 3, so a smaller --j-max would refuse them all
    def __call__(self, parser, namespace, j_max, option_string=None):
        if j_max < 3:
            raise _UsageError(f"--j-max must be at least 3, got {j_max}")
        setattr(namespace, self.dest, j_max)


def _parse_range(text: str) -> tuple[int, int]:
    """'4..22' as (4, 22); a bare '4' as (4, 4)."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise _UsageError(f"range must look like 'a..b' or 'a', got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


def _fib_digit_bound(j: int) -> int:
    """The decimal digits of F_j (j >= 1) or, for j below 10^20, one more:
    phi^(j-2) <= F_j <= phi^(j-1), and log10 phi is rounded up by < 10^-21.
    """
    return (j - 1) * _DIGITS_PER_INDEX // 10**20 + 1


def _exponent_words(e: int) -> tuple[int, str]:
    """The 64-bit words of e >= 1, a factor of the table and scan estimates,
    and the factor as a guard message names it: not at all below 2^64."""
    words = -(-e.bit_length() // 64)
    return words, f" x {words} 64-bit words of e" if words > 1 else ""


def _require_printable_modulus(j: int) -> None:
    """Raise ResourceGuardError if F_j has more decimal digits than Python
    prints, or than its default limit where printing has none: the widest
    modulus any subcommand takes.  Only a digit bound of limit + 1 needs the
    exact F_j, so a j of any size is refused without computing F_j.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    digits = _fib_digit_bound(j)
    if digits > limit + 1 or (digits == limit + 1 and fib_exact(j) >= 10**limit):
        raise ResourceGuardError(
            f"F_{j} has more than {limit} decimal digits, the widest modulus "
            "powerfib takes; raise PYTHONINTMAXSTRDIGITS to allow it"
        )


def _require_oracle_row(j: int, j_max: int) -> None:
    """Raise ResourceGuardError unless the modulus F_j is admitted and j is
    at most --j-max, checked in that order."""
    _require_printable_modulus(j)
    if j > j_max:
        raise ResourceGuardError(f"j={j} exceeds the oracle guard j_max={j_max}")


def _oracle_trace(args) -> OracleTrace:
    """The oracle's trace once its row is admitted; a j or e outside the
    oracle's domain skips the guards for its domain error."""
    if args.j >= 3 and args.e >= 1:
        _require_oracle_row(args.j, args.j_max)
    return minimal_period_bruteforce(args.j, args.e)


# ------------------------------------------------------------------- period


def cmd_period(args) -> tuple[int, dict]:
    result = period_closed_form(args.j, args.e)
    closed = result.to_record()
    if not args.verify:
        # a period of 4j may be one digit wider than j; under --verify F_j
        # must be admitted, so j and its period are far narrower than the limit
        limit = sys.get_int_max_str_digits()
        if limit and result.period is not None and result.period >= 10**limit:
            raise ResourceGuardError(
                f"the period has more than {limit} decimal digits, "
                "the most this Python prints (sys.set_int_max_str_digits)"
            )
        return EXIT_OK, closed
    if args.j < 3:
        return EXIT_OK, {
            "closed_form": closed,
            "oracle": None,
            "agreement": None,
            "note": "oracle skipped: modulus F_j is below 2 (base case)",
        }
    trace = _oracle_trace(args)
    agreement = trace.power_period == result.period
    return EXIT_OK if agreement else EXIT_DISAGREEMENT, {
        "closed_form": closed,
        "oracle": trace.to_record(),
        "agreement": agreement,
    }


def _period_plain(rec: dict) -> list[str]:
    closed = rec.get("closed_form", rec)
    lines = [
        f"period(j={closed['j']}, e={closed['e']}) = {closed['outcome']}  "
        f"[{closed['case_label']}]"
    ]
    if "note" in rec:
        lines.append(rec["note"])
    elif "oracle" in rec:
        oracle = rec["oracle"]
        lines.append(f"oracle: pisano={oracle['pisano']} power_period={oracle['power_period']}")
        lines.append(f"agreement: {'yes' if rec['agreement'] else 'NO'}")
    return lines


# -------------------------------------------------------------------- table


_SMALL_J_TEXT = {
    0: "modulus F_0 = 0: residues F_i^e grow without bound; the sequence is not periodic",
    1: "modulus F_1 = 1: every residue is 0; the period is 1",
    2: "modulus F_2 = 1: every residue is 0; the period is 1",
    3: "modulus F_3 = 2: the residues repeat the block [0, 1, 1]; the period is 3",
}

_SMALL_J_ROWS = {1: [0], 2: [0], 3: [0, 1, 1]}


def cmd_table(args) -> tuple[int, dict]:
    if args.format == "csv":
        # csv's usage errors come before the domain checks and any work
        if args.annotate:
            raise _UsageError("--annotate applies to plain and json tables, not csv")
        if args.j == 0:
            raise _UsageError("j = 0 has no finite residue table; use plain or json")
    period = period_closed_form(args.j, args.e).period

    if args.j < 4:
        if args.annotate:
            raise _UsageError("--annotate applies to closed-form tables (j >= 4)")
        return EXIT_OK, {"j": args.j, "e": args.e, "base_case": _SMALL_J_TEXT[args.j]}

    if args.annotate and args.e > 2:
        raise _UsageError("--annotate needs e in {1, 2}; no per-entry closed form beyond")
    _require_printable_modulus(args.j)
    # every residue is below F_j, so it has at most `digits` digits; the
    # message shows the factors, as the scan guard does
    digits = _fib_digit_bound(args.j)
    words, factor = _exponent_words(args.e)
    if period * digits * words > TABLE_MAX_DIGITS:
        raise ResourceGuardError(
            f"table has {period} residues x {digits} digits{factor}, more than the limit of "
            f"{TABLE_MAX_DIGITS} digits; choose a smaller j"
        )

    rec = residues_general(args.j, args.e).to_record()
    if args.annotate:
        rec["case_formulas"] = list(case_breakdown(args.j, args.e))
    return EXIT_OK, rec


def _table_plain(rec: dict) -> list[str]:
    if "base_case" in rec:
        return [f"table(j={rec['j']}, e={rec['e']}): {rec['base_case']}"]
    lines = [f"# j={rec['j']} e={rec['e']} modulus={rec['modulus']} period={rec['period']}"]
    if "case_formulas" in rec:
        rows = zip(rec["residues"], rec["case_formulas"])
        lines.extend(f"{i} {r} {label}" for i, (r, label) in enumerate(rows))
    else:
        lines.extend(f"{i} {r}" for i, r in enumerate(rec["residues"]))
    return lines


def _table_csv(rec: dict) -> list[str]:
    # fixed schema: header i,rho then one row per index
    residues = _SMALL_J_ROWS[rec["j"]] if "base_case" in rec else rec["residues"]
    return ["i,rho", *(f"{i},{r}" for i, r in enumerate(residues))]


# ------------------------------------------------------------------- oracle


def cmd_oracle(args) -> tuple[int, dict]:
    return EXIT_OK, _oracle_trace(args).to_record()


def _oracle_plain(rec: dict) -> list[str]:
    lines = [f"modulus={rec['modulus']} pisano={rec['pisano']} power_period={rec['power_period']}"]
    for check in rec["checked_divisors"]:
        line = f"d={check['d']} {check['verdict']}"
        if "witness_index" in check:
            line += f" witness={check['witness_index']}"
        lines.append(line)
    return lines


# ------------------------------------------------------------------- verify


def cmd_verify(args) -> tuple[int, dict]:
    choices = [*VERIFY_SUITE, "all"]
    for name in args.identities:
        if name not in choices:
            raise _UsageError(f"unknown identity {name!r}; choose from {', '.join(choices)}")
    selected = args.identities or ["all"]
    # de-duplicated, in the suite's order
    reports = [
        report
        for name, run in VERIFY_SUITE.items()
        if name in selected or "all" in selected
        for report in run()
    ]
    failed = [r for r in reports if r.verdict not in (ALL_PASS, NOT_APPLICABLE)]
    return EXIT_DISAGREEMENT if failed else EXIT_OK, {
        "reports": [r.to_record() for r in reports],
        "failures": len(failed),
    }


_VERIFY_TAGS = {ALL_PASS: "PASS", NOT_APPLICABLE: "N/A "}


def _verify_plain(rec: dict) -> list[str]:
    lines = []
    for r in rec["reports"]:
        tag = _VERIFY_TAGS.get(r["verdict"], "FAIL")
        line = f"{tag} {r['identity']}: cases={r['cases']} ({r['domain']})"
        if r["verdict"] != ALL_PASS and "counterexample" in r:
            ce = r["counterexample"]
            at = ", ".join(f"{k}={v}" for k, v in ce["inputs"].items())
            line += f" witness=({at}) lhs={ce['lhs']} rhs={ce['rhs']}"
            if "part" in ce:
                line += f" part={ce['part']}"
        lines.append(line)
    lines.append(f"failures: {rec['failures']}")
    return lines


# --------------------------------------------------------------------- scan


def cmd_scan(args) -> tuple[int, dict]:
    j_lo, j_hi = _parse_range(args.j_range)
    e_lo, e_hi = _parse_range(args.e_range)
    if j_lo < 3:
        raise _UsageError(f"scan needs j >= 3 (the oracle's domain), got {j_lo}")
    if e_lo < 1:
        raise _UsageError(f"scan needs e >= 1, got {e_lo}")
    _require_oracle_row(j_hi, args.j_max)
    # the message shows the factors: their product may be too wide to print
    j_count, e_count = j_hi - j_lo + 1, e_hi - e_lo + 1
    words, factor = _exponent_words(e_hi)
    if j_count * e_count * words > SCAN_MAX_CELLS:
        raise ResourceGuardError(
            f"scan range has {j_count} x {e_count} cells{factor}, more than the limit of "
            f"{SCAN_MAX_CELLS}; narrow the j or e range"
        )
    cells = []
    for j in range(j_lo, j_hi + 1):
        for e in range(e_lo, e_hi + 1):
            closed = period_closed_form(j, e).period
            oracle = minimal_period_bruteforce(j, e).power_period
            cells.append(
                {"j": j, "e": e, "closed_form": closed, "oracle": oracle, "agree": closed == oracle}
            )
    disagreements = sum(1 for cell in cells if not cell["agree"])
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK, {
        "cells": cells,
        "disagreements": disagreements,
    }


def _scan_plain(rec: dict) -> list[str]:
    lines = [
        f"j={c['j']} e={c['e']} closed={c['closed_form']} "
        f"oracle={c['oracle']} agree={'yes' if c['agree'] else 'NO'}"
        for c in rec["cells"]
    ]
    lines.append(f"cells={len(rec['cells'])} disagreements={rec['disagreements']}")
    return lines


# --------------------------------------------------------------------- main


_RENDERERS = {
    "plain": {
        "period": _period_plain,
        "table": _table_plain,
        "oracle": _oracle_plain,
        "verify": _verify_plain,
        "scan": _scan_plain,
    },
    "csv": {"table": _table_csv},
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="powerfib",
        description="Periods and residue tables of power Fibonacci sequences "
        "modulo Fibonacci numbers, certified by brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, j_max: bool) -> _Parser:
        # the formats it has a renderer for (json renders any record), and
        # --j-max where the oracle runs
        p = sub.add_parser(name, help=help)
        formats = ("plain", "json", "csv") if name in _RENDERERS["csv"] else ("plain", "json")
        p.add_argument("--format", choices=formats, default="plain", help="output format")
        if j_max:
            guard = "oracle guard on j (default %(default)s)"
            p.add_argument("--j-max", type=int, action=_OracleGuard, default=J_MAX, help=guard)
        return p

    p = command("period", "closed-form minimal period", j_max=True)
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--verify", action="store_true", help="certify against the oracle")

    p = command("table", "full-period residue table", j_max=False)
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)
    p.add_argument(
        "--annotate",
        action="store_true",
        help="label each entry with its closed-form formula (e in {1, 2})",
    )

    p = command("oracle", "brute-force period with evidence", j_max=True)
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)

    p = command("verify", "exact identity sweeps", j_max=False)
    p.add_argument(
        "identities",
        nargs="*",
        metavar="identity",
        help="any of: " + ", ".join(VERIFY_SUITE) + ", all (default: all)",
    )

    p = command("scan", "closed form vs oracle over a grid", j_max=True)
    p.add_argument("j_range", help="like 4..22")
    p.add_argument("e_range", help="like 1..8")

    return parser


_PARSER = _build_parser()


def _bounded(line: str) -> str:
    """line with each unprintable character shown as repr shows it (\\n), each
    run of more than 50 characters free of whitespace and of quotes but its
    own cut to its first 20, '...' and its length as printed (after its
    quotes), then, if still over 180, to its first 150 likewise."""

    def cut(run: re.Match) -> str:
        quote = run[0][0] if run.lastindex < 3 else ""
        text = run[run.lastindex]
        return f"{quote}{text[:20]}...{quote} ({len(text)} characters)"

    line = "".join(c if c.isprintable() else repr(c)[1:-1] for c in line)
    line = re.sub(r"""'([^\s']{51,})'|"([^\s"]{51,})"|([^\s'"]{51,})""", cut, line)
    return line if len(line) <= 180 else f"{line[:150]}... ({len(line)} characters)"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        # looked up by name on every call, so a rebound cmd_* takes effect
        code, record = globals()[f"cmd_{args.command}"](args)
        if args.format == "json":
            import json  # only json output needs it

            text = json.dumps(record)
        else:
            text = "\n".join(_RENDERERS[args.format][args.command](record))
        sys.stdout.write(text + "\n")
        # flush here so a closed pipe raises inside this try, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; as the Python docs advise, point stdout at
        # devnull so the interpreter's flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (_UsageError, OutOfDomainError, InvalidModulusError) as err:
        sys.stderr.write(_bounded(f"error: {err}") + "\n")
        return EXIT_USAGE
    except ResourceGuardError as err:
        sys.stderr.write(_bounded(f"resource guard: {err}") + "\n")
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())

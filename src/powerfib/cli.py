"""Command line surface.

Subcommands: period, table, oracle, verify, scan, bench.  Exit codes:
0 success or agreement, 1 usage, 2 mathematical disagreement, 3 resource
guard.  Output is deterministic byte for byte for identical invocations
(bench timing values excepted; its shape is still fixed).  A reader that
closes stdout early (`powerfib table 500 3 | head -1`) ends the run quietly
with exit code 0: the output it took is complete, and the rest was not
wanted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from .fibcore import fib_mod
from .identities import (
    ALL_PASS,
    NOT_APPLICABLE,
    VerificationReport,
    check_zero_positions,
    Counterexample,
    sweep_addition,
    sweep_carmichael,
    sweep_cassini,
    sweep_catalan,
    sweep_gcd,
    sweep_square_lemma,
    sweep_zero_positions,
)
from .oracle import DEFAULT_J_MAX, minimal_period_bruteforce
from .periodicity import period_closed_form
from .residue_tables import case_breakdown, residues_e1, residues_e2, residues_general

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_GUARD = 3

_BENCH_INDICES = (10**6, 10**9, 10**12, 10**15, 10**18)

_IDENTITY_ORDER = (
    "gcd",
    "addition",
    "catalan",
    "cassini",
    "square_lemma",
    "zero_positions",
    "carmichael",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad arguments; this CLI reserves 2 for
    # mathematical disagreement, so usage problems become exceptions
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _emit_json(doc) -> None:
    _emit(json.dumps(doc) + "\n")


def _reject_csv(args) -> None:
    if args.format == "csv":
        raise _UsageError(
            f"--format csv applies to residue tables only, not '{args.command}'"
        )


def _parse_range(text: str) -> tuple[int, int]:
    """'4..22' as (4, 22); a bare '4' as (4, 4)."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise _UsageError(f"range must look like 'a..b' or 'a', got {text!r}") from None
    if lo > hi:
        raise _UsageError(f"empty range {text!r}")
    return lo, hi


# ------------------------------------------------------------------- period


def cmd_period(args) -> int:
    _reject_csv(args)
    result = period_closed_form(args.j, args.e)
    period_text = "not_periodic" if result.period is None else str(result.period)

    if not args.verify:
        if args.format == "json":
            _emit_json(result.to_record())
        else:
            _emit(f"period(j={args.j}, e={args.e}) = {period_text}  [{result.case_label}]\n")
        return EXIT_OK

    if args.j < 3:
        note = "oracle skipped: modulus F_j is below 2 (base case)"
        if args.format == "json":
            _emit_json(
                {
                    "closed_form": result.to_record(),
                    "oracle": None,
                    "agreement": None,
                    "note": note,
                }
            )
        else:
            _emit(f"period(j={args.j}, e={args.e}) = {period_text}  [{result.case_label}]\n")
            _emit(note + "\n")
        return EXIT_OK

    trace = minimal_period_bruteforce(args.j, args.e, j_max=args.j_max)
    agreement = trace.power_period == result.period
    if args.format == "json":
        _emit_json(
            {
                "closed_form": result.to_record(),
                "oracle": trace.to_record(),
                "agreement": agreement,
            }
        )
    else:
        _emit(f"period(j={args.j}, e={args.e}) = {period_text}  [{result.case_label}]\n")
        _emit(f"oracle: pisano={trace.pisano} power_period={trace.power_period}\n")
        _emit(f"agreement: {'yes' if agreement else 'NO'}\n")
    return EXIT_OK if agreement else EXIT_DISAGREEMENT


# -------------------------------------------------------------------- table


_BASE_CASE_TEXT = {
    0: "modulus F_0 = 0: residues F_i^e grow without bound; the sequence is not periodic",
    1: "modulus F_1 = 1: every residue is 0; the period is 1",
    2: "modulus F_2 = 1: every residue is 0; the period is 1",
    3: "modulus F_3 = 2: the residues repeat the block [0, 1, 1]; the period is 3",
}

_BASE_CASE_ROWS = {1: [0], 2: [0], 3: [0, 1, 1]}


def _emit_csv_rows(residues) -> None:
    # fixed schema: header i,rho then one row per index, LF line endings,
    # exactly one trailing LF
    lines = ["i,rho"]
    lines.extend(f"{i},{r}" for i, r in enumerate(residues))
    _emit("\n".join(lines) + "\n")


def cmd_table(args) -> int:
    if args.j < 0:
        raise OutOfDomainError(f"j must be nonnegative, got {args.j}")
    if args.e < 1:
        raise OutOfDomainError(f"exponent must be at least 1, got {args.e}")

    if args.j < 4:
        if args.annotate:
            raise _UsageError("--annotate applies to closed-form tables (j >= 4)")
        text = _BASE_CASE_TEXT[args.j]
        if args.format == "json":
            _emit_json({"j": args.j, "e": args.e, "base_case": text})
        elif args.format == "csv":
            if args.j == 0:
                raise _UsageError(
                    "j = 0 has no finite residue table; use plain or json"
                )
            _emit_csv_rows(_BASE_CASE_ROWS[args.j])
        else:
            _emit(f"table(j={args.j}, e={args.e}): {text}\n")
        return EXIT_OK

    if args.annotate and args.e > 2:
        raise _UsageError("--annotate needs e in {1, 2}; no per-entry closed form beyond")

    if args.e == 1:
        table = residues_e1(args.j)
    elif args.e == 2:
        table = residues_e2(args.j)
    else:
        table = residues_general(args.j, args.e)

    if args.format == "json":
        rec = table.to_record()
        if args.annotate:
            rec["case_formulas"] = list(case_breakdown(args.j, args.e))
        _emit_json(rec)
    elif args.format == "csv":
        _emit_csv_rows(table.residues)
    else:
        _emit(
            f"# j={table.j} e={table.e} modulus={table.modulus} period={table.period}\n"
        )
        if args.annotate:
            for i, (r, label) in enumerate(
                zip(table.residues, case_breakdown(args.j, args.e))
            ):
                _emit(f"{i} {r} {label}\n")
        else:
            for i, r in enumerate(table.residues):
                _emit(f"{i} {r}\n")
    return EXIT_OK


# ------------------------------------------------------------------- oracle


def cmd_oracle(args) -> int:
    _reject_csv(args)
    trace = minimal_period_bruteforce(args.j, args.e, j_max=args.j_max)
    if args.format == "json":
        _emit_json(trace.to_record())
    else:
        _emit(
            f"modulus={trace.modulus} pisano={trace.pisano} "
            f"power_period={trace.power_period}\n"
        )
        for check in trace.checked_divisors:
            if check.witness_index is None:
                _emit(f"d={check.d} {check.verdict}\n")
            else:
                _emit(f"d={check.d} {check.verdict} witness={check.witness_index}\n")
    return EXIT_OK


# ------------------------------------------------------------------- verify


def _zero_positions_j6_report() -> VerificationReport:
    """The j = 6 exclusion, reported as evidence rather than a failure."""
    outcome = check_zero_positions(6, 3, 30)
    witness = outcome.witness if outcome.witness is not None else -1
    return VerificationReport(
        identity_name="zero_positions_j6_exclusion",
        domain_description="j = 6, e = 3, i <= 30",
        cases_checked=outcome.i_max + 1,
        verdict=outcome.verdict,
        counterexample=Counterexample({"j": 6, "e": 3, "i": witness}, 1, 0),
    )


def _run_verify_suite(names: list[str]) -> list[VerificationReport]:
    reports: list[VerificationReport] = []
    for name in names:
        if name == "gcd":
            reports.append(sweep_gcd())
        elif name == "addition":
            reports.append(sweep_addition(80, 80))
        elif name == "catalan":
            reports.append(sweep_catalan(80))
        elif name == "cassini":
            reports.append(sweep_cassini(120))
        elif name == "square_lemma":
            reports.append(sweep_square_lemma(30))
        elif name == "zero_positions":
            js = [j for j in range(4, 21) if j != 6]
            reports.append(sweep_zero_positions(js, range(1, 6)))
            reports.append(_zero_positions_j6_report())
        elif name == "carmichael":
            reports.append(sweep_carmichael(3, 40))
    return reports


def cmd_verify(args) -> int:
    _reject_csv(args)
    selected = list(args.identities) or ["all"]
    known = set(_IDENTITY_ORDER) | {"all"}
    for name in selected:
        if name not in known:
            raise _UsageError(
                f"unknown identity {name!r}; choose from "
                + ", ".join(_IDENTITY_ORDER)
                + ", all"
            )
    if "all" in selected:
        names = list(_IDENTITY_ORDER)
    else:
        # de-duplicate but keep the canonical order
        names = [n for n in _IDENTITY_ORDER if n in selected]
    reports = _run_verify_suite(names)
    failed = [r for r in reports if r.verdict not in (ALL_PASS, NOT_APPLICABLE)]
    if args.format == "json":
        _emit_json({"reports": [r.to_record() for r in reports], "failures": len(failed)})
    else:
        for r in reports:
            if r.verdict == ALL_PASS:
                tag = "PASS"
            elif r.verdict == NOT_APPLICABLE:
                tag = "N/A "
            else:
                tag = "FAIL"
            line = f"{tag} {r.identity_name}: cases={r.cases_checked} ({r.domain_description})"
            if r.verdict != ALL_PASS and r.counterexample is not None:
                ce = r.counterexample
                at = ", ".join(f"{k}={v}" for k, v in ce.inputs.items())
                line += f" witness=({at}) lhs={ce.lhs} rhs={ce.rhs}"
            _emit(line + "\n")
        _emit(f"failures: {len(failed)}\n")
    return EXIT_DISAGREEMENT if failed else EXIT_OK


# --------------------------------------------------------------------- scan


def _scan_cell(j: int, e: int, j_max: int) -> dict:
    closed = period_closed_form(j, e)
    trace = minimal_period_bruteforce(j, e, j_max=j_max)
    return {
        "j": j,
        "e": e,
        "closed_form": closed.period,
        "oracle": trace.power_period,
        "agree": closed.period == trace.power_period,
    }


def cmd_scan(args) -> int:
    _reject_csv(args)
    j_lo, j_hi = _parse_range(args.j_range)
    e_lo, e_hi = _parse_range(args.e_range)
    if j_lo < 3:
        raise _UsageError(f"scan needs j >= 3 (the oracle's domain), got {j_lo}")
    if e_lo < 1:
        raise _UsageError(f"scan needs e >= 1, got {e_lo}")
    if j_hi > args.j_max:
        raise ResourceGuardError(
            f"scan range reaches j={j_hi}, beyond the oracle guard "
            f"j_max={args.j_max}; raise --j-max to allow it"
        )
    cells = [(j, e) for j in range(j_lo, j_hi + 1) for e in range(e_lo, e_hi + 1)]
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(lambda c: _scan_cell(c[0], c[1], args.j_max), cells))
    else:
        rows = [_scan_cell(j, e, args.j_max) for j, e in cells]
    disagreements = sum(1 for row in rows if not row["agree"])
    if args.format == "json":
        _emit_json({"cells": rows, "disagreements": disagreements})
    else:
        for row in rows:
            _emit(
                f"j={row['j']} e={row['e']} closed={row['closed_form']} "
                f"oracle={row['oracle']} agree={'yes' if row['agree'] else 'NO'}\n"
            )
        _emit(f"cells={len(rows)} disagreements={disagreements}\n")
    return EXIT_DISAGREEMENT if disagreements else EXIT_OK


# -------------------------------------------------------------------- bench


def _best_time(fn, repeats: int = 7) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def cmd_bench(args) -> int:
    _reject_csv(args)
    m = args.modulus
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")
    timings = []
    sublinear = True
    prev = None
    for n in _BENCH_INDICES:
        fib_mod(n, m)  # warm-up
        t = _best_time(lambda: fib_mod(n, m))
        timings.append((n, t))
        # n grows 1000x per step; logarithmic cost should barely move.
        # The 10x allowance plus a 1 ms noise floor keeps this robust.
        if prev is not None and t >= max(10 * prev, 1e-3):
            sublinear = False
        prev = t
    if args.format == "json":
        _emit_json(
            {
                "modulus": str(m),
                "timings": [{"n": str(n), "seconds": t} for n, t in timings],
                "sublinear": sublinear,
            }
        )
    else:
        for n, t in timings:
            _emit(f"n={n} seconds={t:.9f}\n")
        _emit(f"sublinear={'yes' if sublinear else 'NO'}\n")
    return EXIT_OK if sublinear else EXIT_DISAGREEMENT


# --------------------------------------------------------------------- main


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (csv applies to residue tables)",
    )
    common.add_argument(
        "--j-max",
        type=int,
        default=DEFAULT_J_MAX,
        help=f"oracle guard on j (default {DEFAULT_J_MAX})",
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker threads for scans (default: all processors)",
    )

    parser = _Parser(
        prog="powerfib",
        description="Periods and residue tables of power Fibonacci sequences "
        "modulo Fibonacci numbers, certified by brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("period", parents=[common], help="closed-form minimal period")
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)
    p.add_argument("--verify", action="store_true", help="certify against the oracle")
    p.set_defaults(handler=cmd_period)

    p = sub.add_parser("table", parents=[common], help="full-period residue table")
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)
    p.add_argument(
        "--annotate",
        action="store_true",
        help="label each entry with its closed-form formula (e in {1, 2})",
    )
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("oracle", parents=[common], help="brute-force period with evidence")
    p.add_argument("j", type=int)
    p.add_argument("e", type=int)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("verify", parents=[common], help="exact identity sweeps")
    p.add_argument(
        "identities",
        nargs="*",
        metavar="identity",
        help="any of: " + ", ".join(_IDENTITY_ORDER) + ", all (default: all)",
    )
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("scan", parents=[common], help="closed form vs oracle over a grid")
    p.add_argument("j_range", help="like 4..22")
    p.add_argument("e_range", help="like 1..8")
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("bench", parents=[common], help="fast-doubling wall times")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
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
    except _UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except (OutOfDomainError, InvalidModulusError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_USAGE
    except ResourceGuardError as err:
        sys.stderr.write(f"resource guard: {err}\n")
        return EXIT_GUARD


if __name__ == "__main__":
    raise SystemExit(main())

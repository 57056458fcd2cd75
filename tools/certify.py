"""Certify the closed forms against the oracle on every grid CI checks.

Run from the repository root, with no arguments (given any, it prints
its usage line to stderr and exits with status 2, running no claim):

    PYTHONPATH=src python tools/certify.py

CLAIMS is the one list of certification grids.  A claim is a name, the
work to run and the exact line that work must print last.  Each claim
runs in this process after the oracle's cached row is cleared, so every
grid starts as cold as it would in a process of its own.  One line per
claim goes to stdout: its name, the line its work printed, ok or
MISMATCH, and its seconds.  The exit status is 1 if any claim mismatched.
"""

import contextlib
import io
import re
import sys
import time

from powerfib import cli, oracle
from powerfib.fibcore import fib_exact, fib_prefix
from powerfib.periodicity import period_closed_form
from powerfib.residue_tables import case_breakdown, residues_general


def _scan(argv: str, expected: str) -> tuple:
    """A claim on `powerfib scan <argv>`, whose last stdout line must be expected."""

    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["scan", *argv.split()])
        return (out.getvalue().splitlines() or [""])[-1]

    return f"scan {argv}", run, expected


def _tables() -> str:
    """Compare every table for j in 4..400, e in 1..8 with the oracle's window."""
    tables = [residues_general(j, e) for j in range(4, 401) for e in range(1, 9)]
    bad = sum(list(t.residues) != oracle.sequence_prefix(t.j, t.e, t.period) for t in tables)
    return f"tables={len(tables)} mismatches={bad}"


_LABEL = re.compile(r"(Fj-)?F\[(\d+)\](\^2)?|rho\[(\d+)\]|0")


def _label_value(label: str, fs: list[int], window: list[int]) -> int | None:
    """The exact value a case_breakdown label names, unreduced: read from
    fs = F_0..F_j, or for rho[k] from entry k of the window it is handed.
    None for a label of no known form."""
    match = _LABEL.fullmatch(label)
    if match is None:
        return None
    complement, k, squared, rho = match.groups()
    if rho is not None:
        return window[int(rho)]
    if k is None:
        return 0
    value = fs[int(k)] ** (2 if squared else 1)
    return fs[-1] - value if complement else value


def _labels() -> str:
    """Compare the value of every e in {1, 2} label for j in 4..1000 with the
    oracle's window over the closed-form period; a row of the wrong length
    or with one entry off is a mismatch."""
    rows = bad = 0
    for j in range(4, 1001):
        fs = fib_prefix(j + 1)
        for e in (1, 2):
            window = oracle.sequence_prefix(j, e, period_closed_form(j, e).period)
            labels = case_breakdown(j, e)
            rows += 1
            bad += len(labels) != len(window) or any(
                _label_value(label, fs, window) != r for label, r in zip(labels, window)
            )
    return f"labels={rows} mismatches={bad}"


def _bounds() -> str:
    """Check every e in {1, 2} table entry for j in 4..1000 against
    [0, F_j - 1], and count the entries equal to F_j - 1: the abstract's
    bound 0 <= rho_i < F_j - 1 leaves those out."""
    tables = bad = top = 0
    for j in range(4, 1001):
        m = fib_exact(j)
        for e in (1, 2):
            residues = residues_general(j, e).residues
            tables += 1
            bad += sum(not 0 <= r < m for r in residues)
            top += residues.count(m - 1)
    return f"bounds={tables} mismatches={bad} top={top}"


CLAIMS = [
    _scan("3..1000 1..10 --j-max 1000", "cells=9980 disagreements=0"),
    # the same rows started above e = 1
    _scan("3..1000 2..11 --j-max 1000", "cells=9980 disagreements=0"),
    # each row serves 50 or 100 calls and carries its held period to many multiples
    _scan("3..200 1..50 --j-max 200", "cells=9900 disagreements=0"),
    _scan("3..100 1..100 --j-max 100", "cells=9800 disagreements=0"),
    # rows that start above every exponent the certify benchmark reaches
    _scan("3..300 12..21 --j-max 300", "cells=2980 disagreements=0"),
    # the rows above those, as far as table goes
    _scan("1001..2000 1..8 --j-max 2000", "cells=8000 disagreements=0"),
    _scan("2001..3000 1..8 --j-max 3000", "cells=8000 disagreements=0"),
    # an even row near the widest modulus, and the widest itself: F_20577,
    # 4300 digits, the last one the modulus rule admits, and odd
    _scan("20000..20000 1..8 --j-max 20000", "cells=8 disagreements=0"),
    _scan("20577..20577 1..8 --j-max 20577", "cells=8 disagreements=0"),
    # rows starting at a huge multiple of 4, so even exponents are decided on square keys
    _scan(
        "3..1000 1000000000000000000..1000000000000000003 --j-max 1000",
        "cells=3992 disagreements=0",
    ),
    ("tables 4..400 1..8", _tables, "tables=3176 mismatches=0"),
    # the paper's e = 1 and e = 2 residue formulas, each label's exact value
    ("labels 4..1000 1..2", _labels, "labels=1994 mismatches=0"),
    # the abstract's residue bound, with its erratum: F_j - 1 is itself a residue
    ("bounds 4..1000 1..2", _bounds, "bounds=1994 mismatches=0 top=4485"),
]


def main(claims: list = CLAIMS) -> int:
    failed = False
    for name, run, expected in claims:
        oracle._row.cache_clear()
        start = time.perf_counter()
        line = run()
        seconds = time.perf_counter() - start
        verdict = "ok" if line == expected else "MISMATCH"
        failed |= verdict != "ok"
        print(f"{name} | {line} | {verdict} | {seconds:.2f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:]:
        # it takes no arguments, so any, --help too, gets the usage line
        print("usage: PYTHONPATH=src python tools/certify.py", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())

"""The four workloads: their seeded operation lists and their output checkers.

Each workload is a fixed multiset of operations for a given run length,
dealt into rounds that hold the same mix of sizes.  The seed decides which
round each operation joins and the order within a round (and, for the gcd
sweep, which index pairs are drawn).  So per-layer counts repeat exactly
from seed to seed, no operation repeats within a run, and a run cut short
after a whole round still measures a representative mix.

Checkers compare outputs with `refs`, which shares no code with powerfib.
They raise OpFailed when an operation did not complete as documented (an
exit code or exception other than the documented one, or a traceback), and
WrongOutput when it completed with a wrong answer.  Output they cannot
parse raises ValueError, LookupError or TypeError, which also counts as a
wrong answer.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

import refs

NOMINAL_SECONDS = 30
FORMATS = ("plain", "csv", "json")


class OpFailed(Exception):
    """The operation did not complete the way the README documents."""


class WrongOutput(Exception):
    """The operation completed, but its output is wrong."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongOutput(message)


def _scale(seconds: float) -> float:
    return seconds / NOMINAL_SECONDS


def round_count(seconds: float) -> int:
    return max(2, round(8 * _scale(seconds)))


def deal(ops: list, key, rounds: int, rng: random.Random) -> list[list]:
    """Split ops into `rounds` rounds with the same spread of sizes.

    Sorted by `key` (a stand-in for cost), the ops fall into consecutive
    blocks of `rounds`; each block gives one op to each of as many rounds,
    chosen by the seed.  Each round is then shuffled, so that big and small
    operations meet the machine's slow and fast spells alike.
    """
    ordered = sorted(ops, key=key)
    out: list[list] = [[] for _ in range(rounds)]
    for start in range(0, len(ordered), rounds):
        block = ordered[start : start + rounds]
        for op, r in zip(block, rng.sample(range(rounds), len(block))):
            out[r].append(op)
    for one in out:
        rng.shuffle(one)
    return out


# ------------------------------------------------------------------ certify


def certify_j_max(seconds: float) -> int:
    # a row's cost grows about as j^2, so the whole list as j_max^3
    return max(110, round(800 * _scale(seconds) ** (1 / 3)))


def certify_rounds(seed: int, seconds: float) -> list[list[int]]:
    """Every row j in [3, j_max], each once."""
    rows = list(range(3, certify_j_max(seconds) + 1))
    return deal(rows, lambda j: j, round_count(seconds), random.Random(seed))


def certify_argv(j: int, j_max: int) -> list[str]:
    return ["scan", f"{j}..{j}", "1..8", "--j-max", str(j_max)]


def check_scan(j_lo: int, j_hi: int, e_lo: int, e_hi: int, rc: int, out: str, err: str) -> None:
    """`scan` plain output: every cell agrees with the case table."""
    _check_clean(rc, 0, err)
    lines = out.split("\n")
    cells = [(j, e) for j in range(j_lo, j_hi + 1) for e in range(e_lo, e_hi + 1)]
    _expect(len(lines) == len(cells) + 2 and lines[-1] == "", "scan: wrong line count")
    for (j, e), line in zip(cells, lines):
        m = re.fullmatch(r"j=(\d+) e=(\d+) closed=(\d+) oracle=(\d+) agree=yes", line)
        _expect(m is not None, f"scan: malformed line {line!r}")
        got_j, got_e, closed, oracle = map(int, m.groups())
        want = refs.period(j, e)
        _expect((got_j, got_e) == (j, e), f"scan: cell {(got_j, got_e)} out of order")
        _expect(closed == want and oracle == want, f"scan: period({j}, {e}) should be {want}")
    for j in range(j_lo, j_hi + 1):
        pis = refs.pisano(refs.fib(j))
        for e in range(e_lo, e_hi + 1):
            _expect(pis % refs.period(j, e) == 0, f"scan: period({j}, {e}) does not divide {pis}")
    _expect(lines[-2] == f"cells={len(cells)} disagreements=0", "scan: wrong summary")


def check_certify(j: int, rc: int, out: str, err: str) -> None:
    check_scan(j, j, 1, 8, rc, out, err)


def _check_clean(rc: int, want_rc: int, err: str) -> None:
    if "Traceback" in err:
        raise OpFailed(f"traceback on stderr: {err.strip().splitlines()[-1]!r}")
    if rc != want_rc:
        # exit code 2 is the CLI reporting a mathematical disagreement: an answer, and a wrong one
        raise (WrongOutput if rc == 2 else OpFailed)(f"exit code {rc}, documented {want_rc}")
    if want_rc == 0 and err:
        raise OpFailed(f"unexpected stderr {err!r}")


# ------------------------------------------------------------------- tables


@dataclass(frozen=True)
class TableOp:
    j: int
    e: int
    fmt: str
    annotate: bool

    def argv(self) -> list[str]:
        argv = ["table", str(self.j), str(self.e), "--format", self.fmt]
        return argv + ["--annotate"] if self.annotate else argv


def tables_rounds(seed: int, seconds: float) -> list[list[TableOp]]:
    """Shared j (up to 2000) at four exponents, plus small j once each.

    A shared j is taken at e = 1, 2, 3 and one e in 4..8, so its inputs
    share work; the e >= 3 pair is the slow tail.  The small single tables
    (j from 4 up, e in {1, 2}, half of the plain and json ones annotated)
    are render-bound and make up half the list.
    """
    groups = max(3, round(90 * _scale(seconds)))
    ops = []
    for k in range(groups):
        j = 400 + round(k * (2000 - 400) / (groups - 1))
        for slot, e in enumerate((1, 2, 3, 4 + k % 5)):
            ops.append(TableOp(j, e, FORMATS[(k + slot) % 3], False))
    for k in range(4 * groups):
        fmt = FORMATS[k % 3]
        ops.append(TableOp(4 + k, 1 + k % 2, fmt, fmt != "csv" and k % 4 < 2))
    return deal(ops, lambda op: (op.e >= 3, op.j, op.e), round_count(seconds), random.Random(seed))


def _label_value(label: str, fs, m: int, rows: list[int]) -> int:
    """The value a --annotate formula label stands for."""
    if label == "0":
        return 0
    if m_ := re.fullmatch(r"(Fj-)?F\[(\d+)\](\^2)?", label):
        value = fs[int(m_.group(2))] ** (2 if m_.group(3) else 1)
        return m - value if m_.group(1) else value
    if m_ := re.fullmatch(r"rho\[(\d+)\]", label):
        return rows[int(m_.group(1))]
    raise WrongOutput(f"table: unknown formula label {label!r}")


def check_table(op: TableOp, rc: int, out: str, err: str) -> None:
    """Residues equal F_i^e mod F_j over one minimal period, in op.fmt."""
    _check_clean(rc, 0, err)
    m = refs.fib(op.j)
    want = refs.power_residues(op.j, op.e)
    labels = None
    if op.fmt == "json":
        doc = json.loads(out)
        _expect(out.endswith("}\n") and out.count("\n") == 1, "table: json is not one line")
        _expect(
            (doc["j"], doc["e"], doc["modulus"], doc["period"]) == (op.j, op.e, str(m), len(want)),
            "table: wrong json header fields",
        )
        rows = [int(r) for r in doc["residues"]]
        if op.annotate:
            labels = doc["case_formulas"]
    elif op.fmt == "csv":
        lines = out.split("\n")
        _expect(lines[0] == "i,rho" and lines[-1] == "", "table: wrong csv framing")
        rows = []
        for i, line in enumerate(lines[1:-1]):
            idx, _, rho = line.partition(",")
            _expect(idx == str(i), f"table: csv row {i} has index {idx!r}")
            rows.append(int(rho))
    else:
        lines = out.split("\n")
        _expect(
            lines[0] == f"# j={op.j} e={op.e} modulus={m} period={len(want)}" and lines[-1] == "",
            f"table: wrong plain header {lines[0]!r}",
        )
        rows, labels = [], [] if op.annotate else None
        for i, line in enumerate(lines[1:-1]):
            parts = line.split(" ")
            _expect(parts[0] == str(i) and len(parts) == (3 if op.annotate else 2), f"table: bad row {i}")
            rows.append(int(parts[1]))
            if op.annotate:
                labels.append(parts[2])
    _expect(len(rows) == len(want), f"table: {len(rows)} residues, period is {len(want)}")
    for i, (got, ref) in enumerate(zip(rows, want)):
        _expect(got == ref, f"table: rho_{i} of (j={op.j}, e={op.e}) is {got}, should be {ref}")
    if op.annotate:
        fs = refs.fib_table(op.j)
        _expect(len(labels) == len(rows), "table: one formula label per residue expected")
        for i, label in enumerate(labels):
            _expect(_label_value(label, fs, m, rows) == rows[i], f"table: label {label!r} at {i} is wrong")


# ------------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepOp:
    kind: str
    args: tuple

    def __repr__(self):
        return f"{self.kind}{self.args}"


# below 41 F_j is so small that the call takes microseconds; F_73's
# cofactor trips the factoring guard
PPD_J = tuple(j for j in range(41, 81) if j != 73)


def _ladder(lo: int, hi: int, count: int) -> list[int]:
    return [lo + round(k * (hi - lo) / max(1, count - 1)) for k in range(count)]


def sweeps_rounds(seed: int, seconds: float) -> list[list[SweepOp]]:
    """Each sweep over a ladder of domains from the CLI default up to two and
    a half to six times its size, plus primitive_prime_divisor at every j in
    [41, 80] that its guard admits.  Only the gcd index pairs are drawn from
    the seed; their number is fixed, so the case counts are too."""
    rng = random.Random(seed)
    count = max(2, round(48 * _scale(seconds)))
    ops = []
    for k, (n, index_max) in enumerate(zip(_ladder(200, 800, count), _ladder(60, 240, count))):
        pairs = []
        while len(pairs) < n:
            pair = (rng.randint(0, index_max), rng.randint(0, index_max))
            if pair != (0, 0):
                pairs.append(pair)
        ops.append(SweepOp("gcd", (tuple(pairs),)))
    ops += [SweepOp("addition", (n, n)) for n in _ladder(80, 200, count)]
    ops += [SweepOp("catalan", (n,)) for n in _ladder(80, 240, count)]
    ops += [SweepOp("cassini", (n,)) for n in _ladder(120, 600, count)]
    ops += [SweepOp("square_lemma", (k,)) for k in _ladder(30, 100, count)]
    # the e and j_lo cycles keep a domain from repeating where the ladder does
    ops += [SweepOp("zero_positions", (hi, 5 + k % 6, 5)) for k, hi in enumerate(_ladder(20, 60, count))]
    # the expected exception set comes from the benchmark's own factoring
    ops += [
        SweepOp("carmichael", (3 + k % 4, hi, tuple(exceptions(3 + k % 4, hi))))
        for k, hi in enumerate(_ladder(40, 72, count))
    ]
    ops += [SweepOp("ppd", (j,)) for j in PPD_J]
    return deal(ops, _sweep_key, round_count(seconds), rng)


def _sweep_key(op: SweepOp):
    return op.kind, len(op.args[0]) if op.kind == "gcd" else op.args


def run_sweep(identities, op: SweepOp):
    if op.kind == "gcd":
        return identities.sweep_gcd(list(op.args[0]))
    if op.kind == "zero_positions":
        hi, e_hi, factor = op.args
        return identities.sweep_zero_positions(_zero_js(hi), range(1, e_hi + 1), factor)
    if op.kind == "carmichael":
        return identities.sweep_carmichael(*op.args)
    if op.kind == "ppd":
        return identities.primitive_prime_divisor(op.args[0])
    return getattr(identities, f"sweep_{op.kind}")(*op.args)


def _zero_js(hi: int) -> list[int]:
    return [j for j in range(4, hi + 1) if j != 6]


def exceptions(lo: int, hi: int) -> list[int]:
    """The j in [lo, hi] whose F_j has no primitive prime divisor."""
    return [j for j in range(lo, hi + 1) if not refs.primitive_primes(j)]


def factor_references() -> None:
    """Factor every F_j that check_ppd needs, before the first operation."""
    for j in PPD_J:
        refs.fib_factors(j)


def sweep_cases(op: SweepOp) -> int:
    """The size of the domain a sweep states, counted independently."""
    a = op.args
    if op.kind == "gcd":
        return len(a[0])
    if op.kind == "addition":
        return a[0] * (a[1] + 1)
    if op.kind == "catalan":
        return sum(n + 1 for n in range(a[0] + 1))
    if op.kind == "cassini":
        return a[0]
    if op.kind == "square_lemma":
        return sum(k + 1 for k in range(2, a[0] + 1))
    if op.kind == "zero_positions":
        return sum(a[2] * j + 1 for j in _zero_js(a[0]) for _ in range(a[1]))
    if op.kind == "carmichael":
        return a[1] - a[0] + 1
    raise ValueError(op.kind)


def check_ppd(j: int, result) -> None:
    """primitive_prime_divisor(j) against trial-division factoring of F_j."""
    factors = refs.fib_factors(j)
    prims = refs.primitive_primes(j)
    _expect(result.j == j, "ppd: wrong j")
    _expect(tuple(result.factor_trace) == factors, f"ppd: factor trace of F_{j} is wrong")
    if prims:
        _expect(result.primitive_prime == prims[0], f"ppd: F_{j} has smallest primitive prime {prims[0]}")
        _expect(result.rank_of_apparition == j, f"ppd: rank of {prims[0]} is {j}")
    else:
        _expect(result.primitive_prime is None and result.rank_of_apparition is None, f"ppd: F_{j} has none")


def check_sweep(op: SweepOp, result) -> None:
    if op.kind == "ppd":
        check_ppd(op.args[0], result)
        return
    _expect(result.identity_name == op.kind, f"{op!r}: report names {result.identity_name!r}")
    _expect(result.verdict == "all_pass" and result.counterexample is None, f"{op!r}: verdict {result.verdict}")
    want = sweep_cases(op)
    _expect(result.cases_checked == want, f"{op!r}: {result.cases_checked} cases, domain has {want}")


# ---------------------------------------------------------------------- cli


@dataclass(frozen=True)
class Request:
    kind: str  # subcommand, or usage / guard / pipe
    argv: tuple[str, ...]


CLI_PASS = (
    Request("period", ("period", "9", "5")),
    Request("period", ("period", "10", "4", "--verify")),
    Request("period", ("period", "7", "6", "--format", "json")),
    Request("table", ("table", "12", "3")),
    Request("table", ("table", "9", "2", "--format", "csv")),
    Request("table", ("table", "8", "1", "--format", "json", "--annotate")),
    Request("oracle", ("oracle", "10", "3")),
    Request("verify", ("verify", "gcd", "cassini")),
    Request("verify", ("verify",)),
    Request("scan", ("scan", "4..12", "1..4")),
    Request("usage", ("frobnicate",)),
    Request("guard", ("oracle", "40", "2")),
    # fails on every pass: the reader closes the pipe after one line, and
    # the CLI answers EPIPE with a traceback and exit code 1
    Request("pipe", ("table", "500", "3")),
)
MIN_OPS = 100  # the 90th percentile then has ten latencies beyond it


def cli_rounds(seed: int, seconds: float) -> list[list[Request]]:
    """Whole passes over CLI_PASS, each pass in its own seeded order."""
    rng = random.Random(seed)
    passes = max(-(-MIN_OPS // len(CLI_PASS)), round(16 * _scale(seconds)))
    return [rng.sample(CLI_PASS, len(CLI_PASS)) for _ in range(passes)]


def _table_op(argv) -> TableOp:
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "plain"
    return TableOp(int(argv[1]), int(argv[2]), fmt, "--annotate" in argv)


def _period_line(j: int, e: int) -> str:
    return rf"period\(j={j}, e={e}\) = {refs.period(j, e)}  \[[A-Z0-9_]+\]"


def _check_one_line_error(rc: int, want_rc: int, prefix: str, out: str, err: str) -> None:
    _check_clean(rc, want_rc, err)
    _expect(out == "", "error request wrote to stdout")
    _expect(err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, f"stderr is not one line: {err!r}")


def _domain_cases(name: str, domain: str) -> int:
    """The number of cases in a `verify` domain description."""
    nums = [int(n) for n in re.findall(r"\d+", domain)]
    if name == "gcd":
        return nums[0]
    if name == "addition":
        return sweep_cases(SweepOp("addition", (nums[1], nums[3])))
    if name == "catalan":
        return sweep_cases(SweepOp("catalan", (nums[-1],)))
    if name == "cassini":
        return nums[1]
    if name == "square_lemma":
        return sweep_cases(SweepOp("square_lemma", (nums[1],)))
    if name == "zero_positions":
        lo, hi, _, e_lo, e_hi, factor = nums
        _expect(lo == 4 and e_lo == 1, f"unexpected zero_positions domain {domain!r}")
        return sweep_cases(SweepOp("zero_positions", (hi, e_hi, factor)))
    if name == "zero_positions_j6_exclusion":
        return nums[-1] + 1
    if name == "carmichael":
        lo, hi, *listed = nums
        _expect(listed == exceptions(lo, hi), f"carmichael: exception set should be {exceptions(lo, hi)}")
        return hi - lo + 1
    raise WrongOutput(f"verify: unknown identity {name!r}")


_VERIFY_ORDER = ("gcd", "addition", "catalan", "cassini", "square_lemma", "zero_positions", "carmichael")


def check_verify(names: tuple[str, ...], rc: int, out: str, err: str) -> None:
    _check_clean(rc, 0, err)
    want = [n for n in _VERIFY_ORDER if n in names or not names]
    if "zero_positions" in want:
        want.insert(want.index("zero_positions") + 1, "zero_positions_j6_exclusion")
    lines = out.split("\n")
    _expect(len(lines) == len(want) + 2 and lines[-2:] == ["failures: 0", ""], "verify: wrong lines")
    for name, line in zip(want, lines):
        m = re.match(r"(PASS|N/A ) (\w+): cases=(\d+) \((.*?)\)", line)
        _expect(m is not None and m.group(2) == name, f"verify: expected {name}, got {line!r}")
        tag = "N/A " if name == "zero_positions_j6_exclusion" else "PASS"
        _expect(m.group(1) == tag, f"verify: {name} reads {m.group(1)!r}")
        _expect(int(m.group(3)) == _domain_cases(name, m.group(4)), f"verify: {name} case count")


def check_oracle(j: int, e: int, rc: int, out: str, err: str) -> None:
    _check_clean(rc, 0, err)
    m = refs.fib(j)
    pis = refs.pisano(m)
    want = refs.period(j, e)
    window = [pow(r, e, m) for r in refs.fib_residues(j, pis)]
    lines = out.split("\n")
    _expect(lines[0] == f"modulus={m} pisano={pis} power_period={want}", f"oracle: header {lines[0]!r}")
    tried = [d for d in refs.divisors(pis) if d <= want]
    _expect(len(lines) == len(tried) + 2 and lines[-1] == "", "oracle: wrong divisor lines")
    for d, line in zip(tried, lines[1:]):
        if d == want:
            _expect(line == f"d={d} holds", f"oracle: {line!r}")
            continue
        w = re.fullmatch(rf"d={d} fails witness=(\d+)", line)
        _expect(w is not None, f"oracle: {line!r}")
        w = int(w.group(1))
        _expect(window[w] != window[(w + d) % pis], f"oracle: witness {w} for d={d} is no witness")


def check_request(req: Request, rc: int, out: str, err: str) -> None:
    """A `python -m powerfib` request, as the README documents it."""
    argv = req.argv
    if req.kind == "usage":
        _check_one_line_error(rc, 1, "error: ", out, err)
    elif req.kind == "guard":
        _check_one_line_error(rc, 3, "resource guard: ", out, err)
    elif req.kind == "pipe":
        # only the first line was read before the pipe closed
        _check_clean(rc, 0, err)
        j, e = int(argv[1]), int(argv[2])
        first = f"# j={j} e={e} modulus={refs.fib(j)} period={refs.period(j, e)}\n"
        _expect(out == first, f"pipe: first line {out!r}")
    elif req.kind == "period":
        _check_clean(rc, 0, err)
        j, e = int(argv[1]), int(argv[2])
        if "--format" in argv:
            doc = json.loads(out)
            _expect((doc["j"], doc["e"], doc["outcome"]) == (j, e, refs.period(j, e)), "period: json")
        elif "--verify" in argv:
            lines = out.split("\n")
            _expect(len(lines) == 4 and re.fullmatch(_period_line(j, e), lines[0]) is not None, "period: line 1")
            pis = refs.pisano(refs.fib(j))
            _expect(lines[1:] == [f"oracle: pisano={pis} power_period={refs.period(j, e)}", "agreement: yes", ""], "period: oracle lines")
        else:
            _expect(re.fullmatch(_period_line(j, e) + "\n", out) is not None, f"period: {out!r}")
    elif req.kind == "table":
        check_table(_table_op(argv), rc, out, err)
    elif req.kind == "oracle":
        check_oracle(int(argv[1]), int(argv[2]), rc, out, err)
    elif req.kind == "verify":
        check_verify(tuple(argv[1:]), rc, out, err)
    elif req.kind == "scan":
        (j_lo, j_hi), (e_lo, e_hi) = (map(int, r.split("..")) for r in argv[1:3])
        check_scan(j_lo, j_hi, e_lo, e_hi, rc, out, err)
    else:
        raise ValueError(req.kind)

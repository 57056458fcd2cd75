"""Summarise one set of benchmark runs, or compare two.

    python3 benchmarks/compare.py BASE.jsonl            # spreads of one set
    python3 benchmarks/compare.py BASE.jsonl NEW.jsonl  # NEW against BASE

The files are written by `run.py --out`; only untraced runs are read.  For
each workload and end-to-end metric it prints each side's median and
quartiles, and, for two sets, the pairs NEW won (runs paired by seed) and a
verdict against the metric's bound from BENCHMARK.json:

  unresolved   a side's quartile spread is wider than the bound, and not
               every NEW run beats every BASE run
  REGRESSION   NEW's median is worse than BASE's by more than the bound
  gain         NEW wins at least 9 in 10 pairs and its median is better by
               more than BASE's quartile spread
  same         none of these

It also compares the share of failed operations, which must be equal.  The
exit code is 1 when a regression or a different failed share is found.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["trace"]:
            runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def value(run: dict, metric: str) -> float:
    return run["result"]["metrics"][metric]["value"]


def values(runs: list[dict], metric: str) -> list[float]:
    return [value(r, metric) for r in runs]


def failed_share(runs: list[dict]) -> set[Fraction]:
    return {Fraction(r["result"]["failed"], r["result"]["attempted"]) for r in runs}


def worse(new: float, base: float, better: str) -> float:
    """How much worse new is than base, as a share of base (negative: better)."""
    return (new - base) / base if better == "lower" else (base - new) / base


def describe(vals: list[float]) -> str:
    q1, q2, q3 = quartiles(vals)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}]"


def summarise(runs: dict[str, list[dict]]) -> int:
    print(f"{'workload':9} {'metric':12} {'n':>3} {'median [q1, q3]':>36} {'spread':>7} {'bound':>6}")
    for workload, rs in sorted(runs.items()):
        for name, spec in METRICS.items():
            vals = values(rs, name)
            s = spread(vals)
            flag = "" if name == "setup_s" or s <= spec["bound"] / 3 else ("  wide" if s <= spec["bound"] else "  UNSTEADY")
            print(f"{workload:9} {name:12} {len(vals):3} {describe(vals):>36} {s:7.3f} {spec['bound']:6.2f}{flag}")
        print(f"{workload:9} failed share {sorted(map(str, failed_share(rs)))}")
    return 0


def pair(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in base}
    if all(r["seed"] in by_seed for r in new):
        return [(by_seed[r["seed"]], r) for r in new]
    return list(zip(base, new))


def compare(base_runs: dict[str, list[dict]], new_runs: dict[str, list[dict]]) -> int:
    status = 0
    print(f"{'workload':9} {'metric':12} {'base median [q1, q3]':>36} {'new median [q1, q3]':>36} {'won':>6} {'worse':>7}  verdict")
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = base_runs[workload], new_runs[workload]
        pairs = pair(base, new)
        for name, spec in METRICS.items():
            b, n = values(base, name), values(new, name)
            better, bound = spec["better"], spec["bound"]
            won = sum(worse(value(y, name), value(x, name), better) < 0 for x, y in pairs)
            change = worse(statistics.median(n), statistics.median(b), better)
            all_better = all(worse(y, x, better) < 0 for x in b for y in n)
            if max(spread(b), spread(n)) > bound and not all_better:
                verdict = "unresolved"
            elif change > bound:
                verdict = "REGRESSION"
                status = 1
            elif -change > spread(b) and won >= 0.9 * len(pairs):
                verdict = "gain"
            else:
                verdict = "same"
            print(f"{workload:9} {name:12} {describe(b):>36} {describe(n):>36} {won:>2}/{len(pairs):<3} {change:+7.3f}  {verdict}")
        fb, fn = failed_share(base), failed_share(new)
        same = fb == fn and len(fb) == 1
        if not same:
            status = 1
        print(f"{workload:9} failed share base {sorted(map(str, fb))} new {sorted(map(str, fn))}: {'same' if same else 'DIFFERENT'}")
    return status


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        sys.stderr.write(__doc__)
        return 2
    if len(argv) == 1:
        return summarise(load(argv[0]))
    return compare(load(argv[0]), load(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

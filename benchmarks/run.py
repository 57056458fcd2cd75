"""powerfib's end-to-end and per-layer benchmark.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Workloads (see README.md): certify, tables, sweeps, cli.
With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced run over the same operations.  --out FILE also appends the run,
with its workload and seed, to FILE as one JSON line, for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import tracer  # noqa: E402
import workloads as wl  # noqa: E402

START_TIMEOUT = 60
START_PAIRS = 9  # bare and import starts behind cli.interpreter_ms / cli.import_ms
SETUP_PER_ROUND = 2  # setup_s starts before the first round and after each
# Once it has wl.MIN_OPS latencies, an untraced run takes no new round after
# this many times --seconds, and a traced one after WALL_CAP seconds, so
# that every run ends in time.
OVERRUN = 1.25
WALL_CAP = 140

CLI_ONLY = ("cli.cmd_period", "cli.cmd_oracle", "cli.cmd_verify")

# what each workload imports before its first operation
SETUP_IMPORT = {
    "certify": "powerfib.cli",
    "tables": "powerfib.cli",
    "sweeps": "powerfib.identities",
    "cli": "powerfib.cli",
}


def child_env(**extra) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra)
    env.pop("PYTHONSTARTUP", None)
    return env


def start_seconds(code: str) -> float:
    """Fresh interpreter start to the end of `code`, by the monotonic clock."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys, time\nsys.stdout.write(repr(time.monotonic()))"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=START_TIMEOUT,
        check=True,
    )
    return float(proc.stdout) - t0


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


class Outcome:
    """Latencies, failed operations, and the first few problems seen."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def judge(self, check, *args) -> None:
        try:
            check(*args)
        except wl.OpFailed as err:
            self.fail(str(err))
        except (wl.WrongOutput, ValueError, LookupError, TypeError) as err:
            self.correct = False
            self._note(f"WRONG: {err!r}")

    def fail(self, reason: str) -> None:
        self.failed += 1
        self._note(f"failed: {reason}")

    def _note(self, text: str) -> None:
        if len(self.notes) < 5:
            self.notes.append(text)


def run_rounds(rounds, run_op, between, deadline: float) -> Outcome:
    """Every operation of every round, calling `between` around each round."""
    outcome = Outcome()
    between()
    for r, ops in enumerate(rounds):
        if time.monotonic() > deadline and len(outcome.latencies) >= wl.MIN_OPS:
            sys.stderr.write(f"stopped after {r} of {len(rounds)} rounds, out of time\n")
            break
        for op in ops:
            run_op(op, outcome)
        between()
    return outcome


# ------------------------------------------------------------- in-process


def cli_in_process(argv_of, check, trace):
    """An operation that calls powerfib.cli.main with stdout captured."""
    from powerfib import cli

    def run_op(op, outcome):
        out, err = io.StringIO(), io.StringIO()
        argv = argv_of(op)
        stdout = tracer.CountingWriter(trace, out) if trace else out
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as exc:  # an escaped exception is a failed operation
                rc = exc
            outcome.latencies.append(time.perf_counter() - t0)
        if isinstance(rc, Exception):
            outcome.fail(f"{argv}: {rc!r}")
        else:
            outcome.judge(check, op, rc, out.getvalue(), err.getvalue())

    return run_op


def sweep_op(op, outcome):
    from powerfib import identities
    from powerfib.errors import ResourceGuardError

    t0 = time.perf_counter()
    try:
        result = wl.run_sweep(identities, op)
    except (ValueError, ResourceGuardError) as exc:
        outcome.latencies.append(time.perf_counter() - t0)
        outcome.fail(f"{op!r}: {exc!r}")
        return
    outcome.latencies.append(time.perf_counter() - t0)
    outcome.judge(wl.check_sweep, op, result)


# -------------------------------------------------------------------- cli


def request(req, trace_file: str | None) -> tuple[int, str, str]:
    """One request in a fresh interpreter: exit code, stdout, stderr."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "powerfib", *req.argv]
        env = child_env()
    else:
        cmd = [sys.executable, str(BENCH_DIR / "launcher.py"), *req.argv]
        env = child_env(BENCH_TRACE_FILE=trace_file)
    if req.kind != "pipe":
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=START_TIMEOUT)
        return proc.returncode, proc.stdout, proc.stderr
    # read one line, then close the pipe, as `| head -1` does
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        rc = proc.wait(timeout=START_TIMEOUT)
    return rc, first, err


class CliRequests:
    """Runs requests as child processes; traced, it merges their summaries."""

    def __init__(self, trace_dir: str | None):
        self.trace_dir = trace_dir
        self.by_kind: dict[str, list[float]] = {}
        self.layers: dict[str, float] = {}

    def __call__(self, req, outcome):
        trace_file = None
        if self.trace_dir:
            trace_file = os.path.join(self.trace_dir, f"req{len(outcome.latencies)}.json")
        t0 = time.perf_counter()
        try:
            rc, out, err = request(req, trace_file)
        except subprocess.TimeoutExpired:
            rc = None
        elapsed = time.perf_counter() - t0
        outcome.latencies.append(elapsed)
        self.by_kind.setdefault(req.kind, []).append(elapsed)
        if rc is None:
            outcome.fail(f"{req.argv} timed out")
        else:
            outcome.judge(wl.check_request, req, rc, out, err)
        if trace_file and os.path.exists(trace_file):
            with open(trace_file) as fh:
                summary = json.load(fh)
            os.remove(trace_file)
            if req.kind == "pipe":
                # how much it wrote depends on when the reader closed the pipe
                del summary["cli.stdout_bytes"], summary["cli.stdout_writes"]
            for key, value in summary.items():
                self.layers[key] = self.layers.get(key, 0) + value


# ----------------------------------------------------------------- metrics


def end_to_end(workload: str, outcome: Outcome, setup: list[float]) -> dict:
    ordered = sorted(outcome.latencies)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(ordered) / sum(ordered), "unit": "1/s"},
        "p50_ms": {"value": percentile(ordered, 0.5) * 1000, "unit": "ms"},
        "p90_ms": {"value": percentile(ordered, 0.9) * 1000, "unit": "ms"},
        # ru_maxrss is in KiB on Linux; for children it is the largest one
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024, "unit": "MB"},
    }


def start_figures() -> dict:
    """cli.interpreter_ms and cli.import_ms, from interleaved fresh starts."""
    bare, full = [], []
    for _ in range(START_PAIRS):
        bare.append(start_seconds("pass"))
        full.append(start_seconds("import powerfib.cli"))
    interpreter = statistics.median(bare)
    return {
        "cli.interpreter_ms": interpreter * 1000,
        "cli.import_ms": (statistics.median(full) - interpreter) * 1000,
    }


def per_layer(trace_obj: tracer.Tracer, requests: CliRequests | None) -> dict:
    values = trace_obj.summary()
    if requests:
        for key, value in requests.layers.items():
            values[key] += value
    values.update(start_figures())
    if requests:
        for kind in ("period", "table", "oracle", "verify", "scan"):
            values[f"cli.request.{kind}.p50_ms"] = statistics.median(requests.by_kind[kind]) * 1000
    else:
        # only the cli workload, run by hand, calls these
        for name in CLI_ONLY:
            del values[f"{name}.calls"], values[f"{name}.self_ms"]
    out = {}
    for key, value in values.items():
        unit = "count" if key.endswith(".calls") or key in tracer.COUNTS else "ms"
        out[key] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=SETUP_IMPORT, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "powerfib" / "__init__.py").is_file():
        sys.stderr.write(f"error: no powerfib sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import powerfib.cli  # also writes the bytecode cache before any start is timed

    if Path(powerfib.cli.__file__).resolve().parents[1] != SRC:
        sys.stderr.write(f"error: powerfib was imported from {powerfib.cli.__file__}, not {SRC}\n")
        return 2

    started = time.monotonic()
    trace_obj = tracer.install() if args.trace else None
    setup: list[float] = []
    if args.trace:
        def between():
            pass

        deadline = started + WALL_CAP
    else:
        # fresh starts around every round, so that their median spans the run
        module = SETUP_IMPORT[args.workload]
        start_seconds(f"import {module}")  # warm-up, untimed

        def between():
            setup.extend(start_seconds(f"import {module}") for _ in range(SETUP_PER_ROUND))

        deadline = started + OVERRUN * args.seconds

    requests = None
    ops_started = time.monotonic()
    if args.workload == "cli":
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
            requests = CliRequests(tmp if args.trace else None)
            outcome = run_rounds(wl.cli_rounds(args.seed, args.seconds), requests, between, deadline)
    elif args.workload == "sweeps":
        rounds = wl.sweeps_rounds(args.seed, args.seconds)
        wl.factor_references()
        outcome = run_rounds(rounds, sweep_op, between, deadline)
    elif args.workload == "certify":
        j_max = wl.certify_j_max(args.seconds)
        run_op = cli_in_process(lambda j: wl.certify_argv(j, j_max), wl.check_certify, trace_obj)
        outcome = run_rounds(wl.certify_rounds(args.seed, args.seconds), run_op, between, deadline)
    else:
        run_op = cli_in_process(wl.TableOp.argv, wl.check_table, trace_obj)
        outcome = run_rounds(wl.tables_rounds(args.seed, args.seconds), run_op, between, deadline)
    ops_wall = time.monotonic() - ops_started

    if args.trace:
        metrics = per_layer(trace_obj, requests)
    else:
        metrics = end_to_end(args.workload, outcome, setup)

    for note in outcome.notes:
        sys.stderr.write(note + "\n")
    sys.stderr.write(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(outcome.latencies)} ops, "
        f"{outcome.failed} failed, op time {sum(outcome.latencies):.3f} s, "
        f"operations wall {ops_wall:.3f} s\n"
    )
    result = {
        "correct": outcome.correct,
        "attempted": len(outcome.latencies),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "ops_wall_s": ops_wall, "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

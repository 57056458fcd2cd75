"""Span recording around powerfib's public functions, from outside the program.

`install()` wraps each function in TRACED and rebinds the name in every
powerfib module that holds it, so calls made inside the package (for example
`oracle` calling `fib_exact`) pass through the wrapper while the program's
files stay unchanged.  Each span keeps its function, start, end and parent;
each thread records into its own buffers, so the parent is always on the
same thread.  Spans stay in memory until `summary()` reduces them.

A function's self time is the sum over its spans of the span's duration
minus the time its child spans on the same thread cover.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter

TRACED = {
    "fibcore": ("fib_exact", "fib_prefix", "fib_pair_mod", "fib_mod", "pow_mod"),
    "oracle": ("pisano_period", "sequence_prefix", "minimal_period_bruteforce"),
    "periodicity": ("period_closed_form",),
    "residue_tables": ("residues_e1", "residues_e2", "residues_general", "case_breakdown"),
    "identities": (
        "sweep_gcd",
        "sweep_addition",
        "sweep_catalan",
        "sweep_cassini",
        "sweep_square_lemma",
        "sweep_zero_positions",
        "sweep_carmichael",
        "primitive_prime_divisor",
        "check_square_lemma",
    ),
    "cli": ("main", "cmd_period", "cmd_table", "cmd_oracle", "cmd_verify", "cmd_scan"),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in TRACED.items() for name in names)

COUNTS = (
    "oracle.window_terms",
    "oracle.divisors_checked",
    "oracle.scan_comparisons",
    "residue_tables.entries",
    "identities.cases",
    "cli.stdout_bytes",
    "cli.stdout_writes",
)


class _Buffer:
    """One thread's spans, as parallel arrays, plus its open-span stack."""

    def __init__(self):
        self.fid = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buffers: list[_Buffer] = []
        self.counts = dict.fromkeys(COUNTS, 0)

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self.buffers.append(buf)
        return buf

    def add(self, name: str, amount: int) -> None:
        # scan's pool threads report oracle counts concurrently
        with self._lock:
            self.counts[name] += amount

    def wrap(self, fid: int, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            idx = len(buf.start)
            buf.fid.append(fid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.start.append(perf_counter())
            buf.end.append(0.0)
            buf.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict[str, float]:
        """calls and self_ms per traced function, plus the named counts."""
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for buf in self.buffers:
            child = [0.0] * len(buf.start)
            for i in range(len(buf.start)):
                duration = buf.end[i] - buf.start[i]
                fid = buf.fid[i]
                calls[fid] += 1
                self_s[fid] += duration
                if buf.parent[i] >= 0:
                    child[buf.parent[i]] += duration
            for i, covered in enumerate(child):
                self_s[buf.fid[i]] -= covered
        out: dict[str, float] = {}
        for fid, name in enumerate(FUNCTIONS):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_ms"] = self_s[fid] * 1000.0
        out.update(self.counts)
        return out


def _count_window(tracer, args, kwargs, result):
    tracer.add("oracle.window_terms", len(result))


def _count_oracle(tracer, args, kwargs, result):
    comparisons = 0
    for check in result.checked_divisors:
        if check.witness_index is None:
            comparisons += result.pisano
        else:
            comparisons += check.witness_index + 1
    tracer.add("oracle.divisors_checked", len(result.checked_divisors))
    tracer.add("oracle.scan_comparisons", comparisons)


def _count_entries(tracer, args, kwargs, result):
    tracer.add("residue_tables.entries", len(result.residues))


def _count_cases(tracer, args, kwargs, result):
    tracer.add("identities.cases", result.cases_checked)


_COUNTERS = {
    "oracle.sequence_prefix": _count_window,
    "oracle.minimal_period_bruteforce": _count_oracle,
    "residue_tables.residues_e1": _count_entries,
    "residue_tables.residues_e2": _count_entries,
    "residue_tables.residues_general": _count_entries,
    **{f"identities.{name}": _count_cases for name in TRACED["identities"] if name.startswith("sweep_")},
}


def install() -> Tracer:
    """Wrap every function in TRACED, in every powerfib module that binds it."""
    import powerfib.cli  # noqa: F401  (loads every module that binds a traced name)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name == "powerfib" or name.startswith("powerfib.")]
    for fid, qualified in enumerate(FUNCTIONS):
        mod_name, name = qualified.split(".")
        original = getattr(sys.modules[f"powerfib.{mod_name}"], name)
        wrapper = tracer.wrap(fid, original, _COUNTERS.get(qualified))
        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
    return tracer


class CountingWriter:
    """Stands in for a text stream and counts what the program writes to it."""

    def __init__(self, tracer: Tracer, stream):
        self._tracer = tracer
        self._stream = stream

    def write(self, text: str) -> int:
        # powerfib writes ASCII only, so characters are bytes
        self._tracer.counts["cli.stdout_bytes"] += len(text)
        self._tracer.counts["cli.stdout_writes"] += 1
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)

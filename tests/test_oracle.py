from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerfib import cli, oracle
from powerfib.errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from powerfib.fibcore import fib_exact, fib_mod, pow_mod
from powerfib.oracle import (
    DEFAULT_J_MAX,
    DivisorCheck,
    OracleTrace,
    minimal_period_bruteforce,
    pisano_period,
    sequence_prefix,
)
from powerfib.periodicity import period_closed_form


def test_pisano_examples():
    assert pisano_period(2) == 3
    assert pisano_period(8) == 12
    assert pisano_period(13) == 28


def test_pisano_rejects_tiny_moduli():
    for m in (1, 0, -2):
        with pytest.raises(InvalidModulusError):
            pisano_period(m)


def test_pisano_of_fibonacci_moduli_matches_e1_period():
    for j in range(4, 23):
        assert pisano_period(fib_exact(j)) == period_closed_form(j, 1).period, j


def test_sequence_prefix_small():
    assert sequence_prefix(6, 1, 13) == [0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1, 0]
    assert sequence_prefix(7, 2, 14) == [0, 1, 1, 4, 9, 12, 12, 0, 12, 12, 9, 4, 1, 1]
    assert sequence_prefix(5, 4, 1) == [0]
    # frozen from an independent stepped run
    assert sequence_prefix(9, 5, 12) == [0, 1, 1, 32, 5, 31, 26, 13, 21, 0, 21, 21]


def test_sequence_prefix_domain():
    with pytest.raises(InvalidModulusError):
        sequence_prefix(2, 1, 5)
    with pytest.raises(OutOfDomainError):
        sequence_prefix(6, 0, 5)
    with pytest.raises(OutOfDomainError):
        sequence_prefix(6, 1, 0)


def test_sequence_prefix_agrees_with_fast_doubling():
    for j, e in ((5, 1), (8, 3), (11, 2), (14, 5)):
        m = fib_exact(j)
        prefix = sequence_prefix(j, e, 40)
        for i, value in enumerate(prefix):
            assert value == pow_mod(fib_mod(i, m), e, m), (j, e, i)


def test_minimal_period_examples():
    assert minimal_period_bruteforce(6, 2).power_period == 6
    assert minimal_period_bruteforce(5, 1).power_period == 20
    assert minimal_period_bruteforce(11, 6).power_period == 22


def test_trace_divisor_evidence():
    trace = minimal_period_bruteforce(6, 2)
    assert trace.modulus == 8
    assert trace.pisano == 12
    checked = {c.d: c for c in trace.checked_divisors}
    assert set(checked) == {1, 2, 3, 4, 6}
    assert checked[6].verdict == "holds" and checked[6].witness_index is None
    for d in (1, 2, 3, 4):
        assert checked[d].verdict == "fails"
        assert checked[d].witness_index is not None


def test_trace_invariants_on_grid():
    for j in range(3, 15):
        for e in range(1, 5):
            trace = minimal_period_bruteforce(j, e)
            assert trace.pisano % trace.power_period == 0
            window = sequence_prefix(j, e, trace.pisano)
            smaller = [
                d
                for d in range(1, trace.power_period)
                if trace.pisano % d == 0
            ]
            failed = {c.d for c in trace.checked_divisors if c.verdict == "fails"}
            assert failed == set(smaller), (j, e)
            for c in trace.checked_divisors:
                if c.verdict == "fails":
                    i = c.witness_index
                    assert window[i] != window[(i + c.d) % trace.pisano], (j, e, c)
                else:
                    assert c.d == trace.power_period


def test_guard_and_domain():
    with pytest.raises(ResourceGuardError):
        minimal_period_bruteforce(DEFAULT_J_MAX + 1, 1)
    with pytest.raises(OutOfDomainError):
        minimal_period_bruteforce(2, 1)
    with pytest.raises(OutOfDomainError):
        minimal_period_bruteforce(6, 0)
    # a bad exponent is a domain error before the guard looks at j
    for j in (DEFAULT_J_MAX + 1, 10**400):
        for e in (0, -1):
            with pytest.raises(OutOfDomainError, match=f"exponent must be at least 1, got {e}"):
                minimal_period_bruteforce(j, e)


def test_guard_and_domain_with_that_j_remembered():
    minimal_period_bruteforce(30, 1, j_max=30)
    with pytest.raises(ResourceGuardError):
        minimal_period_bruteforce(30, 2)
    minimal_period_bruteforce(6, 1)
    with pytest.raises(OutOfDomainError):
        minimal_period_bruteforce(6, 0)
    with pytest.raises(OutOfDomainError):
        minimal_period_bruteforce(6, -1)


def test_guard_is_configurable():
    trace = minimal_period_bruteforce(26, 1, j_max=30)
    assert trace.power_period == 52


def test_to_record_shape():
    rec = minimal_period_bruteforce(6, 2).to_record()
    assert rec["modulus"] == "8"
    assert rec["pisano"] == 12
    assert rec["power_period"] == 6
    assert rec["checked_divisors"][0] == {"d": 1, "verdict": "fails", "witness_index": 0}
    assert rec["checked_divisors"][-1] == {"d": 6, "verdict": "holds"}


def _cold_trace(j: int, e: int) -> OracleTrace:
    """The oracle's answer from a window built afresh, with the same divisor scan."""
    m = fib_exact(j)
    p0 = pisano_period(m)
    window = sequence_prefix(j, e, p0)
    checked = []
    for d in (d for d in range(1, p0 + 1) if p0 % d == 0):
        witness = next((i for i in range(p0) if window[i] != window[(i + d) % p0]), None)
        if witness is None:
            checked.append(DivisorCheck(d=d, verdict="holds"))
            return OracleTrace(m, p0, d, tuple(checked))
        checked.append(DivisorCheck(d=d, verdict="fails", witness_index=witness))
    raise AssertionError(f"p0={p0} is not a period of F_i^{e} mod F_{j}")


# runs of consecutive exponents at one j, as a scan row asks for them
_runs = st.tuples(st.integers(3, 40), st.integers(1, 12), st.integers(0, 4))


@given(st.lists(_runs, min_size=1, max_size=6))
@example([(9, 3, 1)])  # (j, e) then (j, e + 1)
@example([(9, 4, 0), (9, 3, 0)])  # (j, e + 1) then (j, e)
@example([(9, 3, 0), (10, 4, 0)])  # (j, e) then (j + 1, e + 1)
@example([(9, 3, 0), (9, 3, 0)])  # the same cell twice
def test_remembered_window_gives_the_cold_trace(runs):
    for j, e0, extra in runs:
        for e in range(e0, min(e0 + extra, 12) + 1):
            assert minimal_period_bruteforce(j, e, j_max=40) == _cold_trace(j, e), (j, e)


def _sign_classes_per_entry(m: int, residues: list[int]) -> tuple[list[int], list[int]]:
    """The classes found one entry at a time: c = min(x, m - x), numbered first-seen."""
    seen: dict[int, int] = {}
    values: list[int] = []
    slots: list[int] = []
    for x in residues:
        c = min(x, m - x)
        k = seen.get(c)
        if k is None:
            k = seen[c] = len(values)
            values.append(c)
        slots.append(k if x == c else ~k)
    return values, slots


def test_sign_classes_match_the_per_entry_fold():
    # every third F_j is even, where x = F_j / 2 is its own negation
    for j in range(3, 301):
        m = fib_exact(j)
        window = sequence_prefix(j, 1, pisano_period(m))
        assert oracle._sign_classes(m, window) == _sign_classes_per_entry(m, window), j


# F_297 and F_300 are even, F_299 odd; j = 6 and 12 have no primitive prime,
# and 799, 800 are the `certify` workload's largest rows
@pytest.mark.parametrize("j", [4, 5, 6, 12, 297, 299, 300, 799, 800])
def test_scan_row_steps_sign_classes_to_cold_windows(j):
    for e in range(1, 11):
        m, p0, window = oracle._power_window(j, e)
        assert window == sequence_prefix(j, e, p0), (j, e)
    for e in range(1, 11):
        assert minimal_period_bruteforce(j, e, j_max=j) == _cold_trace(j, e), (j, e)


def test_row_starting_above_e1_takes_the_one_cold_path(monkeypatch):
    # a row's first call finds its classes from the e = 1 walk and powers
    # each class once, at e = 5 as at e = 1; later calls step from there
    monkeypatch.setattr(oracle, "_last_row", None)
    for e in range(5, 11):
        m, p0, window = oracle._power_window(299, e)
        assert window == sequence_prefix(299, e, p0), e
    for e in range(5, 11):
        assert minimal_period_bruteforce(300, e, j_max=300) == _cold_trace(300, e), e


def test_threads_sharing_the_remembered_window_get_cold_traces():
    cells = [(j, e) for j in range(3, 21) for e in range(1, 9)]
    want = {cell: _cold_trace(*cell) for cell in cells}
    wrong = []

    def worker(rows):
        for j in rows:
            for e in range(1, 9):
                if minimal_period_bruteforce(j, e) != want[(j, e)]:
                    wrong.append((j, e))

    threads = [
        threading.Thread(target=worker, args=(list(range(3 + k, 21)) * 5,)) for k in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_scan_builds_one_window_per_row(monkeypatch, capsys):
    calls = {"pisano_period": [], "sequence_prefix": []}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args):
            calls[name].append(args)
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counted(name))
    # a row starting at e = 1 and a row starting above it
    for e_range, cells in (("1..8", 32), ("5..8", 16)):
        for name in calls:
            calls[name].clear()
        assert cli.main(["scan", "20..23", e_range, "--j-max", "25"]) == 0
        assert capsys.readouterr().out.endswith(f"cells={cells} disagreements=0\n")
        assert len(calls["pisano_period"]) == 4, e_range
        # one e = 1 walk per row, whatever exponent the row starts at
        walks = [(j, e) for j, e, _ in calls["sequence_prefix"]]
        assert walks == [(j, 1) for j in range(20, 24)], e_range


def _powerfib_imports(source: str) -> set[str]:
    """The powerfib modules a source imports, named within the package."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "powerfib." * (node.level > 0) + (node.module or "")
            if module.rstrip(".") == "powerfib":
                # `from . import x` and `from powerfib import x` name modules
                found.update(f"powerfib.{alias.name}" for alias in node.names)
            else:
                found.add(module)
    return {name.removeprefix("powerfib.") for name in found if name.startswith("powerfib.")}


def test_oracle_borrows_no_closed_form_logic():
    # the certification rests on the oracle sharing nothing with the closed
    # forms: no periodicity, residue_tables or identities
    assert _powerfib_imports("from . import periodicity\nimport powerfib.identities") == {
        "periodicity",
        "identities",
    }
    assert _powerfib_imports(Path(oracle.__file__).read_text()) == {"errors", "fibcore"}

"""The brute-force oracle.  Its examples are the rows of VALUES (a call and
its exact result, or the part of it a row reads) and its refusals those of
REFUSED (a call and the exact type and message of its error); tests/rows.py
builds the tests from the rows.  The properties, the digests, the memory
bounds and the tests that watch the oracle's row through monkeypatched
helpers stay tests of their own, and so does the check that every message
the library modules raise has a refusal row.
"""

import ast
import collections
import hashlib
import json
import random
import re
import sys
import threading
import tracemalloc
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerfib import cli, errors, fibcore, identities, oracle, periodicity, residue_tables
from powerfib.errors import InvalidModulusError
from powerfib.fibcore import fib_exact, fib_mod, pow_mod
from powerfib.oracle import (
    DivisorCheck,
    OracleTrace,
    minimal_period_bruteforce,
    pisano_period,
    sequence_prefix,
)
from powerfib.periodicity import period_closed_form
from rows import Call, Refusal, check_call, check_refused, define_tests, printing_default_digits
from test_fibcore import REFUSED as FIBCORE_REFUSED
from test_identities import REFUSED as IDENTITIES_REFUSED
from test_periodicity import REFUSED as PERIODICITY_REFUSED
from test_residue_tables import REFUSED as RESIDUE_TABLES_REFUSED


def _after_its_row(j: int, e: int) -> OracleTrace:
    """The oracle at (j, e), called once the row of j is remembered."""
    minimal_period_bruteforce(j, 1)
    return minimal_period_bruteforce(j, e)


power_period = attrgetter("power_period")

VALUES = [
    Call("pisano_examples", pisano_period, (2,), 3),
    Call("pisano_examples", pisano_period, (8,), 12),
    Call("pisano_examples", pisano_period, (13,), 28),
    Call("sequence_prefix_small", sequence_prefix, (6, 1, 13), [0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1, 0]),
    Call("sequence_prefix_small", sequence_prefix, (7, 2, 14), [0, 1, 1, 4, 9, 12, 12, 0, 12, 12, 9, 4, 1, 1]),
    Call("sequence_prefix_small", sequence_prefix, (5, 4, 1), [0]),
    # frozen from an independent stepped run
    Call("sequence_prefix_small", sequence_prefix, (9, 5, 12), [0, 1, 1, 32, 5, 31, 26, 13, 21, 0, 21, 21]),
    # F_6 = 8 and its Pisano period 12: each divisor below 6 fails at i = 0,
    # 0 against F_d^2 mod 8, and 6 holds
    Call(("minimal_period_examples", "trace_divisor_evidence", "to_record_shape"), minimal_period_bruteforce, (6, 2), {
        "modulus": "8",
        "pisano": 12,
        "power_period": 6,
        "checked_divisors": [
            *({"d": d, "verdict": "fails", "witness_index": 0} for d in (1, 2, 3, 4)),
            {"d": 6, "verdict": "holds"},
        ],
    }, OracleTrace.to_record),
    Call("minimal_period_examples", minimal_period_bruteforce, (5, 1), 20, power_period),
    Call("minimal_period_examples", minimal_period_bruteforce, (11, 6), 22, power_period),
    # only the command line's --j-max bounds j
    Call("oracle_takes_any_j", minimal_period_bruteforce, (26, 1), 52, power_period),
]

REFUSED = [
    *(Refusal("pisano_rejects_tiny_moduli", pisano_period, (m,), f"modulus must be at least 2, got {m}", InvalidModulusError)
      for m in (1, 0, -2)),
    Refusal("only_integers_are_admitted", pisano_period, (2.5,), "modulus must be an integer, got 2.5", InvalidModulusError),
    Refusal("only_integers_are_admitted", minimal_period_bruteforce, (7, 1.0), "exponent must be an integer, got 1.0"),
    # 5001 digits, more than Python prints by default: named by its bits
    Refusal("integers_too_wide_to_print_are_named", printing_default_digits(minimal_period_bruteforce),
            (7, -(10**5000)),
            "exponent must be at least 1, got a negative integer of 16610 bits"),
    Refusal("sequence_prefix_domain", sequence_prefix, (2, 1, 5), "j must be at least 3, got 2", InvalidModulusError),
    Refusal("sequence_prefix_domain", sequence_prefix, (6, 0, 5), "exponent must be at least 1, got 0"),
    Refusal("sequence_prefix_domain", sequence_prefix, (6, 1, 0), "prefix length must be at least 1, got 0"),
    Refusal("sequence_prefix_domain", sequence_prefix, (6, 1, -1), "prefix length must be at least 1, got -1"),
    Refusal("domain_errors", minimal_period_bruteforce, (2, 1), "j must be at least 3, got 2"),
    Refusal("domain_errors", minimal_period_bruteforce, (6, 0), "exponent must be at least 1, got 0"),
    # a bad exponent is a domain error whatever the size of j
    *(Refusal("domain_errors", minimal_period_bruteforce, (j, e), f"exponent must be at least 1, got {e}")
      for j in (26, 10**400) for e in (0, -1)),
    *(Refusal("domain_errors_with_that_j_remembered", _after_its_row, (j, e), f"exponent must be at least 1, got {e}")
      for j, e in ((30, 0), (6, 0), (6, -1))),
]

globals().update(define_tests([(check_call, VALUES), (check_refused, REFUSED)]))


def test_pisano_of_fibonacci_moduli_matches_e1_period():
    for j in range(4, 23):
        assert pisano_period(fib_exact(j)) == period_closed_form(j, 1).period, j


def test_sequence_prefix_without_n_walks_one_pisano_period():
    for j in range(3, 401):
        assert len(sequence_prefix(j, 1)) == pisano_period(fib_exact(j)), j
    for j in range(3, 121):
        p0 = pisano_period(fib_exact(j))
        for e in (2, 5):
            assert sequence_prefix(j, e) == sequence_prefix(j, e, p0), (j, e)


def test_sequence_prefix_agrees_with_fast_doubling():
    for j, e in ((5, 1), (8, 3), (11, 2), (14, 5)):
        m = fib_exact(j)
        prefix = sequence_prefix(j, e, 40)
        for i, value in enumerate(prefix):
            assert value == pow_mod(fib_mod(i, m), e, m), (j, e, i)


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


# calls at one j in any order: ascending, descending, repeated or with gaps
_runs = st.tuples(st.integers(3, 40), st.lists(st.integers(1, 40), min_size=1, max_size=6))


@given(st.lists(_runs, min_size=1, max_size=4))
@example([(9, [3, 4])])  # (j, e) then (j, e + 1)
@example([(9, [4, 3])])  # (j, e + 1) then (j, e)
@example([(9, [3]), (10, [4])])  # (j, e) then (j + 1, e + 1)
@example([(9, [3, 3])])  # the same cell twice
# the first pair whose slots differ is equal in value: 2^3 = 0 mod F_6 = 8
@example([(6, [3, 5])])
@example([(299, [4, 8]), (300, [4, 8])])  # e = 4, then its multiple 8, at odd and even j
# a period carried to its multiples: from e = 2 at even j, from e = 2 then e = 4 at odd j
@example([(300, [2, 4, 6, 8])])
@example([(299, [2, 4, 6, 8])])
@example([(299, [4, 2])])  # a period carried to a multiple is not carried back down
# F_6 = 8: period 6 at e = 2 and 3 at e = 4; 12 is a multiple of the held 4, 6 is not
@example([(6, [2, 4, 12, 6])])
@example([(300, [4, 2, 8])])  # e = 2 finds no smaller period than the one held from e = 4
def test_remembered_window_gives_the_cold_trace(runs):
    for j, es in runs:
        for e in es:
            assert minimal_period_bruteforce(j, e) == _cold_trace(j, e), (j, e)


def _sign_classes_per_entry(
    m: int, residues: list[int]
) -> tuple[list[int], list[int], list[int]]:
    """The classes found one entry at a time: c = min(x, m - x), numbered first-seen."""
    seen: dict[int, int] = {}
    values: list[int] = []
    slots: list[int] = []
    classes: list[int] = []
    for x in residues:
        c = min(x, m - x)
        k = seen.get(c)
        if k is None:
            k = seen[c] = len(values)
            values.append(c)
        slots.append(k if x == c else ~k)
        classes.append(k)
    return values, slots, classes


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
    want = {e: _cold_trace(j, e) for e in range(1, 11)}
    oracle._row.cache_clear()
    # the second pass finds the row, and the pair it holds, from the first
    for _ in range(2):
        for e in range(1, 11):
            assert minimal_period_bruteforce(j, e) == want[e], (j, e)


def test_row_starting_above_e1_takes_the_one_cold_path():
    # a row's first call finds its classes from the e = 1 walk, at e = 5 as
    # at e = 1; later calls reuse them
    oracle._row.cache_clear()
    for e in range(5, 11):
        assert minimal_period_bruteforce(299, e) == _cold_trace(299, e), e
    for e in range(5, 11):
        assert minimal_period_bruteforce(300, e) == _cold_trace(300, e), e


def _count_squares_and_scans(monkeypatch) -> tuple[list, list]:
    """Record (m, values, e, keys) of every _square_keys call from here on,
    and (d, i) of every exact scan: a _first_unequal call whose reader is
    the call's power."""
    squared, scanned = [], []
    square_keys, first_unequal = oracle._square_keys, oracle._first_unequal

    def counted_squares(m, values, e):
        keys = square_keys(m, values, e)
        squared.append((m, values, e, keys))
        return keys

    def counted_scan(keys, d, i=0, read=None):
        if getattr(read, "__name__", None) == "power":
            scanned.append((d, i))
        return first_unequal(keys, d, i, read)

    monkeypatch.setattr(oracle, "_square_keys", counted_squares)
    monkeypatch.setattr(oracle, "_first_unequal", counted_scan)
    return squared, scanned


def test_a_row_squares_once_and_scans_no_exact_powers(monkeypatch):
    squared, scanned = _count_squares_and_scans(monkeypatch)
    oracle._row.cache_clear()
    for j in range(7, 41):
        squared.clear()
        for e in range(1, 9):
            minimal_period_bruteforce(j, e)
        # slots settle every odd e; classes settle e = 2 (mod 4) when j is odd;
        # where they leave a check open, at e = 4 (odd j) or e = 2 (even j),
        # the squares settle it, and that period holds at its multiples: the
        # one call squares the classes, and no call scans exact powers
        assert [e for _, _, e, _ in squared] == [4 if j % 2 else 2], j
        m = fib_exact(j)
        values = _sign_classes_per_entry(m, sequence_prefix(j, 1, pisano_period(m)))[0]
        for got_m, got_values, e, keys in squared:
            assert (got_m, got_values) == (m, values), (j, e)
            squares = [c * c % m for c in values]
            assert keys == (squares if e % 4 else [min(s, m - s) for s in squares]), (j, e)
    assert scanned == []
    # rows starting at a huge multiple of 4, with no period held from below:
    # an odd j squares its classes at 4 | e; an even j, whose classes leave
    # checks open at both even residues mod 4, squares them once per keying
    oracle._row.cache_clear()
    for j in range(7, 201):
        squared.clear()
        for e in range(10**18, 10**18 + 4):
            minimal_period_bruteforce(j, e)
        assert len(squared) == (1 if j % 2 else 2), j
    # descending exponents, so no held period carries to a later even e:
    # the row keeps no squares, so a call may square again, but only once
    oracle._row.cache_clear()
    for j in range(7, 41):
        for e in range(12, 0, -1):
            squared.clear()
            minimal_period_bruteforce(j, e)
            assert len(squared) <= 1, (j, e)
    assert scanned == []


def test_each_parity_memo_entry_is_scanned_once(monkeypatch):
    # a key scan with no reader, from i = 0, fills firsts[e % 2][d]; a later
    # call at that parity reads the entry instead of scanning the keys again
    scans = collections.Counter()
    first_unequal = oracle._first_unequal

    def counted_scan(keys, d, i=0, read=None):
        if read is None and i == 0:
            scans[id(keys), d] += 1
        return first_unequal(keys, d, i, read)

    monkeypatch.setattr(oracle, "_first_unequal", counted_scan)
    for j in range(3, 80):
        oracle._row.cache_clear()
        scans.clear()
        for e in [*range(1, 9), *range(8, 0, -1)]:
            minimal_period_bruteforce(j, e)
        assert max(scans.values(), default=0) <= 1, (j, scans.most_common(1))


def _hand_built_row(monkeypatch, m: int, window: list[int]) -> None:
    """Serve the oracle's own row layout for window, a period-p0 window mod m."""
    p0 = len(window)
    values, slots, classes = oracle._sign_classes(m, window)
    row = (m, p0, values, slots, classes, oracle._divisors(p0), ({}, {}), [(1, p0)])
    monkeypatch.setattr(oracle, "_row", lambda j: row)


def _direct_scan(m: int, window: list[int], e: int) -> OracleTrace:
    """Each divisor d of len(window) compared on [x^e mod m], the first
    i < p0 - d with unequal entries its witness, up to the first that holds."""
    p0, powered = len(window), [pow(x, e, m) for x in window]
    checked = []
    for d in (d for d in range(1, p0 + 1) if p0 % d == 0):
        i = next((i for i in range(p0 - d) if powered[i] != powered[i + d]), None)
        if i is None:
            checked.append(DivisorCheck(d, "holds"))
            return OracleTrace(m, p0, d, tuple(checked))
        checked.append(DivisorCheck(d, "fails", i))
    raise AssertionError("p0 always holds")


def test_square_keys_are_exact_at_e_2_mod_4_and_up_to_sign_at_4_divides_e(monkeypatch):
    # mod 65, 14^2 = 1 and 57^2 = -1: the window [1, 1, 14, 57] has equal
    # classes only where its values are equal, squares equal up to sign
    # everywhere, and squares equal exactly except at 57
    m, window = 65, [1, 1, 14, 57]
    squared, scanned = _count_squares_and_scans(monkeypatch)
    for e, want in (
        (2, [DivisorCheck(1, "fails", 2), DivisorCheck(2, "fails", 1), DivisorCheck(4, "holds")]),
        (4, [DivisorCheck(1, "holds")]),
    ):
        # a fresh row per exponent, the oracle's own layout for a window of period 4
        _hand_built_row(monkeypatch, m, window)
        squared.clear()
        trace = minimal_period_bruteforce(3, e)
        assert trace == OracleTrace(m, 4, want[-1].d, tuple(want)), e
        powered = [pow(x, e, m) for x in window]
        for c in want[:-1]:
            assert powered[c.witness_index] != powered[c.witness_index + c.d], (e, c)
        # the squares settle every check: the call squares once, and scans
        # no exact powers
        assert [got for _, _, got, _ in squared] == [e], e
    assert scanned == []


@pytest.mark.parametrize(
    "m, window, e, want",
    [
        # odd e, with negative slots: each 10 is -4 mod 14, and the first
        # differing slots' pair, (6, 10) at d = 2, is equal at e = 3
        (14, [6, 5, 10, 10, 1, 10], 3, [(1, 0), (2, 1), (3, 1), 6]),
        # the square keys differ, 12^2 = 14 against 10^2 = 22 mod 26, but
        # the sixth powers are equal, 14^3 = 22^3 = 14 mod 26
        (26, [12, 10, 16, 23], 6, [(1, 2), (2, 1), 4]),
        (39, [22, 17, 7, 27, 22, 7], 4, [(1, 2), (2, 1), (3, 0), 6]),
    ],
    ids=["mod14-odd-e", "mod26-squares-differ", "mod39"],
)
def test_exact_scan_on_hand_built_rows_away_from_j6(monkeypatch, m, window, e, want):
    _, scanned = _count_squares_and_scans(monkeypatch)
    _hand_built_row(monkeypatch, m, window)
    trace = minimal_period_bruteforce(3, e)
    checks = [DivisorCheck(d, "fails", i) for d, i in want[:-1]]
    checks.append(DivisorCheck(want[-1], "holds"))
    assert trace == OracleTrace(m, len(window), want[-1], tuple(checks))
    assert trace == _direct_scan(m, window, e)
    # the keys and, at even e, the squares leave a check open that only the
    # e-th powers settle
    assert scanned


def test_odd_exponents_scan_exact_powers_only_at_j6(monkeypatch):
    # at odd e a divisor d's first differing slots are at i = 0 (0 against
    # F_d^e, when j does not divide d) or at i = 1 (1 against F_{j-1}^(qe) != 1,
    # for d = qj), so an exact scan needs F_j | F_d^e with j not dividing d: a
    # primitive prime of F_j forbids it for j not in {6, 12}, no one F_d holds
    # both 2 and 3 of F_12, and F_3^e = 2^e is 0 mod F_6 = 8 from e = 3 on
    _, scanned = _count_squares_and_scans(monkeypatch)
    oracle._row.cache_clear()
    reached = []
    for j in range(3, 201):
        for e in range(1, 42, 2):
            scanned.clear()
            minimal_period_bruteforce(j, e)
            if scanned:
                reached.append((j, e))
    assert reached == [(6, e) for e in range(3, 42, 2)]


@given(st.integers(3, 40), st.lists(st.integers(1, 40), min_size=1, max_size=8))
@example(300, [4, 2, 8])  # an equal period leaves the pair alone
@example(299, [8, 4, 2, 1])  # descending: nothing carries down, and the pair never grows
@example(6, [2, 4, 12, 6])
def test_row_holds_one_pair_replaced_only_by_a_smaller_period(j, es):
    oracle._row.cache_clear()
    held = (1, pisano_period(fib_exact(j)))
    for e in es:
        period = _cold_trace(j, e).power_period
        assert minimal_period_bruteforce(j, e).power_period == period, (j, e)
        if period < held[1]:
            held = (e, period)
        assert oracle._row(j)[-1][0] == held, (j, es, e)


def _shuffled_rows() -> list[tuple[int, int]]:
    """j in 3..60, each row's exponents 1..16 and 10^18..10^18+3 in a seeded order."""
    rng = random.Random(32)
    cells = []
    for j in range(3, 61):
        es = [*range(1, 17), *range(10**18, 10**18 + 4)]
        rng.shuffle(es)
        cells += [(j, e) for e in es]
    return cells


# SHA-1 over json.dumps(trace.to_record()) of each call in order, taken with
# the oracle of commit 89c33ac, before its row dropped the negated class
# values; the huge-e grid's with that of commit 657e690, before the oracle
# dropped its per-call e-th power vector
@pytest.mark.parametrize(
    "cells, digest",
    [
        (
            [(j, e) for j in range(3, 301) for e in range(1, 9)],
            "a0a710d7bdd2e7fab1843fafce062b2d7d6f4374",
        ),
        (
            [(j, e) for j in range(3, 121) for e in range(12, 0, -1)],
            "9f779fb6e1b100fb9a074502cc120a112c6e7095",
        ),
        (_shuffled_rows(), "28991a7efd0d1b508c0b0397b0f478c4e6dc3c04"),
        (
            [(j, e) for j in range(3, 201) for e in range(10**18, 10**18 + 4)],
            "9568d164bccb4684991eadf8d8ee0b418a8a4f84",
        ),
    ],
    ids=["ascending", "descending", "shuffled", "huge-e"],
)
def test_traces_keep_their_digest(cells, digest):
    oracle._row.cache_clear()
    sha = hashlib.sha1()
    for j, e in cells:
        sha.update(json.dumps(minimal_period_bruteforce(j, e).to_record()).encode())
    assert sha.hexdigest() == digest


def test_row_keeps_each_class_value_once():
    # a copy of the class values, or of their negations F_j - c, raises what a
    # cold row holds from 0.35 to 0.87 of p0 full-width integers
    j = 5000
    oracle._row.cache_clear()
    tracemalloc.start()
    try:
        p0 = minimal_period_bruteforce(j, 1).pisano
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * p0 * sys.getsizeof(fib_exact(j))


def test_row_keeps_no_squares_or_powers_after_calls_at_every_residue_mod_4():
    # each call's squares and e-th powers serve that call alone: after e in
    # 1..8 a row holds what a cold e = 1 row holds, within the same bound
    j = 5000
    oracle._row.cache_clear()
    tracemalloc.start()
    try:
        for e in range(1, 9):
            p0 = minimal_period_bruteforce(j, e).pisano
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 0.6 * p0 * sys.getsizeof(fib_exact(j))


def test_one_row_is_kept_and_refused_calls_leave_it_alone(capsys):
    oracle._row.cache_clear()
    minimal_period_bruteforce(20, 3)
    minimal_period_bruteforce(21, 3)
    # the row of 21 replaced the row of 20: one row's memory at most
    kept = oracle._row.cache_info()
    assert (kept.misses, kept.currsize) == (2, 1)
    # the domain checks, and the command line's guard, run before any row is built or read
    assert cli.main(["oracle", "22", "3", "--j-max", "21"]) == 3
    assert capsys.readouterr().err == "resource guard: j=22 exceeds the oracle guard j_max=21\n"
    check_refused(Refusal(None, minimal_period_bruteforce, (21, 0), "exponent must be at least 1, got 0"))
    check_refused(Refusal(None, minimal_period_bruteforce, (2, 3), "j must be at least 3, got 2"))
    assert oracle._row.cache_info() == kept
    oracle._row.cache_clear()
    assert oracle._row.cache_info().currsize == 0
    assert minimal_period_bruteforce(21, 4) == _cold_trace(21, 4)
    fresh = oracle._row.cache_info()
    assert (fresh.hits, fresh.misses, fresh.currsize) == (0, 1, 1)


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
    # a remembered row serves any exponent, so start with none
    oracle._row.cache_clear()
    # a row starting at e = 1 and a row starting above it
    for e_range, cells in (("1..8", 32), ("5..8", 16)):
        for name in calls:
            calls[name].clear()
        assert cli.main(["scan", "20..23", e_range, "--j-max", "25"]) == 0
        assert capsys.readouterr().out.endswith(f"cells={cells} disagreements=0\n")
        assert calls["pisano_period"] == [], e_range
        # one e = 1 walk of one Pisano period per row, whatever exponent the row starts at
        assert calls["sequence_prefix"] == [(j, 1) for j in range(20, 24)], e_range


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


def test_every_message_the_library_raises_has_a_row():
    # each message errors, fibcore, oracle, periodicity, residue_tables and
    # identities raise, its formatted values read as any text, against every
    # refusal row of their five test files: one word changed in a message
    # leaves it without a row
    patterns = []
    for module in (errors, fibcore, oracle, periodicity, residue_tables, identities):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Raise):
                text = node.exc.args[0]
                parts = text.values if isinstance(text, ast.JoinedStr) else [text]
                patterns.append("".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts))
    assert len(patterns) == 13  # so a walk that finds none cannot pass
    rows = FIBCORE_REFUSED + PERIODICITY_REFUSED + RESIDUE_TABLES_REFUSED + IDENTITIES_REFUSED + REFUSED
    assert [p for p in patterns if not any(re.fullmatch(p, row.message) for row in rows)] == []

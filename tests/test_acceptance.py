"""End-to-end acceptance checks.

One check per numbered criterion; each prints a single
``ACCEPTANCE <n> PASS|FAIL`` line (run with ``-s`` to see them live)
before asserting, so a red run still leaves a full scoreboard.

Check 6 asserts the exact set of indexes in [3, 40] whose Fibonacci
number has no primitive prime divisor.  By Carmichael's theorem (1913)
that set is {6, 12} for j >= 3: F_6 = 8 = 2**3 with 2 | F_3, and
F_12 = 144 = 2**4 * 3**2 with 2 | F_3 and 3 | F_4.
"""

import random
import time

from powerfib.fibcore import fib_exact, fib_mod
from powerfib.identities import (
    ALL_PASS,
    VERIFY_SUITE,
    primitive_prime_divisor,
    sweep_addition,
    sweep_cassini,
    sweep_catalan,
    sweep_gcd,
    sweep_square_lemma,
)
from powerfib.oracle import minimal_period_bruteforce, sequence_prefix
from powerfib.periodicity import period_closed_form
from powerfib.residue_tables import residues_e1, residues_e2


def _report(num, ok, elapsed, budget, desc):
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num} {verdict} ({elapsed:.3f}s / budget {budget:g}s): {desc}")


GOLDEN_E1 = {
    4: (0, 1, 1, 2, 0, 2, 2, 1),
    5: (0, 1, 1, 2, 3, 0, 3, 3, 1, 4, 0, 4, 4, 3, 2, 0, 2, 2, 4, 1),
    6: (0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1),
    7: (
        0, 1, 1, 2, 3, 5, 8, 0, 8, 8, 3, 11, 1, 12,
        0, 12, 12, 11, 10, 8, 5, 0, 5, 5, 10, 2, 12, 1,
    ),
}
GOLDEN_E2 = {
    6: (0, 1, 1, 4, 1, 1),
    7: (0, 1, 1, 4, 9, 12, 12, 0, 12, 12, 9, 4, 1, 1),
}


def test_criterion_1_golden_tables():
    start = time.perf_counter()
    ok = True
    for j, want in GOLDEN_E1.items():
        table = residues_e1(j)
        ok = ok and table.residues == want
        ok = ok and tuple(sequence_prefix(j, 1, table.period)) == want
    for j, want in GOLDEN_E2.items():
        table = residues_e2(j)
        ok = ok and table.residues == want
        ok = ok and tuple(sequence_prefix(j, 2, table.period)) == want
    elapsed = time.perf_counter() - start
    _report(1, ok, elapsed, 1, "hand-checkable residue tables, e=1 j=4..7 and e=2 j=6,7")
    assert ok
    assert elapsed < 1


def test_criterion_2_closed_form_matches_oracle_grid():
    start = time.perf_counter()
    cells = 0
    mismatches = []
    for j in range(4, 23):
        for e in range(1, 9):
            closed = period_closed_form(j, e).period
            brute = minimal_period_bruteforce(j, e).power_period
            cells += 1
            if closed != brute:
                mismatches.append((j, e, closed, brute))
    elapsed = time.perf_counter() - start
    ok = cells == 152 and not mismatches
    _report(2, ok, elapsed, 60, "closed form == brute force on j in [4,22] x e in [1,8]")
    assert cells == 152
    assert mismatches == []
    assert elapsed < 60


def test_criterion_3_j6_period_family():
    start = time.perf_counter()
    expected = {e: 12 for e in (1, 3, 5, 7, 9, 11)}
    expected[2] = 6
    expected.update({e: 3 for e in (4, 6, 8, 10)})
    ok = True
    for e, want in sorted(expected.items()):
        closed = period_closed_form(6, e).period
        certified = minimal_period_bruteforce(6, e).power_period
        ok = ok and closed == want == certified
    elapsed = time.perf_counter() - start
    _report(3, ok, elapsed, 5, "mod F_6 = 8 periods: 12 (odd e), 6 (e=2), 3 (even e >= 4)")
    assert ok
    assert elapsed < 5


def test_criterion_4_parity_rules():
    start = time.perf_counter()
    ok = True
    for j in range(4, 23):
        p1 = period_closed_form(j, 1).period
        p2 = period_closed_form(j, 2).period
        if j == 6:
            ok = ok and p1 == 12 and p2 == 6
        elif j % 2 == 0:
            ok = ok and p1 == 2 * j and p2 == j
        else:
            ok = ok and p1 == 4 * j and p2 == 2 * j
        ok = ok and p1 in (2 * j, 4 * j) and p2 in (j, 2 * j)
    elapsed = time.perf_counter() - start
    _report(4, ok, elapsed, 1, "parity split: e=1 periods 2j/4j, e=2 periods j/2j, j in [4,22]")
    assert ok
    assert elapsed < 1


def test_criterion_5_identity_suites():
    start = time.perf_counter()
    reports = [
        sweep_gcd(),
        sweep_addition(80, 80),
        sweep_catalan(80),
        sweep_cassini(120),
        sweep_square_lemma(30),
    ]
    elapsed = time.perf_counter() - start
    ok = all(r.verdict == ALL_PASS for r in reports)
    _report(5, ok, elapsed, 10, "gcd/addition/catalan/cassini/square-lemma sweeps all pass")
    assert [r.identity_name for r in reports if r.verdict != ALL_PASS] == []
    assert elapsed < 10


def test_criterion_6_primitive_prime_sweep():
    start = time.perf_counter()
    exceptions = []
    for j in range(3, 41):
        if primitive_prime_divisor(j).primitive_prime is None:
            exceptions.append(j)
    trace_6 = primitive_prime_divisor(6).factor_trace
    trace_12 = primitive_prime_divisor(12).factor_trace
    elapsed = time.perf_counter() - start
    ok = (
        exceptions == [6, 12]
        and trace_6 == ((2, 3),)
        and trace_12 == ((2, 4), (3, 2))
    )
    _report(
        6, ok, elapsed, 10,
        "primitive prime for every j in [3,40] except exactly j in {6, 12} (Carmichael)",
    )
    assert trace_6 == ((2, 3),)
    assert trace_12 == ((2, 4), (3, 2))
    assert elapsed < 10
    assert exceptions == [6, 12], (
        f"indexes in [3, 40] with no primitive prime divisor: {exceptions}, "
        "not [6, 12]. Carmichael's theorem (1913) gives exactly {6, 12} for "
        "j >= 3: F_6 = 2**3 with 2 | F_3, and F_12 = 2**4 * 3**2 with "
        "2 | F_3 and 3 | F_4; every other F_j has a primitive prime."
    )


def test_criterion_7_zero_positions():
    start = time.perf_counter()
    # every (j, e, i) with j in 4..20 but 6, e in 1..5 and i <= 5j, which is
    # 5 (5j + 1) cases per j, then j = 6 apart: F_3^3 = 8 vanishes mod
    # F_6 = 8 though 6 does not divide 3
    sweep, j6 = VERIFY_SUITE["zero_positions"]()
    ok = (sweep.verdict, sweep.cases_checked, sweep.domain_description) == (
        "all_pass", 5030, "j in {4..20} minus 6, e in [1, 5], i <= 5*j"
    )
    ok = ok and j6.verdict == "not_applicable" and j6.counterexample.inputs == {"j": 6, "e": 3, "i": 3}
    elapsed = time.perf_counter() - start
    _report(7, ok, elapsed, 10, "F_i^e = 0 mod F_j iff j | i (j != 6), with the j=6 witness")
    assert ok
    assert elapsed < 10


def _linear_pair(n, m):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) % m
    return a % m


def test_criterion_8_fast_doubling_certified_and_fast():
    rng = random.Random(20260818)
    ok = True
    for _ in range(500):
        n = rng.randrange(0, 10**5 + 1)
        m = rng.randrange(2, 10**4 + 1)
        if fib_mod(n, m) != _linear_pair(n, m):
            ok = False
            break
    modulus = fib_exact(60)
    best = min(
        _timed_once(lambda: fib_mod(10**18, modulus)) for _ in range(3)
    )
    _report(8, ok and best < 0.1, best, 0.1, "fib_mod(10^18, F_60) wall time, best of 3")
    assert ok
    assert best < 0.1


def _timed_once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start

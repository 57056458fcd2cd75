"""Exact and modular Fibonacci arithmetic.  Its examples and goldens are the
rows of VALUES (a call and its exact result) and its refusals those of
REFUSED (a call and the exact type and message of its error); the
properties, the reference grid and the doubling-cost timing stay tests of
their own.  tests/rows.py builds the tests from the rows.
"""

import time

from hypothesis import example, given
from hypothesis import strategies as st

from powerfib.errors import InvalidModulusError
from powerfib.fibcore import (
    fib_exact,
    fib_mod,
    fib_pair_mod,
    fib_prefix,
    pow_mod,
)
from rows import Call, Refusal, check_call, check_refused, define_tests, printing_default_digits


def linear_pair(n: int, m: int) -> tuple[int, int]:
    """Reference route: n single steps, sharing nothing with fast doubling."""
    a, b = 0 % m, 1 % m
    for _ in range(n):
        a, b = b, (a + b) % m
    return a, b


VALUES = [
    *(
        Call("fib_exact_small_values", fib_exact, (n,), f)
        for n, f in enumerate([0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144])
    ),
    # classic value, frozen from a separate step-by-step run
    Call("fib_exact_f100", fib_exact, (100,), 354224848179261915075),
    Call("fib_prefix_matches_fib_exact", fib_prefix, (50,), [fib_exact(n) for n in range(50)]),
    Call("fib_prefix_matches_fib_exact", fib_prefix, (0,), []),
    Call("fib_pair_mod_examples", fib_pair_mod, (0, 8), (0, 1)),
    Call("fib_pair_mod_examples", fib_pair_mod, (7, 13), (0, 8)),
    # frozen from the linear-iteration reference
    Call("fib_pair_mod_examples", fib_pair_mod, (10**6, 144), (123, 13)),
    # 196 is the Pisano period of 97, so the reference steps n mod 196 times;
    # its residues lie in [0, 96]
    *(Call("fibpair_residues_normalized", fib_pair_mod, (n, 97), linear_pair(n % 196, 97)) for n in (0, 1, 17, 10**9)),
    Call("fib_mod_examples", fib_mod, (6, 8), 0),
    Call("fib_mod_examples", fib_mod, (11, 8), 1),
    Call("pow_mod_examples", pow_mod, (5, 2, 13), 12),
    Call("pow_mod_examples", pow_mod, (3, 4, 8), 1),
    Call("pow_mod_examples", pow_mod, (0, 0, 7), 1),
]

REFUSED = [
    Refusal("fib_exact_rejects_negative_index", fib_exact, (-1,), "Fibonacci index must be nonnegative, got -1"),
    Refusal("fib_prefix_matches_fib_exact", fib_prefix, (-3,), "count must be nonnegative, got -3"),
    *(
        Refusal("modulus_below_two_rejected", call, args, f"modulus must be at least 2, got {m}", InvalidModulusError)
        for m in (1, 0, -5)
        for call, args in ((fib_pair_mod, (10, m)), (fib_mod, (3, m)), (pow_mod, (2, 3, m)))
    ),
    Refusal("negative_index_rejected_mod", fib_pair_mod, (-4, 10), "Fibonacci index must be nonnegative, got -4"),
    Refusal("pow_mod_rejects_negative_base_and_exponent", pow_mod, (-2, 3, 7), "base must be nonnegative, got -2"),
    Refusal("pow_mod_rejects_negative_base_and_exponent", pow_mod, (2, -3, 7), "exponent must be nonnegative, got -3"),
    *(
        Refusal("only_integers_are_admitted", call, (10, 2.5), "modulus must be an integer, got 2.5", InvalidModulusError)
        for call in (fib_pair_mod, fib_mod)
    ),
    Refusal("only_integers_are_admitted", fib_exact, ("5",), "Fibonacci index must be an integer, got '5'"),
    # 5001 digits, more than Python prints by default: named by its bits
    Refusal("integers_too_wide_to_print_are_named", printing_default_digits(fib_exact), (-(10**5000),),
            "Fibonacci index must be nonnegative, got a negative integer of 16610 bits"),
]

globals().update(define_tests([(check_call, VALUES), (check_refused, REFUSED)]))


@given(st.integers(min_value=2, max_value=600))
def test_fib_exact_recurrence(n):
    assert fib_exact(n) == fib_exact(n - 1) + fib_exact(n - 2)


@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=2, max_value=1000))
def test_fib_pair_mod_matches_linear_iteration(n, m):
    assert fib_pair_mod(n, m) == linear_pair(n, m)


def test_fib_mod_agrees_with_exact_up_to_2000():
    for m in (2, 7, 144, 75025):
        a, b = 0, 1
        for n in range(2001):
            assert fib_mod(n, m) == a % m, (n, m)
            a, b = b, a + b


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=2, max_value=2**256))
@example(5000, 2**256)
@example(4999, fib_exact(300))
def test_fib_mod_matches_exact_for_wide_moduli(n, m):
    assert fib_mod(n, m) == fib_exact(n) % m


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10**6))
def test_pow_mod_zero_exponent_is_one(a, m):
    assert pow_mod(a, 0, m) == 1


def _batch_seconds(n: int, m: int, calls: int = 2000) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            fib_pair_mod(n, m)
        best = min(best, time.perf_counter() - start)
    return best


def test_doubling_cost_grows_logarithmically():
    # doubling n adds one bit, so the time for 2n must stay well under
    # twice the time for n; 2x is a generous allowance for noise
    n = 10**12
    t1 = _batch_seconds(n, 10**9 + 7)
    t2 = _batch_seconds(2 * n, 10**9 + 7)
    assert t2 < 2 * t1, (t1, t2)

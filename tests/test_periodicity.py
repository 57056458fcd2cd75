"""The closed-form periods.  PERIODS pins period_closed_form(j, e) whole,
period and case label, one row per cell, and REFUSED the exact type and
message of each refusal; tests/rows.py builds the tests from the rows.  The
sweeps over a grid and the agreement with the oracle stay tests of their own.
"""

from typing import NamedTuple

from hypothesis import example, given
from hypothesis import strategies as st

from powerfib.oracle import minimal_period_bruteforce
from powerfib.periodicity import PeriodResult, period_closed_form
from rows import Call, Refusal, check_call, check_refused, define_tests, printing_default_digits


class Period(NamedTuple):
    test: str | tuple
    j: int
    e: int
    period: int | None
    label: str


def _check_period(row):
    assert period_closed_form(row.j, row.e) == (row.j, row.e, row.period, row.label)


# the small periods check by hand, the larger ones are frozen from the
# brute-force scan; a row named by divisibility_check_examples gives one of
# the periods whose divisibility its comment states
PERIODS = [
    Period("case_labels", 0, 1, None, "J0"),
    Period("not_periodic_only_at_j_zero", 0, 2, None, "J0"),
    Period("case_labels", 1, 1, 1, "J1_J2"),
    Period("known_periods", 1, 7, 1, "J1_J2"),
    Period("case_labels", 2, 9, 1, "J1_J2"),
    Period("known_periods", 2, 3, 1, "J1_J2"),
    Period("known_periods", 3, 1, 3, "J3"),
    Period("case_labels", 3, 2, 3, "J3"),
    Period("known_periods", 3, 5, 3, "J3"),
    Period("known_periods", 4, 1, 8, "EVEN_ODD"),
    Period("known_periods", 5, 1, 20, "ODD_ODD"),
    # 3 divides 12
    Period(("known_periods", "divisibility_check_examples"), 6, 1, 12, "J6_ODD"),
    Period("case_labels", 6, 5, 12, "J6_ODD"),
    Period(("known_periods", "case_labels"), 6, 2, 6, "J6_E2"),
    Period(("known_periods", "divisibility_check_examples"), 6, 4, 3, "J6_EVEN_GE4"),
    Period("known_periods", 6, 6, 3, "J6_EVEN_GE4"),
    Period("case_labels", 6, 8, 3, "J6_EVEN_GE4"),
    Period("known_periods", 6, 12, 3, "J6_EVEN_GE4"),
    # 14 divides 28
    Period(("known_periods", "divisibility_check_examples"), 7, 1, 28, "ODD_ODD"),
    Period("divisibility_check_examples", 7, 2, 14, "ODD_E2MOD4"),
    Period("case_labels", 8, 3, 16, "EVEN_ODD"),
    Period("case_labels", 8, 4, 8, "EVEN_EVEN"),
    Period(("known_periods", "case_labels"), 9, 4, 9, "ODD_E0MOD4"),
    Period("known_periods", 9, 5, 36, "ODD_ODD"),
    Period(("known_periods", "case_labels"), 9, 6, 18, "ODD_E2MOD4"),
    Period("case_labels", 9, 7, 36, "ODD_ODD"),
    Period("known_periods", 11, 6, 22, "ODD_E2MOD4"),
    # the modulus 144 = F_12 is special for primitive divisors but not here
    Period(("known_periods", "j12_follows_the_generic_even_rule"), 12, 1, 24, "EVEN_ODD"),
    Period(("known_periods", "j12_follows_the_generic_even_rule"), 12, 2, 12, "EVEN_EVEN"),
    Period("known_periods", 12, 3, 24, "EVEN_ODD"),
    Period("known_periods", 12, 4, 12, "EVEN_EVEN"),
    Period("known_periods", 13, 2, 26, "ODD_E2MOD4"),
    # an int subclass is an integer
    Period("only_integers_are_admitted", 7, True, 28, "ODD_ODD"),
]

RECORDS = [
    Call("to_record_shapes", period_closed_form, (7, 1), {"j": 7, "e": 1, "outcome": 28, "case_label": "ODD_ODD"},
         PeriodResult.to_record),
    Call("to_record_shapes", period_closed_form, (0, 5), {"j": 0, "e": 5, "outcome": "not_periodic", "case_label": "J0"},
         PeriodResult.to_record),
]

REFUSED = [
    Refusal("domain_errors", period_closed_form, (5, 0), "exponent must be at least 1, got 0"),
    Refusal("domain_errors", period_closed_form, (-1, 2), "j must be nonnegative, got -1"),
    Refusal("domain_errors", period_closed_form, (5, -2), "exponent must be at least 1, got -2"),
    Refusal("only_integers_are_admitted", period_closed_form, (5.5, 1), "j must be an integer, got 5.5"),
    Refusal("only_integers_are_admitted", period_closed_form, (7, 1.5), "exponent must be an integer, got 1.5"),
    Refusal("only_integers_are_admitted", period_closed_form, ("3", 1), "j must be an integer, got '3'"),
    Refusal("only_integers_are_admitted", period_closed_form, (-1.5, 0), "j must be an integer, got -1.5"),
    # each argument in turn: j is refused before e is read
    Refusal("only_integers_are_admitted", period_closed_form, (-1, 0.0), "j must be nonnegative, got -1"),
    Refusal("only_integers_are_admitted", period_closed_form, (1, 0.0), "exponent must be an integer, got 0.0"),
    # 5001 digits, more than Python prints by default: named by its bits
    Refusal("integers_too_wide_to_print_are_named", printing_default_digits(period_closed_form), (-(10**5000), 1),
            "j must be nonnegative, got a negative integer of 16610 bits"),
]

globals().update(
    define_tests([(_check_period, PERIODS), (check_call, RECORDS), (check_refused, REFUSED)])
)


def test_dispatch_is_total_and_labeled():
    # every cell of the grid gets one of the labels the rows pin, and a
    # period exactly where j > 0
    labels = {row.label for row in PERIODS}
    assert len(labels) == 11
    for j in range(0, 61):
        for e in range(1, 10):
            result = period_closed_form(j, e)
            assert result.case_label in labels
            if j == 0:
                assert result.period is None
            else:
                assert result.period >= 1


def test_emitted_periods_stay_in_allowed_set():
    for j in range(0, 61):
        for e in range(1, 10):
            p = period_closed_form(j, e).period
            if p is not None:
                assert p in {1, 3, 6, 12, j, 2 * j, 4 * j}, (j, e, p)


def test_divisibility_check_exhaustive():
    # raising the exponent can only coarsen the sequence: the period at
    # exponent q*e divides the period at exponent e
    for j in range(1, 23):
        for e in range(1, 9):
            p_e = period_closed_form(j, e).period
            for q in range(1, 5):
                assert p_e % period_closed_form(j, q * e).period == 0, (j, e, q)


def test_agrees_with_bruteforce_on_small_grid():
    for j in range(3, 13):
        for e in range(1, 5):
            closed = period_closed_form(j, e).period
            brute = minimal_period_bruteforce(j, e).power_period
            assert closed == brute, (j, e, closed, brute)


@given(st.integers(3, 200), st.integers(1, 50))
@example(6, 1)
@example(6, 2)
@example(6, 3)
@example(200, 50)
def test_agrees_with_bruteforce_on_wide_grid(j, e):
    brute = minimal_period_bruteforce(j, e).power_period
    assert period_closed_form(j, e).period == brute

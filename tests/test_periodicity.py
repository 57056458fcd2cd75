import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from powerfib.errors import OutOfDomainError
from powerfib.oracle import minimal_period_bruteforce
from powerfib.periodicity import period_closed_form

# (j, e) -> expected minimal period; the small ones check by hand, the
# larger ones are frozen from the brute-force scan
KNOWN_PERIODS = {
    (1, 7): 1,
    (2, 3): 1,
    (3, 1): 3,
    (3, 5): 3,
    (4, 1): 8,
    (5, 1): 20,
    (6, 1): 12,
    (7, 1): 28,
    (6, 2): 6,
    (6, 4): 3,
    (6, 6): 3,
    (6, 12): 3,
    (9, 4): 9,
    (9, 5): 36,
    (9, 6): 18,
    (11, 6): 22,
    (12, 1): 24,
    (12, 2): 12,
    (12, 3): 24,
    (12, 4): 12,
    (13, 2): 26,
}


def test_known_periods():
    for (j, e), want in KNOWN_PERIODS.items():
        assert period_closed_form(j, e).period == want, (j, e)


def test_not_periodic_only_at_j_zero():
    assert period_closed_form(0, 2).period is None
    for j in range(1, 60):
        assert period_closed_form(j, 3).period is not None


def test_case_labels():
    assert period_closed_form(0, 1).case_label == "J0"
    assert period_closed_form(1, 1).case_label == "J1_J2"
    assert period_closed_form(2, 9).case_label == "J1_J2"
    assert period_closed_form(3, 2).case_label == "J3"
    assert period_closed_form(6, 5).case_label == "J6_ODD"
    assert period_closed_form(6, 2).case_label == "J6_E2"
    assert period_closed_form(6, 8).case_label == "J6_EVEN_GE4"
    assert period_closed_form(8, 4).case_label == "EVEN_EVEN"
    assert period_closed_form(8, 3).case_label == "EVEN_ODD"
    assert period_closed_form(9, 4).case_label == "ODD_E0MOD4"
    assert period_closed_form(9, 6).case_label == "ODD_E2MOD4"
    assert period_closed_form(9, 7).case_label == "ODD_ODD"


def test_dispatch_is_total_and_labeled():
    labels = {
        "J0",
        "J1_J2",
        "J3",
        "J6_ODD",
        "J6_E2",
        "J6_EVEN_GE4",
        "EVEN_EVEN",
        "EVEN_ODD",
        "ODD_E0MOD4",
        "ODD_E2MOD4",
        "ODD_ODD",
    }
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


def test_j12_follows_the_generic_even_rule():
    # the modulus 144 = F_12 is special for primitive divisors but not here
    assert period_closed_form(12, 1).period == 24
    assert period_closed_form(12, 2).period == 12
    assert period_closed_form(12, 2).case_label == "EVEN_EVEN"


def test_domain_errors():
    with pytest.raises(OutOfDomainError):
        period_closed_form(5, 0)
    with pytest.raises(OutOfDomainError):
        period_closed_form(-1, 2)
    with pytest.raises(OutOfDomainError):
        period_closed_form(5, -2)


def test_divisibility_check_exhaustive():
    # raising the exponent can only coarsen the sequence: the period at
    # exponent q*e divides the period at exponent e
    for j in range(1, 23):
        for e in range(1, 9):
            p_e = period_closed_form(j, e).period
            for q in range(1, 5):
                assert p_e % period_closed_form(j, q * e).period == 0, (j, e, q)


def test_divisibility_check_examples():
    assert period_closed_form(7, 1).period % period_closed_form(7, 2).period == 0  # 14 divides 28
    assert period_closed_form(6, 1).period % period_closed_form(6, 4).period == 0  # 3 divides 12


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


def test_to_record_shapes():
    rec = period_closed_form(7, 1).to_record()
    assert rec == {"j": 7, "e": 1, "outcome": 28, "case_label": "ODD_ODD"}
    rec = period_closed_form(0, 5).to_record()
    assert rec == {"j": 0, "e": 5, "outcome": "not_periodic", "case_label": "J0"}

"""The benchmark's references agree with values worked out by hand."""

import refs
import workloads as wl


def test_fibonacci_values():
    assert [refs.fib(n) for n in range(13)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    assert refs.fib_table(12)[-1] == 144 == refs.fib(12)


def test_period_case_table():
    assert refs.period(9, 5) == 36  # odd j, odd e: 4j
    assert refs.period(7, 1) == 28
    assert refs.period(9, 2) == 18  # odd j, e = 2 mod 4: 2j
    assert refs.period(9, 4) == 9  # odd j, e = 0 mod 4: j
    assert (refs.period(10, 3), refs.period(10, 4)) == (20, 10)
    assert [refs.period(6, e) for e in (1, 2, 3, 4, 5, 6)] == [12, 6, 12, 3, 12, 3]
    assert (refs.period(0, 1), refs.period(1, 5), refs.period(2, 2), refs.period(3, 7)) == (None, 1, 1, 3)


def test_pisano_periods():
    # F_3 = 2, F_4 = 3, F_5 = 5, F_6 = 8, F_12 = 144
    assert [refs.pisano(m) for m in (2, 3, 5, 8, 144)] == [3, 8, 20, 12, 24]


def test_every_period_divides_the_pisano_period():
    for j in range(3, 41):
        for e in range(1, 9):
            assert refs.pisano(refs.fib(j)) % refs.period(j, e) == 0


def test_power_residues_match_the_readme_tables():
    assert refs.power_residues(6, 2) == [0, 1, 1, 4, 1, 1]
    assert refs.power_residues(4, 1) == [0, 1, 1, 2, 0, 2, 2, 1]
    assert refs.power_residues(5, 3) == [f**3 % 5 for f in refs.fib_residues(5, 20)]


def test_trial_division_factoring():
    assert refs.factorize(1) == []
    assert refs.factorize(97) == [(97, 1)]
    assert refs.factorize(144) == [(2, 4), (3, 2)]
    assert refs.factorize(refs.fib(50)) == [(5, 2), (11, 1), (101, 1), (151, 1), (3001, 1)]


def test_primitive_prime_exceptions_are_6_and_12():
    assert [refs.rank_of_apparition(p) for p in (2, 3, 5, 7, 13)] == [3, 4, 5, 8, 7]
    assert refs.primitive_primes(7) == [13]
    assert refs.primitive_primes(6) == refs.primitive_primes(12) == []
    assert wl.exceptions(3, 40) == [6, 12]


def test_divisors():
    assert refs.divisors(12) == [1, 2, 3, 4, 6, 12]

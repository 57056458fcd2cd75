"""The package's public names, written out so that a change to them is
deliberate."""

import powerfib

PUBLIC_NAMES = [
    "Counterexample",
    "DEFAULT_J_MAX",
    "DivisorCheck",
    "InvalidModulusError",
    "OracleTrace",
    "OutOfDomainError",
    "PeriodResult",
    "PrimitiveDivisorResult",
    "ResidueTable",
    "ResourceGuardError",
    "SquareLemmaVerdict",
    "VerificationReport",
    "ZeroPositionsOutcome",
    "case_breakdown",
    "check_addition",
    "check_cassini",
    "check_catalan",
    "check_gcd_identity",
    "check_square_lemma",
    "check_zero_positions",
    "fib_exact",
    "fib_mod",
    "fib_pair_mod",
    "fib_prefix",
    "minimal_period_bruteforce",
    "period_closed_form",
    "pisano_period",
    "pow_mod",
    "primitive_prime_divisor",
    "residues_e1",
    "residues_e2",
    "residues_general",
    "sequence_prefix",
]


def test_all_lists_exactly_the_public_names():
    assert sorted(powerfib.__all__) == PUBLIC_NAMES
    for name in powerfib.__all__:
        assert getattr(powerfib, name) is not None, name

"""The package's public names, written out so that a change to them is
deliberate, and the names the benchmark's tracer binds."""

import importlib.util
from pathlib import Path

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

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_all_lists_exactly_the_public_names():
    assert sorted(powerfib.__all__) == PUBLIC_NAMES
    for name in powerfib.__all__:
        assert getattr(powerfib, name) is not None, name


def test_every_name_the_tracer_binds_exists():
    # the tracer looks each name up with a plain getattr when a traced run
    # starts, so a name cut from the package breaks those runs
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qualified in tracer.FUNCTIONS:
        module, name = qualified.split(".")
        assert callable(getattr(importlib.import_module(f"powerfib.{module}"), name, None)), qualified

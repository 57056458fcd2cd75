"""The package's public names, written out with their home modules so that a
change to them is deliberate; what each import loads; that the result types
are immutable; that every public callable keeps the integer contract; and
the names the benchmark's tracer binds."""

import ast
import dataclasses
import importlib.util
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powerfib
from powerfib.errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from powerfib.identities import (
    NOT_APPLICABLE,
    VERIFY_SUITE,
    Counterexample,
    VerificationReport,
    check_square_lemma,
    check_zero_positions,
    primitive_prime_divisor,
)
from powerfib.oracle import minimal_period_bruteforce
from powerfib.periodicity import period_closed_form
from powerfib.residue_tables import residues_general

PUBLIC_NAMES = {
    "errors": ["InvalidModulusError", "OutOfDomainError", "ResourceGuardError"],
    "fibcore": ["fib_exact", "fib_mod", "fib_pair_mod", "fib_prefix", "pow_mod"],
    "identities": [
        "Counterexample",
        "PrimitiveDivisorResult",
        "SquareLemmaVerdict",
        "VerificationReport",
        "ZeroPositionsOutcome",
        "check_square_lemma",
        "check_zero_positions",
        "primitive_prime_divisor",
    ],
    "oracle": [
        "DivisorCheck",
        "OracleTrace",
        "minimal_period_bruteforce",
        "pisano_period",
        "sequence_prefix",
    ],
    "periodicity": ["PeriodResult", "period_closed_form"],
    "residue_tables": [
        "ResidueTable",
        "case_breakdown",
        "residues_e1",
        "residues_e2",
        "residues_general",
    ],
}
# every module the CLI runs on; the tracer reads each from sys.modules
LIBRARY_MODULES = {f"powerfib.{module}" for module in PUBLIC_NAMES}

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"
SRC = Path(powerfib.__file__).resolve().parents[1]


def _fresh(code: str):
    """The Python literal that `code` prints, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    return ast.literal_eval(proc.stdout)


@pytest.fixture(scope="module")
def loaded_by():
    """statement -> the modules a fresh interpreter loads for it beyond its own start."""
    at_start = set(_fresh("import sys; print(sorted(sys.modules))"))
    return lambda statement: set(_fresh(f"import sys\n{statement}\nprint(sorted(sys.modules))")) - at_start


def test_all_lists_exactly_the_public_names():
    assert sorted(powerfib.__all__) == sorted(name for names in PUBLIC_NAMES.values() for name in names)
    for name in powerfib.__all__:
        assert getattr(powerfib, name) is not None, name


def test_import_powerfib_loads_only_errors(loaded_by):
    assert {m for m in loaded_by("import powerfib") if m.startswith("powerfib")} == {
        "powerfib",
        "powerfib.errors",
    }


def test_import_identities_loads_no_other_layer(loaded_by):
    loaded = loaded_by("import powerfib.identities")
    assert "powerfib.identities" in loaded
    assert not loaded & {"powerfib.oracle", "powerfib.periodicity", "powerfib.residue_tables", "powerfib.cli"}


def test_import_cli_loads_every_module_and_not_json(loaded_by):
    # the tracer imports powerfib.cli and then reads every module from sys.modules
    loaded = loaded_by("import powerfib.cli")
    assert LIBRARY_MODULES <= loaded
    assert "json" not in loaded


def test_every_public_name_is_its_home_modules_object():
    # a fresh interpreter, so that each name is read through the package's
    # lazy lookup first, and its home module is imported only then
    homes = {name: module for module, names in PUBLIC_NAMES.items() for name in names}
    mismatched = _fresh(
        "import importlib, powerfib\n"
        f"homes = {homes!r}\n"
        "print([name for name in powerfib.__all__ if getattr(powerfib, name) is not\n"
        "    getattr(importlib.import_module('powerfib.' + homes[name]), name)])"
    )
    assert mismatched == []


RESULTS = {
    "PeriodResult": period_closed_form(4, 1),
    "ResidueTable": residues_general(4, 1),
    "DivisorCheck": minimal_period_bruteforce(5, 1).checked_divisors[0],
    "OracleTrace": minimal_period_bruteforce(5, 1),
    "Counterexample": Counterexample(inputs={"n": 1}, lhs=1, rhs=2),
    "VerificationReport": VERIFY_SUITE["cassini"]()[0],
    "ZeroPositionsOutcome": check_zero_positions(5, 1, 10),
    "PrimitiveDivisorResult": primitive_prime_divisor(5),
    "SquareLemmaVerdict": check_square_lemma(2, 1),
}


@pytest.mark.parametrize("type_name", RESULTS)
def test_result_types_refuse_field_assignment(type_name):
    result = RESULTS[type_name]
    assert type(result) is getattr(powerfib, type_name)
    if dataclasses.is_dataclass(result):
        fields = [field.name for field in dataclasses.fields(result)]
    else:
        fields = result._fields
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(result, field, None)


def test_verify_j6_exclusion_is_still_a_report():
    plain, excluded = VERIFY_SUITE["zero_positions"]()
    assert type(plain) is type(excluded) is VerificationReport
    assert excluded.identity_name == "zero_positions_j6_exclusion"
    assert (excluded.verdict, excluded.cases_checked) == (NOT_APPLICABLE, 31)


def _arg(valid: st.SearchStrategy, wide: bool = False) -> st.SearchStrategy:
    """One argument: from valid, from [0, 10**30] where wide (where the cost
    is logarithmic in it), or a value the integer contract converts (bool)
    or refuses (a float, a string, None, a negative integer)."""
    return st.one_of(
        valid,
        *([st.integers(0, 10**30)] if wide else []),
        st.booleans(),
        st.integers(-5, 50).map(float),
        st.floats(),
        st.just("7"),
        st.none(),
        st.integers(-(10**30), -1),
    )


# each public callable's arguments; no draw starts a walk linear in a large value
CONTRACT_ARGUMENTS = {
    "fib_exact": (_arg(st.integers(0, 60)),),
    "fib_prefix": (_arg(st.integers(0, 60)),),
    "fib_pair_mod": (_arg(st.integers(0, 60), wide=True), _arg(st.integers(2, 100))),
    "fib_mod": (_arg(st.integers(0, 60), wide=True), _arg(st.integers(2, 100))),
    "pow_mod": (_arg(st.integers(0, 60), wide=True), _arg(st.integers(0, 60), wide=True), _arg(st.integers(2, 100))),
    "pisano_period": (_arg(st.integers(2, 100)),),
    # None is sequence_prefix's own default: one Pisano period
    "sequence_prefix": (_arg(st.integers(3, 15)), _arg(st.integers(1, 10)), _arg(st.integers(1, 30))),
    "minimal_period_bruteforce": (_arg(st.integers(3, 15)), _arg(st.integers(1, 10))),
    "period_closed_form": (_arg(st.integers(0, 60), wide=True), _arg(st.integers(1, 10), wide=True)),
    "residues_e1": (_arg(st.integers(4, 20)),),
    "residues_e2": (_arg(st.integers(4, 20)),),
    "residues_general": (_arg(st.integers(4, 20)), _arg(st.integers(1, 10), wide=True)),
    "case_breakdown": (_arg(st.integers(4, 20)), _arg(st.integers(1, 10), wide=True)),
    "check_square_lemma": (_arg(st.integers(2, 20)), _arg(st.integers(0, 20))),
    "check_zero_positions": (_arg(st.integers(4, 20)), _arg(st.integers(1, 10)), _arg(st.integers(0, 60))),
    # up to 40 every F_j factors, so the guard never fires
    "primitive_prime_divisor": (_arg(st.integers(3, 40)),),
}


def test_the_contract_draws_every_public_callable():
    assert sorted(CONTRACT_ARGUMENTS) == [name for name in powerfib.__all__ if name[0].islower()]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_public_callable_keeps_the_integer_contract(data):
    # a call answers as it does with operator.index applied to every
    # argument, or raises an error of powerfib.errors that names an argument
    # the way the contract shows it: an integer's repr after operator.index
    name = data.draw(st.sampled_from(sorted(CONTRACT_ARGUMENTS)))
    args = data.draw(st.tuples(*CONTRACT_ARGUMENTS[name]))
    call = getattr(powerfib, name)
    try:
        got = call(*args)
    except (InvalidModulusError, OutOfDomainError, ResourceGuardError) as err:
        shown = [repr(operator.index(a) if isinstance(a, int) else a) for a in args]
        assert any(re.search(rf"(?<![\w.]){re.escape(s)}(?![\w.])", str(err)) for s in shown), (str(err), args)
    else:
        assert got == call(*(a if a is None else operator.index(a) for a in args))


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

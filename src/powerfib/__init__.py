"""Power Fibonacci sequences mod F_j: closed-form periods and residue tables,
certified against an independent brute-force oracle.

Only `errors` is imported with the package.  Every other public name is
imported from its home module the first time it is read (PEP 562), so a
caller pays only for the modules it uses.
"""

from importlib import import_module

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError

__version__ = "0.1.0"

# home module -> the public names it defines
_PUBLIC = {
    "errors": ("InvalidModulusError", "OutOfDomainError", "ResourceGuardError"),
    "fibcore": ("fib_exact", "fib_mod", "fib_pair_mod", "fib_prefix", "pow_mod"),
    "identities": (
        "Counterexample", "PrimitiveDivisorResult", "SquareLemmaVerdict",
        "VerificationReport", "check_square_lemma", "primitive_prime_divisor",
    ),
    "oracle": (
        "DivisorCheck", "OracleTrace",
        "minimal_period_bruteforce", "pisano_period", "sequence_prefix",
    ),
    "periodicity": ("PeriodResult", "period_closed_form"),
    "residue_tables": (
        "ResidueTable", "case_breakdown", "residues_e1", "residues_e2", "residues_general",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

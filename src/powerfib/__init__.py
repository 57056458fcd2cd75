"""Power Fibonacci sequences mod F_j: closed-form periods and residue tables,
certified against an independent brute-force oracle."""

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from .fibcore import fib_exact, fib_mod, fib_pair_mod, fib_prefix, pow_mod
from .identities import (
    Counterexample,
    PrimitiveDivisorResult,
    SquareLemmaVerdict,
    VerificationReport,
    ZeroPositionsOutcome,
    check_square_lemma,
    check_zero_positions,
    primitive_prime_divisor,
)
from .oracle import (
    DEFAULT_J_MAX,
    DivisorCheck,
    OracleTrace,
    minimal_period_bruteforce,
    pisano_period,
    sequence_prefix,
)
from .periodicity import PeriodResult, period_closed_form
from .residue_tables import (
    ResidueTable,
    case_breakdown,
    residues_e1,
    residues_e2,
    residues_general,
)

__version__ = "0.1.0"

__all__ = [
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

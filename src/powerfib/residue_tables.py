"""Closed-form residue tables covering one full minimal period.

Every table, whatever its exponent, is built by `residues_general` from
the exponent 1 slot list and the powers of exact small Fibonacci values
F_0 .. F_{j//2}, never by iterating the recurrence modulo F_j.  That
keeps it independent of the modular iteration in `oracle`, which
certifies it.  The paper's closed forms for e = 1 and e = 2 survive as
the formula labels of `case_breakdown`.
"""

from typing import Iterator, NamedTuple

from .errors import OutOfDomainError, require_int
from .fibcore import fib_prefix
from .periodicity import period_closed_form


class ResidueTable(NamedTuple):
    """One minimal period of rho_i = F_i^e mod F_j, entries in [0, F_j - 1]."""

    j: int
    e: int
    modulus: int
    period: int
    residues: tuple[int, ...]

    def to_record(self) -> dict:
        # big integers cross the wire as decimal strings, each distinct one
        # converted once
        decimal = {r: str(r) for r in set(self.residues)}
        return {
            "j": self.j,
            "e": self.e,
            "modulus": str(self.modulus),
            "period": self.period,
            "residues": list(map(decimal.__getitem__, self.residues)),
        }


def _e1_slots(j: int) -> list[int]:
    """The exponent 1 closed form as slots, one full period.

    Slot k stands for F_k and slot j + 1 + k for -F_k mod F_j, 0 <= k <= j;
    the structural zeros at i = j, 2j, 3j read slot j, since F_j = 0 mod
    F_j.  Write i = block * j + r.  Block 0 is F_r itself.  Block 1 mirrors
    it as F_{j-r}, negated on even r; even j stops there, at period 2j.  Odd
    j has period 4j: blocks 2 and 3 repeat blocks 0 and 1 with every nonzero
    entry's sign flipped.
    """
    n = j + 1  # slot k + n is -F_k
    # r = 0 .. j - 1 of F_r, -F_r, F_{j-r} and -F_{j-r}; each starts at a zero
    plain = list(range(j))
    negated = [j, *range(n + 1, n + j)]
    mirror = list(range(j, 0, -1))
    negated_mirror = [j, *range(n + j - 1, n, -1)]
    # block 1 is negated on even r > 0, and block 3 then not
    mirror[2::2], negated_mirror[2::2] = negated_mirror[2::2], mirror[2::2]
    if j % 2 == 0:
        return plain + mirror
    return plain + mirror + negated + negated_mirror


def _e2_labels(j: int) -> Iterator[str]:
    """The formula label of each exponent 2 entry.

    Even j = 2t, period j: plain squares F_i^2 up to the midpoint, then the
    reflected squares F_{j-i}^2.  Odd j = 2t+1, period 2j: squares up to
    i = t+1, complements F_j - F_{j-i}^2 up to i = j-1, a zero at i = j,
    then the first half mirrored (rho_i = rho_{2j-i}).
    """
    t = j // 2
    if j % 2 == 0:
        for i in range(j):
            yield f"F[{i}]^2" if i <= t else f"F[{j - i}]^2"
    else:
        for i in range(j):
            yield f"F[{i}]^2" if i <= t + 1 else f"Fj-F[{j - i}]^2"
        yield "0"
        for i in range(j + 1, 2 * j):
            yield f"rho[{2 * j - i}]"


def residues_e1(j: int) -> ResidueTable:
    """Exponent 1 table for j >= 4: period 2j for even j, 4j for odd j."""
    return residues_general(j, 1)


def residues_e2(j: int) -> ResidueTable:
    """Exponent 2 table for j >= 4: period j for even j, 2j for odd j."""
    return residues_general(j, 2)


def residues_general(j: int, e: int) -> ResidueTable:
    """Any exponent e >= 1, from the exponent 1 closed form: the one
    builder of every table, residues_e1 and residues_e2 included.

    Every e = 1 entry is +-F_k mod F_j for some k <= j, so each entry here
    is F_k^e mod F_j, negated when the e = 1 entry is and e is odd: the
    whole period takes only the j + 1 powers of exact small Fibonacci
    values.  Only the even powers F_k^(e - e % 2) for k <= j // 2 are taken:
    d'Ocagne's and Cassini's identities give F_{j-k}^2 = (-1)^j F_k^2 mod
    F_j, so F_{j-k}^e is that even power up to a sign, times the exact
    F_{j-k} at odd e, as F_k^e is it times F_k.  Exponent 2 is no special
    case: the paper's formulas for it are only the labels of
    case_breakdown.  The length comes from period_closed_form, which
    divides the e = 1 period; neither the length nor the entries come from
    the oracle, so its modular iteration and minimality scan stay an
    independent second route.
    """
    # j < 4 are period_closed_form's base cases, with no table of this form
    j, e = require_int("j", j, 4), require_int("exponent", e, 1)
    period = period_closed_form(j, e).period
    fs = fib_prefix(j + 1)
    m = fs[j]
    if e == 1:
        powers = [*fs[:j], 0]
    else:
        # F_{j-k}^2 = (-1)^j F_k^2 mod F_j (d'Ocagne's F_{j-k} = +-F_{j-1} F_k
        # squared, and Cassini's F_{j-1}^2 = (-1)^j), so F_k^e and F_{j-k}^e
        # share the even power F_k^(e - e % 2), up to the sign ((-1)^j)^(e // 2)
        half = j // 2
        even = [pow(f, e - e % 2, m) for f in fs[: half + 1]]
        # lower[k] = F_k^e for k <= half, upper[k] = F_{j-k}^e for k < j - half
        if e % 2 == 0:
            lower, upper = even, even[: j - half]
        else:
            lower = [p * f % m for p, f in zip(even, fs)]
            upper = [p * f % m for p, f in zip(even, fs[j:half:-1])]
        if j % 2 == 1 and e % 4 >= 2:
            upper = [m - p if p else 0 for p in upper]
        powers = lower + upper[::-1]
    negated = [m - p if p else 0 for p in powers] if e % 2 == 1 else powers
    res = tuple(map((powers + negated).__getitem__, _e1_slots(j)[:period]))
    return ResidueTable(j=j, e=e, modulus=m, period=period, residues=res)


def case_breakdown(j: int, e: int) -> tuple[str, ...]:
    """The formula label behind each table entry, for e in {1, 2} only."""
    j, e = require_int("j", j, 4), require_int("exponent", e, 1)
    if e == 1:
        labels = [*(f"F[{k}]" for k in range(j)), "0", *(f"Fj-F[{k}]" for k in range(j + 1))]
        return tuple(map(labels.__getitem__, _e1_slots(j)))
    if e == 2:
        return tuple(_e2_labels(j))
    raise OutOfDomainError(
        f"per-entry formulas exist for exponents 1 and 2 only, got e={e}"
    )

"""Closed-form minimal periods of the sequences (F_i^e mod F_j)_{i>=0}."""

from typing import NamedTuple

from .errors import require_int


class PeriodResult(NamedTuple):
    """Minimal period of (F_i^e mod F_j), or the j = 0 non-periodic verdict."""

    j: int
    e: int
    period: int | None  # None exactly when the sequence is not periodic
    case_label: str  # the dispatch clause that fired

    def to_record(self) -> dict:
        return {
            "j": self.j,
            "e": self.e,
            "outcome": "not_periodic" if self.period is None else self.period,
            "case_label": self.case_label,
        }


def period_closed_form(j: int, e: int) -> PeriodResult:
    """Minimal period by case dispatch, for any integers j >= 0 and e >= 1.

    Case table:
      j = 0           not periodic (the values F_i^e grow without bound)
      j in {1, 2}     1   (modulus F_j = 1, constant zero sequence)
      j = 3           3   (modulus 2, the block [0, 1, 1])
      j = 6           12 for odd e, 6 for e = 2, 3 for even e >= 4
      j even, j != 6  j for even e, 2j for odd e
      j odd, j >= 5   j for e = 0 mod 4, 2j for e = 2 mod 4, 4j for odd e
    """
    j, e = require_int("j", j, 0), require_int("exponent", e, 1)
    if j == 0:
        return PeriodResult(j, e, None, "J0")
    if j in (1, 2):
        return PeriodResult(j, e, 1, "J1_J2")
    if j == 3:
        return PeriodResult(j, e, 3, "J3")
    if j == 6:
        if e % 2 == 1:
            return PeriodResult(j, e, 12, "J6_ODD")
        if e == 2:
            return PeriodResult(j, e, 6, "J6_E2")
        return PeriodResult(j, e, 3, "J6_EVEN_GE4")
    if j % 2 == 0:
        if e % 2 == 0:
            return PeriodResult(j, e, j, "EVEN_EVEN")
        return PeriodResult(j, e, 2 * j, "EVEN_ODD")
    if e % 4 == 0:
        return PeriodResult(j, e, j, "ODD_E0MOD4")
    if e % 4 == 2:
        return PeriodResult(j, e, 2 * j, "ODD_E2MOD4")
    return PeriodResult(j, e, 4 * j, "ODD_ODD")


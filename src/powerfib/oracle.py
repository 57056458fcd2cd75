"""Brute-force certification of periods, sharing no logic with the closed forms.

Everything here is deliberately plain: single-step pair iteration and explicit
divisor scans with recorded witnesses, so a disagreement with the closed-form
route points at a real mathematical problem rather than shared code.

F_i^e mod F_j depends only on F_i mod F_j, and (F_j - x)^e = (-1)^e x^e, so
the window entries fall into classes: the distinct c = min(x, F_j - x) over
the e = 1 window x = F_i mod F_j.  Which index falls in which class, and how
many classes there are, is found by walking that window, not assumed.  A row's
first call, at any e, computes F_j, its Pisano period and the e = 1 window,
finds the classes, and powers each class once.  The oracle remembers its last
row: when the next call asks for the same j one exponent higher, as a `scan`
row does, it steps up by one multiplication per class.  What it retains
between calls is, for one j and e: the class values, their e-th powers mod
F_j, and one `operator.itemgetter` over the window's slots (at most 4j, each
naming its entry's class and sign) that gathers the window from the powers.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from math import isqrt
from operator import itemgetter, mod, mul, ne
from typing import NamedTuple

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from .fibcore import fib_exact

DEFAULT_J_MAX = 25

# (j, e, m, p0, values, gather, powers) of the last call, where gather picks
# the window out of the powers and their signed copies; every row builds its
# classes on its first call, whatever its e.  It is read once and replaced
# whole, and nothing stored is changed, so a caller on another thread can at
# worst rebuild a row, never read a half-made one.
_last_row: tuple[int, int, int, int, list[int], itemgetter, list[int]] | None = None


def pisano_period(m: int) -> int:
    """Smallest k >= 1 with (F_k, F_{k+1}) = (0, 1) mod m, by stepping pairs."""
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")
    a, b = 0, 1
    for k in count(1):
        # a + b < 2m, so one subtraction reduces it
        a, b = b, a + b
        if b >= m:
            b -= m
        if a == 0 and b == 1:
            return k


def sequence_prefix(j: int, e: int, n: int) -> list[int]:
    """First n terms of (F_i^e mod F_j), by single-step iteration."""
    if j < 3:
        raise InvalidModulusError(
            f"modulus F_{j} is below 2; base cases are handled by period_closed_form"
        )
    if e < 1:
        raise OutOfDomainError(f"exponent must be at least 1, got {e}")
    if n < 1:
        raise OutOfDomainError(f"prefix length must be at least 1, got {n}")
    m = fib_exact(j)
    out = []
    a, b = 0, 1
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
        if b >= m:
            b -= m
    # F_i mod F_j is already its own first power
    return out if e == 1 else list(map(pow, out, repeat(e), repeat(m)))


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


class DivisorCheck(NamedTuple):
    """Outcome of testing one candidate period d against the window."""

    d: int
    verdict: str  # "holds" or "fails"
    witness_index: int | None = None  # an i with window[i] != window[i + d]


class OracleTrace(NamedTuple):
    """A minimal period together with the evidence that found it."""

    modulus: int
    pisano: int
    power_period: int
    checked_divisors: tuple[DivisorCheck, ...]

    def to_record(self) -> dict:
        checks = []
        for c in self.checked_divisors:
            entry: dict = {"d": c.d, "verdict": c.verdict}
            if c.witness_index is not None:
                entry["witness_index"] = c.witness_index
            checks.append(entry)
        return {
            "modulus": str(self.modulus),
            "pisano": self.pisano,
            "power_period": self.power_period,
            "checked_divisors": checks,
        }


def _sign_classes(m: int, residues: list[int]) -> tuple[list[int], list[int]]:
    """(values, slots) of the e = 1 window residues = [F_i mod m].

    values holds the distinct c = min(x, m - x) in first-seen order.  Entry i
    is x = c of class k = values.index(c) when its slot is k, and x = m - c
    when its slot is ~k = -1 - k.  c = x exactly when x <= m // 2.
    """
    h = m // 2
    classes: dict[int, int] = {}
    # len(classes) is read before setdefault adds c, so a new c gets the next number
    slots = [
        classes.setdefault(x, len(classes)) if x <= h else ~classes.setdefault(m - x, len(classes))
        for x in residues
    ]
    return list(classes), slots


def _power_window(j: int, e: int) -> tuple[int, int, list[int]]:
    """(F_j, its Pisano period p0, [F_i^e mod F_j for i < p0]) for j >= 3, e >= 1."""
    global _last_row
    last = _last_row
    if last is not None and last[0] == j and last[1] == e - 1:
        _, _, m, p0, values, gather, powers = last
        powers = list(map(mod, map(mul, powers, values), repeat(m)))
    else:
        m = fib_exact(j)
        p0 = pisano_period(m)
        window = sequence_prefix(j, 1, p0)
        values, slots = _sign_classes(m, window)
        gather = itemgetter(*slots)  # p0 >= 3 slots, so it returns a tuple
        powers = list(map(pow, values, repeat(e), repeat(m)))
    if e > 1:
        # slot ~k reads from the end: the powers, then their signed copies reversed
        signed = [(m - p) % m for p in reversed(powers)] if e % 2 else powers[::-1]
        window = list(gather(powers + signed))
    _last_row = (j, e, m, p0, values, gather, powers)
    return m, p0, window


def minimal_period_bruteforce(j: int, e: int, j_max: int = DEFAULT_J_MAX) -> OracleTrace:
    """Minimal period of (F_i^e mod F_j) with divisor-by-divisor evidence.

    The Pisano period p0 of F_j is always a period of the power sequence,
    and the minimal period divides every period, so scanning the divisors
    of p0 in increasing order is exhaustive.  The sequence starts at the
    recurring state (0, 1), hence is purely periodic from index 0.  A shift
    d is tested only on i < p0 - d: as d divides p0, each wrapped pair
    (i, i + d - p0) is joined by a chain of unwrapped ones, so the first
    unequal pair, if any, is unwrapped.
    """
    if j < 3:
        raise OutOfDomainError(
            f"the oracle needs j >= 3 (modulus at least 2), got j={j}"
        )
    if e < 1:
        raise OutOfDomainError(f"exponent must be at least 1, got {e}")
    if j > j_max:
        raise ResourceGuardError(f"j={j} exceeds the oracle guard j_max={j_max}")
    m, p0, window = _power_window(j, e)
    checked: list[DivisorCheck] = []
    power_period = p0
    for d in _divisors(p0):
        # the first i with window[i] != window[i + d]
        witness = next(compress(count(), map(ne, window, islice(window, d, None))), None)
        if witness is None:
            checked.append(DivisorCheck(d=d, verdict="holds"))
            power_period = d
            break
        checked.append(DivisorCheck(d=d, verdict="fails", witness_index=witness))
    return OracleTrace(
        modulus=m,
        pisano=p0,
        power_period=power_period,
        checked_divisors=tuple(checked),
    )

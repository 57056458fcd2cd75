"""Brute-force certification of periods, sharing no logic with the closed forms.

Everything here is deliberately plain: single-step pair iteration and explicit
divisor scans with recorded witnesses, so a disagreement with the closed-form
route points at a real mathematical problem rather than shared code.

The oracle remembers the window of its last call.  When the next call asks
for the same j one exponent higher, as a `scan` row does, it steps that
window up by one multiplication per entry, F_i^e = F_i^(e-1) * F_i mod F_j,
instead of computing F_j, its Pisano period and every power again.  What it
retains between calls is that one window: at most 4j residues below F_j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidModulusError, OutOfDomainError, ResourceGuardError
from .fibcore import fib_exact

DEFAULT_J_MAX = 25

# (j, e, m, p0, window) of the last call.  It is read once and replaced whole,
# and no stored window is changed, so a caller on another thread can at worst
# rebuild a window, never read a half-made one.
_last_window: tuple[int, int, int, int, list[int]] | None = None


def pisano_period(m: int) -> int:
    """Smallest k >= 1 with (F_k, F_{k+1}) = (0, 1) mod m, by stepping pairs."""
    if m < 2:
        raise InvalidModulusError(f"modulus must be at least 2, got {m}")
    a, b = 0, 1
    k = 0
    while True:
        a, b = b, (a + b) % m
        k += 1
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
        out.append(pow(a, e, m))
        a, b = b, (a + b) % m
    return out


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@dataclass(frozen=True)
class DivisorCheck:
    """Outcome of testing one candidate period d against the window."""

    d: int
    verdict: str  # "holds" or "fails"
    witness_index: int | None = None  # an i with window[i] != window[i + d]


@dataclass(frozen=True)
class OracleTrace:
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


def _power_window(j: int, e: int) -> tuple[int, int, list[int]]:
    """(F_j, its Pisano period p0, [F_i^e mod F_j for i < p0]) for j >= 3, e >= 1."""
    global _last_window
    last = _last_window
    if last is not None and last[0] == j and last[1] == e - 1:
        _, _, m, p0, prev = last
        window = []
        a, b = 0, 1
        for r in prev:
            window.append(r * a % m)
            a, b = b, (a + b) % m
    else:
        m = fib_exact(j)
        p0 = pisano_period(m)
        window = sequence_prefix(j, e, p0)
    _last_window = (j, e, m, p0, window)
    return m, p0, window


def minimal_period_bruteforce(j: int, e: int, j_max: int = DEFAULT_J_MAX) -> OracleTrace:
    """Minimal period of (F_i^e mod F_j) with divisor-by-divisor evidence.

    The Pisano period p0 of F_j is always a period of the power sequence,
    and the minimal period divides every period, so scanning the divisors
    of p0 in increasing order is exhaustive.  The sequence starts at the
    recurring state (0, 1), hence is purely periodic from index 0 and the
    shift test may wrap indices mod p0.
    """
    if j < 3:
        raise OutOfDomainError(
            f"the oracle needs j >= 3 (modulus at least 2), got j={j}"
        )
    if j > j_max:
        raise ResourceGuardError(f"j={j} exceeds the oracle guard j_max={j_max}")
    if e < 1:
        raise OutOfDomainError(f"exponent must be at least 1, got {e}")
    m, p0, window = _power_window(j, e)
    checked: list[DivisorCheck] = []
    power_period = p0
    for d in _divisors(p0):
        witness = next(
            (i for i in range(p0) if window[i] != window[(i + d) % p0]), None
        )
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

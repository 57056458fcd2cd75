"""Brute-force certification of periods, sharing no logic with the closed forms.

The window comes from single-step pair iteration: one walk per row, stopped
where (F_i, F_{i+1}) mod F_j is (0, 1) again, so its length is the Pisano
period p0.  Every divisor of p0 is scanned in turn, with a witness recorded
for each that fails; no step reads a closed form, so a disagreement with the
closed-form route points at a real mathematical problem rather than shared
code.

F_i^e mod F_j depends only on F_i mod F_j, and (F_j - x)^e = (-1)^e x^e, so
the window entries fall into classes: the distinct c = min(x, F_j - x) over
the e = 1 window x = F_i mod F_j.  Which index falls in which class, and how
many classes there are, is found by walking that window, not assumed.  Each
entry has a slot, its class and sign.  Entries with equal slots are equal at
every e, and entries with equal classes at every even e, so a divisor d is
compared on these keys first: slots at odd e, classes at even e.  The keys
depend on e only through its parity, so the row keeps, per parity, the first
index where each scanned divisor's keys differ.  Only that pair is powered;
if its two values differ, that index is the witness.  If they are equal at
an even e, the scan goes on from there on square keys: c^2 mod F_j at e = 2
(mod 4), and c^2 mod F_j up to sign at e = 0 (mod 4), since equal squares
are equal at every even e and squares equal up to sign at every e divisible
by 4.  The squares cost one product per class, whatever e is, and serve
that call alone.  Only the pair where the square keys first differ is
powered.  Where the last pair powered is equal (the slots' pair at odd e,
the square keys' pair at even e), the oracle compares each entry's e-th
power from that index on, read through the entry's key.  The oracle keeps
the row of its last j, by lru_cache(maxsize=1), for a call at any e: F_j,
p0, each class value once, each entry's slot and class, the divisors of
p0, the per-parity first indexes and one held pair (e', P): the smallest
minimal period P found so far, at e'.  A negative slot's entry, F_j - c,
is computed only where it is read; the row holds 19.9 MiB at j = 20000, and
powerfib.oracle._row.cache_clear() frees it.  Raising x_{i+P}^e' = x_i^e' to
the power e / e' gives period P at every multiple e of e', so there the scan
takes d = P as holding without comparing: every smaller divisor is still
compared, and the trace is the cold one.
"""

from functools import lru_cache
from itertools import compress, count, islice, repeat
from math import isqrt
from operator import ne
from typing import Callable, NamedTuple

from .errors import InvalidModulusError, require_int
from .fibcore import fib_exact


def pisano_period(m: int) -> int:
    """Smallest k >= 1 with (F_k, F_{k+1}) = (0, 1) mod m, by stepping pairs."""
    m = require_int("modulus", m, 2, InvalidModulusError)
    a, b = 0, 1
    for k in count(1):
        # a + b < 2m, so one subtraction reduces it
        a, b = b, a + b
        if b >= m:
            b -= m
        if a == 0 and b == 1:
            return k


def sequence_prefix(j: int, e: int, n: int | None = None) -> list[int]:
    """First n terms of (F_i^e mod F_j), by single-step iteration; without n,
    one Pisano period of F_j: up to where (F_i, F_{i+1}) mod F_j is (0, 1) again."""
    # F_j is the modulus, below 2 at j < 3
    j = require_int("j", j, 3, InvalidModulusError)
    e = require_int("exponent", e, 1)
    if n is not None:
        n = require_int("prefix length", n, 1)
    m = fib_exact(j)
    out = []
    a, b = 0, 1
    for _ in count() if n is None else range(n):
        out.append(a)
        a, b = b, a + b
        if b >= m:
            b -= m
        if a == 0 and b == 1 and n is None:
            break
    # F_i mod F_j is already its own first power
    return out if e == 1 else list(map(pow, out, repeat(e), repeat(m)))


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


class DivisorCheck(NamedTuple):
    """Outcome of testing one candidate period d against the window."""

    d: int
    verdict: str  # "holds" (compared, or a period carried from a divisor of e) or "fails"
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


def _sign_classes(m: int, residues: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(values, slots, classes) of the e = 1 window residues = [F_i mod m].

    values holds the distinct c = min(x, m - x) in first-seen order.  Entry i
    is in class k = values.index(c); its slot is k when x = c, and ~k = -1 - k
    when x = m - c.  c = x exactly when x <= m // 2.
    """
    h = m // 2
    seen: dict[int, int] = {}
    # len(seen) is read before setdefault adds c, so a new c gets the next number
    classes = [seen.setdefault(x if x <= h else m - x, len(seen)) for x in residues]
    slots = [k if x <= h else ~k for x, k in zip(residues, classes)]
    return list(seen), slots, classes


def _first_unequal(
    keys: list[int], d: int, i: int = 0, read: Callable[[int], int] | None = None
) -> int | None:
    """The first n >= i with keys[n] != keys[n + d], read by read if given, or None."""
    left, right = islice(keys, i, None), islice(keys, i + d, None)
    if read is not None:
        left, right = map(read, left), map(read, right)
    return next(compress(count(i), map(ne, left, right)), None)


def _square_keys(m: int, values: list[int], e: int) -> list[int]:
    """Each class's square key at even e: its value's square s mod m where
    e = 2 (mod 4), and s up to sign, min(s, m - s), where 4 | e."""
    squares = [c * c % m for c in values]
    return squares if e % 4 else [min(s, m - s) for s in squares]


@lru_cache(maxsize=1)
def _row(j: int) -> tuple:
    """(m, p0, values, slots, classes, divisors, firsts, held) of row j: m = F_j,
    p0 the length of its one e = 1 walk, each class value once (a negative
    slot is read as F_j - c where it is read), firsts[e % 2] a dict from each
    divisor d scanned at that parity to the first i with keys[i] != keys[i + d],
    or None (filled by the first call that scans d at that parity, and never
    rewritten), and held = [(e', P)], P a period at every multiple of e'.
    held[0] starts as (1, p0); a call replaces it whole, and only by a
    strictly smaller minimal period, so it holds the smallest one found.
    The row keeps no squares or powers: those serve one call."""
    m = fib_exact(j)
    window = sequence_prefix(j, 1)
    p0 = len(window)
    values, slots, classes = _sign_classes(m, window)
    return m, p0, values, slots, classes, _divisors(p0), ({}, {}), [(1, p0)]


def minimal_period_bruteforce(j: int, e: int) -> OracleTrace:
    """Minimal period of (F_i^e mod F_j) with divisor-by-divisor evidence.

    The Pisano period p0 of F_j is always a period of the power sequence,
    and the minimal period divides every period, so scanning the divisors
    of p0 in increasing order is exhaustive.  The sequence starts at the
    recurring state (0, 1), hence is purely periodic from index 0.  A shift
    d is tested only on i < p0 - d: as d divides p0, each wrapped pair
    (i, i + d - p0) is joined by a chain of unwrapped ones, so the first
    unequal pair, if any, is unwrapped.  The row's held period P at e' holds
    at every multiple e of e', so there d = P gets a "holds" verdict without
    comparing; each smaller divisor is compared as always.
    """
    j, e = require_int("j", j, 3), require_int("exponent", e, 1)
    m, p0, values, slots, classes, divisors, firsts, held = _row(j)
    keys = slots if e % 2 else classes
    first = firsts[e % 2]
    # raising x_{i+P}^e' = x_i^e' to the power e / e' gives period P at e
    e1, P = held[0]
    carried = P if e % e1 == 0 else p0
    squares = None  # each class's square key at even e, once keys leave a check open

    def power(k: int) -> int:
        """The e-th power mod m of the entry whose slot or class is k."""
        return pow(values[k] if k >= 0 else m - values[~k], e, m)

    checked: list[DivisorCheck] = []
    power_period = p0
    for d in divisors:
        if d != carried and d not in first:
            # every pair before the first whose keys differ is equal at e
            first[d] = _first_unequal(keys, d)
        i = None if d == carried else first[d]
        if i is not None and power(keys[i]) == power(keys[i + d]):
            if e % 2 == 0:
                # equal squares are equal at every even e, and equal up to
                # sign at every e divisible by 4, so the keys' first unequal
                # pair is equal at e and the squares are scanned from it
                if squares is None:
                    squares = _square_keys(m, values, e)
                i = _first_unequal(classes, d, i, squares.__getitem__)
            # at even e the pair whose square keys differ is powered first;
            # where the last pair powered is equal, the powers are scanned
            if i is not None and (e % 2 or power(keys[i]) == power(keys[i + d])):
                i = _first_unequal(keys, d, i, power)
        if i is None:
            checked.append(DivisorCheck(d, "holds"))
            power_period = d
            break
        checked.append(DivisorCheck(d, "fails", i))
    if power_period < P:
        held[0] = (e, power_period)
    return OracleTrace(m, p0, power_period, tuple(checked))

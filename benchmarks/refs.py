"""Reference values computed without powerfib, for checking its outputs.

Nothing here imports powerfib.  Each routine is the plainest one that works:
the Fibonacci recurrence run step by step, the period case table as the
README states it, and factoring by trial division.  A wrong answer from
powerfib can therefore not be hidden by sharing code with its checker.
"""

from __future__ import annotations

from functools import lru_cache


def fib(n: int) -> int:
    """F_n, exact, by running the recurrence n times."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def fib_table(n: int) -> tuple[int, ...]:
    """(F_0, ..., F_n), exact."""
    out = [0, 1]
    while len(out) <= n:
        out.append(out[-1] + out[-2])
    return tuple(out[: n + 1])


def period(j: int, e: int) -> int | None:
    """Minimal period of F_i^e mod F_j, from the case table.

    j = 0 is not periodic; F_1 = F_2 = 1 give 1; F_3 = 2 gives 3; F_6 = 8
    gives 12 for odd e, 6 for e = 2 and 3 for even e >= 4.  Otherwise even j
    gives j (even e) or 2j (odd e), and odd j gives j, 2j or 4j for
    e = 0, 2 or odd (mod 4).
    """
    if j == 0:
        return None
    if j in (1, 2):
        return 1
    if j == 3:
        return 3
    if j == 6:
        if e % 2:
            return 12
        return 6 if e == 2 else 3
    if j % 2 == 0:
        return j if e % 2 == 0 else 2 * j
    if e % 4 == 0:
        return j
    return 2 * j if e % 4 == 2 else 4 * j


def pisano(m: int) -> int:
    """Period of F_i mod m (m >= 2): the first k >= 1 with state (0, 1)."""
    a, b, k = 1, 1, 1
    while (a, b) != (0, 1):
        a, b = b, (a + b) % m
        k += 1
    return k


def fib_residues(j: int, count: int) -> list[int]:
    """(F_i mod F_j for i < count), by the recurrence reduced mod F_j."""
    m = fib(j)
    out = []
    a, b = 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, (a + b) % m
    return out


def power_residues(j: int, e: int) -> list[int]:
    """One minimal period of F_i^e mod F_j, for j >= 3."""
    m = fib(j)
    return [pow(r, e, m) for r in fib_residues(j, period(j, e))]


def factorize(n: int) -> list[tuple[int, int]]:
    """(prime, multiplicity) pairs of n >= 1, ascending, by trial division."""
    out = []
    for p in (2, 3):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            if k:
                out.append((p, k))
        d += 6
    if n > 1:
        out.append((n, 1))
    return out


def rank_of_apparition(p: int) -> int:
    """The least i >= 1 with p | F_i."""
    a, b, i = 1, 1, 1
    while a:
        a, b = b, (a + b) % p
        i += 1
    return i


@lru_cache(maxsize=None)
def fib_factors(j: int) -> tuple[tuple[int, int], ...]:
    return tuple(factorize(fib(j)))


def primitive_primes(j: int) -> list[int]:
    """Primes dividing F_j and no earlier Fibonacci number, ascending."""
    return [p for p, _ in fib_factors(j) if rank_of_apparition(p) == j]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]

"""Exact and modular Fibonacci arithmetic.

Two deliberately separate evaluation routes: fib_exact runs the recurrence
step by step on exact integers, fib_pair_mod uses fast doubling modulo m.
Keeping them independent lets each one certify the other.
"""

from .errors import InvalidModulusError, require_int


def fib_exact(n: int) -> int:
    """F_n as an exact integer, by iterating the recurrence n times."""
    n = require_int("Fibonacci index", n, 0)
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_prefix(count: int) -> list[int]:
    """The first `count` Fibonacci numbers [F_0, ..., F_{count-1}], exact."""
    count = require_int("count", count, 0)
    out = []
    a, b = 0, 1
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n mod m, F_{n+1} mod m) by fast doubling over the bits of n, MSB first.

    Uses F_{2k} = F_k (2 F_{k+1} - F_k) and F_{2k+1} = F_k^2 + F_{k+1}^2,
    so the cost is O(log n) multiplications however large n is.
    """
    m = require_int("modulus", m, 2, InvalidModulusError)
    n = require_int("Fibonacci index", n, 0)
    a, b = 0, 1  # (F_0, F_1)
    if n:
        for bit in bin(n)[2:]:
            # maps (F_k, F_{k+1}) to (F_2k, F_2k+1); % keeps 2b - a in range
            c = a * ((2 * b - a) % m) % m
            d = (a * a + b * b) % m
            if bit == "1":
                a, b = d, (c + d) % m
            else:
                a, b = c, d
    return a, b


def fib_mod(n: int, m: int) -> int:
    """F_n mod m, normalized to [0, m - 1]."""
    return fib_pair_mod(n, m)[0]


def pow_mod(a: int, e: int, m: int) -> int:
    """a^e mod m for nonnegative a and e; a^0 is 1 mod m."""
    m = require_int("modulus", m, 2, InvalidModulusError)
    return pow(require_int("base", a, 0), require_int("exponent", e, 0), m)

"""Exact checks of the identities and divisor facts the closed forms rest on.

Covers the gcd law gcd(F_n, F_m) = F_gcd(n,m), the index-addition formula,
the Catalan and Cassini identities, the squared-term congruence lemma, the
zero positions of power residues, and Carmichael-style primitive prime
divisors of F_j.  Every check is exact integer arithmetic; sweeps aggregate
results into reports that carry a genuine counterexample when one exists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import add, ge, mod, mul, ne, neg, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import OutOfDomainError, ResourceGuardError
from .fibcore import fib_exact, fib_prefix

ALL_PASS = "all_pass"
COUNTEREXAMPLE = "counterexample"
NOT_APPLICABLE = "not_applicable"

TRIAL_DIVISION_BOUND = 10**6
J_FACT_MAX = 80

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Counterexample(NamedTuple):
    """Inputs at which a claim failed, with both evaluated sides and, for a
    claim made of parts, the name of the part that failed."""

    inputs: dict[str, int]
    lhs: int
    rhs: int
    part: str | None = None

    def to_record(self) -> dict:
        rec = {"inputs": dict(self.inputs), "lhs": str(self.lhs), "rhs": str(self.rhs)}
        return rec if self.part is None else {**rec, "part": self.part}


class VerificationReport(NamedTuple):
    """Outcome of sweeping one identity over a stated domain."""

    identity_name: str
    domain_description: str
    cases_checked: int
    verdict: str  # all_pass, counterexample, or not_applicable
    counterexample: Counterexample | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == ALL_PASS

    def to_record(self) -> dict:
        rec = {
            "identity": self.identity_name,
            "domain": self.domain_description,
            "cases": self.cases_checked,
            "verdict": self.verdict,
        }
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample.to_record()
        return rec


# ---------------------------------------------------------------- identities
#
# Each identity is written once, in a row evaluator.  A row is a run of
# cases that differ only in their last index: m at one n for addition, r at
# one n for Catalan, alpha at one k for the square lemma, i at one (j, e)
# for zero positions.  Cassini's sides are 1 and -1, and the gcd law's
# pairs come as a list, so each of those sweeps is a single row;
# Carmichael's rows hold one j each.  The evaluator reads exact values from
# fs (fs[i] = F_i) and returns the row's parts: each is the row's lhs and
# rhs, one entry per case, as lists built with map over slices of fs, or
# for zero positions, which walk F_i mod F_j, as bytes of 0s and 1s.  An
# equation has one part; the square lemma has four, two of them bounds.  A
# sweep checks that its domain is not empty, builds its values once for the
# whole domain and hands _equation_sweep one row at a time, which compares
# each part with one sequence comparison and looks at single cases only in
# a row that fails.  check_square_lemma and check_zero_positions check their
# domain and read a row of their own with _first_failure.
#
# Every divisibility fact is decided by _strip(n, x), which divides n by
# gcd(n, x) until it is 1.  Where p^a || n and p^b || x, k rounds leave
# p^max(0, a - kb): n | x^k exactly when the rest is 1 and k >= rounds, and
# for a prime x the rounds are its multiplicity.


class _Part(NamedTuple):
    """One claim's two sides over a row of cases: it holds at case i when
    lhs[i] == rhs[i], or for a bound when lhs[i] < rhs[i]."""

    lhs: Sequence[int]
    rhs: Sequence[int]
    name: str | None = None
    bound: bool = False


def _first_failure(part: _Part) -> int | None:
    """The index of the first case at which part does not hold, or None."""
    if part.bound:
        fails = map(ge, part.lhs, part.rhs)
    elif part.lhs == part.rhs:
        return None
    else:
        fails = map(ne, part.lhs, part.rhs)
    return next(itertools.compress(itertools.count(), fails), None)


def _fib_values(indices: Iterable[int]) -> dict[int, int]:
    """{i: F_i} for each index asked for, from one walk of the recurrence up
    to the largest, keeping only the values asked for."""
    wanted = set(indices)
    values = {}
    a, b = 0, 1
    for i in range(max(wanted, default=-1) + 1):
        if i in wanted:
            values[i] = a
        a, b = b, a + b
    return values


def _strip(n: int, x: int) -> tuple[int, int]:
    """(rest, rounds): n | x^k exactly when rest == 1 and k >= rounds."""
    rounds, g = 0, math.gcd(n, x)
    while g > 1:
        n //= g
        # the same as gcd(n, x), since n keeps a prime of x only if g took all x has
        g = math.gcd(n, g)
        rounds += 1
    return n, rounds


def _gcd_row(pairs: Sequence[Sequence[int]]) -> tuple[_Part]:
    """gcd(F_n, F_m) against F_gcd(n, m) at each pair (n, m).  The law reads
    a few sparse indices, so the row walks the recurrence for just those."""
    for n, m in pairs:
        if n < 0 or m < 0:
            raise OutOfDomainError(f"indices must be nonnegative, got ({n}, {m})")
        if n == 0 and m == 0:
            raise OutOfDomainError("gcd(F_0, F_0) = gcd(0, 0) is undefined")
    ns, ms = zip(*pairs)
    gs = list(map(math.gcd, ns, ms))
    fs = _fib_values(itertools.chain(ns, ms, gs))
    lhs = list(map(math.gcd, map(fs.__getitem__, ns), map(fs.__getitem__, ms)))
    return (_Part(lhs, list(map(fs.__getitem__, gs))),)


def _addition_row(n: int, ms: range, fs: list[int]) -> tuple[_Part]:
    """F_{n+m} against F_{n-1} F_m + F_n F_{m+1} for m in ms."""
    lo, hi = ms[0], ms[-1] + 1
    rhs = map(add, map(fs[n - 1].__mul__, fs[lo:hi]), map(fs[n].__mul__, fs[lo + 1 : hi + 1]))
    return (_Part(fs[n + lo : n + hi], list(rhs)),)


def _signed_squares(fs: list[int]) -> list[int]:
    """(-1)^r F_r^2 for each F_r of fs."""
    return list(map(mul, itertools.cycle((1, -1)), map(mul, fs, fs)))


def _catalan_row(n: int, rs: range, fs: list[int], signed_squares: list[int]) -> tuple[_Part]:
    """F_n^2 - F_{n-r} F_{n+r} against (-1)^(n-r) F_r^2 for r in rs, with
    signed_squares from _signed_squares."""
    lo, hi = rs[0], rs[-1] + 1
    # F_{n-r} for r = lo, lo + 1, ... runs down the prefix
    products = map(mul, reversed(fs[n - hi + 1 : n - lo + 1]), fs[n + lo : n + hi])
    rhs = signed_squares[lo:hi] if n % 2 == 0 else list(map(neg, signed_squares[lo:hi]))
    return (_Part(list(map((fs[n] * fs[n]).__sub__, products)), rhs),)


def _cassini_row(ns: range, fs: list[int]) -> tuple[_Part]:
    """F_n^2 - F_{n-1} F_{n+1} against (-1)^(n-1) for n in ns."""
    lo, hi = ns[0], ns[-1] + 1
    mid = fs[lo:hi]
    lhs = map(sub, map(mul, mid, mid), map(mul, fs[lo - 1 : hi - 1], fs[lo + 1 : hi + 1]))
    return (_Part(list(lhs), list(map(pow, itertools.repeat(-1), range(lo - 1, hi - 1)))),)


class SquareLemmaVerdict(NamedTuple):
    """The four parts of the squared-term lemma at one (k, alpha)."""

    bound_even_index: bool  # F_k^2 < F_2k
    congruence_even_index: bool  # F_{k+a}^2 = F_{k-a}^2 mod F_2k
    bound_odd_index: bool  # F_{k+1}^2 < F_{2k+1}
    congruence_odd_index: bool  # F_{k+1+a}^2 = -F_{k-a}^2 mod F_{2k+1}


def _square_lemma_row(
    k: int, alphas: range, fs: list[int], squares: list[int]
) -> tuple[_Part, ...]:
    """The four parts at (k, alpha) for alpha in alphas, in
    SquareLemmaVerdict's order, with squares[i] = F_i^2; each congruence's
    sides are reduced."""
    lo, hi = alphas[0], alphas[-1] + 1
    f_2k, f_2k1 = fs[2 * k], fs[2 * k + 1]
    # F_{k-alpha}^2 for alpha = lo, lo + 1, ...
    down = squares[k - hi + 1 : k - lo + 1][::-1]
    # F_{k+alpha}^2 for the same alphas, then one more
    up = squares[k + lo : k + hi + 1]
    names = SquareLemmaVerdict._fields
    return (
        _Part([squares[k]] * (hi - lo), [f_2k] * (hi - lo), names[0], bound=True),
        _Part(
            list(map(mod, up[:-1], itertools.repeat(f_2k))),
            list(map(mod, down, itertools.repeat(f_2k))),
            names[1],
        ),
        _Part([squares[k + 1]] * (hi - lo), [f_2k1] * (hi - lo), names[2], bound=True),
        _Part(
            list(map(mod, up[1:], itertools.repeat(f_2k1))),
            list(map(mod, map(neg, down), itertools.repeat(f_2k1))),
            names[3],
        ),
    )


def check_square_lemma(k: int, alpha: int) -> SquareLemmaVerdict:
    """Exact check of all four parts, for k >= 2 and 0 <= alpha <= k."""
    if k < 2:
        raise OutOfDomainError(f"k must be at least 2, got {k}")
    if alpha < 0 or alpha > k:
        raise OutOfDomainError(f"need 0 <= alpha <= k, got alpha={alpha}, k={k}")
    fs = fib_prefix(2 * k + 2)
    parts = _square_lemma_row(k, range(alpha, alpha + 1), fs, list(map(mul, fs, fs)))
    return SquareLemmaVerdict(*(_first_failure(part) is None for part in parts))


class ZeroPositionsOutcome(NamedTuple):
    """Result of testing F_i^e = 0 mod F_j exactly when j divides i."""

    j: int
    e: int
    i_max: int
    verdict: str  # all_pass, counterexample, or not_applicable (j = 6)
    witness: int | None = None  # smallest index where the two sides differ


def _zero_rows(j: int, es: Sequence[int], i_max: int) -> Iterable[tuple[Iterable, tuple[_Part]]]:
    """One row per e of es, with cases (j, e, i) for i in [0, i_max]: bytes
    holding 1 where F_i^e = 0 mod F_j, against bytes holding 1 where j | i.

    F_i mod F_j is walked once, and F_j stripped once by each distinct
    residue x (_strip): x^e vanishes exactly when e >= rounds and the rest
    is 1; a rest above 1 holds a prime no power of x has.  So any e costs
    one comparison per index.
    """
    if j < 4:
        raise OutOfDomainError(f"zero positions need j >= 4, got {j}")
    # i_max is checked after the first e, as a single check always did
    for e in es:
        if e < 1:
            raise OutOfDomainError(f"exponent must be at least 1, got {e}")
        if i_max < 0:
            raise OutOfDomainError(f"i_max must be nonnegative, got {i_max}")
    m = fib_exact(j)
    residues = []
    a, b = 0, 1
    for _ in range(i_max + 1):
        residues.append(a)
        a, b = b, (a + b) % m
    # the least e at which F_i^e vanishes, inf where none does
    strips = {x: _strip(m, x) for x in set(residues)}
    vanish = [rounds if rest == 1 else math.inf for rest, rounds in map(strips.get, residues)]
    divides = bytearray(i_max + 1)
    divides[::j] = b"\1" * (i_max // j + 1)
    divides = bytes(divides)
    for e in es:
        cases = zip(itertools.repeat(j), itertools.repeat(e), range(i_max + 1))
        yield cases, (_Part(bytes(map(ge, itertools.repeat(e), vanish)), divides),)


def check_zero_positions(j: int, e: int, i_max: int) -> ZeroPositionsOutcome:
    """Scan i in [0, i_max] for the zero-position biconditional.

    j = 6 sits outside the claim: F_6 = 2^3 while F_3 = 2, so high enough
    powers of F_3 already vanish mod F_6.  It gets a not_applicable verdict
    carrying the smallest in-range witness (None if i_max is too small to
    show one).
    """
    ((_, (part,)),) = _zero_rows(j, (e,), i_max)
    witness = _first_failure(part)
    verdict = ALL_PASS if witness is None else COUNTEREXAMPLE
    return ZeroPositionsOutcome(j, e, i_max, NOT_APPLICABLE if j == 6 else verdict, witness)


# ------------------------------------------------- primitive prime divisors


def _is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = _strip(n - 1, 2)
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_factor(n: int) -> tuple[list[tuple[int, int]], int, bool]:
    """Factors found below TRIAL_DIVISION_BOUND, the remaining cofactor, and
    whether it is a prime below 2^64, which ends division early: no divisor
    is left for it to find, so the result is what a walk to the bound gives."""
    factors: list[tuple[int, int]] = []
    prime = n < 2**64 and _is_prime_u64(n)
    limit = min(TRIAL_DIVISION_BOUND, math.isqrt(n))
    # 2, 3, then 6k - 1 and 6k + 1
    wheel = zip(range(5, limit + 1, 6), range(7, limit + 3, 6))
    for p in itertools.chain((2, 3), itertools.chain.from_iterable(wheel)):
        if prime or p > limit:
            break
        if n % p == 0:
            n, mult = _strip(n, p)
            factors.append((p, mult))
            prime = n < 2**64 and _is_prime_u64(n)
            limit = min(limit, math.isqrt(n))
    return factors, n, prime


# a dataclass, not a NamedTuple: a benchmark test alters one with dataclasses.replace
@dataclass(frozen=True)
class PrimitiveDivisorResult:
    """Smallest prime dividing F_j but no earlier F_i, with factor evidence."""

    j: int
    primitive_prime: int | None
    rank_of_apparition: int | None
    factor_trace: tuple[tuple[int, int], ...]  # (prime, multiplicity), ascending


def primitive_prime_divisor(j: int) -> PrimitiveDivisorResult:
    """Find the smallest primitive prime divisor of F_j, or report none.

    F_j is factored by trial division; a leftover cofactor is accepted if a
    deterministic 64-bit primality test confirms it prime, otherwise the
    factorization is out of reach and a resource guard fires carrying the
    partial trace.  The primitive primes are those of F_j's primitive part
    (_primitive_part), so the first traced prime that divides it is the
    answer, with rank of apparition j.
    """
    if j < 3:
        raise OutOfDomainError(f"primitive divisors need j >= 3, got {j}")
    if j > J_FACT_MAX:
        raise ResourceGuardError(f"j={j} exceeds the factorization guard j_fact_max={J_FACT_MAX}")
    fs = fib_prefix(j + 1)
    factors, cofactor, prime = _trial_factor(fs[j])
    if prime:
        factors.append((cofactor, 1))
    elif cofactor >= 2**64:
        raise ResourceGuardError(
            f"cofactor of F_{j} exceeds 64 bits; cannot certify primality",
            partial=tuple(factors),
        )
    elif cofactor > 1:
        raise ResourceGuardError(
            f"cofactor {cofactor} of F_{j} is composite and beyond the "
            f"trial division bound {TRIAL_DIVISION_BOUND}",
            partial=tuple(factors),
        )
    # already ascending: trial division finds primes in order, and a prime
    # cofactor is larger than every prime tried
    g = _primitive_part(j, fs[j], fs)
    q = next((q for q, _ in factors if g % q == 0), None)
    return PrimitiveDivisorResult(
        j=j,
        primitive_prime=q,
        rank_of_apparition=None if q is None else j,
        factor_trace=tuple(factors),
    )


def _primitive_part(j: int, f_j: int, fs: list[int]) -> int:
    """The part of F_j = f_j made of its primitive primes, those dividing no
    F_i with 0 < i < j, from fs[i] = F_i for i <= j // 2, without factoring.

    A prime of F_j that is not primitive has a rank of apparition d < j that
    divides j, so by the gcd law it divides F_{j/q} for some prime q | j.
    Stripping from F_j every prime it shares with each such F_{j/q} leaves
    the primitive primes, to their full powers; 1 when there are none.
    """
    g, n, q = f_j, j, 2
    # q walks the primes of j by trial division; once q * q > n, n is prime
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            n, _ = _strip(n, q)
            g, _ = _strip(g, fs[j // q])
        q += 1
    return g


# -------------------------------------------------------------------- sweeps


def gcd_sample_pairs() -> list[tuple[int, int]]:
    """200 reproducible index pairs in [0, 60]^2 for the gcd sweep, (0, 0) excluded."""
    rng = random.Random(1729)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < 200:
        n, m = rng.randint(0, 60), rng.randint(0, 60)
        if (n, m) != (0, 0):
            pairs.append((n, m))
    return pairs


def _equation_sweep(
    name: str,
    domain: str,
    names: tuple[str, ...],
    rows: Iterable[tuple[Iterable[Sequence[int]], Sequence[_Part]]],
) -> VerificationReport:
    """Check rows in order, each given as its cases (tuples of the
    parameters called names) and its parts.  An equation that holds over a
    row costs one list comparison; only a failing case is named, in its
    counterexample, with the first of its parts that fails."""
    count = 0
    for cases, parts in rows:
        failures = [(i, part) for part in parts if (i := _first_failure(part)) is not None]
        if failures:
            i, part = min(failures, key=lambda failure: failure[0])
            case = next(itertools.islice(cases, i, None))
            found = Counterexample(dict(zip(names, case)), part.lhs[i], part.rhs[i], part.name)
            return VerificationReport(name, domain, count + i + 1, COUNTEREXAMPLE, found)
        count += len(parts[0].lhs)
    return VerificationReport(name, domain, count, ALL_PASS)


def _require_cases(name: str, domain: str, nonempty: bool) -> None:
    if not nonempty:
        raise OutOfDomainError(f"the {name} sweep needs at least one case, got {domain}")


def sweep_gcd(pairs: Iterable[Sequence[int]] | None = None) -> VerificationReport:
    pairs = gcd_sample_pairs() if pairs is None else list(pairs)
    domain = f"{len(pairs)} sampled index pairs"
    _require_cases("gcd", domain, bool(pairs))
    return _equation_sweep("gcd", domain, ("n", "m"), [(pairs, _gcd_row(pairs))])


def sweep_addition(n_max: int = 80, m_max: int = 80) -> VerificationReport:
    domain = f"n in [1, {n_max}], m in [0, {m_max}]"
    _require_cases("addition", domain, n_max >= 1 and m_max >= 0)
    fs = fib_prefix(n_max + m_max + 2)
    ms = range(m_max + 1)
    rows = ((zip(itertools.repeat(n), ms), _addition_row(n, ms, fs)) for n in range(1, n_max + 1))
    return _equation_sweep("addition", domain, ("n", "m"), rows)


def sweep_catalan(n_max: int = 80) -> VerificationReport:
    domain = f"0 <= r <= n <= {n_max}"
    _require_cases("catalan", domain, n_max >= 0)
    fs = fib_prefix(2 * n_max + 1)
    signed_squares = _signed_squares(fs[: n_max + 1])
    rows = (
        (zip(itertools.repeat(n), range(n + 1)), _catalan_row(n, range(n + 1), fs, signed_squares))
        for n in range(n_max + 1)
    )
    return _equation_sweep("catalan", domain, ("n", "r"), rows)


def sweep_cassini(n_max: int = 120) -> VerificationReport:
    # one row: every case's sides are 1 and -1
    domain = f"n in [1, {n_max}]"
    _require_cases("cassini", domain, n_max >= 1)
    ns = range(1, n_max + 1)
    rows = [(zip(ns), _cassini_row(ns, fib_prefix(n_max + 2)))]
    return _equation_sweep("cassini", domain, ("n",), rows)


def sweep_square_lemma(k_max: int = 30) -> VerificationReport:
    domain = f"k in [2, {k_max}], alpha in [0, k]"
    _require_cases("square_lemma", domain, k_max >= 2)
    fs = fib_prefix(2 * k_max + 2)
    squares = list(map(mul, fs, fs))
    rows = (
        (zip(itertools.repeat(k), range(k + 1)), _square_lemma_row(k, range(k + 1), fs, squares))
        for k in range(2, k_max + 1)
    )
    return _equation_sweep("square_lemma", domain, ("k", "alpha"), rows)


def sweep_zero_positions(
    j_values: Iterable[int], e_values: Iterable[int], i_max_factor: int = 5
) -> VerificationReport:
    """Zero-position biconditional over a (j, e) grid, scanning i <= factor*j.

    j = 6 must not be in j_values; it has its own not_applicable outcome.
    """
    js = list(j_values)
    es = list(e_values)
    if not js or not es:
        raise OutOfDomainError("the zero-position sweep needs at least one j and one e")
    if 6 in js:
        raise OutOfDomainError("j = 6 is excluded from the biconditional sweep")
    lo, hi = min(js), max(js)
    if len(set(js)) == len(js) == hi - lo + 1 - (lo <= 6 <= hi):
        j_text = f"{{{lo}..{hi}}} minus 6"
    else:
        j_text = "{" + ", ".join(map(str, js)) + "}"
    if len(set(es)) == len(es) == max(es) - min(es) + 1:
        e_text = f"[{min(es)}, {max(es)}]"
    else:
        e_text = "{" + ", ".join(map(str, es)) + "}"
    domain = f"j in {j_text}, e in {e_text}, i <= {i_max_factor}*j"
    rows = itertools.chain.from_iterable(_zero_rows(j, es, i_max_factor * j) for j in js)
    return _equation_sweep("zero_positions", domain, ("j", "e", "i"), rows)


def sweep_carmichael(
    j_lo: int = 3,
    j_hi: int = 40,
    expected_exceptions: Iterable[int] = (6, 12),
) -> VerificationReport:
    """Primitive prime existence over [j_lo, j_hi] against an exception set.

    The classical exception set for Fibonacci primitive divisors at j >= 3
    is {6, 12}: F_6 = 2^3 with 2 | F_3, and F_12 = 2^4 * 3^2 with 2 | F_3
    and 3 | F_4.  Every other j in range must yield a prime.  Existence is
    decided by gcds alone (_primitive_part), so no F_j is factored and
    no j is out of reach.  Each j is a row of its own, so the sweep stops
    at the first j that fails.
    """
    exceptions = set(expected_exceptions)
    domain = f"j in [{j_lo}, {j_hi}], expected exceptions {sorted(exceptions)}"
    _require_cases("carmichael", domain, j_lo <= j_hi)
    if j_lo < 3:
        raise OutOfDomainError(f"primitive divisors need j >= 3, got {j_lo}")
    return _equation_sweep("carmichael", domain, ("j",), _carmichael_rows(j_lo, j_hi, exceptions))


def _carmichael_rows(
    j_lo: int, j_hi: int, exceptions: set[int]
) -> Iterable[tuple[tuple[tuple[int]], tuple[_Part]]]:
    """One row per j in [j_lo, j_hi]: whether F_j has a primitive prime (1
    or 0) against whether j is outside exceptions.  A case reads F_j and
    F_{j/q} for the primes q | j, so the prefix stops at F_{j_hi // 2} and
    F_j itself is walked once, from the prefix's end or from F_{j_lo}."""
    fs = fib_prefix(j_hi // 2 + 1)
    j = min(j_lo, len(fs) - 1)
    f_j, f_next = fs[j], fs[j] + fs[j - 1]
    for j in range(j, j_hi + 1):
        if j >= j_lo:
            found = int(_primitive_part(j, f_j, fs) > 1)
            yield ((j,),), (_Part([found], [int(j not in exceptions)]),)
        f_j, f_next = f_next, f_j + f_next


# name -> that identity's reports, in the order `powerfib verify` runs them.
# Each sweep runs on its own default domain.  Each entry is a lambda, so the
# sweep is looked up by name when it runs.
VERIFY_SUITE: dict[str, Callable[[], list[VerificationReport]]] = {
    "gcd": lambda: [sweep_gcd()],
    "addition": lambda: [sweep_addition()],
    "catalan": lambda: [sweep_catalan()],
    "cassini": lambda: [sweep_cassini()],
    "square_lemma": lambda: [sweep_square_lemma()],
    "zero_positions": lambda: [
        sweep_zero_positions([j for j in range(4, 21) if j != 6], range(1, 6)),
        # j = 6, outside the claim: evidence rather than a failure, all 31 cases counted
        _equation_sweep(
            "zero_positions_j6_exclusion",
            "j = 6, e = 3, i <= 30",
            ("j", "e", "i"),
            _zero_rows(6, (3,), 30),
        )._replace(verdict=NOT_APPLICABLE, cases_checked=31),
    ],
    "carmichael": lambda: [sweep_carmichael()],
}

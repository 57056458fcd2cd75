from __future__ import annotations

import contextlib
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import powerfib.identities as identities
from powerfib.errors import OutOfDomainError, ResourceGuardError
from powerfib.fibcore import fib_exact, fib_prefix
from powerfib.identities import (
    ALL_PASS,
    COUNTEREXAMPLE,
    NOT_APPLICABLE,
    Counterexample,
    _is_prime_u64,
    check_square_lemma,
    check_zero_positions,
    gcd_sample_pairs,
    primitive_prime_divisor,
    sweep_addition,
    sweep_carmichael,
    sweep_cassini,
    sweep_catalan,
    sweep_gcd,
    sweep_square_lemma,
    sweep_zero_positions,
)


def one_case_holds(parts) -> bool:
    """Whether each part of a one-case equation row has equal sides."""
    assert all(len(part.lhs) == len(part.rhs) == 1 for part in parts)
    return all(part.lhs == part.rhs for part in parts)


def gcd_holds(n: int, m: int) -> bool:
    return one_case_holds(identities._gcd_row([(n, m)]))


def addition_holds(n: int, m: int) -> bool:
    return one_case_holds(identities._addition_row(n, range(m, m + 1), fib_prefix(n + m + 2)))


def catalan_holds(n: int, r: int) -> bool:
    fs = fib_prefix(n + r + 1)
    signed_squares = identities._signed_squares(fs[: r + 1])
    return one_case_holds(identities._catalan_row(n, range(r, r + 1), fs, signed_squares))


def test_gcd_identity_examples():
    assert gcd_holds(10, 15)  # gcd(55, 610) = 5 = F_5
    assert gcd_holds(12, 8)
    assert gcd_holds(0, 9)
    assert gcd_holds(7, 7)


def test_gcd_identity_small_grid():
    pairs = [(n, m) for n in range(21) for m in range(21) if (n, m) != (0, 0)]
    report = sweep_gcd(pairs)
    assert report.verdict == ALL_PASS
    assert report.cases_checked == 21 * 21 - 1


@given(st.integers(min_value=0, max_value=300), st.integers(min_value=1, max_value=300))
def test_gcd_identity_sampled(n, m):
    assert gcd_holds(n, m)


def test_gcd_identity_rejects_zero_pair():
    with pytest.raises(OutOfDomainError):
        sweep_gcd([(0, 0)])
    with pytest.raises(OutOfDomainError):
        sweep_gcd([(-1, 5)])


def test_addition_examples():
    assert addition_holds(7, 5)  # 144 = 8*5 + 13*8
    assert addition_holds(1, 0)


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=200))
def test_addition_sampled(n, m):
    assert addition_holds(n, m)


def test_catalan_examples():
    assert catalan_holds(6, 2)  # 64 - 3*21 = 1 = (+1) * F_2^2
    assert catalan_holds(5, 5)
    assert catalan_holds(9, 0)


def test_catalan_full_small_domain():
    report = sweep_catalan(80)
    assert report.verdict == ALL_PASS
    assert report.cases_checked == 81 * 82 // 2


def test_cassini_full_range():
    report = sweep_cassini(120)
    assert report.verdict == ALL_PASS
    assert report.cases_checked == 120


def test_square_lemma_hand_checked_case():
    # k=3, alpha=2: 4 < 8; 25 = 1 mod 8; 9 < 13; 64 = -1 mod 13
    verdict = check_square_lemma(3, 2)
    assert all(verdict)
    assert verdict == (True, True, True, True)


def test_square_lemma_boundary_alpha():
    # alpha = k touches F_0 = 0 and F_{2k+1} itself
    assert all(check_square_lemma(5, 5))
    assert all(check_square_lemma(2, 0))


def test_square_lemma_full_grid():
    for k in range(2, 31):
        for alpha in range(0, k + 1):
            assert all(check_square_lemma(k, alpha)), (k, alpha)


def prefix_with(index: int, value: int):
    """fib_prefix with F_index replaced by value."""
    real = identities.fib_prefix

    def broken(count):
        fs = real(count)
        if index < count:
            fs[index] = value
        return fs

    return broken


def test_square_lemma_sweep_reports_first_failing_part(monkeypatch):
    # F_7 = 14 breaks only the last part at (3, 0): 9 < 14, but
    # F_4^2 = 9 against -F_3^2 = -4 = 10 mod 14
    monkeypatch.setattr(identities, "fib_prefix", prefix_with(7, 14))
    report = sweep_square_lemma(5)
    assert report.verdict == COUNTEREXAMPLE
    # three cases at k = 2, which read no further than F_5, then (3, 0)
    assert report.cases_checked == 4
    assert report.counterexample == Counterexample(
        {"k": 3, "alpha": 0}, 9, 10, "congruence_odd_index"
    )
    assert report.to_record()["counterexample"] == {
        "inputs": {"k": 3, "alpha": 0},
        "lhs": "9",
        "rhs": "10",
        "part": "congruence_odd_index",
    }


def test_square_lemma_sweep_fails_a_bound_with_equal_sides(monkeypatch):
    # F_4 = 1 breaks the bound F_2^2 < F_4 at k = 2 with both sides 1, which
    # an equality test would read as a pass
    monkeypatch.setattr(identities, "fib_prefix", prefix_with(4, 1))
    assert not check_square_lemma(2, 0).bound_even_index
    report = sweep_square_lemma(2)
    assert report.verdict == COUNTEREXAMPLE
    assert report.cases_checked == 1
    assert report.counterexample == Counterexample({"k": 2, "alpha": 0}, 1, 1, "bound_even_index")


def test_square_lemma_sweep_reports_the_first_failing_case_then_part(monkeypatch):
    # F_3 = 3 breaks two parts at k = 2: congruence_even_index at alpha = 1
    # (F_3^2 = 0 against F_1^2 = 1 mod 3), and bound_odd_index, a later part,
    # at every alpha (F_3^2 = 9 against F_5 = 5); the first case wins
    monkeypatch.setattr(identities, "fib_prefix", prefix_with(3, 3))
    report = sweep_square_lemma(2)
    assert report.cases_checked == 1
    assert report.counterexample == Counterexample({"k": 2, "alpha": 0}, 9, 5, "bound_odd_index")


def test_addition_sweep_reports_failing_case(monkeypatch):
    real = identities._addition_row

    def broken_at_3_2(n, ms, fs):
        (part,) = real(n, ms, fs)
        if n == 3 and 2 in ms:
            part.rhs[ms.index(2)] += 1
        return (part,)

    monkeypatch.setattr(identities, "_addition_row", broken_at_3_2)
    report = sweep_addition(5, 5)
    assert report.verdict == COUNTEREXAMPLE
    # n = 1 and n = 2 give six cases each, then m = 0, 1, 2 at n = 3
    assert report.cases_checked == 15
    # F_5 = 5 against F_2 F_2 + F_3 F_3 = 5, pushed to 6
    assert report.counterexample == Counterexample({"n": 3, "m": 2}, 5, 6)
    assert list(report.counterexample.inputs) == ["n", "m"]


def test_catalan_sweep_reports_failing_case(monkeypatch):
    real = identities._catalan_row

    def broken_at_4_2(n, rs, fs, signed_squares):
        (part,) = real(n, rs, fs, signed_squares)
        if n == 4 and 2 in rs:
            part.rhs[rs.index(2)] *= -1
        return (part,)

    monkeypatch.setattr(identities, "_catalan_row", broken_at_4_2)
    report = sweep_catalan(6)
    assert report.verdict == COUNTEREXAMPLE
    # 1 + 2 + 3 + 4 cases for n < 4, then r = 0, 1, 2 at n = 4
    assert report.cases_checked == 13
    # F_4^2 - F_2 F_6 = 9 - 8 = 1 against (+1) F_2^2 = 1, negated
    assert report.counterexample == Counterexample({"n": 4, "r": 2}, 1, -1)
    assert list(report.counterexample.inputs) == ["n", "r"]


def test_gcd_sweep_reports_failing_case(monkeypatch):
    real = identities._gcd_row

    def broken_at_9_6(pairs):
        (part,) = real(pairs)
        for i, pair in enumerate(pairs):
            if tuple(pair) == (9, 6):
                part.rhs[i] += 1
        return (part,)

    monkeypatch.setattr(identities, "_gcd_row", broken_at_9_6)
    # a pair may come as any two-item sequence; its case keeps both names
    report = sweep_gcd([(4, 6), [0, 5], (9, 6), (12, 8)])
    assert report.verdict == COUNTEREXAMPLE
    assert report.cases_checked == 3
    # gcd(F_9, F_6) = gcd(34, 8) = 2 against F_3 = 2, pushed to 3
    assert report.counterexample == Counterexample({"n": 9, "m": 6}, 2, 3)
    assert list(report.counterexample.inputs) == ["n", "m"]


def test_cassini_sweep_reports_failing_case(monkeypatch):
    real = identities._cassini_row

    def broken_at_6(ns, fs):
        (part,) = real(ns, fs)
        if 6 in ns:
            part.rhs[ns.index(6)] *= -1
        return (part,)

    monkeypatch.setattr(identities, "_cassini_row", broken_at_6)
    report = sweep_cassini(10)
    assert report.verdict == COUNTEREXAMPLE
    assert report.cases_checked == 6
    # F_6^2 - F_5 F_7 = 64 - 65 = -1 against (-1)^5 = -1, negated
    assert report.counterexample == Counterexample({"n": 6}, -1, 1)
    assert report.to_record()["counterexample"] == {"inputs": {"n": 6}, "lhs": "-1", "rhs": "1"}


def test_carmichael_sweep_reports_failing_case(monkeypatch):
    real = identities._carmichael_rows

    def none_at_9(j_lo, j_hi, exceptions):
        for cases, (part,) in real(j_lo, j_hi, exceptions):
            if cases == ((9,),):
                part.lhs[0] = 0
            yield cases, (part,)

    monkeypatch.setattr(identities, "_carmichael_rows", none_at_9)
    report = sweep_carmichael(5, 20)
    assert report.verdict == COUNTEREXAMPLE
    assert report.cases_checked == 5  # j = 5 .. 9
    # no prime found at j = 9, where one was demanded
    assert report.counterexample == Counterexample({"j": 9}, 0, 1)
    assert list(report.counterexample.inputs) == ["j"]


@contextlib.contextmanager
def recording_fib_calls():
    """Count identities' fib_exact calls and keep each prefix fib_prefix builds."""
    real_prefix, real_exact = identities.fib_prefix, identities.fib_exact
    calls = {"fib_exact": 0, "prefixes": []}

    def prefix(count):
        calls["prefixes"].append(real_prefix(count))
        return calls["prefixes"][-1]

    def exact(n):
        calls["fib_exact"] += 1
        return real_exact(n)

    identities.fib_prefix, identities.fib_exact = prefix, exact
    try:
        yield calls
    finally:
        identities.fib_prefix, identities.fib_exact = real_prefix, real_exact


@pytest.mark.parametrize(
    ("sweep", "args"),
    [
        (sweep_addition, (30, 30)),
        (sweep_catalan, (30,)),
        (sweep_cassini, (30,)),
        (sweep_square_lemma, (10,)),
        (sweep_gcd, ()),
    ],
    ids=["addition", "catalan", "cassini", "square_lemma", "gcd"],
)
def test_each_sweep_builds_at_most_one_prefix(sweep, args):
    with recording_fib_calls() as calls:
        assert sweep(*args).passed
    assert len(calls["prefixes"]) <= 1
    if sweep is sweep_gcd:
        assert calls["fib_exact"] == 0


def test_gcd_on_a_large_index_builds_no_prefix():
    # a prefix to F_50000 would hold about 125 MB; the values read, a few kB
    for run in (
        lambda: sweep_gcd([(50_000, 1)]).passed,
        lambda: sweep_gcd([(50_000, 3), (3, 50_000)]).passed,
    ):
        with recording_fib_calls() as calls:
            tracemalloc.start()
            try:
                assert run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert calls["prefixes"] == []
        assert peak < 1_000_000


def sweep_rows(row_name: str, sweep, *args) -> list[tuple[tuple, tuple]]:
    """The arguments and result of each call sweep(*args) makes to
    identities.<row_name>, in order: for a row evaluator, each row's parts."""
    real = getattr(identities, row_name)
    rows = []

    def recording(*row_args):
        rows.append((row_args, real(*row_args)))
        return rows[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, row_name, recording)
        sweep(*args)
    return rows


def case_sides(parts, i: int, length: int) -> list[tuple]:
    """Each part's name and sides at case i of a row of length cases."""
    assert all(len(part.lhs) == len(part.rhs) == length for part in parts)
    return [(part.name, part.lhs[i], part.rhs[i]) for part in parts]


def pair_below(lo: int, hi: int):
    """Pairs (x, y) with lo <= x <= hi and 0 <= y <= x."""
    return st.integers(lo, hi).flatmap(lambda x: st.tuples(st.just(x), st.integers(0, x)))


# Each row evaluator must give a case the same sides in its sweep's row, read
# from the sweep's prefix, as in a row of that case alone, read from the
# shortest prefix the case needs; slack 0 puts the case on the corner of the
# sweep's domain.


@given(st.integers(1, 40), st.integers(0, 40), st.integers(0, 10), st.integers(0, 10))
@example(40, 40, 0, 0)
def test_addition_reads_sweep_prefix_like_own(n, m, n_slack, m_slack):
    rows = sweep_rows("_addition_row", sweep_addition, n + n_slack, m + m_slack)
    ((_, ms, _), parts) = rows[n - 1]
    own = identities._addition_row(n, range(m, m + 1), fib_prefix(n + m + 2))
    assert case_sides(parts, m, len(ms)) == case_sides(own, 0, 1)


@given(pair_below(0, 60), st.integers(0, 10))
@example((60, 60), 0)
@example((60, 0), 0)
def test_catalan_reads_sweep_prefix_like_own(n_r, slack):
    n, r = n_r
    rows = sweep_rows("_catalan_row", sweep_catalan, n + slack)
    ((_, rs, _, _), parts) = rows[n]
    fs = fib_prefix(n + r + 1)
    own = identities._catalan_row(n, range(r, r + 1), fs, identities._signed_squares(fs))
    assert case_sides(parts, r, len(rs)) == case_sides(own, 0, 1)


@given(st.integers(1, 120), st.integers(0, 10))
@example(120, 0)
def test_cassini_reads_sweep_prefix_like_own(n, slack):
    (((ns, _), parts),) = sweep_rows("_cassini_row", sweep_cassini, n + slack)
    own = identities._cassini_row(range(n, n + 1), fib_prefix(n + 2))
    assert case_sides(parts, n - 1, len(ns)) == case_sides(own, 0, 1)


@given(pair_below(2, 30), st.integers(0, 10))
@example((30, 30), 0)
@example((30, 0), 0)
def test_square_lemma_reads_sweep_prefix_like_own(k_alpha, slack):
    k, alpha = k_alpha
    rows = sweep_rows("_square_lemma_row", sweep_square_lemma, k + slack)
    ((_, alphas, _, _), parts) = rows[k - 2]
    fs = fib_prefix(2 * k + 2)
    own = identities._square_lemma_row(k, range(alpha, alpha + 1), fs, [f * f for f in fs])
    assert case_sides(parts, alpha, len(alphas)) == case_sides(own, 0, 1)


# indices past 10000, where a prefix would be megabytes; few examples, since
# each one walks the recurrence that far once per pair
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12_000), st.integers(1, 12_000)), min_size=1, max_size=3))
@example([(12_000, 12_000)])
@example([(0, 10_001), (10_001, 1)])
@example([(12_000, 8_000), (9_000, 6_000)])
def test_gcd_reads_sweep_values_like_own(pairs):
    (((row_pairs,), parts),) = sweep_rows("_gcd_row", sweep_gcd, pairs)
    for i, pair in enumerate(pairs):
        assert case_sides(parts, i, len(row_pairs)) == case_sides(identities._gcd_row([pair]), 0, 1)


@given(st.integers(3, 90), st.integers(0, 90))
@example(3, 0)
@example(46, 0)
@example(47, 0)
@example(3, 87)
def test_carmichael_reads_half_prefix_like_own(j_lo, width):
    # F_j is walked from the end of the half prefix, or from F_{j_lo}
    j_hi = j_lo + width
    calls = sweep_rows("_primitive_part", sweep_carmichael, j_lo, j_hi)
    assert [args[0] for args, _ in calls] == list(range(j_lo, j_hi + 1))
    for (j, f_j, fs), found in calls:
        assert f_j == fib_exact(j)
        assert fs == fib_prefix(j_hi // 2 + 1)
        assert found == identities._primitive_part(j, f_j, fib_prefix(j // 2 + 1))


# Every row sweep, with one prefix value corrupted, must report what a plain
# loop over its cases reports; the loops below read the same corrupted
# values, one case at a time, in the sweep's order.


def plain_report(cases) -> tuple:
    """Verdict, cases checked and counterexample of a loop over cases, each
    its inputs and parts (name, lhs, rhs, whether a bound)."""
    count = 0
    for inputs, parts in cases:
        count += 1
        for name, lhs, rhs, bound in parts:
            if not (lhs < rhs if bound else lhs == rhs):
                return COUNTEREXAMPLE, count, Counterexample(inputs, lhs, rhs, name)
    return ALL_PASS, count, None


def plain_addition(fs, n_max):
    m_max = len(fs) - n_max - 2
    for n in range(1, n_max + 1):
        for m in range(m_max + 1):
            rhs = fs[n - 1] * fs[m] + fs[n] * fs[m + 1]
            yield {"n": n, "m": m}, [(None, fs[n + m], rhs, False)]


def plain_catalan(fs, n_max):
    for n in range(n_max + 1):
        for r in range(n + 1):
            lhs = fs[n] ** 2 - fs[n - r] * fs[n + r]
            yield {"n": n, "r": r}, [(None, lhs, (-1) ** (n - r) * fs[r] ** 2, False)]


def plain_cassini(fs, n_max):
    for n in range(1, n_max + 1):
        yield {"n": n}, [(None, fs[n] ** 2 - fs[n - 1] * fs[n + 1], (-1) ** (n - 1), False)]


def plain_square_lemma(fs, k_max):
    for k in range(2, k_max + 1):
        for alpha in range(k + 1):
            f_2k, f_2k1 = fs[2 * k], fs[2 * k + 1]
            yield {"k": k, "alpha": alpha}, [
                ("bound_even_index", fs[k] ** 2, f_2k, True),
                (
                    "congruence_even_index",
                    fs[k + alpha] ** 2 % f_2k,
                    fs[k - alpha] ** 2 % f_2k,
                    False,
                ),
                ("bound_odd_index", fs[k + 1] ** 2, f_2k1, True),
                (
                    "congruence_odd_index",
                    fs[k + 1 + alpha] ** 2 % f_2k1,
                    -(fs[k - alpha] ** 2) % f_2k1,
                    False,
                ),
            ]


PLAIN_SWEEPS = {
    # sweep, plain loop, smallest and largest size, prefix length at size
    "addition": (lambda n: sweep_addition(n, n + 1), plain_addition, 1, 8, lambda n: 2 * n + 3),
    "catalan": (sweep_catalan, plain_catalan, 0, 10, lambda n: 2 * n + 1),
    "cassini": (sweep_cassini, plain_cassini, 1, 16, lambda n: n + 2),
    "square_lemma": (sweep_square_lemma, plain_square_lemma, 2, 8, lambda k: 2 * k + 2),
}


def report_fields(report) -> tuple:
    return report.verdict, report.cases_checked, report.counterexample


@settings(max_examples=300)
@given(st.sampled_from(sorted(PLAIN_SWEEPS)), st.data())
def test_row_sweeps_match_plain_loops_on_corrupted_prefixes(kind, data):
    sweep, plain, lo, hi, length = PLAIN_SWEEPS[kind]
    size = data.draw(st.integers(lo, hi), label="size")
    # index length(size) lies past the prefix and corrupts nothing
    index = data.draw(st.integers(0, length(size)), label="index")
    delta = data.draw(st.integers(-2, 3) | st.integers(-1000, 1000), label="delta")
    value = max(1, fib_exact(index) + delta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "fib_prefix", prefix_with(index, value))
        report = sweep(size)
        fs = identities.fib_prefix(length(size))
    expected = plain_report(plain(fs, size))
    assert report_fields(report) == expected
    if expected[2] is not None:
        assert list(report.counterexample.inputs) == list(expected[2].inputs)


def plain_gcd(fs, pairs):
    for n, m in pairs:
        yield {"n": n, "m": m}, [(None, math.gcd(fs[n], fs[m]), fs[math.gcd(n, m)], False)]


@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)).filter(any), min_size=1, max_size=8),
    st.integers(0, 15),
    st.integers(-2, 3),
)
def test_gcd_row_sweep_matches_plain_loop_on_corrupted_values(pairs, index, delta):
    real = identities._fib_values

    def corrupted(indices):
        values = real(indices)
        if index in values:
            values[index] = max(1, values[index] + delta)
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_fib_values", corrupted)
        report = sweep_gcd(pairs)
        fs = corrupted(range(16))
    assert report_fields(report) == plain_report(plain_gcd(fs, pairs))


def test_square_lemma_domain():
    with pytest.raises(OutOfDomainError):
        check_square_lemma(1, 0)
    with pytest.raises(OutOfDomainError):
        check_square_lemma(4, 5)
    with pytest.raises(OutOfDomainError):
        check_square_lemma(4, -1)


def test_zero_positions_pass_cases():
    assert check_zero_positions(12, 2, 60).verdict == ALL_PASS
    assert check_zero_positions(4, 1, 0).verdict == ALL_PASS
    for j in range(4, 21):
        if j == 6:
            continue
        for e in range(1, 6):
            outcome = check_zero_positions(j, e, 5 * j)
            assert outcome.verdict == ALL_PASS, (j, e)
            assert outcome.witness is None
    # any e costs one comparison per index: a walk stepping up from e = 1
    # would not return
    assert check_zero_positions(7, 10**18, 35).verdict == ALL_PASS


def test_zero_positions_j6_exclusion():
    # cubes of F_3 = 2 vanish mod F_6 = 8 long before index 6
    outcome = check_zero_positions(6, 3, 12)
    assert outcome.verdict == NOT_APPLICABLE
    assert outcome.witness == 3
    # squares never trip it; still reported as outside the claim
    outcome = check_zero_positions(6, 2, 100)
    assert outcome.verdict == NOT_APPLICABLE
    assert outcome.witness is None
    assert check_zero_positions(6, 10**18 + 1, 30).witness == 3


def test_zero_positions_counterexample(monkeypatch):
    # mod 4 in place of F_4 = 3: F_3 = 2 squares to 0 at i = 3, and at
    # i = 4 F_4 = 3 does not vanish although 4 | 4
    monkeypatch.setattr(identities, "fib_exact", lambda n: 4 if n == 4 else fib_exact(n))
    outcome = check_zero_positions(4, 2, 20)
    assert (outcome.verdict, outcome.witness) == (COUNTEREXAMPLE, 3)
    assert check_zero_positions(4, 1, 20).witness == 4

    report = sweep_zero_positions([5, 4, 7], [1, 2])
    assert report.verdict == COUNTEREXAMPLE
    # each (j, e) counts the indices its scan ran: i <= 5 j for j = 5 at
    # e = 1 and 2, then i <= 4 for j = 4, whose scan stopped at its witness
    assert report.cases_checked == 26 + 26 + 5
    # lhs: F_4 vanished mod F_j; rhs: j | i
    assert report.counterexample == Counterexample({"j": 4, "e": 1, "i": 4}, 0, 1)
    report = sweep_zero_positions([4], [2])
    assert report.counterexample == Counterexample({"j": 4, "e": 2, "i": 3}, 1, 0)


def test_zero_positions_domain():
    with pytest.raises(OutOfDomainError):
        check_zero_positions(3, 1, 10)
    with pytest.raises(OutOfDomainError):
        check_zero_positions(7, 0, 10)
    with pytest.raises(OutOfDomainError):
        check_zero_positions(7, 1, -1)
    # checked in this order: j, then each e followed by i_max
    with pytest.raises(OutOfDomainError, match="need j >= 4, got 3"):
        check_zero_positions(3, 0, -1)
    with pytest.raises(OutOfDomainError, match="at least 1, got 0"):
        check_zero_positions(7, 0, -1)
    with pytest.raises(OutOfDomainError, match="nonnegative, got -5"):
        sweep_zero_positions([5, 4], [1, 0], -1)
    with pytest.raises(OutOfDomainError, match="at least 1, got 0"):
        sweep_zero_positions([5, 4], [1, 0])


def _plain_zero_witness(m: int, j: int, e: int, i_max: int) -> int | None:
    """The first i <= i_max where F_i^e = 0 mod m and j | i disagree, by one
    pow per index."""
    a, b = 0, 1
    for i in range(i_max + 1):
        if (pow(a, e, m) == 0) != (i % j == 0):
            return i
        a, b = b, (a + b) % m
    return None


def zero_witnesses(j: int, es, i_max: int) -> list[int | None]:
    """The first failing i of each of _zero_rows' rows, one row per e."""
    return [identities._first_failure(part) for _, (part,) in identities._zero_rows(j, es, i_max)]


def test_zero_witnesses_match_plain():
    for j in [*range(4, 61), 6]:
        m = fib_exact(j)
        plain = [_plain_zero_witness(m, j, e, 5 * j) for e in range(1, 11)]
        assert zero_witnesses(j, range(1, 11), 5 * j) == plain, j
    # j = 6: F_3 = 2 cubed vanishes mod 8 from e = 3 on, squared never
    assert zero_witnesses(6, range(1, 5), 30) == [None, None, 3, 3]


@pytest.mark.parametrize(
    "es",
    [
        [2, 5],
        [3, 1, 2],
        [5, 2],
        [1, 2, 3, 5, 6],
        [4, 4, 5],
        [6, 5],
        [10**18, 2],
        [10**18 + 1, 5, 5],
        [6, 5, 4, 3, 2, 1],
    ],
)
def test_zero_witnesses_with_gaps_and_out_of_order(monkeypatch, es):
    # mod 32 in place of F_8 = 21: F_3 = 2 vanishes from e = 5, F_6 = 8 from
    # e = 2, so the witness at i <= 40 is 8 at e = 1, 6 at e = 2..4, 3 after
    monkeypatch.setattr(identities, "fib_exact", lambda n: 32 if n == 8 else fib_exact(n))
    plain = [_plain_zero_witness(32, 8, e, 40) for e in es]
    assert zero_witnesses(8, es, 40) == plain
    assert plain == [{1: 8, 2: 6, 3: 6, 4: 6}.get(e, 3) for e in es]


def test_sweep_zero_positions_computes_each_modulus_once():
    js = [j for j in range(4, 21) if j != 6]
    with recording_fib_calls() as calls:
        assert sweep_zero_positions(js, range(1, 6)).passed
    assert calls["fib_exact"] == len(js)
    assert calls["prefixes"] == []


def test_primitive_prime_small_cases():
    r = primitive_prime_divisor(3)
    assert r.primitive_prime == 2 and r.rank_of_apparition == 3
    r = primitive_prime_divisor(9)
    assert r.primitive_prime == 17
    assert r.factor_trace == ((2, 1), (17, 1))
    r = primitive_prime_divisor(10)
    assert r.primitive_prime == 11


def test_primitive_prime_none_at_6_and_12():
    # F_6 = 8 = 2^3 and 2 already divides F_3; F_12 = 144 = 2^4 * 3^2 with
    # 2 | F_3 and 3 | F_4: the two indexes at or above 3 with no primitive
    # prime divisor
    r6 = primitive_prime_divisor(6)
    assert r6.primitive_prime is None
    assert r6.rank_of_apparition is None
    assert r6.factor_trace == ((2, 3),)
    r12 = primitive_prime_divisor(12)
    assert r12.primitive_prime is None
    assert r12.factor_trace == ((2, 4), (3, 2))


def test_primitive_prime_sweep_truth():
    for j in range(3, 41):
        r = primitive_prime_divisor(j)
        if j in (6, 12):
            assert r.primitive_prime is None, j
        else:
            assert r.primitive_prime is not None, j
            assert r.rank_of_apparition == j


def test_factor_trace_multiplies_back():
    # up to the guard, so the trace of a prime cofactor that ends the
    # division early is checked too (F_79 = 157 * 92180471494753); F_73 is
    # beyond the trial bound
    for j in [*range(3, 73), *range(74, 81)]:
        r = primitive_prime_divisor(j)
        assert math.prod(p**mult for p, mult in r.factor_trace) == fib_exact(j), j
        assert list(r.factor_trace) == sorted(r.factor_trace)


def test_primitive_prime_larger_indexes():
    # frozen from a separate factorization run
    expected = {41: 2789, 50: 101, 60: 2521, 64: 1087, 80: 1601}
    for j, want in expected.items():
        r = primitive_prime_divisor(j)
        assert r.primitive_prime == want, j
        assert r.rank_of_apparition == j


def test_primitive_prime_guards():
    # F_73 splits into two primes above the trial bound; the guard carries
    # the partial trace (empty: no small factors at all)
    with pytest.raises(ResourceGuardError) as err:
        primitive_prime_divisor(73)
    assert err.value.partial == ()
    with pytest.raises(ResourceGuardError) as err:
        primitive_prime_divisor(81)
    assert str(err.value) == "j=81 exceeds the factorization guard j_fact_max=80"
    with pytest.raises(OutOfDomainError):
        primitive_prime_divisor(2)


def test_primitive_prime_guard_on_a_wide_cofactor(monkeypatch):
    # F_94 has no prime factor below the trial bound, F_113 only 677; what
    # is left of each is wider than 64 bits
    monkeypatch.setattr(identities, "J_FACT_MAX", 113)
    for j, partial in ((94, ()), (113, ((677, 1),))):
        with pytest.raises(ResourceGuardError) as err:
            primitive_prime_divisor(j)
        assert str(err.value) == f"cofactor of F_{j} exceeds 64 bits; cannot certify primality"
        assert err.value.partial == partial
        cofactor = fib_exact(j) // math.prod(p**mult for p, mult in partial)
        assert cofactor >= 2**64


def test_primitive_prime_guard_is_configurable(monkeypatch):
    monkeypatch.setattr(identities, "J_FACT_MAX", 90)
    r = primitive_prime_divisor(85)
    assert r.primitive_prime is not None
    assert r.rank_of_apparition == 85


# each pair of examples at k = rounds and k = rounds - 1 pins rounds
@given(st.integers(1, 10**6), st.integers(0, 10**4), st.integers(0, 40))
@example(12, 0, 1)  # x = 0: one round divides all of n out
@example(12, 0, 0)
@example(12, 1, 5)
@example(1, 7, 0)
@example(8, 2, 3)  # (1, 3)
@example(8, 2, 2)
@example(144, 6, 4)  # 2^4 * 3^2 by 2 * 3: (1, 4)
@example(144, 6, 3)
def test_strip_decides_divisibility_of_powers(n, x, k):
    rest, rounds = identities._strip(n, x)
    assert (x**k % n == 0) == (rest == 1 and k >= rounds)
    assert math.gcd(rest, x) == 1 and n % rest == 0
    if x > 1 and all(x % p for p in range(2, math.isqrt(x) + 1)):
        mult = 0
        while n % x ** (mult + 1) == 0:
            mult += 1
        assert rounds == mult


def test_is_prime_u64():
    assert _is_prime_u64(2) and _is_prime_u64(3) and _is_prime_u64(97)
    assert _is_prime_u64(2**61 - 1)
    assert not _is_prime_u64(1)
    assert not _is_prime_u64(561)  # Carmichael number
    assert not _is_prime_u64(3825123056546413051)  # strong pseudoprime to many bases
    assert not _is_prime_u64(2**61 + 1)


def _primes_to(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p in range(bound + 1) if sieve[p]]


def _plain_trial_factor(n: int, primes: list[int]) -> tuple[list[tuple[int, int]], int]:
    """Divide out 2 and 3, then every prime up to the trial division bound
    while p^2 <= n, with no primality test and no early end."""
    factors = []
    for p in primes:
        if p > 3 and p * p > n:
            break
        if n % p == 0:
            mult = 0
            while n % p == 0:
                n //= p
                mult += 1
            factors.append((p, mult))
    return factors, n


def _as_product(factors: list[tuple[int, int]], cofactor: int) -> list[tuple[int, int]]:
    return sorted(factors + [(cofactor, 1)] * (cofactor > 1))


def test_trial_factor_matches_plain_trial_division():
    # compared as products: a prime cofactor ends the factoring, so F_3 = 2
    # and F_4 = 3 stay the cofactor where plain division takes them as factors
    primes = _primes_to(identities.TRIAL_DIVISION_BOUND)
    for n in [fib_exact(j) for j in range(1, 81)] + [157 * 92180471494753]:
        factors, cofactor, prime = identities._trial_factor(n)
        assert _as_product(factors, cofactor) == _as_product(*_plain_trial_factor(n, primes)), n
        assert prime == (1 < cofactor < 2**64 and _is_prime_u64(cofactor)), n
    # F_18 = 2^3 * 17 * 19: the prime 19 left after 17 ends the division
    assert identities._trial_factor(fib_exact(18)) == ([(2, 3), (17, 1)], 19, True)
    # F_77: the cofactor after 13 and 89 is 988681 x 4832521, composite and
    # below 2^64, so an end that skips the primality test stops too soon
    assert identities._trial_factor(fib_exact(77)) == (
        [(13, 1), (89, 1), (988681, 1)],
        4832521,
        True,
    )
    # the prime cofactor of F_79 ends the division right after 157
    assert identities._trial_factor(fib_exact(79)) == ([(157, 1)], 92180471494753, True)


def test_gcd_sample_is_reproducible():
    a = gcd_sample_pairs()
    b = gcd_sample_pairs()
    assert a == b
    assert len(a) == 200
    assert (0, 0) not in a
    assert all(0 <= n <= 60 and 0 <= m <= 60 for n, m in a)


def test_sweeps_all_pass():
    # twice the largest domains the sweeps benchmark runs for addition,
    # Catalan and the square lemma, the largest for the others; each report
    # covers its domain's closed count of cases
    js = [j for j in range(4, 61) if j != 6]
    wide_js = [j for j in range(4, 121) if j != 6]
    for report, cases in [
        (sweep_gcd(), 200),
        (sweep_addition(400, 400), 400 * 401),
        (sweep_catalan(480), 481 * 482 // 2),
        (sweep_cassini(600), 600),
        (sweep_square_lemma(200), 201 * 202 // 2 - 3),
        (sweep_zero_positions(js, range(1, 11)), sum(10 * (5 * j + 1) for j in js)),
        # every exponent to 60 on twice the j range: 2181360 cases
        (sweep_zero_positions(wide_js, range(1, 61)), sum(60 * (5 * j + 1) for j in wide_js)),
        (sweep_carmichael(3, 72, expected_exceptions=(6, 12)), 70),
    ]:
        assert report.passed, report
        assert report.cases_checked == cases, report


@pytest.mark.parametrize(
    ("sweep", "args"),
    [
        (sweep_addition, (0, 0)),
        (sweep_addition, (5, -1)),
        (sweep_catalan, (-1,)),
        (sweep_cassini, (0,)),
        (sweep_square_lemma, (1,)),
        (sweep_gcd, ([],)),
        (sweep_carmichael, (10, 5)),
    ],
    ids=["addition", "addition_no_m", "catalan", "cassini", "square_lemma", "gcd", "carmichael"],
)
def test_sweep_rejects_an_empty_domain(sweep, args):
    with pytest.raises(OutOfDomainError, match="sweep needs at least one case, got "):
        sweep(*args)


def test_sweep_zero_positions_domain_names_the_j_it_ran():
    report = sweep_zero_positions([4, 10], [1])
    assert report.domain_description == "j in {4, 10}, e in [1, 1], i <= 5*j"
    assert report.cases_checked == 21 + 51
    js = [j for j in range(4, 11) if j != 6]
    report = sweep_zero_positions(js, [1])
    assert report.domain_description == "j in {4..10} minus 6, e in [1, 1], i <= 5*j"


def test_sweep_zero_positions_domain_names_the_e_it_ran():
    report = sweep_zero_positions([4], [1, 5])
    assert report.domain_description == "j in {4..4} minus 6, e in {1, 5}, i <= 5*j"
    assert report.cases_checked == 21 + 21
    report = sweep_zero_positions([4], [3, 1, 2])
    assert report.domain_description == "j in {4..4} minus 6, e in [1, 3], i <= 5*j"
    # the text is decided from counts, so a wide gap takes no memory, and the
    # row at e = 10**18 costs what the row at e = 1 does
    report = sweep_zero_positions([5], [1, 10**18])
    assert report.domain_description == f"j in {{5..5}} minus 6, e in {{1, {10**18}}}, i <= 5*j"
    assert report.passed and report.cases_checked == 26 + 26


def _listed_domain_text(js, es) -> str:
    """The domain text built by listing each consecutive range in full."""
    lo, hi = min(js), max(js)
    if sorted(js) == [j for j in range(lo, hi + 1) if j != 6]:
        j_text = f"{{{lo}..{hi}}} minus 6"
    else:
        j_text = "{" + ", ".join(map(str, js)) + "}"
    if sorted(es) == list(range(min(es), max(es) + 1)):
        e_text = f"[{min(es)}, {max(es)}]"
    else:
        e_text = "{" + ", ".join(map(str, es)) + "}"
    return f"j in {j_text}, e in {e_text}, i <= 1*j"


@settings(max_examples=60)
@given(
    st.lists(st.integers(4, 14).filter(lambda j: j != 6), min_size=1, max_size=8),
    st.lists(st.integers(1, 8), min_size=1, max_size=8),
)
@example([4, 5, 7], [2, 1])
@example([5, 7, 8], [1, 1, 2])
@example([4, 4, 5], [3])
@example([7, 8], [1, 3])
def test_sweep_zero_positions_domain_text_matches_listing_the_range(js, es):
    report = sweep_zero_positions(js, es, 1)
    assert report.domain_description == _listed_domain_text(js, es)


def test_sweep_zero_positions_rejects_j6():
    with pytest.raises(OutOfDomainError):
        sweep_zero_positions([4, 5, 6], [1])


def test_sweep_zero_positions_rejects_empty_j_values():
    # the domain description needs the bounds of both ranges
    with pytest.raises(OutOfDomainError, match="at least one j and one e"):
        sweep_zero_positions([], range(1, 6))


def test_sweep_zero_positions_rejects_empty_e_values():
    with pytest.raises(OutOfDomainError, match="at least one j and one e"):
        sweep_zero_positions([4], [])


def test_sweep_carmichael_with_true_exception_set():
    report = sweep_carmichael(3, 40)
    assert report.passed
    assert report.cases_checked == 38


def test_sweep_carmichael_narrow_exception_set_finds_j6():
    # insisting that 12 is the only exception is refuted at j = 6
    report = sweep_carmichael(3, 40, expected_exceptions=(12,))
    assert report.verdict == COUNTEREXAMPLE
    assert report.cases_checked == 4  # j = 3, 4, 5, 6
    assert report.counterexample is not None
    assert report.counterexample.inputs == {"j": 6}
    assert report.counterexample.lhs == 0  # no prime found
    assert report.counterexample.rhs == 1  # one was demanded


def test_sweep_carmichael_never_factors(monkeypatch):
    def no_factoring(*args, **kwargs):
        raise AssertionError("the Carmichael sweep factored an F_j")

    monkeypatch.setattr(identities, "_trial_factor", no_factoring)
    monkeypatch.setattr(identities, "primitive_prime_divisor", no_factoring)
    report = sweep_carmichael(3, 72)
    assert report.passed
    assert report.cases_checked == 70


def test_sweep_carmichael_domain():
    with pytest.raises(OutOfDomainError, match=r"^primitive divisors need j >= 3, got 2$"):
        sweep_carmichael(2, 10)


def _rank_of_apparition(q: int) -> int:
    """min{i >= 1 : q | F_i}, by walking F_i mod q."""
    a, b, i = 1, 1, 1
    while a % q:
        a, b, i = b, (a + b) % q, i + 1
    return i


def test_primitive_prime_test_agrees_with_factoring():
    # the reported prime has rank of apparition j and every smaller traced
    # prime a lower one, by a rank scan independent of the gcd stripping;
    # the gcd route answers wherever factoring does, and at j = 73 too,
    # where F_73 = 9375829 * 86020717 is beyond trial division
    fs = fib_prefix(81)
    out_of_reach = []
    for j in range(3, 81):
        try:
            r = primitive_prime_divisor(j)
        except ResourceGuardError:
            out_of_reach.append(j)
            continue
        found = r.primitive_prime
        ranks = {q: _rank_of_apparition(q) for q, _ in r.factor_trace}
        if found is not None:
            assert ranks[found] == j, j
        assert all(rank < j for q, rank in ranks.items() if found is None or q < found), j
        assert (identities._primitive_part(j, fs[j], fs) > 1) == (found is not None), j
    assert out_of_reach == [73]
    assert identities._primitive_part(73, fs[73], fs) > 1


def test_carmichael_exceptions_to_5000():
    # F_12 = 2^4 * 3^2 needs both q = 2 (F_6 = 2^3) and q = 3 (F_4 = 3),
    # and each stripped to every power, to come out with no primitive prime
    fs = fib_prefix(5001)
    lacking = [j for j in range(3, 5001) if identities._primitive_part(j, fs[j], fs) == 1]
    assert lacking == [6, 12]


def test_report_records():
    rec = sweep_cassini(10).to_record()
    assert rec == {
        "identity": "cassini",
        "domain": "n in [1, 10]",
        "cases": 10,
        "verdict": "all_pass",
    }
    rec = sweep_carmichael(3, 40, expected_exceptions=(12,)).to_record()
    assert rec["verdict"] == "counterexample"
    assert rec["counterexample"] == {
        "inputs": {"j": 6},
        "lhs": "0",
        "rhs": "1",
    }

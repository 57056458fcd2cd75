import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import powerfib.residue_tables as residue_tables
from powerfib.errors import OutOfDomainError
from powerfib.fibcore import fib_exact, fib_prefix
from powerfib.oracle import sequence_prefix
from powerfib.residue_tables import (
    case_breakdown,
    residues_e1,
    residues_e2,
    residues_general,
)

# Full periods for the first nontrivial moduli (F_4 = 3 up to F_7 = 13).
# Small enough to check by hand against the recurrence.
E1_GOLDEN = {
    4: (0, 1, 1, 2, 0, 2, 2, 1),
    5: (0, 1, 1, 2, 3, 0, 3, 3, 1, 4, 0, 4, 4, 3, 2, 0, 2, 2, 4, 1),
    6: (0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1),
    7: (0, 1, 1, 2, 3, 5, 8, 0, 8, 8, 3, 11, 1, 12, 0, 12, 12, 11, 10, 8, 5, 0, 5, 5, 10, 2, 12, 1),
}
E2_GOLDEN = {
    6: (0, 1, 1, 4, 1, 1),
    7: (0, 1, 1, 4, 9, 12, 12, 0, 12, 12, 9, 4, 1, 1),
}


def test_e1_golden_tables():
    for j, expected in E1_GOLDEN.items():
        table = residues_e1(j)
        assert table.residues == expected, j
        assert table.period == len(expected)
        assert table.modulus == fib_exact(j)


def test_e2_golden_tables():
    for j, expected in E2_GOLDEN.items():
        assert residues_e2(j).residues == expected, j


def test_e2_j8():
    # squares of 0,1,1,2,3,5,8,13 reduced mod F_8 = 21
    assert residues_e2(8).residues == (0, 1, 1, 4, 9, 4, 1, 1)


def test_period_lengths_by_parity():
    for j in range(4, 31):
        e1, e2 = residues_e1(j), residues_e2(j)
        if j % 2 == 0:
            assert e1.period == 2 * j and e2.period == j
        else:
            assert e1.period == 4 * j and e2.period == 2 * j
        assert len(e1.residues) == e1.period
        assert len(e2.residues) == e2.period


def test_tables_start_zero_one_and_stay_in_range():
    for j in range(4, 31):
        for table in (residues_e1(j), residues_e2(j), residues_general(j, 3)):
            assert table.residues[0] == 0
            assert table.residues[1] == 1
            assert all(0 <= r < table.modulus for r in table.residues)


def test_e1_matches_modular_iteration():
    # closed-form assembly vs plain stepped residues, entry by entry
    for j in range(4, 31):
        table = residues_e1(j)
        assert list(table.residues) == sequence_prefix(j, 1, table.period), j


def test_e2_is_squared_e1():
    for j in range(4, 31):
        e1, e2 = residues_e1(j), residues_e2(j)
        m = e1.modulus
        for k in range(e2.period):
            assert e2.residues[k] == e1.residues[k] ** 2 % m, (j, k)


def test_e2_mirror_symmetry_for_odd_j():
    for j in range(5, 30, 2):
        res = residues_e2(j).residues
        for i in range(j + 1, 2 * j):
            assert res[i] == res[2 * j - i], (j, i)


def test_general_cube_and_fourth_power_at_j6():
    assert residues_general(6, 3).residues == (0, 1, 1, 0, 3, 5, 0, 5, 5, 0, 7, 1)
    assert residues_general(6, 4).residues == (0, 1, 1)


def test_general_j9_e5():
    table = residues_general(9, 5)
    assert table.period == 36
    # frozen from the stepped reference
    assert table.residues[:12] == (0, 1, 1, 32, 5, 31, 26, 13, 21, 0, 21, 21)
    assert list(table.residues) == sequence_prefix(9, 5, 36)


def test_general_matches_modular_iteration_on_grid():
    # the second grid is the largest moduli the tables benchmark builds
    cells = [(j, e) for j in range(4, 23) for e in range(1, 7)]
    cells += [(j, e) for j in (1999, 2000) for e in range(1, 9)]
    for j, e in cells:
        table = residues_general(j, e)
        assert list(table.residues) == sequence_prefix(j, e, table.period), (j, e)


@given(st.integers(min_value=4, max_value=200), st.integers(min_value=1, max_value=50))
@example(6, 3)
@example(6, 4)
@example(9, 6)
# past j // 2 the powers come from d'Ocagne's identity, signed by the parity
# of j - i at odd e: both parities of j, odd and even e
@example(5, 3)
@example(400, 3)
@example(401, 3)
@example(400, 8)
@example(401, 8)
# at even e, Cassini's identity makes d'Ocagne's factor ((-1)^j)^(e/2): -1
# only at odd j and e = 2 (mod 4)
@example(401, 2)
@example(401, 6)
@example(400, 2)
@example(5, 2)
def test_general_matches_modular_iteration_property(j, e):
    table = residues_general(j, e)
    assert table.residues == tuple(sequence_prefix(j, e, table.period))


@given(st.integers(min_value=4, max_value=200), st.integers(min_value=1, max_value=50))
@example(4, 1)
@example(7, 2)
def test_to_record_residues_are_each_entry_in_decimal(j, e):
    table = residues_general(j, e)
    assert table.to_record()["residues"] == [str(r) for r in table.residues]


def test_zeros_exactly_at_multiples_of_j():
    for j in range(4, 31):
        if j == 6:
            continue
        for e in range(1, 7):
            table = residues_general(j, e)
            for i, r in enumerate(table.residues):
                assert (r == 0) == (i % j == 0), (j, e, i)


def test_base_cases_rejected():
    for j in (3, 2, 1, 0, -1):
        with pytest.raises(OutOfDomainError):
            residues_e1(j)
        with pytest.raises(OutOfDomainError):
            residues_e2(j)
        with pytest.raises(OutOfDomainError):
            residues_general(j, 2)
        with pytest.raises(OutOfDomainError):
            case_breakdown(j, 1)


def test_bad_exponent_rejected():
    with pytest.raises(OutOfDomainError):
        residues_general(7, 0)
    with pytest.raises(OutOfDomainError):
        case_breakdown(7, 3)


def test_case_breakdown_aligns_with_tables():
    for j, e in ((6, 1), (7, 1), (6, 2), (7, 2), (12, 1), (13, 2)):
        table = residues_e1(j) if e == 1 else residues_e2(j)
        labels = case_breakdown(j, e)
        assert len(labels) == table.period
        # a "0" label is used exactly for the structural zeros; the zero
        # at index 0 belongs to the F[i] run (F_0 = 0)
        for i, label in enumerate(labels):
            if label == "0":
                assert table.residues[i] == 0, (j, e, i)
    assert case_breakdown(6, 1)[6] == "0"
    assert case_breakdown(7, 2)[7] == "0"
    # odd j: the zeros at i = j, 2j, 3j are all labelled "0", not F[0]
    assert case_breakdown(7, 1) == (
        "F[0]", "F[1]", "F[2]", "F[3]", "F[4]", "F[5]", "F[6]",
        "0", "F[6]", "Fj-F[5]", "F[4]", "Fj-F[3]", "F[2]", "Fj-F[1]",
        "0", "Fj-F[1]", "Fj-F[2]", "Fj-F[3]", "Fj-F[4]", "Fj-F[5]", "Fj-F[6]",
        "0", "Fj-F[6]", "F[5]", "Fj-F[4]", "F[3]", "Fj-F[2]", "F[1]",
    )


def test_case_breakdown_labels_evaluate_to_their_entries(certify):
    # the e = 2 labels are the paper's own formulas, checked here against
    # the powered table, up to the largest moduli the tables benchmark builds;
    # tools/certify.py checks them against the oracle's window
    for j in (*range(4, 61), 399, 400, 401, 1999, 2000):
        fs = fib_prefix(j + 1)
        for e, table in ((1, residues_e1(j)), (2, residues_e2(j))):
            labels = case_breakdown(j, e)
            assert len(labels) == table.period, (j, e)
            for i, label in enumerate(labels):
                value = certify._label_value(label, fs, table.residues)
                assert value == table.residues[i], (j, e, i, label)


def test_case_breakdown_e2_builds_no_prefix(monkeypatch):
    def no_prefix(n):
        raise AssertionError("case_breakdown(j, 2) built a Fibonacci prefix")

    monkeypatch.setattr(residue_tables, "fib_prefix", no_prefix)
    assert len(case_breakdown(400, 2)) == 400
    assert len(case_breakdown(401, 2)) == 802


def test_case_breakdown_j9_e2():
    # odd j = 2t + 1 = 9: squares up to i = t + 1 = 5 (F_5^2 = 25 equals
    # F_9 - F_4^2 too, so only the text pins that label), complements up to
    # i = 8, the zero at i = j, then the first half mirrored
    assert case_breakdown(9, 2) == (
        "F[0]^2", "F[1]^2", "F[2]^2", "F[3]^2", "F[4]^2", "F[5]^2",
        "Fj-F[3]^2", "Fj-F[2]^2", "Fj-F[1]^2",
        "0", "rho[8]", "rho[7]", "rho[6]", "rho[5]", "rho[4]", "rho[3]", "rho[2]", "rho[1]",
    )


def test_to_record_uses_decimal_strings():
    rec = residues_e2(6).to_record()
    assert rec == {
        "j": 6,
        "e": 2,
        "modulus": "8",
        "period": 6,
        "residues": ["0", "1", "1", "4", "1", "1"],
    }


def test_tables_keep_their_digest():
    # one SHA-1 over every record for j in 4..200, e in 1..8, in that order:
    # pins each entry, sign and length of the tables the CLI prints
    sha = hashlib.sha1()
    for j in range(4, 201):
        for e in range(1, 9):
            sha.update(json.dumps(residues_general(j, e).to_record()).encode())
    assert sha.hexdigest() == "8ea0c89d1a276993f5a024ed7bf596412a2fea81"

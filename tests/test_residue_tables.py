"""The closed-form residue tables, in three tables of rows:
- TABLES: a builder call and its exact result, goldens and labels;
- STEPPED: a cell (j, e) whose table is the oracle's stepped window, entry
  by entry, over the table's period;
- REFUSED: a call, and the exact type and message of the error it raises.
tests/rows.py builds the tests from the rows.  The properties, the sweeps
over a range of j, the label evaluation and the digest stay tests of their
own.
"""

import hashlib
import json
from operator import itemgetter
from typing import NamedTuple

from hypothesis import example, given
from hypothesis import strategies as st

import powerfib.residue_tables as residue_tables
from powerfib.fibcore import fib_prefix
from powerfib.oracle import sequence_prefix
from powerfib.residue_tables import (
    ResidueTable,
    case_breakdown,
    residues_e1,
    residues_e2,
    residues_general,
)
from rows import Call, Refusal, check_call, check_refused, define_tests


class Stepped(NamedTuple):
    test: str | tuple
    j: int
    e: int


def _check_stepped(row):
    table = residues_general(row.j, row.e)
    assert table.residues == tuple(sequence_prefix(row.j, row.e, table.period))


TABLES = [
    # full periods for the first nontrivial moduli, F_4 = 3 up to F_7 = 13,
    # small enough to check by hand against the recurrence
    Call("e1_golden_tables", residues_e1, (4,), ResidueTable(4, 1, 3, 8, (0, 1, 1, 2, 0, 2, 2, 1))),
    Call("e1_golden_tables", residues_e1, (5,),
         ResidueTable(5, 1, 5, 20, (0, 1, 1, 2, 3, 0, 3, 3, 1, 4, 0, 4, 4, 3, 2, 0, 2, 2, 4, 1))),
    Call("e1_golden_tables", residues_e1, (6,), ResidueTable(6, 1, 8, 12, (0, 1, 1, 2, 3, 5, 0, 5, 5, 2, 7, 1))),
    Call("e1_golden_tables", residues_e1, (7,), ResidueTable(
        7, 1, 13, 28, (0, 1, 1, 2, 3, 5, 8, 0, 8, 8, 3, 11, 1, 12, 0, 12, 12, 11, 10, 8, 5, 0, 5, 5, 10, 2, 12, 1))),
    Call("e2_golden_tables", residues_e2, (6,), ResidueTable(6, 2, 8, 6, (0, 1, 1, 4, 1, 1))),
    Call("e2_golden_tables", residues_e2, (7,), ResidueTable(7, 2, 13, 14, (0, 1, 1, 4, 9, 12, 12, 0, 12, 12, 9, 4, 1, 1))),
    # squares of 0, 1, 1, 2, 3, 5, 8, 13 reduced mod F_8 = 21
    Call("e2_j8", residues_e2, (8,), ResidueTable(8, 2, 21, 8, (0, 1, 1, 4, 9, 4, 1, 1))),
    Call("general_cube_and_fourth_power_at_j6", residues_general, (6, 3),
         ResidueTable(6, 3, 8, 12, (0, 1, 1, 0, 3, 5, 0, 5, 5, 0, 7, 1))),
    Call("general_cube_and_fourth_power_at_j6", residues_general, (6, 4), ResidueTable(6, 4, 8, 3, (0, 1, 1))),
    Call("to_record_uses_decimal_strings", residues_e2, (6,),
         {"j": 6, "e": 2, "modulus": "8", "period": 6, "residues": ["0", "1", "1", "4", "1", "1"]}, ResidueTable.to_record),
    # the structural zeros, at i = j, 2j and 3j, are labelled "0", not F[0]:
    # both evaluate to 0, so only the text pins them
    Call("case_breakdown_aligns_with_tables", case_breakdown, (6, 1), "0", itemgetter(6)),
    Call("case_breakdown_aligns_with_tables", case_breakdown, (7, 2), "0", itemgetter(7)),
    Call("case_breakdown_aligns_with_tables", case_breakdown, (7, 1), (
        "F[0]", "F[1]", "F[2]", "F[3]", "F[4]", "F[5]", "F[6]",
        "0", "F[6]", "Fj-F[5]", "F[4]", "Fj-F[3]", "F[2]", "Fj-F[1]",
        "0", "Fj-F[1]", "Fj-F[2]", "Fj-F[3]", "Fj-F[4]", "Fj-F[5]", "Fj-F[6]",
        "0", "Fj-F[6]", "F[5]", "Fj-F[4]", "F[3]", "Fj-F[2]", "F[1]",
    )),
    # odd j = 2t + 1 = 9: squares up to i = t + 1 = 5 (F_5^2 = 25 equals
    # F_9 - F_4^2 too, so only the text pins that label), complements up to
    # i = 8, the zero at i = j, then the first half mirrored
    Call("case_breakdown_j9_e2", case_breakdown, (9, 2), (
        "F[0]^2", "F[1]^2", "F[2]^2", "F[3]^2", "F[4]^2", "F[5]^2",
        "Fj-F[3]^2", "Fj-F[2]^2", "Fj-F[1]^2",
        "0", "rho[8]", "rho[7]", "rho[6]", "rho[5]", "rho[4]", "rho[3]", "rho[2]", "rho[1]",
    )),
]

# each cell once: e = 1 up to j = 30, the other exponents to 6 up to j = 22,
# and every exponent to 8 at the largest moduli the tables benchmark builds
STEPPED = [
    *(Stepped("e1_matches_modular_iteration", j, 1) for j in range(4, 31)),
    *(
        Stepped("general_matches_modular_iteration_on_grid", j, e)
        for j in range(4, 23)
        for e in range(2, 7)
        if (j, e) != (9, 5)
    ),
    Stepped(("general_matches_modular_iteration_on_grid", "general_j9_e5"), 9, 5),
    *(Stepped("general_matches_modular_iteration_on_grid", j, e) for j in (1999, 2000) for e in range(1, 9)),
]

REFUSED = [
    *(
        Refusal("base_cases_rejected", call, args, f"j must be at least 4, got {j}")
        for j in (3, 2, 1, 0, -1)
        for call, args in ((residues_e1, (j,)), (residues_e2, (j,)), (residues_general, (j, 2)), (case_breakdown, (j, 1)))
    ),
    Refusal("bad_exponent_rejected", residues_general, (7, 0), "exponent must be at least 1, got 0"),
    Refusal("bad_exponent_rejected", case_breakdown, (7, 3), "per-entry formulas exist for exponents 1 and 2 only, got e=3"),
    Refusal("only_integers_are_admitted", residues_general, (5.5, 1), "j must be an integer, got 5.5"),
    Refusal("only_integers_are_admitted", residues_general, (7, 1.5), "exponent must be an integer, got 1.5"),
    Refusal("only_integers_are_admitted", case_breakdown, (7, 1.0), "exponent must be an integer, got 1.0"),
]

globals().update(
    define_tests([(check_call, TABLES), (_check_stepped, STEPPED), (check_refused, REFUSED)])
)


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


def test_case_breakdown_labels_evaluate_to_their_entries(certify):
    # the e = 2 labels are the paper's own formulas, checked here against
    # the powered table, up to the largest moduli the tables benchmark builds;
    # tools/certify.py checks them against the oracle's window.  A "0" label
    # evaluates to 0, so it sits on a zero entry
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


def test_tables_keep_their_digest():
    # one SHA-1 over every record for j in 4..200, e in 1..8, in that order:
    # pins each entry, sign and length of the tables the CLI prints
    sha = hashlib.sha1()
    for j in range(4, 201):
        for e in range(1, 9):
            sha.update(json.dumps(residues_general(j, e).to_record()).encode())
    assert sha.hexdigest() == "8ea0c89d1a276993f5a024ed7bf596412a2fea81"

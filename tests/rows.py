"""Tests built from tables of rows, for the test files that pin behaviour row
by row: test_cli.py, test_identities.py, test_fibcore.py,
test_periodicity.py, test_residue_tables.py and test_oracle.py.  A row's
`test` names its test, or is a tuple naming each of its tests, each `name`
or `name[case]` for case `case` of test_name, as the suite named these tests
before the tables; a test runs every row that names it, from any table.

The two row kinds the library files share are here: a Call pins what a call
returns, a Refusal the exact type and message of the error it raises."""

import sys
from typing import Callable, NamedTuple

import pytest

from powerfib.errors import OutOfDomainError


class Call(NamedTuple):
    test: str | tuple
    call: Callable
    args: tuple
    want: object
    read: Callable | None = None  # the part of the result pinned; None: all of it


class Refusal(NamedTuple):
    test: str | tuple
    call: Callable
    args: tuple
    message: str
    error: type = OutOfDomainError
    partial: tuple | None = None  # a ResourceGuardError's evidence


def printing_default_digits(call: Callable) -> Callable:
    """call, run while Python prints integers of at most its default number
    of digits (4300), whatever PYTHONINTMAXSTRDIGITS says."""

    def limited(*args):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            return call(*args)
        finally:
            sys.set_int_max_str_digits(old)

    return limited


def check_call(row):
    got = row.call(*row.args)
    assert (got if row.read is None else row.read(got)) == row.want


def check_refused(row):
    with pytest.raises(row.error) as err:
        row.call(*row.args)
    assert (type(err.value), str(err.value), getattr(err.value, "partial", None)) == (row.error, row.message, row.partial)


def define_tests(tables, fixtures=()) -> dict:
    """{test_<name>: test} for each name a row of tables gives, tables holding
    (check, rows) pairs.  The test calls check(*fixtures, row) for each row
    of its name, each fixture looked up by its name; the rows named
    `name[case]` are case `case` of it."""
    by_test = {}
    for check, rows in tables:
        for row in rows:
            for test in (row.test,) if isinstance(row.test, str) else row.test:
                name, _, case = test.partition("[")
                by_test.setdefault(f"test_{name}", {}).setdefault(case[:-1], []).append((check, row))
    tests = {}
    for name, cases in by_test.items():
        if list(cases) == [""]:

            # an argument with a default is no fixture, so this test has no cases
            def test(request, rows=cases[""]):
                _run(request, rows, fixtures)

        else:

            @pytest.mark.parametrize("rows", list(cases.values()), ids=list(cases))
            def test(request, rows):
                _run(request, rows, fixtures)

        test.__name__ = test.__qualname__ = name
        tests[name] = test
    return tests


def _run(request, rows, fixtures):
    for check, row in rows:
        check(*map(request.getfixturevalue, fixtures), row)

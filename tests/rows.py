"""Tests built from tables of rows, for the test files that pin behaviour row
by row.  A row's `test` names its test, or is a tuple naming each of its
tests, each `name` or `name[case]` for case `case` of test_name, as the suite
named these tests before the tables; a test runs every row that names it,
from any table."""

import pytest


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

"""End the run, red, when one test runs far longer than any test should.

A walk that never meets its start state again, such as a Pisano walk that
keeps F_j instead of reducing it to 0, loops forever.  This turns that hang
into a failed run within TEST_SECONDS: faulthandler writes every thread's
stack to stderr, the hung line among them, and exits with status 1.

The `certify` fixture is `tools/certify.py` loaded as a module, for the
tests that read its claims and its label evaluator.
"""

import faulthandler
import importlib.util
import os
import sys
from pathlib import Path

import pytest

# the slowest test, test_criterion_8_fast_doubling_certified_and_fast, takes
# 1.6-2.5 s on a shared 2-CPU machine: more than ten times that, yet a hang
# costs half a minute, not two
TEST_SECONDS = 30

_stderr = None


def pytest_configure(config):
    # a copy of stderr taken before any test's output is captured, so the
    # stacks reach the terminal even though the run ends without flushing
    global _stderr
    _stderr = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    _stderr.close()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=_stderr)
    try:
        return (yield)
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def certify():
    path = Path(__file__).resolve().parents[1] / "tools" / "certify.py"
    spec = importlib.util.spec_from_file_location("certify", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

"""End the run, red, when one test runs far longer than any test should.

A walk that never meets its start state again, such as a Pisano walk that
keeps F_j instead of reducing it to 0, loops forever.  This turns that hang
into a failed run within TEST_SECONDS: faulthandler writes every thread's
stack to stderr, the hung line among them, and exits with status 1.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

# the slowest test takes under a second on a shared 2-CPU machine
TEST_SECONDS = 120

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

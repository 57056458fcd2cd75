"""README.md's examples, run against the code.

Each ```python block runs as a doctest.  Each ```text block that starts with
a `$ powerfib ...` line runs that command through `cli.main`, and what it
writes must equal the rest of the block, where a line `...` stands for any
run of lines.
"""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from powerfib.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

_BLOCK = re.compile(r"^```(\w+)\n(.*?)^```$", re.M | re.S)


def readme_blocks(kind: str) -> list[tuple[int, str]]:
    """(line number, body) of each ```kind block in README.md."""
    text = README.read_text()
    return [
        (text.count("\n", 0, m.start()) + 1, m.group(2))
        for m in _BLOCK.finditer(text)
        if m.group(1) == kind
    ]


def _commands() -> list[tuple[int, str]]:
    return [
        (lineno, body)
        for lineno, body in readme_blocks("text")
        if body.startswith("$ powerfib ")
    ]


def _pattern(expected: str) -> re.Pattern:
    """The block's output lines, with a `...` line matching any run of lines."""
    parts = [
        r"(?:.*\n)*" if line == "..." else re.escape(line) + r"\n"
        for line in expected.splitlines()
    ]
    return re.compile("".join(parts))


def test_readme_has_the_examples_it_is_checked_by():
    doctests = [doctest.DocTestParser().get_examples(body) for _, body in readme_blocks("python")]
    assert sum(map(len, doctests)) == 7
    assert len(_commands()) == 6


@pytest.mark.parametrize(
    ("lineno", "body"), [pytest.param(*block, id=f"block{k}") for k, block in enumerate(readme_blocks("python"), 1)]
)
def test_readme_python_block(lineno, body):
    test = doctest.DocTestParser().get_doctest(body, {}, f"README.md:{lineno}", str(README), lineno)
    report: list[str] = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


@pytest.mark.parametrize(
    ("lineno", "body"), [pytest.param(*block, id=block[1].partition("\n")[0]) for block in _commands()]
)
def test_readme_command_block(capsys, lineno, body):
    command, _, expected = body.partition("\n")
    main(shlex.split(command)[2:])
    captured = capsys.readouterr()
    output = captured.out + captured.err
    assert _pattern(expected).fullmatch(output), f"README.md:{lineno}\n{output}"

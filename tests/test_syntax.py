"""The package is declared for Python 3.10 and up, so its sources must parse
as 3.10 syntax.  This checks grammar only, not behaviour under 3.10."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "powerfib").glob("*.py"))


def test_sources_parse_as_python_3_10():
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

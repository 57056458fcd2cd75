"""The package is declared for Python 3.10 and up, and the workflow's 3.10
leg runs `tools/certify.py` too, so both must parse as 3.10 syntax.  This
checks grammar only, not behaviour under 3.10."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_SOURCES = sorted((ROOT / "src" / "powerfib").glob("*.py"))
TOOL_SOURCES = sorted((ROOT / "tools").glob("*.py"))
SOURCES = PACKAGE_SOURCES + TOOL_SOURCES


def test_sources_parse_as_python_3_10():
    assert PACKAGE_SOURCES
    assert (ROOT / "tools" / "certify.py") in TOOL_SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""The package is declared for Python 3.10.7 and up, the first release
with a limit on printing an integer, and reads that limit from `sys` with
no fallback.  The workflow's 3.10 leg runs `tools/certify.py` too, so both
must parse as 3.10 syntax.  This checks grammar only, not behaviour under
3.10.  Every source, the tests too, imports only names it reads, and none
imports from `__future__`: on that floor annotations are evaluated as
written."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_SOURCES = sorted((ROOT / "src" / "powerfib").glob("*.py"))
TOOL_SOURCES = sorted((ROOT / "tools").glob("*.py"))
SOURCES = PACKAGE_SOURCES + TOOL_SOURCES
TEST_SOURCES = sorted((ROOT / "tests").glob("*.py"))


def test_sources_parse_as_python_3_10():
    assert PACKAGE_SOURCES
    assert (ROOT / "tools" / "certify.py") in TOOL_SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_python_floor_has_the_digit_limit():
    # read as text: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^requires-python = .*$", pyproject, flags=re.MULTILINE) == [
        'requires-python = ">=3.10.7"'
    ]
    probes = [
        f"{path.name}:{node.lineno}"
        for path in PACKAGE_SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and node.args
        and ast.unparse(node.args[0]).partition(".")[0] == "sys"
    ]
    # the limits exist on every Python that installs the package
    assert probes == []


def _unused_imports(source: str, is_package_init: bool = False) -> list[str]:
    """Names that source imports and never reads; a package __init__.py
    re-exports the names it lists as strings."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif is_package_init and isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_are_found():
    assert _unused_imports("from __future__ import annotations\nimport os\nos.sep") == [
        "annotations (line 1)"
    ]
    assert _unused_imports("import os.path\nfrom a import b as c\nb") == [
        "os (line 1)",
        "c (line 2)",
    ]
    reexport = "from .errors import E\n__all__ = ['E']"
    assert _unused_imports(reexport) == ["E (line 1)"]
    assert _unused_imports(reexport, is_package_init=True) == []


def test_sources_import_only_names_they_read():
    assert TEST_SOURCES
    unused = {
        str(path.relative_to(ROOT)): found
        for path in SOURCES + TEST_SOURCES
        if (found := _unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py"))
    }
    assert unused == {}

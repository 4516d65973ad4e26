import ast
import doctest
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "confcoh"


def test_no_bare_assert_in_package():
    # python -O strips assert statements; invariants must raise real exceptions
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_warnings_import_in_package():
    # a broken invariant must raise, not warn
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
    ]
    assert found == []


def test_package_doctests_pass():
    attempted = 0
    for path in sorted(SRC.glob("*.py")):
        name = "confcoh" if path.stem == "__init__" else f"confcoh.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0

import ast
import doctest
import importlib
from pathlib import Path

import confcoh
import reference

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


def test_reference_doctests_pass():
    result = doctest.testmod(reference)
    assert result.failed == 0
    assert result.attempted > 0


# Definitions kept in the package with no caller there, each for a reason;
# a method is named with its class.
NO_CALLER_NEEDED = {
    "mixed_poincare": "the mixed Hodge numbers the paper's abstract states",
    "stabilization_bound": "library API, checked by acceptance criterion 10",
    "mono_weight": "the bench tracer wraps it; it leaves with the next benchmark change",
    "SparseIntMatrix.from_dense": "small matrices for the rank doctest and the tests",
    "VirtualRep.single": "one labelled term, for the class doctest and tests",
    "TriSeries.one": "the unit series, for building series by hand in tests",
    "TriSeries.term": "one monomial, for building series by hand in tests",
    "TriSeries.coeff_u": "reads one u^n slice of build_Q, which the tests compare",
    "TriSeries.from_json": "reads back the q-series JSON; the tests round-trip it",
    "VirtualRep.from_json": "reads back a decomposition's JSON, for round trips",
}


def _referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _definitions(body, prefix=""):
    """(qualified name, name, referenced names) for each function, class
    and non-dunder method in ``body``, and the names its other statements
    reference; a definition's own name is not a caller of itself."""
    defs, referenced = [], set()
    for node in body:
        if isinstance(node, ast.ClassDef):
            inner, inner_refs = _definitions(node.body, f"{node.name}.")
            defs.append((prefix + node.name, node.name))
            defs += inner
            for sub in node.bases + node.decorator_list:
                inner_refs |= _referenced_names(sub)
            referenced |= inner_refs - {node.name}
        elif isinstance(node, ast.FunctionDef):
            name = node.name
            if not (prefix and name.startswith("__") and name.endswith("__")):
                defs.append((prefix + name, name))
            referenced |= _referenced_names(node) - {name}
        else:
            referenced |= _referenced_names(node)
    return defs, referenced


def test_src_definitions_have_a_product_caller():
    # a definition that only tests call belongs in tests/reference.py
    defined = []
    referenced = set()
    for path in sorted(SRC.glob("*.py")):
        defs, refs = _definitions(ast.parse(path.read_text(), filename=str(path)).body)
        defined += [(path.name, qualname, name) for qualname, name in defs]
        referenced |= refs
    assert any("." in qualname for _, qualname, _ in defined)
    orphans = sorted(
        f"{file}:{qualname}"
        for file, qualname, name in defined
        if name not in referenced
        and name not in confcoh.__all__
        and qualname not in NO_CALLER_NEEDED
    )
    assert orphans == []

import ast
import doctest
import importlib
import os
import subprocess
import sys
from collections import Counter
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


def test_cli_does_not_load_the_series_algebra():
    # the command line renders build_Q's dict itself; TriSeries is for tests
    code = "import sys, confcoh.cli; print('confcoh.series' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


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


SERIES_ALGEBRA = (
    "series algebra of the slow routes in tests/reference.py, which the bench "
    "tracer wraps; it leaves with the next benchmark change"
)

# Definitions kept in the package with no caller there, each for a reason;
# a method is named with its class.
NO_CALLER_NEEDED = {
    "stabilization_bound": "library API, checked by acceptance criterion 10",
    "enumerate_basis": "the bench tracer wraps it; it leaves with the next benchmark change",
    "mono_degrees": "the bench tracer wraps it; it leaves with the next benchmark change",
    "mono_weight": "the bench tracer wraps it; it leaves with the next benchmark change",
    "SparseIntMatrix.from_dense": "small matrices for the rank doctest and the tests",
    "VirtualRep.single": "one labelled term, for the class doctest and tests",
    "TriSeries": SERIES_ALGEBRA,
    "TriSeries.one": SERIES_ALGEBRA,
    "TriSeries.term": SERIES_ALGEBRA,
}


# Method names that a builtin container also defines: a call such as
# ``x.get(...)`` may be a dict's, so it vouches for no method of that name.
CONTAINER_METHODS = {
    name for kind in (dict, list, tuple) for name in dir(kind) if not name.startswith("__")
}


# Methods whose name another class or a builtin container also defines,
# called on an instance whose class the guard cannot see; each names its
# caller.
CALLED_THROUGH_AN_INSTANCE = {
    "MixedTable.to_json": "cli._write_mixed writes table.to_json()",
    "VirtualRep.to_json": "MixedTable.to_json and cli.cmd_q_series write rep.to_json()",
}


def _referenced_names(node, cls, classes):
    """(names, qualified): every name and attribute ``node`` mentions, and
    the (class, method) pairs it reaches through ``self.``, ``cls.`` inside
    class ``cls`` or through a class of ``classes`` by name."""
    names, qualified = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
            owner = sub.value.id if isinstance(sub.value, ast.Name) else None
            if cls and owner in ("self", "cls"):
                qualified.add((cls, sub.attr))
            elif owner in classes:
                qualified.add((owner, sub.attr))
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names, qualified


def _definitions(body, classes, cls=None):
    """(qualified name, class, name) for each function, class and
    non-dunder method in ``body``, with the names and (class, method) pairs
    the code references; a definition's own name is not a caller of
    itself."""
    defs, names, qualified = [], set(), set()
    for node in body:
        if isinstance(node, ast.ClassDef):
            inner, inner_names, inner_qualified = _definitions(node.body, classes, node.name)
            defs.append((node.name, None, node.name))
            defs += inner
            for sub in node.bases + node.decorator_list:
                sub_names, sub_qualified = _referenced_names(sub, None, classes)
                inner_names |= sub_names
                inner_qualified |= sub_qualified
            names |= inner_names - {node.name}
            qualified |= inner_qualified
        elif isinstance(node, ast.FunctionDef):
            name = node.name
            if not (cls and name.startswith("__") and name.endswith("__")):
                defs.append((f"{cls}.{name}" if cls else name, cls, name))
            sub_names, sub_qualified = _referenced_names(node, cls, classes)
            names |= sub_names - {name}
            qualified |= sub_qualified - {(cls, name)}
        else:
            sub_names, sub_qualified = _referenced_names(node, cls, classes)
            names |= sub_names
            qualified |= sub_qualified
    return defs, names, qualified


def test_src_definitions_have_a_product_caller():
    # a definition that only tests call belongs in tests/reference.py.  A
    # method whose name another src class or a builtin container also
    # defines counts as called only when reached through self., cls. or its
    # class name, since a bare ``x.name(...)`` may be the other one's.
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    classes = {
        node.name for tree in trees.values() for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    defined, names, qualified = [], set(), set()
    for file, tree in trees.items():
        defs, file_names, file_qualified = _definitions(tree.body, classes)
        defined += [(file, *d) for d in defs]
        names |= file_names
        qualified |= file_qualified
    methods = [(cls, name) for _, _, cls, name in defined if cls]
    assert methods
    shared = CONTAINER_METHODS | {
        name for name, count in Counter(name for _, name in methods).items() if count > 1
    }

    def called(cls, name):
        if cls is None:
            return name in names
        return (cls, name) in qualified or (name not in shared and name in names)

    orphans = sorted(
        f"{file}:{qualname}"
        for file, qualname, cls, name in defined
        if not called(cls, name)
        and name not in confcoh.__all__
        and qualname not in NO_CALLER_NEEDED
        and qualname not in CALLED_THROUGH_AN_INSTANCE
    )
    assert orphans == []
    # an exemption for a definition that is gone or has a caller is stale
    found = {qualname: (cls, name) for _, qualname, cls, name in defined}
    assert [q for q in NO_CALLER_NEEDED if q not in found or called(*found[q])] == []
    # an entry that names no src/ definition, or whose name nothing in src/
    # mentions any more, is stale
    assert [q for q in CALLED_THROUGH_AN_INSTANCE if q not in found] == []
    assert [q for q in CALLED_THROUGH_AN_INSTANCE if q.split(".")[1] not in names] == []

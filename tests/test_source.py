"""Static checks on the package source.

No linter ships with the test dependencies, so this stands in for the two
rules that deletions most often break: a module under src/leolat or tests
must use every name it imports, and every function, class and method
defined under src/leolat must be referenced somewhere in the source, the
tests or the benchmark.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "leolat"
TESTS = ROOT / "tests"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names the module source imports but never reads, as "line: name"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os\nimport os.path as osp\n"
              "import xml.dom\nfrom math import pi, tau\n"
              "def f(x: tau) -> None:\n    return xml.dom, osp\n")
    assert unused_imports(source) == ["2: os", "5: pi"]


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str) -> list[str]:
    """The module's functions and classes and its classes' methods, less
    the dunder methods Python calls implicitly."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, DEFINITIONS):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [n.name for n in node.body if isinstance(n, DEFINITIONS)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(source: str) -> set[str]:
    """Every name the source reads as a name, an attribute or a whole string
    constant (the benchmark's tracer patches callables by attribute name),
    except where it is read inside a definition of that name."""
    found = set()

    def visit(node, inside: frozenset):
        if isinstance(node, DEFINITIONS):
            inside |= {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), frozenset())
    return found


@functools.cache
def all_references() -> frozenset[str]:
    files = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return frozenset().union(*(referenced_names(p.read_text()) for p in files))


def test_checker_finds_dead_definitions():
    source = ("def f():\n    return f()\nclass C:\n    def m(self):\n        return g\n"
              "    def __init__(self):\n        pass\ndef g():\n    pass\nX = 'h'\n"
              "def h():\n    return X.k\ndef k():\n    pass\n")
    refs = referenced_names(source)
    assert [n for n in defined_names(source) if n not in refs] == ["f", "C", "m"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_definition_is_referenced(module):
    source = (SRC / module).read_text()
    assert [n for n in defined_names(source) if n not in all_references()] == []

"""Static checks on the package source.

No linter ships with the test dependencies, so this stands in for the one
rule that deletions most often break: a module under src/leolat must use
every name it imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "leolat"


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


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []

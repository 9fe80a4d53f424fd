"""Every name a module of maassqv imports is used in that module, and
every function or class it defines is named somewhere else.

Deleting a function tends to leave its imports and its private helpers
behind; this finds them with the standard-library parser.  `__init__.py`
is exempt: its imports are the package's re-exports."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "maassqv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CORPUS = [
    p.read_text() for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))
]


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements of source that no other
    expression of it reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_detector_flags_unused_and_keeps_used():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nx = np.sqrt(pi)\n"
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_definitions(source: str, corpus: list[str]) -> list[str]:
    """The module-level functions and classes of source whose name the
    corpus mentions nowhere but in a `def`/`class` statement."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            ref = re.compile(rf"(?<!def )(?<!class )\b{re.escape(node.name)}\b")
            if not any(ref.search(text) for text in corpus):
                out.append(f"{node.name} (line {node.lineno})")
    return out


def test_dead_definition_detector():
    source = "def used():\n    pass\n\ndef orphan():\n    return used()\n\nclass Lone:\n    pass\n"
    assert dead_definitions(source, [source]) == ["orphan (line 4)", "Lone (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    assert dead_definitions(path.read_text(), CORPUS) == []

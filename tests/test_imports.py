"""Every name a module of maassqv imports is used in that module, every
function or class it defines is named somewhere else, every parameter
of its functions is read, no module keeps a hand-rolled memo, and none
imports sympy, which only the tests use as an oracle.

Deleting a function tends to leave its imports and its private helpers
behind, and deleting a setting tends to leave a parameter that nothing
reads; this finds them with the standard-library parser.  `__init__.py`
is exempt from the import check: its imports are the package's
re-exports.  The package has one cache mechanism, `functools.cache` on
value arguments, so a module-level name bound to an empty container is
flagged."""

import ast
import os
import re
import subprocess
import sys
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


def unused_parameters(source: str) -> list[str]:
    """The parameters of every function of source, nested ones and lambdas
    included, that its body never reads; `self` and `cls` are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out += [
            f"{name}.{p} (line {node.lineno})"
            for p in params
            if p not in read and p not in ("self", "cls")
        ]
    return out


def test_unused_parameter_detector():
    source = (
        "def f(self, a, b, cfg=None, *rest, **kw):\n"
        "    b = 1\n"
        "    def inner(x, y):\n"
        "        return a + y\n"
        "    return inner(kw, 0)\n"
        "g = lambda u, v: u\n"
    )
    assert sorted(unused_parameters(source)) == [
        "<lambda>.v (line 6)",
        "f.b (line 1)",
        "f.cfg (line 1)",
        "f.rest (line 1)",
        "inner.x (line 3)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def module_memos(source: str) -> list[str]:
    """The module-level names of source bound to an empty {}, [], set() or
    dict(), the shape of a hand-rolled memo."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        empty = (
            (isinstance(value, ast.Dict) and not value.keys)
            or (isinstance(value, ast.List) and not value.elts)
            or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "dict")
                and not value.args
                and not value.keywords
            )
        )
        if empty:
            out += [f"{t.id} (line {node.lineno})" for t in targets if isinstance(t, ast.Name)]
    return out


def test_module_memo_detector():
    source = (
        "_SCAN_CACHE: dict[int, tuple] = {}\n"
        "_seen = []\n"
        "_PRIMES = set()\n"
        "_MEMO = dict()\n"
        "_TABLE = {1: 2}\n"
        "_NAMES = ['a']\n"
        "_BOUND: int\n"
        "def f():\n"
        "    local = {}\n"
        "    return local\n"
    )
    assert module_memos(source) == [
        "_SCAN_CACHE (line 1)",
        "_seen (line 2)",
        "_PRIMES (line 3)",
        "_MEMO (line 4)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_memos(path):
    assert module_memos(path.read_text()) == []


def sympy_imports(source: str) -> list[str]:
    """The import statements of source, at any depth, that bind sympy or
    one of its submodules."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            out.append(f"line {node.lineno}")
    return out


def test_sympy_import_detector():
    source = (
        "import numpy as np\n"
        "import sympy\n"
        "from sympy import factorint\n"
        "from .sympyish import f\n"
        "def g():\n"
        "    from sympy.ntheory import isprime\n"
        "    import sympy_extra\n"
        "    return isprime\n"
    )
    assert sympy_imports(source) == ["line 2", "line 3", "line 6"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sympy_imports(path):
    assert sympy_imports(path.read_text()) == []


def test_cli_import_leaves_sympy_unloaded():
    # a fresh interpreter, so modules the test session loaded do not count
    code = "import sys, maassqv.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"

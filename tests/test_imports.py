"""Every name a module of maassqv imports is used in that module, every
function, class or constant it defines is named somewhere else, every
parameter of its functions is read, every error class of `errors` is
raised by some module, no module keeps a hand-rolled memo, and none
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
    """The module-level functions, classes and assigned names of source
    whose name the corpus mentions nowhere but where it is bound: in a
    `def`/`class` statement or on the left of an `=` (the binding is not a
    read)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            # not after def/class, and not before an optional annotation and
            # a lone "="
            ref = re.compile(
                rf"(?<!def )(?<!class )\b{re.escape(name)}\b(?!\s*(?::[^=\n]*)?=(?!=))"
            )
            if not any(ref.search(text) for text in corpus):
                out.append(f"{name} (line {node.lineno})")
    return out


def test_dead_definition_detector():
    source = (
        "def used():\n"
        "    return _LIMIT == 8\n"
        "\n"
        "def orphan():\n"
        "    return used()\n"
        "\n"
        "class Lone:\n"
        "    pass\n"
        "\n"
        "_LIMIT = 8\n"
        "_UNREAD: complex = 1j\n"
    )
    assert dead_definitions(source, [source]) == [
        "orphan (line 4)",
        "Lone (line 7)",
        "_UNREAD (line 11)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_definitions(path):
    assert dead_definitions(path.read_text(), CORPUS) == []


def unraised_errors(errors_source: str, sources: list[str]) -> list[str]:
    """The subclasses of MaassqvError that errors_source defines, directly or
    through another of them, and that no `raise` statement of sources names
    (as `raise E(...)`, `raise E` or `raise errors.E`)."""
    defined, out = {"MaassqvError"}, []
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in defined for b in node.bases
        ):
            defined.add(node.name)
            out.append(node.name)
    raised = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return [name for name in out if name not in raised]


def test_unraised_error_detector():
    errors = (
        "class MaassqvError(Exception):\n    pass\n"
        "class Called(MaassqvError):\n    pass\n"
        "class Bare(MaassqvError):\n    pass\n"
        "class Dotted(Bare):\n    pass\n"
        "class Orphan(Bare):\n    pass\n"
        "class Caught(MaassqvError):\n    pass\n"
        "class Foreign(ValueError):\n    pass\n"
    )
    source = (
        "from . import errors\n"
        "def f(x):\n"
        "    try:\n"
        "        raise Called(x) from None\n"
        "    except Caught:\n"
        "        raise\n"
        "    raise Bare\n"
        "def g():\n"
        "    raise errors.Dotted('d')\n"
    )
    assert unraised_errors(errors, [source]) == ["Orphan", "Caught"]


def test_every_error_class_is_raised():
    # an error class only a test oracle raises lives in that oracle
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unraised_errors((SRC / "errors.py").read_text(), sources) == []


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


def package_imports(source: str, package: str) -> list[str]:
    """The import statements of source, at any depth, that bind package or
    one of its submodules, in source order, each as "line N", followed by
    " in Q" when it sits inside the function or class of dotted name Q.
    source is a module of maassqv: `from .m import x` imports maassqv.m."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module or ""]
            elif isinstance(child, ast.ImportFrom) and child.level == 1:
                base = "maassqv" + (f".{child.module}" if child.module else "")
                names = [base] + [f"{base}.{alias.name}" for alias in child.names]
            else:
                names = []
            if any(n == package or n.startswith(package + ".") for n in names):
                out.append(f"line {child.lineno}" + (f" in {scope}" if scope else ""))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(ast.parse(source), "")
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
        "class W:\n"
        "    def mellin(self):\n"
        "        from scipy.integrate import quad\n"
        "        return quad\n"
        "import scipy.special as sc\n"
        "def h():\n"
        "    from .quadpack import qags\n"
        "    from . import quadpack\n"
        "    return qags, quadpack\n"
    )
    assert package_imports(source, "sympy") == ["line 2", "line 3", "line 6 in g"]
    assert package_imports(source, "scipy") == ["line 11 in W.mellin", "line 13"]
    assert package_imports(source, "maassqv.quadpack") == ["line 15 in h", "line 16 in h"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_sympy_imports(path):
    assert package_imports(path.read_text(), "sympy") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_scipy_imported_only_in_mellin(path):
    # QUADPACK on the non-split contour line, once the package's one scipy
    # use, is the in-package port `quadpack`: no module imports scipy, and
    # `SmoothWeight.mellin` alone imports the port, when it first integrates
    assert package_imports(path.read_text(), "scipy") == []
    found = package_imports(path.read_text(), "maassqv.quadpack")
    if path.name == "weights.py":
        assert len(found) == 1 and found[0].endswith(" in SmoothWeight.mellin"), found
    else:
        assert found == []


def _loaded_after(code: str) -> dict[str, bool]:
    """Whether sympy, scipy and the QUADPACK port `maassqv.quadpack` are in
    sys.modules after code runs in a fresh interpreter, so that modules the
    test session loaded do not count."""
    names = ("sympy", "scipy", "maassqv.quadpack")
    code += f"\nprint(*(name in sys.modules for name in {names!r}))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    flags = out.stdout.split()[-len(names) :]
    return {name.split(".")[-1]: flag == "True" for name, flag in zip(names, flags)}


def test_cli_import_leaves_sympy_unloaded():
    # nor scipy, nor the QUADPACK port: importing the CLI does no quadrature work
    want = {"sympy": False, "scipy": False, "quadpack": False}
    assert _loaded_after("import sys, maassqv.cli") == want


@pytest.mark.parametrize(
    "argv, scipy",
    [
        (["first-moment", "--D", "21", "--K", "30"], False),
        (["variance", "--D", "21", "--K", "10"], False),
        (["nonsplit", "--Ymax", "4e4"], False),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else str(v),
)
def test_only_nonsplit_loads_scipy(argv, scipy):
    # no command loads scipy; only nonsplit's contours load the port
    code = f"import sys, maassqv.cli\nmaassqv.cli.main({argv!r})"
    want = {"sympy": False, "scipy": scipy, "quadpack": argv[0] == "nonsplit"}
    assert _loaded_after(code) == want

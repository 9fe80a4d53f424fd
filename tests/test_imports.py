"""Every name a module of maassqv imports is used in that module, every
function, class or constant it defines is named somewhere else, every
module-level function and class is reached from a command, every field
of its dataclasses is read, every parameter of its functions is read,
every parameter default is set by some call in `src` or `bench`, every
error class of `errors` is raised by some module, no module keeps a
hand-rolled memo, and none imports sympy, which only the tests use as an
oracle.

Deleting a function tends to leave its imports and its private helpers
behind, deleting a setting tends to leave a parameter that nothing
reads, and a default that only tests override is an option with one
value in use; this finds them with the standard-library parser.
`__init__.py` is exempt from the import check: its imports are the
package's re-exports.  The package has one cache mechanism, `functools.cache` on
value arguments, so a module-level name bound to an empty container is
flagged."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "maassqv"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CORPUS = [
    p.read_text() for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))
]

# The named exceptions of the detectors run on src, each with the reason it
# stays.  A detector's test passes when it flags exactly its own entries, so
# an exception is added or dropped here and nowhere else.
EXEMPTIONS = {
    "unset_defaults": {
        "_contour_nodes.c": "the contour-shift invariance tests move the line c, "
        "and every package caller takes c = 1",
    },
    "unreached_definitions": {
        "hecke.HeckeSource.lambda_pp": "no command calls it, but the bench's per-layer "
        "metric hecke.HeckeSource.lambda_pp.calls names it and the traced bench child "
        "must resolve every named layer; it goes with the next change to BENCHMARK.json",
    },
    "unread_fields": {
        "hecke.HeckeSource._table_digest": "the generated __eq__ and __hash__ read it: "
        "the caches key on sources, and two table-backed sources are equal only when "
        "their tables are",
    },
}


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


def unreached_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes of sources, a map from module
    name to source, that no path of names reaches from the `cmd_*`
    functions and `main` of "cli" or from the top-level statements of any
    module (imports and definitions aside), and the methods of the reached
    classes that no reached code reads.  A name resolves through its
    module's own definitions and its `from .m import x` and `from . import m`
    statements at any depth, and `m.x` through such a module m.  A method
    `C.f` of a reached class C is reached when reached code reads an
    attribute `.f` of anything, when f is a special method `__f__`, or when
    C derives from a class outside the sources, whose code may call f."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, methods = {}, {}  # "module.name" -> node; class -> its "module.C.f"
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, functions + (ast.ClassDef,)):
                defs[f"{mod}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                own = [f for f in node.body if isinstance(f, functions)]
                methods[f"{mod}.{node.name}"] = [f"{mod}.{node.name}.{f.name}" for f in own]
                defs.update(zip(methods[f"{mod}.{node.name}"], own))
    names = {}  # module -> its local name -> "module.name", or a module
    for mod, tree in trees.items():
        space = {d.split(".", 1)[1]: d for d in defs if d.split(".", 1)[0] == mod}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    space[alias.asname or alias.name] = target
        names[mod] = space
    attributes = set()  # the attribute names that reached code reads

    def reads(mod: str, node: ast.AST) -> list[str]:
        out = []
        # a class's own reads leave out its methods, which are reached apart
        parts = [node]
        if isinstance(node, ast.ClassDef):
            parts = node.bases + node.keywords + node.decorator_list
            parts += [s for s in node.body if not isinstance(s, functions)]
        for sub in (sub for part in parts for sub in ast.walk(part)):
            if isinstance(sub, ast.Name):
                out.append(names[mod].get(sub.id, ""))
            elif isinstance(sub, ast.Attribute):
                attributes.add(sub.attr)
                if isinstance(sub.value, ast.Name):
                    base = names[mod].get(sub.value.id, "")
                    if base in trees:
                        out.append(f"{base}.{sub.attr}")
        return out

    def callable_by_reached(method: str) -> bool:
        cls, name = method.rsplit(".", 1)
        space = names[cls.split(".", 1)[0]]
        outside = [b for b in defs[cls].bases if space.get(getattr(b, "id", ""), "") not in defs]
        return name in attributes or bool(re.fullmatch(r"__\w+__", name)) or bool(outside)

    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    todo = [f"cli.{n}" for n in names.get("cli", {}) if n.startswith("cmd_") or n == "main"]
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, skip):
                todo += reads(mod, node)
    reached = set()
    while todo:
        name = todo.pop()
        # a name a module imports from another resolves to its definition there
        while name not in defs and "." in name and name.split(".", 1)[0] in names:
            mod, local = name.split(".", 1)
            if names[mod].get(local, name) == name:
                break
            name = names[mod][local]
        if name in defs and name not in reached:
            reached.add(name)
            todo += reads(name.split(".", 1)[0], defs[name])
        if not todo:  # then the methods of reached classes that it may call
            todo = [
                m
                for cls in methods
                if cls in reached
                for m in methods[cls]
                if m not in reached and callable_by_reached(m)
            ]
    return [
        f"{n} (line {node.lineno})"
        for n, node in defs.items()
        if n not in reached and (n.count(".") == 1 or n.rsplit(".", 1)[0] in reached)
    ]


def test_unreached_definition_detector():
    cli = (
        "from . import work\n"
        "from .core import run\n"
        "def cmd_go(args):\n"
        "    return run(args) + work.step()\n"
        "def helper():\n"
        "    return run(0)\n"
    )
    core = (
        "from .work import Engine, _scale\n"
        "def run(x):\n"
        "    return Engine().go(x)\n"
        "def oracle(x):\n"
        "    return run(x) == x\n"
        "LIMIT = _scale(3)\n"
    )
    work = (
        "def step():\n"
        "    from .core import run\n"
        "    return run(1)\n"
        "class Engine:\n"
        "    def go(self, x):\n"
        "        return _twice(x)\n"
        "def _twice(x):\n"
        "    return 2 * x\n"
        "def _scale(x):\n"
        "    return x\n"
        "class Spare:\n"
        "    pass\n"
    )
    found = unreached_definitions({"cli": cli, "core": core, "work": work})
    assert found == ["cli.helper (line 5)", "core.oracle (line 4)", "work.Spare (line 11)"]


def test_unreached_method_detector():
    cli = (
        "import argparse\n"
        "from .shapes import Box, Lone\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        return message\n"
        "def cmd_go(args):\n"
        "    box = Box(args)\n"
        "    return box.area + box.scaled(2)\n"
        "def unused():\n"
        "    return Lone().spare()\n"
    )
    shapes = (
        "class Box:\n"
        "    def __init__(self, side):\n"
        "        self.side = side\n"
        "    @property\n"
        "    def area(self):\n"
        "        return self.side * self.side\n"
        "    def scaled(self, k):\n"
        "        return _grow(self.side, k)\n"
        "    def perimeter(self):\n"
        "        return _edges(self.side)\n"
        "class Lone:\n"
        "    def spare(self):\n"
        "        return 0\n"
        "def _grow(side, k):\n"
        "    return side * k\n"
        "def _edges(side):\n"
        "    return 4 * side\n"
    )
    found = unreached_definitions({"cli": cli, "shapes": shapes})
    # _Parser is reached by nothing, so its override is not listed on its own;
    # perimeter's helper is read only from the unreached method
    assert found == [
        "cli._Parser (line 3)",
        "cli.unused (line 9)",
        "shapes.Box.perimeter (line 9)",
        "shapes.Lone (line 11)",
        "shapes._edges (line 16)",
    ]
    cli += "PARSER = _Parser()\n"
    # reached now, with error: the base from outside may call it
    assert unreached_definitions({"cli": cli, "shapes": shapes}) == found[1:]


def test_every_definition_is_reached_from_a_command():
    # a function, class or method only tests reach is a test oracle, under
    # tests/
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = [f.split(" ")[0] for f in unreached_definitions(sources)]
    assert found == list(EXEMPTIONS["unreached_definitions"])


def unread_fields(sources: dict[str, str]) -> list[str]:
    """The fields of the `@dataclass` classes of sources, a map from module
    name to source, that no code of sources reads as an attribute: `x.f`
    in a load, matched by the name f whatever x is.  A store (`self.f =`,
    `object.__setattr__`) is not a read.  A class whose own code calls
    `asdict` serializes every field, so all of its fields count as read."""
    trees = [(mod, ast.parse(text)) for mod, text in sources.items()]
    read = {
        n.attr
        for _, tree in trees
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }

    def names(nodes) -> set:
        return {getattr(n, "attr", getattr(n, "id", None)) for n in nodes}

    out = []
    for mod, tree in trees:
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            wrappers = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            calls = (n.func for n in ast.walk(node) if isinstance(n, ast.Call))
            if "dataclass" not in names(wrappers) or "asdict" in names(calls):
                continue
            out += [
                f"{mod}.{node.name}.{stmt.target.id} (line {stmt.lineno})"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id not in read
            ]
    return out


def test_unread_field_detector():
    shapes = (
        "import dataclasses\n"
        "from dataclasses import asdict, dataclass, field\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    side: int\n"
        "    label: str\n"
        "    _digest: str = field(default='', init=False)\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, '_digest', str(self.side))\n"
        "@dataclasses.dataclass\n"
        "class Row:\n"
        "    cells: list\n"
        "    width: int = 0\n"
        "    def widen(self):\n"
        "        self.width = 2\n"
        "@dataclass\n"
        "class Report:\n"
        "    name: str\n"
        "    def to_dict(self):\n"
        "        return asdict(self)\n"
        "class Plain:\n"
        "    kept: int\n"
    )
    cli = "from .shapes import Box, Row\ndef cmd_go(box, row):\n    return box.side + len(row.cells)\n"
    # the label is never read, the digest and the width only stored
    assert unread_fields({"cli": cli, "shapes": shapes}) == [
        "shapes.Box.label (line 6)",
        "shapes.Box._digest (line 7)",
        "shapes.Row.width (line 13)",
    ]


def test_every_dataclass_field_is_read():
    # a field that no code reads is computed, or stored, for nothing
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = [f.split(" ")[0] for f in unread_fields(sources)]
    assert found == list(EXEMPTIONS["unread_fields"])


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


def unset_defaults(def_sources: list[str], call_sources: list[str]) -> list[str]:
    """The parameters with a default, of every function of def_sources that
    some call of call_sources names (as `f(...)` or `x.f(...)`), that none
    of those calls sets by position or by keyword.  A call with `*args` or
    `**kwargs` sets them all; a method's `self` or `cls` takes no position."""
    calls: dict[str, list[ast.Call]] = {}
    for text in call_sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    out = []
    for text in def_sources:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            set_by_calls = set()
            for call in calls.get(node.name, []):
                if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords
                ):
                    set_by_calls.update(defaulted)
                set_by_calls.update(positional[: len(call.args)])
                set_by_calls.update(k.arg for k in call.keywords)
            if node.name in calls:
                unset = [p for p in defaulted if p not in set_by_calls]
                out += [f"{node.name}.{p} (line {node.lineno})" for p in unset]
    return out


def test_unset_default_detector():
    defs = (
        "def f(a, b=1, *, c=2, d=3):\n"
        "    return a + b + c + d\n"
        "class K:\n"
        "    def m(self, x=0, y=1):\n"
        "        return x + y\n"
        "def lone(z=5):\n"
        "    return z\n"
        "def spread(u=1, v=2):\n"
        "    return u + v\n"
    )
    calls = "f(0, c=1)\nf(0)\nk.m(2)\nspread(*args)\n"
    assert unset_defaults([defs], [calls]) == ["f.b (line 1)", "f.d (line 1)", "m.y (line 4)"]


def test_every_default_is_set_by_some_caller():
    # a default that no call in src or bench overrides is an option with one
    # value in use: a module constant, or a required parameter
    defs = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    calls = [p.read_text() for d in ("src", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    found = [f.split(" ")[0] for f in unset_defaults(defs, calls)]
    assert found == list(EXEMPTIONS["unset_defaults"])


def _empty_container(value: ast.AST | None) -> bool:
    """Whether value is an empty {}, [], set() or dict()."""
    return (
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


def module_memos(source: str) -> list[str]:
    """The module-level names of source bound to an empty {}, [], set() or
    dict(), the shape of a hand-rolled memo, and the functions at any depth,
    methods included, that a `functools.cache` or `lru_cache` decorator
    wraps and that return one: the cache keeps that container, a memo
    again."""
    out = []
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if _empty_container(node.value):
            out += [f"{t.id} (line {node.lineno})" for t in targets if isinstance(t, ast.Name)]
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in sorted(functions, key=lambda n: n.lineno):
        wrappers = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
        names = {getattr(w, "attr", getattr(w, "id", None)) for w in wrappers}
        cached = bool(names & {"cache", "lru_cache"})
        returns = (r.value for r in ast.walk(node) if isinstance(r, ast.Return))
        if cached and any(_empty_container(v) for v in returns):
            out.append(f"{node.name}() (line {node.lineno})")
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
        "class W:\n"
        "    @functools.cache\n"
        "    def _table(self):\n"
        "        return {}\n"
        "    @functools.cache\n"
        "    def _full(self):\n"
        "        return {1: 2}\n"
        "@cache\n"
        "def _seen_set():\n"
        "    return set()\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def _rows():\n"
        "    return []\n"
        "def _plain():\n"
        "    return []\n"
    )
    assert module_memos(source) == [
        "_SCAN_CACHE (line 1)",
        "_seen (line 2)",
        "_PRIMES (line 3)",
        "_MEMO (line 4)",
        "_table() (line 13)",
        "_seen_set() (line 19)",
        "_rows() (line 22)",
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
    # (name kept from when `SmoothWeight.mellin` ran a QUADPACK port in the
    # package) no module imports scipy or a QUADPACK port: the non-split
    # contour's Mellin values are a table, and the port `quadpack` that
    # writes it lives under tests/
    for package in ("scipy", "quadpack", "maassqv.quadpack"):
        assert package_imports(path.read_text(), package) == [], package


def test_no_quadpack_port_in_src():
    assert not list(SRC.rglob("quadpack*"))
    defined = {
        node.name
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not defined & {"qags", "kronrod_nodes", "_qk21", "_qelg", "_qpsrt"}


_WATCHED = ("sympy", "scipy", "quadpack", "maassqv.quadpack")


def _loaded_after(code: str) -> dict[str, bool]:
    """Whether sympy, scipy and a QUADPACK port (the tests' `quadpack`, or
    one in the package) are in sys.modules after code runs in a fresh
    interpreter, so that modules the test session loaded do not count."""
    code += f"\nprint(*(name in sys.modules for name in {_WATCHED!r}))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    flags = out.stdout.split()[-len(_WATCHED) :]
    return {name: flag == "True" for name, flag in zip(_WATCHED, flags)}


def test_cli_import_leaves_sympy_unloaded():
    # nor scipy, nor a QUADPACK port: importing the CLI does no quadrature work
    assert _loaded_after("import sys, maassqv.cli") == dict.fromkeys(_WATCHED, False)


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
    # (name kept from when nonsplit's contours loaded a QUADPACK port) no
    # command loads scipy or a port: nonsplit reads its Mellin table
    code = f"import sys, maassqv.cli\nmaassqv.cli.main({argv!r})"
    want = dict.fromkeys(_WATCHED, False) | {"scipy": scipy}
    assert _loaded_after(code) == want


def uncovered_package_files(root: Path, patterns: list[str]) -> list[str]:
    """The files under root, a package directory, that are not Python
    source (nor bytecode under __pycache__) and that no package-data glob
    of patterns matches, each glob taken from root as setuptools takes it
    (so "*.npy" names no file in a subdirectory)."""
    covered = {path for pattern in patterns for path in root.glob(pattern)}
    out = []
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root)
        if path.is_dir() or path.suffix == ".py" or "__pycache__" in rel.parts:
            continue
        if path not in covered:
            out.append(rel.as_posix())
    return out


def test_uncovered_package_file_detector(tmp_path):
    for name in ("a.py", "table.npy", "notes.txt", "sub/deep.npy", "__pycache__/a.pyc"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("")
    assert uncovered_package_files(tmp_path, ["*.npy"]) == ["notes.txt", "sub/deep.npy"]
    assert uncovered_package_files(tmp_path, ["*.npy", "*.txt", "sub/*.npy"]) == []


def test_package_data_ships_every_data_file():
    # an installed package carries its data files only where
    # [tool.setuptools.package-data] names them, the Mellin table among them
    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    patterns = config["tool"]["setuptools"]["package-data"]["maassqv"]
    assert uncovered_package_files(SRC, patterns) == []
    assert "w_nonsplit_mellin.npy" in [p.name for p in SRC.iterdir()]

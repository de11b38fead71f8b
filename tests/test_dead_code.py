"""Static guards against dead code in the package.

Every function, class and method the package defines must be named by some
code in ``src/`` or ``perfbench/`` outside its own definition: a name only
the tests call, or none at all, is a candidate for deletion or for a move
into the tests.  Names count as code reads them: a bare name, an
attribute, an imported name, or a string constant equal to it, since the
benchmark's tracer wraps methods by their names as strings.  Dunder methods
are exempt, since Python calls them.  Every field a package dataclass or
named tuple declares must be read by some code in ``src/``, ``perfbench/``
or ``tests/``: an attribute load, or a string constant equal to it; a field
only ever written is a candidate for deletion.  And no package module may
import a name it never uses.  These tests read the sources and change
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "gridscan").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))
FIELD_READERS = READERS + sorted((ROOT / "tests").glob("*.py"))


def named(tree: ast.AST):
    """(name, line) of every name the code of ``tree`` reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unnamed_definitions(sources: dict) -> list:
    """``module.name`` of every function, class or method that a package
    module of ``sources`` ({path: source}; a package module is one in a
    ``gridscan`` folder) defines and no source names outside the
    definition."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    lines: dict = {}                  # name -> {(path, line)}
    for path, tree in trees.items():
        for name, line in named(tree):
            lines.setdefault(name, set()).add((path, line))
    unnamed = []
    for path, tree in trees.items():
        if path.parent.name != "gridscan":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and line in inside
                   for p, line in lines.get(node.name, ())):
                unnamed.append("%s.%s" % (path.stem, node.name))
    return unnamed


def last_name(node: ast.AST):
    """The name a decorator or base class ends in: ``dataclass`` for
    ``@dataclasses.dataclass(frozen=True)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else node.id


def declared_fields(tree: ast.AST):
    """(class, field) of every field a dataclass or ``NamedTuple`` class, or
    a ``collections.namedtuple`` call, of ``tree`` declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and (
                "dataclass" in map(last_name, node.decorator_list)
                or "NamedTuple" in map(last_name, node.bases)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield node.name, stmt.target.id
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))
              and last_name(node) == "namedtuple"):
            name, fields = (arg.value for arg in node.args)
            for field in fields.replace(",", " ").split():
                yield name, field


def unread_fields(sources: dict) -> list:
    """``module.Class.field`` of every field that a package module of
    ``sources`` ({path: source}) declares and no source reads, by an
    attribute load or a string constant equal to its name."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return ["%s.%s.%s" % (path.stem, cls, field)
            for path, tree in trees.items() if path.parent.name == "gridscan"
            for cls, field in declared_fields(tree) if field not in read]


def unused_imports(source: str) -> list:
    """Every name ``source`` imports and never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [name for name in bound if name not in used]


def test_guards_see_their_examples():
    pkg = Path("src/gridscan")
    sources = {
        pkg / "a.py": ("def kept(): return helper()\n"
                       "def helper(): return 1\n"
                       "def recursive(n): return recursive(n - 1)\n"
                       "def traced(): pass\n"
                       "class C:\n"
                       "    def __len__(self): return 0\n"
                       "    def method(self): pass\n"
                       "    def wrapped(self): pass\n"),
        Path("perfbench/run.py"): ("from gridscan.a import kept\n"
                                   "TARGETS = [(C, 'wrapped'), traced]\n"),
    }
    assert sorted(unnamed_definitions(sources)) == ["a.method",
                                                    "a.recursive"]
    assert unused_imports("from __future__ import annotations\n"
                          "import numpy as np, heapq\n"
                          "from os import path, sep\n"
                          "from . import gridfmt as gf\n"
                          "x: 'sep' = np.zeros(gf.N)\n") == ["heapq", "path"]


def test_field_guard_sees_its_examples():
    sources = {
        Path("src/gridscan/a.py"): (
            "import collections, dataclasses\n"
            "from typing import NamedTuple\n"
            "@dataclasses.dataclass(frozen=True)\n"
            "class D:\n"
            "    loaded: int\n"
            "    stored: int\n"
            "    named: int = 0\n"
            "class T(NamedTuple):\n"
            "    unread: int\n"
            "class Plain:\n"
            "    free: int\n"
            "P = collections.namedtuple('P', 'x, y')\n"
            "def f(d, p):\n"
            "    d.stored = d.loaded + p.x\n"
            "    d.stored += 1\n"),
        Path("tests/test_a.py"): "getattr(d, 'named')\n",
    }
    assert unread_fields(sources) == ["a.D.stored", "a.T.unread", "a.P.y"]


def test_every_package_field_is_read():
    sources = {path: path.read_text() for path in FIELD_READERS}
    assert unread_fields(sources) == []


def test_every_package_definition_is_named():
    sources = {path: path.read_text() for path in READERS}
    assert unnamed_definitions(sources) == []


def test_no_package_module_imports_an_unused_name():
    unused = ["%s: %s" % (path.stem, name) for path in PACKAGE
              for name in unused_imports(path.read_text())]
    assert unused == []

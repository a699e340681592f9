"""Source hygiene: every module of the package uses each name it
imports and imports no private name of another fldx module, the
package, the benchmark or the tools read every function and method it
defines, the package reads every instance attribute it defines, some
module of the repository reads every dataclass field, and
`pyproject.toml` lists exactly the third-party modules it imports, and
its `test` extra exactly the others that the tests, the benchmark and
the tools import. No
nested function names itself or a sibling, which would keep all it
closes over in a reference cycle, and every syntax node is slotted.

Package `__init__` modules are left out of the import check, since their
imports are the package's public names; for the same reason a name they
import counts as read.
"""
import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fldx"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by the module's imports that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names read only inside string annotations
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\n"
                          "x: Dict = {}\n") == [(1, "os"), (2, "List")]
    assert unused_imports("from typing import List\n"
                          "def f() -> 'List[int]': ...\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# Private names stay in their module
# ---------------------------------------------------------------------------


def private_imports(source: str):
    """(line, name) of every `_`-prefixed name (dunders aside) the module
    imports from an fldx module, by relative or absolute import. Such
    names are private to their module: the trusted constructors of
    `numerics` and `zonotope`, for instance, skip the reduction to the
    canonical form that interval and form equality relies on."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "fldx"):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.startswith("_")
                    and not alias.name.endswith("__")]
    return out


def test_scan_finds_a_private_import():
    assert private_imports(
        "from .numerics import RInterval, _iv\n"
        "from fldx.zonotope import _form as f\n"
        "from ..domain import __doc__\n"
        "from os import _exit\n"
        "import fldx.numerics\n") == [(1, "_iv"), (2, "_form")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=[str(p.relative_to(SRC))
                              for p in sorted(SRC.rglob("*.py"))])
def test_module_imports_no_private_name(path):
    assert private_imports(path.read_text()) == []


# ---------------------------------------------------------------------------
# Functions nothing reads
# ---------------------------------------------------------------------------

PYPROJECT = SRC.parent.parent / "pyproject.toml"


def entry_points():
    """(module, function) of every `[project.scripts]` entry."""
    out, section = set(), None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            target = line.split("=", 1)[1].strip().strip('"')
            module, _, fn = target.partition(":")
            out.add((module, fn))
    return out


def unread_functions(modules, exempt=frozenset(), readers=None):
    """(module, line, name) of every function or method defined in
    `modules` ({dotted name: source}) whose name the code never reads:
    the code of `modules` and of `readers` ({dotted name: source}, code
    that reads the package but defines nothing it must read).

    A method counts as read by any attribute access of its name. A
    module-level or nested function counts as read by its bare name, by
    an import of it, or by an attribute access on an imported name
    (`module.f`), but not by `obj.f`, which reads some method `f`.
    Dunders and the `exempt` (module, name) pairs are left out.
    """
    attrs, names, defs = set(), set(), []
    for m, src in {**(readers or {}), **modules}.items():
        tree = ast.parse(src)
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.name.split(".")[-1])
                    bound.add(alias.asname or alias.name.split(".")[0])
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in bound:
                    names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and m in modules:
                defs.append((m, node.lineno, node.name, id(node) in methods))
    return sorted((m, line, name) for m, line, name, is_method in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and (m, name) not in exempt
                  and name not in (attrs if is_method else names))


def test_scan_finds_an_unread_function():
    src = ("import math\n"
           "def used(): return math.floor(1)\n"
           "def unused(): pass\n"
           "def f(): pass\n"
           "class A:\n"
           "    def f(self): return used()\n"
           "    def g(self): pass\n"
           "    def __repr__(self): return ''\n"
           "def main(): A().f()\n")
    assert unread_functions({"m": src}, {("m", "main")}) == [
        ("m", 3, "unused"), ("m", 4, "f"), ("m", 7, "g")]
    tool = "import m\ndef main(): m.unused()\n"
    assert unread_functions({"m": src}, {("m", "main")}, {"t": tool}) == [
        ("m", 4, "f"), ("m", 7, "g")]


def test_every_function_is_read():
    """The benchmark and the tools read the package too; a function only
    a test reads is what this test is for, so tests are no readers."""
    modules = {".".join(("fldx",) + p.relative_to(SRC).with_suffix("").parts):
               p.read_text() for p in sorted(SRC.rglob("*.py"))}
    root = SRC.parent.parent
    readers = {f"{p.parent.name}.{p.stem}": p.read_text()
               for d in ("perfbench", "tools")
               for p in sorted((root / d).glob("*.py"))
               if not p.name.startswith("test_")}
    assert "perfbench.checks" in readers and "tools.opcount" in readers
    assert unread_functions(modules, entry_points(), readers) == []


# ---------------------------------------------------------------------------
# Module-level names nothing reads
# ---------------------------------------------------------------------------


def unread_globals(modules):
    """(module, line, name) of every module-level assignment in `modules`
    ({dotted name: source}) whose name no module reads, as a bare name,
    an attribute, an imported name or inside a string annotation.
    Dunders such as `__version__` are left out."""
    read, defs = set(), []
    for m, src in modules.items():
        tree = ast.parse(src)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target] if isinstance(node, ast.AnnAssign) else []
            defs += [(m, t.lineno, t.id) for t in targets
                     if isinstance(t, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                try:
                    expr = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(expr)
                            if isinstance(n, ast.Name))
    return sorted((m, line, name) for m, line, name in defs
                  if name not in read
                  and not (name.startswith("__") and name.endswith("__")))


def test_scan_finds_an_unread_global():
    assert unread_globals({
        "m": "from n import B\n__all__ = []\nA = 1\nC: int = 2\n"
             "def f() -> 'D': return C\n",
        "n": "B = 1\nD = int\nE = F = 3\nE\n"}) == [
        ("m", 3, "A"), ("n", 3, "F")]


def test_every_module_level_name_is_read():
    modules = {".".join(("fldx",) + p.relative_to(SRC).with_suffix("").parts):
               p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert unread_globals(modules) == []


# ---------------------------------------------------------------------------
# Instance attributes nothing reads
# ---------------------------------------------------------------------------


def unread_attributes(modules):
    """(module, line, name) of every `self.name = ...` in `modules`
    ({dotted name: source}) whose name no module reads, as an attribute
    or as a string constant (`getattr(obj, "name")`). An augmented
    assignment such as `self.n += 1` writes, it does not count as a
    read."""
    read, defs = set(), []
    for m, src in modules.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node.value, ast.Name) \
                        and node.value.id == "self":
                    defs.append((m, node.lineno, node.attr))
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    return sorted(d for d in defs if d[2] not in read)


def test_scan_finds_an_unread_attribute():
    assert unread_attributes({
        "m": "class A:\n"
             "    def __init__(self):\n"
             "        self.a = self.b = self.c = self.d = 0\n"
             "        self.e = 1\n"
             "    def f(self):\n"
             "        self.e += 1\n"
             "        return getattr(self, 'c') + self.b\n",
        "n": "def g(x): return x.d\n"}) == [
        ("m", 3, "a"), ("m", 4, "e"), ("m", 6, "e")]


def test_every_instance_attribute_is_read():
    modules = {".".join(("fldx",) + p.relative_to(SRC).with_suffix("").parts):
               p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert unread_attributes(modules) == []


# ---------------------------------------------------------------------------
# Dataclass fields nothing reads
# ---------------------------------------------------------------------------

#: fields kept although nothing reads them yet, each with its reason
UNREAD_FIELD_EXEMPT = {
    # the origin of each noise symbol is what ROADMAP open item 6 reports
    "NoiseSymbol.origin",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if (d.attr if isinstance(d, ast.Attribute)
                else getattr(d, "id", None)) == "dataclass":
            return True
    return False


def unread_fields(modules, exempt=frozenset()):
    """(module, line, "Class.field") of every field of a dataclass in
    `modules` ({dotted name: source}) whose name no module reads, as an
    attribute or as a string constant (`getattr(obj, "name")`). Passing
    a value to the constructor writes the field; it is not a read. The
    `exempt` "Class.field" names are left out."""
    read, defs = set(), []
    for m, src in modules.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                defs += [(m, f.lineno, f"{node.name}.{f.target.id}")
                         for f in node.body if isinstance(f, ast.AnnAssign)
                         and isinstance(f.target, ast.Name)]
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str):
                read.add(node.value)
    return sorted(d for d in defs
                  if d[2].split(".")[1] not in read and d[2] not in exempt)


def test_scan_finds_an_unread_field():
    assert unread_fields({
        "m": "import dataclasses\n"
             "from dataclasses import dataclass\n"
             "@dataclass\n"
             "class A:\n"
             "    a: int\n"
             "    b: int = 0\n"
             "    c: int = 0\n"
             "@dataclasses.dataclass(frozen=True)\n"
             "class B:\n"
             "    d: int\n"
             "    e: int\n"
             "class C:\n"
             "    f: int\n",
        "n": "def g(x): return A(a=1, b=2).b + getattr(x, 'c') + B(1, 2).e\n"},
        {"B.d"}) == [("m", 5, "A.a")]


def test_every_dataclass_field_is_read():
    root = SRC.parent.parent
    files = [p for d in (SRC, root / "tests", root / "perfbench")
             for p in sorted(d.rglob("*.py"))]
    modules = {".".join(p.relative_to(root).with_suffix("").parts):
               p.read_text() for p in files}
    assert unread_fields(modules, UNREAD_FIELD_EXEMPT) == []


# ---------------------------------------------------------------------------
# Syntax trees are not cyclic garbage
# ---------------------------------------------------------------------------


def _local_defs(fn: ast.AST):
    """The functions defined in fn's own body, not in a function or a
    class nested in it."""
    out, todo = [], list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def self_referring_closures(source: str, exempt=frozenset()):
    """(line, "outer.inner") of every nested function that names itself
    or a function nested beside it. Its closure cell keeps it, and all it
    closes over, in a reference cycle that only the cyclic collector
    frees. The `exempt` "outer.inner" names are left out."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            kids = _local_defs(fn)
            names = {k.name for k in kids}
            out += [(k.lineno, f"{fn.name}.{k.name}") for k in kids
                    if f"{fn.name}.{k.name}" not in exempt
                    and any(isinstance(n, ast.Name) and n.id in names
                            for n in ast.walk(k))]
    return sorted(out)


def test_scan_finds_a_self_referring_closure():
    src = ("def f():\n"
           "    def walk(n): return walk(n - 1)\n"
           "    def a(): return b()\n"
           "    def b(): return 1\n"
           "    if a:\n"
           "        def c(): return b\n"
           "    def ok(): return g()\n"
           "    return walk, a, ok\n"
           "def g():\n"
           "    def h(): return g()\n"
           "    class C:\n"
           "        def m(self): return self.m()\n"
           "    return h, C\n")
    assert self_referring_closures(src) == [
        (2, "f.walk"), (3, "f.a"), (6, "f.c")]
    assert self_referring_closures(src, {"f.walk"}) == [(3, "f.a"),
                                                        (6, "f.c")]


#: nested functions allowed to name themselves: the parser's three
#: precedence climbers, built once at import
CLOSURE_EXEMPT = {"frontend/parser.py": {"_climber.climb"}}


def test_no_nested_function_names_itself_or_a_sibling():
    found = {str(p.relative_to(SRC)): self_referring_closures(
        p.read_text(), CLOSURE_EXEMPT.get(str(p.relative_to(SRC)), ()))
        for p in MODULES}
    assert {m: f for m, f in found.items() if f} == {}


def test_every_syntax_node_is_slotted():
    """A parsed source holds a node per token or so: none of them carries
    a `__dict__`."""
    from fldx.frontend import syntax as S
    classes = [c for c in vars(S).values() if isinstance(c, type)
               and dataclasses.is_dataclass(c) and c.__module__ == S.__name__]
    assert {S.Loc, S.Var, S.PLet, S.Block, S.FuncDef} <= set(classes)
    assert [c.__name__ for c in classes
            if "__slots__" not in vars(c) or c.__dictoffset__] == []
    assert not hasattr(S.Var("x"), "__dict__")


# ---------------------------------------------------------------------------
# Runtime dependencies
# ---------------------------------------------------------------------------


def imported_modules(source: str):
    """Top-level names of the modules a source imports by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_scan_finds_imported_modules():
    assert imported_modules("import os.path, click as c\n"
                            "from networkx.algorithms import x\n"
                            "from . import y\nfrom ..z import w\n") == {
        "os", "click", "networkx"}


def test_runtime_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
              .replace("-", "_") for d in project["dependencies"]}
    imported = set().union(*(imported_modules(p.read_text())
                             for p in SRC.rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - {"fldx"}
    assert sorted(third_party - listed) == []
    assert sorted(listed - imported) == []


def test_test_dependencies_are_the_third_party_imports_of_the_tests():
    """The `test` extra lists every third-party module that the tests,
    the benchmark or the tools import and the runtime dependencies do
    not, and nothing they do not import."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]

    def names(deps):
        return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                .replace("-", "_") for d in deps}

    runtime = names(project["dependencies"])
    extra = names(project["optional-dependencies"]["test"])
    root = PYPROJECT.parent
    imported = set().union(*(imported_modules(p.read_text())
                             for d in ("tests", "perfbench", "tools")
                             for p in (root / d).rglob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) \
        - {"fldx", "tests", "perfbench"}
    assert sorted(third_party - runtime - extra) == []
    assert sorted(extra - imported) == []

"""Every function in cloee.__all__, and every other module-level name, is
used by the package itself.

A public function that no module of src/cloee reads is test-only or dead; it
belongs in the tests or nowhere.  So is a module-level name outside
cloee.__all__, private or not, that no module loads.
"""

import ast
import inspect
from pathlib import Path

import cloee

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloee"
# The acceptance oracle: the tests and the benchmark check cloee against it.
EXEMPT = {"exhaustive_search"}


def referenced_names(source: str) -> set[str]:
    """The names that source reads, bare (`f`) or as an attribute (`mod.f`);
    a def binds its name and does not read it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_public_functions(public: dict[str, object], sources: list[str]) -> list[str]:
    """The functions among public that no source references, sorted."""
    used = set().union(*map(referenced_names, sources))
    return sorted(name for name, obj in public.items()
                  if inspect.isfunction(obj) and name not in used)


def test_the_check_finds_an_unused_function():
    def solve(): ...
    def helper(): ...
    def dead(): ...
    sources = ["def solve():\n    '''calls dead'''\n    return mod.helper()\n",
               "from .a import solve\nx = solve\n"]
    public = {"solve": solve, "helper": helper, "dead": dead, "Config": type("Config", (), {})}
    assert unused_public_functions(public, sources) == ["dead"]


def test_every_public_function_is_used_by_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    public = {name: getattr(cloee, name) for name in cloee.__all__ if name not in EXEMPT}
    assert unused_public_functions(public, sources) == []


def module_definitions(source: str) -> set[str]:
    """The module-level names of source, dunders aside, that a def, a class
    or an assignment binds."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def loaded_names(source: str) -> set[str]:
    """The names that source loads, bare (`_f`) or as an attribute (`mod._f`);
    a binding (def, class, assignment or import) is not a load."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def unused_module_names(sources: list[str], public: set[str]) -> list[str]:
    """The module-level names of sources outside public that no source
    loads, sorted."""
    loaded = set().union(*map(loaded_names, sources))
    return sorted(set().union(*map(module_definitions, sources)) - public - loaded)


def test_the_check_finds_an_unused_module_name():
    sources = ["import math as _m\n"
               "__all__ = ['f']\n"
               "__version__ = '1'\n"
               "_LIMIT = 3\n"
               "_A, (_B, _C) = 1, (2, 3)\n"
               "_count: int = 0\n"
               "_count += 1\n"
               "_stored = 1\n"
               "_stored = 2\n"
               "HEADER = 'a,b'\n"
               "TABLE = {}\n"
               "def _helper(x: _Kind) -> int:\n"
               "    '''_Dead and Dead, in a docstring'''\n"
               "    return _LIMIT + _B + len(TABLE)\n"
               "class _Kind: ...\n"
               "class _Dead: ...\n"
               "class Dead: ...\n"
               "def f():\n"
               "    def _inner(): ...\n"
               "    _local = 1\n"
               "    return _m.pi\n",
               "from .a import _LIMIT\n"
               "x = mod._helper(1)\n"
               "obj._C = 3\n"]
    assert unused_module_names(sources, {"f"}) == \
        ["Dead", "HEADER", "_A", "_C", "_Dead", "_count", "_stored", "x"]


def test_every_internal_module_name_is_used_by_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_module_names(sources, set(cloee.__all__)) == []

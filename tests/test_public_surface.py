"""Every function in cloee.__all__, and every other module-level name, is
used by the package itself.

A public function that no module of src/cloee reads is test-only or dead; it
belongs in the tests or nowhere.  So is a module-level name outside
cloee.__all__, private or not, that no module loads, a load resolved to the
module that defines the name.
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


def module_loads(sources: dict[str, str]) -> set[tuple[str, str]]:
    """The (module, name) pairs that sources, by module name, load: a name
    its own module loads bare (`_f`), a name another module imported from it
    and loads by the name it bound (`from .a import _f`, then `_f`), or a
    name loaded off the module (`from . import a`, then `a._f`).  A
    same-named attribute of another object (`obj._f`) or a bare name that
    another module did not import from it is not a load of it, and a binding
    (def, class, assignment or import) is no load at all."""
    loads = set()
    for module, source in sources.items():
        nodes = list(ast.walk(ast.parse(source)))
        bare = {node.id for node in nodes
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        off = {(node.value.id, node.attr) for node in nodes
               if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
               and isinstance(node.value, ast.Name)}
        loads |= {(module, name) for name in bare}
        for node in nodes:
            if not isinstance(node, ast.ImportFrom):
                continue
            origin = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name in sources:      # a module, bound as `bound`
                    loads |= {(alias.name, attr) for value, attr in off if value == bound}
                elif bound in bare:
                    loads.add((origin, alias.name))
    return loads


def unused_module_names(sources: dict[str, str], public: set[str]) -> list[str]:
    """The module-level names of sources, by module name, outside public
    that no source loads (module_loads), as module.name, sorted."""
    defined = {(module, name) for module, source in sources.items()
               for name in module_definitions(source) if name not in public}
    return sorted(f"{module}.{name}" for module, name in defined - module_loads(sources))


def test_the_check_finds_an_unused_module_name():
    sources = {"a": "import math as _m\n"
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
               "class _Kept: ...\n"
               "_Unread = 0\n"
               "def ppdu(): ...\n"
               "def f():\n"
               "    def _inner(): ...\n"
               "    _local = 1\n"
               "    return _m.pi\n",
               # b loads a's _helper off the module and _Kept by the name it
               # bound; its cols.ppdu, obj._C and bare _Dead are not a's.
               "b": "from .a import _LIMIT, _Kept as _K, _Unread\n"
                    "from . import a as mod\n"
                    "obj._C = 3\n"
                    "def g(cols, obj):\n"
                    "    return mod._helper(1), _K, cols.ppdu(), obj._C, _Dead\n"}
    assert unused_module_names(sources, {"f"}) == \
        ["a.Dead", "a.HEADER", "a._A", "a._C", "a._Dead", "a._Unread", "a._count", "a._stored",
         "a.ppdu", "b.g"]


def test_every_internal_module_name_is_used_by_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_module_names(sources, set(cloee.__all__)) == []


def attribute_loads(source: str) -> set[str]:
    """The attribute names that source loads (`obj.f`); a bare name or a
    store (`obj.f = …`) is not an attribute load."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_slots(slots: tuple[str, ...], sources: list[str]) -> list[str]:
    """The slots that no source loads as an attribute, in slot order."""
    loaded = set().union(*map(attribute_loads, sources))
    return [name for name in slots if name not in loaded]


def test_the_check_finds_an_unread_slot():
    sources = ["class M:\n"
               "    __slots__ = ('a', 'b', 'c', 'd')\n"
               "    def __init__(self, a, b, c, d):\n"
               "        self.a, self.b, self.c, self.d = a, b, c, d\n"
               "    def f(self, c):\n"
               "        '''reads self.d'''\n"
               "        return self.a + c\n",
               "def g(m, b):\n"
               "    m.c = b\n"
               "    return getattr(m, 'd')\n"]
    assert unread_slots(("a", "b", "c", "d"), sources) == ["b", "c", "d"]


def test_every_mode_metrics_slot_is_read_by_the_package():
    # distance is read only by the benchmark's tracer, by its string name.
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    slots = tuple(name for name in cloee.ModeMetrics.__slots__ if name != "distance")
    assert unread_slots(slots, sources) == []
    assert not hasattr(cloee.LinkModel().env(1.0)[0], "__dict__")


# Methods that only the benchmark calls: perfbench/gen_binding.py and the
# tracer's spans read ModeMetrics.eta and rate until ROADMAP item 1a replaces
# both with eta_rate.
METHOD_EXEMPT = {"ModeMetrics.eta", "ModeMetrics.rate"}


def unused_methods(sources: list[str], exempt: set[str]) -> list[str]:
    """The methods defined in the class bodies of sources, as Class.name,
    that no source calls as an attribute (`obj.name(…)`), and the properties
    (cached or not) that no source loads as one (`obj.name`), by name and
    sorted; dunders and exempt aside.  Only a class body's defs count, so a
    NamedTuple's generated API (_make, _replace, _asdict) and its fields are
    not checked.  Unlike module_loads, methods are still matched by name
    alone: a call of any object's attribute of the same name counts."""
    trees = list(map(ast.parse, sources))
    called = {node.func.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    loaded = set().union(*map(attribute_loads, sources))
    unused = []
    for cls in (node for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or node.name.startswith("__") and node.name.endswith("__"):
                continue
            prop = any(ast.unparse(d).endswith("property") for d in node.decorator_list)
            name = f"{cls.name}.{node.name}"
            if node.name not in (loaded if prop else called) and name not in exempt:
                unused.append(name)
    return sorted(unused)


def test_the_check_finds_an_unused_method():
    sources = ["import functools\n"
               "from typing import NamedTuple\n"
               "class Row(NamedTuple):\n"
               "    a: int\n"
               "    def __repr__(self):\n"
               "        return 'row'\n"
               "    def used(self): ...\n"
               "    def dead(self):\n"
               "        '''calls self.kept()'''\n"
               "    def kept(self): ...\n"
               "class M:\n"
               "    def __post_init__(self): ...\n"
               "    def loaded(self): ...\n"
               "    @staticmethod\n"
               "    def called(): ...\n"
               "    @property\n"
               "    def size(self):\n"
               "        return self.a\n"
               "    @functools.cached_property\n"
               "    def total(self):\n"
               "        return self.size + len(self._replace(a=1))\n"
               "    @property\n"
               "    def stored(self): ...\n",
               "def f(row, m):\n"
               "    m.stored = row.used()\n"
               "    g = m.loaded\n"
               "    return M.called(), m.total, g\n"]
    assert unused_methods(sources, {"Row.kept"}) == ["M.loaded", "M.stored", "Row.dead"]


def test_every_method_and_property_is_used_by_the_package():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_methods(sources, METHOD_EXEMPT) == []
    # Each exemption names a method that is still there and still uncalled.
    assert unused_methods(sources, set()) == sorted(METHOD_EXEMPT)

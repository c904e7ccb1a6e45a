"""Every function in cloee.__all__ is used by the package itself.

A public function that no module of src/cloee reads is test-only or dead; it
belongs in the tests or nowhere.
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

"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cloee"
# __init__.py imports names to re-export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source binds by import and never reads, sorted;
    `from __future__` imports are compiler directives and never count."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_the_check_finds_a_dead_import():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from dataclasses import dataclass, field\n"
              "from .energy import EnergyParams as EP, energy_breakdown\n"
              "@dataclass\n"
              "class A:\n"
              "    ep: EP\n"
              "x = (math.pi, os.path.sep)\n")
    assert unused_imports(source) == ["energy_breakdown", "field"]


def test_modules_found():
    assert {"energy.py", "metrics.py", "sweep.py", "svgplot.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []

"""Every name a module of the package imports is used in that module."""

import ast
import os
import subprocess
import sys
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


# The numpy boundary: block.py is the one array layer.  Only these modules
# import numpy at the top, and only sweep imports block at the top (the
# oracle, optimizer.exhaustive_search, imports it where it runs).
NUMPY_MODULES = {"block.py", "metrics.py", "svgplot.py", "sweep.py"}
BLOCK_IMPORTERS = {"sweep.py"}
# The scalar numpy site left in metrics, a function that reads np: the
# ROADMAP item that removes it and the numpy names it reads.
NUMPY_SITES = {"metrics.py": {"_delivered": (2, {"exp", "ndarray"})}}


def top_level_imports(source: str) -> set[str]:
    """Every dotted part of the modules that source imports in its module
    body (`from numpy.random import x` gives numpy and random, `from .block
    import x` and `from . import block` give block)."""
    modules = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
        else:
            continue
        modules |= {part for name in names for part in name.split(".")}
    return modules


def functions(source: str) -> dict[str, ast.AST]:
    """Each function of source by name, methods as Class.name (a nested
    function is part of the function around it)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[prefix + child.name] = child

    visit(ast.parse(source), "")
    return found


def numpy_sites(source: str) -> dict[str, tuple[str, set[str]]]:
    """Each function of source that reads np (methods as Class.name), with the
    text of the comments in its lines and the names it reads off np."""
    lines, sites = source.splitlines(), {}
    for name, node in functions(source).items():
        if any(isinstance(n, ast.Name) and n.id == "np" for n in ast.walk(node)):
            body = lines[node.lineno - 1:node.end_lineno]
            sites[name] = (" ".join(line.partition("#")[2] for line in body if "#" in line),
                           {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                            and isinstance(n.value, ast.Name) and n.value.id == "np"})
    return sites


def test_the_check_finds_numpy_and_block_imports_and_sites():
    source = ("import numpy as np\n"
              "from numpy.random import default_rng\n"
              "from .block import columns\n"
              "from . import frame, block as b\n"
              "def f(x):\n"
              "    from .optimizer import cloee\n"
              "    import numpy\n"
              "    return np.exp(x)      # numpy's exp: ROADMAP item 2\n"
              "class C:\n"
              "    def g(self):\n"
              "        return np.bool_\n"
              "    def h(self):\n"
              "        return 'np'\n"
              "def k(x, out):\n"
              "    np.copyto(x, -np.inf, where=x < -746.0)\n"
              "    return np.exp(x, out=np.random.default_rng().random(out))\n"
              "def _map(f, x):\n"
              "    return np.fromiter(map(f, x.ravel().tolist()), float, x.size)\n"
              "class D:\n"
              "    def q(self, x):\n"
              "        return np.fromiter(map(abs, x.tolist()), float, x.size).reshape(x.shape)\n")
    assert top_level_imports(source) == {"numpy", "random", "block", "frame"}
    assert top_level_imports("from cloee.block import grid\n") == {"cloee", "block"}
    assert numpy_sites(source) == {"f": (" numpy's exp: ROADMAP item 2", {"exp"}),
                                   "C.g": ("", {"bool_"}),
                                   "k": ("", {"copyto", "inf", "exp", "random"}),
                                   "_map": ("", {"fromiter"}), "D.q": ("", {"fromiter"})}
    assert fromiter_readers(source) == ["D.q", "_map"]


def fromiter_readers(source: str) -> list[str]:
    """The functions of source that read np.fromiter, sorted (numpy_sites's names)."""
    return sorted(site for site, (_, names) in numpy_sites(source).items() if "fromiter" in names)


def test_only_the_lane_map_reads_fromiter():
    # The one lane rule: a scalar function meets a block's lanes through
    # block._map alone, so no other function of the package reads np.fromiter.
    assert {(m, site) for m in MODULES for site in fromiter_readers((PACKAGE / m).read_text())} \
        == {("block.py", "_map")}


def ratio_readers(source: str) -> list[str]:
    """The functions of source that load an attribute up, down or upper (a
    Block's ratios), sorted (functions's names)."""
    return sorted(name for name, node in functions(source).items()
                  if any(isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                         and n.attr in ("up", "down", "upper") for n in ast.walk(node)))


def test_the_check_finds_ratio_readers():
    source = ("def _direct(p, block):\n"
              "    return [r * p for r in block.up] + list(block.down)\n"
              "class C:\n"
              "    def f(self, block):\n"
              "        def g():\n"
              "            return block.upper\n"
              "        return g\n"
              "def h(block, up):\n"
              "    block.upper = up\n"
              "    return block.t\n")
    assert ratio_readers(source) == ["C.f", "_direct"]


def test_only_the_tails_read_a_blocks_ratios():
    # The one tail path: reliability._direct sums a Block's direct ratios and
    # _upper its upper ones, for a float and for an array of lanes alike, so
    # no other function of the package reads them.
    assert {(m, site) for m in MODULES for site in ratio_readers((PACKAGE / m).read_text())} \
        == {("reliability.py", "_direct"), ("reliability.py", "_upper")}


def header_readers(source: str) -> list[str]:
    """The functions of source that load KASAMI_BLOCK or PHR_BLOCK (bare or
    off a module) or call shr_success, sorted (functions's names); passing
    shr_success as a value is no call."""
    def named(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def reads(node):
        if isinstance(node, ast.Call):
            return named(node.func) == "shr_success"
        return named(node) in ("KASAMI_BLOCK", "PHR_BLOCK") and isinstance(node.ctx, ast.Load)

    return sorted(name for name, node in functions(source).items()
                  if any(map(reads, ast.walk(node))))


def test_the_check_finds_header_readers():
    source = ("def _header_success(p, q, success=block_success, shr=shr_success):\n"
              "    return shr(success(p, KASAMI_BLOCK)) * success(q, PHR_BLOCK)\n"
              "def _header_successes(p, q):\n"
              "    return _map(shr_success, tails(p, reliability.KASAMI_BLOCK)) * tails(q)\n"
              "class C:\n"
              "    def f(self, p):\n"
              "        return reliability.shr_success(p)\n"
              "def link_block(p):\n"
              "    return partial(_header_success, shr=partial(_map, shr_success))(p, p)\n"
              "def g(block):\n"
              "    block.PHR_BLOCK = KASAMI = 1\n"
              "    return shr_success\n")
    assert header_readers(source) == ["C.f", "_header_success", "_header_successes"]


def test_only_the_header_composition_reads_its_codes():
    # The one header composition: metrics._header_success takes the Kasami
    # and PHR codes and composes shr_success for a float and for a block's
    # arrays alike (block passes shr_success to _map as a value), so no other
    # function of the package reads those codes or calls shr_success.
    assert {(m, site) for m in MODULES for site in header_readers((PACKAGE / m).read_text())} \
        == {("metrics.py", "_header_success")}


def erfc_readers(source: str) -> list[str]:
    """The functions of source that load erfc (bare or off a module), sorted
    (functions's names)."""
    return sorted(name for name, node in functions(source).items()
                  if any(isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
                         and (n.id if isinstance(n, ast.Name) else n.attr) == "erfc"
                         for n in ast.walk(node)))


def test_the_check_finds_erfc_readers():
    source = ("def q_function(x):\n"
              "    return 0.5 * math.erfc(x / _SQRT2)\n"
              "def bit_error_array(x, s):\n"
              "    return 0.5 * _map(math.erfc, x / s)\n"
              "class C:\n"
              "    def f(self, x):\n"
              "        return erfc(x)\n"
              "def g(x):\n"
              "    erfc = x\n"
              "    return _map(q_function, x), x.erfc_like\n")
    assert erfc_readers(source) == ["C.f", "bit_error_array", "q_function"]


def test_only_q_reads_erfc():
    # One Q: channel.q_function is 0.5 * erfc(x / sqrt 2) at every x, and
    # block maps it over a block's lanes, so no other function of the
    # package reads erfc (a second Q body, however bit-equal, is refused).
    assert {(m, site) for m in MODULES for site in erfc_readers((PACKAGE / m).read_text())} \
        == {("channel.py", "q_function")}


def exponent_spellers(source: str) -> list[str]:
    """The functions of source that spell the relaxed exponent, a chain of *
    and / with log_p_cw (bare or off an object) among its factors and n
    (likewise) among its divisors, sorted (functions's names)."""
    def leaves(node, divides=False):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
            yield from leaves(node.left, divides)
            yield from leaves(node.right, divides ^ isinstance(node.op, ast.Div))
        else:
            yield (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)), divides

    def spells(node):
        return (isinstance(node, ast.BinOp)
                and {("log_p_cw", False), ("n", True)} <= set(leaves(node)))

    return sorted(name for name, node in functions(source).items()
                  if any(map(spells, ast.walk(node))))


def test_the_check_finds_exponent_spellers():
    source = ("def success_cont(h, log_p_cw, x, exp=math.exp):\n"
              "    return h * exp(x * log_p_cw / PSDU_CODE.n)\n"
              "def solve_envs(cols, xs, n):\n"
              "    return xs * _map(math.exp, -xs * cols.log_p_cw / n)\n"
              "class C:\n"
              "    def slopes(self, x):\n"
              "        return self.log_p_cw / self.n * x\n"
              "    def halves(self, x):\n"
              "        return x / n * self.log_p_cw\n"
              "def grid(n_t, log_p_cw, n):\n"
              "    return exp(-(-n_t // n) * log_p_cw), n / log_p_cw, log_p_cw / m, x / n\n"
              "def closed_form(half, fixed, denom):\n"
              "    return math.sqrt(half * half - PSDU_CODE.n * fixed / denom) - half\n")
    assert exponent_spellers(source) == ["C.halves", "C.slopes", "solve_envs", "success_cont"]


def test_only_the_relaxation_spells_its_exponent():
    # The one relaxed success: metrics.success_cont raises libm's exp (or its
    # map over a block's lanes) to x * log_p_cw / n, and metrics.eta_cont,
    # the eta bound at both widths, reads it; only rate_cont_slopes, which
    # differentiates the exponent, spells it again.
    assert {(m, site) for m in MODULES for site in exponent_spellers((PACKAGE / m).read_text())} \
        == {("metrics.py", "success_cont"), ("metrics.py", "ModeMetrics.rate_cont_slopes")}


def test_only_the_array_modules_import_numpy_at_the_top():
    assert {m for m in MODULES if "numpy" in top_level_imports((PACKAGE / m).read_text())} \
        == NUMPY_MODULES


def test_only_sweep_imports_block_at_the_top():
    assert {m for m in MODULES if "block" in top_level_imports((PACKAGE / m).read_text())} \
        == BLOCK_IMPORTERS


@pytest.mark.parametrize("module", sorted(NUMPY_SITES))
def test_each_scalar_numpy_site_names_its_roadmap_item(module):
    sites = numpy_sites((PACKAGE / module).read_text())
    assert sites.keys() == NUMPY_SITES[module].keys()
    for site, (item, _) in NUMPY_SITES[module].items():
        assert f"ROADMAP item {item}" in sites[site][0], site


@pytest.mark.parametrize("module", sorted(NUMPY_SITES))
def test_each_scalar_numpy_site_reads_only_its_numpy_names(module):
    sites = numpy_sites((PACKAGE / module).read_text())
    assert {site: names for site, (_, names) in sites.items()} \
        == {site: names for site, (_, names) in NUMPY_SITES[module].items()}


def private_names_from(source: str, modules: set[str]) -> list[str]:
    """The _-prefixed names that source takes from modules, sorted: imported
    by name (`from .sweep import _csv`) or read off the module (`sweep._csv`
    after `from . import sweep`)."""
    tree, names, bound = ast.parse(source), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.rpartition(".")[2] in modules:
                names |= {alias.name for alias in node.names if alias.name.startswith("_")}
            bound |= {alias.asname or alias.name for alias in node.names
                      if alias.name in modules}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in bound}
    return sorted(names)


def test_the_check_finds_private_names():
    source = ("from .sweep import _csv, run_sweep\n"
              "from cloee.output import _write\n"
              "from .scenario import _KEYS\n"
              "from . import output as out, frame\n"
              "x = out._with_charts, out.csv_text, frame._x, run_sweep._y\n")
    assert private_names_from(source, {"sweep", "output"}) == ["_csv", "_with_charts", "_write"]


def test_output_imports_neither_numpy_nor_svgplot_at_the_top():
    assert top_level_imports((PACKAGE / "output.py").read_text()) & {"numpy", "svgplot"} == set()


def test_cli_takes_no_private_name_from_sweep_or_output():
    assert private_names_from((PACKAGE / "cli.py").read_text(), {"sweep", "output"}) == []


def test_only_svg_output_loads_svgplot(tmp_path):
    # svgplot (and with it numpy's array formatting) is imported by
    # output.with_charts for fmt="svg" only, not by import cloee or the CLI.
    child = ("import contextlib, io, sys\n"
             "import cloee\n"
             "loaded = ['cloee.svgplot' in sys.modules]\n"
             "from cloee.cli import main\n"
             "for fmt in ('csv', 'svg'):\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             f"        assert main(['curves', '--format', fmt, '--out', {str(tmp_path)!r}]) == 0\n"
             "    loaded.append('cloee.svgplot' in sys.modules)\n"
             "print(loaded)\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[False, False, True]\n"

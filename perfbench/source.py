"""Locate the checkout's own cloee sources and import them.

The benchmark runs from the root of a checkout and measures the package in
its src/ directory, never an installed copy.  Without that directory it stops
with a non-zero exit code before measuring anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIO = BENCH_DIR / "scenarios" / "hospital.conf"
BINDING_DATA = BENCH_DIR / "data" / "solve_binding.csv"
OUT_DIR = BENCH_DIR / "out"


def add_src_to_path() -> None:
    if not (SRC / "cloee" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'cloee'}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def import_cloee():
    add_src_to_path()
    import cloee

    if SRC not in Path(cloee.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported cloee from {cloee.__file__}, not {SRC}")
    return cloee

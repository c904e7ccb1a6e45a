import math
import os
import platform
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cloee.svgplot import _coords, _padded, render_lines
from helpers import reference_render_lines

TESTS = Path(__file__).resolve().parent


def test_nothing_finite_to_plot():
    with pytest.raises(ValueError, match="^nothing to plot$"):
        render_lines([("a", [math.nan], [1.0])])


def test_one_point_pads_both_axis_ranges():
    # A single point spans no range, so each axis runs from it to it + 1.
    svg = render_lines([("a", [2.0], [5.0])])
    ticks = [line.split(">")[1].split("<")[0] for line in svg.splitlines()
             if 'fill="#333">' in line]
    assert ticks == ["2", "5", "2.25", "5.25", "2.5", "5.5", "2.75", "5.75", "3", "6"]
    # The point sits at the plot's lower-left corner.
    assert '<polyline points="70.00,430.00"' in svg


def test_non_finite_points_leave_bounds_and_lines():
    clean = render_lines([("a", [1.0, 3.0], [2.0, 4.0]), ("b", [2.0], [3.0])])
    noisy = render_lines([("a", [1.0, math.inf, 3.0, 9.0], [2.0, 7.0, 4.0, math.nan]),
                          ("b", [2.0, -math.inf], [3.0, 0.0])])
    assert noisy == clean


def test_series_without_a_finite_point_keeps_its_legend():
    svg = render_lines([("a", [1.0, 2.0], [1.0, 2.0]), ("b", [math.nan], [math.nan])])
    assert svg.count("<polyline") == 1
    assert ">b</text>" in svg


def test_mismatched_lengths_fail_loudly():
    with pytest.raises(ValueError, match="^series b: xs and ys differ in length$"):
        render_lines([("a", [1.0, 2.0], [1.0, 2.0]), ("b", [1.0, 2.0, 3.0], [1.0, 2.0])])


def _values(rng: random.Random, n: int, lo: float, hi: float, plot: int) -> list:
    """n values in [lo, hi]: one value n times (a constant axis), values that
    map to a rounding tie of %.2f when [lo, hi] spans a plot side of plot
    pixels, or uniform values of which some are +-inf, nan or +-0.0."""
    kind = rng.random()
    if kind < 0.15:
        return [lo] * n
    if kind < 0.5:
        return [lo + (hi - lo) * ((rng.randrange(100 * plot) + 0.5) / 100 / plot)
                for _ in range(n)]
    specials = (math.inf, -math.inf, math.nan, 0.0, -0.0)
    return [rng.choice(specials) if rng.random() < 0.1 else lo + (hi - lo) * rng.random()
            for _ in range(n)]


def _container(rng: random.Random, values: list):
    """values as a list, a float64 array, or Python ints (all or some)."""
    kind = rng.randrange(4)
    if kind == 1:
        return np.array(values)
    if kind >= 2:
        ints = [int(v) if math.isfinite(v) and abs(v) < 2 ** 53 else v for v in values]
        return ints if kind == 2 else [rng.choice(pair) for pair in zip(ints, values)]
    return values


def _random_series(rng: random.Random) -> list:
    """1-10 (label, xs, ys) series on one random [lo, hi] per axis, at
    magnitudes 1e-300 to 1e303; series may be empty, single points, constant
    or without a finite point, and a last series often pins the bounds to
    [lo, hi] so that the values aimed at rounding ties hit them."""
    axes = []
    for plot in (490, 390):
        scale = 10.0 ** rng.uniform(-300, 300)
        lo = rng.choice((0.0, -scale, scale * rng.uniform(-1e3, 1e3)))
        axes.append((lo, lo + scale, plot))
    series = []
    for k in range(rng.randint(1, 10)):
        n = rng.choice((0, 1, 1, 2, rng.randint(3, 40)))
        xs, ys = (_values(rng, n, *axis) for axis in axes)
        if rng.random() < 0.05:
            ys = [math.nan] * n
        series.append((f"s{k}", _container(rng, xs), _container(rng, ys)))
    if rng.random() < 0.6:
        series.append(("bounds", *([lo, hi] for lo, hi, _ in axes)))
    return series


def _outcome(render, series, seed: int):
    """render's SVG text, or the type and message of what it raised."""
    try:
        return render(series, title=f"t{seed}", x_label="x", y_label="y")
    except ValueError as exc:
        return type(exc), str(exc)


def _long_series(rng: random.Random) -> list:
    """1-8 (label, xs, ys) series of 100-1,000 points on one random [lo, hi]
    per axis, drawn as _random_series draws its axes and values, with empty
    and all-NaN series between them: one chart's coordinates at the scale of
    the CLI's, formatted in one pass and split at the series' ends."""
    axes = []
    for plot in (490, 390):
        scale = 10.0 ** rng.uniform(-300, 300)
        lo = rng.choice((0.0, -scale, scale * rng.uniform(-1e3, 1e3)))
        axes.append((lo, lo + scale, plot))
    series = []
    for k in range(rng.randint(1, 8)):
        n = rng.randint(100, 1000)
        xs, ys = (_values(rng, n, *axis) for axis in axes)
        series.append((f"s{k}", _container(rng, xs), _container(rng, ys)))
        for _ in range(rng.choice((0, 0, 1, 2))):
            m = rng.choice((0, rng.randint(1, 50)))
            series.append((f"gap{k}", [math.nan] * m, _container(rng, [math.nan] * m)))
    return series


def check_against_reference(seeds: range, draw=_random_series) -> tuple[int, int]:
    """Assert that render_lines gives reference_render_lines' text, or raises
    as it does, on one random series set per seed drawn by draw; returns the
    counts (drawn, nothing to plot). Both pad a constant axis by svgplot's
    rule, which leaves a span also where v + 1.0 == v, so nothing but
    "nothing to plot" is raised."""
    drawn = empty = 0
    for seed in seeds:
        series = draw(random.Random(seed))
        # The reference maps Python numbers, so it gets each array's tolist().
        as_lists = [(label, *(v.tolist() if isinstance(v, np.ndarray) else v for v in xy))
                    for label, *xy in series]
        expect = _outcome(reference_render_lines, as_lists, seed)
        assert _outcome(render_lines, series, seed) == expect, f"seed {seed}"
        drawn += isinstance(expect, str)
        empty += expect == (ValueError, "nothing to plot")
    return drawn, empty


def test_matches_reference_renderer_byte_for_byte():
    drawn, empty = check_against_reference(range(600))
    assert drawn >= 500 and empty >= 3
    with pytest.raises(ValueError, match="^nothing to plot$"):
        render_lines([])


def test_long_series_match_reference_renderer_byte_for_byte():
    drawn, empty = check_against_reference(range(40), draw=_long_series)
    assert (drawn, empty) == (40, 0)


def _kernel_values(rng: np.random.Generator) -> np.ndarray:
    """Coordinates in [1, 10000) where "%.2f" is hardest to match: uniform
    draws in [1, 10000) and in the charts' [40, 560], the exact binary ties
    k/8 (odd k) and the decimal ties k/100 + 0.005, each with both float
    neighbours, and both ends of the range."""
    ties = np.concatenate(((rng.integers(4, 40000, 5000) * 2 + 1.0) / 8,
                           rng.integers(100, 1000000, 5000) / 100 + 0.005))
    return np.concatenate((rng.uniform(1.0, 1e4, 10000), rng.uniform(40.0, 560.0, 10000), ties,
                           np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
                           [1.0, np.nextafter(1e4, 0.0)]))


def check_coords(seed: int) -> int:
    """Assert that _coords gives "%.2f,%.2f" point by point, joined by
    spaces, for each of a random split of shuffled _kernel_values into 41
    runs; returns the number of coordinates."""
    rng = np.random.default_rng(seed)
    v = rng.permutation(_kernel_values(rng))
    xs, ys = v[0::2], v[1::2]
    ends = np.sort(rng.choice(np.arange(1, ys.size), 40, replace=False)).tolist() + [ys.size]
    starts = [0] + ends[:-1]
    assert _coords(xs, ys, [b - a for a, b in zip(starts, ends)]) == [
        " ".join("%.2f,%.2f" % p for p in zip(xs[a:b].tolist(), ys[a:b].tolist()))
        for a, b in zip(starts, ends)]
    return 2 * ys.size


@pytest.mark.parametrize("seed", range(3))
def test_coords_match_percent_format(seed):
    assert check_coords(seed) == 50002


@pytest.mark.parametrize("bad", [np.nextafter(1.0, 0.0), 1e4, 0.0, -0.0, -5.0, 1e300,
                                 math.inf, -math.inf, math.nan])
def test_coords_outside_their_range_raise(bad):
    for xs, ys in (([5.0, bad], [5.0, 5.0]), ([5.0, 5.0], [bad, 5.0])):
        with pytest.raises(ValueError, match=r"^a coordinate lies outside \[1, 10000\)$"):
            _coords(np.array(xs), np.array(ys), [2])


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x has no numpy._core.__cpu_features__")
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86-64 AVX-512 ones")
def test_matches_reference_without_avx512_dispatch():
    # The map takes IEEE + - * / and _coords integer arithmetic and table
    # reads, so neither may depend on numpy's SIMD dispatch; the child fails
    # if numpy ignored the disabled feature names.
    child = ("from numpy._core._multiarray_umath import __cpu_features__\n"
             "assert __cpu_features__['AVX512_SKX'] is False\n"
             "import test_svgplot\n"
             "print(*test_svgplot.check_against_reference(range(600)))\n"
             "print(test_svgplot.check_coords(0))\n")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join((str(TESTS), str(TESTS.parent / "src")))}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    drawn, empty, coords = map(int, done.stdout.split())
    assert drawn >= 500 and empty >= 3 and coords == 50002


def test_constant_axis_beyond_2_pow_53_keeps_a_span():
    # 1e20 + 1.0 == 1e20, so the axis runs to the next float up instead.
    svg = render_lines([("a", [1e20, 1e20], [0.0, 1.0])])
    assert '<polyline points="70.00,430.00 70.00,40.00"' in svg
    assert svg.count(">1e+20</text>") == 5


def test_constant_axis_padding_is_plus_one_wherever_that_leaves_a_span():
    for v in (0.0, -0.0, 2.0, -7.5, 1e-300, 2.0 ** 52 + 1, 1.5 * 2.0 ** 52, 2.0 ** 53 + 2,
              -(2.0 ** 53 + 2)):
        assert _padded(v, v) == (v, v + 1.0), v
    for v in (2.0 ** 53, 1e20, -1e20, 1.797e308):
        assert _padded(v, v) == (v, math.nextafter(v, math.inf)), v
    top = sys.float_info.max
    assert _padded(top, top) == (math.nextafter(top, -math.inf), top)
    assert _padded(1.0, 3.0) == (1.0, 3.0)


@pytest.mark.parametrize("xs,ys,points", [
    ([-1e308, 1e308], [0.0, 1.0], "70.00,430.00 560.00,40.00"),
    ([0.0, 1e308], [5.0, 5.0], "70.00,430.00 560.00,430.00"),
    ([-1.797e308, 1.797e308], [-1.797e308, 1.797e308], "70.00,430.00 560.00,40.00"),
    ([sys.float_info.max] * 2, [-sys.float_info.max, sys.float_info.max],
     "560.00,430.00 560.00,40.00"),
    # Unclamped, the top y tick rounds past the largest float.
    ([0.0, 1.0], [-1e308, sys.float_info.max], "70.00,430.00 560.00,40.00"),
])
def test_spans_beyond_the_largest_float_map_to_finite_coordinates(xs, ys, points):
    # A span, or a tick's span * 4, that overflows a float is mapped at a
    # power of two below it; no subtraction overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = render_lines([("a", xs, ys)])
    assert "nan" not in svg and "inf" not in svg
    assert f'<polyline points="{points}"' in svg

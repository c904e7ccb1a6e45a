import math

import pytest

from cloee.svgplot import render_lines


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

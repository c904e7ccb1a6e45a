"""The config boundary: every setting fails at its own key, and the CLI either
succeeds with well-formed output or exits 2 with one error line."""

import ast
import contextlib
import inspect
import io
import math
import re
import tempfile
import textwrap
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloee import ConfigError, LinkModel, Scenario, parse_scenario
from cloee.cli import main
from cloee.scenario import _KEYS, _SECTIONS

# One value per key that the key rejects, at the parser or at its owner.
REJECTED = {
    "channel.a": "nan",
    "channel.b": "inf",
    "channel.sigma": "-1",
    "channel.noise_density": "-4000",
    "channel.noise_figure": "-inf",
    "channel.impl_margin": "nan",
    "channel.w_rx": "0",
    "energy.eps_p": "0",
    "energy.p_cor": "-1",
    "energy.p_adc": "nan",
    "energy.p_lna": "inf",
    "energy.p_vga": "-1e-3",
    "energy.p_syn": "-inf",
    "energy.p_gen": "-5e-324",
    "energy.t_st": "-1",
    "energy.m_fingers": "-1",
    "energy.rho_r": "2",
    "energy.rho_c": "-1",
    "qos.r0": "0",
    "qos.n_s": "65",
    "solver.n_t_max": "62",
    "distances": "-1",
    "strategies": "3:2616",
    "seed": "-1",
    "shadowing": "maybe",
    "model.uniform_section_ber": "2",
    "model.integration_per_pulse": "maybe",
}


# Values that only a library caller can pass, since the parser never builds
# them: one row per case, each rejected at its key.
REJECTED_IN_LIBRARY = [
    ("distances", ("x",)),
    ("distances", (10 ** 400,)),
    ("strategies", ((1,),)),
    ("strategies", ((1, 2616, 3),)),
]


@pytest.mark.parametrize("key,value", REJECTED_IN_LIBRARY)
def test_library_values_reject_at_their_key(key, value):
    with pytest.raises(ConfigError) as err:
        Scenario(**{key: value})
    assert err.value.key == key


def test_every_key_has_a_rejected_value():
    assert sorted(REJECTED) == sorted(_KEYS)


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_every_key_rejects_at_its_key(tmp_path, capsys, key):
    text = f"{key} = {REJECTED[key]}\n"
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert err.value.key == key
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"config-error: {key}: ") and stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()
    section, _, name = key.rpartition(".")
    if section in _SECTIONS:
        # The section's dataclass, built directly, names the same key.
        with pytest.raises(ConfigError) as err:
            _SECTIONS[section](**{name: _KEYS[key](key, REJECTED[key])})
        assert err.value.key == key


def test_settings_raise_only_config_errors():
    # Each setting's owner raises ConfigError at the setting's key; a plain
    # ValueError from a __post_init__ would reach the CLI without a key.
    for cls in (Scenario, LinkModel, *_SECTIONS.values()):
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__)))
        raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
        assert raises, cls.__name__
        for node in raises:
            assert isinstance(node.exc, ast.Call) and node.exc.func.id == "ConfigError", \
                f"{cls.__name__}.__post_init__ line {node.lineno}: {ast.unparse(node)}"


# --------------------------------------------------------------------------
# the CLI over drawn configs

NUMBERS = ("0", "5e-324", "1e300", "1.7e308", "-1", "nan", "inf", "-inf", "-0.0")
FLOATS = NUMBERS + ("True",)
INTS = ("0", "1", "-1", "2", "24", "62", "63", "64", "65", "8190", "1" + "0" * 400,
        "True", "1.5")
BOOLS = ("on", "off", "maybe", "1", "2", "True")
PLAIN_DISTANCES = ("0.5", "4.0", "6.5", "12")
DISTANCES = st.one_of(st.sampled_from(PLAIN_DISTANCES), st.sampled_from(NUMBERS))
N_CPB = ("1", "2", "3", "4", "8", "16", "32", "0", "-1", "True")
N_T = ("63", "62", "630", "2616", "8190", "258048", "258049", "1" + "0" * 400, "x")


@st.composite
def range_text(draw):
    """start:stop:step with stop = start + k*step for k in -1..3: an error or a
    handful of distances."""
    start, step = (float(draw(DISTANCES)) for _ in range(2))
    return f"{start!r}:{start + draw(st.integers(-1, 3)) * step!r}:{step!r}"


def value_text(key):
    """A drawn value of key: one of its edge values or its default."""
    parse = _KEYS[key].__name__
    if parse == "_parse_distances":
        token = st.one_of(DISTANCES, st.sampled_from(("x", "True")))
        listed = st.lists(token, min_size=1, max_size=4).map(", ".join)
        return st.one_of(listed, range_text(), st.sampled_from(("", ",", "1:2", "1.0,")))
    if parse == "_parse_strategies":
        pair = st.tuples(st.sampled_from(N_CPB), st.sampled_from(N_T)).map(":".join)
        listed = st.lists(pair, min_size=1, max_size=3).map(", ".join)
        return st.one_of(listed, st.sampled_from(("", ",", "8x630", "8:630:1")))
    edges = {"_parse_float": FLOATS, "_parse_int": INTS, "_parse_bool": BOOLS}[parse]
    if key == "solver.n_t_max":         # the search stays cheap: at most 8190
        edges = tuple(v for v in edges if v != "8190") + ("126",)
    section, _, name = key.rpartition(".")
    default = getattr(_SECTIONS[section]() if section in _SECTIONS else Scenario(), name)
    return st.one_of(st.sampled_from(edges), st.just(str(default)))


@st.composite
def configs(draw):
    """distances (a handful at most, so each run stays cheap) and up to four
    other keys."""
    keys = draw(st.lists(st.sampled_from(sorted(set(_KEYS) - {"distances"})), max_size=4,
                         unique=True))
    return {key: draw(value_text(key)) for key in ("distances", *keys)}


@st.composite
def options(draw):
    """The drawn --distance of optimize and curves, and the drawn --seed and
    --shadowing overrides, by the key each sets; each flag takes text that its
    parser rejects too."""
    distance = draw(st.one_of(DISTANCES, st.sampled_from(("True", "x", ""))))
    overrides = {}
    if draw(st.booleans()):
        overrides["seed"] = draw(st.sampled_from(INTS + ("x", "")))
    if draw(st.booleans()):
        overrides["shadowing"] = draw(st.sampled_from(BOOLS + ("",)))
    return distance, overrides


def _no_nan_cells(text):
    lines = text.splitlines()
    assert len(lines) >= 2
    for line in lines[1:]:
        assert "nan" not in line.split(","), line


def _well_formed_svg(text):
    root = ET.fromstring(text)
    for polyline in root.iter("{http://www.w3.org/2000/svg}polyline"):
        for point in polyline.get("points").split():
            x, y = (float(v) for v in point.split(","))
            assert math.isfinite(x) and math.isfinite(y), point


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, derandomize=True, deadline=None)
@given(config=configs(), opts=options())
def test_cli_fails_cleanly_or_writes_well_formed_output(config, opts):
    distance, overrides = opts
    text = "".join(f"{key} = {raw}\n" for key, raw in config.items())
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = Path(tmp) / "scenario.cfg"
        cfg.write_text(text)
        common = ["--config", str(cfg), *(f"--{key}={raw}" for key, raw in overrides.items())]
        for command, argv in (
            ("optimize", ["optimize", f"--distance={distance}", *common]),
            ("sweep", ["sweep", "--format", "svg", "--out", f"{tmp}/sweep", *common]),
            ("curves", ["curves", f"--distance={distance}", "--format", "svg",
                        "--out", f"{tmp}/curves", *common]),
        ):
            code, stdout, stderr = _run(argv)
            if code == 2:
                assert stderr.count("\n") == 1 and stdout == "", stderr
                set_keys = {*config, *overrides, *(["--distance"] if command != "sweep" else [])}
                match = re.match(r"config-error: ([^ ]+): ", stderr)
                if match:
                    assert match[1] in set_keys | {"energy"}, stderr
                    assert match[1] != "energy" or "overflow a float" in stderr, stderr
                else:
                    assert stderr.startswith("value-error: "), stderr
                continue
            assert (code, stderr) == (0, ""), stderr
            if command == "optimize":
                _no_nan_cells(stdout)
                continue
            for path in map(Path, stdout.split()):
                written = path.read_text()
                if path.suffix == ".csv":
                    _no_nan_cells(written)
                else:
                    _well_formed_svg(written)

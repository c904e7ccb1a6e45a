import argparse
import dataclasses
import math
import os
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloee import (
    ChannelParams,
    ConfigError,
    EnergyParams,
    LinkModel,
    QosSpec,
    Scenario,
    SolverConfig,
    emit_curves,
    load_scenario,
    parse_scenario,
    rows_to_csv,
    run_sweep,
)
from cloee import cli, sweep
from cloee.cli import main
from cloee.optimizer import N_T_MAX_LIMIT
from cloee.output import csv_text
from cloee.scenario import MAX_RANGE_STEPS
from cloee.sweep import CSV_HEADER, compute_curves, emit_fixed_distance_curves
from helpers import (MODEL_VARIANTS, output_diff, parse_rows, reference_csv_text,
                     reference_curve_texts)
from test_golden import HOSPITAL, OPTIMIZE



def _same_id(text: str, expected: str, was: str):
    """A row that expects the exact key, under the id of its section-level
    label `was` ("<text>-<was>"), so that the test ids stay stable."""
    return pytest.param(text, expected, id=f"{text}-{was}")


SMALL_CONFIG = """
# two distances, one static strategy
distances = 2.0, 4.0
strategies = 32:2616
seed = 7
"""

# Every key a config may set, each at a value other than its default.
ALL_KEYS = """
channel.a = 18.5
channel.b = 4.25
channel.sigma = 3.5
channel.noise_density = -170.0
channel.noise_figure = 7.5
channel.impl_margin = 2.5
channel.w_rx = 250e6
energy.eps_p = 15e-12
energy.p_cor = 5e-3
energy.p_adc = 1.5e-3
energy.p_lna = 8e-3
energy.p_vga = 20e-3
energy.p_syn = 25e-3
energy.p_gen = 2e-3
energy.t_st = 300e-6
energy.m_fingers = 2
energy.rho_r = 1
energy.rho_c = 1
qos.r0 = 20e3
qos.n_s = 12
solver.n_t_max = 4095
distances = 2.0:3.0:0.5
strategies = 8:630
seed = 5
shadowing = on
model.uniform_section_ber = on
model.integration_per_pulse = on
"""


COMMANDS = ("optimize", "sweep", "curves", "dump-modes")


def _run_module(*argv, flags=()):
    """python [flags] -m cloee.cli argv in a fresh interpreter, on this
    checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, *flags, "-m", "cloee.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def _streams(capsys, argv):
    """(exit status, stdout, stderr) of main(argv), argparse's SystemExit
    included."""
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    return status, out, err


class TestScenarioParsing:
    def test_empty_config_is_default_scenario(self):
        assert parse_scenario("") == Scenario()

    def test_comments_and_values(self):
        sc = parse_scenario(
            """
            channel.a = 15.5        # different room fit
            energy.eps_p = 10e-12
            qos.n_s = 12
            solver.n_t_max = 1260
            distances = 1.0:2.0:0.5
            strategies = 8:630, 32:2616
            shadowing = on
            model.uniform_section_ber = on
            """
        )
        assert sc.channel.a == 15.5
        assert sc.energy.eps_p == 10e-12
        assert sc.qos.n_s == 12
        assert sc.solver.n_t_max == 1260
        assert sc.distances == (1.0, 1.5, 2.0)
        assert sc.strategies == ((8, 630), (32, 2616))
        assert sc.shadowing and sc.uniform_section_ber

    def test_every_key_parses_to_its_value(self):
        sc = parse_scenario(ALL_KEYS)
        assert sc == Scenario(
            channel=ChannelParams(a=18.5, b=4.25, sigma=3.5, noise_density=-170.0,
                                  noise_figure=7.5, impl_margin=2.5, w_rx=250e6),
            energy=EnergyParams(eps_p=15e-12, p_cor=5e-3, p_adc=1.5e-3, p_lna=8e-3,
                                p_vga=20e-3, p_syn=25e-3, p_gen=2e-3, t_st=300e-6,
                                m_fingers=2, rho_r=1, rho_c=1),
            qos=QosSpec(r0=20e3, n_s=12),
            solver=SolverConfig(n_t_max=4095),
            distances=(2.0, 2.5, 3.0),
            strategies=((8, 630),),
            seed=5,
            shadowing=True,
            uniform_section_ber=True,
            integration_per_pulse=True,
        )
        # Each of the 27 keys moved its field off the default, with the
        # default's type, so no key is dropped or parsed as another type.
        assert len([ln for ln in ALL_KEYS.splitlines() if ln]) == 27
        default = Scenario()
        for f in dataclasses.fields(Scenario):
            value, base = getattr(sc, f.name), getattr(default, f.name)
            assert value != base, f.name
            if dataclasses.is_dataclass(base):
                for g in dataclasses.fields(base):
                    v, b = getattr(value, g.name), getattr(base, g.name)
                    assert v != b and type(v) is type(b), f"{f.name}.{g.name}"
            else:
                assert type(value) is type(base), f.name

    @pytest.mark.parametrize("key", [
        "channel.c", "energy.eps_b", "energy.rx_chain_power", "qos.aggregate_rate",
        "qos.n_t_max", "solver.r0", "uniform_section_ber", "integration_per_pulse",
        "model.seed", "model.shadowing", "channel", "channel.channel.a", "scenario.seed",
        "frame.n_phr", "Channel.a", "seeds",
    ])
    def test_any_other_key_is_unknown(self, key):
        with pytest.raises(ConfigError) as err:
            parse_scenario(f"{ALL_KEYS}{key} = 1\n")
        assert str(err.value) == f"{key}: unknown key"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("channel.a = fast", "channel.a"),
            ("nonsense.key = 1", "nonsense.key"),
            _same_id("qos.n_s = 99", "qos.n_s: a hub serves 1..64 nodes, got 99", "qos"),
            ("strategies = 3:2616", "strategies"),
            ("strategies = 8x630", "strategies"),
            ("strategies = 1:62", "strategies: static n_t must be an integer in [63, 258048]"),
            ("strategies = 1:258049", "strategies: static n_t must be an integer in [63, 258048]"),
            pytest.param("strategies = 1:1" + "0" * 400,
                         "strategies: static n_t must be an integer in [63, 258048]",
                         id="strategies-n_t-1e400"),
            ("strategies = 2:2616, 2:2616", "strategies: duplicate static strategy 2:2616"),
            ("strategies = 2:2616, 4:630, 2:2616",
             "strategies: duplicate static strategy 2:2616"),
            ("distances = -1.0", "distances"),
            ("distances = nan", "distances"),
            ("distances = 1.0, inf", "distances"),
            ("distances = 1.0:inf:0.5", "distances"),
            _same_id("qos.r0 = nan", "qos.r0: must be finite and > 0, got nan", "qos"),
            _same_id("qos.r0 = inf", "qos.r0: must be finite and > 0, got inf", "qos"),
            ("solver.alpha0 = auto", "solver.alpha0"),
            ("distances = 1:2", "distances"),
            ("shadowing = maybe", "shadowing"),
            _same_id("workers = 2", "workers: unknown key", "unknown key"),
            _same_id("channel.a = nan", "channel.a: must be finite, got nan", "channel"),
            _same_id("channel.sigma = nan", "channel.sigma: must be finite, got nan", "channel"),
            _same_id("channel.noise_figure = inf", "channel.noise_figure: must be finite, got inf",
                     "channel"),
            _same_id("energy.p_syn = inf", "energy.p_syn: must be finite and >= 0, got inf",
                     "energy"),
            _same_id("energy.eps_p = nan", "energy.eps_p: must be finite and >= 0, got nan",
                     "energy"),
            _same_id("energy.eps_p = 0", "energy.eps_p: must be > 0, got 0.0",
                     "energy: eps_p must be > 0"),
            ("distances = 5:1:0.5", "distances: range stop must be >= start"),
            ("seed = 1\nseed = 2", "seed"),
            ("solver.n_t_max = 258049", "solver.n_t_max"),
            ("solver.n_t_max = 62", "solver.n_t_max"),
            ("seed = -1", "seed: must be >= 0"),
            _same_id("channel.noise_density = -4000",
                     "channel.noise_density: must give a positive finite N0",
                     "channel: noise_density"),
            _same_id("channel.noise_density = 1e6",
                     "channel.noise_density: must give a positive finite N0",
                     "channel: noise_density"),
        ],
    )
    def test_errors_carry_key_path(self, text, expected):
        # expected is the exact key, or the key and the start of the message.
        with pytest.raises(ConfigError) as err:
            parse_scenario(text)
        assert err.value.key == expected.split(": ", 1)[0]
        assert str(err.value).startswith(expected)

    def test_range_expansion_bounded(self):
        # The step count is checked before any distance is built.
        with pytest.raises(ConfigError) as err:
            parse_scenario("distances = 1:1e9:1e-9")
        assert str(err.value).startswith("distances: ")
        with pytest.raises(ConfigError):
            parse_scenario(f"distances = 0:{MAX_RANGE_STEPS + 1}:1")
        sc = parse_scenario(f"distances = 1:{MAX_RANGE_STEPS + 1}:1")
        assert len(sc.distances) == MAX_RANGE_STEPS + 1

    def test_single_point_range(self):
        assert parse_scenario("distances = 1:1:0.5").distances == (1.0,)

    def test_range_stop_off_the_step_grid(self):
        # 1.26 is not on the 0.1 grid from 1, so the last step is the one below it.
        assert parse_scenario("distances = 1:1.26:0.1").distances == (1.0, 1.1, 1.2)

    def test_trailing_comma_after_a_strategy(self):
        assert parse_scenario("strategies = 1:2616,").strategies == ((1, 2616),)

    @pytest.mark.parametrize("raw", ["off", "false", "no", "0", "OFF"])
    def test_false_spellings(self, raw):
        assert parse_scenario(f"shadowing = {raw}\nseed = 3").shadowing is False

    def test_static_n_t_must_be_an_integer(self):
        with pytest.raises(ConfigError, match=r"^strategies: static n_t must be an integer"):
            Scenario(strategies=((2, 2616.0),))
        Scenario(strategies=((2, 63), (2, 63 * 4096)))         # both bounds are valid

    @pytest.mark.parametrize("pair,message", [
        ((1.0, 2616), "n_cpb must be one of (1, 2, 4, 8, 16, 32), got 1.0"),
        ((True, 2616), "n_cpb must be one of (1, 2, 4, 8, 16, 32), got True"),
        ((np.float64(2.0), 2616), "n_cpb must be one of (1, 2, 4, 8, 16, 32), got 2.0"),
        ((1, True), "static n_t must be an integer in [63, 258048], got True"),
        ((1, np.float64(2616.0)), "static n_t must be an integer in [63, 258048], got 2616.0"),
    ])
    def test_strategy_entries_must_be_integers(self, pair, message):
        # One integer rule for both entries: a bool or a float equal to an
        # integer would otherwise name a static_1.0_2616 or static_True_2616 row.
        with pytest.raises(ConfigError) as err:
            Scenario(strategies=(pair,))
        assert str(err.value) == f"strategies: {message}"

    def test_numpy_integer_strategy_gives_the_plain_rows(self):
        plain = rows_to_csv(run_sweep(Scenario(distances=(2.0, 8.0), strategies=((1, 2616),))))
        for pair in ((1, np.int64(2616)), (np.int64(1), 2616), (np.int32(1), np.uint16(2616))):
            sc = Scenario(distances=(2.0, 8.0), strategies=(pair,))
            assert rows_to_csv(run_sweep(sc)) == plain, pair

    @pytest.mark.parametrize("qos", [QosSpec(n_s=np.int64(24)), QosSpec(r0=np.float64(15e3))],
                             ids=["n_s", "r0"])
    def test_numpy_qos_gives_the_plain_csv(self, qos):
        plain = rows_to_csv(run_sweep(Scenario(distances=(2.0, 8.0))))
        assert ",true,static" in plain and ",false,static" in plain
        assert rows_to_csv(run_sweep(Scenario(distances=(2.0, 8.0), qos=qos))) == plain

    def test_seed_must_be_an_integer(self):
        # The config parser reads seed as an int; a library caller may not.
        with pytest.raises(ConfigError, match=r"^seed: must be an integer, got 1\.5$"):
            Scenario(seed=1.5, shadowing=True)

    @pytest.mark.parametrize("cls,field,value,message", [
        (Scenario, "seed", True, "seed: must be an integer, got True"),
        (QosSpec, "n_s", True, "qos.n_s: must be an integer, got True"),
        (EnergyParams, "m_fingers", True, "energy.m_fingers: must be an integer, got True"),
        (EnergyParams, "rho_r", True, "energy.rho_r: must be an integer, got True"),
        (EnergyParams, "rho_c", False, "energy.rho_c: must be an integer, got False"),
        (SolverConfig, "n_t_max", True, "solver.n_t_max: must be an integer >= 63, got True"),
    ], ids=["seed", "n_s", "m_fingers", "rho_r", "rho_c", "n_t_max"])
    def test_bool_is_not_an_integer(self, cls, field, value, message):
        # bool is a numbers.Integral; every integer setting shares
        # errors.is_int, which rejects it, as the strategy entries do.
        with pytest.raises(ConfigError) as err:
            cls(**{field: value})
        assert str(err.value) == message and message.startswith(f"{err.value.key}: ")

    @pytest.mark.parametrize("field,value,line", [
        ("shadowing", "off", "shadowing: must be a bool, got 'off'"),
        ("uniform_section_ber", "no", "model.uniform_section_ber: must be a bool, got 'no'"),
        ("integration_per_pulse", 1, "model.integration_per_pulse: must be a bool, got 1"),
        ("distances", (True, 2.0), "distances: distances must be finite and > 0, got True"),
    ], ids=["shadowing", "uniform_section_ber", "integration_per_pulse", "distances"])
    def test_bool_settings_take_only_bools(self, field, value, line):
        # A truthy string would switch its model on, and a bool distance
        # would sweep 1 m under a `true` label.
        with pytest.raises(ConfigError) as err:
            Scenario(**{field: value})
        assert str(err.value) == line and line.startswith(f"{err.value.key}: ")

    def test_numpy_bool_setting_is_a_bool(self):
        plain = Scenario(distances=(4.0,), shadowing=True, seed=3)
        assert Scenario(distances=(4.0,), shadowing=np.bool_(True), seed=3).shadowing_draws() \
            == plain.shadowing_draws() != (0.0,)

    def test_repeated_static_strategy_rejected(self):
        # Two equal pairs would give two identical static_<n_cpb>_<n_t> rows
        # per distance; one n_cpb or one n_t may repeat.
        with pytest.raises(ConfigError, match=r"^strategies: duplicate static strategy 2:2616$"):
            Scenario(strategies=((2, 2616), (4, 2616), (2, 2616)))
        Scenario(strategies=((2, 2616), (2, 630), (4, 2616)))

    def test_repeated_distance_rejected(self):
        # Rows of a repeated distance could not be told apart.  The config
        # forms, a list and a range whose 9-decimal rounding folds steps
        # together, are rows of test_bad_value_fails_at_its_key.
        with pytest.raises(ConfigError, match=r"^distances: duplicate distance 2\.5$"):
            Scenario(distances=(1.0, 2.5, 3.0, 2.5))
        Scenario(distances=(1.0, 1.0 + 1e-9, 2.0))

    def test_line_without_assignment(self):
        with pytest.raises(ConfigError) as err:
            parse_scenario("just words\n")
        assert ":1" in str(err.value)

    def test_shadowing_draws(self):
        sc = parse_scenario(SMALL_CONFIG)
        assert sc.shadowing_draws() == (0.0, 0.0)
        on = dataclasses.replace(sc, shadowing=True)
        draws = on.shadowing_draws()
        assert draws != (0.0, 0.0)
        assert on.shadowing_draws() == draws          # seeded, reproducible
        other = dataclasses.replace(on, seed=8)
        assert other.shadowing_draws() != draws


def _draws(seed, count, sigma=ChannelParams().sigma):
    """The first count shadowing draws of seed at sigma."""
    return Scenario(channel=ChannelParams(sigma=sigma), distances=tuple(range(1, count + 1)),
                    seed=seed, shadowing=True).shadowing_draws()


class TestShadowingDraws:
    # chi = sigma * NormalDist().inv_cdf(u), u from random.Random(seed).random():
    # a stream whose sequence Python keeps across versions, in config order.
    @pytest.mark.parametrize("seed,first", [
        (1, "(-4.866379985416316, 4.512151478298436, 3.161387763342298)"),
        (7, "(-2.010833765700437, -4.544312065308425, 1.7065161445743533)"),
    ])
    def test_first_draws_are_pinned(self, seed, first):
        assert repr(_draws(seed, 3)) == first

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_draws_are_normal_with_sigma(self, seed):
        # The sample mean within 4 standard errors of 0, and the sample
        # standard deviation within 3% of sigma.
        n, sigma = 10_000, ChannelParams().sigma
        draws = _draws(seed, n)
        assert abs(statistics.fmean(draws)) <= 4 * sigma / math.sqrt(n)
        assert abs(statistics.stdev(draws) / sigma - 1) <= 0.03

    def test_exact_zero_uniform_is_redrawn(self, monkeypatch):
        # inv_cdf(0.0) raises; a u of exactly 0.0 (2**-53 per draw) is drawn again.
        class Stream:
            def __init__(self, seed):
                self.random = iter([0.0, 0.5, 0.0, 0.0, 0.975]).__next__

        monkeypatch.setattr(random, "Random", Stream)
        assert _draws(1, 2, sigma=1.0) == (0.0, statistics.NormalDist().inv_cdf(0.975))

    def test_numpy_integer_seed_draws_as_its_int(self):
        # random.Random takes no numpy integer; Scenario seeds with int(seed).
        assert _draws(np.int64(3), 5) == _draws(3, 5)

    def test_zero_sigma_changes_no_byte(self):
        # A negative quantile times sigma = 0 is -0.0, which adds exactly to
        # the path loss, so the shadowed sweep is the unshadowed one.
        draws = _draws(1, 91, sigma=0.0)
        assert set(draws) == {0.0} and any(math.copysign(1.0, chi) < 0 for chi in draws)
        off = dataclasses.replace(parse_scenario(HOSPITAL), channel=ChannelParams(sigma=0.0),
                                  shadowing=False)
        on = dataclasses.replace(off, shadowing=True)
        assert rows_to_csv(run_sweep(on)) == rows_to_csv(run_sweep(off))


    def test_optimize_draws_only_its_chi(self, monkeypatch):
        # optimize reads the first draw alone: one quantile, not one per
        # configured distance (91 by default), and shadowing_draws()[0].
        quantiles, chis = [], []
        inv_cdf, solve = statistics.NormalDist.inv_cdf, cli.cloee

        def counting_inv_cdf(self, p):
            quantiles.append(p)
            return inv_cdf(self, p)

        def recording_cloee(*args):
            chis.append(args[-1])
            return solve(*args)

        monkeypatch.setattr(statistics.NormalDist, "inv_cdf", counting_inv_cdf)
        monkeypatch.setattr(cli, "cloee", recording_cloee)
        assert main(["optimize", "--distance", "3", "--shadowing", "on", "--seed", "5"]) == 0
        assert len(quantiles) == 1
        assert chis == [Scenario(shadowing=True, seed=5).shadowing_draws()[0]]
        assert chis[0] != 0.0


def test_unshadowed_scenario_imports_no_statistics():
    # statistics loads fractions and decimal, a few ms of a cold start, so
    # only a shadowed draw imports it.
    child = ("import sys\n"
             "import cloee\n"
             "sc = cloee.parse_scenario('seed = 1\\nshadowing = off\\n')\n"
             "sc.shadowing_draws()\n"
             "print('statistics' in sys.modules)\n"
             "cloee.parse_scenario('seed = 1\\nshadowing = on\\n').shadowing_draws()\n"
             "print('statistics' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nTrue\n"


def test_flag_rule_imports_no_numpy():
    # errors.py alone, in an interpreter where numpy cannot be imported.
    child = ("import sys\n"
             "sys.modules['numpy'] = None\n"
             "from errors import is_bool\n"
             "print([is_bool(v) for v in (True, False, 1, 'on', 1.0, None)])\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src" / "cloee")}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[True, True, False, False, False, False]\n"


class TestRunSweep:
    def test_row_count_small(self):
        sc = parse_scenario("distances = 5.0\nstrategies = 32:2616")
        rows = run_sweep(sc)
        assert len(rows) == 3          # static + cloee + oracle
        assert sorted({r.strategy for r in rows}) == ["cloee", "oracle", "static_32_2616"]

    def test_row_count_formula(self):
        sc = parse_scenario(SMALL_CONFIG)
        rows = run_sweep(sc)
        assert len(rows) == len(sc.distances) * (len(sc.strategies) + 2)

    def test_rows_sorted_and_deterministic(self):
        sc = parse_scenario(SMALL_CONFIG)
        rows1, rows2 = run_sweep(sc), run_sweep(sc)
        assert rows1 == rows2
        assert rows1 == sorted(rows1, key=lambda r: (r.distance, r.strategy))

    def test_oracle_dominates_statics(self):
        sc = parse_scenario("distances = 1.0, 3.0, 5.0\nstrategies = 1:2616, 32:2616")
        rows = run_sweep(sc)
        by_distance = {}
        for r in rows:
            by_distance.setdefault(r.distance, {})[r.strategy] = r
        for group in by_distance.values():
            oracle = group["oracle"]
            if oracle.feasible:
                for name, row in group.items():
                    if name.startswith("static"):
                        assert oracle.eta >= row.eta - 1e-12

    def test_shadowing_changes_rows(self):
        sc = parse_scenario(SMALL_CONFIG)
        on = dataclasses.replace(sc, shadowing=True)
        assert rows_to_csv(run_sweep(sc)) != rows_to_csv(run_sweep(on))
        assert rows_to_csv(run_sweep(on)) == rows_to_csv(run_sweep(on))


class TestCsvEmission:
    def test_round_trip(self):
        rows = run_sweep(parse_scenario(SMALL_CONFIG))
        assert parse_rows(rows_to_csv(rows)) == rows

    def test_header_exact(self):
        assert CSV_HEADER == ("distance,strategy,n_cpb,n_t,eta_bits_per_joule,"
                              "rate_bps,p_ppdu,feasible,branch")

    def test_empty_rows_refused(self, tmp_path):
        with pytest.raises(ValueError):
            emit_curves([], tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_fixed_distance_format_checked(self, tmp_path):
        with pytest.raises(ValueError, match="format must be"):
            emit_fixed_distance_curves(LinkModel(), 6.5, QosSpec(), SolverConfig(),
                                       tmp_path / "out", fmt="pdf")
        assert not (tmp_path / "out").exists()

    def test_sweep_format_checked(self, tmp_path):
        rows = run_sweep(parse_scenario(SMALL_CONFIG))
        with pytest.raises(ValueError, match=r"^format must be csv\|svg, got 'pdf'$"):
            emit_curves(rows, tmp_path / "out", fmt="pdf")
        assert not (tmp_path / "out").exists()

    def test_svg_output(self, tmp_path):
        rows = run_sweep(parse_scenario(SMALL_CONFIG))
        paths = emit_curves(rows, tmp_path, fmt="svg")
        assert [p.name for p in paths] == ["sweep.csv", "sweep_eta.svg", "sweep_rate.svg"]
        for svg in paths[1:]:
            assert svg.read_text().startswith("<svg")


class TestCsvByColumn:
    # output.csv_text reads a table by column; helpers.reference_csv_text is
    # its row form, which every caller that holds rows reaches by zip(*rows).
    MIXED = [(True, 1, "cloee", -0.0, None),
             (False, -7, "static_1_63", 1e16, 1e-05),
             (None, 0, "", 5e-324, math.inf)]

    def test_mixed_table_equals_the_row_form(self):
        text = csv_text("a,b,c,d,e", zip(*self.MIXED))
        assert text == reference_csv_text("a,b,c,d,e", self.MIXED)
        assert text == ("a,b,c,d,e\ntrue,1,cloee,-0.0,\nfalse,-7,static_1_63,1e+16,1e-05\n"
                        ",0,,5e-324,inf\n")

    def test_zero_rows_give_the_header_line_only(self):
        assert csv_text("a,b", zip(*[])) == reference_csv_text("a,b", []) == "a,b\n"

    @pytest.mark.parametrize("n_t_max", [63, 8190, N_T_MAX_LIMIT])
    @pytest.mark.parametrize("variant", MODEL_VARIANTS)
    def test_curves_equal_the_row_form(self, tmp_path, variant, n_t_max):
        model, qos, cfg = LinkModel(**variant), QosSpec(), SolverConfig(n_t_max=n_t_max)
        emit_fixed_distance_curves(model, 6.5, qos, cfg, tmp_path)
        expected = reference_curve_texts(compute_curves(model, 6.5, qos, cfg))
        assert {name: (tmp_path / name).read_text() for name in expected} == expected
        assert len(expected["curves.csv"].splitlines()) == 1 + 6 * (n_t_max // 63)

    def test_curves_table_reaches_csv_text_as_columns(self, tmp_path, monkeypatch):
        tables = {}

        def spy(header, columns):
            tables[header] = columns
            return csv_text(header, columns)

        monkeypatch.setattr(sweep, "csv_text", spy)
        emit_fixed_distance_curves(LinkModel(), 6.5, QosSpec(), SolverConfig(n_t_max=630), tmp_path)
        # Four columns of six modes times ten frame sizes, as lists: no rows.
        table = tables[sweep.CURVE_HEADER]
        assert type(table) is list and len(table) == 4
        assert all(type(column) is list and len(column) == 6 * 10 for column in table)


class TestOutputDiff:
    # helpers.output_diff, the report a re-pin gives: the rows whose decision
    # moved and the largest relative move of each float column.
    NO_MOVE = {"eta": 0.0, "rate": 0.0, "p_ppdu": 0.0}

    @pytest.fixture(scope="class")
    def rows(self):
        return run_sweep(parse_scenario(HOSPITAL))

    def test_identical_rows_report_nothing(self, rows):
        assert output_diff(rows, parse_rows(rows_to_csv(rows))) == ({}, self.NO_MOVE)

    def test_one_ulp_of_eta_is_its_step_and_no_decision(self, rows):
        i = next(i for i, r in enumerate(rows) if r.strategy == "cloee" and r.eta > 0.0)
        eta = rows[i].eta
        new = [*rows[:i], rows[i]._replace(eta=math.nextafter(eta, math.inf)), *rows[i + 1:]]
        assert output_diff(rows, new) == ({}, {**self.NO_MOVE, "eta": math.ulp(eta) / eta})

    def test_a_changed_n_t_reports_its_row(self, rows):
        row = next(r for r in rows if r.strategy == "oracle")
        new = [r._replace(n_t=r.n_t + 63) if r is row else r for r in rows]
        assert output_diff(rows, new) == (
            {(row.distance, "oracle"): ((row.n_cpb, row.n_t, row.feasible, row.branch),
                                        (row.n_cpb, row.n_t + 63, row.feasible, row.branch))},
            self.NO_MOVE)

    @pytest.mark.parametrize("change", ["drop", "repeat", "rename"])
    def test_different_keys_raise(self, rows, change):
        new = {"drop": rows[1:], "repeat": [rows[0], *rows],
               "rename": [rows[0]._replace(strategy="static_x"), *rows[1:]]}[change]
        with pytest.raises(ValueError, match="same .distance, strategy. keys"):
            output_diff(rows, new)


class TestCli:
    def test_dump_modes_stdout(self, capsys):
        assert main(["dump-modes"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n_cpb,t_w_s,t_sym_s,rate_uncoded_bps,rate_coded_bps"
        assert len(out) == 7

    def test_dump_modes_files(self, tmp_path, capsys):
        assert main(["dump-modes", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "modes.csv").exists()
        constants = (tmp_path / "frame_constants.csv").read_text()
        assert constants.startswith("name,value")
        assert "rho_sensitivity,6" in constants

    def test_dump_modes_stdout_is_modes_csv(self, tmp_path, capsys):
        # test_golden.py pins modes.csv; stdout must be the same bytes.
        assert main(["dump-modes"]) == 0
        stdout = capsys.readouterr().out
        assert main(["dump-modes", "--out", str(tmp_path)]) == 0
        assert stdout.encode() == (tmp_path / "modes.csv").read_bytes()

    def test_module_entry_point_exit_codes(self, tmp_path, capsys):
        # python -m cloee.cli runs sys.exit(main()) in a fresh interpreter.
        done = _run_module("dump-modes")
        assert main(["dump-modes"]) == 0
        assert (done.returncode, done.stdout) == (0, capsys.readouterr().out)
        done = _run_module("optimize", "--distance", "nan")
        assert done.returncode == 2 and done.stderr.startswith("config-error: --distance:")
        existing = tmp_path / "taken"
        existing.write_text("")
        done = _run_module("sweep", "--out", str(existing))
        assert done.returncode == 3 and done.stderr.startswith("io-error:")

    @pytest.mark.parametrize("argv", [["optimize", "--distance", "4.0"], ["sweep"], ["curves"],
                                      ["dump-modes"]], ids=lambda argv: argv[0])
    def test_out_on_a_file_is_an_io_error_with_empty_stdout(self, tmp_path, capsys, argv):
        # Every command writes its files before it prints: a failed write
        # leaves stdout empty.
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(argv + ["--out", str(taken)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("io-error: ") and err.count("\n") == 1

    def test_out_files_take_no_locale_encoding(self, tmp_path):
        # Each --out command in an interpreter where a text file opened
        # without an explicit encoding raises EncodingWarning as an error.
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        for argv in (["optimize", "--distance", "4.0", "--config", str(cfg)],
                     ["sweep", "--format", "svg", "--config", str(cfg)],
                     ["curves", "--distance", "5", "--format", "svg", "--config", str(cfg)],
                     ["dump-modes"]):
            out_dir = tmp_path / argv[0]
            done = _run_module(*argv, "--out", str(out_dir),
                               flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"))
            assert (done.returncode, done.stderr) == (0, ""), argv[0]
            assert any(out_dir.iterdir())

    def test_optimize_csv_row(self, capsys):
        assert main(["optimize", "--distance", "8.4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("distance,n_t,n_cpb,")
        fields = lines[1].split(",")
        assert fields[0] == "8.4"
        assert fields[8] in ("unconstrained", "dual", "throughput-fallback")

    @pytest.mark.parametrize("distance,config", sorted(OPTIMIZE))
    def test_optimize_out_file_is_stdout(self, tmp_path, capsys, distance, config):
        # test_golden.py pins this stdout; optimize.csv must be the same bytes.
        conf = tmp_path / "scenario.conf"
        conf.write_text(config)
        out_dir = tmp_path / "out"
        assert main(["optimize", "--distance", distance, "--config", str(conf),
                     "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out.encode() == (out_dir / "optimize.csv").read_bytes()

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(SMALL_CONFIG)
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
        text = (out_dir / "sweep.csv").read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(parse_rows(text)) == 6

    def test_sweep_byte_identical_reruns(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(SMALL_CONFIG + "shadowing = on\n")
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert main(["sweep", "--config", str(cfg_file), "--out", str(out_dir)]) == 0
            outs.append((out_dir / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_svg_with_a_constant_eta_beyond_2_pow_53(self, tmp_path, capsys):
        # No noise, no circuit power and a tiny pulse energy: every eta of the
        # chart is 7.63e19, where the constant axis's pad of 1.0 rounds away.
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text("channel.noise_density = -300\nenergy.eps_p = 1e-20\n"
                            + "".join(f"energy.p_{p} = 0\n"
                                      for p in ("cor", "adc", "lna", "vga", "syn", "gen"))
                            + "distances = 2.0\nstrategies = 1:8190\n")
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_dir),
                     "--format", "svg"]) == 0
        names = ("sweep.csv", "sweep_eta.svg", "sweep_rate.svg")
        assert capsys.readouterr().out.split() == [str(out_dir / name) for name in names]
        assert all((out_dir / name).is_file() for name in names)
        assert all(row.eta > 2.0 ** 53 for row in parse_rows((out_dir / "sweep.csv").read_text()))

    def test_curves_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "curves"
        assert main(["curves", "--distance", "8.4", "--out", str(out_dir),
                     "--format", "svg"]) == 0
        marks = (out_dir / "curve_marks.csv").read_text().splitlines()
        assert marks == ["n_cpb,nt_ee,nt_thr,nt_star,branch,feasible"] + [
            f"{n_cpb},63,63,63,throughput-fallback,false" for n_cpb in (1, 2, 4, 8, 16, 32)]
        assert (out_dir / "curves.csv").exists()
        assert (out_dir / "curves_eta.svg").exists()
        # 6.5 m reaches all three branches with distinct nt_ee and nt_thr.
        out_dir = tmp_path / "curves_6.5"
        assert main(["curves", "--distance", "6.5", "--out", str(out_dir)]) == 0
        assert (out_dir / "curve_marks.csv").read_text().splitlines()[1:] == [
            "1,63,63,63,throughput-fallback,false",
            "2,63,63,63,throughput-fallback,false",
            "4,126,126,126,throughput-fallback,false",
            "8,315,252,315,unconstrained,true",
            "16,567,315,567,unconstrained,true",
            "32,693,378,378,dual,true",
        ]

    @pytest.mark.parametrize("command", ["optimize", "curves"])
    @pytest.mark.parametrize("distance", ["inf", "nan", "0"])
    def test_bad_distance_fails_at_the_option(self, tmp_path, capsys, command, distance):
        assert main([command, f"--distance={distance}", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config-error: --distance: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [None, b"qos.r0 = 1\xff\n"], ids=["missing", "not-utf8"])
    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_unreadable_config_fails_at_its_path(self, tmp_path, capsys, command, content):
        cfg = tmp_path / "bad.cfg"
        if content is not None:
            cfg.write_bytes(content)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv + (["--distance", "4.0"] if command == "optimize" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config-error: {cfg}: cannot read config: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_config_with_a_bom_parses_as_plain(self, tmp_path, capsys):
        # Many editors on Windows start a UTF-8 file with a byte order mark.
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(ALL_KEYS, encoding="utf-8")
        bom.write_text(ALL_KEYS, encoding="utf-8-sig")
        assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
        assert load_scenario(bom) == load_scenario(plain) == parse_scenario(ALL_KEYS)
        bom.write_bytes(b"\xef\xbb\xbfqos.r0 = 15e3\n")
        assert main(["optimize", "--distance", "4.0", "--config", str(bom)]) == 0
        assert main(["optimize", "--distance", "4.0"]) == 0
        out = capsys.readouterr()
        lines = out.out.splitlines()
        assert not out.err and len(lines) == 4 and lines[:2] == lines[2:]

    def test_invalid_config_value_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("strategies = 5:2616\n")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "strategies" in capsys.readouterr().err

    def test_non_finite_rate_target_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("qos.r0 = nan\n")
        assert main(["optimize", "--distance", "4.0", "--config", str(bad)]) == 2
        assert capsys.readouterr().err == "config-error: qos.r0: must be finite and > 0, got nan\n"

    def test_search_ceiling_bounded(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("solver.n_t_max = 258049\n")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config-error: solver.n_t_max: must be <= 258048")
        assert not (tmp_path / "out").exists()

    def test_distance_range_bounded(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("distances = 1:1e9:1e-9\n")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config-error: distances: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,prefix", [
        ("distances = 5:1:0.5\n", "config-error: distances: "),
        _same_id("energy.eps_p = 0\n", "config-error: energy.eps_p: must be > 0, got 0.0\n",
                 "config-error: energy: "),
        ("seed = -1\nshadowing = on\n", "config-error: seed: "),
        _same_id("channel.noise_density = -4000\n",
                 "config-error: channel.noise_density: must give a positive finite N0, "
                 "got -4000.0",
                 "config-error: channel: noise_density"),
        _same_id("channel.noise_density = 1e6\n",
                 "config-error: channel.noise_density: must give a positive finite N0, "
                 "got 1000000.0",
                 "config-error: channel: noise_density"),
        ("channel.b = -1e6\n", "value-error: the link gain at distance "),
        pytest.param("strategies = 1:1" + "0" * 400 + "\n", "config-error: strategies: ",
                     id="strategies-n_t-1e400"),
        ("strategies = 1:258049\n", "config-error: strategies: "),
        ("strategies = 2:2616, 2:2616\n",
         "config-error: strategies: duplicate static strategy 2:2616\n"),
        ("distances = 2.0, 2.0, 1.0\n", "config-error: distances: duplicate distance 2.0\n"),
        ("distances = 1:1.000000001:1e-10\n",
         "config-error: distances: duplicate distance 1.0\n"),
        # Finite settings whose costs, or their ratio, overflow a float.
        ("energy.p_syn = 1e308\n", "config-error: energy: "),
        ("energy.t_st = 1e308\n", "config-error: energy: "),
        pytest.param("energy.m_fingers = 1" + "0" * 400 + "\n", "config-error: energy: ",
                     id="energy-m_fingers-1e400"),
        _same_id("energy.m_fingers = -1\n",
                 "config-error: energy.m_fingers: must be >= 0, got -1\n",
                 "config-error: energy: m_fingers must be >= 0, got -1\n"),
        ("distances = ,\n", "config-error: distances: must not be empty\n"),
        ("qos.n_s = two\n", "config-error: qos.n_s: expected an integer, got 'two'\n"),
        ("distances = 1:2:0\n", "config-error: distances: range step must be > 0, got 0.0\n"),
        ("strategies = ,\n",
         "config-error: strategies: expected at least one n_cpb:n_t pair\n"),
    ])
    @pytest.mark.parametrize("command", ["optimize", "sweep"])
    def test_bad_value_fails_at_its_key(self, tmp_path, capsys, command, text, prefix):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "out")]
        assert main(argv + (["--distance", "4.0"] if command == "optimize" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "curves"])
    def test_overflowing_link_gain_fails(self, tmp_path, capsys, command):
        # Finite and > 0, but the gain at 1e-300 m overflows a float.
        assert main([command, "--distance", "1e-300", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == \
            "value-error: the link gain at distance 1e-300 m overflows a float\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "sweep", "curves"])
    def test_negative_seed_option_fails(self, tmp_path, capsys, command):
        argv = [command, "--seed", "-1", "--shadowing", "on", "--out", str(tmp_path / "out")]
        assert main(argv + (["--distance", "4.0"] if command == "optimize" else [])) == 2
        assert capsys.readouterr().err.startswith("config-error: seed: must be >= 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,line", [
        (["optimize", "--distance", "True"],
         "config-error: --distance: expected a number, got 'True'\n"),
        (["sweep", "--seed", "x"], "config-error: seed: expected an integer, got 'x'\n"),
        (["curves", "--shadowing", "maybe"],
         "config-error: shadowing: expected on|off, got 'maybe'\n"),
    ], ids=["distance", "seed", "shadowing"])
    def test_bad_option_text_fails_at_its_key(self, tmp_path, capsys, argv, line):
        # Each option's text goes through its config key's parser; --distance,
        # which has no key, fails at its own name.
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == line
        assert not (tmp_path / "out").exists()

    def test_shadowing_option_takes_the_key_spellings(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(SMALL_CONFIG)
        for flag in ("on", "yes", "off"):
            assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / flag),
                         "--shadowing", flag, "--seed", "3"]) == 0
        on, yes, off = ((tmp_path / f / "sweep.csv").read_bytes() for f in ("on", "yes", "off"))
        assert on == yes != off

    def test_seed_and_shadowing_overrides(self, tmp_path):
        cfg_file = tmp_path / "scenario.cfg"
        cfg_file.write_text(SMALL_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_a),
                     "--shadowing", "on", "--seed", "1"]) == 0
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_b),
                     "--shadowing", "on", "--seed", "2"]) == 0
        assert (out_a / "sweep.csv").read_bytes() != (out_b / "sweep.csv").read_bytes()


class TestCliParser:
    # argparse's own paths (help and usage errors end in SystemExit), and the
    # one parser that every main call of a process shares.
    @pytest.mark.parametrize("argv", [["--help"], *([c, "--help"] for c in COMMANDS)],
                             ids=["top", *COMMANDS])
    def test_help_exits_0(self, capsys, argv):
        first = _streams(capsys, argv)
        status, out, err = first
        assert status == 0 and out.startswith("usage: cloee") and err == ""
        assert _streams(capsys, argv) == first

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["sweep", "--format", "png"], ["curves", "--format", "png"], ["optimize"],
    ], ids=["no-command", "unknown-command", "sweep-png", "curves-png", "no-distance"])
    def test_usage_error_exits_2(self, capsys, argv):
        first = _streams(capsys, argv)
        status, out, err = first
        assert status == 2 and out == "" and err.startswith("usage: cloee") and "error:" in err
        assert _streams(capsys, argv) == first

    def test_later_calls_build_no_parser(self, tmp_path, capsys, monkeypatch):
        first = _streams(capsys, ["dump-modes"])
        assert first[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(SMALL_CONFIG)
        for argv, status in [
            (["optimize", "--distance", "4.0"], 0),
            (["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")], 0),
            (["curves", "--distance", "6.5", "--out", str(tmp_path / "curves")], 0),
            (["optimize", "--distance", "nan"], 2),     # config-error
            (["optimize"], 2),                          # argparse's SystemExit
        ]:
            assert _streams(capsys, argv)[0] == status
        assert _streams(capsys, ["dump-modes"]) == first
        assert built == []

"""Byte-identity pins: sha256 of outputs that must not move by accident.

Pinned: the default sweep CSV, nine hospital sweep CSVs (three model
variants x three shadowing seeds), and the four files `cloee curves --format
svg` writes (curves.csv, curve_marks.csv, curves_eta.svg, curves_rate.svg) at
2.0, 6.5 and 8.4 m with the default config and at 6.5 m with the hospital
config; the three files `cloee sweep --format svg` writes (sweep.csv,
sweep_eta.svg, sweep_rate.svg) with the default and the hospital config;
`cloee optimize` stdout at 2.0 m (unconstrained) and 8.4 m
(throughput-fallback) with the default config and at 4.273 m with a rate
floor that makes the dual branch print its certificate; the two files
`cloee dump-modes --out` writes; and the repr of every solver result
(six solve_mode results, solve_env and the oracle as helpers.search_env) on
binding inputs under three model variants and three grid sizes.

The pins were computed with Python 3.11, numpy 2.4 and glibc 2.36's libm on
x86-64 Linux.  Another numpy or libm may round a transcendental function
differently in the last bit, which changes a CSV without changing the model;
on such a platform these tests say so first.

A change that alters outputs on purpose (a new formula, or a reordering of
floating-point work) must re-pin every value here and state the largest
relative difference between the old and new CSVs.
"""

import contextlib
import dataclasses
import hashlib
import io

import pytest

from cloee import Scenario, SolverConfig, parse_scenario, rows_to_csv, run_sweep, solve_mode
from cloee.cli import main
from cloee.optimizer import solve_env
from helpers import binding_envs, search_env

# perfbench/scenarios/hospital.conf, the paper's headline scenario.
HOSPITAL = """
qos.r0 = 15e3
qos.n_s = 24
solver.n_t_max = 8190
distances = 1.0:10.0:0.1
strategies = 1:2616, 2:2616, 4:2616, 16:2616, 32:2616
seed = 1
shadowing = on
"""

DEFAULT_SWEEP = "a36b134a09907a6fc40cc357d11cea5cce4336be6a2b8f39e0138471e0904d04"

HOSPITAL_SWEEPS = {
    ("default", 1): "4f81ea5daeac04cf3e42589f55e009a3470c84762693b2bdfaeeaf5a24c6c953",
    ("default", 2): "a2fa4b82982b9e0958b3b25dfd41ee00034fe15a859448bcdd2f156a68dbf107",
    ("default", 3): "7ae0cab0241d5f0bd9450924006a4d979a789cba0e9501d41f27f0540b4faeef",
    ("uniform_section_ber", 1): "0682269f2cdf7cfbb58bffba5b3d88bb98930e2a10164f0ef574f029af96ebf4",
    ("uniform_section_ber", 2): "88ffc5d22417ae8c75dfd108ce87561013b7d8397238d355d19ad06d53bf2747",
    ("uniform_section_ber", 3): "737744837a1da7af937df1bda0a3eb514cd1ab607b2c8488fa40d9d155e91922",
    ("integration_per_pulse", 1): "9d01be67f55ab7b74b4c9de0461012e8639762a32f5fed9d4c5ad64252f542ef",
    ("integration_per_pulse", 2): "858cbc17764e3e28a713415577daad50c9c744c6bce50928ed34eaa7a8d9b578",
    ("integration_per_pulse", 3): "43b5136649df52407275632f72e6ceb684b1b825605077c4ef9c7248a3d07778",
}


def _sha(scenario: Scenario) -> str:
    return hashlib.sha256(rows_to_csv(run_sweep(scenario)).encode()).hexdigest()


def test_default_sweep_csv():
    assert _sha(Scenario()) == DEFAULT_SWEEP


@pytest.mark.parametrize("variant,seed", sorted(HOSPITAL_SWEEPS))
def test_hospital_sweep_csv(variant, seed):
    overrides = {"seed": seed}
    if variant != "default":
        overrides[variant] = True
    scenario = dataclasses.replace(parse_scenario(HOSPITAL), **overrides)
    assert _sha(scenario) == HOSPITAL_SWEEPS[variant, seed]


CURVE_FILES = ("curves.csv", "curve_marks.csv", "curves_eta.svg", "curves_rate.svg")

CURVES = {
    ("default", "2.0"): (
        "3d7a4d016c74f547de8ecc7e655c7ae4fab109e3031ce4513601729592333cc3",
        "d45278c7a513e45a27b584f961df3c696b9d360864a97b65e2a9d2d6d628bc37",
        "5fdda89149ad8d276fa2fb439fe1a8e1eb55c17341e003899a9eefa4b1d1e58c",
        "512ee81110e438c0b5b96ef611428b6835418a3fe4f144dd981ccc825f941e22",
    ),
    ("default", "6.5"): (
        "589749dce57d528ec1e2b47bd630a4d323f7e2f16f37966a41d7309a73bba9b4",
        "41c019480f6a7aced2394fda4aa1ee31637ce97825e1cf0484cb14e88b9d4a61",
        "25d02560960ebc4c78c59a6d7eba75ef30081097bc52f02a794d6960ac77f7c2",
        "5aaad6e5778530ebacd52725007ba2b37c55eb2b477251d3d9a19b50ff69c06b",
    ),
    ("default", "8.4"): (
        "26e42abd3d78114d4f62495e14c68ebd295d9b97dc737085c771b1953096d11c",
        "6d1ccdb932c318abfc98dc06ab5d04f3bf2786fd9f372c379a04fb4c79fc94ee",
        "9a8d528b7b78fa9fb650261d51557ee7e27062f445ddc678523d540eef9d2424",
        "795bd203981a105c3181f3773967220edd452e3d2d9c517b70bff56124b8d1b7",
    ),
    ("hospital", "6.5"): (
        "163f6b4233d9d64edf9d108024842870ae9b9794a3cfda447c4c8a89af1af4d8",
        "6d1ccdb932c318abfc98dc06ab5d04f3bf2786fd9f372c379a04fb4c79fc94ee",
        "99d82964418974f2a2873603463da5f4edf4e899597b1a3c503ccf1a3d2984c5",
        "b8d0799032727eddb5060d40c3d3f52be63404fcda951a0bd2ac27d626279ee6",
    ),
}


@pytest.mark.parametrize("config,distance", sorted(CURVES))
def test_curves_svg(tmp_path, config, distance):
    argv = ["curves", "--distance", distance, "--format", "svg", "--out", str(tmp_path)]
    if config == "hospital":
        conf = tmp_path / "hospital.conf"
        conf.write_text(HOSPITAL)
        argv += ["--config", str(conf)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                    for name in CURVE_FILES)
    assert digests == CURVES[config, distance]


SWEEP_FILES = ("sweep.csv", "sweep_eta.svg", "sweep_rate.svg")

SWEEP_SVG = {
    "default": (
        "a36b134a09907a6fc40cc357d11cea5cce4336be6a2b8f39e0138471e0904d04",
        "8fcdfb5943c607d9bd972ab688ea97a0fc7375bd84aa701920755c1211f67a23",
        "3147fcb6bc6d59844977cb8e79aa26bdd01cc456ca350f8409169572709dcae2",
    ),
    "hospital": (
        "4f81ea5daeac04cf3e42589f55e009a3470c84762693b2bdfaeeaf5a24c6c953",
        "c4e7a30c4121f2f0c115782fad5ac2e20093b14761161b0f4dc8f045620d2571",
        "1a4f51d90a0fe3a754f0cd1c1a29cbf1b3056f39bd2bbd973474d05df75a0b67",
    ),
}


@pytest.mark.parametrize("config", sorted(SWEEP_SVG))
def test_sweep_svg(tmp_path, config):
    out = tmp_path / "out"
    argv = ["sweep", "--format", "svg", "--out", str(out)]
    if config == "hospital":
        conf = tmp_path / "hospital.conf"
        conf.write_text(HOSPITAL)
        argv += ["--config", str(conf)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue().split() == [str(out / name) for name in SWEEP_FILES]
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in SWEEP_FILES)
    assert digests == SWEEP_SVG[config]


OPTIMIZE = {
    ("2.0", ""): "35b2d5b42ccfc5ae92cea0fee63efd9e0d35f68cda9c5597c7b8e250b0f3d36e",
    ("8.4", ""): "e45271301e823e43d244dea322a6bdb18c7ee29eaafeb7a45e279f001db7cc40",
    # Binding rate floor: the dual branch sets lambda, kkt_rate and iterations.
    ("4.273", "qos.r0 = 133703.0\nqos.n_s = 31\n"):
        "6b8dc4be8b4a024beadd6079c05aeb3bf5c1c2d31d7d115b1c58a66df3ee6613",
}


@pytest.mark.parametrize("distance,config", sorted(OPTIMIZE))
def test_optimize_stdout(tmp_path, distance, config):
    argv = ["optimize", "--distance", distance]
    if config:
        conf = tmp_path / "scenario.conf"
        conf.write_text(config)
        argv += ["--config", str(conf)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == OPTIMIZE[distance, config]


DUMP_MODES = {
    "modes.csv": "ee3750d588ace830870322eccc5143e72ba05ce048473e6759063a1d37d2028f",
    "frame_constants.csv": "e98981a716ca92b3902cf547f2d2d0f996e40f62ce1cc144d0277ed0c312679c",
}


def test_dump_modes_files(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["dump-modes", "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DUMP_MODES}
    assert digests == DUMP_MODES


# The first 256 rows of perfbench/data/solve_binding.csv x the three model
# variants x n_t_max in {63, 8190, 63 * 4096}: one line per environment and
# grid size with the repr of its six solve_mode results, solve_env and
# search_env.  Every bit of every field of every branch is pinned.
SOLVER_RESULTS = "45847411d5504412567533729fced842adc8db328360d8a07af6df51d31f3c56"


def test_solver_results():
    cfgs = [SolverConfig(n_t_max=n) for n in (63, 8190, 63 * 4096)]
    digest = hashlib.sha256()
    for env, qos in binding_envs():
        for cfg in cfgs:
            results = [solve_mode(mm, qos, cfg) for mm in env]
            results += [solve_env(env, qos, cfg), search_env(env, qos, cfg)]
            digest.update((repr(results) + "\n").encode())
    assert digest.hexdigest() == SOLVER_RESULTS

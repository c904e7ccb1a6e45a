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

DEFAULT_SWEEP = "906afbe0ec2bd440aeff6f43fc5cb52e74fe1ad234efc7e2a2a29fc1c359b45c"

HOSPITAL_SWEEPS = {
    ("default", 1): "438ed40d8838d956f44603135939580e08d1a411367084618bf41e023a7d1d14",
    ("default", 2): "c4fb40b3fe433b018a47c1a8c5d96b36ba2336dea8a85e5a4cf00d00ad672855",
    ("default", 3): "f96db3d7d6b473614bc9c62856676f9bd3db2c95c5938e8bbffe630b33e46419",
    ("uniform_section_ber", 1): "ae980a0d73e5c4a48b367b6c1e8f0fd9ece2dade7663c0ead644b7b92ff07d91",
    ("uniform_section_ber", 2): "6ae8e4806cae3ba6d4898c80bb5eb47efb72a8c03d3c9673fa1e025675ee6ed5",
    ("uniform_section_ber", 3): "ff90b9a2728a99f7601d41f55913fcd3f75f09e0f82081a071bbad1842127c21",
    ("integration_per_pulse", 1): "e7f7423d8e801ada2e515b29a6890fc803c6e60f3a22c0d4dd421e28710444c9",
    ("integration_per_pulse", 2): "438c8313f22919e0ca2c4fdd38b3943d4c4a40e4e1006d13cca66e92fc59671a",
    ("integration_per_pulse", 3): "2faf0ef3c2686dad2220fd4df36dad7f0722de0fda1e84a439a87eb1f755dbcc",
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
        "053c1ce86c485dbdae0737e949b8d8d23594c4710f1cf6f82c4807ef13ea0338",
        "41c019480f6a7aced2394fda4aa1ee31637ce97825e1cf0484cb14e88b9d4a61",
        "25d02560960ebc4c78c59a6d7eba75ef30081097bc52f02a794d6960ac77f7c2",
        "5aaad6e5778530ebacd52725007ba2b37c55eb2b477251d3d9a19b50ff69c06b",
    ),
    ("default", "8.4"): (
        "4e27de52344a4a2cf9a358d2f763b93065bdda11911778009768e6657b464e21",
        "6d1ccdb932c318abfc98dc06ab5d04f3bf2786fd9f372c379a04fb4c79fc94ee",
        "9a8d528b7b78fa9fb650261d51557ee7e27062f445ddc678523d540eef9d2424",
        "795bd203981a105c3181f3773967220edd452e3d2d9c517b70bff56124b8d1b7",
    ),
    ("hospital", "6.5"): (
        "b1ca6ca58bffa1301cf0c31ada17c1bf92860a4bd6764ee1ed3693d1dd080add",
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
        "906afbe0ec2bd440aeff6f43fc5cb52e74fe1ad234efc7e2a2a29fc1c359b45c",
        "8fcdfb5943c607d9bd972ab688ea97a0fc7375bd84aa701920755c1211f67a23",
        "3147fcb6bc6d59844977cb8e79aa26bdd01cc456ca350f8409169572709dcae2",
    ),
    "hospital": (
        "438ed40d8838d956f44603135939580e08d1a411367084618bf41e023a7d1d14",
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
        "d972664ee5898e2ee35a69d97edbdb063bd01d16b6072563ae3c1574aee38921",
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
SOLVER_RESULTS = "4d206ec0fcc62acc3789cfb5d7420991de455f25cfeab508971b017e6c24e3a2"


def test_solver_results():
    cfgs = [SolverConfig(n_t_max=n) for n in (63, 8190, 63 * 4096)]
    digest = hashlib.sha256()
    for env, qos in binding_envs():
        for cfg in cfgs:
            results = [solve_mode(mm, qos, cfg) for mm in env]
            results += [solve_env(env, qos, cfg), search_env(env, qos, cfg)]
            digest.update((repr(results) + "\n").encode())
    assert digest.hexdigest() == SOLVER_RESULTS

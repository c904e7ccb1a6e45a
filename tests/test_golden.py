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
an x86-64 CPU where numpy's exp takes its AVX-512 path.  They depend on
numpy's exp, whose dispatch can differ in the last bit across CPUs (ROADMAP
item 2), and on libm.  The shadowed hospital pins also depend on Python's
random.Random(seed).random() sequence, which Python keeps across versions,
and on statistics.NormalDist.inv_cdf, which takes libm's log and sqrt; no
draw comes from numpy.  Another platform may round a transcendental function
differently in the last bit, which changes a CSV without changing the model;
on such a platform these tests say so first.

Beside the byte pins, decision digests hash only what the solver decided:
each sweep row's (distance, strategy, n_cpb, n_t, feasible, branch) for the
default and the nine hospital sweeps, and each solver result's (n_t_star,
n_cpb_star, feasible, branch, nee, nthr).  A last-bit change of a float moves
a byte pin and leaves its decision digest, as numpy's exp without its
AVX-512 path does on the hospital sweeps (a subprocess test checks it).

A change that alters outputs on purpose (a new formula, or a reordering of
floating-point work) must re-pin every byte pin that moves and state the
largest relative difference between the old and new CSVs; a decision digest
it moves needs its own account of the rows that moved and why.
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cloee import Scenario, SolverConfig, parse_scenario, rows_to_csv, run_sweep, solve_mode
from cloee.cli import main
from cloee.optimizer import solve_env
from helpers import binding_envs, search_env

TESTS = Path(__file__).resolve().parent

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
    ("default", 1): "e72847ababf2a8ad0356e19470ce0379846d48145dfb71995995cbbcdd227b4f",
    ("default", 2): "69152e8ebec03257ea150c1eaf2b1ff926b21a112138253163c9ad1d0de41a8e",
    ("default", 3): "9bcde056d985a2217a5b136bf29113d377f42f0c7e8a8c41306094a115d6f08a",
    ("uniform_section_ber", 1): "0925258827119f46e7e4174337c00953cf3c3c13147028f2ddb8d6bf632eb009",
    ("uniform_section_ber", 2): "89f07c5f709fb2d3872d14a8aef5d0cd16f8a547112c5fc51b98d9b6478fc69e",
    ("uniform_section_ber", 3): "9f729a8ab35b6220a85590edbdffc369edd291efc2c29265e6423a603281e404",
    ("integration_per_pulse", 1): "400850de6f0e40c4a2fe008bf683a220dd3c443c0c86df8e96172f7527453df8",
    ("integration_per_pulse", 2): "826f9ed919f31d4c6e3c6be3cf8f575daddd67f9214da5d746aa4b4ae29e3c9a",
    ("integration_per_pulse", 3): "6c884b159240fdae672b68e46c11512fcbcd73acd8f9f78ecf9764317e996b97",
}


# The decisions of the same sweeps: a sha256 over each row's (distance,
# strategy, n_cpb, n_t, feasible, branch), which a change of the last bit of
# eta, rate or p_ppdu leaves alone.
DEFAULT_DECISIONS = "cd947ac7e06d83c5ac0d5994f0809e011eed265a8da279e5b0bce8c82b0308d6"

HOSPITAL_DECISIONS = {
    ("default", 1): "9d27b67065410e1f4e55f4878fca1d8c02660c0263e13d777037afe3508bd11c",
    ("default", 2): "cb42a7f751700fb9d6dfe66bc1c6c3d16f5fce8cf2c2915865f79da5e9b57931",
    ("default", 3): "89aec282d0021ee5a6bba95e2db2f67aec01dac123b099029ffc90fa1524fdd7",
    ("uniform_section_ber", 1): "a98c362b6f333598c4175eda506ba80d438921114e5ddc8e9eff8ae095ba4b81",
    ("uniform_section_ber", 2): "82b896ef6da8a7416fc66629ebad697a1b5461e1e26846c43b9d504d6e62d309",
    ("uniform_section_ber", 3): "7639e11caca10919ccf0c54ff9b69b6555c91a93d8ffa4576243d0d76ce073d5",
    ("integration_per_pulse", 1): "7b15df68fa18c7fb954969e54603cd9b0220ef96b6d7ce921320a6342bc002af",
    ("integration_per_pulse", 2): "45fd743563989449ae311884af6414269830f4c747a7b4cdb1dca36d7cb21d1b",
    ("integration_per_pulse", 3): "329f32305b04d2a3563a746f5583b3d989902c003f036c968f027be6da54fbdf",
}


def _sha(scenario: Scenario) -> str:
    return hashlib.sha256(rows_to_csv(run_sweep(scenario)).encode()).hexdigest()


def decision_sha(decisions) -> str:
    """sha256 over one line per decision, its fields' str()s joined by commas."""
    return hashlib.sha256("".join(",".join(map(str, d)) + "\n" for d in decisions)
                          .encode()).hexdigest()


def sweep_decisions(scenario: Scenario) -> str:
    return decision_sha((r.distance, r.strategy, r.n_cpb, r.n_t, r.feasible, r.branch)
                        for r in run_sweep(scenario))


def hospital(variant: str, seed: int) -> Scenario:
    overrides = {"seed": seed}
    if variant != "default":
        overrides[variant] = True
    return dataclasses.replace(parse_scenario(HOSPITAL), **overrides)


def test_default_sweep_csv():
    assert _sha(Scenario()) == DEFAULT_SWEEP


def test_default_sweep_decisions():
    assert sweep_decisions(Scenario()) == DEFAULT_DECISIONS


@pytest.mark.parametrize("variant,seed", sorted(HOSPITAL_SWEEPS))
def test_hospital_sweep_csv(variant, seed):
    assert _sha(hospital(variant, seed)) == HOSPITAL_SWEEPS[variant, seed]


@pytest.mark.parametrize("variant,seed", sorted(HOSPITAL_DECISIONS))
def test_hospital_sweep_decisions(variant, seed):
    assert sweep_decisions(hospital(variant, seed)) == HOSPITAL_DECISIONS[variant, seed]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="numpy 1.x has no numpy._core.__cpu_features__")
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86-64 AVX-512 ones")
def test_hospital_sweep_decisions_without_avx512_dispatch():
    # numpy's exp may round differently in the last bit without its AVX-512
    # path, which moves the byte pins above but must move no decision.  The
    # child fails if numpy ignored the disabled feature names.
    child = ("from numpy._core._multiarray_umath import __cpu_features__\n"
             "assert __cpu_features__['AVX512_SKX'] is False\n"
             "import test_golden as g\n"
             "print([key for key, sha in sorted(g.HOSPITAL_DECISIONS.items())\n"
             "       if g.sweep_decisions(g.hospital(*key)) != sha])\n")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4",
           "PYTHONPATH": os.pathsep.join((str(TESTS), str(TESTS.parent / "src")))}
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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
        "c58f65bc5156753ebb0e08e6f7211155934ebc93a81757e00b74aff549f263a5",
        "e531d2cfa33d4a43e70f39096baf46c059fd23e8916822c0a5c7e6b3fc95bb21",
        "ed403be84d34bdf4790765a0389996db772192e4a9a966ad3955847141ff0669",
        "45dd504fcb217ea87555cf3e0f770acdce3e24b8beb0059cbb6d7d91b621b62e",
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
        "e72847ababf2a8ad0356e19470ce0379846d48145dfb71995995cbbcdd227b4f",
        "02f481b6701e415c61dc84396d0b0c7c89ea3790a3bbdfac3b6fc62853c777b5",
        "61a12cf2c0764069e2f19343a056f818668cba38747c84ecbc03e2592e9f094d",
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
# Their decisions: each result's (n_t_star, n_cpb_star, feasible, branch,
# nee, nthr), one line per result in the same order.
SOLVER_DECISIONS = "b64512a1c987a97e93bac492c6dcbc7407d7b92f247464529e738d9a69ef235e"


@functools.cache
def solver_results() -> tuple[list, ...]:
    """One list per environment and grid size: its six solve_mode results,
    solve_env and search_env (computed once for both pins below)."""
    cfgs = [SolverConfig(n_t_max=n) for n in (63, 8190, 63 * 4096)]
    return tuple([*(solve_mode(mm, qos, cfg) for mm in env), solve_env(env, qos, cfg),
                  search_env(env, qos, cfg)]
                 for env, qos in binding_envs() for cfg in cfgs)


def test_solver_results():
    digest = hashlib.sha256()
    for results in solver_results():
        digest.update((repr(results) + "\n").encode())
    assert digest.hexdigest() == SOLVER_RESULTS


def test_solver_decisions():
    assert decision_sha((r.n_t_star, r.n_cpb_star, r.feasible, r.branch, r.nee, r.nthr)
                        for results in solver_results() for r in results) == SOLVER_DECISIONS

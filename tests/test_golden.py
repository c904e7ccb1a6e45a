"""Byte-identity pins: sha256 of sweep CSVs that must not move by accident.

The pins were computed with Python 3.11, numpy 2.4 and glibc 2.36's libm on
x86-64 Linux.  Another numpy or libm may round a transcendental function
differently in the last bit, which changes a CSV without changing the model;
on such a platform these tests say so first.

A change that alters outputs on purpose (a new formula, or a reordering of
floating-point work) must re-pin every value here and state the largest
relative difference between the old and new CSVs.
"""

import dataclasses
import hashlib

import pytest

from cloee import Scenario, parse_scenario, rows_to_csv, run_sweep

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

import pytest
from hypothesis import HealthCheck, settings

from cloee import LinkModel, QosSpec, SolverConfig

settings.register_profile(
    "suite", max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def model() -> LinkModel:
    return LinkModel()


@pytest.fixture(scope="session")
def qos() -> QosSpec:
    return QosSpec()


@pytest.fixture(scope="session")
def cfg() -> SolverConfig:
    return SolverConfig()

import faulthandler
import os

import pytest
from hypothesis import HealthCheck, settings

from cloee import LinkModel, QosSpec, SolverConfig

settings.register_profile(
    "suite", max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# A test still running after this many seconds has hung: the whole suite
# takes well under a minute.
HANG_LIMIT_S = 300
_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # fd 2 is the capture file while a test runs, and a hard exit never
    # prints it: keep a dup of the real stderr, taken while capture is off.
    config.stash[_STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.fixture(autouse=True)
def hang_guard(request):
    """End the run with exit status 1 and every thread's traceback on the
    real stderr when a test hangs, instead of running until an outer
    timeout."""
    faulthandler.dump_traceback_later(HANG_LIMIT_S, exit=True,
                                      file=request.config.stash[_STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def model() -> LinkModel:
    return LinkModel()


@pytest.fixture(scope="session")
def qos() -> QosSpec:
    return QosSpec()


@pytest.fixture(scope="session")
def cfg() -> SolverConfig:
    return SolverConfig()

"""Session-wide fixtures: each kernel table is built once per test run."""

import pytest

import cavlab.gaschart as gc
from cavlab import kernelengine as ke


@pytest.fixture(scope="session")
def regular():
    return ke.build_kernel("regular", gc.GasChart())


@pytest.fixture(scope="session")
def singular():
    return ke.build_kernel("singular", gc.GasChart())

"""Session-wide fixtures: each kernel table is built once per test run,
and a table can be saved with some of its contents replaced."""

import dataclasses
from types import SimpleNamespace

import pytest

import cavlab.gaschart as gc
from cavlab import kernelengine as ke


@pytest.fixture(scope="session")
def regular():
    return ke.build_kernel("regular", gc.GasChart())


@pytest.fixture(scope="session")
def singular():
    return ke.build_kernel("singular", gc.GasChart())


@pytest.fixture(scope="session")
def save_altered():
    """save_altered(tr, path, **changes) saves tr's table to path, well
    formed byte for byte, with the coefficient table's `columns` or
    `nu_grid`, or the `xi_grid`, replaced: contents that
    `KernelTransform` itself would not accept."""
    def save(tr, path, **changes):
        xi_grid = changes.pop("xi_grid", tr.xi_grid)
        table = SimpleNamespace(
            kind=tr.kind, coeffs=dataclasses.replace(tr.coeffs, **changes),
            xi_grid=xi_grid, ghat=tr.ghat, ghat_nu=tr.ghat_nu,
            ghat_xi=tr.ghat_xi, ghat_nuxi=tr.ghat_nuxi)
        ke.KernelTransform.save(table, str(path))
    return save

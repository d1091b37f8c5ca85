"""Session-wide fixtures: each kernel table is built once per test run,
and a table can be saved with some of its contents replaced or
corrupted."""

import dataclasses
import struct
from types import SimpleNamespace

import numpy as np
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
    formed byte for byte, with the coefficient table's `columns`,
    `nu_grid` or `calibration`, the `xi_grid`, or a remainder table
    (`ghat`, `ghat_nu`, `ghat_xi`, `ghat_nuxi`) replaced: contents that
    `KernelTransform` itself would not accept."""
    def save(tr, path, **changes):
        tables = {name: changes.pop(name, getattr(tr, name)) for name in (
            "xi_grid", "ghat", "ghat_nu", "ghat_xi", "ghat_nuxi")}
        table = SimpleNamespace(
            kind=tr.kind, coeffs=dataclasses.replace(tr.coeffs, **changes),
            **tables)
        ke.KernelTransform.save(table, str(path))
    return save


# (byte offset, new value from the old) of the header doubles that
# `save_corrupted` rewrites: nu_star at byte 15, the normalization at 23
_HEADER_CHANGES = {
    "header nu_star 0.2": (15, lambda old: 0.2),
    "header nu_star 5e-8": (15, lambda old: 5e-8),
    "normalization 1 ulp off": (23, lambda old: np.nextafter(old, np.inf)),
}


@pytest.fixture(scope="session")
def save_corrupted(save_altered):
    """save_corrupted(tr, path, change) saves tr's table to path, well
    formed byte for byte, with one named corruption: a value that is not
    finite in a remainder table or a column, or a header double that
    disagrees with the body."""
    def replaced(table, index, value):
        table = table.copy()
        table[index] = value
        return table

    def save(tr, path, change):
        if change in _HEADER_CHANGES:
            offset, new = _HEADER_CHANGES[change]
            tr.save(str(path))
            data = bytearray(path.read_bytes())
            old, = struct.unpack_from("<d", data, offset)
            struct.pack_into("<d", data, offset, new(old))
            path.write_bytes(bytes(data))
            return
        middle = (len(tr.coeffs.nu_grid) // 2, len(tr.xi_grid) // 2)
        cols = tr.coeffs.columns
        save_altered(tr, path, **{
            "nan in ghat": {"ghat": replaced(tr.ghat, middle, np.nan)},
            "nan last in ghat_nuxi": {
                "ghat_nuxi": replaced(tr.ghat_nuxi, (-1, -1), np.nan)},
            "inf last in ghat_nu": {
                "ghat_nu": replaced(tr.ghat_nu, (-1, -1), np.inf)},
            "nan in alpha0": {"columns": {
                **cols, "alpha0": replaced(cols["alpha0"], middle[0],
                                           np.nan)}},
        }[change])
    return save

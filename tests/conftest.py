"""Session-wide fixtures: each kernel table is built once per test run,
and a table can be saved with some of its contents replaced, or with its
file's bytes corrupted."""

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
    formed byte for byte, with the coefficient table's `columns` (the
    kind's columns are written, and only those), `nu_grid` or
    `calibration`, the `xi_grid`, or a remainder table (`ghat`,
    `ghat_nu`, `ghat_xi`, `ghat_nuxi`) replaced: contents that
    `KernelTransform` itself would not accept."""
    def save(tr, path, **changes):
        tables = {name: changes.pop(name, getattr(tr, name)) for name in (
            "xi_grid", "ghat", "ghat_nu", "ghat_xi", "ghat_nuxi")}
        table = SimpleNamespace(
            kind=tr.kind, coeffs=dataclasses.replace(tr.coeffs, **changes),
            **tables)
        ke.KernelTransform.save(table, str(path))
    return save


def _arrays(tr):
    """(name, start byte, length in bytes) of each array of tr's `.cavk`
    file, in file order after the prefix."""
    n_nu, n_xi = len(tr.coeffs.nu_grid), len(tr.xi_grid)
    sizes = [("nu grid", n_nu), ("xi grid", n_xi)]
    sizes += [(f"column {name}", n_nu)
              for name, _, _ in ke._table_columns(ke.KINDS[tr.kind])]
    sizes += [(f"remainder {name}", n_nu * n_xi) for name in ke._REMAINDERS]
    out, start = [], ke._PREFIX.size
    for name, n in sizes:
        out.append((name, start, 8 * n))
        start += 8 * n
    return out


def _byte_changes(tr):
    """Corruptions of the bytes of tr's saved file, each name -> a
    function of the file's bytes: a cut, padding, a changed prefix
    field and one flipped byte in the middle of each array."""
    def cut(n):
        return lambda data: data[:n]

    def put(offset, fmt, value):
        def change(data):
            data = bytearray(data)
            struct.pack_into(fmt, data, offset, value)
            return bytes(data)
        return change

    def flip(offset):
        def change(data):
            data = bytearray(data)
            data[offset] ^= 0x10
            return bytes(data)
        return change
    changes = {
        "truncated in the prefix": cut(10),
        "truncated in the body": cut(-8),
        "padded by 3 bytes": lambda data: data + b"\0\0\0",
        "n_nu 2**31": put(7, "<I", 2 ** 31),
        "version 2": put(5, "<B", 2),
        "kind byte 2": put(6, "<B", 2),
        "flipped byte in calibration": flip(20),
        "flipped byte in CRC-32": flip(-2),
    }
    changes.update({f"flipped byte in {name}": flip(start + size // 2)
                    for name, start, size in _arrays(tr)})
    return changes


@pytest.fixture(scope="session")
def save_corrupted(save_altered):
    """save_corrupted(tr, path, change) saves tr's table to path with one
    named corruption: of the file's bytes (`_byte_changes`), or of its
    contents, well formed byte for byte, by a value that is not finite in
    a remainder table or a column."""
    def replaced(table, index, value):
        table = table.copy()
        table[index] = value
        return table

    def save(tr, path, change):
        byte_changes = _byte_changes(tr)
        if change in byte_changes:
            tr.save(str(path))
            path.write_bytes(byte_changes[change](path.read_bytes()))
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


@pytest.fixture(scope="session")
def byte_changes():
    """byte_changes(tr): the names of the byte corruptions of tr's file
    that save_corrupted makes."""
    return lambda tr: list(_byte_changes(tr))

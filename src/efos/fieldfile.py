"""Binary field files (EFOF): a minimal exchange format for grid fields.

Layout, all little-endian:

    bytes 0-3   magic "EFOF"
    u32         version (currently 1)
    u32         n, number of grid axes
    u32         C, number of field components
    u32 * n     points per axis (must all agree)
    u64         payload length in bytes
    f64 * ...   values, component index slowest, then grid axes in
                row-major order (axis 1 slowest)

The period length is not stored; readers supply it (default 1.0).
Payloads must be finite.  Every CSV report is written by ``write_csv``.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .grid import GridFunction, PeriodicGrid

__all__ = ["MAGIC", "VERSION", "write_field", "read_field", "NonFiniteError", "check_finite", "write_csv"]

MAGIC = b"EFOF"
VERSION = 1


def write_field(path, u: GridFunction) -> None:
    """Write a grid function to ``path`` in the EFOF layout."""
    check_finite(u.values, "field payload")
    grid = u.grid
    payload = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    header = struct.pack("<4sIII", MAGIC, VERSION, grid.n, u.components)
    header += struct.pack(f"<{grid.n}I", *([grid.G] * grid.n))
    header += struct.pack("<Q", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_field(path, L: float = 1.0) -> GridFunction:
    """Read an EFOF file back into a grid function on a torus of period L."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise ValueError("field file too short for a header")
    magic, version, n, components = struct.unpack_from("<4sIII", data, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise ValueError(f"unsupported field file version {version}")
    offset = 16
    if len(data) < offset + 4 * n + 8:
        raise ValueError("field file truncated in header")
    sizes = struct.unpack_from(f"<{n}I", data, offset)
    offset += 4 * n
    (payload_len,) = struct.unpack_from("<Q", data, offset)
    offset += 8
    if len(set(sizes)) != 1:
        raise ValueError(f"per-axis sizes must agree, got {sizes}")
    G = sizes[0]
    expected = components * G**n * 8
    if payload_len != expected:
        raise ValueError(f"payload length {payload_len} != expected {expected}")
    if len(data) - offset < payload_len:
        raise ValueError("field file truncated in payload")
    grid = PeriodicGrid(n=n, G=G, L=L)
    values = np.frombuffer(data, dtype="<f8", count=components * G**n, offset=offset)
    values = values.reshape((components,) + grid.shape)
    check_finite(values, "field payload")
    return GridFunction(grid, values.copy())


class NonFiniteError(ValueError):
    """Values are NaN or infinite; ``where`` names the first (component,
    grid index) that is."""

    def __init__(self, what: str, where: str):
        super().__init__(f"{what} is not finite at {where}")
        self.where = where


def check_finite(values: np.ndarray, what: str) -> None:
    """Raise NonFiniteError naming the first (component, grid index) of
    ``values``, shape (C, ...), that is NaN or infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        component, *index = (int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise NonFiniteError(what, f"component {component}, grid index {tuple(index)}")


def _cell(value) -> str:
    # str, not the csv module's repr: repr(np.float64(x)) is "np.float64(x)"
    if isinstance(value, np.ndarray):
        return " ".join(str(float(v)) for v in value.ravel())
    return str(value)


def write_csv(path, columns, rows) -> None:
    """Write a CSV report: the header ``columns``, then ``rows``, each line
    ending in "\n".  A cell is ``str`` of its value (the round-trip repr for
    a float), an array its floats joined by spaces; cells holding a comma
    or a quote are quoted."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([_cell(v) for v in row] for row in [columns, *rows])

"""Shared builders for the test suite."""

import struct
from pathlib import Path

import numpy as np

from efos.grid import GridFunction, PeriodicGrid


def single_mode_rhs(grid: PeriodicGrid, components: int, component: int = 0, axis: int = 0):
    """amplitude-1 sine along one axis in one component; mean-zero and band-limited."""
    x = grid.points()
    values = np.zeros((components,) + grid.shape)
    values[component] = np.sin(2.0 * np.pi * x[axis] / grid.L)
    return GridFunction(grid, values)


def dirac_closed_form(grid: PeriodicGrid):
    """The solution of the 3-D Dirac system for f = sin(2 pi x1) e1."""
    x = grid.points()
    values = np.zeros((4,) + grid.shape)
    values[0] = -np.cos(2.0 * np.pi * x[0]) / (2.0 * np.pi)
    return GridFunction(grid, values)


def poke_payload(path, shape, index, value):
    """Overwrite one f64 of an EFOF file's payload; shape is (C, G, ..., G).

    Builds files that write_field refuses to write, such as NaN payloads.
    """
    raw = bytearray(Path(path).read_bytes())
    offset = 16 + 4 * (len(shape) - 1) + 8 + 8 * int(np.ravel_multi_index(index, shape))
    struct.pack_into("<d", raw, offset, value)
    Path(path).write_bytes(bytes(raw))

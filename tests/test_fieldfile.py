"""Binary field format: layout is frozen, corruption is rejected."""

import struct

import numpy as np
import pytest

from efos.fieldfile import read_field, write_field
from efos.grid import GridFunction, PeriodicGrid
from efos.sampling import rng_from_seed

from helpers import poke_payload


def test_round_trip_bit_exact(tmp_path):
    grid = PeriodicGrid(n=3, G=6, L=2.0)
    u = GridFunction(grid, rng_from_seed(0).standard_normal((4,) + grid.shape))
    p = tmp_path / "u.efof"
    write_field(p, u)
    v = read_field(p, L=2.0)
    assert np.array_equal(u.values, v.values)
    assert v.grid == grid


def test_header_layout_frozen(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    vals = np.arange(32, dtype=float).reshape(2, 4, 4)
    p = tmp_path / "u.efof"
    write_field(p, GridFunction(grid, vals))
    raw = p.read_bytes()
    magic, version, n, C = struct.unpack_from("<4sIII", raw, 0)
    assert magic == b"EFOF"
    assert version == 1
    assert (n, C) == (2, 2)
    sizes = struct.unpack_from("<2I", raw, 16)
    assert sizes == (4, 4)
    (payload,) = struct.unpack_from("<Q", raw, 24)
    assert payload == 32 * 8
    assert len(raw) == 32 + payload
    # component slowest, then row-major axes
    data = np.frombuffer(raw, dtype="<f8", offset=32)
    assert np.array_equal(data, vals.ravel(order="C"))


def test_read_applies_period_length(tmp_path):
    grid = PeriodicGrid(n=2, G=8, L=5.0)
    u = GridFunction(grid, np.ones((1,) + grid.shape))
    p = tmp_path / "u.efof"
    write_field(p, u)
    assert read_field(p, L=5.0).grid.L == 5.0
    assert read_field(p).grid.L == 1.0  # the file does not carry L


def test_bad_magic_rejected(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    p = tmp_path / "u.efof"
    write_field(p, GridFunction.zeros(grid, 1))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"JUNK"
    bad = tmp_path / "bad.efof"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_field(bad)


def test_bad_version_rejected(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    p = tmp_path / "u.efof"
    write_field(p, GridFunction.zeros(grid, 1))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 4, 999)
    bad = tmp_path / "bad.efof"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_field(bad)


def test_truncated_payload_rejected(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    p = tmp_path / "u.efof"
    write_field(p, GridFunction.zeros(grid, 2))
    raw = p.read_bytes()
    bad = tmp_path / "bad.efof"
    bad.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        read_field(bad)


def test_anisotropic_sizes_rejected(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    p = tmp_path / "u.efof"
    write_field(p, GridFunction.zeros(grid, 1))
    raw = bytearray(p.read_bytes())
    struct.pack_into("<I", raw, 16, 8)  # first axis no longer matches
    bad = tmp_path / "bad.efof"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_field(bad)


def test_non_finite_payload_rejected_with_witness(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    shape = (2,) + grid.shape
    p = tmp_path / "u.efof"
    write_field(p, GridFunction(grid, np.zeros(shape)))
    poke_payload(p, shape, (1, 3, 0), np.inf)
    poke_payload(p, shape, (1, 2, 3), np.nan)  # first in file order
    with pytest.raises(ValueError, match=r"not finite at component 1, grid index \(2, 3\)"):
        read_field(p)


def test_non_finite_payload_not_written(tmp_path):
    grid = PeriodicGrid(n=2, G=4)
    vals = np.zeros((2,) + grid.shape)
    vals[1, 3, 0] = np.inf
    vals[1, 2, 3] = np.nan  # first in file order
    p = tmp_path / "u.efof"
    with pytest.raises(ValueError, match=r"not finite at component 1, grid index \(2, 3\)"):
        write_field(p, GridFunction(grid, vals))
    assert not p.exists()

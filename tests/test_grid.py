"""Torus grids, the spectral core's DFT convention, spectral gradients, and norms."""

import math
import re
import warnings

import numpy as np
import pytest

from efos.grid import (
    GridFunction,
    PeriodicGrid,
    conjugate_exponent,
    gradient,
    norm_l2,
    norm_l2star,
    norm_vector,
    random_band_limited,
    spectral_core,
)
from efos.oracle import _dense_derivative_matrices
from efos.sampling import rng_from_seed


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid(n=3, G=7)  # odd
    with pytest.raises(ValueError):
        PeriodicGrid(n=3, G=2)  # too small
    with pytest.raises(ValueError):
        PeriodicGrid(n=1, G=8)
    with pytest.raises(ValueError):
        PeriodicGrid(n=5, G=8)
    with pytest.raises(ValueError):
        PeriodicGrid(n=2, G=8, L=0.0)


@pytest.mark.parametrize(
    "n, G, L",
    [(3, 8, 1e300), (2, 8, 1e160), (4, 8, 1e100), (3, 8, 1e-150), (3, 8, 1e-102), (3, 8, 1e-320)],
    ids=["L**n-overflows", "L**n-overflows-n2", "L**n-overflows-n4", "L**n-underflows", "(L/G)**n-subnormal",
         "L-subnormal"],
)
def test_grid_refuses_a_period_whose_tables_leave_the_normal_floats(n, G, L):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"period L={L} is out of range for n={n}, G={G}")):
            PeriodicGrid(n=n, G=G, L=L)


@pytest.mark.parametrize("n, L", [(3, 1e100), (3, 1e-100), (4, 1e-70), (2, 1e150)])
def test_grid_keeps_a_period_whose_tables_stay_normal(n, L):
    assert PeriodicGrid(n=n, G=8, L=L).L == L


def test_frequency_layout_matches_fft_convention():
    grid = PeriodicGrid(n=2, G=8)
    idx = grid.axis_freq_indices()
    np.testing.assert_array_equal(idx, np.fft.fftfreq(8, d=1 / 8).astype(int))
    assert idx.min() == -4 and idx.max() == 3


def test_forward_dft_of_pure_mode_is_unit_impulse():
    grid = PeriodicGrid(n=2, G=16)
    x = grid.points()
    spec = spectral_core(grid).forward(np.cos(2 * np.pi * (2 * x[0] + x[1]))[None])
    # cos splits into two conjugate impulses of weight 1/2; the half
    # spectrum stores (2, 1), and its partner (-2, -1) is implied
    assert spec.shape == (1, 16, 9)
    assert abs(spec[0, 2, 1] - 0.5) < 1e-12
    rest = np.abs(spec[0])
    rest[2, 1] = 0.0
    assert rest.max() < 1e-12


def test_dft_roundtrip():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(0)
    values = rng.standard_normal((2,) + grid.shape)
    core = spectral_core(grid)
    np.testing.assert_allclose(core.inverse(core.forward(values)), values, atol=1e-12)


def test_gradient_of_single_mode_exact():
    grid = PeriodicGrid(n=2, G=32)
    x = grid.points()
    u = GridFunction(grid, np.sin(2 * np.pi * x[0])[None])
    Du = gradient(u)
    np.testing.assert_allclose(Du.values[0], 2 * np.pi * np.cos(2 * np.pi * x[0]), atol=1e-11)
    np.testing.assert_allclose(Du.values[1], 0.0, atol=1e-12)


def test_gradient_length_scaling():
    # halving L doubles frequencies z = k/L, hence doubles the gradient
    for L, expect in ((1.0, 2 * np.pi), (0.5, 4 * np.pi)):
        grid = PeriodicGrid(n=2, G=16, L=L)
        x = grid.points()
        u = GridFunction(grid, np.sin(2 * np.pi * x[0] / L)[None])
        Du = gradient(u)
        assert abs(np.max(Du.values[0]) - expect) < 1e-9


def test_gradient_kills_nyquist_mode():
    # the checkerboard sits on the self-conjugate half-spectrum entry [4, 0],
    # whose derivative irfftn would discard anyway; (-1)^i cos(2 pi x2) sits
    # on [4, 1], which is not self-conjugate
    grid = PeriodicGrid(n=2, G=8)
    sign = ((-1.0) ** np.arange(8))[:, None]
    x2 = grid.points()[1]
    for u in (sign * np.ones((8, 8)), sign * np.cos(2 * np.pi * x2)):
        Du = gradient(GridFunction(grid, u[None]))
        np.testing.assert_allclose(Du.values, 0.0, atol=1e-12)


@pytest.mark.parametrize("n, G", [(2, 16), (3, 8), (4, 6)])
def test_gradient_matches_full_spectrum_reference(n, G):
    # white noise has content on every Nyquist plane, the last axis's included;
    # the oracle's matrices are built from explicit exponentials, not an FFT
    grid = PeriodicGrid(n=n, G=G, L=0.7)
    u = GridFunction(grid, rng_from_seed(n).standard_normal((2,) + grid.shape))
    D = _dense_derivative_matrices(grid)  # (n, G^n, G^n)
    flat = u.values.reshape(2, -1)
    ref = np.einsum("jxy,ay->ajx", D, flat).reshape((2, n) + grid.shape)
    Du = gradient(u).as_gradient(2)
    np.testing.assert_allclose(Du, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_gradient_component_order():
    # N = 2 components on n = 2: rows are (u1_x1, u1_x2, u2_x1, u2_x2)
    grid = PeriodicGrid(n=2, G=16)
    x = grid.points()
    vals = np.stack([np.sin(2 * np.pi * x[0]), np.sin(2 * np.pi * x[1])])
    Du = gradient(GridFunction(grid, vals))
    assert Du.components == 4
    np.testing.assert_allclose(Du.values[1], 0.0, atol=1e-12)
    np.testing.assert_allclose(Du.values[2], 0.0, atol=1e-12)
    D = Du.as_gradient(2)
    assert D.shape == (2, 2) + grid.shape


def test_norm_l2_constant_field():
    grid = PeriodicGrid(n=3, G=8, L=2.0)
    u = GridFunction(grid, np.full((1,) + grid.shape, 5.0))
    # integral of 25 over [0,2)^3 is 200
    assert abs(norm_l2(u) - np.sqrt(200.0)) < 1e-12


@pytest.mark.parametrize("n,G", [(2, 16), (3, 8), (4, 6)])
def test_spectral_norms_split_plancherel(n, G):
    # retained, Nyquist and mean parts of the half spectrum add up to the
    # physical L2 norm only with the weight counting each stored entry's
    # conjugate partner
    grid = PeriodicGrid(n=n, G=G, L=2.0)
    core = spectral_core(grid)
    u = GridFunction(grid, rng_from_seed(n).standard_normal((3,) + grid.shape) + 0.4)
    R = core.forward(u.values)
    retained, nyquist = core.norms(R)
    mean = np.sqrt(grid.L**n) * np.linalg.norm(R[core.zero])
    assert nyquist > 0.1 * retained
    assert math.hypot(retained, nyquist, mean) == pytest.approx(norm_l2(u), rel=1e-14)


@pytest.mark.parametrize("k", range(-100, 101, 25))
def test_spectral_norms_scale_with_the_volume_outside_the_sums(k):
    # the weight holds no power of L, so no power of L leaves the floats inside the sums
    grid, unit = PeriodicGrid(n=3, G=8, L=10.0**k), PeriodicGrid(n=3, G=8)
    R = spectral_core(unit).forward(rng_from_seed(3).standard_normal((2,) + unit.shape))
    for got, want in zip(spectral_core(grid).norms(R), spectral_core(unit).norms(R)):
        assert got == pytest.approx(math.sqrt(grid.L**3) * want, rel=1e-15)


@pytest.mark.parametrize("C", [1, 4, 9])
@pytest.mark.parametrize("n,G", [(2, 16), (3, 8), (4, 6)])
def test_spectral_norms_add_rows_in_order(n, G, C):
    # numpy sums the first axis of an array with three axes or more one row
    # at a time, in row order; norms relies on that to give the same bits as
    # an explicit row loop, and so keeps every Picard trace to the last bit
    grid = PeriodicGrid(n=n, G=G, L=2.0)
    core = spectral_core(grid)
    scales = np.logspace(0, 4, C).reshape((C,) + (1,) * n)  # rows of unlike size, so their order shows
    R = core.forward(scales * rng_from_seed(10 * n + C).standard_normal((C,) + grid.shape))
    power = np.zeros(core.zmag.shape)
    for row in R:
        power += row.real**2 + row.imag**2
    power *= core.weight
    want = tuple(core.sqrt_volume * math.sqrt(power[modes].sum()) for modes in (core.retained, core.nyquist))
    assert core.norms(R) == want


@pytest.mark.parametrize("rows", [(), (2,), (0, 3), (0, 1, 2, 3)], ids=["none", "one", "two", "all"])
@pytest.mark.parametrize("n,G", [(2, 16), (3, 8), (4, 6)])
def test_row_restricted_norms_are_bit_identical(n, G, rows):
    # the Picard step squares only Phi's rows: the others hold +0.0 on the
    # retained modes, which leaves the row-order sums unchanged, and every
    # row's Nyquist entries are read through the flat index
    grid = PeriodicGrid(n=n, G=G, L=2.0)
    core = spectral_core(grid)
    scales = np.logspace(0, 3, 4).reshape((4,) + (1,) * n)
    R = core.forward(scales * rng_from_seed(n).standard_normal((4,) + grid.shape) + 0.4)
    off = [a for a in range(4) if a not in rows]
    R[off] = np.where(core.retained, 0.0, R[off])
    assert core.norms(R, rows) == core.norms(R)
    assert core.norms(R)[1] > 0 and (core.norms(R)[0] > 0) == bool(rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(-960, 961, 80))
def test_every_norm_is_exactly_homogeneous_under_powers_of_two(k):
    # one rule for every sum of squares: the plain sum where it lies in [2**-600, inf), else the sum over
    # values divided by a power of two near their largest magnitude, so 2^k u has norm 2^k |u| to the bit
    # wherever the entries of 2^k u stay normal floats
    grid = PeriodicGrid(n=3, G=8)
    core = spectral_core(grid)
    u = GridFunction(grid, rng_from_seed(7).standard_normal((4,) + grid.shape) + 0.4)
    R = core.forward(u.values)
    c = 2.0**k
    assert core.norms(c * R) == tuple(c * v for v in core.norms(R))
    assert core.norms(c * R, [1]) == tuple(c * v for v in core.norms(R, [1]))
    assert norm_l2(GridFunction(grid, c * u.values)) == c * norm_l2(u)
    for v in (R[core.zero], R[:, 1, 2, 3], u.values[:, 0, 0, 0]):
        assert norm_vector(c * v) == c * norm_vector(v)


def test_norms_in_range_keep_the_plain_formula_bits():
    grid = PeriodicGrid(n=3, G=8, L=2.0)
    u = GridFunction(grid, rng_from_seed(8).standard_normal((4,) + grid.shape))
    R = spectral_core(grid).forward(u.values)
    assert norm_l2(u) == float(np.sqrt(grid.h**3 * np.sum(u.values**2)))
    for v in (R[:, 0, 0, 0], R[:, 1, 2, 3], u.values[:, 1, 1, 1], np.zeros(3), np.zeros(2, complex)):
        assert norm_vector(v) == float(np.linalg.norm(v))


@pytest.mark.filterwarnings("error")
def test_norms_of_subnormal_and_overflowing_values():
    # numpy divides a complex value by a subnormal power of two into NaN, so the rule divides the parts apart;
    # a Nyquist entry whose square overflows leaves the retained norm alone
    assert norm_vector(np.array([3e-320 + 4e-320j])) == pytest.approx(5e-320, rel=1e-3)
    assert norm_vector(np.array([3e300, -4e300])) == pytest.approx(5e300, rel=1e-15)
    grid = PeriodicGrid(n=2, G=4)
    core = spectral_core(grid)
    R = np.zeros((1,) + core.zmag.shape, complex)
    R[0, 1, 1], R[0, 2, 0] = 1e-3, 1e200  # a retained mode and one on the Nyquist planes
    assert core.norms(R) == pytest.approx((math.sqrt(core.weight[1, 1]) * 1e-3, 1e200), rel=1e-15)
    assert norm_l2(GridFunction(grid, np.full((1,) + grid.shape, 1e-170))) == 1e-170


def test_conjugate_exponent():
    assert conjugate_exponent(3) == 6.0
    assert conjugate_exponent(4) == 4.0
    with pytest.raises(ValueError):
        conjugate_exponent(2)


def test_norm_l2star_constant_field():
    grid = PeriodicGrid(n=3, G=4)
    u = GridFunction(grid, np.full((2,) + grid.shape, 3.0))
    # |(3,3)| = 3 sqrt(2) pointwise; the 6-norm of a constant is the constant
    assert abs(norm_l2star(u) - 3.0 * np.sqrt(2.0)) < 1e-12


def test_random_band_limited_respects_band():
    grid = PeriodicGrid(n=2, G=16)
    rng = rng_from_seed(3)
    u = random_band_limited(grid, 2, rng, kmax=3)
    spec = np.fft.fftn(u.values, axes=(1, 2)) / grid.num_points
    idx = grid.axis_freq_indices()
    outside = (np.abs(idx)[:, None] > 3) | (np.abs(idx)[None, :] > 3)
    # zero up to one FFT round trip of roundoff
    assert np.max(np.abs(spec[:, outside])) < 1e-15
    assert np.max(np.abs(spec[:, 0, 0])) < 1e-15  # mean-free
    assert np.max(np.abs(u.values.mean(axis=(1, 2)))) < 1e-14


def test_random_band_limited_deterministic():
    grid = PeriodicGrid(n=3, G=8)
    a = random_band_limited(grid, 2, rng_from_seed(9))
    b = random_band_limited(grid, 2, rng_from_seed(9))
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        random_band_limited(grid, 2, rng_from_seed(9), kmax=4)  # the Nyquist index


@pytest.mark.parametrize("kmax", [0, -1])
def test_random_band_limited_rejects_empty_band(kmax):
    # no retained mode has |k_j| <= 0, so the field would be all zero
    with pytest.raises(ValueError, match="kmax must be at least 1"):
        random_band_limited(PeriodicGrid(n=2, G=8), 2, rng_from_seed(9), kmax=kmax)


@pytest.mark.parametrize("n, G", [(2, 16), (3, 8), (4, 6)])
def test_buffered_transforms_match_allocating_ones(n, G):
    grid = PeriodicGrid(n=n, G=G)
    core = spectral_core(grid)
    v = rng_from_seed(n).standard_normal((2,) + grid.shape)
    U = core.forward(v)
    U_before = U.copy()
    out = np.full((2 * n,) + grid.shape, np.nan)
    work = np.full((2 * n,) + core.zmag.shape, np.nan, complex)
    Du = core.derivatives(U, out=out, work=work)
    assert Du is out
    assert np.array_equal(Du, core.derivatives(U))
    # the same passes as irfftn of the derivative spectrum, in the same order
    d = (U[:, None] * core.deriv).reshape((2 * n,) + core.zmag.shape)
    assert np.array_equal(Du, core.inverse(d))
    # a partial list writes its entries (alpha, j) into rows alpha * n + j and leaves every other row alone
    entries = ((1, n - 1), (0, 0))
    part = np.full((2 * n,) + grid.shape, np.nan)
    work = np.full((len(entries),) + core.zmag.shape, np.nan, complex)
    assert core.derivatives(U, out=part, work=work, entries=entries) is part
    listed = [alpha * n + j for alpha, j in entries]
    assert np.array_equal(part[listed], Du[listed])
    assert np.isnan(np.delete(part, listed, axis=0)).all()
    assert np.array_equal(U, U_before)
    spec = np.full(U.shape, np.nan, complex)
    assert core.forward(v, out=spec) is spec
    assert np.array_equal(spec, U)


def test_grid_function_arithmetic():
    grid = PeriodicGrid(n=2, G=8)
    rng = rng_from_seed(4)
    a = GridFunction(grid, rng.standard_normal((2,) + grid.shape))
    b = GridFunction(grid, rng.standard_normal((2,) + grid.shape))
    np.testing.assert_allclose((a + b).values, a.values + b.values)
    np.testing.assert_allclose((a - b).values, a.values - b.values)
    with pytest.raises(TypeError):  # fields add and subtract; scale their values instead
        2.0 * a


def test_grid_function_component_mismatch():
    grid = PeriodicGrid(n=2, G=8)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros((2,) + (8, 9)))

"""Torus grids, the DFT convention, spectral gradients, and norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efos.grid import (
    GridFunction,
    PeriodicGrid,
    SpectralField,
    conjugate_exponent,
    dft_forward,
    dft_inverse,
    gradient,
    norm_l2,
    norm_l2star,
    project_mean_zero,
    random_band_limited,
    spectral_norm_l2,
)
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


def test_frequency_layout_matches_fft_convention():
    grid = PeriodicGrid(n=2, G=8)
    idx = grid.axis_freq_indices()
    np.testing.assert_array_equal(idx, np.fft.fftfreq(8, d=1 / 8).astype(int))
    assert idx.min() == -4 and idx.max() == 3


def test_forward_dft_of_pure_mode_is_unit_impulse():
    grid = PeriodicGrid(n=2, G=16)
    x = grid.points()
    u = GridFunction(grid, np.cos(2 * np.pi * (2 * x[0] + x[1]))[None])
    spec = dft_forward(u).coeffs
    # cos splits into two conjugate impulses of weight 1/2
    assert abs(spec[0, 2, 1] - 0.5) < 1e-12
    assert abs(spec[0, -2, -1] - 0.5) < 1e-12
    energy = np.abs(spec[0]) ** 2
    assert abs(energy.sum() - 0.25 - 0.25) < 1e-12


def test_dft_roundtrip():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(0)
    u = GridFunction(grid, rng.standard_normal((2,) + grid.shape))
    back = dft_inverse(dft_forward(u))
    np.testing.assert_allclose(back.values, u.values, atol=1e-12)


def test_dft_inverse_rejects_nonreal_spectrum():
    grid = PeriodicGrid(n=2, G=8)
    spec = dft_forward(GridFunction.zeros(grid, 1))
    coeffs = np.array(spec.coeffs)
    coeffs[0, 1, 0] = 1.0  # no conjugate partner
    with pytest.raises(ValueError):
        dft_inverse(type(spec)(grid, coeffs))


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
    grid = PeriodicGrid(n=2, G=8)
    i = np.arange(8)
    checker = ((-1.0) ** i)[:, None] * np.ones((8, 8))
    Du = gradient(GridFunction(grid, checker[None]))
    np.testing.assert_allclose(Du.values, 0.0, atol=1e-12)


@pytest.mark.parametrize("n, G", [(2, 16), (3, 8), (4, 6)])
def test_gradient_matches_full_spectrum_reference(n, G):
    # white noise has content on every Nyquist plane, the last axis's included
    grid = PeriodicGrid(n=n, G=G, L=0.7)
    u = GridFunction(grid, rng_from_seed(n).standard_normal((2,) + grid.shape))
    U = dft_forward(u).coeffs
    mult = 2j * np.pi * grid.frequency_vectors() * ~grid.nyquist_mask()
    ref = np.stack([dft_inverse(SpectralField(grid, U * m)).values for m in mult], axis=1)
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


def test_plancherel_identity():
    grid = PeriodicGrid(n=2, G=16, L=3.0)
    rng = rng_from_seed(1)
    u = random_band_limited(grid, 3, rng)
    assert abs(norm_l2(u) - spectral_norm_l2(dft_forward(u))) < 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_plancherel_property(seed):
    grid = PeriodicGrid(n=2, G=8)
    u = GridFunction(grid, rng_from_seed(seed).standard_normal((1,) + grid.shape))
    assert abs(norm_l2(u) - spectral_norm_l2(dft_forward(u))) < 1e-11


def test_norm_l2_constant_field():
    grid = PeriodicGrid(n=3, G=8, L=2.0)
    u = GridFunction(grid, np.full((1,) + grid.shape, 5.0))
    # integral of 25 over [0,2)^3 is 200
    assert abs(norm_l2(u) - np.sqrt(200.0)) < 1e-12


def test_project_mean_zero():
    grid = PeriodicGrid(n=2, G=8)
    u = GridFunction(grid, np.stack([np.full(grid.shape, 2.0), np.zeros(grid.shape)]))
    v, mean = project_mean_zero(u)
    np.testing.assert_allclose(mean, [2.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(v.values, 0.0, atol=1e-14)


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
    spec = dft_forward(u).coeffs
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


def test_grid_function_arithmetic():
    grid = PeriodicGrid(n=2, G=8)
    rng = rng_from_seed(4)
    a = GridFunction(grid, rng.standard_normal((2,) + grid.shape))
    b = GridFunction(grid, rng.standard_normal((2,) + grid.shape))
    np.testing.assert_allclose((a + b).values, a.values + b.values)
    np.testing.assert_allclose((a - b).values, a.values - b.values)
    np.testing.assert_allclose((2.0 * a).values, 2.0 * a.values)


def test_grid_function_component_mismatch():
    grid = PeriodicGrid(n=2, G=8)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros((2,) + (8, 9)))

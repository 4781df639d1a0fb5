"""Dense-matrix oracle against the spectral path, plus brute-force nu."""

import numpy as np
import pytest

from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann
from efos.ellipticity import NonEllipticError
from efos.grid import GridFunction, PeriodicGrid, gradient, norm_l2, random_band_limited
from efos.linear import apply_tensor, solve_linear
from efos.oracle import assemble_dense, brute_nu, solve_dense
from efos.sampling import rng_from_seed
from efos.tensor import ConstantTensor

from helpers import single_mode_rhs


def test_assemble_dense_matches_spectral_application():
    # the dense matrix and the FFT route compute the same operator
    A = dirac()
    grid = PeriodicGrid(n=3, G=4)
    M = assemble_dense(A, grid)
    rng = rng_from_seed(0)
    u = random_band_limited(grid, 4, rng, kmax=1)
    via_matrix = (M @ u.values.reshape(-1)).reshape((4,) + grid.shape)
    via_fft = apply_tensor(A, gradient(u))
    np.testing.assert_allclose(via_matrix, via_fft.values, atol=1e-10)


def test_dense_and_spectral_solutions_agree():
    A = dirac()
    grid = PeriodicGrid(n=3, G=4)
    rng = rng_from_seed(1)
    f = random_band_limited(grid, 4, rng, kmax=1)
    u_spec, _ = solve_linear(A, f)
    u_dense = solve_dense(A, f)
    gap = norm_l2(gradient(u_dense - u_spec)) / norm_l2(gradient(u_spec))
    assert gap <= 1e-9


def test_dense_agreement_two_dimensional():
    A = cauchy_riemann()
    grid = PeriodicGrid(n=2, G=6)
    f = single_mode_rhs(grid, 2)
    u_spec, _ = solve_linear(A, f)
    u_dense = solve_dense(A, f)
    gap = norm_l2(gradient(u_dense - u_spec)) / norm_l2(gradient(u_spec))
    assert gap <= 1e-9


def test_dense_agreement_with_nyquist_content():
    # white noise fills the Nyquist planes, which neither solve can represent
    A = cauchy_riemann()
    grid = PeriodicGrid(n=2, G=8)
    f = GridFunction(grid, rng_from_seed(5).standard_normal((2,) + grid.shape))
    u_spec, report = solve_linear(A, f)
    assert report.nyquist_truncated
    u_dense = solve_dense(A, f)
    gap = norm_l2(gradient(u_dense - u_spec)) / norm_l2(gradient(u_spec))
    assert gap <= 1e-9


def test_dense_solution_mean_pinned_to_zero():
    A = cauchy_riemann()
    grid = PeriodicGrid(n=2, G=6)
    u = solve_dense(A, single_mode_rhs(grid, 2))
    assert np.max(np.abs(u.values.mean(axis=(1, 2)))) < 1e-10


def test_dense_rejects_non_elliptic_tensor():
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = 1.0
    entries[1, 1, 0] = 1.0
    grid = PeriodicGrid(n=2, G=4)
    f = single_mode_rhs(grid, 2, axis=1)
    with pytest.raises(NonEllipticError, match=r"grid point \(\d+, \d+\)"):
        solve_dense(ConstantTensor(entries), f)


def test_dense_rejects_bad_right_hand_side_with_witness():
    grid = PeriodicGrid(n=3, G=4)
    nan = GridFunction(grid, np.full((4,) + grid.shape, np.nan))
    with pytest.raises(ValueError, match=r"^right-hand side is not finite at component 0, grid index \(0, 0, 0\)$"):
        solve_dense(dirac(), nan)
    with pytest.raises(ValueError, match="^right-hand side must have 4 components, got 3$"):
        solve_dense(dirac(), single_mode_rhs(grid, 3))


def test_dense_size_cap_enforced():
    with pytest.raises(ValueError):
        assemble_dense(dirac(), PeriodicGrid(n=3, G=16))


def test_brute_nu_known_values():
    # every Dirac direction matrix is orthogonal, so sampling is exact
    assert brute_nu(dirac(), 20_000) == pytest.approx(1.0, abs=1e-12)
    assert brute_nu(cauchy_riemann(), 20_000) == pytest.approx(1.0, abs=1e-12)
    got = brute_nu(generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0), 100_000)
    assert got == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-3)
    assert got >= 2.0 / np.sqrt(5.0) - 1e-12  # sampled min never undershoots


def test_brute_nu_sample_floor():
    with pytest.raises(ValueError):
        brute_nu(dirac(), 10)

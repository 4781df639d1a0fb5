"""Dense-matrix oracle against the spectral path, plus brute-force nu."""

import re

import numpy as np
import pytest

import efos.oracle
from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann
from efos.ellipticity import NonEllipticError
from efos.grid import GridFunction, PeriodicGrid, gradient, norm_l2, random_band_limited
from efos.linear import apply_tensor, solve_linear
from efos.oracle import _contract, _dense_derivative_matrices, _dense_transforms, brute_nu, solve_dense
from efos.sampling import rng_from_seed, unit_sphere_points
from efos.tensor import ConstantTensor, direction_matrix, operator_norm

from helpers import QUATERNION_UNITS, full_system_solve_dense, single_mode_rhs


def test_assemble_dense_matches_spectral_application():
    # the dense matrix and the FFT route compute the same operator
    A = dirac()
    grid = PeriodicGrid(n=3, G=4)
    M = _contract(A, _dense_derivative_matrices(grid, _dense_transforms(grid)))
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


def test_dense_and_spectral_solutions_agree_at_n4():
    # the quaternion symbol, nu = 1: N G^n = 1024 unknowns at G = 4
    A = ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1))
    grid = PeriodicGrid(n=4, G=4)
    f = random_band_limited(grid, 4, rng_from_seed(1), kmax=1)
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


@pytest.mark.parametrize(
    "G, seed",
    [pytest.param(4, None, id="mode")]
    + [pytest.param(G, seed, id=f"noise-G{G}-seed{seed}") for G in (4, 6, 8) for seed in range(5)],
)
def test_dense_rejects_non_elliptic_tensor(G, seed):
    # diag(z1, z1) is singular at every mode with z1 = 0; on white noise the solvable-field
    # system's singular rows are rounding noise, not zeros, and an LU solve would return a huge
    # solution with a tiny residual where least squares leaves the residual that refuses A
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = 1.0
    entries[1, 1, 0] = 1.0
    grid = PeriodicGrid(n=2, G=G)
    if seed is None:
        f = single_mode_rhs(grid, 2, axis=1)
    else:
        f = GridFunction(grid, rng_from_seed(seed).standard_normal((2,) + grid.shape))
    with pytest.raises(NonEllipticError, match=r"grid point \(\d+, \d+\)"):
        solve_dense(ConstantTensor(entries), f)


HALF_SYSTEM_CASES = {
    "dirac G=4": (dirac, PeriodicGrid(n=3, G=4)),
    "dirac G=6": (dirac, PeriodicGrid(n=3, G=6)),
    "cauchy_riemann G=8": (cauchy_riemann, PeriodicGrid(n=2, G=8)),
    "cauchy_riemann G=16": (cauchy_riemann, PeriodicGrid(n=2, G=16)),
    "generalized_cr(2,1,1,1) L=2": (
        lambda: generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0),
        PeriodicGrid(n=2, G=8, L=2.0),
    ),
    "dirac+0.2 noise G=6": (
        lambda: ConstantTensor(dirac().entries + 0.2 * rng_from_seed(3).normal(size=(4, 4, 3))),
        PeriodicGrid(n=3, G=6),
    ),
}


@pytest.mark.parametrize("rhs", ["band_limited", "white_noise"])
@pytest.mark.parametrize("name", list(HALF_SYSTEM_CASES))
def test_half_systems_agree_with_the_full_system(name, rhs):
    # the cosine and the sine halves solved apart give the one square system's solution to
    # rounding; white noise also fills the mean and the Nyquist planes, which both drop
    build, grid = HALF_SYSTEM_CASES[name]
    A = build()
    rng = rng_from_seed(11)
    if rhs == "band_limited":
        f = random_band_limited(grid, A.N, rng)
    else:
        f = GridFunction(grid, rng.standard_normal((A.N,) + grid.shape))
    reference = full_system_solve_dense(A, f)
    u = solve_dense(A, f).values
    assert np.abs(u - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("G, seed", [(G, seed) for G in (4, 6, 8) for seed in range(5)])
def test_dense_refusal_names_a_peak_of_the_residual(G, seed):
    # diag(z1, z1) on white noise: what no u can match is f's content on the retained modes with
    # k1 = 0, and over both halves, as in the one full system, the witness is a peak of that field
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = 1.0
    entries[1, 1, 0] = 1.0
    grid = PeriodicGrid(n=2, G=G)
    f = GridFunction(grid, rng_from_seed(seed).standard_normal((2,) + grid.shape))
    k = np.fft.fftfreq(G, 1.0 / G)
    unmatched = (k[:, None] == 0) & (k[None, :] != 0) & (np.abs(k[None, :]) < G // 2)
    residual = np.fft.ifftn(np.fft.fftn(f.values, axes=(1, 2)) * unmatched, axes=(1, 2)).real
    witness = r"component (\d), grid point \((\d+), (\d+)\)$"
    with pytest.raises(NonEllipticError, match=witness) as refusal:
        solve_dense(ConstantTensor(entries), f)
    comp, i, j = (int(g) for g in re.search(witness, str(refusal.value)).groups())
    assert abs(residual[comp, i, j]) >= (1 - 1e-9) * np.abs(residual).max()


def test_dense_refuses_a_derivative_that_maps_cosines_to_cosines(monkeypatch):
    # the identity keeps each cosine a cosine: the split into two half systems would drop it
    derivatives = efos.oracle._dense_derivative_matrices

    def leaking(grid, transforms):
        return derivatives(grid, transforms) + 1e-6 * np.eye(grid.num_points)

    monkeypatch.setattr(efos.oracle, "_dense_derivative_matrices", leaking)
    grid = PeriodicGrid(n=3, G=4)
    with pytest.raises(AssertionError, match="^derivative matrix should map cosines to sines and sines to cosines$"):
        solve_dense(dirac(), random_band_limited(grid, 4, rng_from_seed(2)))


@pytest.mark.parametrize(
    "A, grid",
    [(cauchy_riemann(), PeriodicGrid(n=2, G=8)), (dirac(), PeriodicGrid(n=3, G=4))],
    ids=["cauchy_riemann", "dirac"],
)
def test_dense_solution_has_no_mean_or_nyquist_content(A, grid):
    # white noise plus a constant fills the mean and the Nyquist planes of f
    f = GridFunction(grid, rng_from_seed(9).standard_normal((A.N,) + grid.shape) + 0.3)
    u = solve_dense(A, f).values
    axes = tuple(range(1, grid.n + 1))
    coeffs = np.fft.fftn(u, axes=axes) / grid.num_points
    assert np.abs(coeffs[(slice(None),) + (0,) * grid.n]).max() <= 1e-12
    assert np.abs(coeffs[:, grid.nyquist_mask()]).max() <= 1e-12
    assert np.abs(u).max() > 1e-2  # the solution itself is not zero


def test_dense_zero_tensor_is_non_elliptic_not_a_linalg_error():
    grid = PeriodicGrid(n=2, G=4)
    with pytest.raises(NonEllipticError):
        solve_dense(ConstantTensor(np.zeros((2, 2, 2))), single_mode_rhs(grid, 2))


def test_dense_rejects_bad_right_hand_side_with_witness():
    grid = PeriodicGrid(n=3, G=4)
    nan = GridFunction(grid, np.full((4,) + grid.shape, np.nan))
    with pytest.raises(ValueError, match=r"^right-hand side is not finite at component 0, grid index \(0, 0, 0\)$"):
        solve_dense(dirac(), nan)
    with pytest.raises(ValueError, match="^right-hand side must have 4 components, got 3$"):
        solve_dense(dirac(), single_mode_rhs(grid, 3))


@pytest.mark.parametrize("n, G", [(2, 4), (2, 8), (3, 4), (3, 6), (4, 4)])
def test_retained_basis_spans_the_solvable_fields(n, G):
    grid = PeriodicGrid(n=n, G=G)
    Q = efos.oracle._retained_basis(grid, efos.oracle._dense_transforms(grid))
    assert Q.shape == (G**n, (G - 1) ** n - 1)
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), rtol=0, atol=1e-13)
    f = rng_from_seed(n * G).standard_normal(grid.shape) + 0.3
    coeffs = np.fft.fftn(f)
    coeffs[(0,) * n] = 0.0
    coeffs[grid.nyquist_mask()] = 0.0
    solvable = np.fft.ifftn(coeffs).real
    np.testing.assert_allclose((Q @ (Q.T @ f.ravel())).reshape(grid.shape), solvable, rtol=0, atol=1e-12)


def test_dense_size_cap_enforced():
    grid = PeriodicGrid(n=3, G=16)
    with pytest.raises(ValueError, match="^dense assembly of size 16384 exceeds the cap 4096"):
        solve_dense(dirac(), GridFunction.zeros(grid, 4))


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


def _per_sample_svd_nu(A, samples):
    dirs = unit_sphere_points(A.n, samples)
    return min(np.linalg.svd(direction_matrix(A, a), compute_uv=False)[-1] for a in dirs)


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3)], ids=["N2n2", "N3n3", "N4n3"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_brute_nu_matches_per_sample_svd(shape, seed):
    # 1e-12 |A| plus the Gram kernel's rounding term eps |A|^2 / nu: random tensors
    # are nearly singular somewhere (for odd N, A a is singular on a whole curve),
    # and there squaring the direction matrix costs digits that the SVD keeps
    N, n = shape
    A = ConstantTensor(rng_from_seed(seed).normal(size=(N, N, n)))
    reference = _per_sample_svd_nu(A, 5000)
    norm = operator_norm(A)
    bound = 1e-12 * norm + np.finfo(float).eps * norm**2 / reference
    assert abs(brute_nu(A, 5000) - reference) <= bound


@pytest.mark.parametrize("anchor", [cauchy_riemann(), dirac()], ids=["cauchy_riemann", "dirac"])
def test_brute_nu_matches_per_sample_svd_on_elliptic_tensors(anchor):
    A = ConstantTensor(anchor.entries + 0.2 * rng_from_seed(3).normal(size=anchor.entries.shape))
    reference = _per_sample_svd_nu(A, 5000)
    assert reference > 0.1
    assert abs(brute_nu(A, 5000) - reference) <= 1e-12 * operator_norm(A)


def test_brute_nu_of_a_singular_tensor_is_near_zero():
    # a zero equation row makes A a singular in every direction; the Gram
    # kernel's rounding then reads about sqrt(eps) |A|
    entries = rng_from_seed(4).normal(size=(4, 4, 3))
    entries[2] = 0.0
    A = ConstantTensor(entries)
    assert brute_nu(A, 5000) <= 1e-7 * operator_norm(A)


def test_brute_nu_shares_no_kernel_with_the_fast_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle must not use the fast path's kernel")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(efos.oracle, "direction_matrix", refuse, raising=False)
    monkeypatch.setattr(efos.tensor, "direction_matrix", refuse)
    # nor the fast path's nu, which must never seed the pruning threshold
    monkeypatch.setattr(efos.ellipticity, "cached_nu", refuse)
    monkeypatch.setattr(efos.ellipticity, "_sigma_min", refuse)
    assert brute_nu(cauchy_riemann(), 5000) == pytest.approx(1.0, abs=1e-12)
    assert brute_nu(_perturbed_dirac(0), 20_001) == _full_eigvalsh_nu(_perturbed_dirac(0), 20_001)


def _full_eigvalsh_nu(A, samples):
    """brute_nu before pruning: the least eigenvalue of every Gram matrix."""
    N, n = A.N, A.n
    S = np.einsum("abj,ack->jkbc", A.entries, A.entries).reshape(n * n, N * N)
    dirs = unit_sphere_points(n, samples)
    best = np.inf
    for start in range(0, len(dirs), 8192):
        a = dirs[start : start + 8192]
        gram = np.einsum("sk,kc->sc", (a[:, :, None] * a[:, None, :]).reshape(-1, n * n), S).reshape(-1, N, N)
        best = min(best, float(np.linalg.eigvalsh(gram)[:, 0].min()))
    return float(np.sqrt(max(best, 0.0)))


def _perturbed_dirac(seed):
    return ConstantTensor(dirac().entries + 0.02 * rng_from_seed(seed).normal(size=(4, 4, 3)))


def _zero_row_tensor():
    entries = rng_from_seed(4).normal(size=(4, 4, 3))
    entries[2] = 0.0
    return ConstantTensor(entries)


PRUNING_TENSORS = {
    "dirac": dirac,
    "cauchy_riemann": cauchy_riemann,
    "generalized_cr(2,1,1,1)": lambda: generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0),
    **{f"perturbed_dirac_{seed}": (lambda seed=seed: _perturbed_dirac(seed)) for seed in range(5)},
    **{
        f"random_N{N}n{n}": (lambda N=N, n=n: ConstantTensor(rng_from_seed(10 * N + n).normal(size=(N, N, n))))
        for N, n in [(2, 2), (3, 3), (4, 3), (4, 4)]
    },
    # least eigenvalue about 0 or slightly negative, so G - best I shifts upward
    "zero_row": _zero_row_tensor,
    # about 44% of its Gram matrices are exactly diagonal, so a batch mixes both readings
    "quaternion(3,1.5,2,4)": lambda: ConstantTensor(
        np.moveaxis(QUATERNION_UNITS, 0, -1) * np.array([3.0, 1.5, 2.0, 4.0])
    ),
    # exactly diagonal Gram matrices with entries near 1e-150 and 1e148, which LAPACK rescales
    "dirac*1e-75": lambda: ConstantTensor(1e-75 * dirac().entries),
    "dirac*1e74": lambda: ConstantTensor(1e74 * dirac().entries),
}


@pytest.mark.parametrize("name", sorted(PRUNING_TENSORS))
def test_brute_nu_is_bit_identical_to_the_full_eigenvalue_loop(name):
    # 8193 and 20_001 end in a partial batch, 8193 in a batch of one sample
    A = PRUNING_TENSORS[name]()
    for samples in (1000, 8193, 20_001, 100_000):
        assert brute_nu(A, samples) == _full_eigvalsh_nu(A, samples), samples


def _count_eigvalsh_rows(monkeypatch):
    eigvalsh, rows = np.linalg.eigvalsh, []

    def counting(a):
        rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return rows


def test_brute_nu_prunes_eigenvalue_calls(monkeypatch):
    # the 1031 directions of the spread first batch, then the few that the certification cannot
    # place above its running minimum
    rows = _count_eigvalsh_rows(monkeypatch)
    brute_nu(_perturbed_dirac(0), 100_000)
    assert sum(rows) <= 1_500
    rows.clear()
    brute_nu(generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0), 100_000)
    assert sum(rows) <= 1_500
    # dirac's sigma_min is flat, so nothing is certified; its Gram matrices are exactly
    # diagonal, so they are read off the diagonal instead
    assert brute_nu(dirac(), 100_000) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name, lapack",
    [
        ("dirac", "none"),
        ("cauchy_riemann", "none"),
        ("quaternion(3,1.5,2,4)", "some"),
        ("dirac*1e-75", "all"),
        ("dirac*1e74", "all"),
    ],
)
def test_brute_nu_sends_only_rescaled_or_non_diagonal_gram_matrices_to_lapack(monkeypatch, name, lapack):
    A = PRUNING_TENSORS[name]()
    total = len(unit_sphere_points(A.n, 100_000))
    rows = _count_eigvalsh_rows(monkeypatch)
    brute_nu(A, 100_000)
    assert {"none": sum(rows) == 0, "some": 0 < sum(rows) < total, "all": sum(rows) == total}[lapack], sum(rows)


def _gram_overflow_tensor():
    # S = A_j^T A_k stays finite, (A a)^T (A a) = 1.69e308 (a_1 - a_2)^2 I overflows past
    # a = (-0.03, 1): the first such sample lies in the fourth batch of 8192
    entries = np.zeros((2, 2, 2))
    entries[[0, 1], [0, 1], 0] = 1.3e154
    entries[[0, 1], [0, 1], 1] = -1.3e154
    return ConstantTensor(entries)


@pytest.mark.parametrize(
    "A, first",
    [
        (ConstantTensor(1e160 * generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0).entries), 0),  # nu about 8.9e159
        (ConstantTensor(1e155 * dirac().entries), 0),
        (_gram_overflow_tensor(), 25_507),
    ],
    ids=["gcr*1e160", "dirac*1e155", "overflow_in_a_later_batch"],
)
def test_brute_nu_refuses_a_gram_matrix_that_is_not_finite(A, first):
    a = re.escape(str(unit_sphere_points(A.n, 100_000)[first].tolist()))
    with pytest.raises(ValueError, match=rf"^the Gram matrix of sample direction {first}, a = {a}, is not finite"):
        brute_nu(A, 100_000)


def test_brute_nu_names_the_first_non_finite_direction_outside_the_spread_batch():
    # the n = 3 twin of _gram_overflow_tensor: (A a)^T (A a) = 1e308 (a_1 - a_3)^2 I overflows where
    # |a_1 - a_3| > 1.34; the spread first batch meets later overflowing directions before the first
    entries = np.zeros((2, 2, 3))
    entries[[0, 1], [0, 1], 0] = 1e154
    entries[[0, 1], [0, 1], 2] = -1e154
    A = ConstantTensor(entries)
    dirs = unit_sphere_points(3, 100_000)
    S = np.einsum("abj,ack->jkbc", A.entries, A.entries).reshape(9, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(np.einsum("sk,kc->sc", (dirs[:, :, None] * dirs[:, None, :]).reshape(-1, 9), S)).all(axis=1)
    first, step = int(np.argmax(bad)), len(dirs) // 1024
    assert first % step and bad[::step].any()
    a = re.escape(str(dirs[first].tolist()))
    with pytest.raises(ValueError, match=rf"^the Gram matrix of sample direction {first}, a = {a}, is not finite"):
        brute_nu(A, 100_000)

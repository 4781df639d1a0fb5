"""Multiplier inversion of A:Du = f and the regularized representation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann, lipschitz_perturbation
from efos.ellipticity import NonEllipticError, cached_nu
from efos.grid import GridFunction, PeriodicGrid, gradient, norm_l2, random_band_limited, spectral_core
from efos.linear import (
    MultiplierPlan,
    RegularizerSequence,
    apply_tensor,
    multiplier_plan,
    solve_linear,
    solve_representation,
    verify_apriori,
)
from efos.nonlinear import campanato_solve
from efos.sampling import rng_from_seed
from efos.tensor import ConstantTensor

from helpers import dirac_closed_form, single_mode_rhs


def test_dirac_closed_form():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    u, report = solve_linear(dirac(), f)
    assert report.residual <= 1e-10
    assert np.max(np.abs(u.values - dirac_closed_form(grid).values)) <= 1e-10


def test_cauchy_riemann_closed_form():
    grid = PeriodicGrid(n=2, G=32)
    f = single_mode_rhs(grid, 2)
    u, report = solve_linear(cauchy_riemann(), f)
    x = grid.points()
    expected = np.zeros((2,) + grid.shape)
    expected[0] = -np.cos(2 * np.pi * x[0]) / (2 * np.pi)
    assert np.max(np.abs(u.values - expected)) <= 1e-12
    assert report.residual <= 1e-12


def test_residual_postcondition_random_rhs():
    cases = [
        (cauchy_riemann(), PeriodicGrid(n=2, G=16)),
        (generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0), PeriodicGrid(n=2, G=16)),
        (dirac(), PeriodicGrid(n=3, G=8)),
    ]
    rng = rng_from_seed(0)
    for A, grid in cases:
        for _ in range(5):
            f = random_band_limited(grid, A.N, rng)
            _, report = solve_linear(A, f)
            assert report.residual <= 1e-10
            assert not report.nyquist_truncated


def test_zero_rhs_gives_zero_field():
    grid = PeriodicGrid(n=2, G=8)
    u, report = solve_linear(cauchy_riemann(), GridFunction.zeros(grid, 2))
    assert np.max(np.abs(u.values)) == 0.0
    assert report.residual == 0.0


def test_solution_mean_is_zero():
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    u, _ = solve_linear(dirac(), f)
    assert np.max(np.abs(u.values.mean(axis=(1, 2, 3)))) < 1e-14


def test_rhs_mean_dropped_and_reported():
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    shifted = GridFunction(grid, f.values + np.array([0.7, 0, 0, -0.2]).reshape(4, 1, 1, 1))
    u0, rep0 = solve_linear(dirac(), f)
    u1, rep1 = solve_linear(dirac(), shifted)
    np.testing.assert_allclose(u1.values, u0.values, atol=1e-14)
    np.testing.assert_allclose(rep1.dropped_mean, [0.7, 0, 0, -0.2], atol=1e-14)
    assert rep1.dropped_mean_norm > 0.0
    assert rep0.dropped_mean_norm < 1e-14


def test_nyquist_content_flagged():
    grid = PeriodicGrid(n=2, G=8)
    i = np.arange(8)
    vals = np.zeros((2,) + grid.shape)
    vals[0] = np.sin(2 * np.pi * i / 8)[:, None] + 0.5 * ((-1.0) ** i)[:, None]
    _, report = solve_linear(cauchy_riemann(), GridFunction(grid, vals))
    assert report.nyquist_truncated
    # the Nyquist part of |f~|^2 is 0.25 of 0.75 and cannot be solved for
    assert report.residual == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_non_elliptic_tensor_rejected():
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = 1.0
    entries[1, 1, 0] = 1.0
    with pytest.raises(NonEllipticError):
        MultiplierPlan(ConstantTensor(entries), PeriodicGrid(n=2, G=8))


def test_nan_nu_is_not_elliptic(monkeypatch):
    monkeypatch.setattr("efos.linear.cached_nu", lambda A: float("nan"))
    with pytest.raises(NonEllipticError, match="nu = nan"):
        MultiplierPlan(dirac(), PeriodicGrid(n=3, G=8))


@pytest.mark.parametrize("n", [2, 3])
def test_random_N3_tensor_rejected(n):
    # det(A a) is a cubic, odd in a, so it vanishes on the sphere: no N = 3 tensor is elliptic
    A = ConstantTensor(np.random.default_rng(n).standard_normal((3, 3, n)))
    with pytest.raises(NonEllipticError):
        MultiplierPlan(A, PeriodicGrid(n=n, G=8))


def _direct_sum(*blocks):
    """Block-diagonal tensor: the systems of ``blocks`` side by side."""
    N = sum(B.N for B in blocks)
    entries = np.zeros((N, N, blocks[0].n))
    start = 0
    for B in blocks:
        entries[start : start + B.N, start : start + B.N] = B.entries
        start += B.N
    return ConstantTensor(entries)


DIRECT_SUMS = {
    "cr_N2": cauchy_riemann(),
    "dirac_N4": dirac(),
    "cr3_N6": _direct_sum(cauchy_riemann(), cauchy_riemann(), cauchy_riemann()),
    "dirac2_N8": _direct_sum(dirac(), dirac()),
}


@pytest.mark.parametrize("name", DIRECT_SUMS)
def test_plan_inverts_the_symbol(name):
    # M(z) . A:(2 pi i z) = I on the retained modes; M = 0 on the mean and the Nyquist planes
    A = DIRECT_SUMS[name]
    plan = MultiplierPlan(A, PeriodicGrid(n=A.n, G=8))
    core = plan.core
    symbol = np.einsum("abj,j...->...ab", A.entries, 2j * np.pi * core.z)
    M = 1j * np.moveaxis(plan.multipliers, (0, 1), (-2, -1))  # stored as m[a, b, ...] with M = i m
    prod = M @ symbol
    np.testing.assert_allclose(prod[core.retained], np.broadcast_to(np.eye(A.N), prod[core.retained].shape), atol=1e-13)
    assert not M[~core.retained].any()


@pytest.mark.parametrize("name", ["cr3_N6", "dirac2_N8"])
def test_residual_postcondition_large_systems(name):
    A = DIRECT_SUMS[name]
    grid = PeriodicGrid(n=A.n, G=8)
    f = random_band_limited(grid, A.N, rng_from_seed(11), kmax=3)
    _, report = solve_linear(A, f)
    assert not report.nyquist_truncated
    assert report.residual <= 1e-12


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        MultiplierPlan(dirac(), PeriodicGrid(n=2, G=8))


def test_value_equal_tensors_share_one_cached_plan():
    grid = PeriodicGrid(n=3, G=8)
    assert dirac() is not dirac()
    assert multiplier_plan(dirac(), grid) is multiplier_plan(dirac(), grid)
    assert multiplier_plan(dirac(), grid) is not multiplier_plan(dirac(), PeriodicGrid(n=3, G=16))


@pytest.mark.parametrize("build", [multiplier_plan, MultiplierPlan])
def test_plan_multipliers_are_read_only(build):
    A = cauchy_riemann()
    plan = build(A, PeriodicGrid(n=2, G=8))
    # m = Im M: one float64 per entry, N^2 entries per mode of the half spectrum
    assert plan.multipliers.dtype == np.float64 and plan.multipliers.flags.c_contiguous
    assert not plan.multipliers.flags.writeable
    assert plan.multipliers.nbytes == 8 * A.N**2 * plan.core.zmag.size
    with pytest.raises(ValueError, match="read-only"):
        plan.multipliers[0, 0, 1, 1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        plan.multipliers *= 2.0


def _complex_multipliers(A, grid):
    """M[a, b, ...] = inv(A:z) retained / (2 pi i) as one complex array, the product that the plan's m = Im M
    stands for, with the zero mode's stand-in direction."""
    core = spectral_core(grid)
    z = np.moveaxis(np.where(core.zmag > 0, core.z, 1.0), 0, -1)
    inv = np.linalg.inv(np.einsum("abj,...j->...ab", A.entries, z))
    return np.moveaxis(inv, (-2, -1), (0, 1)) * (core.retained / (2j * np.pi))


def _signed_coefficients(rng, shape):
    """Complex coefficients whose parts are half-integers in [-1, 1], so that sums cancel exactly, or normal
    draws; a zero part is +0.0 or -0.0 at random."""
    size = (2,) + shape
    parts = np.where(rng.random(size) < 0.5, rng.integers(-2, 3, size) / 2, rng.standard_normal(size))
    parts = np.where(parts == 0, np.where(rng.random(size) < 0.5, -0.0, 0.0), parts)
    x = np.empty(shape, complex)
    x.real, x.imag = parts
    return x


@pytest.mark.parametrize("name", ["cr_N2", "dirac_N4", "dirac2_N8"])
def test_plan_apply_is_the_complex_product_bit_for_bit(name):
    # the plan holds Im M bit for bit; apply and each of its rows are the complex einsum of M, and
    # subtract_product the complex subtraction of one product, signed zeros too
    A = DIRECT_SUMS[name]
    grid = PeriodicGrid(n=A.n, G=8)
    plan = MultiplierPlan(A, grid)
    M = _complex_multipliers(A, grid)
    assert not M.real.any() and plan.multipliers.tobytes() == M.imag.tobytes()
    rng = rng_from_seed(43)
    for _ in range(4):
        x = _signed_coefficients(rng, (A.N,) + plan.core.zmag.shape)
        parts = x.view(float)
        assert (np.signbit(parts) & (parts == 0)).any() and (~np.signbit(parts) & (parts == 0)).any()
        want = np.einsum("ab...,b...->a...", M, x)
        out = np.empty_like(x)
        assert plan.apply(x).tobytes() == want.tobytes()
        assert plan.apply(x, out=out) is out and out.tobytes() == want.tobytes()
        assert [plan.apply_row(x, a).tobytes() for a in range(A.N)] == [row.tobytes() for row in want]
        src = _signed_coefficients(rng, plan.core.zmag.shape) + 0.0  # no -0.0, as in the Picard step
        for b, a in np.ndindex(A.N, A.N):
            got = plan.subtract_product(src, b, a, x[a], out=np.empty_like(src), product=np.empty_like(src))
            assert got.tobytes() == (src - M[b, a] * x[a]).tobytes()


def _traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plan_build_and_solve_peaks_stay_near_the_float64_plan():
    A = dirac()
    cached_nu(A)
    for G in (16, 32):
        # the build holds the plan, 8 N^2 bytes per mode, and one sixteenth of the leading axis's direction matrices
        # and inverses beside it: 1.22x the plan at G = 16 and 1.20x at G = 32 at landing; a build that inverted
        # every mode in one batch would hold at least 3x
        grid = PeriodicGrid(n=3, G=G)
        modes = spectral_core(grid).zmag.size
        assert _traced_peak(lambda: MultiplierPlan(A, grid)) <= 1.3 * 8 * A.N**2 * modes
    # a solve that builds and caches its plan peaks at the plan plus its own buffers, 9.85 MB at G = 32 at
    # landing; a complex copy of the plan (4.46 MB) or of its support's block of M (1.11 MB) would pass the bound
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    f = random_band_limited(grid, 4, rng_from_seed(43))
    multiplier_plan.cache_clear()
    peak = _traced_peak(lambda: campanato_solve(F, f, tol=1e-10))
    assert peak - 8 * A.N**2 * modes <= 10_400_000


def _non_elliptic():
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = entries[1, 1, 0] = 1.0
    return ConstantTensor(entries)


@pytest.mark.parametrize(
    "A, grid, error",
    [
        (_non_elliptic(), PeriodicGrid(n=2, G=8), NonEllipticError),
        (dirac(), PeriodicGrid(n=2, G=8), ValueError),
    ],
)
def test_failed_plan_build_raises_every_time_and_is_not_cached(A, grid, error):
    multiplier_plan.cache_clear()
    for _ in range(2):
        with pytest.raises(error):
            multiplier_plan(A, grid)
    info = multiplier_plan.cache_info()
    assert (info.currsize, info.hits, info.misses) == (0, 0, 2)


def test_signed_zero_copy_shares_the_cached_plan():
    # dirac() and a copy whose zero entries are -0.0 are equal, so they must hash equal and share one entry
    A = dirac()
    B = ConstantTensor(np.where(A.entries == 0, -0.0, A.entries))
    assert A == B and np.signbit(B.entries).any()
    assert hash(A) == hash(B)
    grid = PeriodicGrid(n=3, G=8)
    multiplier_plan.cache_clear()
    assert multiplier_plan(A, grid) is multiplier_plan(B, grid)
    info = multiplier_plan.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


def _report_bytes(report):
    """Every field of a report or trace dataclass, as bytes."""
    return [np.asarray(v).tobytes() for v in dataclasses.astuple(report)]


CACHE_CASES = {
    "dirac G=8": (dirac(), PeriodicGrid(n=3, G=8)),
    "cauchy_riemann G=16": (cauchy_riemann(), PeriodicGrid(n=2, G=16)),
    "generalized_cr(2,1,1,1) G=8": (generalized_cauchy_riemann(2, 1, 1, 1), PeriodicGrid(n=2, G=8)),
}


@pytest.mark.parametrize("case", CACHE_CASES)
def test_linear_solves_match_with_a_cached_and_a_fresh_plan(case):
    A, grid = CACHE_CASES[case]
    f = random_band_limited(grid, A.N, rng_from_seed(4))
    reg = RegularizerSequence("rational", 10)

    def run():
        (u, rep), (um, rrep) = solve_linear(A, f), solve_representation(A, f, reg)
        return u.values.tobytes(), _report_bytes(rep), um.values.tobytes(), _report_bytes(rrep)

    solve_linear(A, f)  # the plan is cached from here on
    cached = run()
    multiplier_plan.cache_clear()
    assert run() == cached


def test_campanato_solve_matches_with_a_cached_a_fresh_and_a_passed_plan():
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    grid = PeriodicGrid(n=3, G=8)
    f = random_band_limited(grid, 4, rng_from_seed(6))

    def run(**kwargs):
        u, trace = campanato_solve(F, f, tol=1e-10, **kwargs)
        return u.values.tobytes(), _report_bytes(trace)

    multiplier_plan.cache_clear()
    fresh = run()
    assert multiplier_plan.cache_info().currsize == 1
    assert run() == fresh
    assert run(plan=MultiplierPlan(F.anchor, grid)) == fresh


@pytest.mark.parametrize(
    "build, G",
    [
        (lambda rng: dirac(), 16),
        (lambda rng: dirac(), 32),
        (lambda rng: generalized_cauchy_riemann(2, 1, 1, 1), 64),
        (lambda rng: ConstantTensor(rng.standard_normal((4, 4, 3))), 16),
        (lambda rng: ConstantTensor(rng.standard_normal((3, 3, 4))), 8),
    ],
    ids=["dirac-16", "dirac-32", "generalized_cr-64", "random-4x4x3-16", "random-3x3x4-8"],
)
def test_apply_tensor_is_the_pointwise_contraction_bit_for_bit(build, G):
    rng = rng_from_seed(G)
    A = build(rng)
    grid = PeriodicGrid(n=A.n, G=G)
    Du = GridFunction(grid, rng.standard_normal((A.N * A.n,) + grid.shape))
    reference = np.einsum("abj,bj...->a...", A.entries, Du.as_gradient(A.N))  # an einsum over the field layout
    out = apply_tensor(A, Du)
    assert out.grid == grid and np.array_equal(out.values, reference)


def test_apriori_ratio_bounded_by_one():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(1)
    A = dirac()
    for _ in range(10):
        f = random_band_limited(grid, 4, rng)
        u, _ = solve_linear(A, f)
        rep = verify_apriori(A, u, f)
        assert rep.ratio_grad <= 1.0 + 1e-10
        # the Dirac symbol is an isometry per mode, so the bound is tight
        assert rep.ratio_grad >= 1.0 - 1e-10


def _mode_solve(L):
    f = single_mode_rhs(PeriodicGrid(n=3, G=8, L=L), 4)
    u, report = solve_linear(dirac(), f)
    return report, verify_apriori(dirac(), u, f)


@pytest.mark.parametrize("k", range(-100, 101, 25))
def test_solve_and_apriori_ratios_do_not_depend_on_the_period(k):
    # u scales with L, so no power of L may enter a norm's sums: |u|^6 would overflow the L^{2*} sum at
    # L = 1e50 and underflow it at L = 1e-50, and L^n would underflow the residual's Plancherel sums at 1e-100
    report, apriori = _mode_solve(10.0**k)
    _, unit = _mode_solve(1.0)
    assert 0.0 < report.residual < 1e-14
    assert apriori.ratio_grad == pytest.approx(unit.ratio_grad, abs=1e-12)
    assert apriori.ratio_sobolev == pytest.approx(unit.ratio_sobolev, abs=1e-12)


def test_apriori_zero_rhs():
    grid = PeriodicGrid(n=3, G=8)
    rep = verify_apriori(dirac(), GridFunction.zeros(grid, 4), GridFunction.zeros(grid, 4))
    assert rep.ratio_grad == 0.0


@pytest.mark.parametrize(
    "bad, grid, components, match",
    [
        ("u", PeriodicGrid(n=3, G=8, L=2.0), 4, "solution lives on"),
        ("u", PeriodicGrid(n=3, G=16), 4, "solution lives on"),
        ("u", PeriodicGrid(n=3, G=8), 3, "solution must have 4 components, got 3"),
        ("f", PeriodicGrid(n=3, G=8), 3, "right-hand side must have 4 components, got 3"),
    ],
)
def test_apriori_rejects_mismatched_fields(bad, grid, components, match):
    rhs_grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(rhs_grid, 4)
    u, _ = solve_linear(dirac(), f)
    field = random_band_limited(grid, components, rng_from_seed(3))
    if bad == "u":
        u = field
    else:
        f = field
    with pytest.raises(ValueError, match=match):
        verify_apriori(dirac(), u, f)


def test_apriori_sobolev_reported_only_for_n_ge_3():
    grid2 = PeriodicGrid(n=2, G=16)
    f2 = single_mode_rhs(grid2, 2)
    u2, _ = solve_linear(cauchy_riemann(), f2)
    rep2 = verify_apriori(cauchy_riemann(), u2, f2)
    assert math.isnan(rep2.ratio_sobolev)

    grid3 = PeriodicGrid(n=3, G=8)
    f3 = single_mode_rhs(grid3, 4)
    u3, _ = solve_linear(dirac(), f3)
    rep3 = verify_apriori(dirac(), u3, f3)
    assert rep3.ratio_sobolev > 0.0


def test_representation_rational_error_bound():
    grid = PeriodicGrid(n=3, G=16)
    rng = rng_from_seed(2)
    A = dirac()
    f = random_band_limited(grid, 4, rng)
    u, _ = solve_linear(A, f)
    for m in (1, 10, 100, 1000):
        um, rep = solve_representation(A, f, RegularizerSequence("rational", m))
        rel = norm_l2(um - u) / norm_l2(u)
        assert rel <= rep.rational_bound * (1 + 1e-12)
        assert rep.rational_bound == pytest.approx(m**-2 / rep.z_min**2)
        assert 0.0 <= rep.factor_gap <= 1.0


def test_representation_truncation_exact_above_threshold():
    # L = 4 puts the lowest frequency at 1/4; truncation is exact once m >= 4
    grid = PeriodicGrid(n=2, G=16, L=4.0)
    A = cauchy_riemann()
    f = single_mode_rhs(grid, 2)
    u, _ = solve_linear(A, f)
    u1, rep1 = solve_representation(A, f, RegularizerSequence("truncation", 1))
    assert norm_l2(u1 - u) / norm_l2(u) > 1e-3
    u4, _ = solve_representation(A, f, RegularizerSequence("truncation", 4))
    assert np.max(np.abs(u4.values - u.values)) < 1e-14


def test_representation_kinds_agree_in_the_limit():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(3)
    A = dirac()
    f = random_band_limited(grid, 4, rng)
    ur, _ = solve_representation(A, f, RegularizerSequence("rational", 100_000))
    ut, _ = solve_representation(A, f, RegularizerSequence("truncation", 100_000))
    u, _ = solve_linear(A, f)
    assert norm_l2(ur - ut) / norm_l2(u) <= 1e-9


def test_regularizer_validation():
    with pytest.raises(ValueError):
        RegularizerSequence("unknown", 10)
    with pytest.raises(ValueError):
        RegularizerSequence("rational", 0)


@given(st.floats(min_value=0.05, max_value=50.0), st.integers(min_value=1, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_regularizer_pointwise_properties(zmag, m):
    # the recovery factor h_m |z| sits in [0, 1], i.e. 0 <= h_m <= 1/|z|
    for kind in ("rational", "truncation"):
        s = RegularizerSequence(kind, m).factor(np.array([zmag]))[0]
        assert 0.0 <= s <= 1.0


def test_regularizer_converges_pointwise():
    z = np.array([0.25, 1.0, 7.0])
    for kind in ("rational", "truncation"):
        assert np.max(np.abs(RegularizerSequence(kind, 10_000).factor(z) - 1.0)) < 1e-6


@pytest.mark.parametrize("entry", ["solve_linear", "solve_representation", "verify_apriori_rhs", "verify_apriori_solution"])
def test_non_finite_field_rejected_with_witness(entry):
    A = dirac()
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    bad = f.values.copy()
    bad[2, 1, 0, 5] = np.nan
    bad[3, 0, 0, 0] = np.inf  # later in (component, grid index) order
    bad = GridFunction(grid, bad)
    rational = RegularizerSequence("rational", 10)
    witness = r"is not finite at component 2, grid index \(1, 0, 5\)"
    calls = {
        "solve_linear": ("right-hand side", lambda: solve_linear(A, bad)),
        "solve_representation": ("right-hand side", lambda: solve_representation(A, bad, rational)),
        "verify_apriori_rhs": ("right-hand side", lambda: verify_apriori(A, dirac_closed_form(grid), bad)),
        "verify_apriori_solution": ("solution", lambda: verify_apriori(A, bad, f)),
    }
    what, call = calls[entry]
    with pytest.raises(ValueError, match=f"^{what} {witness}$"):
        call()

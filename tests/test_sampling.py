"""Deterministic sphere coverings and the increment sampling plan."""

import re

import numpy as np
import pytest

from efos.catalog import dirac, generalized_cauchy_riemann
from efos.ellipticity import NU_SAMPLES, ellipticity_constant
from efos.sampling import MAGNITUDE_LADDER, SamplingPlan, rng_from_seed, unit_sphere_points


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sphere_points_unit_norm(n):
    pts = unit_sphere_points(n, 500)
    assert pts.shape[1] == n
    assert pts.shape[0] >= 500
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)


def test_sphere_points_deterministic():
    a = unit_sphere_points(3, 1000)
    b = unit_sphere_points(3, 1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("count", [1, 7, 2048, 4096, 100_000])
def test_sphere_points_at_n2_and_n3_are_exactly_count_points(count):
    # equally spaced angles and the Fibonacci spiral, bit for bit, one point per request
    theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    assert np.array_equal(unit_sphere_points(2, count), np.stack([np.cos(theta), np.sin(theta)], axis=1))
    i = np.arange(count) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / count)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    spiral = np.stack([np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1)
    assert np.array_equal(unit_sphere_points(3, count), spiral)


def test_sphere_table_is_shared_and_read_only():
    table = unit_sphere_points(3, 2048)
    assert unit_sphere_points(3, 2048) is table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0
    for A in (dirac(), generalized_cauchy_riemann(2, 1, 1, 1)):
        report = ellipticity_constant(A)
        assert not np.shares_memory(unit_sphere_points(A.n, NU_SAMPLES), report.argmin_direction)


@pytest.mark.parametrize("count", [2048, 4096, 100_000])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sphere_table_matches_a_cold_build(n, count):
    warm = unit_sphere_points(n, count)
    assert np.array_equal(warm, unit_sphere_points.__wrapped__(n, count))


def test_sphere_grid_takes_the_least_angle_count():
    # R = 2 m^(n-1) with the least m that reaches count, also where count / 2 is an exact power
    assert [len(unit_sphere_points(4, c)) for c in (2048, 4096, 100_000)] == [2662, 4394, 101_306]
    for n in (4, 5):
        for count in list(range(1, 600)) + [2 * 7 ** (n - 1), 2 * 9 ** (n - 1)]:
            R = len(unit_sphere_points(n, count))
            m = round((R / 2) ** (1.0 / (n - 1)))
            assert R == 2 * m ** (n - 1) and 2 * (m - 1) ** (n - 1) < count <= R, (n, count)


def test_sphere_covering_gets_close_to_any_direction():
    pts = unit_sphere_points(3, 4000)
    target = np.array([0.3, -0.5, 0.8])
    target /= np.linalg.norm(target)
    gap = np.min(np.linalg.norm(pts - target, axis=1))
    assert gap < 0.1


def test_rng_is_reproducible_mersenne_twister():
    a = rng_from_seed(42).standard_normal(8)
    b = rng_from_seed(42).standard_normal(8)
    assert np.array_equal(a, b)
    # the underlying stream is the MT19937 one
    ref = np.random.Generator(np.random.MT19937(42)).standard_normal(8)
    assert np.array_equal(a, ref)


def test_magnitude_ladder_spans_decades():
    assert MAGNITUDE_LADDER[0] == 1e-4
    assert MAGNITUDE_LADDER[-1] == 1e2
    assert all(b > a for a, b in zip(MAGNITUDE_LADDER, MAGNITUDE_LADDER[1:]))


def test_plan_anchors_present():
    plan = SamplingPlan(seed=0)
    P = plan.p_matrices(2, 2)
    # the zero anchor and the +/- pi coordinate anchors are always sampled
    assert any(np.all(p == 0) for p in P)
    assert any(abs(p[0, 0] - np.pi) < 1e-12 and abs(p).sum() - np.pi < 1e-9 for p in P)
    assert any(abs(p[0, 0] + np.pi) < 1e-12 for p in P)


def test_plan_directions_unit_and_axes():
    plan = SamplingPlan(seed=0)
    A = dirac()
    dirs = plan.q_directions(4, 3, A)
    np.testing.assert_allclose(np.linalg.norm(dirs.reshape(len(dirs), -1), axis=1), 1.0, atol=1e-12)
    e11 = np.zeros((4, 3))
    e11[0, 0] = 1.0
    assert any(np.allclose(d, e11, atol=1e-12) for d in dirs)
    assert any(np.allclose(d, -e11, atol=1e-12) for d in dirs)


def test_plan_random_draws_extend_as_prefix():
    # enriching a plan keeps the earlier draws, so sampled sups are monotone
    lean = SamplingPlan(seed=7, random_q=2, random_p=2)
    rich = SamplingPlan(seed=7, random_q=10, random_p=6)
    A = dirac()
    dl = lean.q_directions(4, 3, A)
    dr = rich.q_directions(4, 3, A)
    for d in dl:
        assert any(np.allclose(d, r, atol=0) for r in dr)
    pl = lean.p_matrices(4, 3)
    pr = rich.p_matrices(4, 3)
    for p in pl:
        assert any(np.array_equal(p, r) for r in pr)


def test_plan_x_points_cover_cell():
    plan = SamplingPlan(seed=0, x_per_axis=3)
    X = plan.x_points(2)
    assert X.shape[1] == 2
    assert np.all(X >= 0.0) and np.all(X < 1.0)
    assert any(np.all(x == 0) for x in X)


def test_plan_is_frozen():
    plan = SamplingPlan(seed=0)
    with pytest.raises(AttributeError):
        plan.seed = 3


@pytest.mark.parametrize(
    "field, bad, match",
    [
        ("extra_q_directions", np.zeros((4, 3)), r"^extra_q_directions\[1\] needs a finite, nonzero norm, got 0\.0$"),
        ("extra_q_directions", np.full((4, 3), np.nan), r"^extra_q_directions\[1\] needs a finite, nonzero norm, got nan$"),
        ("extra_q_directions", np.full((4, 3), np.inf), r"^extra_q_directions\[1\] needs a finite, nonzero norm, got inf$"),
        ("extra_p", np.full((4, 3), np.inf), r"^extra_p\[1\] is not finite$"),
    ],
    ids=["zero_q", "nan_q", "inf_q", "inf_p"],
)
def test_plan_refuses_a_bad_extra_sample(field, bad, match):
    # the direction filter used to drop a zero or NaN direction with only a RuntimeWarning
    good = np.ones((4, 3))
    with pytest.raises(ValueError, match=match):
        SamplingPlan(**{field: (good, bad)})


@pytest.mark.parametrize("scale", [1e-200, 1e200, 5e-324, 1.7e308])
def test_plan_takes_an_extra_direction_at_any_finite_scale(scale):
    # the plain norm of scale e_11 underflows to 0.0 at 1e-200 and overflows to inf at 1e200
    e11 = np.zeros((4, 3))
    e11[0, 0] = 1.0
    dirs = SamplingPlan(extra_q_directions=(scale * e11,)).q_directions(4, 3, dirac())
    assert np.array_equal(dirs[25], e11)


@pytest.mark.parametrize("power", [-660, -1, 0, 1, 660])
def test_plan_scales_an_extra_direction_by_powers_of_two_exactly(power):
    # dividing by the power of two near its largest entry is exact, so 2**power U keeps the bits of U
    skewed = rng_from_seed(5).normal(size=(2, 4, 3))
    plan = SamplingPlan(extra_q_directions=tuple(np.ldexp(skewed, power)))
    want = SamplingPlan(extra_q_directions=tuple(skewed)).q_directions(4, 3, dirac())
    assert np.array_equal(plan.q_directions(4, 3, dirac()), want)


@pytest.mark.parametrize("field", ["extra_p", "extra_q_directions"])
@pytest.mark.parametrize("shape", [(2, 2), (3, 4)], ids=["too_small", "transposed"])
def test_plan_refuses_a_mis_shaped_extra_sample(field, shape):
    # a (3, 4) direction for N=4, n=3 used to be reshaped silently into another direction
    plan = SamplingPlan(**{field: (np.ones((4, 3)), np.ones(shape))})
    with pytest.raises(ValueError, match=re.escape(f"{field}[1] has shape {shape}; need (4, 3)")):
        plan.p_matrices(4, 3) if field == "extra_p" else plan.q_directions(4, 3, dirac())

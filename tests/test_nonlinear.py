"""Fixed-point iteration, contraction measurement, and the comparison bounds."""

import configparser
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann, lipschitz_perturbation, variable_linear
from efos.cli import build_operator
from efos.ellipticity import NonEllipticError, cached_nu
from efos import nonlinear
from efos.grid import GridFunction, PeriodicGrid, SpectralCore, gradient, norm_l2, random_band_limited
from efos.linear import MultiplierPlan, apply_tensor, solve_linear
from efos.nonlinear import (
    DivergenceError,
    NonlinearOperator,
    campanato_solve,
    near_operator_check,
    verify_comparison,
)
from efos.sampling import rng_from_seed
from efos.tensor import ConstantTensor, contract, operator_norm

from helpers import QUATERNION_UNITS, single_mode_rhs


def _zero(x, Q):
    return np.zeros(np.shape(Q)[:-1])


def _linear_anchor_operator(A, declared=0.0):
    return NonlinearOperator(perturbation=_zero, anchor=A, support=(), declared_nearness=declared, name="anchor")


@pytest.mark.parametrize("near", [math.nan, -0.5, math.inf])
def test_declared_nearness_must_be_finite_and_nonnegative(near):
    # nu - nan <= 0 is false, so a NaN bound would pass a margin gate
    with pytest.raises(ValueError, match="declared_nearness must be a finite number >= 0"):
        _linear_anchor_operator(dirac(), declared=near)


@pytest.mark.parametrize("build", [lipschitz_perturbation, variable_linear])
def test_catalog_operator_at_nan_level_rejected(build):
    with pytest.raises(ValueError, match="declared_nearness"):
        build(dirac(), math.nan)


def test_linear_operator_converges_in_one_iteration():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    u, trace = campanato_solve(_linear_anchor_operator(dirac()), f, tol=1e-10)
    assert trace.converged
    assert trace.iterations == 1
    assert trace.residual[-1] <= 1e-10


def test_constant_shift_solves_to_zero():
    # F(x, 0) = c and f = c leave nothing to solve once the mean is dropped
    A = dirac()
    c = np.array([0.3, -0.2, 0.1, 0.05])

    def shifted(x, Q):
        return np.broadcast_to(c, np.shape(Q)[:-1])

    F = NonlinearOperator(perturbation=shifted, anchor=A, support=(), declared_nearness=0.0, name="shifted")
    grid = PeriodicGrid(n=3, G=8)
    f = GridFunction(grid, np.broadcast_to(c.reshape(4, 1, 1, 1), (4,) + grid.shape).copy())
    u, trace = campanato_solve(F, f, tol=1e-10)
    assert trace.converged
    assert np.max(np.abs(u.values)) <= 1e-12
    # the constant cancels inside g_k before the solve ever sees it
    assert trace.dropped_mean_norm[0] <= 1e-15


def test_x_dependent_shift_mean_is_logged():
    # F(x, 0) = (1 + cos(2 pi x1)) e1 with f = 0: the mean-1 part is
    # incompatible on the torus, gets dropped each step, and is reported
    A = dirac()

    def shifted(x, Q):
        x = np.asarray(x, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], np.shape(Q)[:-2]) + (4,))
        out[..., 0] = 1.0 + np.cos(2 * np.pi * x[..., 0])
        return out

    F = NonlinearOperator(perturbation=shifted, anchor=A, support=(), declared_nearness=0.0, name="x-shift")
    grid = PeriodicGrid(n=3, G=8)
    u, trace = campanato_solve(F, GridFunction.zeros(grid, 4), tol=1e-10)
    assert trace.converged
    assert trace.dropped_mean_norm[0] == pytest.approx(1.0, abs=1e-12)
    # the oscillating part is solvable: A:Du = -cos(2 pi x1) e1
    x = grid.points()
    expected = np.zeros((4,) + grid.shape)
    expected[0] = -np.sin(2 * np.pi * x[0]) / (2 * np.pi)
    np.testing.assert_allclose(u.values, expected, atol=1e-12)


def test_contraction_tracks_declared_rate():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    u, trace = campanato_solve(F, f, tol=1e-10)
    assert trace.converged
    assert trace.iterations <= 40
    assert trace.margin.K == pytest.approx(0.5, abs=1e-9)
    ratios = [r for r in trace.ratio if not math.isnan(r)]
    assert max(ratios) <= 0.55
    # fixed point solves the equation
    assert trace.residual[-1] <= 10 * 1e-10


def test_tanh_trace_shape_converges():
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    F = lipschitz_perturbation(dirac(), 0.5, "tanh_trace")
    _, trace = campanato_solve(F, f, tol=1e-10)
    assert trace.converged
    assert max(r for r in trace.ratio if not math.isnan(r)) <= 0.55


def test_trace_d_decreasing_above_floor():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    _, trace = campanato_solve(F, f, tol=1e-10)
    floor = 1e-13 * norm_l2(f)
    for a, b in zip(trace.d, trace.d[1:]):
        if b > floor:
            assert b < a


def test_uniqueness_from_two_starts():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    u0 = random_band_limited(grid, 4, rng_from_seed(5))
    ua, _ = campanato_solve(F, f, tol=1e-10)
    ub, _ = campanato_solve(F, f, tol=1e-10, u0=u0)
    assert norm_l2(gradient(ua - ub)) <= 10 * 1e-10 * norm_l2(f)


def test_variable_coefficient_operator_converges():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    F = variable_linear(dirac(), 0.05)
    u, trace = campanato_solve(F, f, tol=1e-10)
    assert trace.converged
    assert trace.margin.K == pytest.approx(0.05, abs=1e-9)
    assert trace.residual[-1] <= 1e-8


def test_divergence_detected_with_trace():
    A = dirac()
    # the declared bound is a lie: the increments overshoot by 1.5 nu(A)
    F = NonlinearOperator(
        perturbation=lambda x, Q: 1.5 * contract(A, np.asarray(Q)),
        anchor=A,
        declared_nearness=0.5,
        name="overdriven",
    )
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    with pytest.raises(DivergenceError) as exc:
        campanato_solve(F, f, tol=1e-10, max_iter=50)
    assert exc.value.trace.iterations >= 3
    assert not exc.value.trace.converged


def test_non_finite_F_fails_fast_with_witness():
    A = dirac()
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)  # the first iterate has Q_11 = sin(2 pi x1)

    def nan_above(x, Q):
        Q = np.asarray(Q)
        out = np.zeros(Q.shape[:-1])
        out[np.abs(Q[..., 0, 0]) > 0.1] = np.nan
        return out

    def nan_right_half(x, Q):
        out = np.zeros(np.shape(Q)[:-1])
        out[np.asarray(x)[..., 0] >= 0.5] = np.nan
        return out

    grid_calls = []

    def nan_from_step_3(x, Q):
        # finite until its third evaluation on the grid, the third step's; NaN at one grid point from then on
        Q = np.asarray(Q)
        out = 0.25 * np.sin(Q[..., :, 0])
        if Q.shape[:-2] == grid.shape:
            grid_calls.append(len(grid_calls) + 1)
            if len(grid_calls) >= 3:
                out[2, 5, 1, 3] = np.nan
        return out

    # the first bad grid index in row-major order: x1 = 1/8, then x1 = 1/2; the third Phi at one point
    cases = ((nan_above, 1, (1, 0, 0)), (nan_right_half, 0, (4, 0, 0)), (nan_from_step_3, 3, "3, grid index (2, 5, 1)"))
    for perturbation, step, index in cases:
        F = NonlinearOperator(perturbation=perturbation, anchor=A, declared_nearness=0.5)
        with pytest.raises(DivergenceError) as exc:
            campanato_solve(F, f, tol=1e-10)
        assert f"step {step}," in str(exc.value)
        assert str(index) in str(exc.value)
        assert exc.value.trace.iterations == max(step - 1, 0)
        assert not exc.value.trace.converged
    # the step's residual norm turned non-finite, and only then was Phi taken again to locate the NaN
    assert grid_calls == [1, 2, 3, 4]


@pytest.mark.parametrize("rows, component", [(None, 0), ((2,), 2)], ids=["every_row", "row_2"])
def test_non_finite_F_on_the_grid_is_refused_with_witness(rows, component):
    # Phi is NaN where x1 >= 1/2, first at grid index (4, 0, 0); the witness names F's
    # component, not the position among Phi's rows
    A = dirac()
    grid = PeriodicGrid(n=3, G=8)

    def nan_right_half(x, Q):
        out = np.zeros(np.shape(Q)[:-2] + (1 if rows else 4,))
        out[np.asarray(x)[..., 0] >= 0.5] = np.nan
        return out

    F = NonlinearOperator(perturbation=nan_right_half, anchor=A, declared_nearness=0.5, rows=rows)
    w, v = (random_band_limited(grid, 4, rng_from_seed(seed)) for seed in (1, 2))
    where = f"component {component}, grid index (4, 0, 0)"
    for check in (lambda: verify_comparison(F, w, v), lambda: near_operator_check(F, [(w, v)])):
        with pytest.raises(ValueError, match=re.escape(f"F - A is not finite at {where}") + "$"):
            check()
    with pytest.raises(DivergenceError, match=re.escape(f"F is not finite at step 0, first at {where}") + "$"):
        campanato_solve(F, single_mode_rhs(grid, 4), tol=1e-10)


@pytest.mark.parametrize("what", ["right-hand side", "u0"])
def test_non_finite_rhs_or_start_rejected_with_witness(what):
    grid = PeriodicGrid(n=3, G=8)
    f = single_mode_rhs(grid, 4)
    bad = random_band_limited(grid, 4, rng_from_seed(5)).values
    bad[1, 2, 3, 4] = np.nan
    bad = GridFunction(grid, bad)
    kwargs = {"f": bad} if what == "right-hand side" else {"f": f, "u0": bad}
    with pytest.raises(ValueError, match=rf"^{what} is not finite at component 1, grid index \(2, 3, 4\)$"):
        campanato_solve(_linear_anchor_operator(dirac()), tol=1e-10, **kwargs)


def test_solves_on_one_plan_share_no_buffer():
    # each solve owns its transform buffers: two solves on one plan, with a
    # gradient on the same grid between them, equal fresh solves byte for
    # byte, and the second leaves the first's outputs untouched
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    grid = PeriodicGrid(n=3, G=8)
    f1, f2 = (random_band_limited(grid, 4, rng_from_seed(seed)) for seed in (1, 2))

    def columns(trace):
        return np.array([trace.d, trace.ratio, trace.residual, trace.dropped_mean_norm]).tobytes()

    fresh = [campanato_solve(F, f, tol=1e-10, plan=MultiplierPlan(F.anchor, grid)) for f in (f1, f2)]
    plan = MultiplierPlan(F.anchor, grid)
    u1, trace1 = campanato_solve(F, f1, tol=1e-10, plan=plan)
    kept = u1.values.tobytes(), columns(trace1)
    gradient(f2)
    u2, trace2 = campanato_solve(F, f2, tol=1e-10, plan=plan)
    assert (u1.values.tobytes(), columns(trace1)) == kept
    for (u, trace), (u_ref, trace_ref) in zip(((u1, trace1), (u2, trace2)), fresh):
        assert u.values.tobytes() == u_ref.values.tobytes()
        assert columns(trace) == columns(trace_ref)
        assert trace.message == trace_ref.message
    assert not np.array_equal(u1.values, u2.values)


def test_plan_for_another_tensor_or_grid_rejected():
    A = dirac()
    grid = PeriodicGrid(n=3, G=8)
    F = _linear_anchor_operator(A)
    f = single_mode_rhs(grid, 4)
    other_tensor = MultiplierPlan(ConstantTensor(2.0 * A.entries), grid)
    other_grid = MultiplierPlan(A, PeriodicGrid(n=3, G=16))
    for plan in (other_tensor, other_grid):
        with pytest.raises(ValueError):
            campanato_solve(F, f, plan=plan)


def test_no_margin_rejected_before_iterating():
    A = dirac()
    F = NonlinearOperator(
        perturbation=lambda x, Q: 1.5 * contract(A, np.asarray(Q)),
        anchor=A,
        name="overdriven",
    )
    grid = PeriodicGrid(n=3, G=8)
    with pytest.raises(NonEllipticError):
        campanato_solve(F, single_mode_rhs(grid, 4), tol=1e-10)


@pytest.mark.parametrize(
    "tol, max_iter",
    [(0.0, 400), (-1.0, 400), (math.nan, 400), (math.inf, 400), (1e-10, 0)]
    + [(1e-10, 2.5), (1e-10, True), ("1e-10", 400)],
)
def test_bad_solver_settings_rejected(monkeypatch, tol, max_iter):
    # refused before any work: no transform of f is taken
    f = single_mode_rhs(PeriodicGrid(n=3, G=8), 4)
    monkeypatch.setattr(SpectralCore, "forward", lambda *args, **kwargs: pytest.fail("transformed f"))
    with pytest.raises(ValueError, match="tol > 0 and max_iter >= 1"):
        campanato_solve(_linear_anchor_operator(dirac()), f, tol=tol, max_iter=max_iter)


def test_numpy_solver_settings_accepted():
    f = single_mode_rhs(PeriodicGrid(n=3, G=8), 4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    _, trace = campanato_solve(F, f, tol=np.float64(1e-10), max_iter=np.int64(2))
    assert trace.iterations == 2 and trace.message == "stopped at max_iter = 2 without meeting tolerance"


def test_component_mismatch_rejected():
    grid = PeriodicGrid(n=3, G=8)
    f = GridFunction.zeros(grid, 3)
    with pytest.raises(ValueError):
        campanato_solve(_linear_anchor_operator(dirac()), f)


@pytest.mark.parametrize(
    "grid, components, match",
    [
        (PeriodicGrid(n=3, G=8, L=2.0), 4, "u0 lives on"),
        (PeriodicGrid(n=3, G=16), 4, "u0 lives on"),
        (PeriodicGrid(n=3, G=8), 3, "u0 must have 4 components, got 3"),
    ],
)
def test_start_field_must_match_rhs(grid, components, match):
    f = single_mode_rhs(PeriodicGrid(n=3, G=8), 4)
    u0 = random_band_limited(grid, components, rng_from_seed(5))
    with pytest.raises(ValueError, match=match):
        campanato_solve(_linear_anchor_operator(dirac()), f, u0=u0)


def test_contraction_metric_unitary_symbol():
    # the Dirac direction matrices are orthogonal, so the metric
    # d(u, v) = |A:Du - A:Dv|_2 equals the gradient gap
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(6)
    A = dirac()
    u = random_band_limited(grid, 4, rng)
    v = random_band_limited(grid, 4, rng)
    d = norm_l2(apply_tensor(A, gradient(u)) - apply_tensor(A, gradient(v)))
    assert d == pytest.approx(norm_l2(gradient(u - v)), rel=1e-12)


def test_coercivity_chain():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(7)
    A = dirac()
    nu = cached_nu(A)
    top = operator_norm(A)
    for _ in range(5):
        u = random_band_limited(grid, 4, rng)
        v = random_band_limited(grid, 4, rng)
        d = norm_l2(apply_tensor(A, gradient(u)) - apply_tensor(A, gradient(v)))
        gap = norm_l2(gradient(u - v))
        assert nu * gap - 1e-10 <= d <= top * gap + 1e-10


def test_comparison_bound_on_random_pairs():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(8)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    for _ in range(10):
        w = random_band_limited(grid, 4, rng)
        v = random_band_limited(grid, 4, rng)
        rep = verify_comparison(F, w, v)
        assert rep.ratio <= 1.0 + 1e-9
    same = verify_comparison(F, w, w)
    assert same.ratio == 0.0


def test_comparison_needs_declared_nearness():
    A = dirac()
    F = NonlinearOperator(perturbation=_zero, anchor=A)
    grid = PeriodicGrid(n=3, G=8)
    w = single_mode_rhs(grid, 4)
    with pytest.raises(ValueError):
        verify_comparison(F, w, w)


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_solver_and_comparison_share_the_margin_gate(lam):
    # lam = 1 declares a nearness of exactly nu(A), which leaves no margin
    F = lipschitz_perturbation(dirac(), lam, "sin_q11")
    w = single_mode_rhs(PeriodicGrid(n=3, G=8), 4)
    with pytest.raises(NonEllipticError) as solve:
        campanato_solve(F, w)
    with pytest.raises(NonEllipticError) as compare:
        verify_comparison(F, w, w)
    with pytest.raises(NonEllipticError) as near:
        near_operator_check(F, [(w, w)])
    assert str(solve.value) == str(compare.value) == str(near.value)
    assert str(solve.value).startswith("no contraction margin: nearness ")


def test_near_operator_check_refuses_a_zero_anchor():
    # nu(A) = 0, so K = nearness / nu(A) would divide by zero
    F = _linear_anchor_operator(ConstantTensor(np.zeros((2, 2, 2))), declared=0.5)
    w = single_mode_rhs(PeriodicGrid(n=2, G=8), 2)
    with pytest.raises(NonEllipticError, match="no contraction margin: nearness 0.5 >= nu"):
        near_operator_check(F, [(w, w)])


def test_near_operator_inequality():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(9)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    pairs = [
        (random_band_limited(grid, 4, rng), random_band_limited(grid, 4, rng)) for _ in range(10)
    ]
    rep = near_operator_check(F, pairs)
    assert rep.violations == 0
    assert rep.K == pytest.approx(0.5, abs=1e-9)
    assert 0.0 < rep.max_ratio <= 1.0


def test_near_operator_check_reads_pairs_drawn_lazily():
    # efos verify passes a generator, so each pair is drawn only when it is checked; the
    # draws come in the same order as a list's, and the report is the same to the bit
    grid = PeriodicGrid(n=3, G=8)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")

    def draws(rng):
        return ((random_band_limited(grid, 4, rng), random_band_limited(grid, 4, rng)) for _ in range(4))

    lazy = near_operator_check(F, draws(rng_from_seed(13)))
    assert lazy == near_operator_check(F, list(draws(rng_from_seed(13))))
    assert lazy.pairs == 4 and lazy.max_ratio > 0


def test_near_operator_identical_operator():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(10)
    F = _linear_anchor_operator(dirac(), declared=0.0)
    pairs = [(random_band_limited(grid, 4, rng), random_band_limited(grid, 4, rng))]
    rep = near_operator_check(F, pairs)
    assert rep.violations == 0


@pytest.mark.parametrize(
    "lhs, rhs, want",
    [(0.0, 0.0, 0.0), (3.0, 0.0, math.inf), (1e-300, 0.0, math.inf), (3.0, 4.0, 0.75), (0.0, 2.0, 0.0)],
)
def test_pair_ratio_closed_forms(lhs, rhs, want):
    # a left side of 1e-300 against a zero right side is a violation: no absolute floor forgives it
    assert nonlinear._pair_ratio(lhs, rhs) == want


def test_near_operator_check_scores_a_field_against_itself_zero():
    u = random_band_limited(PeriodicGrid(n=3, G=8), 4, rng_from_seed(11))
    rep = near_operator_check(lipschitz_perturbation(dirac(), 0.5, "sin_q11"), [(u, u)])
    assert (rep.violations, rep.max_ratio) == (0, 0.0)


def test_near_operator_check_reports_a_nan_ratio_as_a_violation_and_the_max(monkeypatch):
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(12)
    pairs = [(random_band_limited(grid, 4, rng), random_band_limited(grid, 4, rng)) for _ in range(3)]
    ratios = iter([0.5, math.nan, 0.25])
    monkeypatch.setattr(nonlinear, "_pair_ratio", lambda lhs, rhs: next(ratios))
    rep = near_operator_check(lipschitz_perturbation(dirac(), 0.5, "sin_q11"), pairs)
    assert (rep.pairs, rep.violations) == (3, 1)
    assert math.isnan(rep.max_ratio)


@pytest.mark.parametrize("component", [2, 0], ids=["unread_by_phi", "read_by_phi"])
def test_pair_checks_name_a_non_finite_field(component):
    # the field is refused by its name first: a NaN that Phi does not read would otherwise reach the
    # pair's score, and one that Phi reads spreads through the gradient and would be blamed on F - A
    grid = PeriodicGrid(n=3, G=8)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    rng = rng_from_seed(1)
    w, v = random_band_limited(grid, 4, rng), random_band_limited(grid, 4, rng)
    bad = w.values.copy()
    bad[component, 1, 1, 1] = np.nan
    bad = GridFunction(grid, bad)
    where = re.escape(f" is not finite at component {component}, grid index (1, 1, 1)") + "$"
    with pytest.raises(ValueError, match="^w" + where):
        verify_comparison(F, bad, v)
    with pytest.raises(ValueError, match="^v" + where):
        verify_comparison(F, w, bad)
    with pytest.raises(ValueError, match="^" + re.escape("pairs[1][0]") + where):
        near_operator_check(F, [(w, v), (bad, v)])
    with pytest.raises(ValueError, match="^" + re.escape("pairs[0][1]") + where):
        near_operator_check(F, [(w, bad)])


def test_pair_checks_need_one_grid_and_the_anchor_width():
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    rng = rng_from_seed(2)
    w = random_band_limited(PeriodicGrid(n=3, G=8), 4, rng)
    elsewhere = random_band_limited(PeriodicGrid(n=3, G=8, L=2.0), 4, rng)
    narrow = random_band_limited(PeriodicGrid(n=3, G=8), 3, rng)
    with pytest.raises(ValueError, match="^v lives on .*, not on "):
        verify_comparison(F, w, elsewhere)
    with pytest.raises(ValueError, match=re.escape("pairs[0][1] must have 4 components, got 3") + "$"):
        near_operator_check(F, [(w, narrow)])


def _reference_picard(F, f, tol, u0=None, max_iter=400):
    """The Picard loop written with the public linear solve: each step
    solves for u_{k+1} in physical space and differentiates it again."""
    A = F.anchor
    norm_f = norm_l2(f)
    u = GridFunction.zeros(f.grid, A.N) if u0 is None else u0
    Au = apply_tensor(A, gradient(u))
    d, residual = [], []
    for _ in range(max_iter):
        rhs = GridFunction(f.grid, Au.values - F.apply_to_gradient(gradient(u)).values + f.values)
        u, _ = solve_linear(A, rhs)
        Du = gradient(u)
        Au_next = apply_tensor(A, Du)
        d.append(norm_l2(Au_next - Au))
        Au = Au_next
        Fu = F.apply_to_gradient(Du)
        mean = (f - Fu).values.mean(axis=(1, 2, 3))
        target = f.values - mean.reshape((-1, 1, 1, 1))
        res, scale = norm_l2(GridFunction(f.grid, Fu.values - target)), norm_l2(GridFunction(f.grid, target))
        residual.append(res / scale)
        if res <= tol * scale or d[-1] <= tol * norm_f:
            return u, d, residual, True
    return u, d, residual, False


def test_coefficient_space_loop_matches_physical_space_reference():
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    grid = PeriodicGrid(n=3, G=16)
    noise = rng_from_seed(3).standard_normal((2, 4) + grid.shape)
    # band-limited f from zero; then white-noise f + 0.3 (Nyquist leak, a
    # dropped mean) from a white-noise u0 (a mean and Nyquist content)
    cases = [
        (random_band_limited(grid, 4, rng_from_seed(2)), None),
        (GridFunction(grid, noise[0] + 0.3), GridFunction(grid, noise[1])),
    ]
    for f, u0 in cases:
        u, trace = campanato_solve(F, f, tol=1e-10, u0=u0)
        u_ref, d_ref, res_ref, converged_ref = _reference_picard(F, f, tol=1e-10, u0=u0)
        assert trace.converged and converged_ref
        assert trace.iterations == len(d_ref)
        assert np.max(np.abs(u.values - u_ref.values)) <= 1e-14
        # below 1e-6 d_1 the step metric is a difference at rounding level
        for k in range(1, len(d_ref)):
            if d_ref[k] >= 1e-6 * d_ref[0]:
                assert abs(trace.ratio[k] - d_ref[k] / d_ref[k - 1]) <= 1e-9
        np.testing.assert_allclose(trace.residual, res_ref, rtol=0, atol=1e-12)


def _assert_matches_reference(F, f, u0=None):
    u, trace = campanato_solve(F, f, tol=1e-10, u0=u0)
    u_ref, d_ref, _, converged_ref = _reference_picard(F, f, tol=1e-10, u0=u0)
    assert trace.converged and converged_ref
    assert trace.iterations == len(d_ref)
    assert np.max(np.abs(u.values - u_ref.values)) <= 1e-14
    return trace


def _expression_operator(A):
    # dirac plus 0.3 sin(q11) in the first equation, written out as the
    # config expressions the CLI compiles
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read_string(
        """
[nonlinear]
f1 = q11 + q22 + q33 + 0.3 * sin(q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
lambda = 0.3
"""
    )
    return build_operator(cfg, A)


def _row_switching_operator(A):
    # row 2 of Phi is 0.4 sin(Q_11): exactly zero at the start Du = 0 and
    # nonzero from step 1 on, so the set of transformed rows changes
    def perturbation(x, Q):
        x, Q = np.asarray(x, dtype=float), np.asarray(Q, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], Q.shape[:-2]) + (4,))
        out[..., 0] = 0.3 * np.cos(2 * np.pi * x[..., 0])
        out[..., 1] = 0.4 * np.sin(Q[..., 0, 0])
        return out

    return NonlinearOperator(perturbation=perturbation, anchor=A, support=((0, 0),), declared_nearness=0.4)


def _gapped_support_operator(A):
    # reads Q_11 and Q_23, gradient rows 0 and 5: a support that is not one run of rows
    def perturbation(x, Q):
        Q = np.asarray(Q, dtype=float)
        out = np.zeros(Q.shape[:-2] + (4,))
        out[..., 0] = 0.3 * np.sin(Q[..., 0, 0])
        out[..., 2] = 0.3 * np.tanh(Q[..., 1, 2])
        return out

    return NonlinearOperator(perturbation=perturbation, anchor=A, support=((1, 2), (0, 0)), declared_nearness=0.3)


@pytest.mark.parametrize(
    "build, support",
    [
        (lambda A: lipschitz_perturbation(A, 0.5, "tanh_trace"), ((0, 0), (0, 1), (0, 2))),
        (lambda A: variable_linear(A, 0.3), ((0, 0),)),
        (_expression_operator, tuple(np.ndindex(4, 3))),  # the default: every entry
        (_row_switching_operator, ((0, 0),)),
        (_gapped_support_operator, ((0, 0), (1, 2))),
    ],
    ids=["tanh_trace", "variable_linear", "expression", "row_switching", "gapped_support"],
)
def test_support_loop_matches_physical_space_reference(build, support):
    F = build(dirac())
    assert F.support == support
    grid = PeriodicGrid(n=3, G=8)
    _assert_matches_reference(F, random_band_limited(grid, 4, rng_from_seed(2)))


def _nonzero_start_operator(A):
    # row 1 of Phi is 0.3 cos(Q_11), which does not read x: 0.3 at the start
    # Du = 0, so the one point that decides the start finds it not zero
    def perturbation(x, Q):
        return 0.3 * np.cos(np.asarray(Q, dtype=float)[..., 0, 0])[..., None]

    return NonlinearOperator(perturbation=perturbation, anchor=A, support=((0, 0),), rows=(1,), declared_nearness=0.3)


@pytest.mark.parametrize(
    "build, start_transforms",
    [
        (lambda A: lipschitz_perturbation(A, 0.5, "sin_q11"), 0),
        (_row_switching_operator, 1),
        (_nonzero_start_operator, 1),
    ],
    ids=["sin_q11", "row_switching", "nonzero_start"],
)
def test_picard_transform_counts(monkeypatch, build, start_transforms):
    # f^ once, the start's Phi^ only where Phi(., 0) is not zero everywhere,
    # then one Phi^ and one derivative pass a step, and the iterate once
    F = build(dirac())
    f = random_band_limited(PeriodicGrid(n=3, G=8), 4, rng_from_seed(2))
    counts = dict.fromkeys(("forward", "derivatives", "inverse"), 0)
    for name in counts:

        def counted(self, *args, _name=name, _method=getattr(SpectralCore, name), **kwargs):
            counts[_name] += 1
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(SpectralCore, name, counted)
    _, trace = campanato_solve(F, f, tol=1e-10)
    it = trace.iterations
    assert counts == {"forward": 1 + start_transforms + it, "derivatives": it, "inverse": 1}
    monkeypatch.undo()
    _assert_matches_reference(F, f)


@pytest.mark.parametrize("max_iter", [1, 400])
@pytest.mark.parametrize("rhs", ["band", "zero", "mode"])
@pytest.mark.parametrize("A, G", [(dirac(), 8), (cauchy_riemann(), 16)], ids=["dirac-8", "cr-16"])
def test_untransformed_zero_start_solves_bit_identically(monkeypatch, A, G, rhs, max_iter):
    # the skipped start writes +0.0 where rfftn of zeros leaves some -0.0
    # imaginary parts; no sign of zero may reach u or the trace
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    grid = PeriodicGrid(n=A.n, G=G)
    f = {
        "band": random_band_limited(grid, A.N, rng_from_seed(2)),
        "zero": GridFunction.zeros(grid, A.N),
        "mode": single_mode_rhs(grid, A.N),
    }[rhs]
    u, trace = campanato_solve(F, f, tol=1e-10, max_iter=max_iter)

    # the reference start is transformed: every value of Phi reports itself not zero, so _start takes its
    # transform path, and the solve runs on the same values
    class NotZero(np.ndarray):
        def any(self, *args, **kwargs):
            return True

    values = nonlinear._perturbation_values
    monkeypatch.setattr(nonlinear, "_perturbation_values", lambda *args, **kw: values(*args, **kw).view(NotZero))
    u_ref, trace_ref = campanato_solve(F, f, tol=1e-10, max_iter=max_iter)
    assert u.values.tobytes() == u_ref.values.tobytes()
    for column in ("d", "ratio", "residual", "dropped_mean_norm"):
        assert np.array(getattr(trace, column)).tobytes() == np.array(getattr(trace_ref, column)).tobytes(), column
    assert (trace.iterations, trace.message) == (trace_ref.iterations, trace_ref.message)


def test_slow_contraction_does_not_drift():
    # lam 0.95 takes some 300 steps; each iterate is formed afresh from
    # f and Phi, so nothing accumulates against the reference
    F = lipschitz_perturbation(dirac(), 0.95, "sin_q11")
    trace = _assert_matches_reference(F, single_mode_rhs(PeriodicGrid(n=3, G=16), 4))
    assert trace.iterations > 250


def test_support_omitting_a_read_entry_rejected():
    A = dirac()

    def reads_q23(x, Q):
        out = np.zeros(np.shape(Q)[:-1])
        out[..., 0] = np.sin(np.asarray(Q)[..., 0, 0]) + 0.1 * np.tanh(np.asarray(Q)[..., 1, 2])
        return out

    with pytest.raises(ValueError, match=r"reads gradient entry \(1, 2\)"):
        NonlinearOperator(perturbation=reads_q23, anchor=A, support=((0, 0),))
    F = NonlinearOperator(perturbation=reads_q23, anchor=A, support=((1, 2), (0, 0)))
    assert F.support == ((0, 0), (1, 2))
    with pytest.raises(ValueError, match="need beta < 4 and j < 3"):
        NonlinearOperator(perturbation=reads_q23, anchor=A, support=((0, 0), (1, 2), (0, 3)))


def _row_operators(A, rows):
    """The same Phi, 0.5 nu(A) sin(Q[a, a mod n]) on each of ``rows``,
    declared once with those rows and once full-width, zero columns included."""
    amp = 0.5 * cached_nu(A)

    def narrow(x, Q):
        Q = np.asarray(Q, dtype=float)
        return amp * np.sin(Q[..., rows, [a % A.n for a in rows]])

    def full_width(x, Q):
        phi = narrow(x, Q)
        out = np.zeros(phi.shape[:-1] + (A.N,))
        out[..., rows] = phi
        return out

    support = tuple((a, a % A.n) for a in rows)
    return (
        NonlinearOperator(perturbation=narrow, anchor=A, support=support, declared_nearness=amp, rows=rows),
        NonlinearOperator(perturbation=full_width, anchor=A, support=support, declared_nearness=amp),
    )


def _full_width_leak(core, base, rows):
    """SpectralCore.residual_leak's function, as norms of the full-width residual R = S - base, S holding X
    in its ``rows`` and zero in the others."""

    def leak(X):
        R = np.subtract(0.0, base)
        R[list(rows)] = X - base[list(rows)]
        return core.norms(R)[1]

    return leak


def _narrow_and_full_width_solves(monkeypatch, A, G, rows, with_u0, scale):
    """Assert that a solve of Phi on its ``rows`` gives the bytes of the same
    Phi declared full-width and of a step that takes SpectralCore.norms of the
    full-width residual R afresh, on white noise times ``scale``: it puts
    Nyquist and mean content on every row, so the rows that Phi leaves alone
    carry a residual that a reordered leak sum would change.  Returns
    (narrow Phi, f, u0, trace)."""
    narrow, full_width = _row_operators(A, list(rows))
    assert narrow.rows == rows and full_width.rows == tuple(range(A.N))
    grid = PeriodicGrid(n=A.n, G=G)
    rng = rng_from_seed(11)
    f = GridFunction(grid, scale * rng.standard_normal((A.N,) + grid.shape))
    u0 = GridFunction(grid, scale * rng.standard_normal((A.N,) + grid.shape)) if with_u0 else None
    u, trace = campanato_solve(narrow, f, tol=1e-10, u0=u0)
    references = [campanato_solve(full_width, f, tol=1e-10, u0=u0)]
    with monkeypatch.context() as m:
        m.setattr(SpectralCore, "residual_leak", _full_width_leak)
        references.append(campanato_solve(narrow, f, tol=1e-10, u0=u0))
    for u_ref, trace_ref in references:
        assert u.values.tobytes() == u_ref.values.tobytes()
        for column in ("d", "ratio", "residual", "dropped_mean_norm"):
            assert np.array(getattr(trace, column)).tobytes() == np.array(getattr(trace_ref, column)).tobytes(), column
        assert (trace.iterations, trace.message) == (trace_ref.iterations, trace_ref.message)
    assert trace.dropped_mean_norm[0] > 0 and trace.iterations > 1
    return narrow, f, u0, trace


@pytest.mark.parametrize("with_u0", [False, True], ids=["from_zero", "from_u0"])
@pytest.mark.parametrize(
    "A, G, rows",
    [
        (dirac(), 8, (0,)),
        (dirac(), 8, (2,)),
        (dirac(), 8, (0, 3)),
        (dirac(), 8, ()),
        (cauchy_riemann(), 16, (1,)),
        (dirac(), 8, (1,)),
        (dirac(), 8, (0, 2)),
    ],
    ids=["dirac-0", "dirac-2", "dirac-0-3", "dirac-none", "cr-1", "dirac-1", "dirac-0-2"],
)
def test_narrow_and_full_width_rows_solve_identically(monkeypatch, A, G, rows, with_u0):
    # a constant row before Phi's first row, or between two of its rows, has its
    # Nyquist squares taken once per solve, and they join the leak sum in row order
    _narrow_and_full_width_solves(monkeypatch, A, G, rows, with_u0, 1.0)


@pytest.mark.parametrize("with_u0", [False, True], ids=["from_zero", "from_u0"])
@pytest.mark.parametrize("rows", [(1,), (0, 2)], ids=["one", "gapped"])
def test_narrow_and_full_width_rows_keep_the_fallback_bits(monkeypatch, rows, with_u0):
    # scaled by 2**-700, the squares fall into the subnormals, so every step's leak
    # sum leaves the plain range and the step takes SpectralCore.leak_norm of every row,
    # as the set-up does once for f^'s norms
    narrow, f, u0, trace = _narrow_and_full_width_solves(monkeypatch, dirac(), 8, rows, with_u0, 2.0**-700)
    calls = []
    leak_norm = SpectralCore.leak_norm
    monkeypatch.setattr(SpectralCore, "leak_norm", lambda self, leak: calls.append(len(leak)) or leak_norm(self, leak))
    campanato_solve(narrow, f, tol=1e-10, u0=u0)
    assert calls == [4] * (1 + trace.iterations)


def test_bad_rows_declarations_refused():
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "sin_q11")  # returns one column, component 0
    with pytest.raises(ValueError, match=r"for its rows \(0, 1\); need \(\.\.\., 2\)"):
        NonlinearOperator(perturbation=F.perturbation, anchor=A, support=F.support, rows=(1, 0))
    with pytest.raises(ValueError, match=r"for its rows \(0, 1, 2, 3\); need \(\.\.\., 4\)"):
        NonlinearOperator(perturbation=F.perturbation, anchor=A, support=F.support)
    with pytest.raises(ValueError, match=r"for its rows \(\); need \(\.\.\., 0\)"):
        NonlinearOperator(perturbation=F.perturbation, anchor=A, support=F.support, rows=())
    for rows in ((4,), (-1,), (0, 0)):
        with pytest.raises(ValueError, match=re.escape(f"rows must be distinct output components below 4, got {rows}")):
            NonlinearOperator(perturbation=F.perturbation, anchor=A, support=F.support, rows=rows)
    assert NonlinearOperator(perturbation=F.perturbation, anchor=A, support=F.support, rows=[0]).rows == (0,)


# u* has retained modes only, so it solves the discrete problem exactly and,
# under the margin, uniquely: the solve at tol 1e-12 returns it up to the
# stopping error, measured at most 6.9e-13 in |D(u - u*)| / |Du*| on these
# twelve cases (6.8e-13 on the quaternion symbol at n = 4).  The bound 1e-10
# covers a contraction at K = 0.9 stopped at tol 1e-12, whose error may reach
# K / (1 - K) = 9 times its last step.
@pytest.mark.parametrize(
    "operator",
    [
        lambda A: lipschitz_perturbation(A, 0.5, "sin_q11"),
        lambda A: lipschitz_perturbation(A, 0.9, "tanh_trace"),
        lambda A: variable_linear(A, 0.3),
    ],
    ids=["sin_q11-0.5", "tanh_trace-0.9", "variable_linear-0.3"],
)
@pytest.mark.parametrize(
    "A, G",
    [
        (dirac(), 16),
        (cauchy_riemann(), 64),
        (generalized_cauchy_riemann(2, 1, 1, 1), 32),
        (ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1)), 8),
    ],
    ids=["dirac-16", "cr-64", "gcr2111-32", "quaternion-8"],
)
def test_manufactured_solution_is_recovered(A, G, operator):
    F = operator(A)
    grid = PeriodicGrid(n=A.n, G=G)
    u_star = random_band_limited(grid, A.N, rng_from_seed(G))
    Du_star = gradient(u_star)
    f = F.apply_to_gradient(Du_star)  # F(x, Du*) pointwise, aliasing and all
    u, trace = campanato_solve(F, f, tol=1e-12)
    assert trace.converged
    assert norm_l2(gradient(u) - Du_star) <= 1e-10 * norm_l2(Du_star)


# the fixed point and the contraction metric are homogeneous in f, so neither the seed, the level below the
# margin nor the amplitude 10^k may move the recovery; before the one sum-of-squares rule the solve stopped
# after one step 6-20% off at k <= -200 and warned of an overflow at k >= 200.  Where sin is near linear (10^k
# small) the step contracts by about lam, and K = 0.95 needs log(1e-12) / log(0.95) = 539 steps to reach tol.
@given(
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.0, 0.95, exclude_min=True),
    k=st.integers(-300, 300),
    shape=st.sampled_from(["sin_q11", "tanh_trace", "variable_linear"]),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_manufactured_solution_is_recovered_at_every_amplitude(seed, lam, k, shape):
    F = variable_linear(dirac(), lam) if shape == "variable_linear" else lipschitz_perturbation(dirac(), lam, shape)
    grid = PeriodicGrid(n=3, G=8)
    u_star = GridFunction(grid, 10.0**k * random_band_limited(grid, 4, rng_from_seed(seed)).values)
    Du_star = gradient(u_star)
    u, trace = campanato_solve(F, F.apply_to_gradient(Du_star), tol=1e-12, max_iter=600)
    assert trace.converged
    assert norm_l2(gradient(u) - Du_star) <= 1e-10 * norm_l2(Du_star)


def _carried(F, perm, signs):
    """F carried along x'_j = s_j x_perm(j): the anchor A'[a, b, j] = A[a, b, perm(j)] s_j and
    Phi'(x', Q') = Phi(x, Q) with Q[b, perm(j)] = s_j Q'[b, j], as a full-support operator."""
    inverse = np.argsort(perm)

    def perturbation(x, Q):
        return F.scatter(F.perturbation(x, (np.asarray(Q, dtype=float) * signs)[..., inverse]))

    anchor = ConstantTensor(F.anchor.entries[:, :, list(perm)] * signs)
    return NonlinearOperator(perturbation=perturbation, anchor=anchor, declared_nearness=F.declared_nearness)


def _carry_field(values, perm, signs):
    """Grid values (C, G, ..., G) of v'(x') = v(x): axis j of v' is axis perm(j) of v, and a sign flip
    maps index i to (-i) mod G."""
    out = np.transpose(values, (0, *(1 + p for p in perm)))
    for j, s in enumerate(signs):
        if s < 0:
            out = np.roll(np.flip(out, axis=j + 1), 1, axis=j + 1)
    return out


def _trace_gap(trace, moved):
    """The largest gap between two traces' d, residual and dropped-mean columns, each relative to its
    own largest entry or to d_1, whichever is larger: late steps sit at rounding level."""
    columns = [(getattr(trace, c), getattr(moved, c)) for c in ("d", "residual", "dropped_mean_norm")]
    return max(np.max(np.abs(np.subtract(b, a))) / max(np.max(a), trace.d[0]) for a, b in columns)


def _assert_transforms_with(u, trace, u_moved, trace_moved, carry, u_tol, trace_tol):
    assert trace.converged and trace_moved.converged
    assert trace.iterations == trace_moved.iterations
    assert np.max(np.abs(u_moved.values - carry(u.values))) <= u_tol * np.max(np.abs(u.values))
    assert _trace_gap(trace, trace_moved) <= trace_tol


@given(
    perm=st.permutations(range(3)),
    signs=st.lists(st.sampled_from((1.0, -1.0)), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_solve_transforms_with_axis_permutations_and_sign_flips(perm, signs, seed):
    # campanato_solve's u and trace transform as the problem does: the half
    # spectrum treats the last axis unlike the others, so a slip between axes
    # or a sign shows; tanh_trace reads row 0 on every axis, and at lam 0.9
    # the solve takes many steps
    F = lipschitz_perturbation(dirac(), 0.9, "tanh_trace")
    grid = PeriodicGrid(n=3, G=8)
    f = random_band_limited(grid, 4, rng_from_seed(seed))
    signs = np.array(signs)
    u, trace = campanato_solve(F, f, tol=1e-12)
    moved = GridFunction(grid, _carry_field(f.values, perm, signs))
    u_moved, trace_moved = campanato_solve(_carried(F, perm, signs), moved, tol=1e-12)
    # measured over all 48 maps at 3 seeds each: u within 4.9e-16 of its largest entry, the trace within 2.2e-16
    _assert_transforms_with(u, trace, u_moved, trace_moved, lambda v: _carry_field(v, perm, signs), 1e-15, 5e-16)


@given(axis=st.sampled_from((2, 3)), shift=st.integers(1, 15), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_solve_shifts_along_an_axis_that_phi_does_not_read(axis, shift, seed):
    # variable_linear reads x1 only, so a translation by whole grid steps along
    # x2 or x3 shifts the solution and leaves the trace alone
    F = variable_linear(dirac(), 0.3)
    grid = PeriodicGrid(n=3, G=16)
    f = random_band_limited(grid, 4, rng_from_seed(seed))
    u, trace = campanato_solve(F, f, tol=1e-12)
    u_moved, trace_moved = campanato_solve(F, GridFunction(grid, np.roll(f.values, shift, axis=axis)), tol=1e-12)
    # measured over 24 shifts: u within 4.5e-16 of its largest entry, the trace within 2.7e-16
    _assert_transforms_with(u, trace, u_moved, trace_moved, lambda v: np.roll(v, shift, axis=axis), 1e-15, 5e-16)


def _count_points(monkeypatch):
    calls = []
    points = PeriodicGrid.points
    monkeypatch.setattr(PeriodicGrid, "points", lambda self: calls.append(self) or points(self))
    return calls


def test_solve_of_an_x_free_operator_reads_no_grid_points(monkeypatch):
    # sin_q11 does not read x, so the solve passes one point, the origin, and
    # builds no grid of coordinates; forced onto every point it gives the same bits
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    forced = NonlinearOperator(
        perturbation=F.perturbation, anchor=F.anchor, support=F.support, declared_nearness=F.declared_nearness,
        rows=F.rows, reads_x=True,
    )
    assert (F.reads_x, forced.reads_x) == (False, True)
    f = random_band_limited(PeriodicGrid(n=3, G=8), 4, rng_from_seed(2))
    calls = _count_points(monkeypatch)
    u, trace = campanato_solve(F, f, tol=1e-10)
    assert calls == []
    u_ref, trace_ref = campanato_solve(forced, f, tol=1e-10)
    assert len(calls) == 1
    assert u.values.tobytes() == u_ref.values.tobytes()
    for column in ("d", "ratio", "residual", "dropped_mean_norm"):
        assert np.array(getattr(trace, column)).tobytes() == np.array(getattr(trace_ref, column)).tobytes(), column


def test_operators_that_read_x_keep_the_grid_points(monkeypatch):
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read_string(
        """
[nonlinear]
f1 = q11 + q22 + q33 + 0.3 * cos(2 * pi * x1) * sin(q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
lambda = 0.3
"""
    )
    f = random_band_limited(PeriodicGrid(n=3, G=8), 4, rng_from_seed(2))
    for F in (variable_linear(dirac(), 0.3), build_operator(cfg, dirac()), _row_switching_operator(dirac())):
        assert F.reads_x
        calls = _count_points(monkeypatch)
        _, trace = campanato_solve(F, f, tol=1e-10)
        assert trace.converged and len(calls) == 1
        monkeypatch.undo()


def test_x_probe_reads_the_output_shape():
    # values that do not move with x still read it when their shape follows x's
    A = dirac()

    def follows_x(x, Q):
        return np.broadcast_to(np.sin(np.asarray(Q)[..., 0, 0:1]), np.shape(x)[:-1] + (1,)).copy()

    def refuses_a_point(x, Q):
        x, Q = np.asarray(x), np.asarray(Q)
        out = np.sin(Q[..., 0, 0:1])
        out[x[..., 0] > 1e9] = 0.0  # a mask of x's shape, which one point does not fit
        return out

    for perturbation in (follows_x, refuses_a_point):
        assert NonlinearOperator(perturbation=perturbation, anchor=A, support=((0, 0),), rows=(0,)).reads_x
    assert not lipschitz_perturbation(A, 0.5, "tanh_trace").reads_x

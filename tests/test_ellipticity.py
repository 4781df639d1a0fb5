"""Ellipticity constants, nearness estimation, and the monotonicity checks."""

import ast
import configparser
import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

import efos.ellipticity
from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann, lipschitz_perturbation, variable_linear
from efos.cli import build_operator
from efos.ellipticity import (
    NonEllipticError,
    cached_nu,
    check_pseudomonotonicity,
    ellipticity_constant,
    lipschitz_and_converse,
    nearness_constant,
    sampled_estimates,
)
from efos.grid import PeriodicGrid, gradient, random_band_limited
from efos.nonlinear import NonlinearOperator, near_operator_check, verify_comparison
from efos.sampling import MAGNITUDE_LADDER, SamplingPlan, rng_from_seed, unit_sphere_points
from efos.tensor import ConstantTensor, contract, direction_matrix, operator_norm
from helpers import QUATERNION_UNITS, index_order_dot, reference_sweeps

NU_GCR_2111 = 2.0 / np.sqrt(5.0)  # interior minimum of the direction-matrix singular value

def test_nu_cauchy_riemann_is_one():
    rep = ellipticity_constant(cauchy_riemann(), 512)
    assert abs(rep.nu - 1.0) < 1e-9
    assert rep.elliptic
    assert abs(np.linalg.norm(rep.argmin_direction) - 1.0) < 1e-12


def test_nu_dirac_is_one():
    rep = ellipticity_constant(dirac(), 512)
    assert abs(rep.nu - 1.0) < 1e-9
    assert abs(rep.min_abs_det - 1.0) < 1e-9


def test_nu_generalized_cr():
    rep = ellipticity_constant(generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0), 2048)
    assert abs(rep.nu - NU_GCR_2111) < 1e-9


@pytest.mark.parametrize("w", [(1.0, 2.0, 3.0, 4.0), (3.0, 1.5, 2.0, 4.0)])
def test_quaternion_symbol_closed_form(w):
    # A a is left multiplication by the quaternion (w_j a_j), so it is
    # |(w_j a_j)| times an orthogonal matrix: nu = min w, |det| = |.|^4
    A = ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1) * np.asarray(w))
    rep = ellipticity_constant(A, 2048)
    assert rep.refined
    assert abs(rep.nu - min(w)) < 1e-9
    assert abs(rep.min_abs_det - min(w) ** 4) < 1e-9


@pytest.mark.parametrize(
    "A", [dirac(), cauchy_riemann(), generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0)], ids=["dirac", "cr", "gcr"]
)
def test_argmin_direction_attains_nu(A):
    rep = ellipticity_constant(A, 2048)
    assert rep.refined
    sigma = np.linalg.svd(direction_matrix(A, rep.argmin_direction), compute_uv=False)[-1]
    assert abs(sigma - rep.nu) < 1e-12


def test_generalized_cr_reduces_to_cr():
    A = generalized_cauchy_riemann(1.0, 1.0, 1.0, 1.0)
    assert A == cauchy_riemann()


def test_nu_scales_linearly():
    A = dirac()
    B = ConstantTensor(3.5 * A.entries)
    assert abs(ellipticity_constant(B, 256).nu - 3.5) < 1e-8


@pytest.mark.parametrize("c", [1e-13, 1e-6, 1e6] + [10.0**k for k in range(-150, 151, 25)])
@pytest.mark.parametrize(
    "A", [cauchy_riemann(), dirac(), generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0)], ids=["cr", "dirac", "gcr"]
)
def test_ellipticity_is_scale_covariant(A, c):
    # nu(cA) = c nu(A), and the gate compares nu with |A|, so c A is elliptic whenever A is;
    # min|det| = c^N min|det(A)| comes from log|det|, so it neither overflows nor warns inside the search
    rep, ref = ellipticity_constant(ConstantTensor(c * A.entries), 256), ellipticity_constant(A, 256)
    assert rep.elliptic and ref.elliptic
    assert abs(rep.nu / c - ref.nu) <= 1e-12 * ref.nu
    log_det = A.N * math.log(c) + math.log(ref.min_abs_det)
    if log_det > math.log(sys.float_info.max):
        assert rep.min_abs_det == math.inf
    elif log_det > math.log(sys.float_info.min):
        assert rep.min_abs_det == pytest.approx(c**A.N * ref.min_abs_det, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", range(-200, 201, 10))
def test_sampled_estimates_scale_with_the_anchor_or_refuse_it(k):
    # the sweep works in units of a power of two near nu(A), so its quotients scale with c exactly; its gap is
    # quadratic in c, so with a level an anchor whose nu(A)**2 leaves the normal floats is refused by name.
    # Before: c = 1e-170 read nu_fa = 0 and concluded the ellipticity that c = 1 refutes, 1e-160 read nu_fa
    # 0.6% low and 1e160 warned of an overflow
    c = 10.0**k
    ref = sampled_estimates(lipschitz_perturbation(dirac(), 0.5), 0.5)
    F = lipschitz_perturbation(ConstantTensor(c * dirac().entries), 0.5)
    assert abs(nearness_constant(F).nu_fa / c - ref[0].nu_fa) <= 1e-12 * ref[0].nu_fa
    nu_a = cached_nu(F.anchor)
    if abs(k) > 150:
        with pytest.raises(ValueError, match="^" + re.escape(f"the anchor's scale nu(A) = {nu_a:.3e} is out of range")):
            sampled_estimates(F, 0.5)
        return
    near, pm, lc = sampled_estimates(F, 0.5)
    assert abs(near.nu_fa / c - ref[0].nu_fa) <= 1e-12 * ref[0].nu_fa
    assert (pm.violations, lc.concluded_elliptic) == (ref[1].violations, ref[2].concluded_elliptic)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-505, -500, 500])
def test_the_lam_pass_scales_exactly_with_a_power_of_two(k):
    # off Phi's rows the lam pass adds A:Q as one constant per increment; in units of nu(A) those
    # constants, the gap and the Lipschitz norm keep their bits when the anchor is scaled by 2**k.
    # The worst gap, about 2**-11 4**k, is still a normal float at k = -505
    F = lipschitz_perturbation(cauchy_riemann(), 0.8)
    ref = sampled_estimates(F, 0.7)
    assert ref[1].violations > 0
    scaled = lipschitz_perturbation(ConstantTensor(2.0**k * cauchy_riemann().entries), 0.8)
    assert cached_nu(scaled.anchor) / 2.0**k == cached_nu(F.anchor)
    near, pm, lc = sampled_estimates(scaled, 0.7)
    assert (lc.lipschitz_estimate / 2.0**k).hex() == ref[2].lipschitz_estimate.hex()
    assert (pm.worst_violation / 4.0**k).hex() == ref[1].worst_violation.hex()
    assert (pm.violations, lc.pseudo_monotone_violations) == (ref[1].violations, ref[2].pseudo_monotone_violations)
    assert (near.nu_fa / 2.0**k).hex() == ref[0].nu_fa.hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-160, 1e200])
def test_sweep_reads_a_perturbation_far_out_of_scale_with_its_anchor(c):
    # Phi = 0.3 cos(2 pi x1) Q11 does not scale with the anchor: in units of nu(A) its differences
    # square past the float range.  Before: 1e-160 warned of an overflow and 1e200 read nu_fa = 0
    ref = nearness_constant(variable_linear(dirac(), 0.3)).nu_fa
    near = nearness_constant(variable_linear(ConstantTensor(c * dirac().entries), 0.3))
    assert abs(near.nu_fa - ref) <= 1e-12 * ref
    assert near.ratio == pytest.approx(ref / cached_nu(ConstantTensor(c * dirac().entries)), rel=1e-12)


def test_zero_tensor_not_elliptic():
    rep = ellipticity_constant(ConstantTensor(np.zeros((2, 2, 2))), 128)
    assert rep.nu == 0.0
    assert not rep.elliptic


def test_degenerate_direction_found():
    # (Aa) = a1 * I vanishes along a = (0, +/-1); refinement must dig it out
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = 1.0
    entries[1, 1, 0] = 1.0
    rep = ellipticity_constant(ConstantTensor(entries), 256)
    assert rep.nu < 1e-6
    assert not rep.elliptic
    assert abs(abs(rep.argmin_direction[1]) - 1.0) < 1e-3


def test_det_condition_known_values():
    # |det(Aa)| = |a|^2 = 1 for the Cauchy-Riemann symbol
    assert abs(ellipticity_constant(cauchy_riemann(), 512).min_abs_det - 1.0) < 1e-9
    assert ellipticity_constant(ConstantTensor(np.zeros((2, 2, 2))), 128).min_abs_det == 0.0


@pytest.mark.parametrize("scale", [1.0, 1e100, 1e200])
def test_min_abs_det_of_a_tensor_singular_along_one_direction_is_zero(scale):
    # A a = a1 I: det(A a) = a1^2 vanishes on the circle a1 = 0, where the compass search stalls near
    # |a1| = 3e-15; exp of its log|det| read 1.05e-29 |A|^2, and inf at 1e200, against the true 0
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = entries[1, 1, 0] = scale
    rep = ellipticity_constant(ConstantTensor(entries))
    assert rep.min_abs_det == 0.0
    assert not rep.elliptic


@pytest.mark.parametrize(
    "A, expected",
    [
        (dirac(), 1.0),
        (cauchy_riemann(), 1.0),
        (generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0), 1.0),  # min(kappa nu a1^2 + lam mu a2^2) = 1
        (ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1) * np.array([3.0, 1.5, 2.0, 4.0])), 1.5**4),
    ],
    ids=["dirac", "cauchy_riemann", "generalized_cr(2,1,1,1)", "quaternion(3,1.5,2,4)"],
)
def test_min_abs_det_of_an_elliptic_tensor_is_exp_of_the_least_log_det(A, expected):
    # far above the rounding floor N eps |A|^N, the report is the refined log|det|'s exp, bit for bit
    dirs = unit_sphere_points(A.n, efos.ellipticity.NU_SAMPLES)
    log_det, _, _ = efos.ellipticity._refine_on_sphere(efos.ellipticity._log_abs_det, A, dirs)
    rep = ellipticity_constant(A)
    assert rep.min_abs_det == float(np.exp(log_det))
    assert rep.min_abs_det == pytest.approx(expected, rel=1e-12)


def test_resolution_validation():
    with pytest.raises(ValueError):
        ellipticity_constant(dirac(), 10)


def test_resolution_is_the_sample_count():
    # at n = 4 the sphere grid rounds its angle count up: 2048 requested, 2 * 11^3 = 2662 taken
    A = ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1))
    assert ellipticity_constant(A, 2048).resolution == len(unit_sphere_points(4, 2048)) == 2662
    for B, n in ((cauchy_riemann(), 2), (dirac(), 3)):
        assert ellipticity_constant(B, 2048).resolution == len(unit_sphere_points(n, 2048)) == 2048


def test_cached_nu_consistency():
    A = dirac()
    assert cached_nu(A) == cached_nu(A)
    assert abs(cached_nu(A) - 1.0) < 1e-9


# on five of these six, a 2048-sample nu differs from the 4096-sample one
_RNG_1 = np.random.default_rng(1)
_NOISY_DIRACS = [ConstantTensor(dirac().entries + 0.05 * _RNG_1.standard_normal((4, 4, 3))) for _ in range(4)]
_RANDOM_TENSORS = [ConstantTensor(_RNG_1.standard_normal(shape)) for shape in ((4, 4, 4), (2, 2, 3))]


@pytest.mark.parametrize(
    "A",
    [
        dirac(),
        cauchy_riemann(),
        generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0),
        ConstantTensor(np.moveaxis(QUATERNION_UNITS, 0, -1) * np.array([3.0, 1.5, 2.0, 4.0])),
        ConstantTensor(dirac().entries + 0.05 * rng_from_seed(11).standard_normal((4, 4, 3))),
        *_NOISY_DIRACS,
        *_RANDOM_TENSORS,
    ],
    ids=["dirac", "cr", "gcr", "quaternion", "perturbed_dirac"]
    + [f"noisy_dirac_{i}" for i in range(4)]
    + ["random_444", "random_223"],
)
def test_cached_nu_is_the_4096_sample_estimate(A):
    # ellipticity_constant's default resolution, so efos analyze reports the nu that the solvers use
    assert cached_nu(A) == ellipticity_constant(A).nu == ellipticity_constant(A, 4096).nu
    hits = cached_nu.cache_info().hits
    again = cached_nu(ConstantTensor(A.entries.copy()))  # an equal tensor shares the entry
    assert cached_nu.cache_info().hits == hits + 1
    assert again == cached_nu(A)


def test_nan_nu_is_not_elliptic(monkeypatch):
    assert ellipticity_constant(dirac()).elliptic
    monkeypatch.setattr("efos.ellipticity._refine_on_sphere", lambda objective, A, dirs: (np.nan, dirs[0], True))
    rep = ellipticity_constant(dirac())
    assert np.isnan(rep.nu)
    assert rep.elliptic is False


def test_nearness_of_linear_anchor_is_zero():
    A = dirac()
    F = NonlinearOperator(perturbation=lambda x, Q: np.zeros(np.shape(Q)[:-1]), anchor=A, name="anchor")
    rep = nearness_constant(F)
    # the quotients read the perturbation, which is exactly zero
    assert rep.nu_fa == 0.0


def test_nearness_attains_declared_level():
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    rep = nearness_constant(F)
    # sampled sup is a lower bound; the sin slope 1 is hit at the P anchors
    assert rep.nu_fa <= F.declared_nearness + 1e-9
    assert rep.nu_fa >= F.declared_nearness - 1e-8
    assert 0.49 < rep.ratio < 0.51
    # the stored witness reproduces its ratio on re-evaluation
    x, P, Q = rep.worst_x, rep.worst_p, rep.worst_q
    witness = np.linalg.norm(F.perturbation(x, P + Q) - F.perturbation(x, P)) / np.linalg.norm(Q)
    assert abs(witness - rep.nu_fa) < 1e-12


def test_nearness_of_tanh_trace_shape():
    # tanh(sum of row 1 / sqrt(n)) has its largest slope, 1, at P = 0 along "row 1 = 1/sqrt(n)"
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "tanh_trace")
    assert nearness_constant(F).nu_fa <= F.declared_nearness + 1e-9
    qstar = np.zeros((4, 3))
    qstar[0] = 1.0 / np.sqrt(3.0)
    plan = SamplingPlan(random_p=0, random_q=0, extra_q_directions=(qstar,))
    rep = nearness_constant(F, plan=plan)
    assert abs(rep.nu_fa - F.declared_nearness) <= 1e-6
    assert not rep.worst_p.any()


def test_nearness_estimate_monotone_under_enrichment():
    # no axis direction attains tanh_trace's sup, so the added random directions raise the estimate
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "tanh_trace")
    values = []
    for extra in (0, 4, 12):
        plan = SamplingPlan(seed=5, random_q=4 + extra)
        values.append(nearness_constant(F, plan=plan).nu_fa)
    assert values[0] < values[1] < values[2] <= F.declared_nearness + 1e-9


def test_strict_ellipticity_margin():
    A = dirac()
    rep = nearness_constant(lipschitz_perturbation(A, 0.5, "sin_q11"))
    assert 0.45 < cached_nu(A) - rep.nu_fa < 0.55
    bad = NonlinearOperator(
        perturbation=lambda x, Q: 1.5 * contract(A, np.asarray(Q)),
        anchor=A,
        name="too-far",
    )
    rep = nearness_constant(bad)
    assert cached_nu(bad.anchor) - rep.nu_fa < 0


def test_pseudomonotone_at_true_level():
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    rep = check_pseudomonotonicity(F, 0.5)
    assert rep.violations == 0
    assert rep.worst_violation == 0.0


def test_pseudomonotone_violated_below_true_level():
    # understating lambda makes the quadratic form sign-indefinite; the
    # violating increments mix the diagonal entries, so feed the plan the
    # right direction and the P where the sin slope peaks
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    qstar = np.zeros((4, 3))
    qstar[0, 0] = 0.95305
    qstar[1, 1] = -0.21428
    qstar[2, 2] = -0.21428
    pstar = np.zeros((4, 3))
    pstar[0, 0] = np.pi
    plan = SamplingPlan(seed=1, extra_p=(pstar,), extra_q_directions=(qstar,))
    rep = check_pseudomonotonicity(F, 0.3, plan=plan)
    assert rep.violations > 0
    assert rep.worst_violation > 0.0
    assert rep.witness_q is not None


def test_lipschitz_converse_concludes_ellipticity():
    A = dirac()
    half = NonlinearOperator(
        perturbation=lambda x, Q: -0.5 * contract(A, np.asarray(Q)),
        anchor=A,
        name="half-strength",
    )
    rep = lipschitz_and_converse(half, 0.1)
    assert rep.pseudo_monotone_violations == 0
    # increments of 0.5 A:Q attain Lipschitz constant |A|/2 exactly
    assert abs(rep.lipschitz_estimate - 0.5 * operator_norm(A)) < 1e-6
    assert rep.lipschitz_below_threshold
    assert rep.concluded_elliptic


def test_converse_refuses_large_lipschitz():
    A = dirac()
    # slope 1.2 exceeds sqrt(1 - lam^2) nu for every lam, so no conclusion
    strong = NonlinearOperator(
        perturbation=lambda x, Q: 0.2 * contract(A, np.asarray(Q)),
        anchor=A,
        name="strong",
    )
    rep = lipschitz_and_converse(strong, 0.1)
    assert not rep.lipschitz_below_threshold
    assert not rep.concluded_elliptic


def _first_entry_perturbation(value_where_large):
    """Phi = 0.1 sin(q11) e_1 on dirac, replaced by a non-finite value where |q11| > 50."""

    def perturbation(x, Q):
        q11 = Q[..., 0, 0]
        out = np.zeros(Q.shape[:-1])
        out[..., 0] = np.where(np.abs(q11) > 50, value_where_large, 0.1 * np.sin(q11))
        return out

    return NonlinearOperator(perturbation=perturbation, anchor=dirac(), name="non-finite")


NON_FINITE_OPERATORS = {
    "all_nan": NonlinearOperator(
        perturbation=lambda x, Q: np.full(Q.shape[:-1], np.nan), anchor=dirac(), name="all-nan"
    ),
    "partial_nan": _first_entry_perturbation(np.nan),
    "partial_inf": _first_entry_perturbation(np.inf),
}


@pytest.mark.parametrize("estimator", [nearness_constant, check_pseudomonotonicity, lipschitz_and_converse])
@pytest.mark.parametrize("kind", sorted(NON_FINITE_OPERATORS))
def test_sampled_estimators_refuse_non_finite_perturbations(estimator, kind):
    # a NaN quotient used to be skipped (or, everywhere NaN, to end in a TypeError),
    # so the margin gate trusted an estimate that ignored those samples
    with np.errstate(invalid="ignore"), pytest.raises(ValueError) as info:
        estimator(NON_FINITE_OPERATORS[kind])
    assert not isinstance(info.value, NonEllipticError)
    message = str(info.value)
    assert message.startswith("F - A is not finite at the sample x = [")
    assert ", P = [[" in message and ", Q = [[" in message


def test_partial_nan_witness_is_a_nan_sample():
    with pytest.raises(ValueError, match="not finite") as info:
        nearness_constant(NON_FINITE_OPERATORS["partial_nan"])
    p, q = str(info.value).split("P = ")[1].split(", Q = ")
    p11, q11 = ast.literal_eval(p)[0][0], ast.literal_eval(q)[0][0]
    assert abs(p11) > 50 or abs(p11 + q11) > 50  # Phi(x, P) or Phi(x, P + Q) is NaN


def _expression_operator(f1):
    """CI's Dirac expression operator with the first equation f1."""
    cfg = configparser.ConfigParser()
    cfg.read_string(
        f"[nonlinear]\nf1 = {f1}\nf2 = -q12 + q21 + q43\n"
        "f3 = -q13 + q31 - q42\nf4 = -q23 + q32 + q41\nlambda = 0.3\n"
    )
    return build_operator(cfg, dirac())


def _off_diagonal_rows_operator():
    """Phi on dirac's rows 1 and 3, reading the entries (2, 1) and (3, 0) only: the plan's first
    seven coordinate directions do not move it, and row 2 is a zero between its rows.  A unit
    increment of either entry moves A:Q in row 3 alone, so the gap sees where that row lands."""

    def perturbation(x, Q):
        q21, q30 = Q[..., 2, 1], Q[..., 3, 0]
        out = np.empty(np.broadcast_shapes(x.shape[:-1], Q.shape[:-2]) + (2,))
        out[..., 0] = 0.2 * np.cos(2 * np.pi * x[..., 1]) * np.sin(q21)
        out[..., 1] = 0.9 * np.tanh(q30 - q21)
        return out

    return NonlinearOperator(
        perturbation=perturbation, anchor=dirac(), support=((2, 1), (3, 0)), rows=(1, 3), name="off-diagonal-rows"
    )


SWEEP_OPERATORS = {
    "sin_q11": lipschitz_perturbation(dirac(), 0.5, "sin_q11"),
    "tanh_trace": lipschitz_perturbation(cauchy_riemann(), 0.9, "tanh_trace"),
    "variable_linear": variable_linear(dirac(), 0.3),
    # x-free, so the sweep evaluates it on the (1, np) shape of its P samples
    "expression": _expression_operator("q11 + q22 + q33 + 0.3 * sin(q11)"),
    # reads x1, so the sweep keeps its full (nx, np) shape
    "expression_x1": _expression_operator("q11 + q22 + q33 + 0.3 * cos(2 * pi * x1) * sin(q11)"),
    # the sweep starts with a still run and norms two rows that are not neighbours
    "off_diagonal_rows": _off_diagonal_rows_operator(),
}


def test_expression_perturbation_broadcasts_only_what_it_reads():
    X = np.zeros((5, 1, 3))
    P = np.zeros((1, 7, 4, 3))
    assert SWEEP_OPERATORS["expression"].perturbation(X, P).shape == (1, 7, 4)
    assert SWEEP_OPERATORS["expression_x1"].perturbation(X, P).shape == (5, 7, 4)


# seeds 3 and 4 give tanh_trace pseudo-monotonicity violations at lam 0.3
SWEEP_PLANS = {
    "default": None,
    "seed3": SamplingPlan(x_per_axis=3, random_p=16, random_q=32, seed=3),
    "seed4": SamplingPlan(x_per_axis=3, random_p=16, random_q=32, seed=4),
}


def _assert_reports_equal(got, want):
    for field in dataclasses.fields(want):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("plan", sorted(SWEEP_PLANS))
@pytest.mark.parametrize("op", sorted(SWEEP_OPERATORS))
def test_sweep_reports_match_the_full_grid_loop(op, plan):
    # the sweep evaluates Phi on its own broadcast shape, a whole magnitude ladder per call;
    # every report field must equal the per-(direction, scale) loop over all (nx, np) samples
    F, sampling = SWEEP_OPERATORS[op], SWEEP_PLANS[plan]
    near = nearness_constant(F, plan=sampling)
    assert sampled_estimates(F, plan=sampling)[1:] == (None, None)
    for lam in (0.3, 0.7, 0.95):
        want = reference_sweeps(F, lam, sampling)
        _assert_reports_equal(near, want[0])
        _assert_reports_equal(check_pseudomonotonicity(F, lam, plan=sampling), want[1])
        _assert_reports_equal(lipschitz_and_converse(F, lam, plan=sampling), want[2])
        for got, expected in zip(sampled_estimates(F, lam, plan=sampling), want, strict=True):
            _assert_reports_equal(got, expected)
        if op == "tanh_trace" and plan != "default" and lam == 0.3:
            assert want[1].violations > 0


@pytest.mark.parametrize("op", sorted(SWEEP_OPERATORS))
def test_sweep_reports_match_the_full_grid_loop_one_scale_per_chunk(op, monkeypatch):
    monkeypatch.setattr(efos.ellipticity, "_LADDER_CHUNK_ELEMENTS", 1)
    F, sampling = SWEEP_OPERATORS[op], SWEEP_PLANS["seed3"]
    want = reference_sweeps(F, 0.7, sampling)
    _assert_reports_equal(nearness_constant(F, plan=sampling), want[0])
    _assert_reports_equal(check_pseudomonotonicity(F, 0.7, plan=sampling), want[1])
    _assert_reports_equal(lipschitz_and_converse(F, 0.7, plan=sampling), want[2])
    for got, expected in zip(sampled_estimates(F, 0.7, plan=sampling), want, strict=True):
        _assert_reports_equal(got, expected)


def _sweep_chunks(F, plan):
    """The (s, U, AU) of each chunk of the sweep."""
    return [(s, U, AU) for s, U, AU, *_ in efos.ellipticity._increment_sweep(F, plan)]


def _chunk_budget(F, plan, increments):
    """A _LADDER_CHUNK_ELEMENTS under which a chunk holds the given number of increments."""
    N, n = F.anchor.N, F.anchor.n
    P = plan.p_matrices(N, n)[None]
    return increments * max(np.size(F.scatter(F.perturbation(plan.x_points(n)[:, None, :], P))), P.size)


# the benchmark's plan shape, 27 x points and 65 P samples
BENCHMARK_PLAN = SamplingPlan(x_per_axis=3, random_p=16, random_q=32)
LARGE_PLAN = SamplingPlan(x_per_axis=6, random_p=200, random_q=4)


def test_ladder_chunks_cover_the_ladder_in_order():
    assert (len(BENCHMARK_PLAN.x_points(3)), len(BENCHMARK_PLAN.p_matrices(4, 3))) == (27, 65)
    lengths = {}
    for op in ("sin_q11", "variable_linear"):
        F = SWEEP_OPERATORS[op]
        for name, plan in (("benchmark", BENCHMARK_PLAN), ("large", LARGE_PLAN)):
            # the chunks' (scale, direction) pairs are the plan's directions times the ladder, in order
            dirs = plan.q_directions(4, 3, anchor=F.anchor)
            chunks = _sweep_chunks(F, plan)
            s, U, AU = (np.concatenate(parts) for parts in zip(*chunks))
            assert np.array_equal(s, np.tile(MAGNITUDE_LADDER, len(dirs)))
            assert np.array_equal(U, np.repeat(dirs, len(MAGNITUDE_LADDER), axis=0))
            assert np.array_equal(AU, np.repeat([contract(F.anchor, d) for d in dirs], len(MAGNITUDE_LADDER), axis=0))
            lengths[op, name] = [len(c[0]) for c in chunks]
            budget = _chunk_budget(F, plan, 1)  # the elements that one moving increment costs
            for c_s, c_U, _, X, P, D in efos.ellipticity._increment_sweep(F, plan):
                moves = c_U[:, 0, 0] != 0  # both operators read the one entry (0, 0)
                assert moves.all() or not moves.any()  # a chunk never mixes moving and still increments
                if moves.any():
                    assert len(c_s) == 1 or len(c_s) * budget <= efos.ellipticity._LADDER_CHUNK_ELEMENTS
                    assert D.shape == (len(c_s), 1 if op == "sin_q11" else len(X), P.shape[1], 1)
                else:  # one exact-zero batch per increment, on Phi's one row
                    assert D.shape == (len(c_s), 1, 1, 1) and not D.any()
            if (op, name) == ("variable_linear", "benchmark"):
                # 9 increments of 7 scales each: a chunk holds parts of two directions
                assert any(len({u.tobytes() for u in c[1]}) > 1 for c in chunks)
    # e_11 and -e_11 move, each followed by the 11 other signed coordinate directions, still;
    # the strongest direction and the 32 random ones all move
    assert lengths["variable_linear", "benchmark"] == [7, 77, 7, 77, *[9] * 25, 6]
    # x-free: a moving increment costs its 780-entry (np, N, n) input, more than its 260 values
    assert lengths["sin_q11", "benchmark"] == [7, 77, 7, 77, 84, 84, 63]
    assert lengths["sin_q11", "large"] == [7, 77, 7, 77, 21, 14]
    # a moving increment's (nx, np) batch alone exceeds the budget; each still run is still one chunk
    assert lengths["variable_linear", "large"] == [*[1] * 7, 77, *[1] * 7, 77, *[1] * 35]


def test_sweep_calls_phi_only_on_moving_directions():
    # sin_q11 reads the entry (0, 0) alone: of the benchmark plan's 57 directions, the 22 signed
    # coordinate directions off it leave Phi as it is, and the sweep calls Phi on none of their increments
    base = SWEEP_OPERATORS["sin_q11"]
    evaluated = []

    def perturbation(x, Q):
        if Q.ndim == 5:  # an (S, 1, np, N, n) chunk of increments; P's first sample is 0, so Q[:, 0, 0] = s U
            evaluated.extend(Q[:, 0, 0])
        return base.perturbation(x, Q)

    F = NonlinearOperator(perturbation=perturbation, anchor=base.anchor, support=base.support, rows=base.rows)
    reports = sampled_estimates(F, 0.7, plan=BENCHMARK_PLAN)
    dirs = BENCHMARK_PLAN.q_directions(4, 3, anchor=F.anchor)
    moving = dirs[dirs[:, 0, 0] != 0]
    assert len(moving) == 35
    assert np.array_equal(evaluated, [s * U for U in moving for s in MAGNITUDE_LADDER])
    # every (x, P, Q) triple of the plan is still counted
    want = reference_sweeps(base, 0.7, BENCHMARK_PLAN)
    assert reports[0].samples_used == 27 * 65 * 57 * len(MAGNITUDE_LADDER) == want[0].samples_used
    for got, expected in zip(reports, want, strict=True):
        _assert_reports_equal(got, expected)


@pytest.mark.parametrize("increments", [3, 5])
@pytest.mark.parametrize("op", sorted(SWEEP_OPERATORS))
def test_sweep_reports_match_the_full_grid_loop_across_directions(op, increments, monkeypatch):
    # 3 and 5 do not divide the ladder's 7 scales, so chunks hold the end of one direction's ladder
    # and the start of the next one's
    F, sampling = SWEEP_OPERATORS[op], SWEEP_PLANS["seed3"]
    monkeypatch.setattr(efos.ellipticity, "_LADDER_CHUNK_ELEMENTS", _chunk_budget(F, sampling, increments))
    moving = [c for c in _sweep_chunks(F, sampling) if any(c[1][0][b, j] for b, j in F.support)]
    assert len(moving[0][0]) == increments
    near = nearness_constant(F, plan=sampling)
    for lam in (0.3, 0.7, 0.95):
        want = reference_sweeps(F, lam, sampling)
        _assert_reports_equal(near, want[0])
        _assert_reports_equal(check_pseudomonotonicity(F, lam, plan=sampling), want[1])
        _assert_reports_equal(lipschitz_and_converse(F, lam, plan=sampling), want[2])


def _opposing_operator():
    """Phi = -3 A:Q + 0.05 (A:Q)**3 / (1 + (A:Q)**2) on all four rows of a noisy Dirac anchor: F
    turns against its anchor, so most samples violate the gap, and each of the four products
    in the dot (A:Q) . dF is of its own size."""
    A = ConstantTensor(dirac().entries + 0.2 * rng_from_seed(3).normal(size=(4, 4, 3)))

    def perturbation(x, Q):
        aq = np.einsum("abj,...bj->...a", A.entries, Q)
        return -3.0 * aq + 0.05 * aq**3 / (1 + aq**2)

    return NonlinearOperator(perturbation=perturbation, anchor=A, name="opposing")


def _paired_dot(v, w):
    """sum_a v[..., a] w[a] with the even and the odd components summed apart, then added."""
    return index_order_dot(v[..., 0::2], w[0::2]) + index_order_dot(v[..., 1::2], w[1::2])


def test_the_gap_adds_its_dot_in_index_order():
    # how np.einsum associates a sum of products is numpy's own choice, and some builds pair the
    # even and the odd components; the sweep adds (A:Q) . dF in index order, and on these plans
    # pairing would move the worst gap
    F = _opposing_operator()
    apart = 0
    for seed in range(4):
        plan = SamplingPlan(seed=seed)
        for lam in (0.3, 0.7, 0.95):
            want = reference_sweeps(F, lam, plan)[1]
            paired = reference_sweeps(F, lam, plan, dot=_paired_dot)[1]
            apart += want.worst_violation != paired.worst_violation
            assert want.violations > 0
            _assert_reports_equal(check_pseudomonotonicity(F, lam, plan=plan), want)
    assert apart > 0


def _full_width(F):
    """F with its perturbation declared on all N rows, the zero columns included."""

    def perturbation(x, Q):
        phi = F.perturbation(x, Q)
        out = np.zeros(np.shape(phi)[:-1] + (F.anchor.N,))
        out[..., list(F.rows)] = phi
        return out

    return NonlinearOperator(
        perturbation=perturbation,
        anchor=F.anchor,
        support=F.support,
        declared_nearness=F.declared_nearness,
        name=F.name,
    )


@pytest.mark.parametrize("op", ["sin_q11", "tanh_trace", "variable_linear"])
def test_narrow_and_full_width_rows_give_the_estimators_the_same_arrays(op):
    # every reader outside the Picard loop answers alike for Phi on its rows and on all N components
    F = SWEEP_OPERATORS[op]
    wide = _full_width(F)
    N, n = F.anchor.N, F.anchor.n
    assert F.rows == (0,) and wide.rows == tuple(range(N))
    rng = rng_from_seed(12)
    x, Q = rng.random((5, n)), rng.standard_normal((5, N, n))
    assert np.array_equal(F.evaluate(x, Q), wide.evaluate(x, Q))
    grid = PeriodicGrid(n=n, G=8)
    fields = [random_band_limited(grid, N, rng) for _ in range(4)]
    Du = gradient(fields[0])
    assert np.array_equal(F.apply_to_gradient(Du).values, wide.apply_to_gradient(Du).values)
    for sampling in SWEEP_PLANS.values():
        _assert_reports_equal(nearness_constant(F, plan=sampling), nearness_constant(wide, plan=sampling))
        for estimator in (check_pseudomonotonicity, lipschitz_and_converse):
            _assert_reports_equal(estimator(F, 0.7, plan=sampling), estimator(wide, 0.7, plan=sampling))
    pairs = list(zip(fields[::2], fields[1::2]))
    _assert_reports_equal(near_operator_check(F, pairs), near_operator_check(wide, pairs))
    _assert_reports_equal(verify_comparison(F, *pairs[0]), verify_comparison(wide, *pairs[0]))


def _tracemalloc_peak(call):
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_large_plan_sweep_memory_is_bounded():
    # the whole ladder of a direction in one chunk peaks at 50.5 MiB on this plan
    F = variable_linear(dirac(), 0.3)
    report, peak = _tracemalloc_peak(lambda: check_pseudomonotonicity(F, lam=0.7, plan=LARGE_PLAN))
    assert peak < 16 * 2**20
    _assert_reports_equal(report, reference_sweeps(F, 0.7, LARGE_PLAN)[1])


def test_x_free_large_plan_sweep_memory_is_bounded():
    # an x-free perturbation's increments are (S, 1, np, N), so its chunk size is set by its (np, N, n) input
    F = lipschitz_perturbation(dirac(), 0.5)
    report, peak = _tracemalloc_peak(lambda: check_pseudomonotonicity(F, lam=0.7, plan=LARGE_PLAN))
    assert peak < 4 * 2**20
    _assert_reports_equal(report, reference_sweeps(F, 0.7, LARGE_PLAN)[1])


@pytest.mark.parametrize("N", range(1, 13))
def test_row_norms_equal_numpy_norm(N):
    rng = rng_from_seed(N)
    v = rng.normal(size=(5, 7, 3, N)) * 10.0 ** rng.uniform(-8, 8, size=(5, 7, 3, N))
    special = np.array([np.nan, np.inf, -np.inf, 0.0, 1e200, -1e300])
    v[0, :, 0] = 0.0  # all-zero rows
    v[1, :, 0] = 1e200  # rows whose squares overflow
    v[2, :, 0, 0] = special[np.arange(7) % len(special)]
    v[3, :, 0] = special[rng.integers(len(special), size=(7, N))]
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.linalg.norm(v, axis=-1)
        assert np.array_equal(efos.ellipticity._row_norms(list(np.moveaxis(v, -1, 0))), want, equal_nan=True)
        assert np.array_equal(efos.ellipticity._row_norms(list(np.moveaxis(v[:, :, 1:2], -1, 0))), want[:, :, 1:2])
    assert np.isinf(want[1, :, 0]).all() and not want[0, :, 0].any()


@pytest.mark.parametrize("N", range(1, 13))
def test_row_norms_of_broadcast_columns_equal_numpy_norm(N):
    # the sweep passes A:Q off Phi's rows as one (S, 1, 1) constant per increment
    rng = rng_from_seed(100 + N)
    v = rng.normal(size=(5, 7, 3, N)) * 10.0 ** rng.uniform(-8, 8, size=(5, 7, 3, N))
    still = np.arange(N) % 3 != 1  # a constant comes first, and for N = 1 there is no other
    v[..., still] = v[:, :1, :1, still]
    columns = [v[:, :1, :1, c] if still[c] else v[..., c] for c in range(N)]
    want = np.linalg.norm(v, axis=-1)
    assert np.array_equal(np.broadcast_to(efos.ellipticity._row_norms(columns), want.shape), want)


def _block_cauchy_riemann(rotate):
    """Four Cauchy-Riemann copies on the component pairs, (8, 8, 2), nu = 1.  rotate mixes the
    eight equations by the orthogonal Sylvester-Hadamard matrix over sqrt(8): nu stays, and
    every A:Q spreads over all eight components."""
    entries = np.zeros((8, 8, 2))
    for c in range(0, 8, 2):
        entries[c : c + 2, c : c + 2] = cauchy_riemann().entries
    if rotate:
        H = np.ones((1, 1))
        for _ in range(3):
            H = np.block([[H, H], [H, -H]])
        entries = np.einsum("ac,cbj->abj", H / np.sqrt(8), entries)
    return ConstantTensor(entries)


@pytest.mark.parametrize("rotate", [False, True], ids=["blocks", "rotated"])
@pytest.mark.parametrize("shape", ["sin_q11", "tanh_trace"])
def test_sweep_reports_match_the_full_grid_loop_with_eight_components(shape, rotate):
    # from N = 8 on numpy's norm sums pairwise, so _row_norms defers to it; no catalog operator
    # has N >= 8.  With the rotated anchor and tanh_trace, the Lipschitz estimate of a column-by-
    # column sum differs from the reference in its last bit.
    F = lipschitz_perturbation(_block_cauchy_riemann(rotate), 0.5, shape)
    assert (F.anchor.N, F.anchor.n) == (8, 2) and abs(cached_nu(F.anchor) - 1.0) < 1e-12
    for lam in (0.3, 0.7, 0.95):
        want = reference_sweeps(F, lam)
        _assert_reports_equal(nearness_constant(F), want[0])
        _assert_reports_equal(check_pseudomonotonicity(F, lam), want[1])
        _assert_reports_equal(lipschitz_and_converse(F, lam), want[2])


def _five_row_operator(anchor):
    """Phi on the rows 0, 2, 3, 5 and 6 of an (8, 8, 2) anchor, five functions of one sum of the
    entries (0, 0), (1, 1) and (4, 0)."""
    scales = np.array([0.1, 0.13, 0.07, 0.09, 0.11])

    def perturbation(x, Q):
        t = Q[..., 0, 0] + Q[..., 1, 1] + Q[..., 4, 0]
        parts = [np.sin(t), np.tanh(t), np.sin(2 * t), np.tanh(0.5 * t + 0.3), np.sin(t + 1)]
        return scales * np.stack(parts, axis=-1)

    return NonlinearOperator(
        perturbation=perturbation, anchor=anchor, support=((0, 0), (1, 1), (4, 0)), rows=(0, 2, 3, 5, 6)
    )


def _support_plan(seed):
    """The default plan at seed, plus 8 increment directions near the sum's gradient."""
    rng = rng_from_seed(seed)
    extra = np.zeros((8, 8, 2))
    extra[:, [0, 1, 4], [0, 1, 0]] = 1 + 0.3 * rng.standard_normal((8, 3))
    return SamplingPlan(seed=seed, extra_q_directions=tuple(extra))


@pytest.mark.parametrize("seed", [0, 1, 12])
@pytest.mark.parametrize("rotate", [False, True], ids=["blocks", "rotated"])
def test_sweep_reports_match_the_full_grid_loop_with_eight_components_and_five_rows(rotate, seed):
    # with more than two of N >= 8 rows, numpy's pairwise norm adds the rows in an order set by
    # their columns, so the nearness norm is taken on all N columns; at the seeds 1 and 12, a sum
    # over the rows alone would move the nearness estimate in its last bit
    F, plan = _five_row_operator(_block_cauchy_riemann(rotate)), _support_plan(seed)
    for lam in (0.3, 0.7, 0.95):
        want = reference_sweeps(F, lam, plan)
        for got, expected in zip(sampled_estimates(F, lam, plan=plan), want, strict=True):
            _assert_reports_equal(got, expected)
    _assert_reports_equal(nearness_constant(F, plan=plan), want[0])


def _sample_nan_operator():
    """0.1 cos(2 pi x1) sin(q11) e_1, NaN at one (x, P + Q) sample deep in the default plan."""
    A, plan = dirac(), SamplingPlan()
    x_star = plan.x_points(3)[5]
    pq_star = plan.p_matrices(4, 3)[7] + 1.0 * plan.q_directions(4, 3, anchor=A)[-3]

    def perturbation(x, Q):
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], Q.shape[:-2]) + (4,))
        out[..., 0] = 0.1 * np.cos(2 * np.pi * x[..., 0]) * np.sin(Q[..., 0, 0])
        hit = np.all(x == x_star, axis=-1) & np.all(Q == pq_star, axis=(-2, -1))
        return np.where(hit[..., None], np.nan, out)

    return NonlinearOperator(perturbation=perturbation, anchor=A, name="sample-nan"), x_star


def _far_nan_operator():
    """0.1 sin(q11) e_1, NaN where |Q| > 60; Phi ignores x."""

    def perturbation(x, Q):
        out = np.zeros(Q.shape[:-1])
        out[..., 0] = np.where(np.linalg.norm(Q, axis=(-2, -1)) > 60, np.nan, 0.1 * np.sin(Q[..., 0, 0]))
        return out

    return NonlinearOperator(perturbation=perturbation, anchor=dirac(), name="far-nan")


def _q11_operator(phi_of_q11):
    def perturbation(x, Q):
        out = np.zeros(Q.shape[:-1])
        out[..., 0] = phi_of_q11(Q[..., 0, 0])
        return out

    return NonlinearOperator(perturbation=perturbation, anchor=dirac(), name="q11-only")


def _overflow_then_nan(q11):
    """1e200 where 5 < |q11| < 20 and NaN where |q11| > 50: along e_11 the Lipschitz quotient
    overflows at the scale 10, while the gap stays finite until the scale 100."""
    big = np.where((5 < np.abs(q11)) & (np.abs(q11) < 20), 1e200, 0.0)
    return np.where(np.abs(q11) > 50, np.nan, big)


def _overflow_then_minus_inf(q11):
    """1e200 where |q11 - 10| < 0.5 and -inf where 11 < q11 < 12: in the batch (e_11, 10) the
    quotient overflows first at P = 0, the gap only at P = (pi/2) e_11."""
    big = np.where(np.abs(q11 - 10) < 0.5, 1e200, 0.0)
    return np.where((11 < q11) & (q11 < 12), -np.inf, big)


def _p_nan_operator():
    """0.1 sin(q23) e_1, NaN where q23 = pi: Phi(x, P) is not finite at the plan's P sample
    pi e_23, and the plan's first direction, e_11, is off the support."""

    def perturbation(x, Q):
        q23 = Q[..., 1, 2]
        return np.where(q23 == np.pi, np.nan, 0.1 * np.sin(q23))[..., None]

    return NonlinearOperator(perturbation=perturbation, anchor=dirac(), support=((1, 2),), rows=(0,), name="p-nan")


def _error_message(call):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="not finite") as info:
        call()
    return str(info.value)


NAMED_SAMPLE_OPERATORS = {
    "sample_nan": lambda: _sample_nan_operator()[0],
    "far_nan": _far_nan_operator,
    "overflow_then_nan": lambda: _q11_operator(_overflow_then_nan),
    "overflow_then_minus_inf": lambda: _q11_operator(_overflow_then_minus_inf),
    "p_nan": _p_nan_operator,
}


# the one pass checks the nearness quotient, the Lipschitz quotient and the gap of each increment
NAMING_ESTIMATORS = (
    nearness_constant,
    check_pseudomonotonicity,
    lipschitz_and_converse,
    lambda F: sampled_estimates(F, 0.5),
)


@pytest.mark.parametrize("kind", sorted(NAMED_SAMPLE_OPERATORS))
def test_non_finite_error_names_the_reference_sample(kind):
    F = NAMED_SAMPLE_OPERATORS[kind]()
    want = _error_message(lambda: reference_sweeps(F, 0.5))
    x, rest = want.split("x = ")[1].split(", P = ")
    x, (p, q) = ast.literal_eval(x), map(ast.literal_eval, rest.split(", Q = "))
    if kind == "sample_nan":
        assert x == _sample_nan_operator()[1].tolist()  # deep in the sweep, x-index 5
    elif kind == "far_nan":
        assert x == [0.0, 0.0, 0.0]  # the broadcast x-index 0
    elif kind == "p_nan":  # at the first increment, along e_11, which moves no entry that Phi reads
        assert p[1][2] == math.pi and q[0][0] == 1e-4 and np.count_nonzero(q) == 1
    else:  # the quotient's sample, checked before the gap's
        assert np.linalg.norm(q) == 10.0 and not np.any(p)
    for estimator in NAMING_ESTIMATORS:
        assert _error_message(lambda: estimator(F)) == want


@pytest.mark.parametrize("kind", sorted(NAMED_SAMPLE_OPERATORS))
def test_non_finite_error_names_the_reference_sample_one_scale_per_chunk(kind, monkeypatch):
    monkeypatch.setattr(efos.ellipticity, "_LADDER_CHUNK_ELEMENTS", 1)
    F = NAMED_SAMPLE_OPERATORS[kind]()
    want = _error_message(lambda: reference_sweeps(F, 0.5))
    for estimator in NAMING_ESTIMATORS:
        assert _error_message(lambda: estimator(F)) == want


@pytest.mark.parametrize("increments", [3, 5])
@pytest.mark.parametrize("kind", sorted(NAMED_SAMPLE_OPERATORS))
def test_non_finite_error_names_the_reference_sample_across_directions(kind, increments, monkeypatch):
    F = NAMED_SAMPLE_OPERATORS[kind]()
    monkeypatch.setattr(efos.ellipticity, "_LADDER_CHUNK_ELEMENTS", _chunk_budget(F, SamplingPlan(), increments))
    want = _error_message(lambda: reference_sweeps(F, 0.5))
    for estimator in NAMING_ESTIMATORS:
        assert _error_message(lambda: estimator(F)) == want


@pytest.mark.parametrize("estimator", [check_pseudomonotonicity, lipschitz_and_converse])
def test_a_tensor_passed_as_lam_names_lam(estimator):
    # calls from before the anchor parameter was removed bind the tensor to lam
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    with pytest.raises(TypeError, match=r"^lam must be a real number, got ConstantTensor; the anchor is F\.anchor"):
        estimator(F, dirac())


VIEWS = {
    "nearness_constant": (lambda F: nearness_constant(F), 0),
    "check_pseudomonotonicity": (lambda F: check_pseudomonotonicity(F, 0.7), 1),
    "lipschitz_and_converse": (lambda F: lipschitz_and_converse(F, 0.7), 2),
}


@pytest.mark.parametrize("view", sorted(VIEWS))
def test_a_view_calls_no_other_view(view, monkeypatch):
    # each view runs the full pass itself, so a benchmark that wraps the views counts each sweep once
    F = SWEEP_OPERATORS["tanh_trace"]
    want = sampled_estimates(F, 0.7)[VIEWS[view][1]]

    def refuse(*args, **kwargs):
        raise AssertionError("a view called another view")

    for other in set(VIEWS) - {view}:
        monkeypatch.setattr(efos.ellipticity, other, refuse)
    _assert_reports_equal(VIEWS[view][0](F), want)


@pytest.mark.parametrize("estimator", [check_pseudomonotonicity, lipschitz_and_converse])
def test_a_view_refuses_lam_none(estimator):
    # sampled_estimates reads lam=None as "nearness only"; the views need a level
    with pytest.raises(TypeError, match=r"^lam must be a real number, got NoneType"):
        estimator(SWEEP_OPERATORS["sin_q11"], None)

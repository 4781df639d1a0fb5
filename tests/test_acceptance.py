"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the
captured output on failure) and then asserts.  Tolerances are pinned
here on purpose; loosening them is a behavior change, not a test fix.
"""

import math
import time

import numpy as np

from efos.catalog import cauchy_riemann, dirac, generalized_cauchy_riemann, lipschitz_perturbation
from efos.ellipticity import (
    cached_nu,
    check_pseudomonotonicity,
    ellipticity_constant,
    lipschitz_and_converse,
    nearness_constant,
)
from efos.grid import GridFunction, PeriodicGrid, gradient, norm_l2, random_band_limited
from efos.linear import (
    RegularizerSequence,
    solve_linear,
    solve_representation,
    verify_apriori,
)
from efos.nonlinear import NonlinearOperator, campanato_solve, verify_comparison
from efos.oracle import brute_nu, solve_dense
from efos.sampling import SamplingPlan, rng_from_seed
from efos.tensor import contract, operator_norm

from helpers import dirac_closed_form, single_mode_rhs


def _report(num, title, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {title}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_ellipticity_constants():
    checks = []
    for name, A, expected, tol in (
        ("dirac", dirac(), 1.0, 1e-9),
        ("cauchy_riemann", cauchy_riemann(), 1.0, 1e-9),
        ("generalized_cr(2,1,1,1)", generalized_cauchy_riemann(2, 1, 1, 1), 2 / math.sqrt(5), 1e-6),
    ):
        t0 = time.perf_counter()
        nu = ellipticity_constant(A, 2048).nu
        coarse = brute_nu(A, 100_000)
        elapsed = time.perf_counter() - t0
        checks.append(
            (
                abs(nu - expected) <= tol
                and abs(coarse - expected) <= 1e-3
                and elapsed < 10.0,
                f"{name}: nu={nu:.12g} (want {expected:.12g}), brute={coarse:.6g}, {elapsed:.2f}s",
            )
        )
    ok = all(c[0] for c in checks)
    _report(1, "ellipticity constants vs brute-force oracle", ok, "; ".join(c[1] for c in checks))


def test_criterion_2_linear_solver_exactness():
    t0 = time.perf_counter()
    A = dirac()
    grid = PeriodicGrid(n=3, G=16)
    rng = rng_from_seed(0)
    worst = 0.0
    for _ in range(10):
        f = random_band_limited(grid, 4, rng)
        _, rep = solve_linear(A, f)
        worst = max(worst, rep.residual)
    f1 = single_mode_rhs(grid, 4)
    u1, _ = solve_linear(A, f1)
    gap = np.max(np.abs(u1.values - dirac_closed_form(grid).values))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and gap <= 1e-10 and elapsed < 5.0
    _report(
        2,
        "linear solve exactness on the Dirac system",
        ok,
        f"worst residual={worst:.2e}, closed-form gap={gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_apriori_estimate():
    cases = [
        (cauchy_riemann(), PeriodicGrid(n=2, G=16)),
        (generalized_cauchy_riemann(2, 1, 1, 1), PeriodicGrid(n=2, G=16)),
        (dirac(), PeriodicGrid(n=3, G=16)),
    ]
    rng = rng_from_seed(1)
    worst = 0.0
    for A, grid in cases:
        for _ in range(100):
            f = random_band_limited(grid, A.N, rng)
            u, _ = solve_linear(A, f)
            worst = max(worst, verify_apriori(A, u, f).ratio_grad)
    ok = worst <= 1.0 + 1e-10
    _report(3, "a-priori gradient bound on 300 random fields", ok, f"worst ratio={worst:.12f}")


def test_criterion_4_representation_formula():
    A = dirac()
    grid = PeriodicGrid(n=3, G=16)
    f = random_band_limited(grid, 4, rng_from_seed(2))
    u, _ = solve_linear(A, f)
    base = norm_l2(u)
    details = []
    ok = True
    for m in (1, 10, 100, 1000):
        um, rep = solve_representation(A, f, RegularizerSequence("rational", m))
        rel = norm_l2(um - u) / base
        ok = ok and rel <= rep.rational_bound
        details.append(f"m={m}: err={rel:.2e} <= {rep.rational_bound:.0e}")
    ur, _ = solve_representation(A, f, RegularizerSequence("rational", 100_000))
    ut, _ = solve_representation(A, f, RegularizerSequence("truncation", 100_000))
    agree = norm_l2(ur - ut) / base
    ok = ok and agree <= 1e-9
    details.append(f"kind agreement={agree:.2e}")
    _report(4, "regularized representation error bounds", ok, "; ".join(details))


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    A = dirac()
    grid = PeriodicGrid(n=3, G=4)
    f = random_band_limited(grid, 4, rng_from_seed(3), kmax=1)
    u_spec, _ = solve_linear(A, f)
    u_dense = solve_dense(A, f)
    gap = norm_l2(gradient(u_dense - u_spec)) / norm_l2(gradient(u_spec))
    elapsed = time.perf_counter() - t0
    ok = gap <= 1e-9 and elapsed < 2.0
    _report(5, "spectral vs dense retained-basis oracle", ok, f"gradient gap={gap:.2e}, {elapsed:.2f}s")


def test_criterion_6_campanato_contraction():
    t0 = time.perf_counter()
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    details = []
    ok = True
    for lam in (0.1, 0.5, 0.9):
        F = lipschitz_perturbation(dirac(), lam, "sin_q11")
        _, trace = campanato_solve(F, f, tol=1e-10)
        ratios = [r for r in trace.ratio if not math.isnan(r)]
        limit = math.ceil(math.log(1e-10) / math.log(lam)) + 10
        # trace residuals are relative to |f - dropped mean|, which is |f| here
        case_ok = (
            trace.converged
            and max(ratios) <= lam + 0.05
            and trace.iterations <= limit
            and trace.residual[-1] <= 1e-8
        )
        ok = ok and case_ok
        details.append(
            f"lam={lam}: {trace.iterations} iters (<= {limit}), "
            f"worst ratio={max(ratios):.3f}, residual={trace.residual[-1]:.1e}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(6, "fixed-point contraction sweep", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_7_comparison_principle():
    grid = PeriodicGrid(n=3, G=8)
    rng = rng_from_seed(4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    worst = 0.0
    for _ in range(50):
        w = random_band_limited(grid, 4, rng)
        v = random_band_limited(grid, 4, rng)
        worst = max(worst, verify_comparison(F, w, v).ratio)
    ok = worst <= 1.0 + 1e-9
    _report(7, "gradient comparison bound on 50 pairs", ok, f"worst ratio={worst:.6f}")


def test_criterion_8_uniqueness():
    grid = PeriodicGrid(n=3, G=16)
    f = single_mode_rhs(grid, 4)
    F = lipschitz_perturbation(dirac(), 0.5, "sin_q11")
    tol = 1e-10
    ua, _ = campanato_solve(F, f, tol=tol)
    ub, _ = campanato_solve(F, f, tol=tol, u0=random_band_limited(grid, 4, rng_from_seed(5)))
    gap = norm_l2(gradient(ua - ub))
    ok = gap <= 10 * tol * norm_l2(f)
    _report(8, "uniqueness across initial guesses", ok, f"gradient gap={gap:.2e}")


def test_criterion_9_pseudomonotonicity_and_converse():
    A = dirac()
    nu = cached_nu(A)
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    details = []
    ok = True

    # implication: whenever the sampled nearness is at most lam nu(A), the
    # quadratic inequality has no violations on the same sample set
    for seed in (0, 1, 2):
        plan = SamplingPlan(seed=seed)
        est = nearness_constant(F, plan=plan).nu_fa
        for lam in (0.5, 0.7, 0.9):
            if est <= lam * nu:
                rep = check_pseudomonotonicity(F, lam, plan=plan)
                ok = ok and rep.violations == 0
        details.append(f"seed {seed}: est={est:.6f}")

    # understating lam must surface violations (the premise fails there)
    qstar = np.zeros((4, 3))
    qstar[0, 0] = 0.95305
    qstar[1, 1] = -0.21428
    qstar[2, 2] = -0.21428
    pstar = np.zeros((4, 3))
    pstar[0, 0] = np.pi
    sharp = SamplingPlan(seed=1, extra_p=(pstar,), extra_q_directions=(qstar,))
    low = check_pseudomonotonicity(F, 0.3, plan=sharp)
    ok = ok and low.violations > 0
    details.append(f"lam=0.3 violations={low.violations}")

    # converse: pseudo-monotone + small Lipschitz concludes strict ellipticity
    half = NonlinearOperator(
        perturbation=lambda x, Q: -0.5 * contract(A, np.asarray(Q)),
        anchor=A,
        name="half-strength",
    )
    conv = lipschitz_and_converse(half, 0.1)
    truth = nearness_constant(half).nu_fa
    ok = ok and conv.concluded_elliptic and truth < nu
    details.append(
        f"converse: lipschitz={conv.lipschitz_estimate:.6f} < {conv.threshold:.6f}, "
        f"true nearness={truth:.3f}"
    )
    _report(9, "pseudo-monotonicity equivalence", ok, "; ".join(details))

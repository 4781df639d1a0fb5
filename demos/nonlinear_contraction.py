"""Solve a fully nonlinear system by iterating toward the fixed point.

F(x, Du) = A:Du + lam nu(A) sin((Du)_11) stays within distance
lam nu(A) of its linear anchor, so the update map contracts at rate
K = lam and the iteration trace shows it.
"""

import math

import numpy as np

from efos import (
    GridFunction,
    PeriodicGrid,
    campanato_solve,
    dirac,
    gradient,
    lipschitz_perturbation,
    norm_l2,
    random_band_limited,
    rng_from_seed,
)

A = dirac()
grid = PeriodicGrid(n=3, G=16)
x = grid.points()
f_values = np.zeros((4,) + grid.shape)
f_values[0] = np.sin(2 * np.pi * x[0])
f = GridFunction(grid, f_values)

print(f"{'lam':>5s} {'iterations':>11s} {'worst ratio':>12s} {'K theory':>9s} {'residual':>10s}")
for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
    F = lipschitz_perturbation(A, lam, "sin_q11")
    u, trace = campanato_solve(F, f, tol=1e-10)
    ratios = [r for r in trace.ratio if not math.isnan(r)]
    print(
        f"{lam:5.1f} {trace.iterations:11d} {max(ratios):12.4f} {trace.margin.K:9.2f} "
        f"{trace.residual[-1]:10.1e}"
    )

print()
print("per-step trace at lam = 0.5 (first five steps):")
F = lipschitz_perturbation(A, 0.5, "sin_q11")
u, trace = campanato_solve(F, f, tol=1e-10)
print(f"{'k':>3s} {'d_k':>12s} {'ratio_k':>9s} {'residual_k':>12s}")
for k, d, r, res in zip(trace.k[:5], trace.d[:5], trace.ratio[:5], trace.residual[:5]):
    print(f"{k:3d} {d:12.4e} {r:9.4f} {res:12.4e}")

print()
print("uniqueness: a random initial guess lands on the same solution")
u0 = random_band_limited(grid, 4, rng_from_seed(1))
u_alt, _ = campanato_solve(F, f, tol=1e-10, u0=u0)
print(f"  gradient gap between the two runs: {norm_l2(gradient(u - u_alt)):.2e}")

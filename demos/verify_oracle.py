"""Cross-examine the spectral solver with slow, independent checks.

The dense oracle builds the derivative operators as explicit DFT
matrices and solves the square system they make on the solvable fields
(mean zero, no Nyquist-plane content), N ((G-1)^n - 1) unknowns; it shares
no code with the FFT path.  The nearness checks then confirm the quantitative
inequalities the nonlinear solver relies on.
"""

from efos import (
    PeriodicGrid,
    dirac,
    gradient,
    lipschitz_perturbation,
    near_operator_check,
    nearness_constant,
    norm_l2,
    random_band_limited,
    rng_from_seed,
    solve_dense,
    solve_linear,
    verify_comparison,
)

A = dirac()
grid = PeriodicGrid(n=3, G=4)
rng = rng_from_seed(0)
f = random_band_limited(grid, 4, rng, kmax=1)

u_spec, _ = solve_linear(A, f)
u_dense = solve_dense(A, f)
gap = norm_l2(gradient(u_dense - u_spec)) / norm_l2(gradient(u_spec))
print(f"dense vs spectral on {grid.G}^3 (two systems of {2 * ((grid.G - 1) ** 3 - 1)} unknowns):")
print(f"  relative gradient gap = {gap:.2e}")

F = lipschitz_perturbation(A, 0.5, "sin_q11")
print()
print("nearness of the perturbed operator to its anchor:")
rep = nearness_constant(F)
print(f"  sampled nu(F, A) = {rep.nu_fa:.10f}  (declared bound {F.declared_nearness:.10f})")
print(f"  ratio to nu(A)    = {rep.ratio:.6f}  over {rep.samples_used} samples")

g8 = PeriodicGrid(n=3, G=8)
pairs = [(random_band_limited(g8, 4, rng), random_band_limited(g8, 4, rng)) for _ in range(20)]
near = near_operator_check(F, pairs)
print()
print(f"operator nearness inequality on {near.pairs} random pairs:")
print(f"  K = {near.K:.3f}, worst ratio = {near.max_ratio:.4f}, violations = {near.violations}")

worst = max(verify_comparison(F, w, v).ratio for w, v in pairs)
print(f"gradient comparison bound: worst ratio = {worst:.4f} (must stay <= 1)")

"""Independent cross-checks: dense matrix solves and brute-force minima.

The dense path assembles the discrete operator u -> A:Du as an explicit
matrix through dense transform matrices built from exponentials, never
touching the FFT solver, then solves the linear system directly.  The
brute-force ellipticity estimate samples the sphere densely with no
refinement, through Gram-matrix eigenvalues rather than the fast path's
singular values.  Both exist to disagree loudly if the fast paths drift.
"""

from __future__ import annotations

import numpy as np

from .ellipticity import NonEllipticError
from .fieldfile import check_finite
from .grid import GridFunction, PeriodicGrid
from .sampling import unit_sphere_points
from .tensor import ConstantTensor

__all__ = ["DENSE_SIZE_CAP", "assemble_dense", "solve_dense", "brute_nu"]

DENSE_SIZE_CAP = 4096


def _check_cap(A: ConstantTensor, grid: PeriodicGrid) -> int:
    size = A.N * grid.num_points
    if size > DENSE_SIZE_CAP:
        raise ValueError(
            f"dense assembly of size {size} exceeds the cap {DENSE_SIZE_CAP}; use the spectral path"
        )
    if A.n != grid.n:
        raise ValueError(f"tensor has n={A.n} but grid has n={grid.n}")
    return size


def _dense_transforms(grid: PeriodicGrid):
    """Explicit transform matrices of the grid, shape (G^n, G^n) each: the
    forward W[k, x] = exp(-2 pi i k x / G) / G and its inverse, as
    Kronecker products over the axes, modes and points row-major; and the
    mask of the modes off every Nyquist plane."""
    G, n = grid.G, grid.n
    j = np.arange(G)
    W1 = np.exp(-2j * np.pi * np.outer(j, j) / G) / G
    Winv1 = np.exp(2j * np.pi * np.outer(j, j) / G)
    W = W1
    Winv = Winv1
    for _ in range(n - 1):
        W = np.kron(W, W1)
        Winv = np.kron(Winv, Winv1)
    return W, Winv, (~grid.nyquist_mask()).ravel()


def _dense_derivative_matrices(grid: PeriodicGrid) -> np.ndarray:
    """Dense matrices of the spectral derivatives, shape (n, G^n, G^n).

    Built by sandwiching diagonal frequency multipliers between explicit
    transform matrices, with whole modes on any Nyquist plane zeroed to
    match the retained-frequency convention.
    """
    G, n = grid.G, grid.n
    W, Winv, keep = _dense_transforms(grid)
    zvecs = grid.frequency_vectors().reshape(n, -1)  # (n, G^n), row-major modes
    mats = np.empty((n, G**n, G**n))
    for axis in range(n):
        mult = 2j * np.pi * zvecs[axis] * keep
        D = Winv @ (mult[:, None] * W)
        if np.abs(D.imag).max() > 1e-10 * max(1.0, np.abs(D.real).max()):
            raise AssertionError("derivative matrix should be real after symmetrization")
        mats[axis] = D.real
    return mats


def _solvable_part(f: GridFunction) -> np.ndarray:
    """f - mean(f) with its Nyquist-plane modes removed, flattened like
    ``assemble_dense``'s fields."""
    W, Winv, keep = _dense_transforms(f.grid)
    vals = f.values.reshape(f.components, -1)
    coeffs = (vals - vals.mean(axis=1, keepdims=True)) @ W.T
    return ((coeffs * keep) @ Winv.T).real.ravel()


def assemble_dense(A: ConstantTensor, grid: PeriodicGrid) -> np.ndarray:
    """The operator u -> A:Du as a dense (N G^n, N G^n) matrix.

    Fields are flattened component-slowest, grid axes row-major, matching
    GridFunction.values.ravel().  The kernel consists of the N constant
    modes together with all Nyquist-plane modes.
    """
    size = _check_cap(A, grid)
    D = _dense_derivative_matrices(grid)  # (n, G^n, G^n)
    P = grid.num_points
    M = np.zeros((size, size))
    for a in range(A.N):
        for b in range(A.N):
            block = np.einsum("j,jxy->xy", A.entries[a, b], D)
            M[a * P : (a + 1) * P, b * P : (b + 1) * P] = block
    return M


def solve_dense(A: ConstantTensor, f: GridFunction):
    """Direct dense solve of A:Du = f - mean(f) on a small grid.

    f's content on the Nyquist planes cannot be solved for, so it is
    projected away first, through the explicit transform matrices.  The N
    constant modes are then pinned by replacing one equation per component
    with a zero-mean constraint; the remaining (Nyquist) rank deficiency is
    closed by the minimum-norm least-squares solve, which leaves those
    modes at exactly zero.  Raises ValueError unless f is finite with
    A.N components on a grid of A's dimension (naming the first bad
    component and grid index), and NonEllipticError when a residual
    survives on a retained mode.
    """
    grid = f.grid
    _check_cap(A, grid)
    if f.components != A.N:
        raise ValueError(f"right-hand side must have {A.N} components, got {f.components}")
    check_finite(f.values, "right-hand side")
    rhs = _solvable_part(f)
    M = assemble_dense(A, grid)
    P = grid.num_points
    for a in range(A.N):
        row = a * P
        M[row, :] = 0.0
        M[row, a * P : (a + 1) * P] = 1.0 / P
        rhs[row] = 0.0
    sol, _, _, _ = np.linalg.lstsq(M, rhs, rcond=None)
    resid = M @ sol - rhs
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    if float(np.linalg.norm(resid)) > 1e-8 * scale:
        worst = int(np.argmax(np.abs(resid)))
        comp, flat = divmod(worst, P)
        idx = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
        raise NonEllipticError(
            f"dense system is singular beyond the known kernel; residual peaks at "
            f"component {comp}, grid point {idx}"
        )
    return GridFunction(grid, sol.reshape((A.N,) + grid.shape))


def brute_nu(A: ConstantTensor, samples: int = 100_000) -> float:
    """Refinement-free min of sigma_min(A a) over a dense sphere sample.

    Works on Gram matrices, not on the fast path's singular values: with
    S[j, k] = A_j^T A_k formed once, the Gram matrices (A a)^T (A a) =
    sum_jk a_j a_k S[j, k] of 8192 samples are one product of their outer
    products a a^T with S, and nu ~ sqrt of the least eigenvalue.
    Squaring costs accuracy where sigma_min is small: the rounding term
    is about eps |A|^2 / nu, some 1e-8 |A| near a singular direction.
    Beyond that, the answer can exceed the true nu(A) only by the
    sampling gap of the point set.
    """
    if samples < 1000:
        raise ValueError(f"brute-force sampling needs at least 1000 points, got {samples}")
    N, n = A.N, A.n
    S = np.einsum("abj,ack->jkbc", A.entries, A.entries).reshape(n * n, N * N)
    dirs = unit_sphere_points(n, samples)
    best = np.inf
    for start in range(0, len(dirs), 8192):
        a = dirs[start : start + 8192]
        # einsum's own loop: a BLAS matmul this thin would wake a second thread and its buffers
        gram = np.einsum("sk,kc->sc", (a[:, :, None] * a[:, None, :]).reshape(-1, n * n), S).reshape(-1, N, N)
        best = min(best, float(np.linalg.eigvalsh(gram)[:, 0].min()))
    return float(np.sqrt(max(best, 0.0)))

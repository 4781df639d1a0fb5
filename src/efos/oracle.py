"""Independent cross-checks: dense matrix solves and brute-force minima.

The dense path builds the derivative matrices from explicit exponentials,
never touching the FFT solver.  It restricts u -> A:Du to a real
orthonormal basis of the solvable fields, made from the same exponentials,
and solves that square system of N ((G-1)^n - 1) unknowns by least
squares.  The brute-force ellipticity estimate samples the sphere densely
with no refinement, through Gram-matrix eigenvalues rather than the fast
path's singular values; a batched LDL^T inertia test with a rounding
margin skips the samples certified above its own running minimum, an
exactly diagonal Gram matrix gives its least diagonal entry, and the
result equals the unpruned eigenvalue loop's bit for bit.  Both exist to
disagree loudly if the fast paths drift.
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


def _check_cap(A: ConstantTensor, grid: PeriodicGrid) -> None:
    size = A.N * grid.num_points
    if size > DENSE_SIZE_CAP:
        raise ValueError(
            f"dense assembly of size {size} exceeds the cap {DENSE_SIZE_CAP}; use the spectral path"
        )
    if A.n != grid.n:
        raise ValueError(f"tensor has n={A.n} but grid has n={grid.n}")


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


def _dense_derivative_matrices(grid: PeriodicGrid, transforms) -> np.ndarray:
    """Dense matrices of the spectral derivatives, shape (n, G^n, G^n).

    Built by sandwiching diagonal frequency multipliers between the
    ``_dense_transforms(grid)`` matrices, with whole modes on any Nyquist
    plane zeroed to match the retained-frequency convention.
    """
    G, n = grid.G, grid.n
    W, Winv, keep = transforms
    zvecs = grid.frequency_vectors().reshape(n, -1)  # (n, G^n), row-major modes
    mats = np.empty((n, G**n, G**n))
    for axis in range(n):
        mult = 2j * np.pi * zvecs[axis] * keep
        D = Winv @ (mult[:, None] * W)
        if np.abs(D.imag).max() > 1e-10 * max(1.0, np.abs(D.real).max()):
            raise AssertionError("derivative matrix should be real after symmetrization")
        mats[axis] = D.real
    return mats


def _retained_basis(grid: PeriodicGrid, transforms) -> np.ndarray:
    """Real orthonormal basis of the solvable fields, shape (G^n, (G-1)^n - 1),
    from the ``_dense_transforms(grid)`` matrices.

    The solvable fields are the mean-zero ones with no content on the
    Nyquist planes.  Each +-k pair of retained modes, k != 0, gives two
    columns, sqrt(2 / G^n) times the real and imaginary parts of the
    exponential Winv[:, k]; k is the member of the pair with the smaller
    row-major index.
    """
    _, Winv, keep = transforms
    flat = np.arange(grid.num_points)
    neg = np.ravel_multi_index(np.mod(np.negative(np.unravel_index(flat, grid.shape)), grid.G), grid.shape)
    columns = Winv[:, keep & (flat < neg)] * np.sqrt(2.0 / grid.num_points)
    return np.concatenate([columns.real, columns.imag], axis=1)


def _contract(A: ConstantTensor, D: np.ndarray) -> np.ndarray:
    """u -> A:Du from derivative matrices D of shape (n, m, m): block (a, b) is sum_j A[a, b, j] D[j]."""
    return np.einsum("abj,jrs->arbs", A.entries, D).reshape(A.N * D.shape[-1], -1)


def assemble_dense(A: ConstantTensor, grid: PeriodicGrid) -> np.ndarray:
    """The operator u -> A:Du as a dense (N G^n, N G^n) matrix.

    Fields are flattened component-slowest, grid axes row-major, matching
    GridFunction.values.ravel().  The kernel consists of the N constant
    modes together with all Nyquist-plane modes.
    """
    _check_cap(A, grid)
    return _contract(A, _dense_derivative_matrices(grid, _dense_transforms(grid)))


def solve_dense(A: ConstantTensor, f: GridFunction):
    """Direct dense solve of A:Du = f on the solvable fields of a small grid.

    The derivatives map the basis Q of ``_retained_basis`` into itself, so
    Q^T (A:D) Q is exact and square, N ((G-1)^n - 1) unknowns, and Q^T f
    drops f's mean and Nyquist content; u = Q c.  Least squares, not LU:
    where A is singular on the grid those rows are rounding noise, not
    zeros, and LU returns a huge c with a tiny residual.  Raises ValueError
    unless f is finite with A.N components on a grid of A's dimension
    (naming the first bad component and grid index), and NonEllipticError,
    naming a grid point, when a residual survives.
    """
    grid = f.grid
    _check_cap(A, grid)
    if f.components != A.N:
        raise ValueError(f"right-hand side must have {A.N} components, got {f.components}")
    check_finite(f.values, "right-hand side")
    transforms = _dense_transforms(grid)
    Q = _retained_basis(grid, transforms)
    M = _contract(A, Q.T @ _dense_derivative_matrices(grid, transforms) @ Q)
    rhs = (f.values.reshape(A.N, -1) @ Q).ravel()
    coeffs, _, _, _ = np.linalg.lstsq(M, rhs, rcond=None)
    resid = M @ coeffs - rhs
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    if float(np.linalg.norm(resid)) > 1e-8 * scale:
        comp, flat = divmod(int(np.argmax(np.abs(resid.reshape(A.N, -1) @ Q.T))), grid.num_points)
        idx = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
        raise NonEllipticError(
            f"dense system is singular beyond the known kernel; residual peaks at "
            f"component {comp}, grid point {idx}"
        )
    return GridFunction(grid, (coeffs.reshape(A.N, -1) @ Q.T).reshape((A.N,) + grid.shape))


def _drop_diagonal(gram: np.ndarray, best: float, lo: float, hi: float) -> tuple:
    """The Gram matrices (b, N, N) that are not exactly diagonal with their
    largest entry strictly between lo and hi, and best lowered to the least
    diagonal entry of those that are."""
    diag = np.arange(gram.shape[-1])
    exact = gram[:, -1, 0] == 0  # a cheap necessary condition first
    if exact.any():
        d = gram[:, diag, diag]
        peak = np.abs(d).max(axis=1)
        exact &= (lo < peak) & (peak < hi) & ~gram[:, ~np.eye(len(diag), dtype=bool)].any(axis=1)
        if exact.any():
            return gram[~exact], min(best, float(d[exact].min()))
    return gram, best


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

    After the first batch, only the Gram matrices G not certified to lie
    above the running minimum get eigenvalues.  A batched LDL^T of
    G - (best + delta) I whose pivots are all positive certifies G, by
    Sylvester's law of inertia; the margin delta absorbs the rounding of
    both the pivots and LAPACK's eigenvalues, so the result equals the
    full loop's bit for bit.  Where sigma_min is flat (dirac,
    Cauchy-Riemann) every sample lies within delta of the minimum, and
    none is certified.

    Before the certification, every batch drops each G whose off-diagonal
    entries are all zero and whose largest entry lies strictly between
    sqrt(tiny/eps) and sqrt(eps/tiny) (about 1e-146 and 1e146), taking its
    least diagonal entry without LAPACK.  That is what LAPACK's dsyevd returns for it, bit for bit:
    inside that range dsyevd does not rescale, dsytd2 leaves a diagonal
    matrix as it is (dlarfg of a zero vector gives tau = 0), dsterf splits
    at every zero off-diagonal entry and keeps each 1x1 block's d, and the
    eigenvalues come back sorted.  The Gram matrices of dirac and
    Cauchy-Riemann, whose direction matrices are orthogonal, are exactly
    diagonal in floating point too, so none of theirs is left to certify.
    Raises ValueError, naming the first sample direction, when a Gram
    matrix is not finite: the tensor's entries are then too large to
    square.
    """
    if samples < 1000:
        raise ValueError(f"brute-force sampling needs at least 1000 points, got {samples}")
    N, n = A.N, A.n
    S = np.einsum("abj,ack->jkbc", A.entries, A.entries).reshape(n * n, N * N)
    dirs = unit_sphere_points(n, samples)
    diag = np.arange(N)
    # dsyevd rescales a matrix whose largest entry lies outside [sqrt(tiny/eps), sqrt(eps/tiny)]
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    lo, hi = np.sqrt(tiny / eps), np.sqrt(eps / tiny)
    best = np.inf
    for start in range(0, len(dirs), 8192):
        a = dirs[start : start + 8192]
        # einsum's own loop: a BLAS matmul this thin would wake a second thread and its buffers
        gram = batch = np.einsum("sk,kc->sc", (a[:, :, None] * a[:, None, :]).reshape(-1, n * n), S).reshape(-1, N, N)
        gram, best = _drop_diagonal(gram, best, lo, hi)
        if start and len(gram):
            # delta = 64 N^2 eps (tr G + |best|): for PSD G, tr G + |best| bounds |G - best I|_2, and
            # the backward errors of LDL^T and of the symmetric eigensolver are each O(N^2 eps) times
            # it (Higham 2002, ch. 10); 64 covers both, so a certified G's eigvalsh exceed best
            W = gram.transpose(1, 2, 0).copy()  # (N, N, b): each step is a length-b vector op
            certified = np.ones(len(gram), dtype=bool)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a non-finite G fails a pivot
                W[diag, diag] -= best + 64 * N * N * eps * (W[diag, diag].sum(axis=0) + abs(best))
                for j in range(N):
                    certified &= W[j, j] > 0
                    W[j + 1 :, j + 1 :] -= W[j + 1 :, j, None] * (W[j, j + 1 :] / W[j, j])
            gram = gram[~certified]
        if len(gram):
            if not np.isfinite(gram).all():
                i = int(np.argmin(np.isfinite(batch).all(axis=(1, 2))))
                raise ValueError(
                    f"the Gram matrix of sample direction {start + i}, a = {a[i].tolist()}, is not finite; "
                    "the tensor's entries are too large for the Gram kernel"
                )
            best = min(best, float(np.linalg.eigvalsh(gram)[:, 0].min()))
    return float(np.sqrt(max(best, 0.0)))

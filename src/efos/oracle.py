"""Independent cross-checks: dense matrix solves and brute-force minima.

The dense path builds the derivative matrices from explicit exponentials,
never touching the FFT solver.  It restricts u -> A:Du to a real
orthonormal basis of the solvable fields, cosines and sines made from the
same exponentials; a real derivative maps cosines to sines and back, so
the square system of N ((G-1)^n - 1) unknowns splits into two halves,
each solved by least squares.  The brute-force ellipticity estimate
samples the sphere densely with no refinement, through Gram-matrix
eigenvalues rather than the fast path's singular values; it forms only
each Gram matrix's lower triangle, starts from a batch spread over the
whole sphere, and then a batched LDL^T inertia test with a rounding
margin skips the samples certified above its own running minimum, an
exactly diagonal Gram matrix gives its least diagonal entry, and the
result equals the unpruned eigenvalue loop's bit for bit.  Both exist to
disagree loudly if the fast paths drift.
"""

from __future__ import annotations

import itertools

import numpy as np

from .ellipticity import NonEllipticError
from .fieldfile import check_finite
from .grid import GridFunction, PeriodicGrid
from .sampling import unit_sphere_points
from .tensor import ConstantTensor

__all__ = ["DENSE_SIZE_CAP", "solve_dense", "brute_nu"]

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
    row-major index.  The m real parts, the cosines, come first and the m
    imaginary parts, the sines, after them.
    """
    _, Winv, keep = transforms
    flat = np.arange(grid.num_points)
    neg = np.ravel_multi_index(np.mod(np.negative(np.unravel_index(flat, grid.shape)), grid.G), grid.shape)
    columns = Winv[:, keep & (flat < neg)] * np.sqrt(2.0 / grid.num_points)
    return np.concatenate([columns.real, columns.imag], axis=1)


def _contract(A: ConstantTensor, D: np.ndarray) -> np.ndarray:
    """u -> A:Du from derivative matrices D of shape (n, m, k): block (a, b) is sum_j A[a, b, j] D[j]."""
    return np.einsum("abj,jrs->arbs", A.entries, D).reshape(A.N * D.shape[1], -1)


def solve_dense(A: ConstantTensor, f: GridFunction):
    """Direct dense solve of A:Du = f on the solvable fields of a small grid.

    The derivatives map the basis Q = [C | S] of ``_retained_basis`` into
    itself, and, being real, map its m cosine columns C onto the span of
    its m sine columns S and back; the diagonal blocks of Q^T D_j Q vanish
    up to rounding, and an AssertionError refuses any above 1e-10 of the
    largest entry.  So A:Du = f splits into two square systems of N m
    unknowns, (A:D)_CS c_S = C^T f and (A:D)_SC c_C = S^T f, whose
    right-hand sides drop f's mean and Nyquist content; u = C c_C + S c_S.
    Least squares, not LU: where A is singular on the grid those rows are
    rounding noise, not zeros, and LU returns a huge c with a tiny
    residual.  Raises ValueError unless f is finite with A.N components on
    a grid of A's dimension (naming the first bad component and grid
    index), and NonEllipticError, naming a grid point, when a residual
    survives over both halves.
    """
    grid = f.grid
    _check_cap(A, grid)
    if f.components != A.N:
        raise ValueError(f"right-hand side must have {A.N} components, got {f.components}")
    check_finite(f.values, "right-hand side")
    transforms = _dense_transforms(grid)
    Q = _retained_basis(grid, transforms)
    m = Q.shape[1] // 2
    D = Q.T @ _dense_derivative_matrices(grid, transforms) @ Q
    cos, sin = slice(None, m), slice(m, None)
    if max(np.abs(D[:, cos, cos]).max(), np.abs(D[:, sin, sin]).max()) > 1e-10 * np.abs(D).max():
        raise AssertionError("derivative matrix should map cosines to sines and sines to cosines")
    rhs = f.values.reshape(A.N, -1) @ Q
    coeffs, resid = np.empty_like(rhs), np.empty_like(rhs)
    for rows, cols in ((cos, sin), (sin, cos)):
        M = _contract(A, D[:, rows, cols])
        half = rhs[:, rows].ravel()
        c = np.linalg.lstsq(M, half, rcond=None)[0]
        coeffs[:, cols] = c.reshape(A.N, m)
        resid[:, rows] = (M @ c - half).reshape(A.N, m)
    scale = max(float(np.linalg.norm(rhs)), 1e-300)
    if float(np.linalg.norm(resid)) > 1e-8 * scale:
        comp, flat = divmod(int(np.argmax(np.abs(resid @ Q.T))), grid.num_points)
        idx = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
        raise NonEllipticError(
            f"dense system is singular beyond the known kernel; residual peaks at "
            f"component {comp}, grid point {idx}"
        )
    return GridFunction(grid, (coeffs @ Q.T).reshape((A.N,) + grid.shape))


def _gram_columns(a: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The packed Gram matrices of directions a, shape (n, b), against
    ``brute_nu``'s S: shape (N (N+1) / 2, b), one column per direction."""
    n = len(a)
    # einsum's own loop adds each entry's n^2 terms in order, as it does for the full (b, n^2) x S
    # product; a BLAS matmul this thin would wake a second thread and its buffers
    return np.einsum("ks,kc->cs", (a[:, None, :] * a[None, :, :]).reshape(n * n, -1), S)


def _drop_diagonal(low: np.ndarray, N: int, best: float, lo: float, hi: float) -> tuple:
    """The packed Gram matrices, columns of low with the diagonal first,
    that are not exactly diagonal with their largest entry strictly
    between lo and hi, and best lowered to the least diagonal entry of
    those that are."""
    exact = low[-1] == 0  # a cheap necessary condition first
    if exact.any():
        d = low[:N]
        peak = np.abs(d).max(axis=0)
        exact &= (lo < peak) & (peak < hi) & ~low[N:].any(axis=0)
        if exact.any():
            return low[:, ~exact], min(best, float(d[:, exact].min()))
    return low, best


def _mirror(low: np.ndarray, N: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The symmetric matrices (N, N, b) whose packed lower triangles,
    entry (rows[t], cols[t]) in row t, are the columns of low: each step
    of a batched elimination is then a length-b vector op."""
    W = np.empty((N, N, low.shape[1]))
    W[rows, cols] = low
    W[cols, rows] = low
    return W


def _refuse_non_finite(dirs: np.ndarray, S: np.ndarray) -> None:
    """Raise ValueError naming the first direction, in sphere order, whose
    packed Gram matrix against S is not finite."""
    for start in range(0, len(dirs), 8192):
        bad = ~np.isfinite(_gram_columns(dirs[start : start + 8192].T, S)).all(axis=0)
        if bad.any():
            i = start + int(np.argmax(bad))
            raise ValueError(
                f"the Gram matrix of sample direction {i}, a = {dirs[i].tolist()}, is not finite; "
                "the tensor's entries are too large for the Gram kernel"
            )


def brute_nu(A: ConstantTensor, samples: int = 100_000) -> float:
    """Refinement-free min of sigma_min(A a) over a dense sphere sample.

    Works on Gram matrices, not on the fast path's singular values: with
    S[j, k] = A_j^T A_k formed once, the Gram matrices (A a)^T (A a) =
    sum_jk a_j a_k S[j, k] of a batch of samples are one product of their
    outer products a a^T with S, and nu ~ sqrt of the least eigenvalue.
    Only the N (N+1) / 2 entries of each lower triangle are formed, the
    diagonal first: they are all that eigvalsh (UPLO='L') reads, and each
    is the full product's entry bit for bit.  Squaring costs accuracy
    where sigma_min is small: the rounding term is about eps |A|^2 / nu,
    some 1e-8 |A| near a singular direction.  Beyond that, the answer can
    exceed the true nu(A) only by the sampling gap of the point set.

    The first batch is every (R // 1024)-th of the R sphere points, spread
    over the whole sphere; the others follow in sphere order, taken from
    one run of 8192 points at a time.  After the first batch, only the
    Gram matrices G not certified to lie above the running minimum get
    eigenvalues.  A batched LDL^T of the mirrored G - (best + delta) I
    whose pivots are all positive certifies G, by Sylvester's law of
    inertia; the margin delta absorbs the rounding of both the pivots and
    LAPACK's eigenvalues, so the result, a minimum that no order of the
    samples changes, equals the full loop's bit for bit.  Where sigma_min
    is flat (dirac, Cauchy-Riemann) every sample lies within delta of the
    minimum, and none is certified.

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
    Raises ValueError, naming the first sample direction in sphere order,
    when a Gram matrix is not finite: the tensor's entries are then too
    large to square.
    """
    if samples < 1000:
        raise ValueError(f"brute-force sampling needs at least 1000 points, got {samples}")
    N, n = A.N, A.n
    diag = np.arange(N)
    rows, cols = np.tril_indices(N, -1)
    rows, cols = np.concatenate([diag, rows]), np.concatenate([diag, cols])
    S = np.einsum("abj,ack->jkbc", A.entries, A.entries).reshape(n * n, N * N)
    # in C order, as the full S, so that einsum forms each entry as it does there, bit for bit
    S = np.ascontiguousarray(S[:, rows * N + cols])
    dirs = unit_sphere_points(n, samples)
    step = max(1, len(dirs) // 1024)
    rest = np.ones(len(dirs), dtype=bool)
    rest[::step] = False
    # (n, b) and contiguous: the outer products of a strided view take five times as long
    spread = np.ascontiguousarray(dirs[::step].T)
    batches = (np.compress(rest[i : i + 8192], dirs[i : i + 8192].T, axis=1) for i in range(0, len(dirs), 8192))
    # dsyevd rescales a matrix whose largest entry lies outside [sqrt(tiny/eps), sqrt(eps/tiny)]
    tiny, eps = np.finfo(float).tiny, np.finfo(float).eps
    lo, hi = np.sqrt(tiny / eps), np.sqrt(eps / tiny)
    best = np.inf
    for k, a in enumerate(itertools.chain([spread], batches)):
        low, best = _drop_diagonal(_gram_columns(a, S), N, best, lo, hi)
        if k and low.size:
            # delta = 64 N^2 eps (tr G + |best|): for PSD G, tr G + |best| bounds |G - best I|_2, and
            # the backward errors of LDL^T and of the symmetric eigensolver are each O(N^2 eps) times
            # it (Higham 2002, ch. 10); 64 covers both, so a certified G's eigvalsh exceed best
            W = _mirror(low, N, rows, cols)
            certified = np.ones(low.shape[1], dtype=bool)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a non-finite G fails a pivot
                W[diag, diag] -= best + 64 * N * N * eps * (W[diag, diag].sum(axis=0) + abs(best))
                for j in range(N):
                    certified &= W[j, j] > 0
                    W[j + 1 :, j + 1 :] -= W[j + 1 :, j, None] * (W[j, j + 1 :] / W[j, j])
            low = low[:, ~certified]
        if low.size:
            if not np.isfinite(low).all():
                _refuse_non_finite(dirs, S)
            best = min(best, float(np.linalg.eigvalsh(np.moveaxis(_mirror(low, N, rows, cols), -1, 0))[:, 0].min()))
    return float(np.sqrt(max(best, 0.0)))

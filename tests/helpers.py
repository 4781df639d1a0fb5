"""Shared builders for the test suite."""

import importlib.util
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

import efos
from efos.ellipticity import LipschitzConverseReport, NearnessReport, PseudoMonotonicityReport, cached_nu
from efos.grid import GridFunction, PeriodicGrid, _root_sum_of_squares
from efos.oracle import _contract, _dense_derivative_matrices, _dense_transforms, _retained_basis
from efos.sampling import MAGNITUDE_LADDER, SamplingPlan
from efos.tensor import contract


# Left multiplication by the quaternion units 1, i, j, k on (r, x, y, z).
QUATERNION_UNITS = np.array(
    [
        np.eye(4),
        [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
        [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    ],
    dtype=float,
)


def single_mode_rhs(grid: PeriodicGrid, components: int, component: int = 0, axis: int = 0):
    """amplitude-1 sine along one axis in one component; mean-zero and band-limited."""
    x = grid.points()
    values = np.zeros((components,) + grid.shape)
    values[component] = np.sin(2.0 * np.pi * x[axis] / grid.L)
    return GridFunction(grid, values)


def dirac_closed_form(grid: PeriodicGrid):
    """The solution of the 3-D Dirac system for f = sin(2 pi x1) e1."""
    x = grid.points()
    values = np.zeros((4,) + grid.shape)
    values[0] = -np.cos(2.0 * np.pi * x[0]) / (2.0 * np.pi)
    return GridFunction(grid, values)


def poke_payload(path, shape, index, value):
    """Overwrite one f64 of an EFOF file's payload; shape is (C, G, ..., G).

    Builds files that write_field refuses to write, such as NaN payloads.
    """
    raw = bytearray(Path(path).read_bytes())
    offset = 16 + 4 * (len(shape) - 1) + 8 + 8 * int(np.ravel_multi_index(index, shape))
    struct.pack_into("<d", raw, offset, value)
    Path(path).write_bytes(bytes(raw))


def run_python(*args, cwd=None):
    """``python *args`` in a fresh interpreter that imports this efos, with
    its exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(efos.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def full_system_solve_dense(A, f):
    """The values of u = Q c that solve A:Du = f as one square
    least-squares system of N ((G-1)^n - 1) unknowns on the whole retained
    basis Q, cosines and sines together: the unsplit reference for
    efos.oracle.solve_dense, which solves the two halves apart."""
    grid = f.grid
    Q = _retained_basis(grid, _dense_transforms(grid))
    M = _contract(A, Q.T @ _dense_derivative_matrices(grid) @ Q)
    coeffs = np.linalg.lstsq(M, (f.values.reshape(A.N, -1) @ Q).ravel(), rcond=None)[0]
    return (coeffs.reshape(A.N, -1) @ Q.T).reshape((A.N,) + grid.shape)


def load_benchmark(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by its path
    under the name ``perfbench_<name>``, without putting ``perfbench`` on
    the import path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference_batch_max(values, X, P, Q):
    """The largest entry of an (nx, np) batch with its x and P samples."""
    i, j = np.unravel_index(np.argmax(values), values.shape)
    if not np.isfinite(values[i, j]):
        x, p, q = X[i, 0].tolist(), P[0, j].tolist(), Q.tolist()
        raise ValueError(f"F - A is not finite at the sample x = {x}, P = {p}, Q = {q}")
    return float(values[i, j]), X[i, 0], P[0, j]


def index_order_dot(v, w):
    """sum_a v[..., a] w[a], the products added in index order."""
    out = v[..., 0] * w[0]
    for a in range(1, len(w)):
        out = out + v[..., a] * w[a]
    return out


def reference_sweeps(F, lam, plan=None, dot=index_order_dot):
    """The three sampled estimators' reports, from a plain loop over every
    (direction, scale) batch on the full (nx, np) sample grid, with Phi on
    all N components; the gap's dot (A:Q) . dF is dot(dF, A:Q).

    The test oracle for efos.ellipticity's sweep: returns the
    (NearnessReport, PseudoMonotonicityReport, LipschitzConverseReport)
    triple of sampled_estimates(F, lam, plan=plan), whose elements the
    views nearness_constant, check_pseudomonotonicity and
    lipschitz_and_converse return, raising the same ValueError at the same
    non-finite sample.
    """
    A = F.anchor
    plan = plan or SamplingPlan()
    N, n = A.N, A.n
    X = plan.x_points(n)[:, None, :]
    P = plan.p_matrices(N, n)[None, :, :, :]
    nx, npts = X.shape[0], P.shape[1]
    nu_a = cached_nu(A)
    Phi0 = np.broadcast_to(F.scatter(F.perturbation(X, P)), (nx, npts, N))
    best, near_witness = -1.0, None
    lip, violations, worst, total = 0.0, 0, 0.0, 0
    witness = (None, None, None)
    for U in plan.q_directions(N, n, anchor=A):
        for s in MAGNITUDE_LADDER:
            Phi1 = np.broadcast_to(F.scatter(F.perturbation(X, P + s * U)), (nx, npts, N))
            value, x, p = _reference_batch_max(np.linalg.norm(Phi1 - Phi0, axis=-1) / s, X, P, s * U)
            if value > best:
                best, near_witness = value, (x.copy(), p.copy(), s * U)
            AQ = s * contract(A, U)
            dF = Phi1 - Phi0 + AQ
            lip = max(lip, _reference_batch_max(np.linalg.norm(dF, axis=-1) / s, X, P, s * U)[0])
            aq_sq = float(AQ @ AQ)
            gap = 0.5 * aq_sq - 0.5 * lam**2 * nu_a**2 * s**2 - dot(dF, AQ)
            total += gap.size
            violations += int(np.count_nonzero(gap > 1e-12 * (aq_sq + nu_a**2 * s**2)))
            value, x, p = _reference_batch_max(gap, X, P, s * U)
            if value > worst:
                worst, witness = value, (x.copy(), p.copy(), s * U)
    near = NearnessReport(best, best / nu_a if nu_a > 0 else np.inf, total, *near_witness)
    pm = PseudoMonotonicityReport(violations, worst if worst > 0 else 0.0, total, *witness)
    threshold = float(np.sqrt(1.0 - lam**2) * nu_a)
    below = lip < threshold
    lc = LipschitzConverseReport(lip, threshold, violations, below, bool(below and violations == 0), total)
    return near, pm, lc


def reference_norms(core, R, rows=None):
    """SpectralCore.norms by its whole-array formula: (weight * sum over the
    rows of |R|^2)[modes].sum() on a copy of the listed rows for the
    retained modes and on every row's Nyquist entries, through
    _root_sum_of_squares; the lean row-by-row path must give its bits."""
    part = R if rows is None else R[list(rows)]
    leak = np.take(R.reshape(len(R), -1), core.nyquist_index, axis=1)
    return tuple(
        core.sqrt_volume * _root_sum_of_squares(x, lambda v: (w * (v.real**2 + v.imag**2).sum(axis=0))[m].sum())
        for x, w, m in ((part, core.weight, core.retained), (leak, core.nyquist_weight, ...))
    )

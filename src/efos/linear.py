"""Direct and regularized spectral solves of A : Du = f on the torus.

Mode by mode the system reads A:(u_hat (x) 2 pi i z) = f_hat(z), i.e.
2 pi i (A z) u_hat = f_hat with the N x N symbol (A z)[alpha, beta] =
A[alpha, beta, j] z_j, so the solution is the multiplier

    u_hat(z) = (2 pi i)^{-1} (A z)^{-1} . f_hat(z)

on every retained mode (z nonzero, off the Nyquist plane).  Ellipticity
makes A z invertible for every z != 0; the plan inverts all the symbols
of the half spectrum in one batched call to numpy.linalg.inv.

The regularized variant replaces the 1 / |z| in (A z)^{-1} =
|z|^{-1} (A z/|z|)^{-1} by a member h_m of an even sequence with
0 <= h_m <= 1/|z| and h_m -> 1/|z|, so the defect of the recovered
right-hand side is the per-mode factor h_m(z)|z| in [0, 1].

Both solves work on the half spectrum of f: its zero mode (the mean) is
dropped and reported, and the residual A:Du - f is formed mode by mode
there and measured with the spectral core's Plancherel norms, so only
the solution itself is transformed back to the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ellipticity import NonEllipticError, cached_nu, is_elliptic
from .fieldfile import check_finite
from .grid import GridFunction, PeriodicGrid, gradient, norm_l2, norm_l2star, norm_vector, spectral_core
from .tensor import ConstantTensor, contract, direction_matrix

__all__ = [
    "MultiplierPlan",
    "multiplier_plan",
    "RegularizerSequence",
    "SolveReport",
    "RepresentationReport",
    "AprioriReport",
    "solve_linear",
    "solve_representation",
    "verify_apriori",
    "apply_tensor",
]


def apply_tensor(A: ConstantTensor, Du: GridFunction) -> GridFunction:
    """Pointwise A : Du for a gradient field with N*n components."""
    Q = np.moveaxis(Du.as_gradient(A.N), (0, 1), (-2, -1))  # (..., N, n), the gradient at each point
    return GridFunction(Du.grid, np.moveaxis(contract(A, Q), -1, 0))


class MultiplierPlan:
    """Precomputed per-mode inverse multipliers for one (tensor, grid) pair.

    Building the plan checks ellipticity once and stores the N x N complex
    multipliers of the half spectrum of ``core`` as one C-contiguous array
    M[a, b, ...], zero off the retained modes.  Solvers share plans through
    ``multiplier_plan``, so the array is read-only.
    """

    def __init__(self, A: ConstantTensor, grid: PeriodicGrid):
        if A.n != grid.n:
            raise ValueError(f"tensor has n={A.n} but grid has n={grid.n}")
        nu = cached_nu(A)
        if not is_elliptic(A, nu):
            raise NonEllipticError(f"tensor is not elliptic (nu = {nu:.3e}); cannot invert")
        self.A = A
        self.grid = grid
        self.core = core = spectral_core(grid)
        # the zero mode's symbol is singular, so it takes a stand-in direction; its multiplier is zeroed below
        z = np.where(core.zmag > 0, core.z, 1.0)
        inv = np.linalg.inv(direction_matrix(A, np.moveaxis(z, 0, -1)))  # (..., N, N), the inverse of A:z on every mode
        out = np.empty((A.N, A.N) + core.zmag.shape, complex)  # M[a, b, ...], the build's one complex array
        self.multipliers = np.multiply(np.moveaxis(inv, (-2, -1), (0, 1)), core.retained / (2j * np.pi), out=out)
        self.multipliers.flags.writeable = False

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        """Multiply stacked mode coefficients (N, ...) by the plan."""
        return np.einsum("ab...,b...->a...", self.multipliers, coeffs)


@lru_cache(maxsize=8)
def multiplier_plan(A: ConstantTensor, grid: PeriodicGrid) -> MultiplierPlan:
    """The shared ``MultiplierPlan`` of a value-equal (tensor, grid) pair,
    built on first use; a failed build raises each time and is not kept."""
    return MultiplierPlan(A, grid)


@dataclass(frozen=True)
class SolveReport:
    """Diagnostics of one linear solve."""

    residual: float
    dropped_mean: np.ndarray
    dropped_mean_norm: float
    nyquist_truncated: bool


@dataclass(frozen=True)
class RepresentationReport:
    """Diagnostics of one regularized solve.

    ``factor_gap`` is the largest deviation of h_m(z)|z| from 1 on the
    active modes; for the rational kind it is bounded by m^-2 / z_min^2,
    recorded in ``rational_bound``.
    """

    residual: float
    factor_gap: float
    z_min: float
    rational_bound: float


@dataclass(frozen=True)
class AprioriReport:
    """Norm ratios of a solve against the gradient and Sobolev estimates.

    ``ratio_grad`` is |Du|_2 nu(A) / |f|_2, which never exceeds 1 beyond
    rounding.  ``ratio_sobolev`` is |u|_{2*} / |Du|_2, reported for
    n >= 3 without an asserted bound (the sharp constant belongs to the
    whole space, not the torus); NaN when the exponent is undefined.
    """

    ratio_grad: float
    ratio_sobolev: float


@dataclass(frozen=True)
class RegularizerSequence:
    """Even per-mode damping h_m with 0 <= h_m <= 1/|z| and h_m -> 1/|z|.

    kind "rational" uses h_m(z) = |z| / (|z|^2 + m^-2); kind "truncation"
    uses h_m(z) = min(m, 1/|z|), which is exact on every active mode as
    soon as m >= 1 / z_min.
    """

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in ("rational", "truncation"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"regularizer index must be >= 1, got {self.m}")

    def factor(self, zmag) -> np.ndarray:
        """The per-mode recovery factor h_m(z) |z|, always in [0, 1]."""
        zmag = np.asarray(zmag, dtype=float)
        if self.kind == "rational":
            return zmag**2 / (zmag**2 + self.m**-2.0)
        return np.minimum(float(self.m) * zmag, 1.0)


def check_field(u: GridFunction, A: ConstantTensor, grid: PeriodicGrid, what: str) -> None:
    """Raise ValueError unless ``u`` lives on ``grid`` with A.N components,
    all finite (else naming the first bad component and grid index)."""
    if u.grid != grid:
        raise ValueError(f"{what} lives on {u.grid}, not on {grid}")
    if u.components != A.N:
        raise ValueError(f"{what} must have {A.N} components, got {u.components}")
    check_finite(u.values, what)


def _prepare_rhs(plan: MultiplierPlan, f: GridFunction):
    check_field(f, plan.A, f.grid, "right-hand side")
    core = plan.core
    mean = f.values.mean(axis=core.axes)
    F = core.forward(f.values)
    F[core.zero] = 0.0
    truncated = bool(np.abs(F[:, core.nyquist]).max() > 1e-13 * np.abs(F).max())
    return mean, F, truncated


def _solution(plan: MultiplierPlan, U: np.ndarray, target: np.ndarray):
    """The field of coefficients U, and |A:Du - target|_2 relative to
    |target|_2, with target and the residual as half-spectrum coefficients."""
    core = plan.core
    R = np.einsum("abj,j...,b...->a...", plan.A.entries, core.deriv, U) - target
    r, scale = math.hypot(*core.norms(R)), math.hypot(*core.norms(target))
    return GridFunction(core.grid, core.inverse(U)), (r / scale if scale > 0 else 0.0)


def solve_linear(A: ConstantTensor, f: GridFunction):
    """Solve A : Du = f - mean(f) for the mean-zero field u, with the
    cached plan ``multiplier_plan(A, f.grid)``.

    Returns (u, SolveReport).  The report records the dropped mean, the
    relative residual |A:Du - f~|_2 / |f~|_2, taken over the half
    spectrum, and whether any of f's content sat on the excluded Nyquist
    plane (in which case that content cannot be represented and the
    residual reflects the loss).
    """
    plan = multiplier_plan(A, f.grid)
    mean, F, truncated = _prepare_rhs(plan, f)
    u, rel = _solution(plan, plan.apply(F), F)
    return u, SolveReport(
        residual=rel,
        dropped_mean=mean,
        dropped_mean_norm=norm_vector(mean),
        nyquist_truncated=truncated,
    )


def solve_representation(A: ConstantTensor, f: GridFunction, regularizer: RegularizerSequence):
    """Regularized solve: each mode of the direct solution is damped by
    h_m(z)|z|, so A : Du_m recovers f mode-by-mode up to that factor.
    The multipliers come from the cached plan ``multiplier_plan(A, f.grid)``.

    Returns (u_m, RepresentationReport).  The residual is measured over
    the half spectrum against the damped right-hand side, which the
    recovered field matches to rounding; ``factor_gap`` quantifies the
    distance to the exact solve.
    """
    plan = multiplier_plan(A, f.grid)
    _, F, _ = _prepare_rhs(plan, f)
    core = plan.core
    s = np.where(core.retained, regularizer.factor(core.zmag), 0.0)

    active = core.retained & (np.abs(F).max(axis=0) > 1e-13 * np.abs(F).max())
    z_min = float(core.zmag[active].min(initial=np.inf))
    gap = float((1.0 - s[active]).max(initial=0.0))
    u, rel = _solution(plan, plan.apply(F) * s, F * s)
    return u, RepresentationReport(
        residual=rel,
        factor_gap=gap,
        z_min=z_min,
        rational_bound=float(regularizer.m**-2.0 / z_min**2) if np.isfinite(z_min) else 0.0,
    )


def verify_apriori(A: ConstantTensor, u: GridFunction, f: GridFunction) -> AprioriReport:
    """Measure the solve against the gradient estimate |Du|_2 <= |f|_2 / nu(A).

    The gradient ratio must not exceed 1 by more than rounding whenever u
    actually solves the system for the mean-projected f.  The Sobolev
    ratio is informational.
    """
    check_field(f, A, f.grid, "right-hand side")
    check_field(u, A, f.grid, "solution")
    axes = tuple(range(1, f.grid.n + 1))
    nf = norm_l2(GridFunction(f.grid, f.values - f.values.mean(axis=axes, keepdims=True)))
    ndu = norm_l2(gradient(u))
    try:
        ratio_sob = norm_l2star(u) / ndu if ndu > 0 else 0.0
    except ValueError:
        ratio_sob = float("nan")
    ratio_grad = ndu * cached_nu(A) / nf if nf > 0 else 0.0
    return AprioriReport(ratio_grad=float(ratio_grad), ratio_sobolev=float(ratio_sob))

"""Fixed-point solution of fully nonlinear systems F(x, Du) = f on the torus.

The solver treats F as a perturbation of an elliptic anchor A.  With
nearness constant nu(F, A) < nu(A), the map

    T[u] = A^{-1} ( A:Du - (F(., Du) - f) )

is a contraction in the metric d(u, v) = |A:Du - A:Dv|_2 with factor
K = nu(F, A) / nu(A), and the iteration u_{k+1} = T[u_k] converges to the
unique solution.  The metric is equivalent to the gradient distance:
nu(A) |Du - Dv|_2 <= d(u, v) <= |A| |Du - Dv|_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ellipticity import NonEllipticError, cached_nu, nearness_constant
from .fieldfile import write_csv
from .grid import GridFunction, gradient, norm_l2
from .linear import MultiplierPlan, apply_tensor, check_field, check_plan
from .sampling import SamplingPlan
from .tensor import ConstantTensor

__all__ = [
    "NonlinearOperator",
    "IterationTrace",
    "DivergenceError",
    "ComparisonReport",
    "NearOperatorReport",
    "campanato_solve",
    "contraction_metric",
    "verify_comparison",
    "near_operator_check",
    "TRACE_COLUMNS",
]

TRACE_COLUMNS = ("k", "d_k", "ratio_k", "residual_k", "dropped_mean_norm")


@dataclass(frozen=True)
class NonlinearOperator:
    """A pointwise operator F(x, Q) with an elliptic anchor tensor.

    ``evaluator(x, Q)`` takes coordinates of shape (..., n) and gradient
    matrices of shape (..., N, n), broadcasts over the leading axes, and
    returns (..., N).

    ``declared_nearness`` is an analytically known upper bound for
    nu(F, anchor) when available; solvers trust it for the contraction
    margin.  ``x_periodic`` must hold for torus solves.
    """

    evaluator: Callable
    anchor: ConstantTensor
    declared_nearness: float | None = None
    x_periodic: bool = True
    name: str = ""

    def evaluate(self, x, Q) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        Q = np.asarray(Q, dtype=float)
        if x.shape[-1] != self.anchor.n or Q.shape[-2:] != (self.anchor.N, self.anchor.n):
            raise ValueError(
                f"expected x (..., {self.anchor.n}) and Q (..., {self.anchor.N}, {self.anchor.n}),"
                f" got {x.shape} and {Q.shape}"
            )
        return np.asarray(self.evaluator(x, Q), dtype=float)

    def apply_to_gradient(self, Du: GridFunction) -> GridFunction:
        """F(x, Du(x)) over a whole grid; Du carries N*n components."""
        grid = Du.grid
        N = self.anchor.N
        X = np.moveaxis(grid.points(), 0, -1)  # (..., n)
        Q = np.moveaxis(Du.as_gradient(N), (0, 1), (-2, -1))  # (..., N, n)
        out = self.evaluate(X, Q)  # (..., N)
        return GridFunction(grid, np.moveaxis(out, -1, 0).copy())


@dataclass
class IterationTrace:
    """Per-step record of a fixed-point run.

    d[k] is the contraction metric between consecutive iterates, which
    is the retained-mode norm of the previous iterate's residual
    F(., Du) - f; ratio[k] = d[k] / d[k-1] (NaN for the first step),
    residual[k] the mean-adjusted equation residual of iterate k, retained
    modes and Nyquist leak together, and dropped_mean_norm[k] the mean
    removed from that step's linear right-hand side, the norm of the
    previous iterate's residual mean.
    """

    k: list = field(default_factory=list)
    d: list = field(default_factory=list)
    ratio: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    dropped_mean_norm: list = field(default_factory=list)
    K_theory: float = float("nan")
    converged: bool = False
    message: str = ""

    @property
    def iterations(self) -> int:
        return len(self.k)

    def record(self, d, ratio, residual, dropped):
        self.k.append(len(self.k) + 1)
        self.d.append(float(d))
        self.ratio.append(float(ratio))
        self.residual.append(float(residual))
        self.dropped_mean_norm.append(float(dropped))

    def write_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS, zip(self.k, self.d, self.ratio, self.residual, self.dropped_mean_norm))


class DivergenceError(RuntimeError):
    """Iteration failed to contract or F returned a non-finite value;
    carries the trace gathered so far."""

    def __init__(self, message: str, trace: IterationTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ComparisonReport:
    """Gradient-distance comparison of two fields through the operator.

    Checks |Dw - Dv|_2 <= |F(., Dw) - F(., Dv)|_2 / (nu(A) - nu(F, A)),
    using the declared nearness bound.  ``ratio`` is the left side over
    the right side and must stay <= 1 up to rounding.
    """

    ratio: float
    grad_distance: float
    image_distance: float
    margin: float


@dataclass(frozen=True)
class NearOperatorReport:
    """Sampled check of |F[u] - F[v] - (A[u] - A[v])| <= K |A[u] - A[v]|."""

    K: float
    pairs: int
    violations: int
    max_ratio: float
    witness_index: int | None


def contraction_metric(u: GridFunction, v: GridFunction, A: ConstantTensor) -> float:
    """d(u, v) = |A:Du - A:Dv|_2, the metric the iteration contracts."""
    return norm_l2(apply_tensor(A, gradient(u)) - apply_tensor(A, gradient(v)))


def _finite_F(F: NonlinearOperator, Du: GridFunction, step: int, trace: IterationTrace) -> GridFunction:
    """F(., Du), or DivergenceError naming the first grid index where it is
    not finite."""
    Fu = F.apply_to_gradient(Du)
    bad = ~np.isfinite(Fu.values).all(axis=0)
    if bad.any():
        index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        trace.message = f"F is not finite at step {step}, first at grid index {index}"
        raise DivergenceError(trace.message, trace)
    return Fu


def campanato_solve(
    F: NonlinearOperator,
    f: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 400,
    u0: GridFunction | None = None,
    plan: MultiplierPlan | None = None,
    nearness_plan: SamplingPlan | None = None,
):
    """Solve F(x, Du) = f (up to its compatibility mean) by fixed point.

    Each step solves the anchor system A:Du_{k+1} = A:Du_k - F(., Du_k) + f
    with the right-hand side projected to mean zero.  As M (A:Du)^ = U on
    the retained modes, in half-spectrum coefficients U (u0 projected onto
    those modes) the step is U <- U - M R, with the plan's multipliers M
    and R the coefficients of F(., Du) - f: one inverse transform of the
    derivatives, one evaluation of F and one forward transform.  R's norm
    on the retained modes is the next step metric d, adding the Nyquist
    planes gives the residual (against f minus the compatibility mean),
    and R's zero mode is the dropped mean.  Iteration stops when that
    residual falls below tol * its scale or the step metric falls below
    tol * |f|_2; it aborts with DivergenceError after three consecutive
    non-contracting steps above the noise floor, or when F is not finite
    (step 0 is the start).
    Requires a finite tol > 0 and max_iter >= 1, a finite f, and a finite
    u0, if given, on f's grid with the anchor's N components.

    Returns (u, IterationTrace).
    """
    if not (tol > 0 and math.isfinite(tol)) or max_iter < 1:
        raise ValueError(f"need a finite tol > 0 and max_iter >= 1, got tol={tol!r}, max_iter={max_iter!r}")
    A = F.anchor
    if not F.x_periodic:
        raise ValueError("operator is not periodic in x; torus solve is meaningless")
    check_field(f, A, f.grid, "right-hand side")
    if u0 is not None:
        check_field(u0, A, f.grid, "u0")
    if plan is not None:
        check_plan(plan, A, f.grid)
    nu = cached_nu(A)
    if F.declared_nearness is not None:
        near = F.declared_nearness
    else:
        near = nearness_constant(F, A, nearness_plan).nu_fa
    margin = nu - near
    if margin <= 0:
        raise NonEllipticError(
            f"no contraction margin: nearness {near:.6g} >= nu(A) {nu:.6g}"
        )
    plan = plan or MultiplierPlan(A, f.grid)
    core = plan.core

    trace = IterationTrace(K_theory=near / nu)
    norm_f = norm_l2(f)
    floor = 1e-13 * max(norm_f, 1e-300)
    sqrt_volume = math.sqrt(f.grid.L**f.grid.n)
    f_mean = f.values.mean(axis=core.axes)
    norm_f_tilde = sqrt_volume * math.sqrt(f.values.var(axis=core.axes).sum())  # |f - mean(f)|_2

    # transform buffers of this solve, rewritten in place by every step
    R = np.empty((A.N,) + core.zmag.shape, complex)
    work = np.empty((A.N * f.grid.n,) + core.zmag.shape, complex)
    Du = GridFunction.zeros(f.grid, A.N * f.grid.n)
    if u0 is None:  # Du = 0 needs no transform
        U = np.zeros(R.shape, complex)
    else:
        U = core.forward(u0.values) * core.retained
        core.derivatives(U, out=Du.values, work=work)
    core.forward(_finite_F(F, Du, 0, trace).values - f.values, out=R)
    d, _ = core.norms(R)
    non_contracting = 0
    for step in range(1, max_iter + 1):
        dropped = np.linalg.norm(R[core.zero])
        U -= plan.apply(R)
        core.derivatives(U, out=Du.values, work=work)
        ratio = d / trace.d[-1] if trace.d and trace.d[-1] > 0 else float("nan")

        core.forward(_finite_F(F, Du, step, trace).values - f.values, out=R)
        d_next, leak = core.norms(R)
        res = math.hypot(d_next, leak)
        res_scale = math.hypot(norm_f_tilde, sqrt_volume * np.linalg.norm(R[core.zero] + f_mean))
        trace.record(d, ratio, res / res_scale if res_scale > 0 else res, dropped)

        if res <= tol * res_scale or d <= tol * norm_f:
            trace.converged = True
            trace.message = f"converged in {trace.iterations} iterations"
            break
        if len(trace.d) >= 2 and d > floor and d >= trace.d[-2]:
            non_contracting += 1
            if non_contracting >= 3:
                trace.message = "no contraction for 3 consecutive steps"
                raise DivergenceError(trace.message, trace)
        else:
            non_contracting = 0
        d = d_next
    else:
        trace.message = f"stopped at max_iter = {max_iter} without meeting tolerance"
    return GridFunction(f.grid, core.inverse(U)), trace


def verify_comparison(F: NonlinearOperator, w: GridFunction, v: GridFunction) -> ComparisonReport:
    """Check the gradient comparison bound on a pair of fields.

    Requires a declared nearness bound so that nu(A) - nu(F, A) in the
    denominator is certified.
    """
    if F.declared_nearness is None:
        raise ValueError("comparison bound needs declared_nearness on the operator")
    A = F.anchor
    margin = cached_nu(A) - F.declared_nearness
    if margin <= 0:
        raise NonEllipticError(f"declared nearness leaves no margin ({margin:.3g})")
    Dw, Dv = gradient(w), gradient(v)
    lhs = norm_l2(Dw - Dv)
    Fw = F.apply_to_gradient(Dw)
    Fv = F.apply_to_gradient(Dv)
    rhs = norm_l2(Fw - Fv) / margin
    ratio = 0.0 if lhs == 0 else (lhs / rhs if rhs > 0 else float("inf"))
    return ComparisonReport(
        ratio=float(ratio),
        grad_distance=float(lhs),
        image_distance=float(norm_l2(Fw - Fv)),
        margin=float(margin),
    )


def near_operator_check(F: NonlinearOperator, pairs) -> NearOperatorReport:
    """Verify the nearness inequality between full field operators.

    For each pair (u, v): |F[u] - F[v] - (A[u] - A[v])|_2 must not exceed
    K |A[u] - A[v]|_2 with K the declared nearness ratio.  Degenerate
    pairs with A[u] = A[v] count as violations only if the left side is
    nonzero.
    """
    if F.declared_nearness is None:
        raise ValueError("near-operator check needs declared_nearness on the operator")
    A = F.anchor
    K = F.declared_nearness / cached_nu(A)
    violations = 0
    max_ratio = 0.0
    witness = None
    count = 0
    for idx, (u, v) in enumerate(pairs):
        count += 1
        Du, Dv = gradient(u), gradient(v)
        Adiff = apply_tensor(A, Du) - apply_tensor(A, Dv)
        Fdiff = F.apply_to_gradient(Du) - F.apply_to_gradient(Dv)
        lhs = norm_l2(Fdiff - Adiff)
        rhs = K * norm_l2(Adiff)
        if rhs == 0:
            ok = lhs <= 1e-14
            ratio = 0.0 if ok else float("inf")
        else:
            ratio = lhs / rhs
            ok = ratio <= 1.0 + 1e-9
        if ratio > max_ratio:
            max_ratio = ratio
            witness = idx
        if not ok:
            violations += 1
    return NearOperatorReport(
        K=float(K),
        pairs=count,
        violations=violations,
        max_ratio=float(max_ratio),
        witness_index=witness,
    )

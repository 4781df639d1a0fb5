"""Fixed-point solution of fully nonlinear systems F(x, Du) = f on the torus.

An operator stores its elliptic anchor A and the perturbation Phi = F - A
(Campanato's near-operator device), and the solver iterates

    T[u] = A^{-1} ( f - Phi(., Du) ),

A^{-1} being the anchor's spectral inverse on mean-zero fields.  When
nu(F, A), the Lipschitz constant of Phi in Du, stays below nu(A), T is a
contraction in the metric d(u, v) = |A:Du - A:Dv|_2 with factor
K = nu(F, A) / nu(A), and u_{k+1} = T[u_k] converges to the unique
solution.  The metric is equivalent to the gradient distance:
nu(A) |Du - Dv|_2 <= d(u, v) <= |A| |Du - Dv|_2.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .ellipticity import Margin, contraction_margin
from .fieldfile import NonFiniteError, check_finite
from .grid import GridFunction, gradient, norm_l2, norm_vector
from .linear import MultiplierPlan, apply_tensor, check_field, multiplier_plan
from .tensor import ConstantTensor, contract

__all__ = [
    "NonlinearOperator",
    "IterationTrace",
    "DivergenceError",
    "ComparisonReport",
    "NearOperatorReport",
    "PAIR_BOUND",
    "campanato_solve",
    "verify_comparison",
    "near_operator_check",
]


@dataclass(frozen=True)
class NonlinearOperator:
    """A pointwise operator F(x, Q) = A:Q + Phi(x, Q) with an elliptic
    anchor tensor A.

    ``perturbation(x, Q)`` takes coordinates of shape (..., n) and gradient
    matrices of shape (..., N, n), broadcasts over the leading axes, and
    returns (..., len(rows)): Phi's components ``rows``, the output
    components that Phi can make nonzero, omitted: all N; the others are
    zero.  ``support`` lists the gradient entries (beta, j) that Phi reads,
    omitted: every entry.  Both are stored sorted; the solver forms and
    transforms only those rows and derivatives, and every other reader sees
    Phi through ``scatter``, on all N components.  Both are probed once on
    a seeded random (x, Q) batch: Phi must return len(rows) components, and
    moving an entry outside the support must leave Phi unchanged, else
    ValueError names the rows or the entry.  ``reads_x`` True declares
    that Phi reads x; else the probe also moves x to one broadcast (1, n)
    point, and Phi reads x unless its values and shape stay the same.
    Where Phi does not read x, grid readers pass one (1, ..., 1, n) point
    for x instead of the grid's points.  The probe sees only what moves
    Phi on its batch: x read only where a denominator vanishes, say, must
    be declared.  ``declared_nearness``, a
    finite number >= 0 when given, is an analytically known upper bound
    for nu(F, anchor); solvers trust it for the contraction margin.
    """

    perturbation: Callable
    anchor: ConstantTensor
    support: tuple | None = None
    declared_nearness: float | None = None
    name: str = ""
    rows: tuple | None = None
    reads_x: bool = False

    def __post_init__(self):
        near = self.declared_nearness
        if near is not None and not (math.isfinite(near) and near >= 0):
            raise ValueError(f"declared_nearness must be a finite number >= 0, got {near!r}")
        N, n = self.anchor.N, self.anchor.n
        rows = tuple(range(N)) if self.rows is None else tuple(int(a) for a in self.rows)
        if len(set(rows)) != len(rows) or not all(0 <= a < N for a in rows):
            raise ValueError(f"rows must be distinct output components below {N}, got {rows}")
        object.__setattr__(self, "rows", tuple(sorted(rows)))
        support = tuple(np.ndindex(N, n)) if self.support is None else self.support
        support = tuple(sorted({(int(b), int(j)) for b, j in support}))
        if not all(0 <= b < N and 0 <= j < n for b, j in support):
            raise ValueError(f"support entries (beta, j) need beta < {N} and j < {n}, got {support}")
        object.__setattr__(self, "support", support)
        # the standard library's MT19937, so that building an operator does not load numpy.random
        rng = random.Random(0)
        x, Q = (np.reshape([rng.gauss(0.0, 1.0) for _ in range(math.prod(s))], s) for s in ((8, n), (8, N, n)))
        base = self.perturbation(x, Q)
        if np.shape(base)[-1:] != (len(self.rows),):
            raise ValueError(
                f"perturbation returns shape {np.shape(base)} for its rows {self.rows}; need (..., {len(self.rows)})"
            )
        if len(support) < N * n:  # else every entry, so there is nothing to probe
            for b, j in np.ndindex(N, n):
                moved = Q.copy()
                moved[:, b, j] = [rng.gauss(0.0, 1.0) for _ in range(len(Q))]
                if (b, j) not in support and not np.array_equal(self.perturbation(x, moved), base, equal_nan=True):
                    raise ValueError(f"perturbation reads gradient entry ({b}, {j}) outside its support {support}")
        if self.reads_x:
            return
        try:  # a Phi that cannot take x as one point reads x's shape
            at_point = self.perturbation(np.reshape([rng.gauss(0.0, 1.0) for _ in range(n)], (1, n)), Q)
        except Exception:
            at_point = None
        same = np.shape(at_point) == np.shape(base) and np.array_equal(at_point, base, equal_nan=True)
        object.__setattr__(self, "reads_x", not same)

    def scatter(self, phi, axis: int = -1) -> np.ndarray:
        """Perturbation values with ``rows`` along ``axis`` as all N
        components, zero off ``rows``; full-width values come back as floats."""
        phi = np.asarray(phi, dtype=float)
        if len(self.rows) == self.anchor.N:
            return phi
        axis %= phi.ndim
        out = np.zeros(phi.shape[:axis] + (self.anchor.N,) + phi.shape[axis + 1 :])
        out[(slice(None),) * axis + (list(self.rows),)] = phi
        return out

    def evaluate(self, x, Q) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        Q = np.asarray(Q, dtype=float)
        if x.shape[-1] != self.anchor.n or Q.shape[-2:] != (self.anchor.N, self.anchor.n):
            raise ValueError(
                f"expected x (..., {self.anchor.n}) and Q (..., {self.anchor.N}, {self.anchor.n}),"
                f" got {x.shape} and {Q.shape}"
            )
        return contract(self.anchor, Q) + self.scatter(self.perturbation(x, Q))

    def apply_to_gradient(self, Du: GridFunction) -> GridFunction:
        """F(x, Du(x)) over a whole grid; Du carries N*n components.
        NonFiniteError names the first component and grid index where Phi
        is not finite."""
        Phi = self.scatter(_perturbation_values(self, _points(self, Du.grid), Du.values), axis=0)
        return GridFunction(Du.grid, apply_tensor(self.anchor, Du).values + Phi)


def _points(F: NonlinearOperator, grid) -> np.ndarray:
    """The x at which F's perturbation is evaluated on ``grid``: the grid
    points (G, ..., G, n), or the origin as one (1, ..., 1, n) point when
    Phi does not read x."""
    if F.reads_x:
        return np.moveaxis(grid.points(), 0, -1)
    return np.zeros((1,) * grid.n + (grid.n,))


def _perturbation_values(F: NonlinearOperator, X: np.ndarray, Du: np.ndarray) -> np.ndarray:
    """Phi(x, Du(x)) at X from ``_points``, (G, ..., G, n) or one point, as
    (len(F.rows), G, ..., G) values of its rows, from the N*n derivative
    values Du.  NonFiniteError names the first component and grid index
    where Phi is not finite."""
    N, n = F.anchor.N, F.anchor.n
    Q = np.moveaxis(Du.reshape((N, n) + Du.shape[1:]), (0, 1), (-2, -1))
    phi = np.moveaxis(np.asarray(F.perturbation(X, Q), dtype=float), -1, 0)
    if not np.isfinite(phi).all():
        check_finite(F.scatter(phi, axis=0), "F - A")
    return phi


@dataclass
class IterationTrace:
    """Per-step record of a fixed-point run.

    d[k] is the contraction metric between consecutive iterates, which
    is the retained-mode norm of the previous iterate's residual
    F(., Du) - f; ratio[k] = d[k] / d[k-1] (NaN for the first step),
    residual[k] the mean-adjusted equation residual of iterate k, retained
    modes and Nyquist leak together, and dropped_mean_norm[k] the mean
    removed from that step's linear right-hand side, the norm of the
    previous iterate's residual mean.  ``margin`` is the solver's
    ``contraction_margin(F)``: the source of its nearness and K.
    """

    k: list = field(default_factory=list)
    d: list = field(default_factory=list)
    ratio: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    dropped_mean_norm: list = field(default_factory=list)
    margin: Margin | None = None
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
    the right side and must stay <= PAIR_BOUND, 1 up to rounding.
    """

    ratio: float


@dataclass(frozen=True)
class NearOperatorReport:
    """Sampled check of |F[u] - F[v] - (A[u] - A[v])| = |Phi[u] - Phi[v]| <= K |A[u] - A[v]|."""

    K: float
    pairs: int
    violations: int
    max_ratio: float


def _perturbation_spectrum(F, X, Du, core, out, step: int, trace: IterationTrace) -> bool:
    """Write the half spectrum of Phi(., Du)'s rows into ``out``; at the
    start (step 0) a Phi that is zero everywhere is written as zeros, with
    no transform, and True is returned.  DivergenceError names the step and
    the first component and grid index where Phi is not finite."""
    try:
        phi = _perturbation_values(F, X, Du)
    except NonFiniteError as exc:
        trace.message = f"F is not finite at step {step}, first at {exc.where}"
        raise DivergenceError(trace.message, trace) from exc
    if step == 0 and not phi.any():  # Phi(., 0) of every catalog operator
        out[...] = 0
        return True
    core.forward(phi, out=out)
    return False


def campanato_solve(
    F: NonlinearOperator,
    f: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 400,
    u0: GridFunction | None = None,
    plan: MultiplierPlan | None = None,
):
    """Solve F(x, Du) = f (up to its compatibility mean) by fixed point.

    Each step is u_{k+1} = T[u_k] = A^{-1}(f - Phi(., Du_k)), in
    half-spectrum coefficients U_{k+1} = M f^ - M Phi^_k with the plan's
    multipliers M = i m.  As M (A:(2 pi i z)) = I on the retained modes, the
    coefficients R of the residual F(., Du_{k+1}) - f are Phi^_{k+1} -
    Phi^_k there and Phi^_{k+1} - f^ on the Nyquist planes and the mean.
    So a step forms M f^ and U only in the rows that Phi's support names,
    each U_b = (M f^)_b - sum over Phi's rows a of M_ba Phi^_a with its first
    subtraction written straight into U, each term by the plan's
    ``subtract_product`` (U_b is never -0.0, as M f^ sums into +0.0, so
    these are the complex subtraction's bits); it transforms only the support's
    derivatives (the other gradient entries stay zero) and forms and
    transforms Phi only on its declared rows, at the grid's points when Phi
    reads x and at one point otherwise; the iterate is transformed back
    once, at the end.  A start at which Phi is zero everywhere, as Phi(., 0)
    of every catalog operator, is not transformed, and from u0 = None its
    residual is 0 - f^, whose norm the set-up already took for the residual
    scale.  R and T = f^ - (A:Du)^ are kept on every row; a step rewrites
    Phi's rows.  R's norm on the retained modes is the next step metric d;
    from step 1 on it squares only Phi's rows, as R is +0.0 on the retained
    modes of the others, whose Nyquist entries, -f^ from then on, are
    squared once per solve (``SpectralCore.row_norms``).  With the Nyquist
    planes of every row it is the residual (against f minus the
    compatibility mean), and R's zero mode is the dropped mean.  Iteration
    stops when that residual falls below tol * its scale or d below
    tol * |f|_2; it aborts with DivergenceError after three consecutive
    non-contracting steps above the noise floor, or when Phi is not finite
    (step 0 is the start).
    Requires a finite tol > 0 and max_iter >= 1, a finite f, and a finite
    u0, if given, on f's grid with the anchor's N components.  The
    multipliers come from ``multiplier_plan(F.anchor, f.grid)``; a
    ``plan`` passed in must have been built for that tensor and grid.

    Returns (u, IterationTrace), the trace keeping ``contraction_margin(F)``.
    """
    if not (tol > 0 and math.isfinite(tol)) or max_iter < 1:
        raise ValueError(f"need a finite tol > 0 and max_iter >= 1, got tol={tol!r}, max_iter={max_iter!r}")
    A = F.anchor
    check_field(f, A, f.grid, "right-hand side")
    if u0 is not None:
        check_field(u0, A, f.grid, "u0")
    if plan is not None and (plan.A != A or plan.grid != f.grid):
        raise ValueError("the plan was built for a different tensor or grid than the right-hand side")
    margin = contraction_margin(F)
    plan = plan or multiplier_plan(A, f.grid)
    core = plan.core
    support, phi_rows = F.support, list(F.rows)
    rows = sorted({b for b, _ in support})

    trace = IterationTrace(margin=margin)
    norm_f = norm_l2(f)
    floor = 1e-13 * norm_f
    f_mean = f.values.mean(axis=core.axes)
    X = _points(F, f.grid)
    f_hat = core.forward(f.values)
    f_norms = core.norms(f_hat)
    norm_f_tilde = math.hypot(*f_norms)  # |f - mean(f)|_2, as _solution scales the linear residual
    Mf = [plan.apply_row(f_hat, b) for b in rows]

    # buffers of this solve, rewritten in place by every step; R = Phi^ - T with T = f^ - (A:Du)^
    U = np.zeros(f_hat.shape, complex)
    T = f_hat.copy()
    Phi = np.empty((len(phi_rows),) + core.zmag.shape, complex)
    Du = np.zeros((A.N * f.grid.n,) + f.grid.shape)
    work = np.empty((len(support),) + core.zmag.shape, complex)
    product = np.empty(core.zmag.shape, complex)

    if u0 is not None:  # else Du = 0 needs no transform
        U[:] = core.forward(u0.values) * core.retained
        T -= np.einsum("abj,j...,b...->a...", A.entries, core.deriv, U)
        core.derivatives(U, out=Du, work=work, entries=support)
    if _perturbation_spectrum(F, X, Du, core, Phi, 0, trace) and u0 is None:
        # the start's residual Phi^ - T is 0 - f^, whose retained norm the set-up took
        R, d = np.subtract(0.0, f_hat), f_norms[0]
    else:
        R = np.zeros_like(T)
        R[phi_rows] = Phi
        d, _ = core.norms(np.subtract(R, T, out=R))
    # from step 1 on, off Phi's rows, both are zero on the retained modes and R is -f^ elsewhere
    np.copyto(T, 0, where=core.retained)
    np.copyto(R, 0, where=core.retained)
    norms = core.row_norms(R, phi_rows)
    if not phi_rows:  # U_b = (M f^)_b at every step
        for b, Mf_b in zip(rows, Mf):
            U[b] = Mf_b
    non_contracting = 0
    for step in range(1, max_iter + 1):
        dropped = norm_vector(R[core.zero])
        for b, Mf_b in zip(rows, Mf):  # U_b = (M f^)_b - sum over Phi's rows a of M_ba Phi^_a
            for i, a in enumerate(phi_rows):  # the first subtraction writes over U_b
                plan.subtract_product(U[b] if i else Mf_b, b, a, Phi[i], out=U[b], product=product)
        for i, a in enumerate(phi_rows):
            np.copyto(T[a], Phi[i], where=core.retained)
        core.derivatives(U, out=Du, work=work, entries=support)
        ratio = d / trace.d[-1] if trace.d and trace.d[-1] > 0 else float("nan")

        _perturbation_spectrum(F, X, Du, core, Phi, step, trace)
        for i, a in enumerate(phi_rows):
            np.subtract(Phi[i], T[a], out=R[a])
        d_next, leak = norms()
        res = math.hypot(d_next, leak)
        res_scale = math.hypot(norm_f_tilde, core.sqrt_volume * norm_vector(R[core.zero] + f_mean))
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
    # T holds the last step's Phi^ on the retained modes, where M lives; M (f^ - T) and the inverse's complex
    # passes take U, which no step reads any more
    spectrum = plan.apply(np.subtract(f_hat, T, out=T), out=U)
    return GridFunction(f.grid, core.inverse(spectrum, work=spectrum)), trace


PAIR_BOUND = 1.0 + 1e-9  # the largest ratio that a pair check passes: its estimate's bound 1, up to rounding


def _pair_ratio(lhs: float, rhs: float) -> float:
    """A pair check's left side over its right side: 0 when both are 0, inf when only the right side is."""
    return lhs / rhs if rhs != 0 else (0.0 if lhs == 0 else math.inf)


def verify_comparison(F: NonlinearOperator, w: GridFunction, v: GridFunction) -> ComparisonReport:
    """Check the gradient comparison bound on a pair of fields.

    Requires a declared nearness bound so that nu(A) - nu(F, A) in the
    denominator is certified.  ValueError names ``w`` or ``v`` unless both
    are finite fields on w's grid with the anchor's N components, and
    NonFiniteError where Phi is not finite, by component and grid index.
    """
    if F.declared_nearness is None:
        raise ValueError("comparison bound needs declared_nearness on the operator")
    margin = contraction_margin(F).margin
    for field_, name in ((w, "w"), (v, "v")):
        check_field(field_, F.anchor, w.grid, name)
    Dw, Dv = gradient(w), gradient(v)
    image = norm_l2(F.apply_to_gradient(Dw) - F.apply_to_gradient(Dv))
    return ComparisonReport(float(_pair_ratio(norm_l2(Dw - Dv), image / margin)))


def near_operator_check(F: NonlinearOperator, pairs) -> NearOperatorReport:
    """Verify the nearness inequality between full field operators.

    For each pair (u, v): |Phi[u] - Phi[v]|_2, that is |F[u] - F[v] -
    (A[u] - A[v])|_2, must not exceed K |A[u] - A[v]|_2 with K the
    declared nearness ratio.  Each pair is scored as in
    ``verify_comparison``, so a pair with A[u] = A[v] violates it exactly
    when the left side is nonzero; ``violations`` counts the ratios not
    <= PAIR_BOUND, and ``max_ratio``, their max, is NaN if one is.
    NonEllipticError unless the declared nearness leaves a contraction
    margin, as in the solver; ValueError and NonFiniteError as in
    ``verify_comparison``, naming a field ``pairs[i][0]`` or ``pairs[i][1]``.
    """
    if F.declared_nearness is None:
        raise ValueError("near-operator check needs declared_nearness on the operator")
    A = F.anchor
    K = contraction_margin(F).K
    ratios = []
    for i, (u, v) in enumerate(pairs):
        for side, field_ in enumerate((u, v)):
            check_field(field_, A, u.grid, f"pairs[{i}][{side}]")
        Du, Dv = gradient(u), gradient(v)
        X = _points(F, u.grid)
        Adiff = apply_tensor(A, Du) - apply_tensor(A, Dv)
        Phidiff = F.scatter(_perturbation_values(F, X, Du.values) - _perturbation_values(F, X, Dv.values), axis=0)
        ratios.append(_pair_ratio(norm_l2(GridFunction(u.grid, Phidiff)), K * norm_l2(Adiff)))
    violations = sum(not ratio <= PAIR_BOUND for ratio in ratios)
    return NearOperatorReport(float(K), len(ratios), violations, float(np.max(ratios, initial=0.0)))

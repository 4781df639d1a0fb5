"""Ellipticity constants and nearness estimators for first-order operators.

The ellipticity constant of a constant tensor is

    nu(A) = min over unit eta, unit a of |A : eta (x) a|
          = min over unit a of sigma_min(A a),

the worst-direction smallest singular value of the direction matrix.  For
a nonlinear operator F(x, P) anchored at A, the companion quantity is the
nearness constant

    nu(F, A) = ess sup over x, P, Q != 0 of |F(x, P+Q) - F(x, P) - A:Q| / |Q|,

the Lipschitz constant in Q of the perturbation Phi = F - A, and strict
ellipticity of F relative to A means nu(F, A) < nu(A).  Both
are estimated here: nu(A) by quasi-uniform sphere sampling plus
derivative-free refinement, nu(F, A) by sampled difference quotients over
an (x, P, Q) plan.  Sampled sup estimates are lower bounds of the true
sup; sampled min estimates are upper bounds of the true min.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sampling import MAGNITUDE_LADDER, SamplingPlan, unit_sphere_points
from .tensor import ConstantTensor, contract, direction_matrix, operator_norm

__all__ = [
    "NonEllipticError",
    "EllipticityReport",
    "NearnessReport",
    "PseudoMonotonicityReport",
    "LipschitzConverseReport",
    "NU_SAMPLES",
    "ellipticity_constant",
    "cached_nu",
    "is_elliptic",
    "contraction_margin",
    "sampled_estimates",
    "nearness_constant",
    "check_pseudomonotonicity",
    "lipschitz_and_converse",
]

NU_SAMPLES = 4096  # the sphere samples behind nu(A), for cached_nu and efos analyze alike


class NonEllipticError(ValueError):
    """Raised when an operation requires nu > 0 but the tensor fails it."""


@dataclass(frozen=True)
class EllipticityReport:
    """Result of an ellipticity-constant computation; ``resolution`` is the
    number of sphere samples taken, at least the number requested."""

    nu: float
    argmin_direction: np.ndarray
    min_abs_det: float
    resolution: int
    refined: bool
    elliptic: bool


@dataclass(frozen=True)
class NearnessReport:
    """Sampled estimate of nu(F, A) and the derived nearness ratio.

    ``nu_fa`` is a max over finitely many difference quotients, hence a
    lower bound for the true essential sup; x samples cover the
    fundamental cell [0, sampling.X_BOX)^n only.  ``samples_used`` counts
    every (x, P, Q) triple of the plan, also those that a perturbation
    ignoring x evaluates once for all x.
    """

    nu_fa: float
    ratio: float
    samples_used: int
    worst_x: np.ndarray
    worst_p: np.ndarray
    worst_q: np.ndarray


@dataclass(frozen=True)
class PseudoMonotonicityReport:
    """Sampled check of the one-sided quadratic monotonicity inequality

    (A:Q) . (F(x, P+Q) - F(x, P)) >= |A:Q|^2 / 2 - (lam^2 / 2) nu(A)^2 |Q|^2.

    ``samples_used`` and ``violations`` count (x, P, Q) triples of the
    plan, also those that a perturbation ignoring x evaluates once.
    """

    violations: int
    worst_violation: float
    samples_used: int
    witness_x: np.ndarray | None
    witness_p: np.ndarray | None
    witness_q: np.ndarray | None


@dataclass(frozen=True)
class LipschitzConverseReport:
    """Sampled Lipschitz estimate with the converse ellipticity test.

    If the pseudo-monotonicity inequality holds at a level lam and the
    Lipschitz constant of F(x, .) is below sqrt(1 - lam^2) nu(A), then F
    is strictly elliptic relative to A.  ``concluded_elliptic`` records
    whether both sampled hypotheses held.
    """

    lipschitz_estimate: float
    threshold: float
    pseudo_monotone_violations: int
    lipschitz_below_threshold: bool
    concluded_elliptic: bool
    samples_used: int


def _sigma_min(A: ConstantTensor, dirs: np.ndarray) -> np.ndarray:
    """Smallest singular value of A a for stacked directions."""
    return np.linalg.svd(direction_matrix(A, dirs), compute_uv=False)[..., -1]


def _log_abs_det(A: ConstantTensor, dirs: np.ndarray) -> np.ndarray:
    """log|det(A a)| for stacked directions, -inf where A a is singular."""
    return np.linalg.slogdet(direction_matrix(A, dirs))[1]


def _refine_on_sphere(objective, A: ConstantTensor, dirs: np.ndarray):
    """Minimize a batched sphere function from its best sample in dirs.

    Compass search (Kolda, Lewis & Torczon, SIAM Review 45, 2003): try
    normalize(a +/- step t) for a tangent basis t at a, taken once per
    move of a, move to the best trial on strict improvement and halve step
    otherwise, from 1e-2 down to 1e-14 or until 8000 evaluations.  Returns
    (value, point, reached the step floor); the value never exceeds the
    best sample's.
    """
    values = objective(A, dirs)
    best = int(np.argmin(values))  # ties: first sample wins
    f, a = float(values[best]), dirs[best] / np.linalg.norm(dirs[best])
    step, evals, moved = 1e-2, 0, True
    while step >= 1e-14 and evals < 8000:
        if moved:
            tangent = np.linalg.svd(a[None])[2][1:]  # rows span the tangent space at a
            signed = np.concatenate([tangent, -tangent])
        trial = a + step * signed
        trial /= np.linalg.norm(trial, axis=1, keepdims=True)
        values = objective(A, trial)
        evals += len(trial)
        k = int(np.argmin(values))
        moved = values[k] < f
        if moved:
            f, a = float(values[k]), trial[k]
        else:
            step /= 2
    return f, a, step < 1e-14


def _refine_nu(A: ConstantTensor, dirs: np.ndarray):
    """``_refine_on_sphere(_sigma_min, A, dirs)`` on A scaled by the power
    of two that brings its largest entry into [1/2, 1), the value scaled
    back.  LAPACK rescales a matrix far from 1 by a factor that is not a
    power of two, so only this way is nu(2**k A) = 2**k nu(A) exactly."""
    e = math.frexp(float(np.abs(A.entries).max()))[1]
    nu, argmin, refined = _refine_on_sphere(_sigma_min, ConstantTensor(np.ldexp(A.entries, -e)), dirs)
    return math.ldexp(nu, e), argmin, refined


def ellipticity_constant(A: ConstantTensor, resolution: int = NU_SAMPLES) -> EllipticityReport:
    """Compute nu(A) by sphere sampling plus local refinement.

    Parameters
    ----------
    A : ConstantTensor
    resolution : int
        Requested number of quasi-uniform sphere samples, at least 100.

    Returns
    -------
    EllipticityReport
        With ``nu``, the unit ``argmin_direction``, min |det(A a)| as exp of
        log|det(A a)| refined by a second compass search (0 where that lies
        below N eps |A|^N, the rounding floor of det(A a)), the sample count
        (at least resolution: the n >= 4 sphere grid rounds up), and flags
        for refinement convergence and ellipticity.
    """
    if resolution < 100:
        raise ValueError(f"resolution must be >= 100, got {resolution}")
    dirs = unit_sphere_points(A.n, resolution)
    nu, argmin, refined = _refine_nu(A, dirs)
    log_det, _, _ = _refine_on_sphere(_log_abs_det, A, dirs)
    # det(A a) is rounding below N eps |A|^N, where the search stalls short of a true 0; |A| = 0 logs to -inf
    with np.errstate(divide="ignore", over="ignore"):
        floor = np.log(A.N * np.finfo(float).eps) + A.N * np.log(operator_norm(A))
        min_det = 0.0 if log_det < floor else float(np.exp(log_det))
    return EllipticityReport(
        nu=nu,
        argmin_direction=argmin,
        min_abs_det=min_det,
        resolution=len(dirs),
        refined=refined,
        elliptic=is_elliptic(A, nu),
    )


def is_elliptic(A: ConstantTensor, nu: float) -> bool:
    """The ellipticity gate: whether nu, an estimate of nu(A), exceeds
    1e-12 |A|, so that it gives for c A what it gives for A; false for NaN."""
    return bool(nu > 1e-12 * operator_norm(A))


@lru_cache(maxsize=None)
def cached_nu(A: ConstantTensor) -> float:
    """nu(A) from NU_SAMPLES sphere samples and the compass refinement,
    bit for bit the ``nu`` of ``ellipticity_constant(A)`` that ``efos
    analyze`` reports, memoized on the tensor; shared by the solvers."""
    return _refine_nu(A, unit_sphere_points(A.n, NU_SAMPLES))[0]


def contraction_margin(A: ConstantTensor, near: float) -> tuple[float, float]:
    """(nu(A) - near, near / nu(A)): the contraction margin of an operator
    anchored at A with nearness near, and its contraction factor K, with
    nu(A) = cached_nu(A); NonEllipticError unless the margin is positive
    (NaN is not)."""
    nu = cached_nu(A)
    margin = nu - near
    if not margin > 0:
        raise NonEllipticError(f"no contraction margin: nearness {near:.6g} >= nu(A) {nu:.6g}")
    return margin, near / nu


# entries of one chunk of increments, each increment counted at the larger
# of the perturbation's values on all N components and its (np, N, n) input
_LADDER_CHUNK_ELEMENTS = 1 << 16


def _increment_sweep(F, plan: SamplingPlan | None, unit: float = 1.0):
    """Yield ``(s, U, AU, X, P, D)`` for each chunk of the plan's increments,
    on the broadcast shape that the perturbation returns.

    The increments are the pairs of an increment direction U_d (N, n) of the
    plan and a scale of MAGNITUDE_LADDER, direction by direction and each
    ladder in order.  U_d moves Phi when it is nonzero on an entry of
    F.support, and every U_d does when Phi(X, P) is not finite somewhere.
    A chunk is a run of consecutive pairs, which may cross directions but
    never mixes moving and still ones: a run of still pairs is one chunk,
    and a run of moving pairs is cut into chunks of as many as fit in
    ``_LADDER_CHUNK_ELEMENTS``, at least one.  s is (S,), U (S, N, n) and
    AU (S, N) holds A:U_d / unit, contracted once per direction, for the
    power of two ``unit``.  X is (nx, 1, n), P is (1, np, N, n) and D =
    (Phi(X, P + s U) - Phi(X, P)) / unit holds Phi's R = len(F.rows)
    components.  For moving pairs D is a fresh (S, a, b, R) array with a in
    {1, nx} and b in {1, np}: a is 1 when Phi ignores x.  For still pairs
    Phi is not called and D is np.zeros((S, 1, 1, R)), where the full grid
    loop finds x - x = +0.0 at every sample; the only difference it can make
    is the sign of a zero.  D[k] is the batch of the increment s[k] U[k],
    and an axis of length 1 stands for all of its samples.
    """
    A = F.anchor
    plan = plan or SamplingPlan()
    N, n = A.N, A.n
    X = plan.x_points(n)[:, None, :]  # (nx, 1, n)
    P = plan.p_matrices(N, n)[None, :, :, :]  # (1, np, N, n)
    dirs = plan.q_directions(N, n, anchor=A)
    AU = np.array([contract(A, U) for U in dirs]) / unit  # (D, N), each rounded as a lone A:U
    scales = np.tile(MAGNITUDE_LADDER, len(dirs))
    which = np.repeat(np.arange(len(dirs)), len(MAGNITUDE_LADDER))
    Phi0 = np.asarray(F.perturbation(X, P))
    finite = np.isfinite(Phi0).all()
    moving = np.repeat([not finite or any(U[b, j] for b, j in F.support) for U in dirs], len(MAGNITUDE_LADDER))
    step = max(1, _LADDER_CHUNK_ELEMENTS // max(math.prod(Phi0.shape[:-1]) * N, P.size))
    edges = [0, *(np.flatnonzero(moving[1:] != moving[:-1]) + 1), len(scales)]
    for lo, hi in zip(edges, edges[1:]):
        width = step if moving[lo] else hi - lo  # a still run is one chunk
        for start in range(lo, hi, width):
            stop = min(start + width, hi)
            s, d = scales[start:stop], which[start:stop]
            U = dirs[d]
            if moving[lo]:
                Phi1 = F.perturbation(X[None], P[None] + (s[:, None, None] * U)[:, None, None])
                D = np.asarray((Phi1 - Phi0) / unit, dtype=float)
            else:
                D = np.zeros((stop - start, 1, 1, len(F.rows)))
            yield s, U, AU[d], X, P, D


def _ordered_sum(terms) -> np.ndarray:
    """The sum of an iterable of fresh float arrays, added one at a time in
    its order, in place once the sum has the shape that every later term
    broadcasts to; a term of some other shape raises ValueError."""
    terms = iter(terms)
    total = next(terms)
    for t in terms:
        if t.size > total.size:
            total = total + t
        else:
            total += t
    return total


def _row_norms(columns: list) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)``, bit for bit, of the (..., K) array v
    whose K columns broadcast from the list columns.

    numpy sums fewer than 8 squares in index order, so the columns are
    squared and added one at a time, each at its own shape until the sum
    broadcasts; from 8 on its pairwise kernel keeps eight partial sums, and
    the norm of the stacked columns is left to numpy.
    """
    if len(columns) >= 8:
        return np.linalg.norm(np.stack(np.broadcast_arrays(*columns), axis=-1), axis=-1)
    out = _ordered_sum(c * c for c in columns)
    return np.sqrt(out, out=out)


def _unit_row_norms(columns: list, unit: float) -> np.ndarray:
    """``_row_norms(columns)`` of differences in units of the power of two
    unit: its bits where their largest lies in [2**-300, inf), else those of
    the columns times unit, the differences in absolute units, divided by
    unit.  So a perturbation far out of scale with nu(A) overflows or
    underflows only where its absolute differences would."""
    with np.errstate(over="ignore"):
        norms = _row_norms(columns)
        if not 2.0**-300 <= norms.max(initial=0.0) < math.inf:
            norms = _row_norms([c * unit for c in columns]) / unit
    return norms


def _sample(batch: np.ndarray, X, P):
    """Copies of the x and P samples of an (a, b) batch's first largest
    entry, or first NaN; an index on an axis of length 1 maps to sample 0,
    the first occurrence in broadcast order, as on the full (nx, np) grid."""
    i, j = np.unravel_index(np.argmax(batch), batch.shape)
    return X[i, 0].copy(), P[0, j].copy()


def _batch_max(s, U, X, P, *values):
    """The largest entry of each (a, b) batch of the (S, a, b) values, shape
    (S, len(values)).  ValueError names the (x, P, Q) sample of the first
    batch, increment by increment and then in the order of values, whose
    largest entry is not finite."""
    top = np.stack([v.max(axis=(1, 2)) for v in values], axis=1)  # NaN where a batch holds one
    bad = np.argwhere(~np.isfinite(top))
    if len(bad):
        k, c = bad[0]
        (x, p), q = _sample(values[c][k], X, P), s[k] * U[k]
        raise ValueError(f"F - A is not finite at the sample x = {x.tolist()}, P = {p.tolist()}, Q = {q.tolist()}")
    return top


def _level(lam):
    """lam, refused unless a real number in (0, 1)."""
    if not isinstance(lam, numbers.Real):
        raise TypeError(f"lam must be a real number, got {type(lam).__name__}; the anchor is F.anchor")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lam must be in (0, 1), got {lam}")
    return lam


def sampled_estimates(F, lam: float | None = None, *, plan: SamplingPlan | None = None):
    """Every sampled estimate of the plan, from one pass over its increments.

    Returns ``(NearnessReport, PseudoMonotonicityReport,
    LipschitzConverseReport)``, the last two at level lam and ``None``
    when lam is None.  Per increment, the nearness quotient
    |Phi(x, P+Q) - Phi(x, P)| / |Q| is taken first, on Phi's rows; with
    lam, the Lipschitz quotient |F(x, P+Q) - F(x, P)| / |Q| and the
    pseudo-monotonicity gap follow on the same samples.  Their sums run
    over the N components in index order, and off Phi's rows F(x, P+Q) -
    F(x, P) is A:Q, so those components add one constant per increment;
    from N = 8 on the Lipschitz norm is numpy's, on all N components.  A
    non-finite sample raises ValueError, increment by increment in that
    order.
    The sweep runs in units of the power of two u <= nu(A) < 2u, so its
    quotients scale exactly with F; a chunk whose norms leave the float
    range in those units takes them in absolute units (``_unit_row_norms``).
    With lam, an anchor whose nu(A)**2, the gap's scale, leaves the normal
    floats is refused (ValueError).
    """
    if lam is not None:
        _level(lam)
    nu_a = cached_nu(F.anchor)
    if lam is not None and not 2.0**-1022 <= nu_a * nu_a < math.inf:
        raise ValueError(f"the anchor's scale nu(A) = {nu_a:.3e} is out of range: nu(A)**2 leaves the normal floats")
    unit = math.ldexp(1.0, math.frexp(nu_a)[1] - 1)  # 0.5 for a nu(A) of 0 or inf
    N, rows = F.anchor.N, list(F.rows)
    # from 8 components on, numpy's norm adds more than two rows in an order set by their columns
    full_width_norm = N >= 8 and len(rows) > 2
    best, near_witness, total = -1.0, None, 0
    lip, violations, worst, witness = 0.0, 0, 0.0, (None, None, None)
    for s, U, AU, X, P, D in _increment_sweep(F, plan, unit):
        samples = len(X) * P.shape[1]  # per batch; a gap entry stands for samples / gap[0].size
        total += len(s) * samples
        phi = {c: D[..., i] for i, c in enumerate(rows)}  # Phi's differences by component
        near = list(phi.values())
        if full_width_norm:
            zero = np.zeros(D.shape[:-1])
            near = [phi.get(c, zero) for c in range(N)]
        values = [_unit_row_norms(near, unit) / s[:, None, None]]
        if lam is not None:
            AQ = s[:, None] * AU  # (S, N), s (A:U) as for a lone increment
            aq = [AQ[:, c, None, None] for c in range(N)]  # (S, 1, 1) each
            # F(x, P+Q) - F(x, P) by components; off Phi's rows it is A:Q, one constant per increment
            dF = [aq[c] + phi[c] if c in phi else aq[c] for c in range(N)]
            aq_sq = np.array([q @ q for q in AQ])  # one 1-D dot per increment, summed as for a lone one
            s_sq = s**2
            rhs = 0.5 * aq_sq - 0.5 * lam**2 * (nu_a / unit) ** 2 * s_sq
            guard = 1e-12 * (aq_sq + (nu_a / unit) ** 2 * s_sq)
            # (A:Q) . dF summed in index order; positive where violated
            gap = rhs[:, None, None] - _ordered_sum(f * q for f, q in zip(dF, aq))
            violations += int(np.count_nonzero(gap > guard[:, None, None])) * (samples // gap[0].size)
            values += [_unit_row_norms(dF, unit) / s[:, None, None], gap]
        top = _batch_max(s, U, X, P, *values)
        k = int(np.argmax(top[:, 0]))  # ties: the first increment wins
        if top[k, 0] > best:
            best, near_witness = float(top[k, 0]), (*_sample(values[0][k], X, P), s[k] * U[k])
        if lam is not None:
            lip = max(lip, float(top[:, 1].max()))
            k = int(np.argmax(top[:, 2]))
            if top[k, 2] > worst:
                worst, witness = float(top[k, 2]), (*_sample(gap[k], X, P), s[k] * U[k])
    best, lip, worst = best * unit, lip * unit, worst * unit * unit
    near = NearnessReport(best, best / nu_a if nu_a > 0 else np.inf, total, *near_witness)
    if lam is None:
        return near, None, None
    pm = PseudoMonotonicityReport(violations, worst if worst > 0 else 0.0, total, *witness)
    threshold = float(np.sqrt(1.0 - lam**2) * nu_a)
    below = lip < threshold
    lc = LipschitzConverseReport(lip, threshold, violations, below, bool(below and violations == 0), total)
    return near, pm, lc


def nearness_constant(F, *, plan: SamplingPlan | None = None) -> NearnessReport:
    """Sampled estimate of nu(F, A) and the ratio nu(F, A) / nu(A), A being
    F's anchor.

    The estimate is the max of |F(x, P+Q) - F(x, P) - A:Q| / |Q| =
    |Phi(x, P+Q) - Phi(x, P)| / |Q| over the plan's triples, hence a lower
    bound for the true sup; it is monotone under enrichment of the plan's
    random streams.
    """
    return sampled_estimates(F, plan=plan)[0]


def check_pseudomonotonicity(F, lam: float = 0.5, *, plan: SamplingPlan | None = None) -> PseudoMonotonicityReport:
    """Sampled check of the quadratic monotonicity inequality at level lam.

    Whenever the sampled nearness quotients stay below lam * nu(A), the
    inequality holds on those same samples, so a zero violation count is
    the expected outcome for genuinely near operators.  Violations are
    counted with a small floating-point guard band and reported with the
    worst witness.
    """
    return sampled_estimates(F, _level(lam), plan=plan)[1]


def lipschitz_and_converse(F, lam: float = 0.5, *, plan: SamplingPlan | None = None) -> LipschitzConverseReport:
    """Sampled Lipschitz constant of F(x, .) and the converse test.

    Estimates sup |F(x, P+Q) - F(x, P)| / |Q| over the plan, compares it
    with the threshold sqrt(1 - lam^2) nu(A), and checks
    pseudo-monotonicity at the same level on the same samples; strict
    ellipticity is concluded only when both sampled hypotheses hold.
    """
    return sampled_estimates(F, _level(lam), plan=plan)[2]

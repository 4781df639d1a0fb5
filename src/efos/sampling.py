"""Deterministic sample generation: sphere point sets and estimator plans.

All randomness in the package flows through :func:`rng_from_seed`, which
wraps the MT19937 (Mersenne Twister) generator, with one exception: the
support probe of ``NonlinearOperator`` draws from the standard library's
``random.Random(0)``, also MT19937, so that building an operator does not
load ``numpy.random``.  The algorithm is named so that a sampling stream
can be reproduced exactly from a seed, independent of this code base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MAGNITUDE_LADDER",
    "rng_from_seed",
    "unit_sphere_points",
    "SamplingPlan",
]

# Geometric ladder of increment magnitudes used when estimating sup-type
# difference quotients.  Small entries probe the derivative regime, large
# ones the far field.
MAGNITUDE_LADDER = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2)

# Scales of the coordinate-matrix P anchors: trigonometric half-periods.
STRUCTURED_P_SCALES = (0.5 * np.pi, np.pi)

# Side of the fundamental cell [0, X_BOX)^n that x samples cover.
X_BOX = 1.0


def rng_from_seed(seed: int) -> np.random.Generator:
    """Seeded MT19937 generator, the package's RNG except in the support probe."""
    return np.random.Generator(np.random.MT19937(int(seed)))


@lru_cache(maxsize=8)
def unit_sphere_points(n: int, count: int) -> np.ndarray:
    """Quasi-uniform points on the unit sphere in R^n, shape (R, n), R >= count.

    n=2 uses equally spaced angles and n=3 the Fibonacci spiral, both with
    R = count.  Higher n uses a product-of-angles grid in hyperspherical
    coordinates: m midpoints on each of the n-2 polar angles and 2m on the
    azimuth, R = 2 m^(n-1) with the least m that reaches count (n=4: 2662
    points for 2048, 101306 for 100000).  The sets are deterministic and
    contain no exact poles or repeats.

    Each table is built once per (n, count) and shared by every caller, so
    it is read-only: a caller that writes takes a copy.  At most 8 tables
    are kept, R n floats each; at brute_nu's 100,000 points and n <= 4 a
    table is at most 3.3 MB (n=4, R = 101306), so 26 MB in all.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if n < 2:
        raise ValueError("sphere sampling needs n >= 2")
    if n == 2:
        theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        i = np.arange(count) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / count)
        theta = np.pi * (1.0 + np.sqrt(5.0)) * i
        pts = np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
            axis=1,
        )
    else:
        m = int(np.ceil((count / 2) ** (1.0 / (n - 1))))
        m -= 2 * (m - 1) ** (n - 1) >= count  # a root that rounds up past an exact power
        polar = [(np.arange(m) + 0.5) * np.pi / m for _ in range(n - 2)]
        azimuth = (np.arange(2 * m) + 0.5) * np.pi / m
        grids = np.meshgrid(*polar, azimuth, indexing="ij")
        angles = np.stack([g.ravel() for g in grids], axis=1)  # (R, n-1)
        pts = np.empty((angles.shape[0], n))
        sin_running = np.ones(angles.shape[0])
        for k in range(n - 1):
            pts[:, k] = sin_running * np.cos(angles[:, k])
            sin_running = sin_running * np.sin(angles[:, k])
        pts[:, n - 1] = sin_running
    pts.flags.writeable = False
    return pts


def _coordinate_matrices(N: int, n: int) -> np.ndarray:
    """All matrices with a single unit entry, shape (N*n, N, n)."""
    eye = np.eye(N * n)
    return eye.reshape(N * n, N, n)


def _extra_sample(field: str, i: int, extra, N: int, n: int) -> np.ndarray:
    """``field[i]`` as a (1, N, n) array; ValueError unless its shape is (N, n)."""
    if np.shape(extra) != (N, n):
        raise ValueError(f"{field}[{i}] has shape {np.shape(extra)}; need {(N, n)}")
    return np.asarray(extra, dtype=float)[None]


@dataclass(frozen=True)
class SamplingPlan:
    """Recipe for the (x, P, Q) triples fed to sup-type estimators.

    x points are a uniform grid over the fundamental cell [0, X_BOX)^n
    (always including the origin).  P anchors combine the origin,
    coordinate matrices scaled by STRUCTURED_P_SCALES, optional extra
    anchors, and random draws.  Q increments combine signed coordinate
    directions, the anchor tensor's strongest direction, optional extra
    directions, and random draws, each swept through MAGNITUDE_LADDER.
    An extra P anchor must be finite and an extra Q direction must have a
    finite, nonzero norm; the plan refuses others with a ValueError, and
    ``p_matrices`` and ``q_directions`` refuse an extra sample whose shape
    is not the (N, n) they are asked for.

    Random P, Q, and any future categories use separate child seeds so
    that enlarging one count extends its stream without moving any other;
    estimates are therefore monotone under sample enrichment.
    """

    x_per_axis: int = 2
    random_p: int = 4
    random_q: int = 8
    seed: int = 0
    extra_p: tuple = ()
    extra_q_directions: tuple = ()

    def __post_init__(self):
        if self.x_per_axis < 1 or self.random_p < 0 or self.random_q < 0:
            raise ValueError("sample counts must be nonnegative (x_per_axis >= 1)")
        for i, extra in enumerate(self.extra_p):
            if not np.isfinite(np.asarray(extra, dtype=float)).all():
                raise ValueError(f"extra_p[{i}] is not finite")
        for i, extra in enumerate(self.extra_q_directions):
            norm = np.linalg.norm(np.asarray(extra, dtype=float))
            if not 0.0 < norm < np.inf:
                raise ValueError(f"extra_q_directions[{i}] needs a finite, nonzero norm, got {norm}")

    def x_points(self, n: int) -> np.ndarray:
        """Grid sample of the fundamental cell, shape (X, n), first row 0."""
        axis = X_BOX * np.arange(self.x_per_axis) / self.x_per_axis
        grids = np.meshgrid(*([axis] * n), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def p_matrices(self, N: int, n: int) -> np.ndarray:
        """Base-point matrices P, shape (P, N, n); always starts with 0."""
        parts = [np.zeros((1, N, n))]
        coords = _coordinate_matrices(N, n)
        for s in STRUCTURED_P_SCALES:
            parts.append(s * coords)
            parts.append(-s * coords)
        for i, extra in enumerate(self.extra_p):
            parts.append(_extra_sample("extra_p", i, extra, N, n))
        if self.random_p:
            rng = rng_from_seed(self.seed * 5 + 1)
            parts.append(rng.normal(size=(self.random_p, N, n)))
        return np.concatenate(parts, axis=0)

    def q_directions(self, N: int, n: int, anchor) -> np.ndarray:
        """Unit-Frobenius increment directions, shape (D, N, n)."""
        coords = _coordinate_matrices(N, n)
        _, _, vh = np.linalg.svd(anchor.flattened())
        parts = [coords, -coords, vh[0].reshape(1, N, n)]
        for i, extra in enumerate(self.extra_q_directions):
            d = _extra_sample("extra_q_directions", i, extra, N, n)
            parts.append(d / np.linalg.norm(d))
        if self.random_q:
            rng = rng_from_seed(self.seed * 5 + 2)
            parts.append(rng.normal(size=(self.random_q, N, n)))
        dirs = np.concatenate(parts, axis=0)
        norms = np.linalg.norm(dirs.reshape(len(dirs), -1), axis=1)
        return dirs / norms[:, None, None]

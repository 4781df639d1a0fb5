"""Constant-coefficient tensors acting on gradient matrices, and their algebra.

A first-order system with constant coefficients is written ``A : Du = f``,
where ``A`` maps an N x n matrix (the gradient of an N-component field over
n variables) linearly to an N-vector.  Everything downstream -- ellipticity
constants, Fourier multipliers, fixed-point iterations -- is built from the
handful of contractions defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantTensor",
    "contract",
    "direction_matrix",
    "operator_norm",
]


@dataclass(frozen=True)
class ConstantTensor:
    """Linear map from N x n matrices to N-vectors.

    ``entries[alpha, beta, j]`` multiplies the (beta, j) entry of a gradient
    matrix and contributes to output component alpha.  Storage order is
    fixed as (alpha slowest, then beta, then j) so that a flat listing of
    the entries, e.g. in a config file, is unambiguous.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"tensor entries must have shape (N, N, n), got {arr.shape}")
        N, _, n = arr.shape
        if N < 2 or n < 2:
            raise ValueError(f"tensor needs N >= 2 and n >= 2, got N={N}, n={n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def N(self) -> int:
        """Number of output components (equals the component count of fields)."""
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        """Number of independent variables."""
        return self.entries.shape[2]

    @classmethod
    def from_flat(cls, values, N: int, n: int) -> "ConstantTensor":
        """Build from a flat list in (alpha slowest, beta, j) order."""
        arr = np.asarray(list(values), dtype=float)
        if arr.size != N * N * n:
            raise ValueError(f"expected {N * N * n} entries for N={N}, n={n}, got {arr.size}")
        return cls(arr.reshape(N, N, n))

    def flattened(self) -> np.ndarray:
        """The tensor as an (N, N*n) matrix, rows indexed by alpha."""
        return self.entries.reshape(self.N, self.N * self.n)

    def __eq__(self, other):
        if not isinstance(other, ConstantTensor):
            return NotImplemented
        return self.entries.shape == other.entries.shape and np.array_equal(
            self.entries, other.entries
        )

    def __hash__(self):
        # + 0.0 turns -0.0 into +0.0, so tensors that __eq__ calls equal hash equal
        return hash((self.entries.shape, (self.entries + 0.0).tobytes()))


def contract(A: ConstantTensor, Q) -> np.ndarray:
    """Apply the tensor to a gradient matrix: ``(A : Q)_alpha = A[a,b,j] Q[b,j]``.

    ``Q`` may carry extra leading axes; the contraction is broadcast over
    them, which is how whole grids of gradients are pushed through at once.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape[-2:] != (A.N, A.n):
        raise ValueError(f"gradient matrix must end in shape ({A.N}, {A.n}), got {Q.shape}")
    return np.einsum("abj,...bj->...a", A.entries, Q)


def direction_matrix(A: ConstantTensor, a) -> np.ndarray:
    """The N x N matrix ``(A a)[alpha, beta] = A[alpha, beta, j] a_j``.

    Contracting only the variable index turns the tensor into a square
    matrix per direction; its invertibility along the unit sphere is
    exactly ellipticity.  Broadcasts over leading axes of ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != A.n:
        raise ValueError(f"direction must end in shape ({A.n},), got {a.shape}")
    return np.einsum("abj,...j->...ab", A.entries, a)


def operator_norm(A: ConstantTensor) -> float:
    """Largest singular value of the flattened (N, N*n) matrix.

    This is ``sup |A : Q|`` over gradient matrices with unit Frobenius
    norm, the natural companion constant to the ellipticity constant.
    """
    return float(np.linalg.svd(A.flattened(), compute_uv=False)[0])

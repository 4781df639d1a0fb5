"""Named tensors and operator families with documented constants.

Entries are addressed as ``name`` or ``catalog:name(param, ...)`` in
config files.  Constant tensors: the Cauchy-Riemann system, its
anisotropic generalization, and the real form of the Dirac operator.
Operator families: Lipschitz perturbations of a linear anchor and the
anchor plus an oscillating coefficient on one gradient entry, both
carrying analytically known nearness bounds.
"""

from __future__ import annotations

import inspect
import numbers
import re

import numpy as np

from .ellipticity import cached_nu
from .nonlinear import NonlinearOperator
from .tensor import ConstantTensor

__all__ = [
    "get",
    "parse_catalog_ref",
    "cauchy_riemann",
    "generalized_cauchy_riemann",
    "dirac",
    "lipschitz_perturbation",
    "variable_linear",
    "SHAPE_FUNCTIONS",
]


def cauchy_riemann() -> ConstantTensor:
    """The 2 x (2 x 2) divergence/rotation pair: (Q11 + Q22, -Q12 + Q21)."""
    return generalized_cauchy_riemann(1.0, 1.0, 1.0, 1.0)


def generalized_cauchy_riemann(kappa: float, lam: float, mu: float, nu: float) -> ConstantTensor:
    """Anisotropic first-order pair (kappa Q11 + lam Q22, -mu Q12 + nu Q21).

    All four weights must be positive; equal weights recover the
    divergence/rotation pair.
    """
    for name, value in (("kappa", kappa), ("lam", lam), ("mu", mu), ("nu", nu)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    entries = np.zeros((2, 2, 2))
    entries[0, 0, 0] = kappa
    entries[0, 1, 1] = lam
    entries[1, 0, 1] = -mu
    entries[1, 1, 0] = nu
    return ConstantTensor(entries)


def dirac() -> ConstantTensor:
    """Real 4-component form of the three-variable Dirac operator.

    The four equations, with D_j u_b abbreviated by (b, j):

        (1,1) + (2,2) + (3,3) = f1
       -(1,2) + (2,1) + (4,3) = f2
       -(1,3) + (3,1) - (4,2) = f3
       -(2,3) + (3,2) + (4,1) = f4

    The direction matrix is orthogonal for every unit direction, so the
    ellipticity constant is exactly 1 and |det| is exactly 1.
    """
    entries = np.zeros((4, 4, 3))
    entries[0, 0, 0] = 1
    entries[0, 1, 1] = 1
    entries[0, 2, 2] = 1
    entries[1, 0, 1] = -1
    entries[1, 1, 0] = 1
    entries[1, 3, 2] = 1
    entries[2, 0, 2] = -1
    entries[2, 2, 0] = 1
    entries[2, 3, 1] = -1
    entries[3, 1, 2] = -1
    entries[3, 2, 1] = 1
    entries[3, 3, 0] = 1
    return ConstantTensor(entries)


def _shape_sin_q11(Q):
    return np.sin(Q[..., 0, 0:1])


def _shape_tanh_row1(Q):
    n = Q.shape[-1]
    return np.tanh(Q[..., 0, :].sum(axis=-1) / np.sqrt(n))[..., None]


# Each shape is 1-Lipschitz in the Frobenius norm, so a perturbation
# lam * nu(A) * shape has nearness constant at most lam * nu(A).  Each
# returns a new array (..., 1), output component 0, the only row it makes
# nonzero, which the perturbation scales in place.
SHAPE_FUNCTIONS = {
    "sin_q11": _shape_sin_q11,
    "tanh_trace": _shape_tanh_row1,
}

# The gradient entries (beta, j) each shape reads, given n.
_SHAPE_SUPPORTS = {
    "sin_q11": lambda n: ((0, 0),),
    "tanh_trace": lambda n: tuple((0, j) for j in range(n)),
}


def _resolve_base(base) -> ConstantTensor:
    if isinstance(base, ConstantTensor):
        return base
    if str(base) not in _TENSORS:
        raise KeyError(f"unknown base tensor {base!r}")
    return _TENSORS[str(base)]()


def lipschitz_perturbation(base, lam: float, shape: str = "sin_q11") -> NonlinearOperator:
    """F(x, Q) = A:Q + lam nu(A) s(Q) with a 1-Lipschitz shape s, whose
    support is the entries that s reads and whose one row is component 0.

    The declared nearness is lam * nu(A); the operator is strictly
    elliptic relative to A exactly when lam < 1 (larger lam is allowed
    but yields no contraction margin).
    """
    A = _resolve_base(base)
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if shape not in SHAPE_FUNCTIONS:
        raise KeyError(f"unknown shape {shape!r}; choose from {sorted(SHAPE_FUNCTIONS)}")
    s = SHAPE_FUNCTIONS[shape]
    amp = lam * cached_nu(A)

    def perturbation(x, Q):
        phi = s(np.asarray(Q, dtype=float))
        phi *= amp
        return phi

    return NonlinearOperator(
        perturbation=perturbation,
        anchor=A,
        support=_SHAPE_SUPPORTS[shape](A.n),
        declared_nearness=amp,
        name=f"lipschitz_perturbation({lam}, {shape})",
        rows=(0,),
    )


def variable_linear(base, eps: float) -> NonlinearOperator:
    """F(x, Q) = A:Q + eps cos(2 pi x1) Q11 e1, the anchor plus a unit-norm
    modulation that reads the one entry (0, 0) and writes the one row 0.

    The declared nearness is eps, attained at x1 = 0, so the operator is
    strictly elliptic relative to A iff eps < nu(A).
    """
    A = _resolve_base(base)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")

    def perturbation(x, Q):
        x = np.asarray(x, dtype=float)
        osc = eps * np.cos(2.0 * np.pi * x[..., 0])
        return osc[..., None] * np.asarray(Q, dtype=float)[..., 0, 0:1]

    return NonlinearOperator(
        perturbation=perturbation,
        anchor=A,
        support=((0, 0),),
        declared_nearness=float(eps),
        name=f"variable_linear({eps})",
        rows=(0,),
        reads_x=True,
    )


_TENSORS = {"cauchy_riemann": cauchy_riemann, "generalized_cr": generalized_cauchy_riemann, "dirac": dirac}
_OPERATORS = {"lipschitz_perturbation": lipschitz_perturbation, "variable_linear": variable_linear}


def get(name: str, params=()):
    """Construct a catalog entry by name with positional params.

    Returns a ConstantTensor for tensor entries and a NonlinearOperator
    for operator families.  Unknown names raise KeyError; a wrong number
    of params, or a non-number for a parameter annotated float, raises
    ValueError naming the entry.
    """
    build = _TENSORS.get(name) or _OPERATORS.get(name)
    if build is None:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(sorted({**_TENSORS, **_OPERATORS}))}")
    signature = inspect.signature(build)
    try:
        bound = signature.bind(*params)
    except TypeError as exc:
        raise ValueError(f"catalog entry {name!r} takes ({', '.join(signature.parameters)}): {exc}") from None
    for key, value in bound.arguments.items():
        if signature.parameters[key].annotation in (float, "float") and not isinstance(value, numbers.Real):
            raise ValueError(f"catalog entry {name!r} needs a number for {key}, got {value!r}")
    return build(*params)


_REF_RE = re.compile(r"^catalog:([a-z0-9_]+)(?:\((.*)\))?$")


def parse_catalog_ref(text: str):
    """Parse ``catalog:name(p1, p2, ...)`` into (name, params).

    Numeric params become floats, everything else stays a string.
    """
    m = _REF_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a catalog reference: {text!r}")
    name, raw = m.group(1), m.group(2)
    params = []
    if raw:
        for tok in raw.split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                params.append(float(tok))
            except ValueError:
                params.append(tok)
    return name, tuple(params)

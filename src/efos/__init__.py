"""Elliptic first-order systems: ellipticity constants, spectral solves,
and near-operator fixed-point iteration on the periodic torus.

The pieces fit together in three layers:

* ``tensor``, ``ellipticity``, ``sampling`` work with constant-coefficient
  tensors A and measure ellipticity and operator nearness.
* ``grid``, ``linear``, ``fieldfile`` discretize the torus, invert
  A:Du = f mode by mode, and serialize fields.
* ``nonlinear``, ``oracle``, ``catalog`` iterate fully nonlinear systems
  toward the fixed point, cross-check against dense linear algebra, and
  provide ready-made example systems.
"""

from .catalog import (
    cauchy_riemann,
    dirac,
    generalized_cauchy_riemann,
    lipschitz_perturbation,
    parse_catalog_ref,
    variable_linear,
)
from .ellipticity import (
    EllipticityReport,
    NearnessReport,
    NonEllipticError,
    cached_nu,
    ellipticity_constant,
    nearness_constant,
    sampled_estimates,
)
from .fieldfile import read_field, write_field
from .grid import (
    GridFunction,
    PeriodicGrid,
    gradient,
    norm_l2,
    norm_l2star,
    random_band_limited,
)
from .linear import (
    MultiplierPlan,
    RegularizerSequence,
    solve_linear,
    solve_representation,
    verify_apriori,
)
from .nonlinear import (
    DivergenceError,
    IterationTrace,
    NonlinearOperator,
    campanato_solve,
    near_operator_check,
    verify_comparison,
)
from .oracle import brute_nu, solve_dense
from .sampling import SamplingPlan, rng_from_seed, unit_sphere_points
from .tensor import ConstantTensor, contract, direction_matrix, operator_norm

__version__ = "0.1.0"

__all__ = [
    "ConstantTensor",
    "DivergenceError",
    "EllipticityReport",
    "GridFunction",
    "IterationTrace",
    "MultiplierPlan",
    "NearnessReport",
    "NonEllipticError",
    "NonlinearOperator",
    "PeriodicGrid",
    "RegularizerSequence",
    "SamplingPlan",
    "brute_nu",
    "cached_nu",
    "campanato_solve",
    "cauchy_riemann",
    "contract",
    "dirac",
    "direction_matrix",
    "ellipticity_constant",
    "generalized_cauchy_riemann",
    "gradient",
    "lipschitz_perturbation",
    "near_operator_check",
    "nearness_constant",
    "norm_l2",
    "norm_l2star",
    "operator_norm",
    "parse_catalog_ref",
    "random_band_limited",
    "read_field",
    "rng_from_seed",
    "sampled_estimates",
    "solve_dense",
    "solve_linear",
    "solve_representation",
    "unit_sphere_points",
    "variable_linear",
    "verify_apriori",
    "verify_comparison",
    "write_field",
    "__version__",
]

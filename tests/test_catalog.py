"""Catalog systems: equations, declared constants, and the name parser."""

import numpy as np
import pytest

from efos.catalog import (
    SHAPE_FUNCTIONS,
    cauchy_riemann,
    dirac,
    generalized_cauchy_riemann,
    get,
    lipschitz_perturbation,
    parse_catalog_ref,
    variable_linear,
)
from efos.ellipticity import cached_nu, nearness_constant
from efos.sampling import rng_from_seed
from efos.tensor import contract, direction_matrix


def test_registry_names():
    # an unknown name is refused with every known one, sorted
    known = "cauchy_riemann, dirac, generalized_cr, lipschitz_perturbation, variable_linear"
    with pytest.raises(KeyError, match=f"^\"unknown catalog entry 'nope'; known: {known}\"$"):
        get("nope")


def test_cauchy_riemann_equations():
    A = cauchy_riemann()
    rng = rng_from_seed(0)
    Q = rng.standard_normal((2, 2))
    out = contract(A, Q)
    assert out[0] == pytest.approx(Q[0, 0] + Q[1, 1])
    assert out[1] == pytest.approx(-Q[0, 1] + Q[1, 0])


def test_generalized_cr_equations_and_validation():
    A = generalized_cauchy_riemann(2.0, 3.0, 5.0, 7.0)
    rng = rng_from_seed(1)
    Q = rng.standard_normal((2, 2))
    out = contract(A, Q)
    assert out[0] == pytest.approx(2.0 * Q[0, 0] + 3.0 * Q[1, 1])
    assert out[1] == pytest.approx(-5.0 * Q[0, 1] + 7.0 * Q[1, 0])
    with pytest.raises(ValueError):
        generalized_cauchy_riemann(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        generalized_cauchy_riemann(1.0, 1.0, -2.0, 1.0)


def test_dirac_direction_matrices_orthogonal():
    A = dirac()
    rng = rng_from_seed(2)
    for _ in range(20):
        a = rng.standard_normal(3)
        a /= np.linalg.norm(a)
        M = direction_matrix(A, a)
        np.testing.assert_allclose(M.T @ M, np.eye(4), atol=1e-12)
        assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-12


def test_dirac_equations():
    A = dirac()
    rng = rng_from_seed(3)
    Q = rng.standard_normal((4, 3))
    out = contract(A, Q)
    assert out[0] == pytest.approx(Q[0, 0] + Q[1, 1] + Q[2, 2])
    assert out[1] == pytest.approx(-Q[0, 1] + Q[1, 0] + Q[3, 2])
    assert out[2] == pytest.approx(-Q[0, 2] + Q[2, 0] - Q[3, 1])
    assert out[3] == pytest.approx(-Q[1, 2] + Q[2, 1] + Q[3, 0])


def test_lipschitz_perturbation_evaluator():
    A = dirac()
    F = lipschitz_perturbation(A, 0.5, "sin_q11")
    amp = 0.5 * cached_nu(A)
    assert F.declared_nearness == pytest.approx(amp)
    rng = rng_from_seed(4)
    Q = rng.standard_normal((4, 3))
    x = np.zeros(3)
    out = F.evaluate(x, Q)
    base = contract(A, Q)
    assert out[0] == pytest.approx(base[0] + amp * np.sin(Q[0, 0]))
    np.testing.assert_allclose(out[1:], base[1:], atol=1e-14)


def test_shape_functions_are_one_lipschitz():
    rng = rng_from_seed(5)
    for name in SHAPE_FUNCTIONS:
        shape = SHAPE_FUNCTIONS[name]
        worst = 0.0
        for _ in range(300):
            Q1 = 3.0 * rng.standard_normal((4, 3))
            Q2 = Q1 + rng.standard_normal((4, 3)) * rng.choice([1e-3, 1e-1, 1.0])
            num = np.linalg.norm(shape(Q1) - shape(Q2))
            den = np.linalg.norm(Q1 - Q2)
            worst = max(worst, num / den)
        assert worst <= 1.0 + 1e-9, name


def test_lipschitz_perturbation_validation():
    with pytest.raises(ValueError):
        lipschitz_perturbation(dirac(), -0.1, "sin_q11")
    with pytest.raises(KeyError):
        lipschitz_perturbation(dirac(), 0.5, "unknown_shape")
    # lam >= 1 builds fine but leaves no contraction margin
    F = lipschitz_perturbation(dirac(), 1.5, "sin_q11")
    rep = nearness_constant(F)
    assert cached_nu(F.anchor) - rep.nu_fa < 0


def test_variable_linear_evaluator():
    A = dirac()
    F = variable_linear(A, 0.05)
    assert F.declared_nearness == pytest.approx(0.05)
    rng = rng_from_seed(6)
    Q = rng.standard_normal((4, 3))
    x = np.array([0.25, 0.1, 0.9])
    out = F.evaluate(x, Q)
    base = contract(A, Q)
    coef = 0.05 * np.cos(2 * np.pi * x[0])
    delta = out - base
    assert np.linalg.norm(delta) <= 0.05 * np.linalg.norm(Q) + 1e-12
    assert abs(np.linalg.norm(delta) - abs(coef) * abs(Q[0, 0])) < 1e-12  # the modulation reads one entry


def test_declared_supports():
    # each operator declares the gradient entries its perturbation reads and the components it writes
    A = dirac()
    assert lipschitz_perturbation(A, 0.5, "sin_q11").support == ((0, 0),)
    assert lipschitz_perturbation(A, 0.5, "tanh_trace").support == ((0, 0), (0, 1), (0, 2))
    assert variable_linear(A, 0.3).support == ((0, 0),)
    for F in (lipschitz_perturbation(A, 0.5, "sin_q11"), lipschitz_perturbation(A, 0.5, "tanh_trace")):
        assert F.rows == (0,)
    assert variable_linear(A, 0.3).rows == (0,)


CATALOG_OPERATORS = {
    "sin_q11": lambda A: lipschitz_perturbation(A, 0.5, "sin_q11"),
    "tanh_trace": lambda A: lipschitz_perturbation(A, 0.5, "tanh_trace"),
    "variable_linear": lambda A: variable_linear(A, 0.3),
}
CATALOG_ANCHORS = {
    "dirac": dirac,
    "cauchy_riemann": cauchy_riemann,
    "generalized_cr": lambda: generalized_cauchy_riemann(2, 1, 1, 1),
}


@pytest.mark.parametrize("anchor", CATALOG_ANCHORS)
@pytest.mark.parametrize("op", CATALOG_OPERATORS)
def test_declared_supports_and_rows_are_tight(op, anchor):
    # the constructor's probe shows that Phi reads nothing outside its support; this shows that it reads
    # every entry inside it and that every declared row is nonzero somewhere
    F = CATALOG_OPERATORS[op](CATALOG_ANCHORS[anchor]())
    N, n = F.anchor.N, F.anchor.n
    rng = rng_from_seed(8)
    x, Q = rng.uniform(size=(64, n)), rng.standard_normal((64, N, n))
    base = F.perturbation(x, Q)
    for b, j in F.support:
        moved = Q.copy()
        moved[:, b, j] += 1.0
        assert not np.array_equal(F.perturbation(x, moved), base), (b, j)
    assert np.all(np.any(base != 0, axis=0)), F.rows


@pytest.mark.parametrize("anchor", CATALOG_ANCHORS)
@pytest.mark.parametrize("eps", [0.05, 0.3])
def test_variable_linear_closed_form(anchor, eps):
    A = CATALOG_ANCHORS[anchor]()
    F = variable_linear(A, eps)
    rng = rng_from_seed(9)
    x, Q = rng.uniform(size=(64, A.n)), rng.standard_normal((64, A.N, A.n))
    expected = np.zeros((64, A.N))
    expected[:, 0] = eps * np.cos(2 * np.pi * x[:, 0]) * Q[:, 0, 0]
    assert np.array_equal(F.scatter(F.perturbation(x, Q)), expected)


def test_parse_catalog_ref_forms():
    assert parse_catalog_ref("catalog:dirac") == ("dirac", ())
    name, params = parse_catalog_ref("catalog:generalized_cr(2, 1, 1, 1)")
    assert name == "generalized_cr"
    assert params == (2.0, 1.0, 1.0, 1.0)
    name, params = parse_catalog_ref("catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)")
    assert params == ("dirac", 0.5, "sin_q11")
    with pytest.raises(ValueError):
        parse_catalog_ref("dirac")
    with pytest.raises(ValueError):
        parse_catalog_ref("catalog:")


def test_get_builds_and_rejects():
    A = get("generalized_cr", (2.0, 1.0, 1.0, 1.0))
    assert A == generalized_cauchy_riemann(2.0, 1.0, 1.0, 1.0)
    F = get("lipschitz_perturbation", ("dirac", 0.5, "sin_q11"))
    assert F.declared_nearness == pytest.approx(0.5 * cached_nu(dirac()))
    with pytest.raises(KeyError):
        get("not_a_system")

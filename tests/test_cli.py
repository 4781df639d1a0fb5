"""End-to-end CLI runs: configs in, reports and fields out, coded exits."""

import configparser
import csv
import math
import tracemalloc

import numpy as np
import pytest

from efos.catalog import cauchy_riemann, dirac
from efos.cli import CONFIG_KEYS, PLAN_BUDGET_BYTES, REPORT_COLUMNS, TRACE_COLUMNS, _load_config, build_grid, main
from efos.ellipticity import cached_nu
from efos.fieldfile import read_field, write_field
from efos.grid import GridFunction, PeriodicGrid, random_band_limited
from efos.sampling import rng_from_seed
from efos.tensor import ConstantTensor

from helpers import dirac_closed_form, load_benchmark, poke_payload, run_python

DIRAC_LINEAR = """
[tensor]
source = catalog:dirac

[grid]
G = 16
L = 1.0

[rhs]
kind = mode
component = 1
frequency = 1,0,0
amplitude = 1.0
"""


def run(tmp_path, config_text, command, name="run.ini", extra=()):
    cfg = tmp_path / name
    cfg.write_text(config_text)
    out = tmp_path / "out"
    return main([command, "--config", str(cfg), "--out", str(out), *extra]), out


def run_entry(tmp_path, config_text, command):
    """``command`` through the console script's entry point in a fresh
    interpreter, so that its stderr holds all it prints, warnings included."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(config_text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    return run_python("-c", "from efos.cli import entry; entry()", *argv)


def test_analyze_writes_report(tmp_path):
    code, out = run(tmp_path, "[tensor]\nsource = catalog:dirac\n", "analyze")
    assert code == 0
    header, row = (out / "ellipticity.csv").read_text().strip().split("\n")
    assert header.startswith("nu,")
    assert abs(float(row.split(",")[0]) - 1.0) < 1e-9


def test_analyze_inline_tensor(tmp_path):
    text = """
[tensor]
source = inline
N = 2
n = 2
entries = 1,0, 0,1, 0,-1, 1,0
"""
    code, out = run(tmp_path, text, "analyze")
    assert code == 0
    row = (out / "ellipticity.csv").read_text().strip().split("\n")[1]
    assert abs(float(row.split(",")[0]) - 1.0) < 1e-9


def test_analyze_tiny_tensor_is_elliptic(tmp_path):
    # the gate is relative to |A|, so 1e-13 CR is as elliptic as CR
    text = "[tensor]\nsource = inline\nN = 2\nn = 2\nentries = 1e-13,0, 0,1e-13, 0,-1e-13, 1e-13,0\n"
    code, out = run(tmp_path, text, "analyze")
    assert code == 0
    with open(out / "ellipticity.csv", newline="") as fh:
        (cells,) = list(csv.DictReader(fh))
    assert cells["elliptic"] == "True"
    assert abs(float(cells["nu"]) / 1e-13 - 1.0) < 1e-9


def test_analyze_non_elliptic_exit_code(tmp_path):
    text = """
[tensor]
source = inline
N = 2
n = 2
entries = 0,0, 0,0, 0,0, 0,0
"""
    code, out = run(tmp_path, text, "analyze")
    assert code == 2
    row = (out / "ellipticity.csv").read_text().strip().split("\n")[1]
    assert row.split(",")[0] == "0.0"


def _inline(entries: np.ndarray) -> str:
    N, _, n = entries.shape
    return f"[tensor]\nsource = inline\nN = {N}\nn = {n}\nentries = {', '.join(map(repr, entries.ravel().tolist()))}\n"


def test_analyze_reports_the_nu_that_the_solvers_use(tmp_path):
    # a noisy dirac tensor whose 2048-sample nu is not its 4096-sample cached_nu
    A = ConstantTensor(dirac().entries + 0.05 * np.random.default_rng(1).standard_normal((4, 4, 3)))
    code, out = run(tmp_path, _inline(A.entries), "analyze")
    assert code == 0
    with open(out / "ellipticity.csv", newline="") as fh:
        (cells,) = list(csv.DictReader(fh))
    assert float(cells["nu"]) == cached_nu(A)
    assert cells["resolution"] == "4096"


@pytest.mark.parametrize(
    "entries, code, min_abs_det",
    [
        (1e200 * np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]), 2, "0.0"),
        (1e160 * cauchy_riemann().entries, 0, "inf"),
    ],
    ids=["singular_1e200", "cr_1e160"],
)
def test_analyze_min_abs_det_beyond_the_float_range(tmp_path, capsys, entries, code, min_abs_det):
    # min|det| is exp of the least log|det|: a singular tensor gives 0 and 1e160 CR, whose
    # least |det| is 1e320, gives inf, with no overflow warning on the way
    assert run(tmp_path, _inline(entries), "analyze")[0] == code
    with open(tmp_path / "out" / "ellipticity.csv", newline="") as fh:
        (cells,) = list(csv.DictReader(fh))
    assert cells["min_abs_det"] == min_abs_det
    assert f"min|det| = {float(min_abs_det):.12g} " in capsys.readouterr().out


def test_solve_linear_closed_form(tmp_path):
    code, out = run(tmp_path, DIRAC_LINEAR, "solve-linear")
    assert code == 0
    u = read_field(out / "u.efof")
    expected = dirac_closed_form(PeriodicGrid(n=3, G=16))
    assert np.max(np.abs(u.values - expected.values)) <= 1e-10
    header, row = (out / "report.csv").read_text().strip().split("\n")
    assert header == ",".join(REPORT_COLUMNS)
    cells = dict(zip(REPORT_COLUMNS, row.split(",")))
    assert float(cells["residual"]) <= 1e-10
    assert float(cells["ratio_grad"]) <= 1.0 + 1e-10


def test_solve_linear_representation_ladder(tmp_path):
    text = DIRAC_LINEAR + "\n[solver]\nregularizer = rational\nm = 1,10,100,1000\n"
    code, out = run(tmp_path, text, "solve-linear")
    assert code == 0
    lines = (out / "representation.csv").read_text().strip().split("\n")
    assert len(lines) == 5
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errs, errs[1:]))  # tighter with larger m


@pytest.mark.parametrize(
    "kind, ms, message",
    [
        ("bogus", "1,10", "unknown regularizer kind 'bogus'"),
        ("bogus", "", "m lists no regularizer index"),
        ("rational", "", "m lists no regularizer index"),
    ],
)
def test_bad_regularizer_ladder_is_config_error(tmp_path, capsys, kind, ms, message):
    text = DIRAC_LINEAR + f"\n[solver]\nregularizer = {kind}\nm = {ms}\n"
    code, out = run(tmp_path, text, "solve-linear")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (out / "representation.csv").exists()
    assert not (out / "u.efof").exists()


def test_solve_linear_rhs_from_file(tmp_path):
    grid = PeriodicGrid(n=3, G=8)
    f = random_band_limited(grid, 4, rng_from_seed(0))
    write_field(tmp_path / "f.efof", f)
    text = f"""
[tensor]
source = catalog:dirac

[grid]
G = 8

[rhs]
kind = file
file = {tmp_path / "f.efof"}
"""
    code, out = run(tmp_path, text, "solve-linear")
    assert code == 0
    assert (out / "u.efof").exists()


def test_solve_linear_grid_mismatch_is_config_error(tmp_path):
    grid = PeriodicGrid(n=3, G=8)
    f = random_band_limited(grid, 4, rng_from_seed(0))
    write_field(tmp_path / "f.efof", f)
    text = f"""
[tensor]
source = catalog:dirac

[grid]
G = 16

[rhs]
kind = file
file = {tmp_path / "f.efof"}
"""
    code, _ = run(tmp_path, text, "solve-linear")
    assert code == 1


@pytest.mark.parametrize("kind", ["mode", "expression", "file"])
def test_non_finite_rhs_is_config_error(tmp_path, capsys, kind):
    grid = PeriodicGrid(n=3, G=8)
    shape = (4,) + grid.shape
    write_field(tmp_path / "f.efof", GridFunction(grid, np.zeros(shape)))
    poke_payload(tmp_path / "f.efof", shape, (2, 1, 0, 5), np.nan)
    rhs = {
        "mode": "kind = mode\ncomponent = 1\nfrequency = 1,0,0\namplitude = nan",
        "expression": "kind = expression\nf1 = 1/(x1 - x1)",
        "file": f"kind = file\nfile = {tmp_path / 'f.efof'}",
    }[kind]
    text = f"[tensor]\nsource = catalog:dirac\n\n[grid]\nG = 8\n\n[rhs]\n{rhs}\n"
    with np.errstate(divide="ignore", invalid="ignore"):
        code, out = run(tmp_path, text, "solve-linear")
    assert code == 1
    witness = "component 2, grid index (1, 0, 5)" if kind == "file" else "component 0, grid index (0, 0, 0)"
    assert f"not finite at {witness}" in capsys.readouterr().err
    assert not (out / "u.efof").exists()


@pytest.mark.parametrize("setting", ["max_iter = 0", "tol = -1"])
def test_bad_solver_values_exit_code(tmp_path, setting):
    text = DIRAC_LINEAR + f"""
[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)

[solver]
{setting}
"""
    code, out = run(tmp_path, text, "solve-nonlinear")
    assert code == 1
    assert not (out / "u.efof").exists()


def test_every_csv_parses(tmp_path):
    text = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[solver]
regularizer = rational

[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)
"""
    for command in ("analyze", "solve-linear", "solve-nonlinear", "verify"):
        code, out = run(tmp_path, text, command, extra=("--seed", "5") if command == "verify" else ())
        assert code == 0, command
    numeric = {
        "ellipticity.csv": ("nu", "min_abs_det", "resolution"),
        "report.csv": REPORT_COLUMNS,
        "representation.csv": ("m", "rel_error", "factor_gap", "rational_bound", "residual"),
        "trace.csv": TRACE_COLUMNS,
        "verify.csv": ("value", "bound"),
    }
    for name, columns in numeric.items():
        with open(out / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            cells = dict(zip(header, row))
            for column in columns:
                float(cells[column])
    with open(out / "verify.csv", newline="") as fh:
        for cells in csv.DictReader(fh):  # a row passes exactly when its value is at most its bound
            assert cells["status"] == ("pass" if float(cells["value"]) <= float(cells["bound"]) else "FAIL"), cells
    with open(out / "ellipticity.csv", newline="") as fh:
        (cells,) = list(csv.DictReader(fh))
    direction = [float(v) for v in cells["argmin_direction"].split(" ")]
    assert len(direction) == 3
    assert abs(np.linalg.norm(direction) - 1.0) <= 1e-12


def test_solve_nonlinear_catalog_operator(tmp_path):
    text = DIRAC_LINEAR + """
[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)

[solver]
tol = 1e-10
max_iter = 400
"""
    code, out = run(tmp_path, text, "solve-nonlinear")
    assert code == 0
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert 2 <= len(lines) - 1 <= 40
    last = lines[-1].split(",")
    assert float(last[3]) <= 1e-8


def test_trace_csv_columns(tmp_path, capsys):
    text = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)

[solver]
tol = 1e-8
"""
    code, out = run(tmp_path, text, "solve-nonlinear")
    assert code == 0
    iterations = int(capsys.readouterr().out.split("converged in ")[1].split(" iterations")[0])
    lines = (out / "trace.csv").read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == iterations + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert math.isnan(float(first[2]))  # no ratio on the first step


CR_EXPRESSIONS = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 16

[rhs]
kind = expression
f1 = sin(2*pi*x1)
f2 = 0

[nonlinear]
f1 = q11 + q22 + 0.2*sin(q11)
f2 = -q12 + q21
lambda = 0.2
"""
# literals whose float overflows, each with the shortened text that the refusal quotes
NON_FINITE_LITERALS = [("7" * 400, "7" * 20 + "..."), ("1e400", "1e400")]


def test_solve_nonlinear_expression_operator(tmp_path):
    code, out = run(tmp_path, CR_EXPRESSIONS, "solve-nonlinear")
    assert code == 0
    assert (out / "u.efof").exists()


# F = 2.5 A:Q declared as 0.5 nu(A) from A: Phi = 1.5 A:Q, so every step grows d by the factor 1.5
DIVERGING = DIRAC_LINEAR + """
[nonlinear]
f1 = 2.5*(q11 + q22 + q33)
f2 = 2.5*(-q12 + q21 + q43)
f3 = 2.5*(-q13 + q31 - q42)
f4 = 2.5*(-q23 + q32 + q41)
lambda = 0.5

[solver]
max_iter = 50
"""

# exp overflows once q11 > 7.1e-4, and inf - inf is NaN
NON_FINITE = DIRAC_LINEAR + """
[nonlinear]
f1 = q11 + q22 + q33 + exp(1e6*q11) - exp(1e6*q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
lambda = 0.5
"""


def test_solve_nonlinear_divergence_exit_code(tmp_path):
    code, _ = run(tmp_path, DIVERGING, "solve-nonlinear")
    assert code == 3


def test_solve_nonlinear_non_finite_operator_exit_code(tmp_path, capsys):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(tmp_path, NON_FINITE, "solve-nonlinear")
    assert code == 3
    assert "not finite at step 1" in capsys.readouterr().err
    assert not (out / "u.efof").exists()


def test_diverged_run_writes_its_trace(tmp_path, capsys):
    code, out = run(tmp_path, DIVERGING, "solve-nonlinear")
    assert code == 3
    assert "no contraction for 3 consecutive steps" in capsys.readouterr().err
    assert not (out / "u.efof").exists()
    with open(out / "trace.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert tuple(header) == TRACE_COLUMNS
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert len(rows) >= 3 and math.isnan(float(rows[0][2]))
    assert all(abs(float(row[2]) - 1.5) <= 1e-9 for row in rows[1:])


def test_non_finite_run_writes_a_header_only_trace(tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(tmp_path, NON_FINITE, "solve-nonlinear")
    assert code == 3
    assert not (out / "u.efof").exists()
    assert (out / "trace.csv").read_text() == ",".join(TRACE_COLUMNS) + "\n"


@pytest.mark.parametrize(
    "command, declared",
    [("solve-nonlinear", ""), ("verify", "lambda = 0.5\n")],
    ids=["sampled_nearness", "declared_nearness_check"],
)
def test_non_finite_operator_in_nearness_sweep_is_exit_1(tmp_path, capsys, command, declared):
    # exp(1e6 + q11) overflows everywhere, so F - A is NaN on every sample of the nearness sweep
    text = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[nonlinear]
f1 = q11 + q22 + q33 + 0 * exp(1e6 + q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
""" + declared
    with np.errstate(over="ignore", invalid="ignore"):
        code, out = run(tmp_path, text, command)
    assert code == 1
    assert "config error: F - A is not finite at the sample x = [0.0, 0.0, 0.0], P = [[" in capsys.readouterr().err
    assert not (out / "trace.csv").exists() and not (out / "verify.csv").exists()


DIRAC_EXPRESSION = """
[nonlinear]
f1 = q11 + q22 + q33 + 0.3 * sin(q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
"""


@pytest.mark.parametrize(
    "section",
    [
        DIRAC_EXPRESSION + "lambda = nan\n",
        DIRAC_EXPRESSION + "lambda = -0.5\n",
        DIRAC_EXPRESSION + "lambda = inf\n",
        "[nonlinear]\nsource = catalog:lipschitz_perturbation(dirac, nan)\n",
    ],
    ids=["nan", "negative", "inf", "catalog_nan"],
)
def test_bad_declared_nearness_is_config_error(tmp_path, capsys, section):
    code, out = run(tmp_path, DIRAC_LINEAR + section, "solve-nonlinear")
    assert code == 1
    assert "declared_nearness must be a finite number >= 0" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "section",
    [
        DIRAC_EXPRESSION + "lambda = 0.3\n",
        DIRAC_EXPRESSION.replace("0.3 * sin(q11)", "0.3 * cos(2 * pi * x1) * sin(q11)") + "lambda = 0.3\n",
        "[nonlinear]\nsource = catalog:variable_linear(dirac, 0.3)\n",
        "[nonlinear]\nsource = catalog:lipschitz_perturbation(dirac, 0.9, tanh_trace)\n",
    ],
    ids=["expression", "expression_x1", "variable_linear", "tanh_trace"],
)
def test_operator_solves_and_verifies(tmp_path, section):
    # full-width expression operators, one reading x1 so that the sweeps evaluate it on the
    # full (x, P) shape, and catalog operators that declare one output row and read one or
    # three gradient entries
    text = DIRAC_LINEAR.replace("G = 16", "G = 8") + section
    code, out = run(tmp_path, text, "solve-nonlinear")
    assert code == 0
    with open(out / "trace.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) >= 2
    code, out = run(tmp_path, text, "verify")
    assert code == 0
    with open(out / "verify.csv", newline="") as fh:
        assert all(row["status"] == "pass" for row in csv.DictReader(fh))


# 0.0 * q11 / 0 is NaN at x1 = 0.25, a grid point at G = 8 that the sampling plan's x samples miss
NAN_ON_THE_GRID = DIRAC_LINEAR.replace("G = 16", "G = 8") + DIRAC_EXPRESSION.replace(
    "0.3 * sin(q11)", "0.3 * sin(q11) + 0.0 * q11 / (x1 - 0.25)"
) + "lambda = 0.3\n"


@pytest.mark.parametrize(
    "command, code, message",
    [
        ("verify", 1, "config error: F - A is not finite at component 0, grid index (2, 0, 0)"),
        ("solve-nonlinear", 3, "solve error: F is not finite at step 0, first at component 0, grid index (2, 0, 0)"),
    ],
    ids=["verify", "solve_nonlinear"],
)
def test_operator_not_finite_on_the_grid_is_named(tmp_path, command, code, message):
    proc = run_entry(tmp_path, NAN_ON_THE_GRID, command)
    assert proc.returncode == code
    assert proc.stderr == message + "\n"  # one line: numpy's warnings are off while expressions evaluate
    assert not (tmp_path / "out" / "verify.csv").exists() and not (tmp_path / "out" / "u.efof").exists()


@pytest.mark.parametrize(
    "tensor, section, message",
    [
        ("catalog:variable_linear(dirac, 0.3)", "", "names an operator, not a tensor"),
        ("catalog:nosuch", "", "bad tensor source 'catalog:nosuch'"),
        ("catalog:dirac", "[nonlinear]\nsource = catalog:dirac\n", "source 'catalog:dirac' names a tensor, not an operator"),
        ("catalog:dirac", "[nonlinear]\nsource = catalog:nosuch(1)\n", "bad operator source 'catalog:nosuch(1)'"),
    ],
    ids=["tensor_names_operator", "unknown_tensor", "operator_names_tensor", "unknown_operator"],
)
def test_catalog_source_errors(tmp_path, capsys, tensor, section, message):
    text = DIRAC_LINEAR.replace("catalog:dirac", tensor) + section
    code, _ = run(tmp_path, text, "solve-nonlinear")
    assert code == 1
    assert message in capsys.readouterr().err


def test_verify_suite_passes(tmp_path):
    text = """
[tensor]
source = catalog:dirac

[grid]
G = 8

[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)

[run]
seed = 3
"""
    code, out = run(tmp_path, text, "verify")
    assert code == 0
    lines = (out / "verify.csv").read_text().strip().split("\n")
    assert lines[0] == "check,case,value,bound,status"
    assert all(line.endswith("pass") for line in lines[1:])
    assert any(line.startswith("oracle_gradient") for line in lines)


# dirac with a perturbation of row 0 whose true nearness 0.1 * 3 sqrt(3) / 8 = 0.064952 only a sweep can estimate
UNDECLARED = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[nonlinear]
f1 = q11+q22+q33+0.1/(1+q11*q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
"""
DECLARED = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)
"""


@pytest.mark.parametrize(
    "text, label", [(DECLARED, "K_theory = 0.5 (declared nearness)"), (UNDECLARED, "(sampled nearness)")]
)
def test_solve_nonlinear_names_the_source_of_its_nearness(tmp_path, capsys, text, label):
    code, _ = run(tmp_path, text, "solve-nonlinear")
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith(label)


@pytest.mark.parametrize(
    "text, summary",
    [
        (DECLARED, "23 checks, 0 failed"),
        (UNDECLARED, "11 checks, 0 failed; nearness and pair checks not run: no declared nearness"),
    ],
)
def test_verify_says_when_it_skips_the_nearness_and_pair_checks(tmp_path, capsys, text, summary):
    code, out = run(tmp_path, text, "verify")
    assert code == 0
    assert capsys.readouterr().out == summary + "\n"
    assert len((out / "verify.csv").read_text().strip().split("\n")) == 1 + int(summary.split()[0])


def test_verify_understated_nearness_fails(tmp_path):
    # the operator really wiggles at 0.3 nu but declares 0.1
    text = """
[tensor]
source = catalog:dirac

[grid]
G = 8

[nonlinear]
f1 = q11 + q22 + q33 + 0.3*sin(q11)
f2 = -q12 + q21 + q43
f3 = -q13 + q31 - q42
f4 = -q23 + q32 + q41
lambda = 0.1

[run]
seed = 3
"""
    code, out = run(tmp_path, text, "verify")
    assert code == 4
    content = (out / "verify.csv").read_text()
    assert "FAIL" in content


def test_verify_deterministic_given_seed(tmp_path):
    text = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 8

[run]
seed = 11
"""
    cfg = tmp_path / "v.ini"
    cfg.write_text(text)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    text = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 8

[run]
seed = 11
"""
    cfg = tmp_path / "v.ini"
    cfg.write_text(text)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    a = (out1 / "verify.csv").read_text()
    b = (out2 / "verify.csv").read_text()
    assert a != b


def test_seed_defaults_to_zero_without_run_section(tmp_path):
    text = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 8
"""
    cfg = tmp_path / "v.ini"
    cfg.write_text(text)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out2), "--seed", "0"]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


@pytest.mark.parametrize(
    "run_section, extra, key",
    [("[run]\nseed = -1\n", (), "[run] seed"), ("", ("--seed", "-1"), "--seed")],
    ids=["config", "flag"],
)
def test_negative_seed_is_config_error(tmp_path, capsys, run_section, extra, key):
    text = "[tensor]\nsource = catalog:cauchy_riemann\n\n[grid]\nG = 8\n\n" + run_section
    code, out = run(tmp_path, text, "verify", extra=extra)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {key} must be a non-negative integer, got -1\n"
    assert not (out / "verify.csv").exists()


SEEDLESS = ("analyze", "solve-linear", "solve-nonlinear")  # only verify draws samples, so only it takes --seed


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--config", "run.ini", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["analyze", "--config", "run.ini", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
        *(([c, "--config", "run.ini", "--seed", "5"], "unrecognized arguments: --seed 5") for c in SEEDLESS),
    ],
    ids=["seed_not_int", "unknown_flag", "missing_command", *(f"seed_on_{command}" for command in SEEDLESS)],
)
def test_usage_error_exits_1_with_argparse_message(capsys, argv, message):
    # argparse would exit 2, which this CLI reserves for a failed ellipticity requirement
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: efos") and message in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: efos")


def test_missing_config_exit_code(tmp_path):
    assert main(["analyze", "--config", str(tmp_path / "none.ini"), "--out", str(tmp_path)]) == 1


def test_bad_expression_exit_code(tmp_path):
    text = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 8

[rhs]
kind = expression
f1 = __import__('os')
"""
    code, _ = run(tmp_path, text, "solve-linear")
    assert code == 1


def test_unknown_rhs_kind_exit_code(tmp_path):
    text = """
[tensor]
source = catalog:cauchy_riemann

[grid]
G = 8

[rhs]
kind = banana
"""
    code, _ = run(tmp_path, text, "solve-linear")
    assert code == 1


DIRAC_SIN_Q11 = DIRAC_LINEAR.replace("G = 16", "G = 8") + """
[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)
"""
CR_RHS = CR_EXPRESSIONS.split("[nonlinear]")[0]


@pytest.mark.parametrize(
    "config, command, message",
    [
        (DIRAC_SIN_Q11 + "\n[solver]\ntolerance = 1e-3\n", "solve-nonlinear", "unknown key [solver] tolerance"),
        (DIRAC_SIN_Q11 + "\n[solver]\nmaxiter = 2\n", "solve-nonlinear", "unknown key [solver] maxiter"),
        (DIRAC_SIN_Q11 + "lamda = 0.1\n", "solve-nonlinear", "unknown key [nonlinear] lamda"),
        (DIRAC_SIN_Q11 + "\n[solvers]\ntol = 1e-3\n", "solve-nonlinear", "unknown section [solvers]"),
        ("[DEFAULT]\nseed = 1\n" + DIRAC_SIN_Q11, "analyze", "unknown section [DEFAULT]"),
        (DIRAC_SIN_Q11 + "\n[run]\nSeed = 1\n", "analyze", "unknown key [run] Seed"),
        ("[tensor]\nsource = catalog:dirac\nresolution = 4096\n", "analyze", "unknown key [tensor] resolution"),
        (CR_RHS + "f0 = 1\n", "analyze", "unknown key [rhs] f0"),
        (CR_RHS + "f3 = 1\n", "solve-linear", "[rhs] f3 names component 3, but the tensor has 2"),
        (CR_RHS + "f3 = 1\n", "solve-nonlinear", "[rhs] f3 names component 3, but the tensor has 2"),
        (CR_EXPRESSIONS + "f3 = q11\n", "verify", "[nonlinear] f3 names component 3, but the tensor has 2"),
    ],
    ids=[
        "solver_tolerance",
        "solver_maxiter",
        "nonlinear_lamda",
        "section_solvers",
        "section_default",
        "run_Seed",
        "tensor_resolution",
        "rhs_f0",
        "rhs_f3_solve_linear",
        "rhs_f3_solve_nonlinear",
        "nonlinear_f3_verify",
    ],
)
def test_unknown_config_key_is_refused(tmp_path, capsys, config, command, message):
    # a misspelled key would otherwise leave its default in force, and the run exit 0
    code, out = run(tmp_path, config, command)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_benchmark_config_uses_only_known_keys(tmp_path):
    # the cli-cold workload's config, which _load_config refuses if it holds an unknown section or key
    config = tmp_path / "cli.ini"
    config.write_text(load_benchmark("workloads").CLI_CONFIG)
    assert _load_config(config).sections()


DIRAC_TENSOR = "[tensor]\nsource = catalog:dirac\n"


@pytest.mark.parametrize(
    "config, command, message",
    [
        (
            DIRAC_SIN_Q11 + "f1 = q11 + q22 + q33 + 5*sin(q11)\n",
            "solve-nonlinear",
            "[nonlinear] f1 is not read with a catalog source",
        ),
        (DIRAC_SIN_Q11 + "lambda = 0.1\n", "verify", "[nonlinear] lambda is not read with a catalog source"),
        *(
            (DIRAC_SIN_Q11.replace(DIRAC_TENSOR, DIRAC_TENSOR + line), command, message)
            for line, command, message in [
                ("N = 4\n", "analyze", "[tensor] N is not read with a catalog source"),
                ("n = 3\n", "solve-linear", "[tensor] n is not read with a catalog source"),
                ("entries = 1, 0\n", "solve-nonlinear", "[tensor] entries is not read with a catalog source"),
            ]
        ),
        (
            DIRAC_SIN_Q11.replace("kind = mode", "kind = expression"),
            "solve-linear",
            "[rhs] component is not read with kind = expression",
        ),
        (
            CR_RHS.replace("f1 = sin(2*pi*x1)\nf2 = 0\n", ""),
            "solve-linear",
            "[rhs] kind = expression needs at least one of f1..f2",
        ),
        (CR_RHS + "phase = 0.5\n", "solve-linear", "[rhs] phase is not read with kind = expression"),
        (CR_RHS + "file = f.efof\n", "solve-linear", "[rhs] file is not read with kind = expression"),
        (
            DIRAC_SIN_Q11.replace("amplitude", "f1 = 1\namplitude"),
            "solve-linear",
            "[rhs] f1 is not read with kind = mode",
        ),
        (
            DIRAC_SIN_Q11.replace("kind = mode", "kind = file\nfile = f.efof"),
            "solve-linear",
            "[rhs] component is not read with kind = file",
        ),
        *(
            (DIRAC_SIN_Q11 + "\n[solver]\nm = 1,10\n", command, "[solver] m is not read without a regularizer")
            for command in ("solve-linear", "solve-nonlinear")
        ),
    ],
    ids=[
        "nonlinear_f1_beside_source",
        "nonlinear_lambda_beside_source",
        "tensor_N_beside_source",
        "tensor_n_beside_source",
        "tensor_entries_beside_source",
        "rhs_expression_with_mode_keys",
        "rhs_expression_without_components",
        "rhs_expression_with_phase",
        "rhs_expression_with_file",
        "rhs_mode_with_f1",
        "rhs_file_with_component",
        "solver_m_without_regularizer_solve_linear",
        "solver_m_without_regularizer_solve_nonlinear",
    ],
)
def test_key_of_another_kind_is_refused(tmp_path, capsys, config, command, message):
    # each key is known to its section but not read by its source or kind, so the
    # run would otherwise solve another problem than the config states, and exit 0
    code, out = run(tmp_path, config, command)
    assert code == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists() or not any(out.iterdir())


def test_regularizer_with_m_runs_every_command(tmp_path):
    # the form that reads m: a config that holds the ladder still runs all four commands
    text = DIRAC_SIN_Q11 + "\n[solver]\nregularizer = rational\nm = 1,10\n"
    for command in ("analyze", "solve-linear", "solve-nonlinear", "verify"):
        code, out = run(tmp_path, text, command)
        assert code == 0, command
    assert len((out / "representation.csv").read_text().splitlines()) == 3


def test_config_keys_are_every_key_of_every_form():
    assert list(CONFIG_KEYS.items()) == [
        ("tensor", ("source", "N", "n", "entries")),
        ("grid", ("G", "L")),
        ("rhs", ("kind", "component", "frequency", "amplitude", "phase", "fK", "file")),
        ("solver", ("tol", "max_iter", "regularizer", "m")),
        ("nonlinear", ("source", "lambda", "fK")),
        ("run", ("seed",)),
    ]


def test_operator_tensor_confusion_rejected(tmp_path):
    text = """
[tensor]
source = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11)
"""
    code, _ = run(tmp_path, text, "analyze")
    assert code == 1


@pytest.mark.parametrize(
    "tensor, operator, command",
    [
        ("cauchy_riemann", "lipschitz_perturbation(dirac, 0.5, sin_q11)", "verify"),
        ("generalized_cr(2, 1, 1, 1)", "lipschitz_perturbation(cauchy_riemann, 0.5, sin_q11)", "solve-nonlinear"),
    ],
)
def test_operator_anchor_must_be_the_tensor(tmp_path, capsys, tensor, operator, command):
    text = f"""
[tensor]
source = catalog:{tensor}

[grid]
G = 8

[rhs]
kind = expression
f1 = sin(2*pi*x1)

[nonlinear]
source = catalog:{operator}
"""
    code, out = run(tmp_path, text, command)
    assert code == 1
    err = capsys.readouterr().err
    assert f"catalog:{tensor}" in err and f"catalog:{operator}" in err
    assert not (out / "u.efof").exists() and not (out / "verify.csv").exists()


@pytest.mark.parametrize(
    "config, command, out_is_file, message",
    [
        ("[tensor]\nsource = catalog:dirac(1)\n", "analyze", False, "catalog entry 'dirac' takes ()"),
        ("[tensor]\nsource = catalog:generalized_cr(1,1)\n", "analyze", False, "missing a required argument: 'mu'"),
        (
            DIRAC_LINEAR + "[nonlinear]\nsource = catalog:lipschitz_perturbation(dirac, 0.5, sin_q11, 3)\n",
            "solve-nonlinear",
            False,
            "catalog entry 'lipschitz_perturbation' takes (base, lam, shape)",
        ),
        (
            DIRAC_LINEAR + "[nonlinear]\nsource = catalog:variable_linear(dirac, 0.3, 1)\n",
            "solve-nonlinear",
            False,
            "catalog entry 'variable_linear' takes (base, eps)",
        ),
        (
            DIRAC_LINEAR + "[nonlinear]\nsource = catalog:lipschitz_perturbation(cauchy_riemann, x)\n",
            "solve-nonlinear",
            False,
            "catalog entry 'lipschitz_perturbation' needs a number for lam",
        ),
        ("[tensor]\nsource = catalog:dirac\n", "analyze", True, "cannot create output directory"),
        *(
            (
                CR_EXPRESSIONS.replace(term, f"{literal}*{term}"),
                command,
                False,
                f"bad [{section}] f1: literal {shown} is not a finite number",
            )
            for section, term, command in [
                ("nonlinear", "sin(q11)", "solve-nonlinear"),
                ("rhs", "sin(2*pi*x1)", "solve-linear"),
            ]
            for literal, shown in NON_FINITE_LITERALS
        ),
    ],
    ids=[
        "tensor_extra_param",
        "tensor_missing_params",
        "operator_extra_param",
        "modulation_not_tensor",
        "lam_not_number",
        "out_is_file",
        "nonlinear_f1_400_digits",
        "nonlinear_f1_1e400",
        "rhs_f1_400_digits",
        "rhs_f1_1e400",
    ],
)
def test_malformed_input_exits_1_without_traceback(tmp_path, config, command, out_is_file, message):
    if out_is_file:
        (tmp_path / "out").write_text("")
    proc = run_entry(tmp_path, config, command)
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:")
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "tensor, L",
    [("dirac", "1e300"), ("cauchy_riemann", "1e160"), ("dirac", "1e-150"), ("dirac", "1e-200"), ("dirac", "1e-320")],
)
def test_grid_period_out_of_range_exits_1_at_the_boundary(tmp_path, tensor, L):
    # before the check: an OverflowError traceback, norms that all read 0 with exit 0, or RuntimeWarnings
    frequency = "1,0,0" if tensor == "dirac" else "1,0"
    text = f"[tensor]\nsource = catalog:{tensor}\n\n[grid]\nG = 8\nL = {L}\n\n"
    text += f"[rhs]\nkind = mode\ncomponent = 1\nfrequency = {frequency}\n"
    proc = run_entry(tmp_path, text, "solve-linear")
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"config error: bad grid: period L={float(L)} is out of range")
    assert proc.stderr.count("\n") == 1  # one line: no traceback and no warning
    assert not (tmp_path / "out" / "u.efof").exists()
    assert run(tmp_path, text, "analyze")[0] == 0  # analyze reads no grid


def test_import_leaves_scipy_out():
    # nor numpy.random, which every CLI command would pay for: efos imports it where it draws
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.random')"
    proc = run_python("-c", f"import sys, efos, efos.cli; print({loaded})")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.filterwarnings("error")
def test_rhs_amplitude_scales_every_output(tmp_path, capsys):
    # before the one sum-of-squares rule: residual = 0 and a 1-step trace at 1e-200, residual = nan after
    # overflow warnings at 1e200
    fields = {}
    for amplitude in ("1e-200", "1", "1e200"):
        text = DIRAC_LINEAR.replace("G = 16", "G = 8").replace("amplitude = 1.0", f"amplitude = {amplitude}")
        text += "\n[solver]\nregularizer = rational\n\n[nonlinear]\nsource = catalog:variable_linear(dirac, 0.3)\n"
        (tmp_path / amplitude).mkdir()
        for command in ("solve-linear", "solve-nonlinear"):
            code, out = run(tmp_path / amplitude, text, command)
            assert code == 0 and capsys.readouterr().err == "", (amplitude, command)
            fields[amplitude, command] = read_field(out / "u.efof").values
        with open(out / "report.csv", newline="") as fh:
            (report,) = list(csv.DictReader(fh))
        assert 0 < float(report["residual"]) < 1e-14 and math.isfinite(float(report["dropped_mean_norm"])), amplitude
        with open(out / "representation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(math.isfinite(float(v)) for row in rows for k, v in row.items() if k != "kind"), amplitude
        with open(out / "trace.csv", newline="") as fh:
            trace = list(csv.DictReader(fh))
        assert len(trace) == 15, amplitude
        assert all(math.isfinite(float(row[k])) for row in trace[1:] for k in TRACE_COLUMNS), amplitude
        assert all(math.isfinite(float(trace[0][k])) for k in TRACE_COLUMNS if k != "ratio_k"), amplitude
    for amplitude in ("1e-200", "1e200"):
        for command in ("solve-linear", "solve-nonlinear"):
            want = float(amplitude) * fields["1", command]
            gap = np.abs(fields[amplitude, command] - want).max() / np.abs(want).max()
            assert gap <= 1e-12, (amplitude, command, gap)


def _load_config_text(text):
    cfg = configparser.ConfigParser()
    cfg.optionxform = str
    cfg.read_string(text)
    return cfg


@pytest.mark.parametrize("command", ["solve-linear", "solve-nonlinear", "verify"])
@pytest.mark.parametrize("G, gib", [(256, "1.008"), (4096, "4098")])
def test_grid_above_the_plan_budget_is_refused_before_any_array(tmp_path, capsys, command, G, gib):
    # dirac's plan alone holds 8 * 4^2 * G^2 (G/2 + 1) bytes: 1.008 GiB at G = 256 and 4 TiB at 4096;
    # the refusal comes before any array is made
    text = DIRAC_LINEAR.replace("G = 16", f"G = {G}") + DIRAC_EXPRESSION + "lambda = 0.3\n"
    tracemalloc.start()
    try:
        code, out = run(tmp_path, text, command)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 2**20
    assert capsys.readouterr().err == (
        f"config error: [grid] G = {G} needs a multiplier plan of {gib} GiB for N = 4, n = 3, above the budget of 1 GiB\n"
    )
    assert list(out.iterdir()) == []


def test_largest_grid_under_the_plan_budget():
    # G = 254 is the largest even G whose dirac plan, 1,057,030,144 bytes, keeps within 2**30
    assert PLAN_BUDGET_BYTES == 2**30
    for G, accepted in ((254, True), (256, False)):
        cfg = _load_config_text(f"[grid]\nG = {G}\n")
        if accepted:
            assert build_grid(cfg, dirac()).G == G
        else:
            with pytest.raises(ValueError, match=rf"\[grid\] G = {G} needs a multiplier plan of 1.008 GiB"):
                build_grid(cfg, dirac())
    assert build_grid(_load_config_text("[grid]\nG = 4096\n"), cauchy_riemann()).G == 4096  # 2 x 2 at n = 2

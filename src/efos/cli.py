"""Command-line front end: analyze, solve-linear, solve-nonlinear, verify.

Runs are described by an INI-style config (sections in brackets,
``key = value`` lines) and write CSV reports plus binary field files to
the output directory.  Exit codes encode the failing stage:

    0  requested checks all passed
    1  usage error, or config could not be parsed or named unknown sections,
       keys or objects, or a key that its section's form does not read
    2  ellipticity requirement failed
    3  solve failed (divergence or no convergence)
    4  verification checks failed

Sampled quantities derive from the seed in ``[run]`` (override with
``verify --seed``) through the MT19937 generator, so reports are
reproducible.
"""

from __future__ import annotations

import argparse
import configparser
import re
import sys
from pathlib import Path

import numpy as np

from . import catalog, nonlinear
from .ellipticity import NonEllipticError, cached_nu, ellipticity_constant, nearness_constant
from .exprs import ExpressionError, compile_expression, evaluate
from .fieldfile import check_finite, read_field, write_csv, write_field
from .grid import GridFunction, PeriodicGrid, gradient, norm_l2, random_band_limited
from .linear import RegularizerSequence, solve_linear, solve_representation, verify_apriori
from .nonlinear import DivergenceError, NonlinearOperator, campanato_solve, near_operator_check, verify_comparison
from .oracle import solve_dense
from .sampling import rng_from_seed
from .tensor import ConstantTensor, contract

__all__ = ["main", "entry", "ConfigError", "CONFIG_KEYS", "REPORT_COLUMNS", "TRACE_COLUMNS"]

REPORT_COLUMNS = ("grid", "nu", "residual", "ratio_grad", "ratio_sobolev", "dropped_mean_norm")
TRACE_COLUMNS = ("k", "d_k", "ratio_k", "residual_k", "dropped_mean_norm")

# the keys that each section reads in each of its forms, a form named to end the refusal of a key
# outside them; "fK" stands for f1, f2, ..., whose K must name a component of the tensor
_FORMS = {
    "tensor": {
        "with inline entries": ("source", "N", "n", "entries"),
        "with a catalog source": ("source",),
    },
    "grid": {"": ("G", "L")},
    "rhs": {
        "with kind = mode": ("kind", "component", "frequency", "amplitude", "phase"),
        "with kind = expression": ("kind", "fK"),
        "with kind = file": ("kind", "file"),
    },
    "solver": {
        "with a regularizer": ("tol", "max_iter", "regularizer", "m"),
        "without a regularizer": ("tol", "max_iter"),
    },
    "nonlinear": {"with a catalog source": ("source",), "with expressions": ("lambda", "fK")},
    "run": {"": ("seed",)},
}
CONFIG_KEYS = {section: tuple(dict.fromkeys(sum(forms.values(), ()))) for section, forms in _FORMS.items()}
_COMPONENT_KEY = re.compile(r"f[1-9]\d*")


class ConfigError(ValueError):
    """A config file is missing, malformed, or names unknown objects."""


def _load_config(path) -> configparser.ConfigParser:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cfg.optionxform = str  # keys N and n are distinct
    try:
        cfg.read(p)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if cfg.defaults():
        raise ConfigError(f"unknown section [{cfg.default_section}]")
    for section in cfg.sections():
        known = CONFIG_KEYS.get(section)
        if known is None:
            raise ConfigError(f"unknown section [{section}]")
        for key in cfg.options(section):
            if not _is_one_of(key, known):
                raise ConfigError(f"unknown key [{section}] {key}")
    return cfg


def _is_one_of(key: str, keys) -> bool:
    return key in keys or ("fK" in keys and _COMPONENT_KEY.fullmatch(key) is not None)


def _read_as(cfg, section: str, form: str, N: int | None = None) -> None:
    """Refuse a key of ``section`` that its ``form`` does not read, and an fK whose K is above N."""
    for key in cfg.options(section) if cfg.has_section(section) else ():
        if not _is_one_of(key, _FORMS[section][form]):
            raise ConfigError(f"[{section}] {key} is not read {form}")
        if N is not None and _COMPONENT_KEY.fullmatch(key) and int(key[1:]) > N:
            raise ConfigError(f"[{section}] {key} names component {key[1:]}, but the tensor has {N}")


def _get(cfg, section, key, cast=str, default=...):
    if not cfg.has_option(section, key):
        if default is ...:
            raise ConfigError(f"missing [{section}] {key}")
        return default
    raw = cfg.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from exc


def _float_list(raw: str):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _int_list(raw: str):
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _catalog_source(section: str, source: str):
    """The catalog object that ``[section] source`` names: a tensor for
    [tensor], an operator for [nonlinear]."""
    kinds = [(ConstantTensor, "a tensor"), (NonlinearOperator, "an operator")]
    (kind, wanted), (_, other) = kinds if section == "tensor" else kinds[::-1]
    try:
        obj = catalog.get(*catalog.parse_catalog_ref(source))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad {wanted.split()[1]} source {source!r}: {exc}") from exc
    if not isinstance(obj, kind):
        raise ConfigError(f"[{section}] source {source!r} names {other}, not {wanted}")
    return obj


def _compile(cfg, section: str, key: str, names):
    try:
        return compile_expression(cfg.get(section, key), names)
    except ExpressionError as exc:
        raise ConfigError(f"bad [{section}] {key}: {exc}") from exc


def build_tensor(cfg) -> ConstantTensor:
    source = _get(cfg, "tensor", "source")
    inline = source.strip() == "inline"
    _read_as(cfg, "tensor", "with inline entries" if inline else "with a catalog source")
    if inline:
        N = _get(cfg, "tensor", "N", int)
        n = _get(cfg, "tensor", "n", int)
        entries = _get(cfg, "tensor", "entries", _float_list)
        try:
            return ConstantTensor.from_flat(entries, N, n)
        except ValueError as exc:
            raise ConfigError(f"bad inline tensor: {exc}") from exc
    return _catalog_source("tensor", source)


def build_grid(cfg, n: int) -> PeriodicGrid:
    G = _get(cfg, "grid", "G", int)
    L = _get(cfg, "grid", "L", float, 1.0)
    try:
        return PeriodicGrid(n=n, G=G, L=L)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc


def build_rhs(cfg, grid: PeriodicGrid, N: int) -> GridFunction:
    kind = _get(cfg, "rhs", "kind")
    if f"with kind = {kind}" not in _FORMS["rhs"]:
        raise ConfigError(f"unknown rhs kind {kind!r} (use mode, expression, or file)")
    _read_as(cfg, "rhs", f"with kind = {kind}", N)
    if kind == "mode":
        component = _get(cfg, "rhs", "component", int)
        freq = _get(cfg, "rhs", "frequency", _int_list)
        amplitude = _get(cfg, "rhs", "amplitude", float, 1.0)
        phase = _get(cfg, "rhs", "phase", float, 0.0)
        if not 1 <= component <= N:
            raise ConfigError(f"component must be in 1..{N}, got {component}")
        if len(freq) != grid.n:
            raise ConfigError(f"frequency needs {grid.n} integers, got {len(freq)}")
        x = grid.points()
        arg = 2.0 * np.pi * sum(k * x[j] for j, k in enumerate(freq)) / grid.L
        values = np.zeros((N,) + grid.shape)
        values[component - 1] = amplitude * np.sin(arg + phase)
        f = GridFunction(grid, values)
    elif kind == "expression":
        if not any(_COMPONENT_KEY.fullmatch(key) for key in cfg.options("rhs")):
            raise ConfigError(f"[rhs] kind = expression needs at least one of f1..f{N}")
        x = grid.points()
        env = {f"x{j + 1}": x[j] for j in range(grid.n)}
        values = np.zeros((N,) + grid.shape)
        for comp in range(N):
            key = f"f{comp + 1}"
            if cfg.has_option("rhs", key):
                values[comp] = np.broadcast_to(evaluate(_compile(cfg, "rhs", key, env), env), grid.shape)
        f = GridFunction(grid, values)
    else:  # file
        path = _get(cfg, "rhs", "file")
        try:
            f = read_field(path, L=grid.L)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read rhs field: {exc}") from exc
        if f.grid != grid or f.components != N:
            raise ConfigError(
                f"rhs field has {f.components} components on G={f.grid.G}, n={f.grid.n}; "
                f"expected {N} on G={grid.G}, n={grid.n}"
            )
    check_finite(f.values, "rhs field")
    return f


def build_operator(cfg, A: ConstantTensor) -> NonlinearOperator:
    if not cfg.has_section("nonlinear"):
        raise ConfigError("missing [nonlinear] section")
    catalog_source = cfg.has_option("nonlinear", "source")
    _read_as(cfg, "nonlinear", "with a catalog source" if catalog_source else "with expressions", A.N)
    if catalog_source:
        source = cfg.get("nonlinear", "source")
        obj = _catalog_source("nonlinear", source)
        if obj.anchor != A:
            raise ConfigError(
                f"[nonlinear] source {source!r} is anchored at another tensor than "
                f"[tensor] source {cfg.get('tensor', 'source')!r}"
            )
        return obj
    N, n = A.N, A.n
    names = [f"x{j + 1}" for j in range(n)] + [f"q{b + 1}{j + 1}" for b in range(N) for j in range(n)]
    compiled = []
    for comp in range(N):
        key = f"f{comp + 1}"
        if not cfg.has_option("nonlinear", key):
            raise ConfigError(f"expression operator needs [nonlinear] {key}")
        compiled.append(_compile(cfg, "nonlinear", key, names))
    declared = None
    if cfg.has_option("nonlinear", "lambda"):
        declared = _get(cfg, "nonlinear", "lambda", float) * cached_nu(A)

    def perturbation(x, Q):  # Phi = F - A:Q, reading every gradient entry
        x = np.asarray(x, dtype=float)
        Q = np.asarray(Q, dtype=float)
        env = {f"x{j + 1}": x[..., j] for j in range(n)}
        for b in range(N):
            for j in range(n):
                env[f"q{b + 1}{j + 1}"] = Q[..., b, j]
        return np.stack(np.broadcast_arrays(*(evaluate(tree, env) for tree in compiled)), axis=-1) - contract(A, Q)

    try:
        return NonlinearOperator(
            perturbation=perturbation, anchor=A, declared_nearness=declared, name="config-expression"
        )
    except ValueError as exc:
        raise ConfigError(f"bad [nonlinear] lambda: {exc}") from exc


def cmd_analyze(cfg, args) -> int:
    report = ellipticity_constant(build_tensor(cfg))
    columns = ("nu", "min_abs_det", "argmin_direction", "resolution", "refined", "elliptic")
    write_csv(args.out / "ellipticity.csv", columns, [[getattr(report, c) for c in columns]])
    print(f"nu = {report.nu:.12g}  min|det| = {report.min_abs_det:.12g}  elliptic = {report.elliptic}")
    return 0 if report.elliptic else 2


def _read_solver(cfg) -> bool:
    """Whether [solver] names a regularizer, after refusing the keys that its form does not read."""
    regularized = cfg.has_option("solver", "regularizer")
    _read_as(cfg, "solver", "with a regularizer" if regularized else "without a regularizer")
    return regularized


def _regularizers(cfg) -> list:
    """The [solver] regularizer ladder, one sequence per m; empty unless a kind is set."""
    if not _read_solver(cfg):
        return []
    ms = _get(cfg, "solver", "m", _int_list, [1, 10, 100, 1000])
    if not ms:
        raise ConfigError("[solver] m lists no regularizer index")
    try:
        return [RegularizerSequence(kind=cfg.get("solver", "regularizer"), m=m) for m in ms]
    except ValueError as exc:
        raise ConfigError(f"bad regularizer: {exc}") from exc


def cmd_solve_linear(cfg, args) -> int:
    A = build_tensor(cfg)
    grid = build_grid(cfg, A.n)
    f = build_rhs(cfg, grid, A.N)
    ladder = _regularizers(cfg)
    u, report = solve_linear(A, f)
    apriori = verify_apriori(A, u, f)
    write_field(args.out / "u.efof", u)
    row = (grid.G, cached_nu(A), report.residual, apriori.ratio_grad, apriori.ratio_sobolev, report.dropped_mean_norm)
    write_csv(args.out / "report.csv", REPORT_COLUMNS, [row])
    print(
        f"residual = {report.residual:.3e}  ratio_grad = {apriori.ratio_grad:.12g}"
        + ("  [nyquist content truncated]" if report.nyquist_truncated else "")
    )
    if ladder:
        rows = []
        nu_direct = norm_l2(u)
        for reg in ladder:
            um, rrep = solve_representation(A, f, reg)
            err = norm_l2(um - u) / nu_direct if nu_direct > 0 else 0.0
            rows.append((reg.m, reg.kind, err, rrep.factor_gap, rrep.rational_bound, rrep.residual))
        columns = ("m", "kind", "rel_error", "factor_gap", "rational_bound", "residual")
        write_csv(args.out / "representation.csv", columns, rows)
    return 0


def cmd_solve_nonlinear(cfg, args) -> int:
    A = build_tensor(cfg)
    grid = build_grid(cfg, A.n)
    f = build_rhs(cfg, grid, A.N)
    F = build_operator(cfg, A)
    _read_solver(cfg)
    keys = (("tol", float), ("max_iter", int))  # campanato_solve's own defaults stand for an unset key
    settings = {key: _get(cfg, "solver", key, cast) for key, cast in keys if cfg.has_option("solver", key)}

    def write_trace(trace):
        rows = zip(trace.k, trace.d, trace.ratio, trace.residual, trace.dropped_mean_norm)
        write_csv(args.out / "trace.csv", TRACE_COLUMNS, rows)

    try:
        u, trace = campanato_solve(F, f, **settings)
    except DivergenceError as exc:  # a diverged run leaves its trace, not its iterate
        write_trace(exc.trace)
        raise
    write_field(args.out / "u.efof", u)
    write_trace(trace)
    print(f"{trace.message}; final residual = {trace.residual[-1]:.3e}, K_theory = {trace.K_theory:.4g}")
    return 0 if trace.converged else 3


def cmd_verify(cfg, args) -> int:
    A = build_tensor(cfg)
    grid = build_grid(cfg, A.n)
    seed, key = (args.seed, "--seed") if args.seed is not None else (_get(cfg, "run", "seed", int, 0), "[run] seed")
    if seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {seed}")
    rng = rng_from_seed(seed)
    rows = []

    def record(check, case, value, bound):
        rows.append((check, case, value, bound, "pass" if value <= bound else "FAIL"))

    for i in range(10):
        f = random_band_limited(grid, A.N, rng)
        record("apriori_grad", f"field_{i}", verify_apriori(A, solve_linear(A, f)[0], f).ratio_grad, 1.0 + 1e-10)

    oracle_grid = PeriodicGrid(n=grid.n, G=4, L=grid.L)
    f = random_band_limited(oracle_grid, A.N, rng, kmax=1)
    u_spec, _ = solve_linear(A, f)
    u_dense = solve_dense(A, f)
    diff = norm_l2(gradient(u_dense - u_spec))
    scale = max(norm_l2(gradient(u_spec)), 1e-300)
    record("oracle_gradient", "G=4", diff / scale, 1e-9)

    F = build_operator(cfg, A) if cfg.has_section("nonlinear") else catalog.lipschitz_perturbation(A, 0.5, "sin_q11")
    if F.declared_nearness is not None:
        record("nearness_declared", F.name or "operator", nearness_constant(F).nu_fa, F.declared_nearness + 1e-9)
        for i in range(10):
            w, v = random_band_limited(grid, A.N, rng), random_band_limited(grid, A.N, rng)
            record("comparison", f"pair_{i}", verify_comparison(F, w, v).ratio, nonlinear.PAIR_BOUND)
        pairs = [(random_band_limited(grid, A.N, rng), random_band_limited(grid, A.N, rng)) for _ in range(10)]
        record("near_operator", "pairs", near_operator_check(F, pairs).max_ratio, nonlinear.PAIR_BOUND)

    write_csv(args.out / "verify.csv", ("check", "case", "value", "bound", "status"), rows)
    failed = sum(row[-1] == "FAIL" for row in rows)
    print(f"{len(rows)} checks, {failed} failed")
    return 0 if failed == 0 else 4


_COMMANDS = {
    "analyze": cmd_analyze,
    "solve-linear": cmd_solve_linear,
    "solve-nonlinear": cmd_solve_nonlinear,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="efos",
        description="Spectral solves and verification for first-order elliptic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI-style run description")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory for reports and fields")
        if name == "verify":  # the one command that draws samples
            p.add_argument("--seed", type=int, default=None, help="override the [run] seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, a code that means non-elliptic here
        return 1 if exc.code else 0
    try:
        cfg = _load_config(args.config)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {args.out}: {exc}") from exc
        return _COMMANDS[args.command](cfg, args)
    except NonEllipticError as exc:
        print(f"ellipticity error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a ConfigError, or bad input that the solvers and estimators refuse
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"solve error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

"""The benchmark's workloads: how each makes its inputs, runs one
operation through efos's public API or CLI, and checks the result.

A workload has four steps, all driven by ``run.py``:

* ``setup()`` builds what every operation reuses; ``run.py`` also times
  it in fresh interpreters through ``child.py setup``;
* ``make_input(i)`` draws operation ``i``'s inputs from the seed and ``i``
  alone, outside the timed region;
* ``run(inp)`` is the timed operation;
* ``check(inp, out)`` returns ``None`` when the output is correct and a
  one-line reason otherwise.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Largest relative residual, on retained modes, accepted from a solve.  The
# Nyquist planes are dropped because a nonlinearity aliases onto them and the
# solver cannot represent that content.
RESIDUAL_TOL = 1e-8


def op_rng(seed: int, i: int) -> np.random.Generator:
    """The generator for operation ``i`` of a run with ``seed``."""
    return np.random.Generator(np.random.MT19937(np.random.SeedSequence([seed, i])))


def child_env() -> dict:
    """Environment of every child interpreter: ``src`` importable, BLAS
    threads capped as in this process, bytecode caching on as for an
    installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spectral_gradient(values: np.ndarray, L: float = 1.0) -> np.ndarray:
    """Du of a (N, G, ..., G) field, shape (N, n, G, ..., G), by numpy FFT
    with the Nyquist planes zeroed; independent of efos's transforms."""
    n = values.ndim - 1
    G = values.shape[1]
    axes = tuple(range(1, n + 1))
    k = np.fft.fftfreq(G, d=1.0 / G)
    mult1 = np.where(np.abs(k) == G // 2, 0.0, 2j * np.pi * k / L)
    U = np.fft.fftn(values, axes=axes)
    out = np.empty((values.shape[0], n) + values.shape[1:])
    for j in range(n):
        shape = [1] * (n + 1)
        shape[j + 1] = G
        out[:, j] = np.fft.ifftn(U * mult1.reshape(shape), axes=axes).real
    return out


def retained_residual(entries: np.ndarray, amp: float, u: np.ndarray, f: np.ndarray) -> float:
    """|F(x, Du) - f| / |f| on modes off the mean and the Nyquist planes, for
    F(x, Q) = A:Q + amp sin(Q_11) e_1 (amp = 0 is the linear system)."""
    n = u.ndim - 1
    G = u.shape[1]
    axes = tuple(range(1, n + 1))
    Du = spectral_gradient(u)
    Fu = np.einsum("abj,bj...->a...", entries, Du)
    Fu[0] += amp * np.sin(Du[0, 0])
    k = np.fft.fftfreq(G, d=1.0 / G)
    keep = np.ones((G,) * n, dtype=bool)
    for j in range(n):
        shape = [1] * n
        shape[j] = G
        keep &= (np.abs(k) != G // 2).reshape(shape)
    keep[(0,) * n] = False
    R = np.fft.fftn(Fu - f, axes=axes)[:, keep]
    scale = np.linalg.norm(np.fft.fftn(f, axes=axes)[:, keep])
    return float(np.linalg.norm(R) / scale)


def field_gap(a: np.ndarray, b: np.ndarray) -> float:
    """|Da - Db| / |Db| in the discrete L2 norm."""
    Db = spectral_gradient(b)
    return float(np.linalg.norm(spectral_gradient(a) - Db) / np.linalg.norm(Db))


class PicardG32:
    """One campanato_solve of lipschitz_perturbation(dirac, 0.5, sin_q11)
    on n=3, G=32 from zero, with a fresh band-limited right-hand side."""

    name = "picard-g32"
    in_process = True

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir

    def setup(self):
        import efos

        self.efos = efos
        self.F = efos.lipschitz_perturbation(efos.dirac(), 0.5, "sin_q11")
        self.grid = efos.PeriodicGrid(n=3, G=32)
        self.plan = efos.MultiplierPlan(self.F.anchor, self.grid)

    def make_input(self, i):
        return self.efos.random_band_limited(self.grid, 4, op_rng(self.seed, i))

    def run(self, f):
        return self.efos.campanato_solve(self.F, f, tol=1e-10, plan=self.plan)

    def check(self, f, out):
        u, trace = out
        if not trace.converged:
            return f"not converged: {trace.message}"
        rel = retained_residual(self.F.anchor.entries, self.F.declared_nearness, u.values, f.values)
        if not rel <= RESIDUAL_TOL:
            return f"retained residual {rel:.3e} > {RESIDUAL_TOL:g}"
        return None

    def keep_first(self, out):
        """Store the first solve's field so two commits' iterates can be
        compared to rounding."""
        self.efos.write_field(self.outdir / "picard_first_u.efof", out[0])


class VerifyToolkit:
    """One pass over the estimator, oracle and one-shot solve toolkit, with
    the acceptance suite's pins as the correctness gate."""

    name = "verify-toolkit"
    in_process = True
    lam = 0.7  # pseudo-monotonicity level above both operators' nearness ratio

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir

    def setup(self):
        import efos

        self.efos = efos
        dirac = efos.dirac()
        self.dirac = dirac
        self.cr = efos.cauchy_riemann()
        self.tensors = {
            "dirac": (dirac, 1.0, 1e-9),
            "cauchy_riemann": (self.cr, 1.0, 1e-9),
            "generalized_cr(2,1,1,1)": (efos.generalized_cauchy_riemann(2, 1, 1, 1), 2 / math.sqrt(5), 1e-6),
        }
        self.operators = {
            "lipschitz(0.5)": efos.lipschitz_perturbation(dirac, 0.5, "sin_q11"),
            "variable_linear(0.3)": efos.variable_linear(dirac, 0.3),
        }
        self.dense_cases = [
            ("dirac G=6", dirac, efos.PeriodicGrid(n=3, G=6)),
            ("cauchy_riemann G=8", self.cr, efos.PeriodicGrid(n=2, G=8)),
        ]
        self.oneshot_grid = efos.PeriodicGrid(n=2, G=128)
        self.pair_grid = efos.PeriodicGrid(n=3, G=8)

    def make_input(self, i):
        efos = self.efos
        rng = op_rng(self.seed, i)
        pert = self.dirac.entries + 0.02 * rng.normal(size=self.dirac.entries.shape)
        band = efos.random_band_limited
        return {
            "perturbed": efos.ConstantTensor(pert),
            "plan": efos.SamplingPlan(x_per_axis=3, random_p=16, random_q=32, seed=int(rng.integers(2**31))),
            "dense_rhs": [band(grid, A.N, rng) for _, A, grid in self.dense_cases],
            "oneshot_rhs": [band(self.oneshot_grid, 2, rng) for _ in range(2)],
            "pairs": [(band(self.pair_grid, 4, rng), band(self.pair_grid, 4, rng)) for _ in range(5)],
        }

    def run(self, inp):
        efos = self.efos
        out = {"nu": {}, "sweeps": {}, "dense": [], "oneshot": [], "ladder": []}
        for name, A in [(k, v[0]) for k, v in self.tensors.items()] + [("perturbed", inp["perturbed"])]:
            out["nu"][name] = (efos.ellipticity_constant(A, 2048).nu, efos.brute_nu(A, 100_000))
        plan = inp["plan"]
        for name, F in self.operators.items():
            out["sweeps"][name] = (
                F.declared_nearness,
                efos.nearness_constant(F, plan=plan).nu_fa,
                efos.ellipticity.check_pseudomonotonicity(F, lam=self.lam, plan=plan).violations,
                efos.ellipticity.lipschitz_and_converse(F, lam=self.lam, plan=plan).pseudo_monotone_violations,
            )
        for (_, A, _), f in zip(self.dense_cases, inp["dense_rhs"]):
            u_spec, _ = efos.solve_linear(A, f)
            out["dense"].append((efos.solve_dense(A, f).values, u_spec.values))
        for f in inp["oneshot_rhs"]:
            u, rep = efos.solve_linear(self.cr, f)
            out["oneshot"].append((rep.residual, efos.verify_apriori(self.cr, u, f).ratio_grad, u.values))
        f = inp["oneshot_rhs"][0]
        for kind in ("rational", "truncation"):
            for m in (1, 10, 100, 1000):
                um, rep = efos.solve_representation(self.cr, f, efos.RegularizerSequence(kind, m))
                out["ladder"].append((kind, m, rep.factor_gap, rep.rational_bound, um.values))
        F = self.operators["lipschitz(0.5)"]
        out["comparison"] = max(efos.verify_comparison(F, w, v).ratio for w, v in inp["pairs"])
        out["near_violations"] = efos.near_operator_check(F, inp["pairs"]).violations
        return out

    def check(self, inp, out):
        bad = []
        for name, (nu, brute) in out["nu"].items():
            if name in self.tensors:
                _, expected, tol = self.tensors[name]
                if not (abs(nu - expected) <= tol and abs(brute - expected) <= 1e-3):
                    bad.append(f"{name} nu={nu!r} brute={brute!r}, want {expected!r}")
            elif not abs(nu - brute) <= 1e-3:
                bad.append(f"{name} nu={nu!r} disagrees with brute={brute!r}")
        for name, (declared, est, pm, lc_pm) in out["sweeps"].items():
            if not est <= declared + 1e-9:
                bad.append(f"{name} sampled nearness {est!r} > declared {declared!r}")
            if pm or lc_pm:
                bad.append(f"{name} pseudo-monotonicity violations {pm}, {lc_pm}")
        for (case, _, _), (dense, spec) in zip(self.dense_cases, out["dense"]):
            gap = field_gap(dense, spec)
            if not gap <= 1e-9:
                bad.append(f"dense vs spectral {case}: {gap:.2e}")
        for residual, ratio, _ in out["oneshot"]:
            if not (residual <= 1e-10 and ratio <= 1 + 1e-10):
                bad.append(f"one-shot solve residual={residual:.2e} ratio_grad={ratio!r}")
        u = out["oneshot"][0][2]  # the direct solve of the ladder's right-hand side
        for kind, m, gap, bound, um in out["ladder"]:
            err = np.linalg.norm(um - u) / np.linalg.norm(u)
            if not gap <= bound or (kind == "rational" and not err <= bound):
                bad.append(f"{kind} m={m}: factor_gap={gap!r} err={err!r} bound={bound!r}")
        if not out["comparison"] <= 1 + 1e-9:
            bad.append(f"comparison ratio {out['comparison']!r}")
        if out["near_violations"]:
            bad.append(f"near-operator violations {out['near_violations']}")
        return "; ".join(bad) or None


CLI_CONFIG = """\
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

[solver]
regularizer = rational

[nonlinear]
source = catalog:lipschitz_perturbation(dirac, 0.9, sin_q11)
"""

CLI_COMMANDS = ("analyze", "solve-linear", "solve-nonlinear", "verify")
CHILD_TIMEOUT = 150  # seconds


# A child's peak RSS includes the memory of the process it was spawned from, so
# children are started from this small launcher interpreter, which also times
# them: python -S -c LAUNCHER <result file> <argv...>
LAUNCHER = """
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {elapsed!r} {usage.ru_maxrss}")
"""


def run_child(argv, log: Path):
    """Run one child interpreter to completion, stdout and stderr to ``log``.

    Returns (exit code, wall seconds, peak RSS in MB), all of the child alone."""
    result = log.with_suffix(".run")
    result.unlink(missing_ok=True)
    with open(log, "wb") as fh:
        launcher = [sys.executable, "-S", "-c", LAUNCHER, str(result)] + list(argv)
        proc = subprocess.Popen(
            launcher, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT, start_new_session=True
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if proc.returncode != 0 or not result.is_file():
        return (proc.returncode or -1), 0.0, 0.0
    code, elapsed, maxrss_kb = result.read_text().split()
    return int(code), float(elapsed), int(maxrss_kb) / 1024.0


class CliCold:
    """The four CLI commands on one fixed config, each in a fresh
    interpreter run as ``python -m efos.cli``."""

    name = "cli-cold"
    in_process = False

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.traced = None  # run.py sets a callable(argv, log) that runs one command traced
        self.history = []  # per operation: {command: (exit code, seconds, peak RSS MB)}

    def setup(self):
        import efos

        self.efos = efos
        self.config = self.outdir / "cli.ini"
        self.config.write_text(CLI_CONFIG)
        self.entries = efos.dirac().entries
        self.amp = efos.lipschitz_perturbation(efos.dirac(), 0.9, "sin_q11").declared_nearness
        x = efos.PeriodicGrid(n=3, G=16).points()
        self.f = np.zeros((4,) + x.shape[1:])
        self.f[0] = np.sin(2.0 * np.pi * x[0])

    def make_input(self, i):
        return int(op_rng(self.seed, i).integers(2**31))

    def run(self, verify_seed):
        op_dir = self.outdir / "op"
        shutil.rmtree(op_dir, ignore_errors=True)  # no output of an earlier operation is checked
        op_dir.mkdir()
        results = {}
        for command in CLI_COMMANDS:
            argv = [command, "--config", str(self.config), "--out", str(op_dir / command)]
            if command == "verify":
                argv += ["--seed", str(verify_seed)]
            log = op_dir / f"{command}.log"
            if self.traced is None:
                results[command] = run_child([sys.executable, "-m", "efos.cli"] + argv, log)
            else:
                results[command] = self.traced(argv, log)
        self.history.append(results)
        return op_dir, results

    def check(self, verify_seed, out):
        op_dir, results = out
        bad = [f"{c} exited {r[0]}" for c, r in results.items() if r[0] != 0]
        if bad:
            return "; ".join(bad)
        if "FAIL" in (op_dir / "verify" / "verify.csv").read_text():
            bad.append("verify.csv has a FAIL row")
        for command, amp in (("solve-linear", 0.0), ("solve-nonlinear", self.amp)):
            u = self.efos.read_field(op_dir / command / "u.efof")
            rel = retained_residual(self.entries, amp, u.values, self.f)
            if not rel <= RESIDUAL_TOL:
                bad.append(f"{command} retained residual {rel:.3e} > {RESIDUAL_TOL:g}")
        return "; ".join(bad) or None


WORKLOADS = {cls.name: cls for cls in (PicardG32, VerifyToolkit, CliCold)}

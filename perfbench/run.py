"""efos benchmark: one closed-loop client running one workload.

    python3 perfbench/run.py --workload picard-g32 --seed 1 --seconds 20 --trace 0

Workloads: picard-g32, verify-toolkit, cli-cold (see README.md).  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
wraps efos's layers (spans.py) and prints the per-layer metrics and the
tracing overhead.  Every operation's output is checked.  Human-readable
lines come first; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Run files (fields, CLI
outputs, spans, the full report) go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy loads, here and in every child
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import CHILD_TIMEOUT, CLI_COMMANDS, WORKLOADS, child_env, run_child  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3  # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_REPEATS = 3  # -X importtime runs per traced run

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics in the final JSON line.  Each is non-zero on every
# workload or is a count.  Layer times that are zero on some workload, and the
# scipy import time, which dropping scipy would make zero, are printed in the
# report only.
PER_LAYER = {
    "import.efos_s": "s",
    "grid.fft_calls": "count",
    "grid.fft_s": "s",
    "grid.fft_points": "points",
    "grid.fft_calls_per_iter": "calls/iter",
    "grid.gradient_calls": "count",
    "grid.gradient_s": "s",
    "linear.apply_calls": "count",
    "linear.apply_s": "s",
    "linear.solve_self_s": "s",
    "linear.apply_tensor_s": "s",
    "linear.plan_builds": "count",
    "linear.plan_s": "s",
    "nonlinear.iterations": "count",
    "nonlinear.F_evals_per_iter": "calls/iter",
    "nonlinear.F_eval_s": "s",
    "nonlinear.evaluate_calls": "count",
    "ellipticity.nu_calls": "count",
    "ellipticity.nu_s": "s",
    "tensor.direction_matrix_calls": "count",
    "ellipticity.sweep_samples": "count",
    "fieldfile.bytes": "bytes",
    "trace.op_s_p50": "s",
    "trace.overhead_s": "s",
}
REPORT_ONLY_LAYERS = {
    "import.scipy_s": "s",
    "nonlinear.loop_self_s": "s",
    "ellipticity.sweep_s": "s",
    "oracle.dense_s": "s",
    "oracle.brute_nu_s": "s",
    "fieldfile.write_s": "s",
    "cli.self_s": "s",
}
# Counts that must repeat exactly for one input, within a run and across runs.
REPEAT_COUNTS = (
    "grid.fft_calls",
    "nonlinear.iterations",
    "nonlinear.F_evals_per_iter",
    "tensor.direction_matrix_calls",
    "ellipticity.sweep_samples",
)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def provenance(seed: int) -> dict:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def warm_bytecode(log: Path) -> None:
    """Compile efos's bytecode once, so later interpreters start as they
    would from an installed package."""
    code, _, _ = run_child([sys.executable, "-c", "import efos.cli"], log)
    if code != 0:
        raise RuntimeError(f"import efos.cli failed with exit code {code}; see {log}")


def fresh_setup_seconds(workload: str, seed: int, outdir: Path) -> float:
    """Wall time from starting a fresh interpreter until the workload's
    first operation is ready."""
    argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(outdir)]
    with open(outdir / "setup.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode}); see {outdir / 'setup.log'}")
    return elapsed


def import_seconds(outdir: Path) -> tuple:
    """(import efos, time inside scipy's modules) from -X importtime."""
    efos_s, scipy_s = [], []
    log = outdir / "importtime.log"
    for _ in range(IMPORT_REPEATS):
        code, _, _ = run_child([sys.executable, "-X", "importtime", "-c", "import efos"], log)
        if code != 0:
            raise RuntimeError(f"import efos failed; see {log}")
        rows = re.findall(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)", log.read_text())
        efos_s.append(next(int(cum) for _, cum, indent, name in rows if name == "efos" and not indent) / 1e6)
        scipy_s.append(sum(int(own) for own, _, _, name in rows if name.split(".")[0] == "scipy") / 1e6)
    return statistics.median(efos_s), statistics.median(scipy_s)


# The host's speed drifts by up to 40% over minutes (other tenants), far more than
# the bounds allow.  Every run therefore times fixed kernels next to its own work
# and reports end-to-end times at reference speed: a time measured in one phase of
# the run is scaled by the kernel's nominal time over its median time in that phase.
REF_NOMINAL_S = {"compute": 0.02, "startup": 0.2}
REF_SAMPLES = 3  # kernel timings before each operation and each fresh set-up


class Reference:
    """Kernels that never call efos.  ``compute``: one gradient-sized FFT pair
    and an A:Du contraction at n=3, G=32, in this process, into preallocated
    buffers so that the allocator's state does not enter the timing.
    ``startup``: ``import numpy`` in a fresh interpreter, for work that starts
    processes."""

    def __init__(self, outdir: Path):
        rng = np.random.default_rng(0)
        self.x = rng.normal(size=(4, 32, 32, 32))
        self.mult = 2j * np.pi * rng.normal(size=(1, 3, 32, 32, 32))
        self.A = rng.normal(size=(4, 4, 3))
        self.spec = np.empty((4, 32, 32, 32), complex)
        self.grad_spec = np.empty((12, 32, 32, 32), complex)
        self.grad = np.empty((12, 32, 32, 32), complex)
        self.out = np.empty((4, 32, 32, 32))
        self.log = outdir / "reference.log"
        self.kernel = {}
        self.samples = {}

    def _time(self, kernel: str) -> float:
        if kernel == "startup":
            code, elapsed, _ = run_child([sys.executable, "-c", "import numpy"], self.log)
            if code != 0:
                raise RuntimeError(f"reference interpreter failed; see {self.log}")
            return elapsed
        axes = (1, 2, 3)
        t0 = time.perf_counter()
        np.fft.fftn(self.x, axes=axes, out=self.spec)
        np.multiply(self.spec[:, None], self.mult, out=self.grad_spec.reshape(4, 3, 32, 32, 32))
        np.fft.ifftn(self.grad_spec, axes=axes, out=self.grad)
        np.einsum("abj,bj...->a...", self.A, self.grad.real.reshape(4, 3, 32, 32, 32), out=self.out)
        np.sin(self.out, out=self.out).sum()
        return time.perf_counter() - t0

    def sample(self, phase: str, kernel: str) -> None:
        self.kernel[phase] = kernel
        self.samples.setdefault(phase, []).extend(self._time(kernel) for _ in range(REF_SAMPLES))

    def scale(self, phase: str) -> float:
        """Factor that turns a time measured in ``phase`` into reference seconds."""
        return REF_NOMINAL_S[self.kernel[phase]] / statistics.median(self.samples[phase])


class Runner:
    """Runs a workload's operations one at a time and records the outcome."""

    def __init__(self, wl, tracer, reference):
        self.wl = wl
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def attempt(self, index, op_id=None):
        """Run and check operation ``index``.  Returns (seconds, output):
        seconds is None if the operation never ran, output None if it failed."""
        self.attempted += 1
        elapsed, out = None, None
        try:
            inp = self.wl.make_input(index)
            traced = self.tracer.operation(op_id) if op_id is not None else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with traced:
                    out = self.wl.run(inp)
            finally:
                elapsed = time.perf_counter() - t0
            reason = self.wl.check(inp, out)
        except Exception as exc:
            if not self.failures:
                traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            self.failures.append(f"op {index}: {reason}")
            return elapsed, None
        return elapsed, out

    def phase(self, seconds, indices, traced=False, min_ops=1):
        """Operations with the given input indices until ``seconds`` pass
        and ``min_ops`` have been attempted; returns (op_id, index, seconds)
        of each operation that ran, failed checks included."""
        done = []
        start = time.perf_counter()
        for k, index in enumerate(indices):
            if k >= min_ops and time.perf_counter() - start >= seconds:
                break
            self.reference.sample("ops", "compute" if self.wl.in_process else "startup")
            elapsed, _ = self.attempt(index, op_id=k if traced else None)
            if elapsed is not None:
                done.append((k, index, elapsed))
        return done


def endless(first=()):
    yield from first
    i = first[-1] + 1 if first else 0
    while True:
        yield i
        i += 1


def layer_metrics(tracer, op_ids) -> dict:
    setup = summarize(tracer, "setup")
    ops = [summarize(tracer, k) for k in op_ids]

    def count(fn):
        return fn(setup) + fn(ops[0])

    def timed(fn):
        return fn(setup) + statistics.median(fn(s) for s in ops)

    def per_iter(name):
        iterations = ops[0]["counts"].get("nonlinear.iterations", 0)
        return ops[0]["in_loop"][name] / iterations if iterations else 0.0

    def counter(key):
        return lambda s: s["counts"].get(key, 0)

    def calls(key):
        return lambda s: s["calls"][key]

    def total(key):
        return lambda s: s["total"][key]

    return {
        "grid.fft_calls": count(calls("grid.fft")),
        "grid.fft_s": timed(total("grid.fft")),
        "grid.fft_points": count(counter("grid.fft_points")),
        "grid.fft_calls_per_iter": per_iter("grid.fft"),
        "grid.gradient_calls": count(calls("grid.gradient")),
        "grid.gradient_s": timed(total("grid.gradient")),
        "linear.apply_calls": count(calls("linear.apply")),
        "linear.apply_s": timed(total("linear.apply")),
        "linear.solve_self_s": timed(lambda s: s["self"]["linear.solve"]),
        "linear.apply_tensor_s": timed(total("linear.apply_tensor")),
        "linear.plan_builds": count(calls("linear.plan")),
        "linear.plan_s": timed(total("linear.plan")),
        "nonlinear.iterations": count(counter("nonlinear.iterations")),
        "nonlinear.F_evals_per_iter": per_iter("nonlinear.F_eval"),
        "nonlinear.F_eval_s": timed(total("nonlinear.F_eval")),
        "nonlinear.loop_self_s": timed(lambda s: s["self"]["nonlinear.loop"]),
        "nonlinear.evaluate_calls": count(counter("nonlinear.evaluate_calls")),
        "ellipticity.nu_calls": count(calls("ellipticity.nu")),
        "ellipticity.nu_s": timed(total("ellipticity.nu")),
        "tensor.direction_matrix_calls": count(counter("tensor.direction_matrix_calls")),
        "ellipticity.sweep_s": timed(total("ellipticity.sweep")),
        "ellipticity.sweep_samples": count(counter("ellipticity.sweep_samples")),
        "oracle.dense_s": timed(total("oracle.dense")),
        "oracle.brute_nu_s": timed(total("oracle.brute_nu")),
        "fieldfile.write_s": timed(total("fieldfile.write")),
        "fieldfile.bytes": count(counter("fieldfile.bytes")),
        "cli.self_s": timed(lambda s: s["self"]["cli.main"]),
    }


def repeat_counts(tracer, op_id) -> dict:
    return {k: v for k, v in layer_metrics(tracer, [op_id]).items() if k in REPEAT_COUNTS}


def check_repeat_across_runs(workload, seed, counts, fingerprint) -> str | None:
    """Compare the exact-repeat counts with an earlier run of the same seed
    and source, if one left its record; otherwise leave one."""
    path = ROOT / ".bench_out" / "repeat" / f"{workload}-seed{seed}.json"
    record = {"source_sha256": fingerprint, "counts": counts}
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source_sha256"] == fingerprint:
            if earlier["counts"] != counts:
                return f"counts differ from an earlier run of seed {seed}: {earlier['counts']} vs {counts}"
            return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))
    return None


def traced_cli(tracer):
    """Run one CLI command in a fresh interpreter under the tracer; the
    spans land in ``tracer`` under the current operation."""
    def run(argv, log):
        spans_path = log.with_suffix(".spans.json")
        cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_path), str(tracer.op)] + argv
        result = run_child(cmd, log)
        if spans_path.is_file():
            tracer.merge(json.loads(spans_path.read_text()))
        return result

    return run


def main() -> int:
    args = parse_args()
    if not (SRC / "efos" / "__init__.py").is_file():
        print(f"efos sources not found under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    prov = provenance(args.seed)
    wl = WORKLOADS[args.workload](args.seed, outdir)
    warm_bytecode(outdir / "bytecode.log")
    tracer = Tracer()
    reference = Reference(outdir)
    runner = Runner(wl, tracer, reference)
    report_only = {}

    if args.trace == 1 and wl.in_process:
        import efos  # noqa: F401  every efos module is loaded before its bindings are wrapped

        tracer.install()
        with tracer.operation("setup"):
            wl.setup()
        tracer.uninstall()
    else:
        if args.trace == 0:
            setups = []
            for _ in range(SETUP_REPEATS):
                reference.sample("setup", "startup")
                setups.append(fresh_setup_seconds(args.workload, args.seed, outdir))
        wl.setup()  # for cli-cold this only prepares the checks; its set-up is the import
    if wl.in_process:
        # warm-up: fills the FFT caches and cached_nu; the CLI warms only its bytecode
        _, out = runner.attempt(0)
        if out is not None and hasattr(wl, "keep_first"):
            wl.keep_first(out)

    if args.trace == 0:
        times = runner.phase(args.seconds, endless())
        if not times:
            print("no operation succeeded; nothing to report", file=sys.stderr)
            return 1
        if wl.in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max(r[2] for results in wl.history for r in results.values())
            for command in CLI_COMMANDS:
                command_s = statistics.median(results[command][1] for results in wl.history)
                report_only[f"cli.{command}_s"] = (command_s, "s")
        op_times = [t for _, _, t in times]
        measured = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(op_times) / sum(op_times),
            "op_s_p50": statistics.median(op_times),
        }
        metrics = {
            "setup_s": measured["setup_s"] * reference.scale("setup"),
            "op_s_p50": measured["op_s_p50"] * reference.scale("ops"),
            "peak_rss_mb": rss,
        }
        # one client in a closed loop: throughput is 1 / mean operation time, which
        # one slow operation moves; op_s_p50 carries the same signal steadily
        report_only["ops_per_s"] = (measured["ops_per_s"] / reference.scale("ops"), "1/s")
        for key, value in measured.items():
            report_only[f"measured.{key}"] = (value, "1/s" if key == "ops_per_s" else "s")
        for phase, values in reference.samples.items():
            report_only[f"reference.{phase}_s"] = (statistics.median(values), "s")
        report_only["fail_frac"] = (runner.failed / runner.attempted, "ratio")
        raw = {"setup_s": setups, "op_s": op_times, **{f"reference_{k}_s": v for k, v in reference.samples.items()}}
        units = END_TO_END
    else:
        half = args.seconds / 2.0
        plain = [t for _, _, t in runner.phase(half, endless())]
        if wl.in_process:
            tracer.install()
        else:
            wl.traced = traced_cli(tracer)
        # input 0 twice first: the exact-repeat self-check compares their counts
        traced = runner.phase(half, endless((0, 0)), traced=True, min_ops=2)
        tracer.uninstall()
        if not plain or not traced:
            print("no operation succeeded; nothing to report", file=sys.stderr)
            return 1
        layers = layer_metrics(tracer, [k for k, _, _ in traced])
        layers["import.efos_s"], layers["import.scipy_s"] = import_seconds(outdir)
        traced_p50 = statistics.median(t for _, _, t in traced)
        layers["trace.op_s_p50"] = traced_p50
        layers["trace.overhead_s"] = traced_p50 - statistics.median(plain)
        metrics = {k: layers[k] for k in PER_LAYER}
        report_only = {k: (layers[k], u) for k, u in REPORT_ONLY_LAYERS.items()}
        report_only["trace.untraced_op_s_p50"] = (statistics.median(plain), "s")
        raw = {"traced_op_s": [t for _, _, t in traced], "untraced_op_s": plain}
        firsts = [k for k, index, _ in traced if index == 0]
        if len(firsts) == 2:
            a, b = (repeat_counts(tracer, k) for k in firsts)
            problem = (
                f"exact-repeat counts differ within the run: {a} vs {b}"
                if a != b
                else check_repeat_across_runs(args.workload, args.seed, a, prov["source_sha256"])
            )
            if problem:
                runner.failures.append(problem)
        (outdir / "spans.json").write_text(json.dumps(tracer.export()))
        units = PER_LAYER

    for key, value in prov.items():
        print(f"# {key}: {value}")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    for key, (value, unit) in report_only.items():
        print(f"{key} = {value!r} {unit}  (report only)")
    print(f"# samples: {', '.join(f'{k} n={len(v)}' for k, v in raw.items())}")
    for failure in runner.failures[:10]:
        print(f"# FAILED {failure}")
    if len(runner.failures) > 10:
        print(f"# ... {len(runner.failures) - 10} more failures in result.json")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = dict(result, provenance=prov, report_only=report_only, samples=raw, failures=runner.failures)
    (outdir / "result.json").write_text(json.dumps(full, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fresh-interpreter helpers started by run.py.

    child.py setup <workload> <seed> <outdir>
        run the workload's set-up, print "ready" and exit; the parent times
        this from process start, so interpreter start and imports count;
    child.py cli <spans.json> <op> <efos cli arguments...>
        import efos.cli, wrap its layers with the tracer, run
        ``efos.cli.main`` on the arguments, write the spans and exit with
        the command's exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def setup(name: str, seed: str, outdir: str) -> int:
    if name == "cli-cold":
        import efos.cli  # noqa: F401  the CLI's set-up is its import
    else:
        WORKLOADS[name](int(seed), Path(outdir)).setup()
    print("ready", flush=True)
    return 0


def cli(spans_path: str, op: str, argv: list) -> int:
    import efos.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.operation(int(op)):
        code = efos.cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.export()))
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(*rest))
    sys.exit(cli(rest[0], rest[1], rest[2:]))

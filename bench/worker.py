"""One benchmark process: a set-up, or the timed iterations of one workload.

run.py starts this in a fresh interpreter, so that set-up and the timed
iterations never share a process and the peak RSS of the timed process
excludes set-up:

    python3 bench/worker.py setup --workload W --seed N --work DIR
    python3 bench/worker.py run --workload W --seed N --work DIR \\
        --seconds S --trace 0|1 --result FILE

With ``--trace 1`` the run alternates plain and traced iterations; the
tracing overhead compares each traced iteration with its plain neighbours,
and every report must read the same byte for byte either way.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import OVERHEAD, Tracer, counters, layer_metrics  # noqa: E402
from workloads import WORKLOADS, option  # noqa: E402

MIN_ITERATIONS = 3


def import_cli():
    import ffprog.cli

    if not Path(ffprog.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ffprog imported from {ffprog.cli.__file__}, not from this checkout")
    return ffprog.cli


def run_command(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main(argv) with stdout and stderr captured; rc None on a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a traceback is a failed iteration, not a failed benchmark
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def setup(args) -> int:
    cli = import_cli()
    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    for argv in workload.setup_commands():
        rc, _out, err = run_command(cli, argv)
        if rc != 0:
            print(f"set-up command {argv} exited {rc}: {err.strip()}", file=sys.stderr)
            return 1
    return 0


def run(args) -> int:
    cli = import_cli()
    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    workload.expect()
    commands = workload.commands()
    out_files = [Path(option(argv, "--out")) for argv in commands]
    sequence, layers, traces = [], [], []
    digests = None
    attempted = failed = 0
    problems = []
    start = perf_counter()
    while True:
        tracer = Tracer() if args.trace and attempted % 2 == 1 else None
        workload.reset()
        for path in out_files:
            path.unlink(missing_ok=True)
        gc.collect()
        if tracer:
            tracer.install()
        try:
            t0 = perf_counter()
            results = [run_command(cli, argv) for argv in commands]
            elapsed = perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        attempted += 1

        bad = [f"{argv[0]} exited {rc}: {err.strip()[:200]}" for argv, (rc, _o, err) in zip(commands, results) if rc != 0]
        outputs = [(argv, path.read_text() if path.exists() else "") for argv, path in zip(commands, out_files)]
        if not bad:
            try:
                bad = workload.check(outputs)
            except (ValueError, KeyError) as exc:
                bad = [f"unreadable report: {type(exc).__name__}: {exc}"]
        report = [hashlib.sha256((out + text).encode()).hexdigest() for (_rc, out, _e), (_a, text) in zip(results, outputs)]
        if digests is None:
            digests = report
        elif report != digests:
            bad.append("report bytes differ from the first iteration" + (" (traced)" if tracer else ""))
        if tracer:
            metrics = layer_metrics(tracer.spans)
            if layers and counters(metrics) != counters(layers[0]):
                bad.append("work counters differ between traced iterations")
            layers.append(metrics)
            traces.append(tracer.spans)
        if bad:
            failed += 1
            problems += bad[:3]
        sequence.append(elapsed)
        # A traced run ends on a plain iteration, so each traced one has two plain neighbours.
        if attempted >= MIN_ITERATIONS and perf_counter() - start + elapsed > args.seconds and not tracer:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "plain_s": sequence[0::2] if args.trace else sequence,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report_sha256": digests,
        "env": program_env(),
    }
    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        # Each traced iteration against the mean of its plain neighbours, so that a
        # machine slowing down or speeding up during the run does not read as overhead.
        per_layer[OVERHEAD] = statistics.median(
            sequence[i] - (sequence[i - 1] + sequence[i + 1]) / 2 for i in range(1, len(sequence), 2)
        )
        result.update(traced_s=sequence[1::2], per_layer=per_layer, counters=counters(layers[0]))
        trace_file = Path(args.result).parent / f"{args.workload}-seed{args.seed}.spans.json"
        fields = ("id", "parent", "name", "start", "end", "counters")
        trace_file.write_text(json.dumps({"fields": fields, "iterations": traces}))
    Path(args.result).write_text(json.dumps(result))
    return 0


def program_env() -> dict:
    """numpy, its BLAS and the thread settings the timed process ran with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": threads,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()
    return setup(args) if args.mode == "setup" else run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of real ffprog CLI runs, end to end and per module.

    python3 bench/run.py --workload fibers-cold|verify-warm|large-p \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.  A
run times set-up in fresh interpreters (median of several), then starts one
more interpreter that repeats the workload's command list for S seconds and
checks every output.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A full record, with the machine it
ran on, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RUN_LIMIT_S = 170  # every run must end within 180 s

sys.path.insert(0, str(HERE))
from tracing import OVERHEAD  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)  # nearest-rank percentile
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def machine_env(seed: int) -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffprog").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "seed": seed,
    }


def worker_env() -> dict:
    """Single-threaded BLAS and a fixed hash seed."""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def call(argv: list[str], deadline: float) -> None:
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise RuntimeError("run time limit reached")
    proc = subprocess.run(argv, env=worker_env(), cwd=ROOT, timeout=timeout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:4])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    deadline = monotonic() + RUN_LIMIT_S

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ffprog" / "cli.py").is_file() or not spec_file.is_file():
        print("error: run from the root of an ffprog checkout (src/ffprog and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    # "Build": byte-compile the package once, so every set-up imports the same way.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/ffprog"], cwd=ROOT, check=True, capture_output=True)

    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work_root = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    result_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.worker.json"
    setup_s = []

    def timed_setup(i: int) -> Path:
        work = work_root / f"setup-{i}"
        work.mkdir(parents=True)
        t0 = perf_counter()
        call([sys.executable, str(WORKER), "setup", *common, "--work", str(work)], deadline)
        setup_s.append(perf_counter() - t0)
        return work

    # Half the set-ups run before the timed process and half after it, so that a
    # slow spell of the machine during part of the run reaches only some of them.
    before = (workload.setups + 1) // 2
    try:
        for i in range(before):
            work = timed_setup(i)
            if i:  # the timed process uses the last work dir (it holds the pre-filled cache)
                shutil.rmtree(work_root / f"setup-{i - 1}")
        call(
            [sys.executable, str(WORKER), "run", *common, "--work", str(work), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(result_file)],
            deadline,
        )
        for i in range(before, workload.setups):
            shutil.rmtree(timed_setup(i))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    res = json.loads(result_file.read_text())
    env = {**machine_env(args.seed), **res.pop("env")}
    plain = res["plain_s"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(setup_s),
        }
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    tail = tail_percentile(plain)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else f"no tail percentile (needs 11 samples, has {len(plain)})"
    print(f"  wall_s       median {statistics.median(plain):.4f} s over {len(plain)} plain iterations; {tail_text}")
    print(f"  setup_s      median {statistics.median(setup_s):.4f} s over {len(setup_s)} set-ups")
    print(f"  peak_rss_mb  {res['peak_rss_kb'] / 1024:.1f} MB")
    print(f"  fail_ratio   {res['failed']}/{res['attempted']} = {res['failed'] / res['attempted']:.4f}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    if args.trace:
        wall = statistics.median(res["traced_s"])
        focus = sum(metrics[name] for name in workload.focus)
        print(f"  focus {'+'.join(workload.focus)} = {focus:.4f} s, {focus / wall:.1%} of the traced median wall time")
        print(f"  {OVERHEAD} {metrics[OVERHEAD]:.4f} s per iteration ({len(res['traced_s'])} traced)")
        for name in units:
            if metrics.get(name):
                print(f"  {name:48s} {metrics[name]:.6g} {units[name]}")

    record = {"env": env, "setup_s": setup_s, **res, "metrics": metrics}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    result_file.unlink()
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

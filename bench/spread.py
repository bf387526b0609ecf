"""Run-to-run spread of the end-to-end metrics, the way the bounds are judged.

    python3 bench/spread.py --seeds 10 [--compare earlier.json] [--out spread.json]

Runs bench/run.py once per workload and seed (seeds 1 to N), one run at a time, with the
run_seconds of BENCHMARK.json and tracing off.  For each metric it reports
the median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound.  With --compare it also reports how far each median moved from the
medians of an earlier output of this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--compare")
    parser.add_argument("--out")
    args = parser.parse_args()
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    summary = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(1, args.seeds + 1):
            argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if not line or not line["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            for name in values:
                values[name].append(line["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + "  ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            row = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": metric["bound"], "values": vals}
            before = earlier.get(workload, {}).get(metric["name"])
            if before:
                row["moved"] = (med - before["median"]) / before["median"]
            summary[workload][metric["name"]] = row
            moved = f"  moved {row['moved']:+.3f}" if "moved" in row else ""
            print(f"  {workload:12s} {metric['name']:12s} median {med:.4f} {metric['unit']}  "
                  f"spread {row['spread']:.3f} (bound {metric['bound']}){moved}")
    records = sorted((ROOT / ".bench_out").glob("*-trace0.json"), key=lambda p: p.stat().st_mtime)
    if records:
        env = json.loads(records[-1].read_text())["env"]
        summary["machine"] = {k: v for k, v in env.items() if k != "seed"}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Record one trajectory point: every workload over several seeds.

    python3 perfbench/record.py --label NAME

Runs run.py in a child process per workload of BENCHMARK.json and seed
0-9 with --trace 0 and the run_seconds of BENCHMARK.json, then once per
workload with --trace 1 at seed 0, and writes
perfbench/trajectory/NAME.json: for each end-to-end metric its median,
quartiles and spread (interquartile distance over median) across seeds,
and the traced run's per-layer metrics.  Runs are sequential, so they do
not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    out = {
        "label": args.label,
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "platform": platform.platform()},
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        metrics = {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in bench["end_to_end"]}
        traced = run_once(name, 0, seconds, 1)
        out["workloads"][name] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": metrics,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        spreads = " ".join(f"{k}={v['median']:.4g}(±{v['spread']:.3f})" for k, v in metrics.items())
        print(f"{name}: {spreads}", flush=True)
    path = HERE / "trajectory" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

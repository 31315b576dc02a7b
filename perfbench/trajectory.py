"""Runs every workload on ten seeds and writes results/BENCH_<label>.json.

Usage, from the root of the repository:

    python3 perfbench/trajectory.py --label baseline

Runs go seed by seed through the workloads, so that a slow spell of the
machine touches every workload alike.  For each workload and end-to-end
metric the file records every value, the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (q3 - q1) / median next
to the metric's bound.  One traced run per workload adds the per-layer
metrics.  Any run that is not correct stops the script.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10  # seeds 0..RUNS-1 per workload


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
    return result


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {name: [] for name in bounds} for w in workloads}
    for seed in range(RUNS):
        for workload in workloads:
            result = bench(workload, seed, spec["run_seconds"], 0)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"seed {seed} {workload}: "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    out = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": spec["run_seconds"],
        "seeds": list(range(RUNS)),
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in workloads:
        rows = {}
        for name, vals in values[workload].items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / median, "bound": bounds[name],
                          "values": vals}
        out["end_to_end"][workload] = rows
        traced = bench(workload, 0, spec["run_seconds"], 1)
        out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"traced {workload}: overhead "
              f"{out['per_layer'][workload]['trace.overhead_s']:.3f} s", flush=True)

    path = HERE / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for workload, rows in out["end_to_end"].items():
        for name, row in rows.items():
            print(f"{workload:15s} {name:13s} median={row['median']:<12.6g} "
                  f"spread={row['spread']:.4f} bound={row['bound']}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()

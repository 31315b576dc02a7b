"""Benchmark of the skregion CLI on four pinned workloads.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload region-e3 --seed 0 --seconds 20 --trace 0

`--trace 0` times untraced invocations and prints the end-to-end metrics;
`--trace 1` makes a separate traced run and prints the per-layer metrics.
The last line of standard output is the JSON result; a readable summary
goes to standard error.  The metric names and units are those declared in
BENCHMARK.json at the root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from outputs import check_run, reference_dir
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170        # a run must end within 180 s
SETUP_SAMPLES = 5
# the forward failure taxonomy, reported as codec.failures.<kind>
FAILURE_KINDS = ("enc1_no_sequence", "enc1_no_cover", "enc2_no_sequence",
                 "enc2_no_cover", "decode_none", "decode_ambiguous")


class BenchmarkError(Exception):
    pass


def declared_metrics(trace: bool) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _run(cmd: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise BenchmarkError(f"{cmd[1]} did not finish within {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{cmd[1]} exited {proc.returncode}: {proc.stderr[-3000:]}")
    return proc


def setup_times(dist: str, env: dict, deadline: float) -> list:
    """CPU seconds of fresh processes that import skregion and load the input."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = _run([sys.executable, str(HERE / "setup_probe.py"), dist], env, deadline)
        samples.append(float(proc.stdout.split()[-1]))
    return samples[1:]  # the first also writes the bytecode cache of a fresh checkout


def run_worker(args, mode: str, work: Path, env: dict, deadline: float) -> dict:
    # without a stored reference, correctness rests on two identical invocations
    at_least = 1 if reference_dir(WORKLOADS[args.workload], args.seed) else 2
    result = work / f"{mode}.json"
    _run([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
          "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
          "--at-least", str(at_least), "--work", str(work), "--result", str(result)],
         env, deadline)
    return json.loads(result.read_text(encoding="utf-8"))


def work_done(workload, found: dict) -> tuple:
    """(units of work in one invocation, their name), from its checked counters."""
    command = workload.args[0]
    if command == "region":
        return found["evaluated"], "lattice points"
    if command == "verify":
        return found["case3"]["evaluated"], "case-3 lattice points"
    if "exact" in workload.args:
        return 2 ** int(workload.args[workload.args.index("--n") + 1]), "source blocks"
    return found["trials"] * len(found["seeds"]), "trials"


def end_to_end(workload, report: dict, checked: dict, setup: list) -> tuple:
    invocations = report["invocations"]
    walls = [inv["wall_s"] for inv in invocations]
    metrics = {
        "cpu_s": statistics.median(inv["cpu_s"] for inv in invocations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
        "output_bytes": statistics.median_low(checked["bytes"]) if checked["bytes"] else 0,
    }
    summary = [
        f"invocations={len(invocations)} wall_s={[round(w, 3) for w in walls]} "
        f"cpu_s={[round(inv['cpu_s'], 3) for inv in invocations]}",
        f"setup_s samples={[round(s, 4) for s in setup]}",
    ]
    if checked["counters"]:
        units, unit = work_done(workload, checked["counters"])
        summary.append(f"{units} {unit} per invocation: "
                       f"{units / statistics.median(walls):.1f}/s by median wall time, "
                       f"{units / metrics['cpu_s']:.1f} per CPU second")
    return metrics, summary


def per_layer(report: dict, checked: dict) -> tuple:
    layers = dict(report["layers"])
    found = checked["counters"] or {}
    failures = found.get("failures", {})
    for kind in FAILURE_KINDS:
        layers[f"codec.failures.{kind}"] = failures.get(kind, 0)
    layers["sim.trials"] = found.get("trials", 0) * len(found.get("seeds", ()))
    summary = [report["tree"]]
    unlisted = sorted(set(failures) - set(FAILURE_KINDS))
    if unlisted:
        summary.append(f"failure kinds outside the metric list: {unlisted}")
    return layers, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="skregion CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "skregion" / "__init__.py").is_file():
        raise BenchmarkError(f"no skregion sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skregion
    if not Path(skregion.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"skregion imported from {skregion.__file__}, not {SRC}")
    declared = declared_metrics(bool(args.trace))
    workload = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        dist = write_inputs(str(work))[workload.source]
        if args.trace:
            report = run_worker(args, "trace", work, env, deadline)
        else:
            setup = setup_times(dist, env, deadline)
            report = run_worker(args, "timed", work, env, deadline)
        checked = check_run(workload, args.seed, report["invocations"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    warmup_failed = int(report["warmup"]["code"] != 0)
    attempted = len(report["invocations"]) + 1   # the warm-up counts as attempted
    failed = checked["failed"] + warmup_failed
    if args.trace:
        values, summary = per_layer(report, checked)
    else:
        values, summary = end_to_end(workload, report, checked, setup)
    if set(values) != set(declared):
        raise BenchmarkError(f"metrics {sorted(set(values) ^ set(declared))} "
                             "disagree with BENCHMARK.json")
    problems = checked["problems"]
    if args.trace and report["missing"]:
        # an untraced layer would read 0 and pass for a speed-up
        problems.append(f"trace targets absent from skregion, update tracer.py: "
                        f"{report['missing']}")
    if warmup_failed:
        problems.append(f"warm-up exit code {report['warmup']['code']}: "
                        f"{report['warmup']['log'][-500:]}")
    summary += [f"counters={json.dumps(checked['counters'], sort_keys=True)}",
                f"reference={'stored' if checked['reference'] else 'none for this seed'} "
                f"failed_share={failed}/{attempted}"]
    summary += [f"problem: {p}" for p in problems]
    summary += [f"{name} = {values[name]!r} {unit}" for name, unit in declared.items()]
    print(f"== {args.workload} seed={args.seed} trace={args.trace}", file=sys.stderr)
    print("\n".join(summary), file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

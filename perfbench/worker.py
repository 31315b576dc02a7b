"""Runs one workload's invocations in this process through `skregion.cli.main`.

Started by run.py with `src` on PYTHONPATH; writes its measurements as JSON
to `--result`.  Mode `timed` runs untraced invocations until the next one would
end after `--seconds`, making at least `--at-least` of them.
Mode `trace` runs one untraced invocation, then one traced invocation, then
replays each `enumerate_region` call of the traced invocation with
`workers=1` as the single-threaded reference.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import time
import traceback

from tracer import Tracer, format_tree, layer_metrics
from workloads import WORKLOADS


def invoke(main, argv: list, out: str) -> dict:
    sink = io.StringIO()
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a failed invocation, not a benchmark error
        code = None
        sink.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return {"out": out, "code": code, "wall_s": wall, "cpu_s": cpu,
            "log": sink.getvalue()[-4000:]}


def timed(main, workload, seed: int, dist: str, work: str, seconds: float,
          at_least: int) -> dict:
    invocations = []
    start = time.perf_counter()
    while True:
        out = os.path.join(work, f"inv-{len(invocations)}")
        invocations.append(invoke(main, workload.argv(seed, dist, out), out))
        typical = statistics.median(inv["wall_s"] for inv in invocations)
        if (len(invocations) >= at_least
                and time.perf_counter() - start + typical > seconds):
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"invocations": invocations, "peak_rss_mb": peak_kib / 1024.0}


def traced(main, workload, seed: int, dist: str, work: str) -> dict:
    from skregion import region

    untraced_out = os.path.join(work, "inv-0")
    untraced = invoke(main, workload.argv(seed, dist, untraced_out), untraced_out)
    tracer = Tracer()
    tracer.install()
    try:
        traced_out = os.path.join(work, "inv-1")
        traced_inv = invoke(tracer.wrap(main, "cli.main"),
                            workload.argv(seed, dist, traced_out), traced_out)
    finally:
        tracer.uninstall()
    stats, counters = tracer.merged()
    layers = layer_metrics(stats, counters)
    serial = 0.0
    for args, kwargs in tracer.enumerate_calls:
        t0 = time.perf_counter()
        region.enumerate_region(*args, **{**kwargs, "workers": 1})
        serial += time.perf_counter() - t0
    layers["region.enumerate.serial_s"] = serial
    layers["trace.wall_s"] = traced_inv["wall_s"]
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = traced_inv["wall_s"] - untraced["wall_s"]
    return {"invocations": [untraced, traced_inv], "layers": layers,
            "tree": format_tree(stats), "missing": tracer.missing}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--at-least", type=int, default=1)
    parser.add_argument("--work", required=True, help="directory holding the inputs")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    from skregion import cli

    workload = WORKLOADS[args.workload]
    dist = os.path.join(args.work, f"{workload.source}.dist")
    warmup_out = os.path.join(args.work, "warmup")
    warmup = invoke(cli.main, workload.argv(args.seed, dist, warmup_out, warmup=True),
                    warmup_out)
    if args.mode == "timed":
        result = timed(cli.main, workload, args.seed, dist, args.work, args.seconds,
                       args.at_least)
    else:
        result = traced(cli.main, workload, args.seed, dist, args.work)
    result["warmup"] = warmup
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

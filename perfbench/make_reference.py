"""Regenerates every workload's stored reference outputs under perfbench/reference.

Usage, from the root of the repository:

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right: the benchmark
marks every invocation whose outputs differ from these as failed.
"""

import contextlib
import gzip
import io
import json
import os
import shutil
import sys
import tempfile

from outputs import REFERENCE_ROOT, REFERENCE_SEEDS, counters
from workloads import WORKLOADS, write_inputs


def store(workload, seed: int, dists: dict, scratch: str) -> None:
    from skregion.cli import main

    out = os.path.join(scratch, f"{workload.name}-{seed}")
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.argv(seed, dists[workload.source], out))
    if code != 0:
        sys.exit(f"{workload.name} seed {seed}: exit code {code}")
    ref = os.path.join(REFERENCE_ROOT, workload.name,
                       f"seed-{seed}" if workload.n_seeds else "any")
    os.makedirs(ref, exist_ok=True)
    for name in workload.outputs:
        if name == "region.json":
            with open(os.path.join(out, name), "rb") as fh, \
                    gzip.GzipFile(os.path.join(ref, name + ".gz"), "wb", mtime=0) as gz:
                gz.write(fh.read())
        else:
            shutil.copyfile(os.path.join(out, name), os.path.join(ref, name))
    with open(os.path.join(ref, "counters.json"), "w", encoding="utf-8") as fh:
        json.dump(counters(workload, out), fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    work = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as scratch:
        dists = write_inputs(scratch)
        for workload in WORKLOADS.values():
            for seed in (REFERENCE_SEEDS if workload.n_seeds else (0,)):
                store(workload, seed, dists, scratch)
                print(f"stored {workload.name} seed {seed}", flush=True)


if __name__ == "__main__":
    main()

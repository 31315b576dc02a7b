"""The pinned workloads: CLI arguments and inputs.

Every workload runs one `skregion` subcommand with default flags (no
`--threads`, so the program picks its own worker count, as a user's run
does).  Only the codebook seeds of the two `simulate` workloads follow the
benchmark's `--seed`; `region` and `verify` are deterministic functions of
their input, so every seed runs the same computation.  Why each workload
was chosen is stated in BENCHMARK.json.
"""

import os
from dataclasses import dataclass

# The two input sources, as arguments of `skregion.sources.broadcast_source`.
SOURCES = {
    "e3": ("X3", 0.25, 0.25),
    "b0": ("X3", 0.0, 0.25),
}


@dataclass(frozen=True)
class Workload:
    name: str
    source: str            # key of SOURCES
    args: tuple            # subcommand and flags, without --dist/--out/--seeds
    warmup_args: tuple     # a cheap variant, run once untimed before timing
    n_seeds: int           # codebook seeds per invocation; 0 = not seeded
    outputs: tuple         # files checked against the reference

    def seeds(self, seed: int) -> str:
        """Codebook seeds for benchmark seed `seed`: a disjoint block per seed."""
        first = self.n_seeds * seed + 1
        return ",".join(str(first + i) for i in range(self.n_seeds))

    def argv(self, seed: int, dist: str, out: str, *, warmup: bool = False) -> list:
        argv = list(self.warmup_args if warmup else self.args)
        argv += ["--dist", dist, "--out", out]
        if self.n_seeds:
            argv += ["--seeds", self.seeds(seed)]
        return argv


_SIMULATE = ("simulate", "--direction", "forward", "--rate1", "0.405639",
             "--eps-enc", "0.75", "--trials", "1000")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="region-e3",
        source="e3",
        args=("region", "--direction", "forward", "--bound", "inner",
              "--cards", "S=3,T=3,U=2,V=2", "--grid-q", "1"),
        warmup_args=("region", "--direction", "forward", "--bound", "inner",
                     "--cards", "S=2,T=2,U=1,V=1", "--grid-q", "1"),
        n_seeds=0,
        outputs=("frontier.csv", "region.json"),
    ),
    Workload(
        name="verify-e3",
        source="e3",
        args=("verify", "--grid-q", "5"),
        warmup_args=("verify", "--grid-q", "1"),
        n_seeds=0,
        outputs=("verify.json",),
    ),
    Workload(
        name="simulate-mc",
        source="b0",
        args=_SIMULATE + ("--n", "8"),
        warmup_args=_SIMULATE[:-1] + ("20", "--n", "8"),
        n_seeds=4,
        outputs=("report.json",),
    ),
    Workload(
        name="simulate-exact",
        source="b0",
        args=_SIMULATE + ("--n", "11", "--mode", "exact"),
        warmup_args=_SIMULATE + ("--n", "6", "--mode", "exact"),
        n_seeds=1,
        outputs=("report.json",),
    ),
)}


def write_inputs(directory: str) -> dict:
    """Write every source as a .dist file; returns {source key: path}."""
    from skregion.cli import write_distribution
    from skregion.sources import broadcast_source

    paths = {}
    for key, spec in SOURCES.items():
        paths[key] = os.path.join(directory, f"{key}.dist")
        write_distribution(broadcast_source(*spec), paths[key])
    return paths

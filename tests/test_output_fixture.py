"""Byte-for-byte outputs of every subcommand on small committed sources.

`tests/data/outputs/` holds six `.dist` tables and, for each run listed in
its `runs.json`, the run's exit code, its `frontier.csv`, `verify.json`,
`report.json` or `lemmas.json`, and the SHA-256 of its `region.json`:

e6        X1 - X2 - X3 broadcast (case 1);
e6_swap   e6 with X1 and X2 exchanged (X2 - X1 - X3, case 1 swapped);
near_e6   e6 mixed with 0.1% of the uniform table: case 1 within
          `--tol 1e-3`, where the deterministic point misses the segment
          (exit 5);
xor       X3 = X1 xor X2, a two-vertex forward-inner frontier on a sum facet;
random    a Dirichlet 2x2x2 table whose forward-inner frontier at q=2 has
          11 vertices and a sum facet;
chain     a random X1 - X3 - X2 chain (cases 2 and 3), also simulated
          backward in MC and exact mode and forward with both keys;
lemmas    `lemmas` at n = 2 and 3, which reads no table.

These pin the multi-vertex frontiers, sum facets and nonzero gaps that the
benchmark's region-e3 and verify-e3 references (a one-vertex frontier and a
zero gap) never reach, and the backward and two-key simulations that its
simulate references (forward, one key) never run.  Run this file as a
script to rewrite the fixture from the current code; do that only to pin a
deliberate output change.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from skregion.cli import main

DATA = Path(__file__).parent / "data" / "outputs"

#: every table gets each region run and each verify run
_REGION_ARGS = [["region", "--direction", direction, "--bound", bound,
                 "--cards", "S=2,T=2,U=2,V=2", "--grid-q", "2", "--hull"]
                for direction in ("forward", "backward")
                for bound in ("inner", "outer", "explicit")]
_VERIFY_ARGS = [["verify"], ["verify", "--grid-q", "2"]]
_SIMULATE_ARGS = [
    ["simulate", "--direction", "backward", "--n", "6", "--rate1", "0.2",
     "--trials", "200", "--seeds", "1,2"],
    ["simulate", "--direction", "backward", "--n", "6", "--rate1", "0.2",
     "--mode", "exact", "--seeds", "1"],
    ["simulate", "--direction", "forward", "--n", "6", "--rate1", "0.1", "--rate2", "0.1",
     "--trials", "200", "--seeds", "3"],
]
_EXTRA_ARGS = {"near_e6": [["verify", "--tol", "1e-3"]], "chain": _SIMULATE_ARGS}
_TABLES = ("e6", "e6_swap", "near_e6", "xor", "random", "chain")
#: runs that read no table, filed under the name "lemmas"
_LEMMAS_ARGS = [["lemmas", "--n", n, "--seed", "7", "--draws", "200"] for n in ("2", "3")]
#: the file each subcommand's run is compared by, besides region.json's digest
_OUTPUT = {"region": "frontier.csv", "verify": "verify.json",
           "simulate": "report.json", "lemmas": "lemmas.json"}


def _label(argv) -> str:
    if argv[0] == "region":
        return f"region-{argv[2]}-{argv[4]}"
    if argv[0] == "simulate":
        return f"simulate-{argv[2]}-{'exact' if '--mode' in argv else 'mc'}"
    return "-".join(a.lstrip("-") for a in argv)


def _run(name: str, argv, out: Path) -> dict:
    """Run `argv` on table `name` (none for `lemmas`) into `out`; its exit
    code and outputs."""
    dist = [] if argv[0] == "lemmas" else ["--dist", str(DATA / f"{name}.dist")]
    rc = main(list(argv) + dist + ["--out", str(out)])
    file = _OUTPUT[argv[0]]
    got = {"exit": rc, file: (out / file).read_bytes()}
    if argv[0] == "region":
        got["region_json_sha256"] = hashlib.sha256((out / "region.json").read_bytes()).hexdigest()
    return got


def _fixture_runs() -> list:
    """(table, argv) of every run of the fixture."""
    return [(name, argv) for name in _TABLES
            for argv in _REGION_ARGS + _VERIFY_ARGS + _EXTRA_ARGS.get(name, [])
            ] + [("lemmas", argv) for argv in _LEMMAS_ARGS]


def _runs() -> dict:
    with open(DATA / "runs.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, argv", _fixture_runs(),
                         ids=[f"{name}/{_label(argv)}" for name, argv in _fixture_runs()])
def test_output_matches_fixture(name, argv, tmp_path):
    key = f"{name}/{_label(argv)}"
    run = _runs()[key]
    got = _run(name, argv, tmp_path / "out")
    assert run["argv"] == argv and got["exit"] == run["exit"]
    for file, data in got.items():
        if file == "region_json_sha256":
            assert data == run["region_json_sha256"]
        elif file != "exit":
            assert data == (DATA / key / file).read_bytes(), file


def test_fixture_applies_every_case():
    """Across the fixture, each special case of `verify` applies at least
    once, a coincidence fails once (exit 5), and a frontier has at least
    three vertices."""
    runs = _runs()
    applicable = set()
    for key, run in runs.items():
        if run["argv"][0] == "verify":
            doc = json.loads((DATA / key / "verify.json").read_text())
            applicable |= {c for c in ("case1", "case1_swapped", "case2", "case3")
                           if doc[c]["applicable"]}
    assert applicable == {"case1", "case1_swapped", "case2", "case3"}
    assert 5 in {run["exit"] for run in runs.values()}
    longest = max(len((DATA / key / "frontier.csv").read_text().splitlines())
                  for key, run in runs.items() if run["argv"][0] == "region")
    assert longest >= 1 + 3  # header plus three vertices


def _write_fixture() -> None:
    import numpy as np

    from skregion.cli import write_distribution
    from skregion.sources import broadcast_source, random_chain, random_pmf, triple_from_table, xor_source

    e6 = broadcast_source("X2", 0.25, 0.25)
    near = e6.table * 0.999 + 0.001 * np.full((2, 2, 2), 1 / 8)
    tables = {
        "e6": e6,
        "e6_swap": triple_from_table(e6.table.transpose(1, 0, 2)),
        "near_e6": triple_from_table(near / near.sum()),
        "xor": xor_source(),
        "random": random_pmf(np.random.default_rng(8), (2, 2, 2)),
        "chain": random_chain(np.random.default_rng(0), ("X1", "X3", "X2")),
    }
    for name, pmf in tables.items():
        write_distribution(pmf, str(DATA / f"{name}.dist"))
    runs = {}
    for name, argv in _fixture_runs():
        key = f"{name}/{_label(argv)}"
        out = DATA / key
        got = _run(name, argv, out)
        (out / "manifest.json").unlink()
        if argv[0] == "region":
            (out / "region.json").unlink()
        runs[key] = {"argv": argv, "exit": got["exit"],
                     **({"region_json_sha256": got["region_json_sha256"]}
                        if argv[0] == "region" else {})}
    with open(DATA / "runs.json", "w") as fh:
        fh.write(json.dumps(runs, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(_write_fixture())

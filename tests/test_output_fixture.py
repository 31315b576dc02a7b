"""Byte-for-byte outputs of `region` and `verify` on small committed sources.

`tests/data/outputs/` holds six `.dist` tables and, for each run listed in
its `runs.json`, the run's exit code, its `frontier.csv` or `verify.json`
and the SHA-256 of its `region.json`:

e6        X1 - X2 - X3 broadcast (case 1);
e6_swap   e6 with X1 and X2 exchanged (X2 - X1 - X3, case 1 swapped);
near_e6   e6 mixed with 0.1% of the uniform table: case 1 within
          `--tol 1e-3`, where the deterministic point misses the segment
          (exit 5);
xor       X3 = X1 xor X2, a two-vertex forward-inner frontier on a sum facet;
random    a Dirichlet 2x2x2 table whose forward-inner frontier at q=2 has
          11 vertices and a sum facet;
chain     a random X1 - X3 - X2 chain (cases 2 and 3).

These pin the multi-vertex frontiers, sum facets and nonzero gaps that the
benchmark's region-e3 and verify-e3 references (a one-vertex frontier and a
zero gap) never reach.  Run this file as a script to rewrite the fixture
from the current code; do that only to pin a deliberate output change.
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
_EXTRA_ARGS = {"near_e6": [["verify", "--tol", "1e-3"]]}
_TABLES = ("e6", "e6_swap", "near_e6", "xor", "random", "chain")


def _label(argv) -> str:
    if argv[0] == "region":
        return f"region-{argv[2]}-{argv[4]}"
    return "-".join(a.lstrip("-") for a in argv)


def _run(name: str, argv, out: Path) -> dict:
    """Run `argv` on table `name` into `out`; its exit code and outputs."""
    rc = main(list(argv) + ["--dist", str(DATA / f"{name}.dist"), "--out", str(out)])
    got = {"exit": rc}
    if argv[0] == "region":
        got["frontier.csv"] = (out / "frontier.csv").read_bytes()
        got["region_json_sha256"] = hashlib.sha256((out / "region.json").read_bytes()).hexdigest()
    else:
        got["verify.json"] = (out / "verify.json").read_bytes()
    return got


def _fixture_runs() -> list:
    """(table, argv) of every run of the fixture."""
    return [(name, argv) for name in _TABLES
            for argv in _REGION_ARGS + _VERIFY_ARGS + _EXTRA_ARGS.get(name, [])]


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

import gzip
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import skregion
from skregion.cli import (
    DistributionFormatError,
    format_distribution,
    main,
    parse_distribution,
    write_distribution,
)
from skregion.sources import broadcast_source, identity_source, independent_source, xor_source


@pytest.fixture
def dists(tmp_path):
    paths = {}
    for name, pmf in (
        ("xor", xor_source()),
        ("e3", broadcast_source("X3", 0.25, 0.25)),
        ("e6", broadcast_source("X2", 0.25, 0.25)),
        ("identity", identity_source()),
        ("indep", independent_source()),
    ):
        p = tmp_path / f"{name}.dist"
        write_distribution(pmf, str(p))
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# Distribution file format
# ---------------------------------------------------------------------------

def test_distribution_round_trip():
    pmf = broadcast_source("X3", 0.25, 0.25)
    text = format_distribution(pmf)
    back = parse_distribution(text)
    np.testing.assert_array_equal(back.table, pmf.table)


def test_distribution_comments_and_omitted_cells():
    text = """# a comment
vars: X1=2 X2=2 X3=2
0 0 0 0.5   # trailing comment
1 1 1 0.5
"""
    pmf = parse_distribution(text)
    assert pmf.table[0, 0, 0] == 0.5
    assert pmf.table[0, 1, 0] == 0.0


@pytest.mark.parametrize("text", [
    "0 0 0 1.0",                                  # missing header
    "vars: X1=2 X2=2\n0 0 0 1.0",                 # truncated header
    "vars: X1=2 X2=2 X3=2\n0 0 0 0.9",            # does not sum to 1
    "vars: X1=2 X2=2 X3=2\n0 0 2 1.0",            # index out of range
    "vars: X1=2 X2=2 X3=2\n0 0 0 0.5\n0 0 0 0.5", # duplicate cell
    "vars: X1=2 X2=2 X3=2\n0 0 0 bad",            # non-numeric
    "",                                            # empty
    "vars: X1=2 X2=2 X3=2\n0 0 0 nan\n1 1 1 1.0",  # not a number
    "vars: X1=2 X2=2 X3=2\n0 0 0 inf",            # infinite
    "vars: X1=\u00b2 X2=2 X3=2\n0 0 0 1.0",        # superscript digit
])
def test_distribution_malformed(text):
    with pytest.raises(DistributionFormatError):
        parse_distribution(text)


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dist"
    bad.write_text("vars: X1=2 X2=2 X3=2\n0 0 0 0.3\n")
    rc = main(["region", "--dist", str(bad), "--direction", "forward",
               "--bound", "explicit", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


NAN_DIST = "vars: X1=2 X2=2 X3=2\n0 0 0 nan\n1 1 1 1.0\n"


@pytest.mark.parametrize("argv", [
    ["region", "--direction", "forward", "--bound", "inner"],
    ["verify"],
])
def test_nan_distribution_exit_code(tmp_path, capsys, argv):
    bad = tmp_path / "nan.dist"
    bad.write_text(NAN_DIST)
    out = tmp_path / "out"
    rc = main(argv + ["--dist", str(bad), "--out", str(out)])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_superscript_cardinality_exit_code(tmp_path, capsys):
    # '\u00b2'.isdigit() is true but int() rejects it: a malformed header, not a crash
    bad = tmp_path / "sup.dist"
    bad.write_text("vars: X1=\u00b2 X2=2 X3=2\n0 0 0 1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["verify", "--dist", str(bad), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 1: bad variable spec 'X1=\u00b2'\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,env", [
    (["region", "--direction", "forward", "--bound", "inner", "--cards", "S=0"], None),
    (["region", "--direction", "forward", "--bound", "inner", "--grid-q", "0"], None),
    (["region", "--direction", "forward", "--bound", "explicit"], "abc"),
    (["verify", "--grid-q", "0"], None),
    (["simulate", "--direction", "forward", "--n", "0"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--trials", "0"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "1,x"], None),
    (["verify", "--tol", "nan"], None),
    (["verify", "--tol", "-1"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--eps-dec", "nan"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--eps-enc", "-1"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--eps-enc", "0"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--margin", "inf"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--rate1", "-0.5"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--rate2", "nan"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "1,-3"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "1,2,1"], None),
    (["lemmas", "--draws", "-1"], None),
    (["lemmas", "--draws", "3", "--seed", "-1"], None),
    (["region", "--direction", "forward", "--bound", "inner", "--cards", "S=2,S=3"], None),
    (["region", "--direction", "forward", "--bound", "explicit"], "0"),
    (["region", "--direction", "forward", "--bound", "explicit"], "-5"),
    (["region", "--direction", "forward", "--bound", "explicit"], " 12"),
    (["region", "--direction", "forward", "--bound", "explicit"], "1_000"),
    (["region", "--direction", "forward", "--bound", "inner", "--cards", "S=\u00b2"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "\u0661"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "+1"], None),
    (["simulate", "--direction", "forward", "--n", "4", "--seeds", "0_1"], None),
])
def test_malformed_flag_exit_code(dists, tmp_path, capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("SKREGION_BUDGET", env)
    out = tmp_path / "out"
    dist = [] if argv[0] == "lemmas" else ["--dist", dists["e3"]]
    rc = main(argv + dist + ["--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("token", ["0_1", "+1", "\u0661", "-1"])
def test_cell_index_must_be_ascii_digits(tmp_path, capsys, token):
    # int() reads each of these as an index (1 or -1); a cell index is ASCII digits alone
    bad = tmp_path / "cell.dist"
    bad.write_text(f"vars: X1=2 X2=2 X3=2\n0 0 {token} 0.5\n0 0 0 0.5\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["verify", "--dist", str(bad), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: line 2: bad X3 index {token!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["verify", "--dist", "missing.dist", "--grid-q", "0"], "--grid-q must be >= 1, got 0"),
    (["simulate", "--dist", "nan.dist", "--direction", "forward", "--n", "0"],
     "--n must be >= 1, got 0"),
])
def test_flags_checked_before_distribution(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.dist").write_text(NAN_DIST)
    assert main(argv + ["--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# region subcommand
# ---------------------------------------------------------------------------

def test_region_xor_frontier_rows(dists, tmp_path):
    out = tmp_path / "r"
    rc = main(["region", "--dist", dists["xor"], "--direction", "forward",
               "--bound", "inner", "--grid-q", "1", "--cards", "S=2,T=2,U=1,V=1",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "frontier.csv").read_text().splitlines()
    assert rows[0] == "R1,R2"
    assert "1.000000000,0" in rows
    assert "0,1.000000000" in rows
    doc = json.loads((out / "region.json").read_text())
    for point in doc["points"]:
        c = point["constraints"]
        cap = c["sum_max"] if c["sum_max"] is not None else c["r1_max"] + c["r2_max"]
        assert min(c["r1_max"] + c["r2_max"], cap) <= 1.0 + 1e-9


def test_region_independent_single_origin_row(dists, tmp_path):
    out = tmp_path / "r"
    rc = main(["region", "--dist", dists["indep"], "--direction", "forward",
               "--bound", "inner", "--grid-q", "1", "--cards", "S=2,T=2,U=1,V=1",
               "--out", str(out)])
    assert rc == 0
    rows = (out / "frontier.csv").read_text().splitlines()
    assert rows == ["R1,R2", "0,0"]


def test_region_explicit_e3_corner(dists, tmp_path):
    out = tmp_path / "r"
    rc = main(["region", "--dist", dists["e3"], "--direction", "forward",
               "--bound", "explicit", "--out", str(out)])
    assert rc == 0
    rows = (out / "frontier.csv").read_text().splitlines()
    assert len(rows) == 2
    r1, r2 = (float(v) for v in rows[1].split(","))
    assert abs(r1 - 0.143156) < 1e-6 and abs(r2 - 0.143156) < 1e-6


def test_region_frontier_sorted(dists, tmp_path):
    out = tmp_path / "r"
    main(["region", "--dist", dists["e3"], "--direction", "forward",
          "--bound", "inner", "--grid-q", "2", "--cards", "S=2,T=2,U=1,V=1",
          "--out", str(out)])
    rows = (out / "frontier.csv").read_text().splitlines()[1:]
    pts = [tuple(float(v) for v in row.split(",")) for row in rows]
    assert all(pts[i][0] < pts[i + 1][0] for i in range(len(pts) - 1))
    assert all(pts[i][1] >= pts[i + 1][1] for i in range(len(pts) - 1))


def test_region_budget_exit(dists, tmp_path, monkeypatch):
    monkeypatch.setenv("SKREGION_BUDGET", "100")
    rc = main(["region", "--dist", dists["e3"], "--direction", "forward",
               "--bound", "inner", "--grid-q", "3", "--cards", "S=3,T=3,U=2,V=2",
               "--out", str(tmp_path / "out")])
    assert rc == 3


def test_region_hull_emitted(dists, tmp_path):
    out = tmp_path / "r"
    rc = main(["region", "--dist", dists["xor"], "--direction", "forward",
               "--bound", "inner", "--grid-q", "1", "--cards", "S=2,T=2,U=1,V=1",
               "--hull", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "region.json").read_text())
    assert "hull" in doc


def test_region_explicit_hull(dists, tmp_path):
    # the explicit bound's document gains the hull of its frontier and is
    # otherwise the document written without --hull
    from skregion.region import upper_concave_envelope

    docs = {}
    for flags in ([], ["--hull"]):
        out = tmp_path / f"r{len(flags)}"
        assert main(["region", "--dist", dists["e3"], "--direction", "forward",
                     "--bound", "explicit", *flags, "--out", str(out)]) == 0
        docs[len(flags)] = json.loads((out / "region.json").read_text())
    hull = docs[1].pop("hull")
    assert docs[1] == docs[0]
    assert hull == [list(p) for p in upper_concave_envelope(docs[0]["frontier"])]


def test_region_byte_identical_across_threads(dists, tmp_path):
    outputs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}"
        rc = main(["region", "--dist", dists["e3"], "--direction", "forward",
                   "--bound", "inner", "--grid-q", "1", "--cards", "S=3,T=3,U=2,V=2",
                   "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("frontier.csv", "region.json", "manifest.json")})
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# simulate subcommand
# ---------------------------------------------------------------------------

def test_simulate_identity_zero_error(dists, tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(["simulate", "--dist", dists["identity"], "--direction", "forward",
               "--n", "8", "--rate1", "0.5", "--trials", "200", "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "err_K=0.000000" in captured
    doc = json.loads((out / "report.json").read_text())
    assert doc["err_K"] == 0.0
    assert doc["schema"] == 1
    assert "wall_clock" not in doc


def test_simulate_infeasible_rates_exit4(dists, tmp_path, capsys):
    rc = main(["simulate", "--dist", dists["identity"], "--direction", "forward",
               "--n", "6", "--rate1", "1.8", "--trials", "10",
               "--out", str(tmp_path / "s")])
    assert rc == 4
    assert "R'1" in capsys.readouterr().err


def test_simulate_over_rate_warns_but_runs(dists, tmp_path, capsys):
    rc = main(["simulate", "--dist", dists["e3"], "--direction", "forward",
               "--n", "6", "--rate1", "0.5", "--rate2", "0.5", "--trials", "100",
               "--out", str(tmp_path / "s")])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "warning:" in captured
    doc = json.loads((tmp_path / "s" / "report.json").read_text())
    assert doc["err_K"] > 0.3


def test_simulate_exact_mode(dists, tmp_path, capsys):
    out = tmp_path / "s"
    rc = main(["simulate", "--dist", dists["identity"], "--direction", "forward",
               "--n", "6", "--rate1", "0.5", "--mode", "exact", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "report.json").read_text())
    assert doc["leak_K"] == 0.0
    assert doc["err_K"] == 0.0


def test_simulate_exact_leakage_example(tmp_path):
    # noiseless key leg, quarter-noise tap: per-symbol leakage is small at
    # n = 8 and strictly larger at n = 4
    dist = tmp_path / "b.dist"
    write_distribution(broadcast_source("X3", 0.0, 0.25), str(dist))
    leaks = {}
    for n in (4, 8):
        out = tmp_path / f"x{n}"
        rc = main(["simulate", "--dist", str(dist), "--direction", "forward",
                   "--n", str(n), "--rate1", "0.405639", "--mode", "exact",
                   "--out", str(out)])
        assert rc == 0
        leaks[n] = json.loads((out / "report.json").read_text())["leak_K"]
    assert leaks[8] <= 0.1
    assert leaks[8] < leaks[4]


_GATE_ARGV = ["simulate", "--direction", "forward", "--n", "6", "--rate1", "0.405639",
              "--eps-enc", "0.75", "--mode", "exact", "--seeds", "1"]


# stderr of a run that exact mode completes, by SKREGION_BUDGET
_GATE_NOTES = {
    "4608": "note: err_L not computed: exact block triple needs 262144 entries, budget 4608\n",
    None: "",
}


@pytest.mark.parametrize("budget,summary,err_l", [
    ("4096", None, None),
    ("4608", "err_K=0.031250 err_L=n/a", None),
    (None, "err_K=0.031250 err_L=0.056931", 0.0569305419921875),
])
def test_simulate_exact_size_gates(tmp_path, capsys, monkeypatch, budget, summary, err_l):
    """Exact mode's size gates: the view table (4608 entries at n = 6) is
    refused with exit 3 and no output; at exactly that budget the 8^6-entry
    block triple behind err_L is refused, err_L reads n/a (null), and
    stderr says which gate refused which size."""
    if budget is not None:
        monkeypatch.setenv("SKREGION_BUDGET", budget)
    dist = tmp_path / "b0.dist"
    write_distribution(broadcast_source("X3", 0.0, 0.25), str(dist))
    out = tmp_path / "s"
    rc = main(_GATE_ARGV + ["--dist", str(dist), "--out", str(out)])
    captured = capsys.readouterr()
    if summary is None:
        assert rc == 3
        assert captured.err == "error: exact view table needs 4608 entries, budget 4096\n"
        assert not out.exists()
        return
    assert rc == 0
    assert captured.out.startswith(summary + " ")
    assert captured.err == _GATE_NOTES[budget]
    doc = json.loads((out / "report.json").read_text())
    assert doc["err_K"] == 0.03125
    assert doc["err_L"] == err_l
    assert "notes" not in doc


def test_view_table_gate_runs_before_the_encoder_outcomes(tmp_path, capsys, monkeypatch):
    # the view table's size is known from the codebooks: the refusal must
    # not wait for the encoder outcomes it would weigh
    from skregion import sim

    def refuse(*args):
        raise AssertionError("encoder outcomes computed before the view-table gate")

    monkeypatch.setattr(sim, "_encoder_outcomes", refuse)
    monkeypatch.setenv("SKREGION_BUDGET", "4096")
    dist = tmp_path / "b0.dist"
    write_distribution(broadcast_source("X3", 0.0, 0.25), str(dist))
    out = tmp_path / "s"
    rc = main(_GATE_ARGV + ["--dist", str(dist), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == "error: exact view table needs 4608 entries, budget 4096\n"
    assert not out.exists()


def test_simulate_byte_identical_across_threads(dists, tmp_path):
    outputs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"s{threads}"
        rc = main(["simulate", "--dist", dists["e6"], "--direction", "backward",
                   "--n", "6", "--rate1", "0.05", "--trials", "300",
                   "--seeds", "1,2", "--threads", str(threads), "--out", str(out)])
        assert rc == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("report.json", "manifest.json")})
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# verify subcommand
# ---------------------------------------------------------------------------

def test_verify_e6_case1_pass(dists, tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--dist", dists["e6"], "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["case1"]["pass"]
    assert doc["case1"]["outer_to_inner_gap"] <= 1e-9
    assert not doc["case2"]["applicable"]


def test_verify_e3_case2_pass(dists, tmp_path):
    out = tmp_path / "v"
    rc = main(["verify", "--dist", dists["e3"], "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "verify.json").read_text())
    assert doc["case2"]["pass"]
    assert doc["case2"]["corner_error"] <= 1e-9
    assert doc["case3"]["pass"]


def test_verify_xor_no_case(dists, tmp_path, capsys):
    rc = main(["verify", "--dist", dists["xor"], "--out", str(tmp_path / "v")])
    assert rc == 0
    assert "no special case applies" in capsys.readouterr().out


def test_verify_detects_broken_coincidence(tmp_path):
    # a loose chain tolerance admits a perturbed source whose deterministic
    # point genuinely misses the closed-form segment: exit code 5
    e6 = broadcast_source("X2", 0.25, 0.25)
    table = e6.table * 0.999 + 0.001 * np.full((2, 2, 2), 1 / 8)
    from skregion.sources import triple_from_table
    perturbed = triple_from_table(table / table.sum())
    path = tmp_path / "near.dist"
    write_distribution(perturbed, str(path))
    rc = main(["verify", "--dist", str(path), "--tol", "1e-3",
               "--out", str(tmp_path / "v")])
    assert rc == 5


def test_verify_chain_violated_exit5(dists, tmp_path, capsys, monkeypatch):
    from skregion import cases

    def violated(base, tol):
        raise cases.ChainViolatedError("X1-X3-X2", 0.5)

    monkeypatch.setattr(cases, "diagnose", violated)
    out = tmp_path / "v"
    rc = main(["verify", "--dist", dists["e3"], "--out", str(out)])
    assert rc == 5
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# lemmas subcommand
# ---------------------------------------------------------------------------

def test_lemmas_clean_run(tmp_path):
    out = tmp_path / "l"
    rc = main(["lemmas", "--draws", "100", "--seed", "7", "--n", "2", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "lemmas.json").read_text())
    assert doc["violations"] == 0
    assert doc["min_slack"] >= -1e-10


def test_lemmas_zero_draws(tmp_path):
    out = tmp_path / "l"
    rc = main(["lemmas", "--draws", "0", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "lemmas.json").read_text())
    assert doc["min_slack"] is None


def test_lemmas_rerun_identical(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        main(["lemmas", "--draws", "50", "--seed", "11", "--n", "2", "--out", str(out)])
        outs.append((out / "lemmas.json").read_bytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Manifests and JSON text
# ---------------------------------------------------------------------------

def test_manifest_contents(dists, tmp_path):
    out = tmp_path / "m"
    main(["region", "--dist", dists["xor"], "--direction", "forward",
          "--bound", "explicit", "--out", str(out)])
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["schema"] == 1
    assert doc["tool"] == "skregion"
    assert doc["version"] == skregion.__version__
    assert doc["subcommand"] == "region"
    assert doc["input_digest"].startswith("sha256:")
    assert "threads" not in doc["flags"]


def _region_flags(dist, direction, bound, cards=None, hull=False):
    return {"dist": dist, "direction": direction, "bound": bound, "grid_q": 1,
            "cards": cards, "hull": hull}


def _simulate_flags(dist, direction, n, rate1, mode, trials, eps_enc, eps_dec):
    return {"dist": dist, "direction": direction, "n": n, "rate1": rate1, "rate2": 0.0,
            "margin": 0.5, "trials": trials, "mode": mode, "eps_enc": eps_enc,
            "eps_dec": eps_dec}


@pytest.mark.parametrize("argv,flags,seeds", [
    (["region", "--dist", "e3", "--direction", "forward", "--bound", "explicit"],
     _region_flags("e3.dist", "forward", "explicit"), []),
    (["region", "--dist", "xor", "--direction", "backward", "--bound", "inner", "--grid-q", "1",
      "--cards", "S=2,T=2,U=1,V=1", "--hull", "--threads", "2"],
     _region_flags("xor.dist", "backward", "inner", "S=2,T=2,U=1,V=1", True), []),
    (["simulate", "--dist", "e3", "--direction", "forward", "--n", "4", "--rate1", "0.1",
      "--trials", "20", "--seeds", "3,1", "--eps-dec", "2.5", "--threads", "2"],
     _simulate_flags("e3.dist", "forward", 4, 0.1, "mc", 20, 1.0, 2.5), [3, 1]),
    (["simulate", "--dist", "e6", "--direction", "backward", "--n", "4", "--rate1", "0.05",
      "--mode", "exact"],
     _simulate_flags("e6.dist", "backward", 4, 0.05, "exact", 1000, 1.0, 3.0), [1]),
    (["verify", "--dist", "e6", "--tol", "1e-8"],
     {"dist": "e6.dist", "grid_q": 1, "tol": 1e-8}, []),
    (["lemmas", "--draws", "5", "--seed", "3", "--n", "1"],
     {"draws": 5, "n": 1, "seed": 3}, [3]),
], ids=["region-explicit", "region-inner-cards-hull", "simulate-mc", "simulate-exact",
        "verify", "lemmas"])
def test_manifest_bytes(dists, tmp_path, argv, flags, seeds):
    """manifest.json is pinned byte for byte: every parsed flag except the
    execution details (--threads, --out) and --seeds, which has its own
    entry; `dist` as its base name and simulate's resolved eps values."""
    argv = [dists.get(a, a) for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    dist = argv[argv.index("--dist") + 1] if "--dist" in argv else None
    expected = {
        "schema": 1, "tool": "skregion", "version": skregion.__version__,
        "subcommand": argv[0], "flags": flags, "seeds": seeds,
        "input_digest": (None if dist is None else
                         "sha256:" + hashlib.sha256(Path(dist).read_bytes()).hexdigest()),
    }
    assert (out / "manifest.json").read_text() == json.dumps(
        expected, sort_keys=True, indent=2) + "\n"


_SMALL_CARDS = ["--grid-q", "1", "--cards", "S=2,T=2,U=1,V=1"]


@pytest.mark.parametrize("argv", [
    *(["region", "--dist", dist, "--direction", direction, "--bound", bound, *_SMALL_CARDS]
      for dist in ("xor", "e3") for direction in ("forward", "backward")
      for bound in ("inner", "outer")),
    ["region", "--dist", "e3", "--direction", "forward", "--bound", "explicit"],
    ["region", "--dist", "e3", "--direction", "forward", "--bound", "inner", "--hull",
     *_SMALL_CARDS],
    ["verify", "--dist", "e3"],
    ["verify", "--dist", "e6"],
    ["simulate", "--dist", "e3", "--direction", "forward", "--n", "4", "--rate1", "0.1",
     "--trials", "20"],
    ["simulate", "--dist", "e3", "--direction", "forward", "--n", "4", "--rate1", "0.1",
     "--mode", "exact"],
    ["simulate", "--dist", "e6", "--direction", "backward", "--n", "4", "--rate1", "0.05",
     "--trials", "20"],
    ["lemmas", "--draws", "20", "--seed", "3"],
], ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")))
def test_json_outputs_are_canonical(dists, tmp_path, argv):
    """Every JSON file the CLI writes, manifest included, is exactly the
    `json.dumps(sort_keys=True, indent=2)` text of its own content."""
    argv = [dists.get(a, a) for a in argv]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    files = sorted(out.glob("*.json"))
    assert "manifest.json" in [f.name for f in files] and len(files) == 2
    for path in files:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2,
                                  allow_nan=False) + "\n", path.name


def test_region_e3_matches_benchmark_reference(tmp_path):
    """The benchmark's region-e3 workload reproduces its stored region.json
    and frontier.csv byte for byte."""
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "region-e3" / "any"
    dist = tmp_path / "e3.dist"
    write_distribution(broadcast_source("X3", 0.25, 0.25), str(dist))
    out = tmp_path / "r"
    rc = main(["region", "--direction", "forward", "--bound", "inner",
               "--cards", "S=3,T=3,U=2,V=2", "--grid-q", "1",
               "--dist", str(dist), "--out", str(out)])
    assert rc == 0
    with gzip.open(reference / "region.json.gz", "rb") as fh:
        assert (out / "region.json").read_bytes() == fh.read()
    assert (out / "frontier.csv").read_bytes() == (reference / "frontier.csv").read_bytes()


def test_verify_e3_matches_benchmark_reference(tmp_path):
    """The benchmark's verify-e3 workload reproduces its stored verify.json
    byte for byte."""
    reference = (Path(__file__).parents[1] / "perfbench" / "reference" / "verify-e3"
                 / "any" / "verify.json")
    dist = tmp_path / "e3.dist"
    write_distribution(broadcast_source("X3", 0.25, 0.25), str(dist))
    out = tmp_path / "v"
    rc = main(["verify", "--grid-q", "5", "--dist", str(dist), "--out", str(out)])
    assert rc == 0
    assert (out / "verify.json").read_bytes() == reference.read_bytes()


def test_simulate_exact_matches_benchmark_reference(tmp_path):
    """The benchmark's simulate-exact workload (benchmark seed 0 = codebook
    seed 1) reproduces its stored report.json byte for byte, down to the
    `-0.0` of a zero key entropy."""
    reference = (Path(__file__).parents[1] / "perfbench" / "reference" / "simulate-exact"
                 / "seed-0" / "report.json")
    dist = tmp_path / "b0.dist"
    write_distribution(broadcast_source("X3", 0.0, 0.25), str(dist))
    out = tmp_path / "s"
    rc = main(["simulate", "--direction", "forward", "--rate1", "0.405639",
               "--eps-enc", "0.75", "--trials", "1000", "--n", "11", "--mode", "exact",
               "--dist", str(dist), "--out", str(out), "--seeds", "1"])
    assert rc == 0
    assert (out / "report.json").read_bytes() == reference.read_bytes()


def test_simulate_mc_matches_benchmark_reference(tmp_path):
    """The benchmark's simulate-mc workload (benchmark seed 0 = codebook
    seeds 1-4) reproduces its stored report.json byte for byte, failure
    counts included."""
    reference = (Path(__file__).parents[1] / "perfbench" / "reference" / "simulate-mc"
                 / "seed-0" / "report.json")
    dist = tmp_path / "b0.dist"
    write_distribution(broadcast_source("X3", 0.0, 0.25), str(dist))
    out = tmp_path / "s"
    rc = main(["simulate", "--direction", "forward", "--rate1", "0.405639",
               "--eps-enc", "0.75", "--trials", "1000", "--n", "8",
               "--dist", str(dist), "--out", str(out), "--seeds", "1,2,3,4"])
    assert rc == 0
    assert (out / "report.json").read_bytes() == reference.read_bytes()


def test_benchmark_tracer_finds_every_target():
    """Every function, method and module attribute the benchmark's tracer
    wraps exists, so a renamed target fails here and not only in a traced
    benchmark run."""
    import skregion.cli  # noqa: F401  (the tracer patches loaded modules)

    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()

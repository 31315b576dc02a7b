"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
from contextlib import contextmanager

import numpy as np

from skregion.cli import main, write_distribution
from skregion.cases import lemma3_check, random_lemma3_joint
from skregion.pmf import Channel, VariableId, cond_mutual_information as cmi, iid_extension
from skregion.region import (
    AuxSystem,
    GridSpec,
    backward_inner_point,
    single_key_capacity,
    enumerate_region,
    explicit_outer,
    forward_inner_point,
)
from skregion.sim import (
    broadcast_forward_preset,
    exact_leakage,
    identity_preset,
    run_trials,
)
from skregion.sources import broadcast_source, random_chain, random_pmf, xor_source
from conftest import oracle_cmi, oracle_entropy


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_c01_information_measure_oracle_equivalence():
    with criterion(1, "information-measure oracle equivalence"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            k = int(rng.integers(2, 4))
            cards = tuple(int(c) for c in rng.integers(2, 5, size=k))
            names = ("X1", "X2", "X3")[:k]
            pmf = random_pmf(rng, cards, names=names)
            for subset in ({names[0]}, set(names)):
                assert abs(pmf.entropy(subset) - oracle_entropy(pmf, subset)) < 1e-10
            if k == 3:
                value = cmi(pmf, ("X1",), ("X2",), ("X3",))
                assert abs(value - max(0.0, oracle_cmi(pmf, ["X1"], ["X2"], ["X3"]))) < 1e-10
                assert value >= 0.0
            else:
                value = cmi(pmf, (names[0],), (names[1],))
                assert abs(value - max(0.0, oracle_cmi(pmf, [names[0]], [names[1]]))) < 1e-10
                assert value >= 0.0
            # chain rule H(A,B) = H(A) + H(B|A)
            h_ab = pmf.entropy({names[0], names[1]})
            h_a = pmf.entropy({names[0]})
            assert abs(h_ab - h_a - (h_ab - h_a)) < 1e-10
            assert h_ab + 1e-12 >= h_a


def test_c02_explicit_outer_bound_e3():
    with criterion(2, "explicit outer bound on the quarter-noise pair"):
        e3 = broadcast_source("X3", 0.25, 0.25)
        # pre-verify with the 8-entry enumeration oracle
        lhs = oracle_cmi(e3, ["X1"], ["X3"], ["X2"])
        rhs = oracle_cmi(e3, ["X2"], ["X3"], ["X1"])
        assert abs(lhs - 0.143156) < 1e-6 and abs(rhs - 0.143156) < 1e-6
        cset = explicit_outer(e3)
        assert abs(cset.r1_max - 0.143156) < 1e-6
        assert abs(cset.r2_max - 0.143156) < 1e-6
        assert abs(cset.r1_max - lhs) < 1e-12


def test_c03_xor_forward_inner_point_and_frontier():
    with criterion(3, "xor source forward bounds"):
        xor = xor_source()
        aux = AuxSystem.forward(
            xor, Channel.identity("X1", 2, "S"), Channel.identity("X2", 2, "T"),
            Channel.constant("U", "S", 2), Channel.constant("V", "T", 2))
        pt = forward_inner_point(aux)
        assert (pt.r1_max, pt.r2_max, pt.sum_max) == (1.0, 1.0, 1.0)
        region = enumerate_region(xor, "forward-inner", GridSpec(2, 2, 1, 1, 1))
        assert (1.0, 0.0) in region.frontier and (0.0, 1.0) in region.frontier
        for r1_max, r2_max, sum_max in region.rates.tolist():
            assert min(r1_max + r2_max, sum_max) <= 1.0 + 1e-9


def test_c04_case1_coincidence_random_chains(tmp_path):
    with criterion(4, "case-1 coincidence on random chains"):
        rng = np.random.default_rng(404)
        for i in range(20):
            cards = (int(rng.integers(2, 4)), 2, int(rng.integers(2, 4)))
            base = random_chain(rng, order=("X1", "X2", "X3"), cards=cards)
            path = tmp_path / f"chain{i}.dist"
            write_distribution(base, str(path))
            out = tmp_path / f"v{i}"
            rc = main(["verify", "--dist", str(path), "--out", str(out)])
            assert rc == 0
            doc = json.loads((out / "verify.json").read_text())
            assert doc["case1"]["applicable"] and doc["case1"]["pass"]
            assert doc["case1"]["outer_to_inner_gap"] <= 1e-9
            # the deterministic backward point T = X3 attains the segment
            c3 = base.variable("X3").cardinality
            mat = np.zeros((c3, 1, c3))
            for x in range(c3):
                mat[x, 0, x] = 1.0
            ch_st = Channel(("X3",), (VariableId("S", 1), VariableId("T", c3)), mat)
            ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((1, c3, 1)))
            pt = backward_inner_point(AuxSystem.backward(base, ch_st, ch_u))
            assert abs(pt.r2_max - cmi(base, ("X2",), ("X3",), ("X1",))) <= 1e-9


def test_c05_case2_coincidence_random_chains():
    with criterion(5, "case-2 coincidence on random chains"):
        rng = np.random.default_rng(505)
        for _ in range(20):
            cards = (int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2)
            base = random_chain(rng, order=("X1", "X3", "X2"), cards=cards)
            rect = explicit_outer(base)
            c1 = base.variable("X1").cardinality
            c2 = base.variable("X2").cardinality
            aux = AuxSystem.forward(
                base, Channel.identity("X1", c1, "S"), Channel.identity("X2", c2, "T"),
                Channel.constant("U", "S", c1), Channel.constant("V", "T", c2))
            corner = forward_inner_point(aux)
            assert abs(corner.r1_max - rect.r1_max) <= 1e-9
            assert abs(corner.r2_max - rect.r2_max) <= 1e-9
            region = enumerate_region(base, "forward-inner", GridSpec(c1, c2, 1, 1, 1))
            assert region.contains(rect.r1_max - 1e-12, rect.r2_max - 1e-12, tol=1e-9)


def test_c06_containment_sweep():
    with criterion(6, "inner points inside the explicit rectangle"):
        rng = np.random.default_rng(606)
        grid = GridSpec(2, 2, 1, 1, 1)
        for _ in range(50):
            cards = tuple(int(c) for c in rng.integers(2, 4, size=3))
            base = random_pmf(rng, cards)
            outer = explicit_outer(base)
            for family in ("forward-inner", "backward-inner"):
                region = enumerate_region(base, family, grid)
                for r1_max, r2_max, _ in region.rates.tolist():
                    assert r1_max <= outer.r1_max + 1e-9
                    assert r2_max <= outer.r2_max + 1e-9


def test_c07_lemma3_fuzzing():
    with criterion(7, "chain-split inequality fuzz"):
        rng = np.random.default_rng(707)
        violations = 0
        for _ in range(1000):
            joint = random_lemma3_joint(rng, 2)
            ok, slack = lemma3_check(joint, 2)
            if slack < -1e-10:
                violations += 1
        assert violations == 0


def test_c08_iid_extension_equality():
    with criterion(8, "i.i.d. tensorization equality"):
        rng = np.random.default_rng(808)
        for _ in range(20):
            cards = tuple(int(c) for c in rng.integers(2, 4, size=3))
            pmf = random_pmf(rng, cards, names=("S", "X2", "U"))
            base = pmf.entropy({"S", "X2", "U"}) - pmf.entropy({"X2", "U"})
            for n in (2, 3):
                ext = iid_extension(pmf, n)
                cond = ext.entropy({"S", "X2", "U"}) - ext.entropy({"X2", "U"})
                assert abs(cond - n * base) <= 1e-9


def test_c09_protocol_reliability_trend():
    with criterion(9, "reliability trend over blocklength"):
        seeds = tuple(range(1, 11))
        errs = {}
        for n in (4, 6, 8):
            cfg = broadcast_forward_preset(n, trials=1000, seeds=seeds)
            errs[n] = run_trials(cfg).err_K
        assert errs[4] >= errs[6] >= errs[8]
        assert errs[8] <= 0.2
        identity = run_trials(identity_preset(8, trials=1000, seeds=(1, 2)))
        assert identity.err_K == 0.0


def test_c10_exact_secrecy():
    with criterion(10, "exact leakage and uniformity"):
        leak = {}
        for n in (4, 8):
            cfg = broadcast_forward_preset(n, seeds=(1,))
            leak[n], gap, _ = exact_leakage(cfg)
            assert gap <= 1.0 / n + 0.05
        assert leak[8] <= 0.1
        assert leak[8] < leak[4]


def test_c11_single_key_degeneration():
    with criterion(11, "single-key bound equals the degenerate region projection"):
        rng = np.random.default_rng(1111)
        grid = GridSpec(2, 1, 2, 1, 1)
        for _ in range(20):
            base = random_pmf(rng, (2, 2, 2))
            direct = single_key_capacity(base, "forward", grid)
            region = enumerate_region(base, "forward-inner", grid)
            projected = region.rates[:, 0].max()
            assert abs(direct - projected) < 1e-12


def test_c12_cli_determinism_across_workers(tmp_path):
    with criterion(12, "byte-identical outputs across worker counts"):
        from skregion.sources import identity_source
        e3 = broadcast_source("X3", 0.25, 0.25)
        dist_e3 = tmp_path / "e3.dist"
        dist_id = tmp_path / "identity.dist"
        write_distribution(e3, str(dist_e3))
        write_distribution(identity_source(), str(dist_id))
        region_outputs = []
        sim_outputs = []
        for threads in (1, 2, 8):
            rdir = tmp_path / f"r{threads}"
            rc = main(["region", "--dist", str(dist_e3), "--direction", "forward",
                       "--bound", "inner", "--grid-q", "1",
                       "--cards", "S=3,T=3,U=2,V=2",
                       "--threads", str(threads), "--out", str(rdir)])
            assert rc == 0
            region_outputs.append({f: (rdir / f).read_bytes()
                                   for f in ("frontier.csv", "region.json", "manifest.json")})
            sdir = tmp_path / f"s{threads}"
            rc = main(["simulate", "--dist", str(dist_id), "--direction", "backward",
                       "--n", "6", "--rate1", "0.5", "--trials", "400",
                       "--seeds", "1,2,3", "--threads", str(threads),
                       "--out", str(sdir)])
            assert rc == 0
            sim_outputs.append({f: (sdir / f).read_bytes()
                                for f in ("report.json", "manifest.json")})
        assert region_outputs[0] == region_outputs[1] == region_outputs[2]
        assert sim_outputs[0] == sim_outputs[1] == sim_outputs[2]

import numpy as np
import pytest

from skregion.cases import (
    ChainViolatedError,
    case1_region,
    case2_region,
    case3_region,
    diagnose,
    lemma3_check,
    random_lemma3_joint,
    region_gap,
    telescoped_slack,
    verify_coincidence,
)
from skregion.pmf import Channel, JointPmf, VariableId, cond_mutual_information as cmi
from skregion.region import (
    GridSpec,
    RateConstraintSet,
    RateRegion,
    AuxSystem,
    explicit_outer,
    enumerate_region,
    pareto_frontier,
    INF,
)
from skregion.sources import (
    broadcast_source,
    independent_source,
    random_chain,
    random_pmf,
    triple_from_table,
    xor_source,
)
from conftest import rows_of

E3 = broadcast_source("X3", 0.25, 0.25)
E6 = broadcast_source("X2", 0.25, 0.25)


# ---------------------------------------------------------------------------
# Diagnosis
# ---------------------------------------------------------------------------

def test_diagnose_independent_detects_all():
    assert set(diagnose(independent_source()).chains) == {
        "X1-X2-X3", "X2-X1-X3", "X1-X3-X2"}


def test_diagnose_xor_detects_none():
    diag = diagnose(xor_source())
    assert diag.chains == ()
    assert diag.residual_x1_x2_x3 == pytest.approx(1.0)
    assert diag.residual_x2_x1_x3 == pytest.approx(1.0)
    assert diag.residual_x1_x3_x2 == pytest.approx(1.0)


def test_diagnose_e6_exactly_one_chain():
    assert diagnose(E6).chains == ("X1-X2-X3",)


def test_diagnose_permutation_consistency(rng):
    base = random_pmf(rng, (2, 3, 2))
    swapped = triple_from_table(base.table.transpose(1, 0, 2))
    a = diagnose(base)
    b = diagnose(swapped)
    # swapping X1 and X2 exchanges the two chain residuals and fixes the third
    assert b.residual_x1_x2_x3 == pytest.approx(a.residual_x2_x1_x3, abs=1e-12)
    assert b.residual_x2_x1_x3 == pytest.approx(a.residual_x1_x2_x3, abs=1e-12)
    assert b.residual_x1_x3_x2 == pytest.approx(a.residual_x1_x3_x2, abs=1e-12)


# ---------------------------------------------------------------------------
# Closed-form case regions
# ---------------------------------------------------------------------------

def test_case1_e6_segment_height():
    region = case1_region(E6)
    assert region.frontier == [(0.0, pytest.approx(0.143156, abs=1e-6))]
    assert region.rates[0, 0] == 0.0


def test_case1_x3_independent_collapses():
    table = np.einsum("ij,k->ijk", E6.marginalize({"X1", "X2"}).table, [0.5, 0.5])
    base = triple_from_table(table)
    region = case1_region(base)
    assert region.frontier == [(0.0, 0.0)]


def test_case1_degenerate_x2_equals_x3():
    # X2 = X3: the chain holds and the segment height is H(X3|X1)
    t = np.zeros((2, 2, 2))
    for x2 in (0, 1):
        for x1 in (0, 1):
            p = 0.375 if x1 == x2 else 0.125
            t[x1, x2, x2] = p
    base = triple_from_table(t)
    region = case1_region(base)
    h_x3_given_x1 = base.entropy({"X3", "X1"}) - base.entropy({"X1"})
    assert region.rates[0, 1] == pytest.approx(h_x3_given_x1, abs=1e-12)


def test_case1_rejects_non_chain():
    with pytest.raises(ChainViolatedError):
        case1_region(E3)


def test_case2_e3_square():
    r1_max, r2_max, _ = case2_region(E3).rates[0]
    assert r1_max == pytest.approx(0.143156, abs=1e-6)
    assert r1_max == pytest.approx(r2_max, abs=1e-12)


def test_case2_identity_leg_rectangle():
    # X1 = X3, X2 independent: rectangle (H(X3), 0)
    t = np.zeros((2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            t[a, b, a] = 0.25
    base = triple_from_table(t)
    r1_max, r2_max, _ = case2_region(base).rates[0]
    assert r1_max == pytest.approx(1.0, abs=1e-12)
    assert r2_max == pytest.approx(0.0, abs=1e-12)


def test_case2_independent_origin():
    region = case2_region(independent_source())
    assert region.frontier == [(0.0, 0.0)]


def test_case2_rejects_non_chain():
    with pytest.raises(ChainViolatedError):
        case2_region(E6)


def test_case3_constant_channels_origin():
    region = case3_region(E3, GridSpec(1, 1, 1, 1, 1))
    assert region.frontier == [(0.0, 0.0)]


def test_case3_symmetric_e3_is_origin_with_rejections():
    region = case3_region(E3, GridSpec(2, 1, 1, 1, 1))
    assert region.frontier == [(0.0, 0.0)]
    m = region.meta
    assert m["evaluated"] == m["chain_rejected"] + m["consequence_rejected"] + len(region.rates)
    assert m["bound"] == "lower"


def test_case3_formula_positive_for_asymmetric_legs():
    # the case formula at S = X3, T constant: I(X3;X1|U) - I(X3;X2|U)
    base = broadcast_source("X3", 0.1, 0.4)
    c3 = 2
    mat = np.zeros((2, 2, 1))
    mat[0, 0, 0] = mat[1, 1, 0] = 1.0
    ch_st = Channel(("X3",), (VariableId("S", 2), VariableId("T", 1)), mat)
    ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((2, 1, 1)))
    aux = AuxSystem.backward(base, ch_st, ch_u)
    value = (cmi(aux.full, ("S",), ("X1",), ("U",))
             - cmi(aux.full, ("S",), ("X2",), ("U",)))
    # oracle: I(X3;X1) - I(X3;X2) = h(0.4) - h(0.1)
    import math
    def h(p):
        return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    assert value == pytest.approx(h(0.4) - h(0.1), abs=1e-12)
    assert value > 0.5
    # symmetric legs kill it
    sym = AuxSystem.backward(E3, ch_st, ch_u)
    sym_value = (cmi(sym.full, ("S",), ("X1",), ("U",))
                 - cmi(sym.full, ("S",), ("X2",), ("U",)))
    assert abs(sym_value) < 1e-12


def test_case3_points_satisfy_backward_outer_chains():
    base = broadcast_source("X3", 0.1, 0.4)
    region = case3_region(base, GridSpec(2, 1, 1, 1, 1))
    # whatever was accepted also satisfies the two outer-bound chains,
    # because they are a subset of the case's rejection conditions
    assert region.meta["chain_rejected"] + region.meta["consequence_rejected"] \
        + len(region.rates) == region.meta["evaluated"]


# ---------------------------------------------------------------------------
# Coincidence measurement
# ---------------------------------------------------------------------------

def region_of(*csets):
    rates = rows_of(csets)
    return RateRegion(rates, pareto_frontier(rates))


def test_coincidence_identical_regions():
    r = region_of(RateConstraintSet(0.3, 0.2, INF))
    ok, gap = verify_coincidence(r, r, 1e-9)
    assert ok and gap == 0.0


def test_coincidence_origin_vs_square():
    inner = region_of(RateConstraintSet(0.0, 0.0, INF))
    outer = region_of(RateConstraintSet(0.14, 0.14, INF))
    ok, gap = verify_coincidence(inner, outer, 1e-9)
    assert not ok
    assert gap == pytest.approx(0.14, abs=1e-12)


def test_coincidence_e6_case1_vs_explicit_outer():
    inner = enumerate_region(E6, "backward-inner", GridSpec(1, 2, 1, 1, 1))
    outer = region_of(explicit_outer(E6))
    ok, gap = verify_coincidence(inner, outer, 1e-9)
    assert ok
    assert gap <= 1e-12


# ---------------------------------------------------------------------------
# Chain-split inequality
# ---------------------------------------------------------------------------

def constant_kf_joint(n):
    names = ["K", "F1", "F2"] + [f"X2_{i}" for i in range(1, n + 1)] \
        + [f"X3_{i}" for i in range(1, n + 1)]
    cards = [1, 1, 1] + [2] * (2 * n)
    table = np.full(cards, 1.0 / 2 ** (2 * n))
    return JointPmf(tuple(VariableId(nm, c) for nm, c in zip(names, cards)), table)


def test_lemma3_constants_both_sides_zero():
    ok, slack = lemma3_check(constant_kf_joint(2), 2)
    assert ok and slack == pytest.approx(0.0, abs=1e-12)


def test_lemma3_n1_always_tight(rng):
    for _ in range(25):
        joint = random_lemma3_joint(rng, 1)
        ok, slack = lemma3_check(joint, 1)
        assert ok
        assert abs(slack) <= 1e-10


def test_lemma3_constant_f2_is_tight(rng):
    # with F2 constant the telescoped correction terms vanish identically
    for _ in range(10):
        names = ["K", "F1", "F2", "X2_1", "X2_2", "X3_1", "X3_2"]
        cards = [2, 2, 1, 2, 2, 2, 2]
        flat = rng.dirichlet(np.ones(int(np.prod(cards))))
        joint = JointPmf(tuple(VariableId(nm, c) for nm, c in zip(names, cards)),
                         flat.reshape(cards))
        ok, slack = lemma3_check(joint, 2)
        assert ok
        assert abs(slack) <= 1e-10


def test_lemma3_random_fuzz_matches_telescoped_form(rng):
    worst = np.inf
    for _ in range(150):
        joint = random_lemma3_joint(rng, 2)
        ok, slack = lemma3_check(joint, 2)
        assert ok
        assert slack == pytest.approx(telescoped_slack(joint, 2), abs=1e-9)
        worst = min(worst, slack)
    assert worst >= -1e-10


def test_lemma3_n3_holds(rng):
    for _ in range(15):
        joint = random_lemma3_joint(rng, 3)
        ok, slack = lemma3_check(joint, 3)
        assert ok and slack >= -1e-10


def test_lemma3_missing_variables_rejected():
    with pytest.raises(Exception):
        lemma3_check(constant_kf_joint(1), 2)


# ---------------------------------------------------------------------------
# Sandwich property on random chains
# ---------------------------------------------------------------------------

def test_case_regions_sandwiched_on_random_chains(rng):
    for _ in range(5):
        base = random_chain(rng, order=("X1", "X2", "X3"))
        seg = case1_region(base)
        outer = explicit_outer(base)
        # closed form sits inside the explicit outer rectangle
        (r1, r2) = seg.frontier[0]
        assert RateRegion.of(outer).contains(r1, r2, tol=1e-9)
        # and the enumerated backward inner region reaches it
        inner = enumerate_region(base, "backward-inner",
                                 GridSpec(1, base.variable("X3").cardinality, 1, 1, 1))
        gap = region_gap(seg.frontier, inner.rates)
        assert gap <= 1e-9
    for _ in range(5):
        base = random_chain(rng, order=("X1", "X3", "X2"))
        rect = case2_region(base)
        inner = enumerate_region(
            base, "forward-inner",
            GridSpec(base.variable("X1").cardinality, base.variable("X2").cardinality, 1, 1, 1))
        gap = region_gap(rect.frontier, inner.rates)
        assert gap <= 1e-9


def test_case3_matches_oracle_formulas(rng):
    from itertools import product

    from skregion.region import lattice_channels
    from conftest import lattice_channel_objects, oracle_cmi

    grid = GridSpec(2, 2, 2, 1, 1)
    tol = 1e-9
    s, t, u = VariableId("S", 2), VariableId("T", 2), VariableId("U", 2)
    layers = [lattice_channel_objects(lattice_channels(("X3",), (2,), (s, t), 1)),
              lattice_channel_objects(lattice_channels(("S", "T"), (2, 2), (u,), 1))]
    for _ in range(2):
        base = random_chain(rng, order=("X1", "X3", "X2"))
        chain_rejected = consequence_rejected = 0
        expected = []
        for ch_st, ch_u in product(*layers):
            p = base.extend(ch_st).extend(ch_u)
            if max(oracle_cmi(p, ["U"], ["X3"], ["S"]), oracle_cmi(p, ["U"], ["X3"], ["T"]),
                   oracle_cmi(p, ["S"], ["X2", "T"], ["X1"]),
                   oracle_cmi(p, ["S", "X1"], ["T"], ["X2"])) > tol:
                chain_rejected += 1
                continue
            if max(oracle_cmi(p, ["S"], ["T"], ["X1", "U"]),
                   oracle_cmi(p, ["S"], ["T"], ["X2", "U"])) > tol:
                consequence_rejected += 1
                continue
            expected.append((
                max(0.0, oracle_cmi(p, ["S"], ["X1"], ["U"]) - oracle_cmi(p, ["S"], ["X2"], ["U"])),
                max(0.0, oracle_cmi(p, ["T"], ["X2"], ["U"]) - oracle_cmi(p, ["T"], ["X1"], ["U"])),
            ))
        region = case3_region(base, grid, tol)
        assert region.meta["evaluated"] == len(layers[0]) * len(layers[1])
        assert region.meta["chain_rejected"] == chain_rejected
        assert region.meta["consequence_rejected"] == consequence_rejected
        assert len(region.rates) == len(expected)
        for (r1_max, r2_max, _), (r1, r2) in zip(region.rates.tolist(), expected):
            assert r1_max == pytest.approx(r1, abs=1e-12)
            assert r2_max == pytest.approx(r2, abs=1e-12)

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skregion.cases import case1_region, region_gap, verify_coincidence
from skregion.pmf import BudgetExceededError, Channel, PmfError, VariableId
from skregion.region import (
    INF,
    AuxSystem,
    FamilyError,
    GridSpec,
    RateConstraintSet,
    _kept_lattice,
    backward_inner_point,
    backward_outer_point,
    single_key_capacity,
    enumerate_region,
    explicit_outer,
    forward_inner_point,
    forward_outer_point,
    lattice_channels,
    lattice_rows,
    pareto_frontier,
    upper_concave_envelope,
)
from skregion.sources import (
    broadcast_source,
    identity_source,
    independent_source,
    random_pmf,
    triple_from_table,
    xor_source,
)
from skregion.tolerances import ENTROPY_ROUNDOFF, FLAT_TOL, SAME_R1_TOL
from conftest import (
    as_rates,
    lattice_channel_objects,
    oracle_candidates,
    oracle_cmi,
    oracle_contains,
    oracle_max_r1,
    oracle_maximal_sets,
    oracle_pareto_frontier,
    oracle_r2_at,
    oracle_region_gap,
)

E3 = broadcast_source("X3", 0.25, 0.25)
E6 = broadcast_source("X2", 0.25, 0.25)
CMI_VALUE = 0.143155878465832  # I(X1;X3|X2) for the quarter-noise broadcast pair


def forward_identity_aux(base, family="forward-inner"):
    c1 = base.variable("X1").cardinality
    c2 = base.variable("X2").cardinality
    return AuxSystem.forward(
        base,
        Channel.identity("X1", c1, "S"),
        Channel.identity("X2", c2, "T"),
        Channel.constant("U", "S", c1),
        Channel.constant("V", "T", c2),
        family=family,
    )


def forward_constant_aux(base, family="forward-inner"):
    c1 = base.variable("X1").cardinality
    c2 = base.variable("X2").cardinality
    return AuxSystem.forward(
        base,
        Channel.constant("S", "X1", c1),
        Channel.constant("T", "X2", c2),
        Channel.constant("U", "S", 1),
        Channel.constant("V", "T", 1),
        family=family,
    )


def backward_aux(base, s_is_x3: bool, t_is_x3: bool, family="backward-inner"):
    c3 = base.variable("X3").cardinality
    cs = c3 if s_is_x3 else 1
    ct = c3 if t_is_x3 else 1
    mat = np.zeros((c3, cs, ct))
    for x in range(c3):
        mat[x, x if s_is_x3 else 0, x if t_is_x3 else 0] = 1.0
    ch_st = Channel(("X3",), (VariableId("S", cs), VariableId("T", ct)), mat)
    ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((cs, ct, 1)))
    return AuxSystem.backward(base, ch_st, ch_u, family=family)


# ---------------------------------------------------------------------------
# Point evaluators
# ---------------------------------------------------------------------------

def test_forward_inner_xor_identity_exact_ones():
    pt = forward_inner_point(forward_identity_aux(xor_source()))
    assert pt.r1_max == 1.0
    assert pt.r2_max == 1.0
    assert pt.sum_max == 1.0


def test_forward_inner_constant_channels_zero():
    pt = forward_inner_point(forward_constant_aux(xor_source()))
    assert (pt.r1_max, pt.r2_max, pt.sum_max) == (0.0, 0.0, 0.0)


def test_forward_inner_independent_sources_zero():
    pt = forward_inner_point(forward_identity_aux(independent_source()))
    assert pt.r1_max == 0.0 and pt.r2_max == 0.0 and pt.sum_max == 0.0


def test_forward_inner_rejects_wrong_family():
    aux = forward_identity_aux(xor_source(), family="forward-outer")
    with pytest.raises(FamilyError):
        forward_inner_point(aux)


def test_forward_outer_xor_identity():
    pt = forward_outer_point(forward_identity_aux(xor_source(), "forward-outer"))
    assert pt.r1_max == pytest.approx(1.0, abs=1e-12)
    assert pt.r2_max == pytest.approx(1.0, abs=1e-12)
    assert pt.sum_max == INF


def test_forward_outer_constant_aux_zero():
    pt = forward_outer_point(forward_constant_aux(xor_source(), "forward-outer"))
    assert pt.r1_max == 0.0 and pt.r2_max == 0.0


def test_forward_outer_e3_matches_enumeration_oracle():
    pt = forward_outer_point(forward_identity_aux(E3, "forward-outer"))
    expected = oracle_cmi(E3, ["X1"], ["X2", "X3"]) - oracle_cmi(E3, ["X1"], ["X2"])
    assert pt.r1_max == pytest.approx(expected, abs=1e-12)


def test_explicit_outer_identical_bit():
    vs = (VariableId("X1", 2), VariableId("X2", 2), VariableId("X3", 2))
    table = np.zeros((2, 2, 2))
    table[0, 0, 0] = table[1, 1, 1] = 0.5
    from skregion.pmf import JointPmf
    pt = explicit_outer(JointPmf(vs, table))
    assert pt.r1_max == 0.0 and pt.r2_max == 0.0 and pt.sum_max == INF


def test_explicit_outer_xor():
    pt = explicit_outer(xor_source())
    assert pt.r1_max == pytest.approx(1.0) and pt.r2_max == pytest.approx(1.0)


def test_explicit_outer_e3_symmetric_value():
    pt = explicit_outer(E3)
    assert pt.r1_max == pytest.approx(0.143156, abs=1e-6)
    assert pt.r1_max == pytest.approx(pt.r2_max, abs=1e-12)


def test_backward_inner_e6_deterministic_t():
    pt = backward_inner_point(backward_aux(E6, s_is_x3=False, t_is_x3=True))
    assert pt.r2_max == pytest.approx(CMI_VALUE, abs=1e-9)
    assert pt.r1_max == 0.0
    assert pt.sum_max == INF


def test_backward_inner_xor_s_deterministic():
    pt = backward_inner_point(backward_aux(xor_source(), s_is_x3=True, t_is_x3=False))
    assert pt.r1_max == 0.0  # I(X3;X1) and I(X3;X2) are both zero


def test_backward_inner_constant_channels():
    pt = backward_inner_point(backward_aux(E6, False, False))
    assert pt.r1_max == 0.0 and pt.r2_max == 0.0


def test_backward_outer_e6_both_x3():
    pt = backward_outer_point(backward_aux(E6, True, True, "backward-outer"))
    assert pt.r1_max == 0.0  # second min-argument vanishes when S = T


def test_backward_outer_constant_s():
    pt = backward_outer_point(backward_aux(E6, False, True, "backward-outer"))
    assert pt.r1_max == 0.0


def test_backward_outer_e3_copies():
    pt = backward_outer_point(backward_aux(E3, True, True, "backward-outer"))
    assert pt.r1_max == 0.0 and pt.r2_max == 0.0


def test_backward_outer_markov_rejection():
    # S constant, T = X3, U = T: then I(U; X3 | S) = H(X3) > 0, breaking U - S - X3
    mat = np.zeros((2, 1, 2))
    mat[0, 0, 0] = mat[1, 0, 1] = 1.0
    ch_st = Channel(("X3",), (VariableId("S", 1), VariableId("T", 2)), mat)
    u = np.zeros((1, 2, 2))
    u[0, 0, 0] = u[0, 1, 1] = 1.0
    aux = AuxSystem.backward(E6, ch_st, Channel(("S", "T"), (VariableId("U", 2),), u),
                             family="backward-outer")
    with pytest.raises(FamilyError):
        backward_outer_point(aux)
    with pytest.raises(FamilyError):
        aux.validate()


def test_aux_validate_detects_corruption():
    aux = forward_identity_aux(E3)
    aux.validate()
    shape = aux.full.table.shape
    flat = np.full(np.prod(shape), 1.0 / np.prod(shape)).reshape(shape)
    from skregion.pmf import JointPmf
    tampered = AuxSystem(aux.base, aux.channels, aux.family,
                         JointPmf(aux.full.variables, flat))
    with pytest.raises(FamilyError):
        tampered.validate()


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

def test_enumerate_xor_forward_inner_q1():
    region = enumerate_region(xor_source(), "forward-inner", GridSpec(2, 2, 1, 1, 1))
    assert (1.0, 0.0) in region.frontier
    assert (0.0, 1.0) in region.frontier
    for r1_max, r2_max, sum_max in region.rates.tolist():
        achievable_sum = min(r1_max + r2_max, sum_max)
        assert achievable_sum <= 1.0 + 1e-9
    assert region.meta["evaluated"] == 16


def test_enumerate_independent_sources_trivial():
    for family in ("forward-inner", "backward-inner"):
        region = enumerate_region(independent_source(), family, GridSpec(2, 2, 1, 1, 1))
        assert region.frontier == [(0.0, 0.0)]


def test_enumerate_e6_backward_inner_deterministic_point():
    region = enumerate_region(E6, "backward-inner", GridSpec(1, 2, 1, 1, 1))
    max_r2 = max(r2 for _, r2 in region.frontier)
    assert max_r2 == pytest.approx(CMI_VALUE, abs=1e-9)


def test_enumerate_budget_exceeded_reports_points(monkeypatch):
    monkeypatch.setenv("SKREGION_BUDGET", "1000")
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_region(E3, "forward-inner", GridSpec(3, 3, 3, 3, 6))
    assert "points" in str(exc.value)


def test_enumerate_deterministic_across_workers():
    regions = [
        enumerate_region(E3, "forward-inner", GridSpec(2, 2, 1, 1, 1), workers=w)
        for w in (1, 2, 8)
    ]
    ref = regions[0].rates.tolist()
    for region in regions[1:]:
        assert region.rates.tolist() == ref
        assert region.frontier == regions[0].frontier


def test_grid_refinement_never_shrinks(rng):
    base = random_pmf(rng, (2, 2, 2))
    r1 = enumerate_region(base, "forward-inner", GridSpec(2, 2, 1, 1, 1))
    r2 = enumerate_region(base, "forward-inner", GridSpec(2, 2, 1, 1, 2))
    for x, y in r1.frontier:
        assert r2.contains(x, y, tol=1e-12)


def test_backward_outer_rejection_counted():
    region = enumerate_region(E6, "backward-outer", GridSpec(2, 1, 2, 1, 1))
    assert region.meta["evaluated"] == region.meta["rejected"] + len(region.rates)
    # accepted points satisfy the chains by construction of the evaluator
    assert (region.rates[:, 0] >= 0).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_every_family_inside_explicit_outer(seed, sparse):
    # every lattice point of the four families on a random 2x2x2 source,
    # Dirichlet(1/2) or with zero cells, stays inside the explicit rectangle;
    # the U and V layers include the constant channels, so these grids hold
    # the points of the same grids with U and V trivial
    rng = np.random.default_rng(seed)
    if sparse:
        weights = rng.integers(0, 4, 8).astype(float)
        weights[rng.integers(8)] += 1.0
        table = weights / weights.sum()
    else:
        table = rng.dirichlet(np.full(8, 0.5))
    base = triple_from_table(table.reshape(2, 2, 2))
    outer = explicit_outer(base)
    for family, grid in (("forward-inner", GridSpec(2, 2, 2, 2, 1)),
                         ("forward-outer", GridSpec(2, 2, 2, 2, 1)),
                         ("backward-inner", GridSpec(2, 2, 2, 1, 1)),
                         ("backward-outer", GridSpec(2, 2, 2, 1, 1))):
        for c in _kept_lattice(base, family, grid)[1].rates.tolist():
            assert c[0] <= outer.r1_max + ENTROPY_ROUNDOFF, (family, c)
            assert c[1] <= outer.r2_max + ENTROPY_ROUNDOFF, (family, c)


# ---------------------------------------------------------------------------
# Single-key degeneration
# ---------------------------------------------------------------------------

def test_single_key_forward_e3_value():
    value = single_key_capacity(E3, "forward", GridSpec(2, 1, 1, 1, 1))
    # achieved at S = X1: I(X1;X3) - I(X1;X2)
    expected = oracle_cmi(E3, ["X1"], ["X3"]) - oracle_cmi(E3, ["X1"], ["X2"])
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.143156, abs=1e-6)


def test_single_key_independent_zero():
    assert single_key_capacity(independent_source(), "forward", GridSpec(2, 1, 1, 1, 1)) == 0.0


def test_single_key_identity_pair_one():
    assert single_key_capacity(identity_source(), "forward",
                              GridSpec(2, 1, 1, 1, 1)) == pytest.approx(1.0)


def test_single_key_backward_uses_x3():
    value = single_key_capacity(E6, "backward", GridSpec(2, 1, 1, 1, 1))
    # S = X3 gives I(X3;X1) - I(X3;X2) < 0 for this chain: clamped to zero
    assert value == 0.0


def test_single_key_matches_region_projection(rng):
    grid = GridSpec(2, 1, 2, 1, 1)
    for _ in range(5):
        base = random_pmf(rng, (2, 2, 2))
        direct = single_key_capacity(base, "forward", grid)
        region = enumerate_region(base, "forward-inner", grid)
        projected = region.rates[:, 0].max()
        assert abs(direct - projected) < 1e-12


def test_degeneration_formula_matches_point_evaluator(rng):
    # with T, V constant the inner point's r1 equals the single-key expression
    from skregion.pmf import cond_mutual_information as cmi
    for _ in range(5):
        base = random_pmf(rng, (2, 2, 2))
        rows = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        urows = np.stack([rng.dirichlet(np.ones(2)) for _ in range(2)])
        aux = AuxSystem.forward(
            base,
            Channel(("X1",), (VariableId("S", 2),), rows),
            Channel.constant("T", "X2", 2),
            Channel(("S",), (VariableId("U", 2),), urows),
            Channel.constant("V", "T", 1),
        )
        pt = forward_inner_point(aux)
        expected = max(0.0, cmi(aux.full, ("S",), ("X3",), ("U",))
                       - cmi(aux.full, ("S",), ("X2",), ("U",)))
        assert pt.r1_max == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Pareto frontier
# ---------------------------------------------------------------------------

def test_pareto_two_degenerate_segments():
    front = pareto_frontier(as_rates([(1, 0, 1), (0, 1, 1)]))
    assert front[0] == (0.0, 1.0)
    assert front[-1] == (1.0, 0.0)


def test_pareto_single_sum_constrained_set():
    front = pareto_frontier(as_rates([(1, 1, 1)]))
    assert front == [(0.0, 1.0), (1.0, 0.0)]


def test_pareto_rectangle_corner():
    front = pareto_frontier(as_rates([(1, 1, INF)]))
    assert front == [(1.0, 1.0)]


def test_pareto_empty_is_origin():
    assert pareto_frontier(as_rates([])) == [(0.0, 0.0)]


def test_pareto_monotone_and_maximal():
    sets = [(1.0, 5.0, INF), (3.0, 4.0, 6.0)]
    front = pareto_frontier(as_rates(sets))
    xs = [x for x, _ in front]
    ys = [y for _, y in front]
    assert xs == sorted(xs)
    assert all(ys[i] >= ys[i + 1] for i in range(len(ys) - 1))
    for i, (x, y) in enumerate(front):
        for j, (u, v) in enumerate(front):
            if i != j:
                assert not (u >= x and v >= y and (u > x or v > y))
    assert (1.0, 5.0) in front
    assert (3.0, 3.0) in front


_RATES = st.one_of(st.floats(0.0, 3.0), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
_CSETS = st.lists(st.tuples(_RATES, _RATES, st.one_of(_RATES, st.just(INF))), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_CSETS)
def test_pareto_frontier_properties(sets):
    """Vertices are sorted and achievable, and no point of the union on the
    candidate grid (every corner abscissa of every set, the cross terms
    sum_max - r2_max of any two sets, and the vertices) dominates one."""
    front = pareto_frontier(as_rates(sets))
    xs = [x for x, _ in front]
    ys = [y for _, y in front]
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a >= b for a, b in zip(ys, ys[1:]))
    if not sets:
        assert front == [(0.0, 0.0)]
        return
    for x, y in front:
        assert any(oracle_contains(c, x, y, 1e-12) for c in sets), (x, y)
    grid = {0.0, *xs}
    for c in sets:
        grid.add(oracle_max_r1(c))
        grid.update(o[2] - c[1] for o in sets if o[2] < INF)
    union = [(g, max(oracle_r2_at(c, g) for c in sets)) for g in grid if g >= 0.0]
    for x, y in front:
        for u, v in union:
            assert not (u >= x and v >= y and (u > x + 1e-12 or v > y + 1e-12)), \
                ((x, y), (u, v))


_TIED_RATES = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0]), st.floats(-1.0, 3.0))
_TIED_UNIONS = st.lists(st.tuples(_TIED_RATES, _TIED_RATES, st.one_of(_TIED_RATES, st.just(INF))),
                        max_size=40)


@settings(max_examples=300, deadline=None)
@given(_TIED_UNIONS, st.sampled_from([1, 2, 1024]))
def test_maximal_sets_match_sequential_prune(sets, block):
    from skregion import region as region_module

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_module, "_PRUNE_BLOCK", block)
        got = [tuple(row) for row in region_module._maximal_sets(as_rates(sets)).tolist()]
    assert len(set(got)) == len(got)
    assert set(got) == oracle_maximal_sets(sets)


def _staircase(jitter, n=48) -> list:
    """n sets that no other dominates (R1 rising, R2 falling), each with a
    sum bound just above 1: with distinct jitters, their corners sum_max -
    r2_max give more than a thousand distinct candidate abscissae."""
    return [(i / n, 1.0 - i / n, 1.0 + u) for i, u in enumerate(jitter)]


_STAIRCASES = st.lists(st.floats(0.0, 0.2), min_size=48, max_size=48).map(_staircase)
# the tied rates plus 1 - FLAT_TOL and 0.5 + SAME_R1_TOL, which put two
# heights or two abscissae at the edge of the flat-run and merge tolerances
_EDGE_RATES = st.one_of(_TIED_RATES, st.sampled_from([1.0 - FLAT_TOL, 0.5 + SAME_R1_TOL]))
_EDGE_UNIONS = st.lists(st.tuples(_EDGE_RATES, _EDGE_RATES, st.one_of(_EDGE_RATES, st.just(INF))),
                        max_size=40)
_PAIRS = st.lists(st.tuples(_EDGE_RATES, _EDGE_RATES), min_size=1, max_size=6)


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(_EDGE_UNIONS, _EDGE_UNIONS, _PAIRS, st.sampled_from([1, 2, 1024]))
def test_frontier_and_gap_match_the_set_by_set_oracle(rows, inner, pairs, block):
    """`pareto_frontier` and `region_gap` over rate arrays equal, bit for
    bit, the sweep and the gap computed one set at a time in Python, for
    any candidate chunk size; the gap also from arbitrary probe pairs."""
    from skregion import region as region_module

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_module, "_PRUNE_BLOCK", block)
        front = pareto_frontier(as_rates(rows))
    assert np.array_equal(_bits(front), _bits(oracle_pareto_frontier(rows)))
    for frontier in (front, pairs):
        assert _bits(region_gap(frontier, as_rates(inner))) == \
            _bits(oracle_region_gap(frontier, inner))


@settings(max_examples=20, deadline=None)
@given(_STAIRCASES, _EDGE_UNIONS, st.sampled_from([1, 2, 1024]))
def test_staircase_frontier_and_gap_match_the_oracle(rows, inner, block):
    """The same on unions of 48 maximal sets, whose candidates span many
    chunks of one or two and, for distinct sum bounds, more than 1024."""
    from skregion import region as region_module

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(region_module, "_PRUNE_BLOCK", block)
        front = pareto_frontier(as_rates(rows))
    assert np.array_equal(_bits(front), _bits(oracle_pareto_frontier(rows)))
    for outer, union in ((front, inner), (oracle_pareto_frontier(inner), rows)):
        assert _bits(region_gap(outer, as_rates(union))) == _bits(oracle_region_gap(outer, union))


def test_staircase_crosses_a_candidate_chunk():
    rows = _staircase(np.random.default_rng(3).uniform(0.0, 0.2, 48).tolist())
    assert len(oracle_candidates(oracle_maximal_sets(rows))) > 1024
    front = pareto_frontier(as_rates(rows))
    assert np.array_equal(_bits(front), _bits(oracle_pareto_frontier(rows)))
    assert len(front) > 2


def test_hull_is_concave_majorant():
    pts = [(0.0, 1.0), (0.5, 0.2), (1.0, 0.0)]
    hull = upper_concave_envelope(pts)
    assert hull[0] == (0.0, 1.0) and hull[-1] == (1.0, 0.0)
    assert (0.5, 0.2) not in hull


# ---------------------------------------------------------------------------
# Batched lattice evaluation
# ---------------------------------------------------------------------------

def _region_snapshot(region):
    kept = None if region.lattice is None else region.lattice.kept.tolist()
    return region.rates.tolist(), kept, region.meta, region.frontier


@pytest.mark.parametrize("family,base,grid", [
    ("forward-inner", E3, GridSpec(2, 2, 2, 1, 1)),
    ("forward-outer", E3, GridSpec(2, 2, 1, 2, 1)),
    ("backward-inner", random_pmf(np.random.default_rng(1), (2, 2, 2)), GridSpec(2, 2, 2, 1, 1)),
    ("backward-outer", E6, GridSpec(2, 1, 2, 1, 1)),
])
def test_enumerate_independent_of_chunk_boundaries(monkeypatch, family, base, grid):
    from skregion import region as region_module

    default = _region_snapshot(enumerate_region(base, family, grid))
    entries = base.table.size * grid.card_s * grid.card_t * grid.card_u
    if family.startswith("forward"):
        entries *= grid.card_v
    # one point per chunk, then 3-point chunks, which end inside every layer
    for cap in (1, 3 * entries):
        monkeypatch.setattr(region_module, "_CHUNK_ENTRIES", cap)
        assert _region_snapshot(enumerate_region(base, family, grid)) == default


def test_single_key_and_case3_independent_of_chunk_boundaries(monkeypatch):
    from skregion import region as region_module
    from skregion.cases import case3_region

    grid = GridSpec(2, 2, 2, 1, 1)
    default = ([single_key_capacity(E3, d, grid) for d in ("forward", "backward")],
               _region_snapshot(case3_region(E3, grid)))
    for cap in (1, 3 * 8 * 2 * 2 * 2):
        monkeypatch.setattr(region_module, "_CHUNK_ENTRIES", cap)
        got = ([single_key_capacity(E3, d, grid) for d in ("forward", "backward")],
               _region_snapshot(case3_region(E3, grid)))
        assert got == default


def _lattice_joints(base, layers):
    """(channels, full joint) per lattice point, in lexicographic order, by
    extend through one `Channel` per row of each layer's stack."""
    for chs in product(*map(lattice_channel_objects, layers)):
        full = base
        for ch in chs:
            full = full.extend(ch)
        yield chs, full


def _oracle_family(family, p):
    def cmi(a, b, c=()):
        return oracle_cmi(p, a, b, c)

    if family == "forward-inner":
        leak1 = cmi(["S"], ["X2"], ["T", "U"])
        leak2 = cmi(["T"], ["X1"], ["S", "V"])
        return (cmi(["S"], ["X3"], ["T", "U"]) - leak1,
                cmi(["T"], ["X3"], ["S", "V"]) - leak2,
                cmi(["S", "T"], ["X3"], ["U", "V"]) - leak1 - leak2
                - cmi(["S"], ["T"], ["U", "V"]))
    if family == "forward-outer":
        return (cmi(["S"], ["T", "X3"], ["U"]) - cmi(["S"], ["X2"], ["U"]),
                cmi(["T"], ["S", "X3"], ["V"]) - cmi(["T"], ["X1"], ["V"]), INF)
    if family == "backward-inner":
        return (cmi(["S"], ["X1"], ["U"]) - cmi(["S"], ["X2", "T"], ["U"]),
                cmi(["T"], ["X2"], ["U"]) - cmi(["T"], ["X1", "S"], ["U"]), INF)
    return (min(cmi(["S"], ["X1"], ["U"]) - cmi(["S"], ["X2"], ["U"]),
                cmi(["S"], ["X1"], ["T", "U"]) - cmi(["S"], ["X2"], ["T", "U"])),
            min(cmi(["T"], ["X2"], ["U"]) - cmi(["T"], ["X1"], ["U"]),
                cmi(["T"], ["X2"], ["S", "U"]) - cmi(["T"], ["X1"], ["S", "U"])), INF)


@pytest.mark.parametrize("family", ["forward-inner", "forward-outer",
                                    "backward-inner", "backward-outer"])
def test_enumerate_matches_oracle_formulas(rng, family):
    from skregion.region import _family_layers, _lattice_layers

    grid = GridSpec(2, 2, 2, 1, 1)
    for _ in range(2):
        base = random_pmf(rng, (2, 2, 2))
        region = enumerate_region(base, family, grid)
        expected = []
        for chs, p in _lattice_joints(
                base, _lattice_layers(base, _family_layers(family, grid), grid.q)):
            if family == "backward-outer" and max(
                    oracle_cmi(p, ["U"], ["X3"], [mid]) for mid in ("S", "T")) > 1e-9:
                continue
            expected.append(([c.matrix.tolist() for c in chs], _oracle_family(family, p)))
        assert region.meta["evaluated"] - region.meta["rejected"] == len(expected)
        lattice = region.lattice
        assert len(region.rates) == len(expected)
        picked = zip(*(layer.matrices[pick].tolist()
                       for layer, pick in zip(lattice.layers, lattice.picks())))
        for row, chosen, (matrices, rates) in zip(region.rates.tolist(), picked, expected):
            assert list(chosen) == matrices
            for value, want in zip(row, rates):
                assert value == pytest.approx(max(0.0, want), abs=1e-12)


_POINT_EVALUATORS = {"forward-inner": forward_inner_point, "forward-outer": forward_outer_point,
                     "backward-inner": backward_inner_point,
                     "backward-outer": backward_outer_point}


@pytest.mark.parametrize("family", list(_POINT_EVALUATORS))
@pytest.mark.parametrize("base", [E3, random_pmf(np.random.default_rng(5), (2, 2, 2))],
                         ids=["e3", "random"])
def test_lattice_point_equals_its_point_evaluator_bit_for_bit(family, base):
    # the batched lattice and the batch-of-one evaluator of an `AuxSystem`
    # built from the same channels agree to the last bit, kept or rejected
    grid = GridSpec(2, 2, 2, 2, 1)
    evaluated, lattice = _kept_lattice(base, family, grid)
    layers, csets = lattice.layers, [RateConstraintSet(*row) for row in lattice.rates.tolist()]
    got = dict(zip(lattice.kept.tolist(), csets))
    build = AuxSystem.forward if family.startswith("forward") else AuxSystem.backward
    n = 0
    for i, chs in enumerate(product(*map(lattice_channel_objects, layers))):
        aux = build(base, *chs, family=family)
        if i not in got:
            with pytest.raises(FamilyError, match="chain"):
                _POINT_EVALUATORS[family](aux)
            continue
        want = _POINT_EVALUATORS[family](aux)
        bits = [np.array([c.r1_max, c.r2_max, c.sum_max]).view(np.uint64)
                for c in (got[i], want)]
        assert np.array_equal(*bits), (i, got[i], want)
        n += 1
    assert evaluated == i + 1 and n == len(csets) > 0


def test_rate_readers_read_the_lattice_rows():
    """`RateRegion.rates` and `contains`, `verify_coincidence` and
    `single_key_capacity` read a lattice region's rate rows."""
    inner = enumerate_region(E6, "backward-inner", GridSpec(1, 2, 1, 1, 1))
    assert inner.rates is inner.lattice.rates
    x, y = inner.frontier[-1]
    assert inner.contains(x, y, tol=1e-12) and not inner.contains(x + 1e-3, y, tol=1e-12)
    assert verify_coincidence(inner, case1_region(E6), 1e-9)[0]
    assert single_key_capacity(E6, "backward", GridSpec(2, 1, 1, 1, 1)) == 0.0


def test_single_key_matches_oracle_formula(rng):
    grid = GridSpec(3, 1, 2, 1, 1)
    s, u = VariableId("S", 3), VariableId("U", 2)
    for _ in range(2):
        base = random_pmf(rng, (2, 2, 2))
        for direction, src, target in (("forward", "X1", "X3"), ("backward", "X3", "X1")):
            layers = [lattice_channels((src,), (2,), (s,), 1),
                      lattice_channels(("S",), (3,), (u,), 1)]
            want = max(max(0.0, oracle_cmi(p, ["S"], [target], ["U"])
                           - oracle_cmi(p, ["S"], ["X2"], ["U"]))
                       for _, p in _lattice_joints(base, layers))
            got = single_key_capacity(base, direction, grid)
            assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# Stacked lattice layers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, q", [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (4, 5)])
def test_lattice_rows_are_the_ordered_compositions(m, q):
    rows = lattice_rows(m, q)
    assert len(rows) == math.comb(q + m - 1, m - 1)
    parts = []
    for row in rows:
        assert row.dtype == np.float64 and row.shape == (m,)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        parts.append(tuple(round(x * q) for x in row))
        assert np.array_equal(row, np.array(parts[-1], dtype=np.float64) / q)
    assert parts == sorted(c for c in product(range(q + 1), repeat=m) if sum(c) == q)


@pytest.mark.parametrize("m, q", [(0, 1), (2, 0), (-1, 3), (3, -2)])
def test_lattice_rows_reject_empty_rows_and_denominators(m, q):
    with pytest.raises(PmfError):
        lattice_rows(m, q)


@pytest.mark.parametrize("from_cards, to_cards, q", [
    ((2,), (2, 2), 5),  # verify's case-3 layer X3 -> (S, T)
    ((2, 2), (1,), 1),
    ((2, 2), (1,), 2),
    ((3,), (2,), 1),
    ((3,), (2,), 2),
    ((2, 2), (2,), 2),
    ((2,), (3,), 3),
])
def test_lattice_channels_stack_matches_channel_matrices(from_cards, to_cards, q):
    """Row i of a layer's stack is, bit for bit, the matrix of the `Channel`
    built from the i-th `product` combination of `lattice_rows` rows."""
    from_names = tuple(f"A{i}" for i in range(len(from_cards)))
    to_vars = tuple(VariableId(f"B{i}", c) for i, c in enumerate(to_cards))
    layer = lattice_channels(from_names, from_cards, to_vars, q)
    width, cells = math.prod(to_cards), math.prod(from_cards)
    rows = lattice_rows(width, q)
    expected = [
        Channel(from_names, to_vars,
                np.stack([rows[i] for i in combo]).reshape(from_cards + to_cards)).matrix
        for combo in product(range(len(rows)), repeat=cells)
    ]
    assert layer.from_names == from_names and layer.to_vars == to_vars
    assert layer.matrices.dtype == np.float64 and not layer.matrices.flags.writeable
    assert layer.matrices.shape == (len(expected),) + from_cards + to_cards
    # the count `_lattice_layers` charges against the entry budget
    assert len(layer.matrices) == math.comb(q + width - 1, width - 1) ** cells
    for got, want in zip(layer.matrices, expected):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lattice_evaluation_builds_no_channel_objects(monkeypatch):
    """Lattice channels stay rows of their layer's stack: enumerating a
    region, a single-key capacity or the case-3 region constructs no
    `Channel`."""
    from skregion.cases import case3_region

    def refuse(*args, **kwargs):
        raise AssertionError("a Channel was built")

    monkeypatch.setattr(Channel, "__init__", refuse)
    enumerate_region(E3, "backward-outer", GridSpec(2, 2, 2, 1, 1))
    enumerate_region(E3, "forward-inner", GridSpec(2, 2, 2, 1, 1))
    single_key_capacity(E3, "forward", GridSpec(3, 1, 2, 1, 1))
    case3_region(E3, GridSpec(2, 2, 1, 1, 2))

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skregion.cases import case3_region
from skregion.codec import TypicalityParams, build_forward_codebooks
from skregion.pmf import (
    BudgetExceededError,
    Channel,
    JointBatch,
    JointPmf,
    PmfError,
    VariableId,
    _marginal,
    cond_mutual_information as cmi,
    iid_extension,
    is_markov_chain,
    mutual_information,
)
from skregion.region import GridSpec, enumerate_region, single_key_capacity
from skregion.sim import broadcast_forward_preset, exact_report
from skregion.sources import broadcast_source, independent_source, random_pmf, xor_source
from skregion.tolerances import ENTROPY_ROUNDOFF
from conftest import oracle_cmi, oracle_entropy_rows, traced_peak


def uniform_pair():
    vs = (VariableId("X1", 2), VariableId("X2", 2))
    return JointPmf(vs, np.full((2, 2), 0.25))


def test_marginalize_uniform_pair_gives_uniform_bit():
    bit = uniform_pair().marginalize({"X1"})
    assert bit.names == ("X1",)
    np.testing.assert_allclose(bit.table, [0.5, 0.5])


def test_marginalize_keep_all_is_identity():
    p = uniform_pair()
    q = p.marginalize({"X1", "X2"})
    np.testing.assert_array_equal(p.table, q.table)
    assert p.names == q.names


def test_marginalize_e3_pairwise_matches_hand_oracle():
    e3 = broadcast_source("X3", 0.25, 0.25)
    pair = e3.marginalize({"X1", "X2"})
    # hand-summed from the 8-entry table: agree cells 9/32 + 1/32, mixed 3/32 + 3/32
    expected = np.array([[10 / 32, 6 / 32], [6 / 32, 10 / 32]])
    np.testing.assert_allclose(pair.table, expected, atol=1e-15)


def test_marginalize_unknown_name_raises():
    with pytest.raises(PmfError):
        uniform_pair().marginalize({"Z"})


def test_extend_identity_channel_perfectly_correlates():
    bit = JointPmf((VariableId("X", 2),), [0.5, 0.5])
    joint = bit.extend(Channel.identity("X", 2, "S"))
    np.testing.assert_allclose(joint.table, [[0.5, 0.0], [0.0, 0.5]])
    assert mutual_information(joint, ("X",), ("S",)) == pytest.approx(1.0)


def test_extend_constant_channel_adds_unit_axis():
    bit = JointPmf((VariableId("X", 2),), [0.5, 0.5])
    joint = bit.extend(Channel.constant("S", "X", 2))
    assert joint.table.shape == (2, 1)
    np.testing.assert_allclose(joint.marginalize({"X"}).table, bit.table)


def test_extend_bsc_on_e3_gives_uniform_new_marginal():
    e3 = broadcast_source("X3", 0.25, 0.25)
    joint = e3.extend(Channel.bsc("X1", "S", 0.1))
    # matrix-product oracle: X1 is uniform, so S = X1 + Bern(0.1) is uniform
    s = joint.marginalize({"S"})
    np.testing.assert_allclose(s.table, [0.5, 0.5], atol=1e-12)
    # marginal over the original variables unchanged
    np.testing.assert_allclose(
        joint.marginalize({"X1", "X2", "X3"}).table, e3.table, atol=1e-12)


def test_extend_rejects_existing_name_and_bad_shape():
    e3 = broadcast_source("X3", 0.25, 0.25)
    with pytest.raises(PmfError):
        e3.extend(Channel.identity("X1", 2, "X2"))
    bad = Channel((("X1"),), (VariableId("S", 3),), np.full((2, 3), 1 / 3))
    joint = e3.extend(bad)  # fine: cards match
    assert joint.variable("S").cardinality == 3
    with pytest.raises(PmfError):
        # channel conditioned on a 3-letter alphabet applied to a binary one
        e3.extend(Channel(("X1",), (VariableId("S", 2),), np.full((3, 2), 0.5)))


def test_entropy_uniform_bit_is_one():
    assert uniform_pair().entropy({"X1"}) == 1.0


def test_entropy_deterministic_is_zero():
    p = JointPmf((VariableId("X", 3),), [0.0, 1.0, 0.0])
    assert p.entropy() == 0.0


def test_entropy_bern_quarter():
    p = JointPmf((VariableId("X", 2),), [0.75, 0.25])
    assert p.entropy() == pytest.approx(0.811278, abs=1e-6)


def test_entropy_empty_set_is_zero():
    assert uniform_pair().entropy(()) == 0.0


def test_cmi_independent_bits_zero():
    p = independent_source()
    assert cmi(p, ("X1",), ("X2",)) == 0.0


def test_cmi_perfectly_correlated_is_one():
    vs = (VariableId("X1", 2), VariableId("X3", 2))
    p = JointPmf(vs, [[0.5, 0.0], [0.0, 0.5]])
    assert cmi(p, ("X1",), ("X3",)) == pytest.approx(1.0)


def test_cmi_e3_value():
    e3 = broadcast_source("X3", 0.25, 0.25)
    assert cmi(e3, ("X1",), ("X3",), ("X2",)) == pytest.approx(0.143156, abs=1e-6)
    assert cmi(e3, ("X1",), ("X3",), ("X2",)) == pytest.approx(
        oracle_cmi(e3, ["X1"], ["X3"], ["X2"]), abs=1e-12)


def test_cmi_overlapping_sets_rejected():
    with pytest.raises(PmfError):
        cmi(uniform_pair(), ("X1",), ("X1",))


def test_markov_chain_checks():
    ind = independent_source()
    for order in (("X1", "X2", "X3"), ("X2", "X1", "X3"), ("X1", "X3", "X2")):
        assert is_markov_chain(ind, (order[0],), (order[1],), (order[2],))
    e6 = broadcast_source("X2", 0.25, 0.25)
    assert is_markov_chain(e6, ("X1",), ("X2",), ("X3",))
    assert not is_markov_chain(xor_source(), ("X1",), ("X2",), ("X3",))
    # the xor violation is a full bit
    assert cmi(xor_source(), ("X1",), ("X3",), ("X2",)) == pytest.approx(1.0)


def test_iid_extension_identity_at_n1():
    e3 = broadcast_source("X3", 0.25, 0.25)
    assert iid_extension(e3, 1) is e3


def test_iid_extension_uniform_bit():
    bit = JointPmf((VariableId("X", 2),), [0.5, 0.5])
    ext = iid_extension(bit, 3)
    assert ext.variable("X").cardinality == 8
    np.testing.assert_allclose(ext.table, np.full(8, 0.125))


def test_iid_extension_entropy_scales():
    e3 = broadcast_source("X3", 0.25, 0.25)
    ext = iid_extension(e3, 2)
    assert ext.entropy() == pytest.approx(2 * e3.entropy(), abs=1e-9)


def test_iid_extension_budget_refused():
    bit = JointPmf((VariableId("X", 2),), [0.5, 0.5])
    with pytest.raises(BudgetExceededError):
        iid_extension(bit, 40)


def test_chain_rule_on_random_pmfs(rng):
    for _ in range(25):
        cards = rng.integers(2, 4, size=3)
        p = random_pmf(rng, cards)
        h_ab = p.entropy({"X1", "X2"})
        h_a = p.entropy({"X1"})
        h_b_given_a = p.entropy({"X1", "X2"}) - p.entropy({"X1"})
        assert h_ab == pytest.approx(h_a + h_b_given_a, abs=1e-10)
        # entropies and clamped CMIs are nonnegative
        assert p.entropy({"X2"}) >= 0.0
        assert cmi(p, ("X1",), ("X2",), ("X3",)) >= 0.0


def test_marginalize_then_entropy_commutes(rng):
    p = random_pmf(rng, (3, 2, 4))
    sub = p.marginalize({"X1", "X3"})
    assert sub.entropy() == p.entropy({"X1", "X3"})


def test_lemma1_tensorization_iid_equality(rng):
    # H(S^n | X2^n, U^n) on the n-fold extension equals n * H(S | X2, U)
    for _ in range(5):
        cards = rng.integers(2, 4, size=3)
        p = random_pmf(rng, cards, names=("S", "X2", "U"))
        base_cond = p.entropy({"S", "X2", "U"}) - p.entropy({"X2", "U"})
        for n in (2, 3, 4):
            if int(np.prod([c ** n for c in cards])) > (1 << 22):
                continue
            ext = iid_extension(p, n)
            cond = ext.entropy({"S", "X2", "U"}) - ext.entropy({"X2", "U"})
            assert cond == pytest.approx(n * base_cond, abs=1e-9)


def test_normalization_and_negativity_guards():
    vs = (VariableId("X", 2),)
    with pytest.raises(PmfError):
        JointPmf(vs, [0.7, 0.2])
    with pytest.raises(PmfError):
        JointPmf(vs, [1.2, -0.2])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(bad):
    vs = (VariableId("X", 2),)
    with pytest.raises(PmfError):
        JointPmf(vs, [bad, 1.0])
    with pytest.raises(PmfError):
        Channel(("X",), (VariableId("Y", 2),), [[bad, 1.0], [0.5, 0.5]])


def test_entry_budget_env_override(monkeypatch):
    from skregion.pmf import entry_budget
    monkeypatch.setenv("SKREGION_BUDGET", "1024")
    assert entry_budget() == 1024
    monkeypatch.delenv("SKREGION_BUDGET")
    assert entry_budget() == 1 << 26


_E3 = broadcast_source("X3", 0.25, 0.25)
_FWD = broadcast_forward_preset(6, seeds=(1,))


# (budget, call, message fragment): `call` runs under the default budget and
# is refused by one gate, named by the fragment, at the lower `budget` alone
@pytest.mark.parametrize("budget, call, fragment", [
    pytest.param(1000, lambda: enumerate_region(
        _E3, "forward-inner", GridSpec(2, 2, 1, 1, 2)), "points", id="enumerate_region"),
    pytest.param(100, lambda: single_key_capacity(
        _E3, "forward", GridSpec(2, 1, 1, 1, 2)), "points", id="single_key_capacity"),
    pytest.param(100, lambda: case3_region(_E3, GridSpec(2, 2, 1, 1, 1)), "points",
                 id="case3_region"),
    pytest.param(100, lambda: iid_extension(_E3, 3), "iid extension", id="iid_extension"),
    pytest.param(32, lambda: build_forward_codebooks(
        _FWD.aux.full, TypicalityParams(6, 0.75), _FWD.rate1, 0.0, 1), "sequences",
        id="typical_sequences"),
    pytest.param(256, lambda: exact_report(broadcast_forward_preset(4)), "exact view table",
                 id="exact_view_table"),
])
def test_env_budget_alone_refuses_each_gate(budget, call, fragment, monkeypatch):
    monkeypatch.delenv("SKREGION_BUDGET", raising=False)
    call()
    monkeypatch.setenv("SKREGION_BUDGET", str(budget))
    with pytest.raises(BudgetExceededError, match="budget") as exc:
        call()
    assert fragment in str(exc.value)


# Tolerance of the identity property tests below, in bits: each side is a
# signed sum of a few float64 entropies of at most 2^16 terms, whose
# rounding stays many orders of magnitude below it.
IDENTITY_TOL = 1e-9


@st.composite
def joint_tables(draw, names, batch=1):
    """`batch` random joint tables over `names`, cardinalities 1-3, with zero
    cells, laid out as `JointBatch` holds them: (cells..., batch) in C order."""
    cards = draw(st.lists(st.integers(1, 3), min_size=len(names), max_size=len(names)))
    size = batch * int(np.prod(cards))
    weights = draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)
                   .filter(lambda w: all(sum(w[i::batch]) for i in range(batch))))
    tables = np.array(weights, dtype=float).reshape(*cards, batch)
    return tables / tables.sum(axis=tuple(range(len(names))))


@settings(max_examples=60, deadline=None)
@given(joint_tables(("A", "B", "C")), st.integers(1, 4))
def test_iid_extension_entropy_is_n_times_base(tables, n):
    # n i.i.d. copies carry n times the entropy, jointly and per variable
    names = ("A", "B", "C")
    base = JointPmf(tuple(VariableId(v, c) for v, c in zip(names, tables.shape[:-1])),
                    tables[..., 0])
    ext = iid_extension(base, n)
    for subset in ({"A", "B", "C"}, {"A"}, {"B", "C"}):
        assert abs(ext.entropy(subset) - n * base.entropy(subset)) <= IDENTITY_TOL


@st.composite
def channel_matrices(draw, rows):
    """A random `rows` x 1-3 stochastic matrix whose rows may have zero cells."""
    cols = draw(st.integers(1, 3))
    weights = draw(st.lists(st.lists(st.integers(0, 6), min_size=cols, max_size=cols)
                            .filter(any), min_size=rows, max_size=rows))
    mat = np.array(weights, dtype=float)
    return mat / mat.sum(axis=1, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_data_processing_through_extend(data):
    # Y depends on the source through one variable alone, so the MI of any
    # other variable with Y is at most its MI with that one
    names = ("X1", "X2", "X3")
    tables = data.draw(joint_tables(names))
    base = JointPmf(tuple(VariableId(v, c) for v, c in zip(names, tables.shape[:-1])),
                    tables[..., 0])
    src = data.draw(st.sampled_from(names))
    other = data.draw(st.sampled_from([v for v in names if v != src]))
    mat = data.draw(channel_matrices(base.variable(src).cardinality))
    full = base.extend(Channel((src,), (VariableId("Y", mat.shape[1]),), mat))
    assert mutual_information(full, (other,), ("Y",)) <= (
        mutual_information(base, (other,), (src,)) + ENTROPY_ROUNDOFF)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda batch: joint_tables(("A", "B", "C", "D"), batch)))
def test_cmi_chain_rule_through_joint_batch(tables):
    # I(A; B,C | D) = I(A; B | D) + I(A; C | B,D), per table of a batch
    joint = JointBatch(("A", "B", "C", "D"), tables)
    whole = joint.cmi({"A"}, {"B", "C"}, {"D"})
    parts = joint.cmi({"A"}, {"B"}, {"D"}) + joint.cmi({"A"}, {"C"}, {"B", "D"})
    assert np.all(np.abs(whole - parts) <= IDENTITY_TOL)


# `_marginal` reproduces, for each table of a batch, numpy's own addition
# order for `np.sum(table, axis=drop)` (size-1 axes skipped, memory order,
# pairwise trailing run, left-to-right fold).  These tests are its oracle: a
# numpy release that sums in another order fails here before it can move a
# region or verify output.

def _layout(a: np.ndarray) -> list:
    """Strides of the axes of size > 1: the memory order later sums follow."""
    return [stride for stride, n in zip(a.strides, a.shape) if n > 1]


def _stacked(tables: list) -> np.ndarray:
    """`tables` (one shape, one memory order) along a last axis, innermost
    in memory, each keeping its memory order: as `JointBatch` holds them."""
    first = tables[0]
    order = sorted(range(first.ndim), key=lambda a: -first.strides[a])
    t = np.empty([first.shape[a] for a in order] + [len(tables)]).transpose(
        list(np.argsort(order)) + [first.ndim])
    for b, table in enumerate(tables):
        t[..., b] = table
    return t


def _assert_marginal_bits(tables: list) -> None:
    """For every drop set, `_marginal` of the batch of `tables` gives each
    table's `np.sum` bit for bit, and in its layout.

    The tables share one shape and one memory order; the batch holds them
    along a last axis, innermost in memory, as `JointBatch` does.
    """
    first = tables[0]
    t = _stacked(tables)
    for k in range(first.ndim + 1):
        for drop in itertools.combinations(range(first.ndim), k):
            got = np.asarray(_marginal(t, drop))
            for b, table in enumerate(tables):
                want = np.asarray(np.sum(table, axis=drop))
                where = (f"numpy {np.__version__}: shape {table.shape}, strides "
                         f"{table.strides}, batch {len(tables)}, table {b}, drop {drop}")
                assert got[..., b].shape == want.shape, where
                assert np.array_equal(got[..., b].view(np.uint64), want.view(np.uint64)), where
                assert [s // len(tables) for s in _layout(got[..., b])] == _layout(want), where


def _held_table(rng, memory_shape, perm, zero_fraction) -> np.ndarray:
    """Random cells laid out C-order as `memory_shape`, seen with axes `perm`
    and copied by `np.where`, as `JointPmf` copies a transposed input; a
    `zero_fraction` of cells is 0, a third of them signed -0.0."""
    x = rng.random(memory_shape)
    zero = rng.random(memory_shape) < zero_fraction
    x[zero] = np.where(rng.random(memory_shape) < 1 / 3, -0.0, 0.0)[zero]
    view = x.transpose(perm)
    return np.where(view < 0.0, 0.0, view)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.sampled_from([1, 1, 3]),
       st.randoms(use_true_random=False), st.sampled_from([0.0, 0.3, 1.0]))
def test_marginal_matches_numpy_sum_bit_for_bit(cards, batch, random, zero_fraction):
    rng = np.random.default_rng(random.getrandbits(32))
    perm = list(range(len(cards)))
    if random.random() < 0.5:
        random.shuffle(perm)
    _assert_marginal_bits([_held_table(rng, cards, perm, zero_fraction) for _ in range(batch)])


@pytest.mark.parametrize("run", [(1,), (7,), (8,), (9,), (3, 3), (128,), (2, 64), (129,),
                                 (3, 43), (8193,), (3, 2731), (2, 4100)])
@pytest.mark.parametrize("permuted", [False, True])
def test_marginal_trailing_runs_bit_for_bit(run, permuted):
    # a run of trailing axes of L = prod(run) cells after two more axes, laid
    # out C-order or with the leading axes swapped, in a batch of three and
    # in a batch of one
    rng = np.random.default_rng(sum(run) * 2 + permuted)
    perm = [1, 0] if permuted else [0, 1]
    lead = np.array([3, 2])[np.argsort(perm)]
    tables = [_held_table(rng, list(lead) + list(run), perm + [2 + i for i in range(len(run))],
                          0.1) for _ in range(3)]
    assert tables[0].shape == (3, 2) + run
    _assert_marginal_bits(tables)
    _assert_marginal_bits(tables[:1])


# `JointBatch.entropy` takes t * log2(t) in one buffer and writes +0.0 into
# every cell that is not positive; the two-mask formula in
# `conftest.oracle_entropy_rows` is its oracle, bit for bit.  A -0.0 product
# left in a zero cell would not show in any entropy, because numpy's row sum
# starts from +0.0; a nan cell (no table the library builds holds one) is
# what shows a product left in a cell that is not positive.

@st.composite
def held_batches(draw):
    """1 or 3 tables of one shape and one memory order (C order or a
    transpose of it), whose cells mix +0.0, -0.0, subnormals and normal
    values."""
    cards = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    perm = draw(st.permutations(range(len(cards))))
    cells = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
    size = int(np.prod(cards))
    return [np.array(draw(st.lists(cells, min_size=size, max_size=size))).reshape(cards)
            .transpose(perm) for _ in range(draw(st.sampled_from([1, 3])))]


@settings(max_examples=100, deadline=None)
@given(held_batches())
@example([np.array([-0.0])])
@example([np.array([[-0.0, -0.0]]), np.array([[5e-324, 0.0]]), np.array([[-0.0, 0.5]])])
@example([np.array([[np.nan, -0.0], [0.25, 5e-324]])])
def test_entropy_matches_two_mask_formula_bit_for_bit(tables):
    names = ("A", "B", "C", "D")[:tables[0].ndim]
    joint = JointBatch(names, _stacked(tables))
    for k in range(1, len(names) + 1):
        for keep in itertools.combinations(names, k):
            drop = tuple(i for i, n in enumerate(names) if n not in keep)
            rows = np.array([np.sum(table, axis=drop).ravel() for table in tables])
            # numpy's warnings raise; underflow stays ignored, as by default,
            # because a subnormal cell's t * log2(t) underflows by design
            with np.errstate(all="raise", under="ignore"):
                got = joint.entropy(keep)
            want = oracle_entropy_rows(rows)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (keep, got, want)


def test_entropy_of_a_chunk_marginal_holds_one_buffer():
    # the {S, T, X3, U, V} marginal of a region-e3 lattice chunk (910
    # points), its transposed copy, one mask and one buffer: about 2.25
    # times the marginal's bytes, where the two-mask formula took 3.13
    from skregion.region import _evaluate_lattice, _family_layers, _lattice_layers

    base = broadcast_source("X3", 0.25, 0.25)
    grid = GridSpec(3, 3, 2, 2, 1)
    chunks = []

    def keep(h):
        chunks.append(h)
        return (np.zeros(len(h)),)

    _evaluate_lattice(base, _lattice_layers(base, _family_layers("forward-inner", grid), 1), keep)
    h = chunks[0]
    key = ("S", "T", "X3", "U", "V")
    marginal = 8 * len(h) * int(np.prod([h.tables.shape[h.names.index(n)] for n in key]))
    _, peak = traced_peak(lambda: h.entropy(key))
    assert peak <= 2.5 * marginal, (peak, marginal)

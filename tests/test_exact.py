"""Exact mode: block chunking, outcome reuse, the array stages against the
Python oracles of `conftest`, streamed block-pair rows, memory and byte
identity of reports.

`tests/data/exact_regression.json` holds `to_json_dict()` of the reports
below as produced by the per-block bincount masks that preceded the bitset
kernel; the paths it covers (backward exact and MC, forward exact with a
weak tap, where err_L is computable) are not run by the benchmark.
"""

import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skregion.codec as codec
import skregion.sim as sim
from conftest import (
    oracle_covers,
    oracle_decode_failures,
    oracle_key_error,
    oracle_view_joint,
    oracle_weigh_outcomes,
    traced_peak,
)
from skregion.codec import _all_sequences
from skregion.pmf import Channel, JointPmf, VariableId, iid_extension
from skregion.region import AuxSystem, _forward_channels, forward_inner_point
from skregion.sim import (
    EpsParams,
    SimConfig,
    _Instance,
    broadcast_backward_preset,
    broadcast_forward_preset,
    exact_report,
    exact_view_joint,
    identity_preset,
    run_trials,
)
from skregion.sources import broadcast_source, triple_from_table

REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "exact_regression.json").read_text(encoding="utf-8"))


def _two_key_config(n):
    # both users hold a nontrivial codebook
    base = broadcast_source("X3", 0.25, 0.25)
    channels = (Channel.identity("X1", 2, "S"), Channel.identity("X2", 2, "T"),
                Channel.constant("U", "S", 2), Channel.constant("V", "T", 2))
    return SimConfig(base, "forward", channels, n, 0.07, 0.07,
                     EpsParams(enc=0.75, dec=1.0), 1, (1,))


def _live_t_backward_config(n):
    # user 3 keys both users: S = X3 and T a BSC(0.25) copy of X3, so both
    # backward codebooks hold a nontrivial key
    base = broadcast_source("X3", 0.25, 0.25)
    table = np.zeros((2, 2, 2))
    for x in range(2):
        table[x, x, x] = 0.75
        table[x, x, 1 - x] = 0.25
    channels = (Channel(("X3",), (VariableId("S", 2), VariableId("T", 2)), table),
                Channel(("S", "T"), (VariableId("U", 1),), np.ones((2, 2, 1))))
    return SimConfig(base, "backward", channels, n, 0.1, 0.1,
                     EpsParams(enc=0.75, dec=1.0), 1, (1,))


def _z_leg_config(n, p1=0.5):
    # user 1's key leg is a Z channel, p(x3 | x1) = [[1, 0], [0.25, 0.75]], and
    # user 2 taps X3 through a BSC(0.25): the (X1, X3) block-pair row of the
    # all-zero X1 block holds one nonzero entry, every other row several.
    # eps_enc = 1 makes that block typical, so its row carries outcome cells.
    # p1 is P(X1 = 1); at 0.05 the all-zero block is X1's only typical block.
    z = np.array([[1.0, 0.0], [0.25, 0.75]])
    bsc = np.array([[0.75, 0.25], [0.25, 0.75]])
    base = triple_from_table(np.einsum("a,ac,cb->abc", [1.0 - p1, p1], z, bsc))  # [x1, x2, x3]
    channels = _forward_channels(base)
    rate1 = 0.5 * forward_inner_point(AuxSystem.forward(base, *channels)).r1_max
    return SimConfig(base, "forward", channels, n, rate1, 0.0,
                     EpsParams(enc=1.0, dec=1.0), 1, (1,))


def _encoder_outcomes(inst, user):
    """The outcomes of `user`'s encoder (3: user 3's backward encoder)."""
    if user == 3:
        return sim._encoder_outcomes_backward(inst)
    return sim._encoder_outcomes_forward(inst, user)


@pytest.mark.parametrize("config", [
    broadcast_forward_preset(6, seeds=(1,)),
    _two_key_config(6),
    broadcast_backward_preset(6, seeds=(1,)),
    _live_t_backward_config(6),
], ids=["one-key", "two-key", "backward", "backward-live-t"])
def test_encoder_outcomes_independent_of_block_chunks(monkeypatch, config):
    inst = _Instance(config, 1)
    users = (3,) if config.direction == "backward" else (1, 2)
    reference = {user: _encoder_outcomes(inst, user) for user in users}
    for table, fail in reference.values():
        assert len(table) == len(fail) == 64
        mass = np.bincount(table.blocks(), table.weight, minlength=len(table))
        assert np.all(np.abs(mass + fail - 1.0) < 1e-12)
    # candidates one encoder kernel call tests per block
    per_block = {1: inst.cb1.size, 2: inst.cb2.size, 3: inst.cb1.size * inst.cb2.size}
    # 1 block per chunk, and 5 or 7 blocks, which do not divide the 64 blocks
    for blocks_per_chunk in (1, 5, 7):
        for user in users:
            monkeypatch.setattr(sim, "_CHUNK_PAIRS", blocks_per_chunk * per_block[user])
            table, fail = _encoder_outcomes(_Instance(config, 1), user)
            assert _as_lists(table) == _as_lists(reference[user][0])
            assert np.array_equal(fail, reference[user][1])
    for user in users:
        assert len(reference[user][0].weight), f"user {user}'s encoder never succeeds: a vacuous comparison"
    if users == (3,):
        # every T key is announced, so the live-T case compares T labels too
        assert len(np.unique(reference[3][0].labels[:, 2])) == inst.cb2.n_key


def _oracle_outcomes(inst, user):
    """`oracle_weigh_outcomes` of `user`'s encoder (3: user 3's backward
    encoder), every block tested in one kernel call and each hit's covers
    by `oracle_covers`, not through the encoder's cover table."""
    enc = inst.coders()[0 if user == 3 else user - 1]
    blocks = _all_sequences(inst.full.variable(enc.src).cardinality, inst.config.n)
    if user == 3:
        # each block's pairs (i, j) from the kernel's (M_s, M_t, blocks) mask, as i * M_t + j
        typical = enc.test.pair_mask("S", enc.seqs_s, "T", enc.seqs_t, {"X3": blocks})
        hits = [np.argwhere(typical[:, :, c]) @ (inst.cb2.size, 1) for c in range(len(blocks))]
        labels_s, labels_t = (cb.triples[:, :2].tolist() for cb in (inst.cb1, inst.cb2))

        def label_of(hit):
            i, j = divmod(int(hit), inst.cb2.size)
            return (*labels_s[i], *labels_t[j])
    else:
        hits = [np.flatnonzero(row) for row in enc.typical(blocks)]
        labels = enc.codebook.triples[:, :2].tolist()

        def label_of(hit):
            return labels[hit]
    return oracle_weigh_outcomes(hits, lambda hit: oracle_covers(enc, hit), label_of)


def _as_lists(table) -> list:
    """An `_OutcomeTable` as per-block lists of ((*labels, cover), weight)."""
    cells = [(*labels, cover) for labels, cover in zip(table.labels.tolist(), table.cover.tolist())]
    pairs = list(zip(cells, table.weight.tolist()))
    return [pairs[lo:hi] for lo, hi in zip(table.start[:-1].tolist(), table.start[1:].tolist())]


def _oracle_stages(config) -> dict:
    """Each exact-mode stage of seed 1 computed by the Python oracles:
    outcomes, view joints, key errors with their terms, decode failures."""
    inst = _Instance(config, 1)
    n, base = config.n, config.base
    forward = config.direction == "forward"
    owners = (1, 2) if forward else (3,)
    out = {"outcomes": {u: _oracle_outcomes(inst, u) for u in owners}}
    out["view"] = {}
    for user in (1, 2):
        cb = inst.cb1 if user == 1 else inst.cb2
        other = "X2" if user == 1 else "X1"
        n_other = inst.full.variable(other).cardinality ** n
        if forward:
            cells, fail = out["outcomes"][user]
            src, public = ("X1" if user == 1 else "X2"), (cb.n_col, len(cb.u_codebook))
        else:
            cells, fail = out["outcomes"][3]
            cells = [[((k if user == 1 else l, kp, lp, a), w) for (k, kp, l, lp, a), w in row]
                     for row in cells]
            src, public = "X3", (inst.cb1.n_col, inst.cb2.n_col, len(cb.u_codebook))
        joint = oracle_view_joint(cells, fail, sim._pair_block_rows(base, src, other, n),
                                  (cb.n_key, *public, n_other))
        out["view"][user] = np.moveaxis(joint, -1, 1)
    out["error"], out["dec_fail"] = {}, None
    for user in ((1,) if forward else (1, 2)):
        decoder = inst.cached(("decoder", user), sim._key_decoder, inst, user)
        if decoder is None:
            continue
        src, obs, decode_row = decoder
        cells, fail = out["outcomes"][user if forward else 3]
        out["error"][user] = oracle_key_error(
            cells, fail, sim._pair_block_rows(base, src, obs, n), decode_row, 2 * (user - 1))
        if forward:
            width = inst.full.variable("X3").cardinality ** n
            out["dec_fail"] = oracle_decode_failures(cells, fail, decode_row, width)
    return out


def _check_stages(config, expected) -> None:
    """The array stages of a fresh instance equal the oracles' bit for bit."""
    inst = _Instance(config, 1)
    for user, (cells, fail) in expected["outcomes"].items():
        table, got_fail = _encoder_outcomes(inst, user)
        assert _as_lists(table) == cells
        assert np.array_equal(got_fail, fail)
    for user, joint in expected["view"].items():
        assert np.array_equal(sim._view_joint(inst, user), joint)
    for user, (err, _) in expected["error"].items():
        assert sim._exact_key_error(inst, user) == err
    if expected["dec_fail"] is not None:
        decode_row = inst.cached(("decoder", 1), sim._key_decoder, inst, 1)[2]
        assert np.array_equal(sim._decode_failures(inst, decode_row), expected["dec_fail"])


_STAGE_CONFIGS = {
    "one-key": broadcast_forward_preset(6, seeds=(1,)),
    "two-key": _two_key_config(6),
    "backward": broadcast_backward_preset(6, seeds=(1,)),
    "backward-live-t": _live_t_backward_config(6),
    "forward-tap0.1": broadcast_forward_preset(6, flip_tap=0.1, seeds=(1,)),
    "z-leg": _z_leg_config(6),
    # outcome cells on the one-entry row only; every other row's mass is encoder failure
    "z-leg-one-typical": _z_leg_config(6, p1=0.05),
}


@pytest.fixture(scope="module")
def oracle_stages():
    return {name: _oracle_stages(config) for name, config in _STAGE_CONFIGS.items()}


@pytest.mark.parametrize("name", sorted(_STAGE_CONFIGS))
def test_array_stages_equal_python_oracles(oracle_stages, name):
    expected = oracle_stages[name]
    _check_stages(_STAGE_CONFIGS[name], expected)
    # not vacuous: encoder-failure mass reaches the fallback transcript
    assert any((fail > 0.0).any() for _, fail in expected["outcomes"].values())


def test_z_leg_config_mixes_row_supports():
    # err_K weighs the outcome cells of one-entry rows from the rows' support
    # and streams the other rows: the z-leg config runs both paths
    config = _STAGE_CONFIGS["z-leg"]
    single, _, _ = sim._support_rows(sim._pair_table(config.base, "X1", "X3"), config.n)
    table, _ = sim._outcomes(_Instance(config, 1), 1)
    cells = single[table.blocks()]
    assert cells.any() and not cells.all()
    # z-leg-one-typical streams rows that carry no outcome cell, only failure mass
    config = _STAGE_CONFIGS["z-leg-one-typical"]
    table, fail = sim._outcomes(_Instance(config, 1), 1)
    assert single[table.blocks()].all() and (fail[~single] > 0.0).all()


def test_python_oracles_see_decode_misses(oracle_stages):
    # the compared key errors and decode failures are not all zero: some
    # decode misses the key where the block pair has mass (the live-T
    # backward config), and some decode fails outright (both forward
    # configs with constant T)
    terms = [term for stages in oracle_stages.values()
             for _, user_terms in stages["error"].values() for term in user_terms]
    assert any(term > 0.0 for term in terms)
    for name in ("one-key", "forward-tap0.1"):
        assert (oracle_stages[name]["dec_fail"] > 0.0).any()


@pytest.mark.parametrize("values", [[], [5], [3, 1, 3, 3, 0, 1, 7], list(range(9, -1, -1)),
                                    [2] * 6], ids=["empty", "one", "repeats", "descending",
                                                   "constant"])
def test_unique_matches_numpy_unique(values):
    # exact mode's sort-based stand-in for np.unique: same values, first
    # indices and inverse
    values = np.array(values, dtype=np.int64)
    got = sim._unique(values)
    expected = np.unique(values, return_index=True, return_inverse=True)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tolist() == e.tolist()


def test_masked_row_sums_match_one_dimensional_sums(monkeypatch, rng):
    # rows with 0, 1 and many nonzero entries, masks keeping 0 to all of them
    rows = rng.random((12, 40)) * (rng.random((12, 40)) < 0.6)
    rows[:3] = 0.0
    rows[1, 7] = rows[2, 39] = 0.25
    masks = rng.random((9, 40)) < np.linspace(0.0, 1.0, 9)[:, None]
    source = rng.integers(0, 12, 200)
    mask_of = rng.integers(0, 9, 200)
    expected = [rows[s][masks[g]].sum() for s, g in zip(source, mask_of)]
    for entries in (1, 3 * 40, 1 << 19):  # gathers of 1 row, 3 rows, all rows
        monkeypatch.setattr(sim, "_CHUNK_ROW_ENTRIES", entries)
        got = sim._masked_row_sums(rows, source, masks, masks.sum(axis=1), mask_of)
        assert got.tolist() == expected


@pytest.mark.parametrize("rows_per_bound", [1, 3, 5])
def test_array_stages_independent_of_temporary_bound(monkeypatch, oracle_stages, rows_per_bound):
    # 64 rows of 64 entries per block-pair law at n = 6: a bound of 1 row,
    # and of 3 or 5 rows, which do not divide them
    monkeypatch.setattr(sim, "_CHUNK_ROW_ENTRIES", rows_per_bound * 64)
    for name, config in _STAGE_CONFIGS.items():
        _check_stages(config, oracle_stages[name])


def test_exact_report_computes_each_users_outcomes_once(monkeypatch):
    calls = []
    original = sim._encoder_outcomes_forward

    def counting(inst, user):
        calls.append((inst.seed, user))
        return original(inst, user)

    monkeypatch.setattr(sim, "_encoder_outcomes_forward", counting)
    config = broadcast_forward_preset(6, flip_tap=0.1, seeds=(1, 2))
    report = exact_report(config)
    assert report.err_L is not None  # the error path needs both users' outcomes
    assert sorted(calls) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_exact_decoder_calls_per_column_and_cover_codeword(monkeypatch):
    # user 3's decoder tests each announced column once per distinct cover
    # codeword, not once per cover index: a decode depends on the cover
    # index only through its codeword, and the forward preset's U is
    # constant, so its two cover codewords are one sequence
    config = broadcast_forward_preset(11, seeds=(1,))
    inst = _Instance(config, 1)
    table, fail = sim._outcomes(inst, 1)
    u = inst.cb1.u_codebook
    announced = {(c, u[a].tobytes()) for c, a in zip(table.labels[:, 1].tolist(),
                                                       table.cover.tolist())}
    assert (fail > 0.0).any()  # so the fallback transcript (column 0, cover 0) is decoded too
    announced.add((0, u[0].tobytes()))
    calls = []
    original = codec.JointTypicalityTest.pair_mask

    def counted(self, name_a, cands_a, name_b, cands_b, fixed):
        if fixed:  # the decoder's calls; the encoders' fix nothing
            calls.append((name_a, name_b))
        return original(self, name_a, cands_a, name_b, cands_b, fixed)

    monkeypatch.setattr(codec.JointTypicalityTest, "pair_mask", counted)
    exact_report(config)
    assert len(u) == 2
    assert set(calls) == {("S", "X3")}
    assert len(calls) == len(announced) == 23


@pytest.mark.parametrize("make, src, obs", [
    (broadcast_forward_preset, "X1", "X3"),
    (broadcast_backward_preset, "X3", "X1"),
], ids=["forward", "backward"])
def test_key_error_null_exactly_above_the_block_pair_budget(monkeypatch, make, src, obs):
    # err_K's gate is the dense size of the (encoder source, decoder
    # observation) block-pair law, (2 * 2)^5 = 1024 entries here, although
    # every row of these noiseless legs has one nonzero entry and none is formed
    config = make(5, seeds=(1,))
    unset = sim._exact_key_error(_Instance(config, 1), 1)
    assert unset is not None
    monkeypatch.setenv("SKREGION_BUDGET", "1024")
    assert sim._exact_key_error(_Instance(config, 1), 1) == unset
    monkeypatch.setenv("SKREGION_BUDGET", "1023")
    inst = _Instance(config, 1)
    assert sim._exact_key_error(inst, 1) is None
    assert inst.refusals[1] == f"exact ({src}, {obs}) block-pair law needs 1024 entries, budget 1023"


def test_exact_report_notes_why_an_error_is_null():
    # each reason once over the seeds, in `notes` and never in the report's JSON
    config = _two_key_config(5)
    config.codebook_seeds = (1, 2)
    report = exact_report(config)
    reason = "user 3's joint decoder needs constant T and V, got |T|=2, |V|=1"
    assert report.err_K is None and report.err_L is None
    assert report.notes == (f"err_K not computed: {reason}", f"err_L not computed: {reason}")
    assert "notes" not in report.to_json_dict()
    computed = exact_report(broadcast_forward_preset(5, flip_tap=0.1, seeds=(1, 2)))
    assert computed.err_K is not None and computed.err_L is not None
    assert computed.notes == ()


def _report(name):
    kind, _, n = name.rpartition("-n")
    n = int(n)
    if kind == "backward-exact":
        return exact_report(broadcast_backward_preset(n, seeds=(1, 2)))
    if kind == "backward-mc":
        return run_trials(broadcast_backward_preset(n, trials=200, seeds=(1, 2)))
    assert kind == "forward-exact-tap0.1"
    return exact_report(broadcast_forward_preset(n, flip_tap=0.1, seeds=(1, 2)))


@pytest.mark.parametrize("name", sorted(REGRESSION))
def test_report_byte_identical_to_recorded(name):
    got = json.dumps(_report(name).to_json_dict(), sort_keys=True)
    assert got == json.dumps(REGRESSION[name], sort_keys=True)


@st.composite
def pair_laws(draw):
    """A random 2-variable joint with cardinalities 1-3 and some zero cells."""
    cards = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
    size = math.prod(cards)
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = draw(st.lists(cell, min_size=size, max_size=size))
    weights[draw(st.integers(0, size - 1))] += 1.0  # at least one nonzero cell
    table = np.array(weights).reshape(cards)
    return JointPmf((VariableId("A", cards[0]), VariableId("B", cards[1])), table / table.sum())


@settings(max_examples=80, deadline=None)
@given(pair=pair_laws(), n=st.integers(1, 7), entries=st.integers(1, 5000),
       swap=st.booleans())
@example(pair=JointPmf((VariableId("A", 3), VariableId("B", 2)),
                       np.array([[0.1, 0.0], [0.25, 0.15], [0.2, 0.3]])),
         n=5, entries=1, swap=False)
def test_pair_block_rows_match_iid_extension(pair, n, entries, swap):
    first, second = ("B", "A") if swap else ("A", "B")
    expected = iid_extension(pair, n).table
    if swap:
        expected = expected.T
    with mock.patch.object(sim, "_CHUNK_ROW_ENTRIES", entries):
        chunks = list(sim._pair_block_rows(pair, first, second, n))
    # contiguous, in order, and no chunk above the entry cap unless it is one row
    starts = [start for start, _ in chunks]
    assert starts == list(np.cumsum([0] + [len(rows) for _, rows in chunks[:-1]]))
    assert all(len(rows) == 1 or rows.size <= entries for _, rows in chunks)
    got = np.concatenate([rows for _, rows in chunks])
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_pair_block_rows_row_sums_independent_of_chunks():
    # row-wise reductions over a chunk equal those over the whole table
    base = broadcast_source("X3", 0.25, 0.1)
    pair = base.marginalize({"X1", "X3"})
    whole = iid_extension(pair, 9).table.sum(axis=1)
    for entries in (1, 3 * 512, 1 << 19):
        with mock.patch.object(sim, "_CHUNK_ROW_ENTRIES", entries):
            sums = np.concatenate([rows.sum(axis=1) for _, rows in
                                   sim._pair_block_rows(base, "X1", "X3", 9)])
        assert np.array_equal(sums.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize("config", [
    broadcast_forward_preset(6, seeds=(1,)),
    _two_key_config(6),
    broadcast_backward_preset(6, seeds=(1,)),
    identity_preset(6, seeds=(1,)),
], ids=["forward-one-key", "forward-two-key", "backward", "identity"])
def test_exact_report_independent_of_row_chunks(monkeypatch, config):
    def run():
        report = json.dumps(exact_report(config).to_json_dict(), sort_keys=True)
        if config.direction == "backward":
            return report, []
        return report, [exact_view_joint(config, 1, user).tobytes() for user in (1, 2)]

    reference = run()
    # one row per chunk, and 3 or 5 rows, which do not divide the 64 rows
    for entries in (1, 3 * 64, 5 * 64):
        monkeypatch.setattr(sim, "_CHUNK_ROW_ENTRIES", entries)
        assert run() == reference


def test_exact_view_joint_is_c_ordered():
    config = _two_key_config(5)
    joint = exact_view_joint(config, 1, 1)
    assert joint.flags.c_contiguous
    inst = _Instance(config, 1)
    cb = inst.cb1
    assert joint.shape == (cb.n_key, 2 ** 5, cb.n_col, len(cb.u_codebook))


@pytest.mark.parametrize("make", [broadcast_backward_preset, _live_t_backward_config],
                         ids=["backward", "backward-live-t"])
def test_exact_view_joint_backward_gives_report_leakage(make):
    # the backward view joint has both columns as public indices, and its
    # mutual information is each seed's reported leakage bit for bit
    config = make(6)
    config.codebook_seeds = (1, 2)
    report = exact_report(config)
    for row in report.per_seed:
        inst = _Instance(config, row["seed"])
        for user, suffix in ((1, "K"), (2, "L")):
            joint = exact_view_joint(config, row["seed"], user)
            cb = inst.cb1 if user == 1 else inst.cb2
            assert joint.shape == (cb.n_key, 2 ** 6, inst.cb1.n_col, inst.cb2.n_col,
                                   len(cb.u_codebook))
            assert sim._mi_first_axis(joint)[0] / config.n == row[f"leak_{suffix}"]


@pytest.mark.parametrize("config", [
    broadcast_forward_preset(4, flip_tap=0.1), broadcast_forward_preset(7),
    _two_key_config(5), broadcast_backward_preset(5), _live_t_backward_config(4),
], ids=["forward-4-0.1", "forward-7", "forward-two-key-5", "backward-5", "backward-live-t-4"])
def test_mi_first_axis_key_entropy_is_the_key_marginal(config):
    # the H(K) that the leakage computation returns equals, bit for bit, the
    # entropy of the view joint summed over every view axis
    for user in (1, 2):
        joint = exact_view_joint(config, 1, user)
        key_law = joint.sum(axis=tuple(range(1, joint.ndim)))
        assert sim._mi_first_axis(joint)[1].hex() == sim._h(key_law).hex()


def _compacted_h(p: np.ndarray) -> float:
    """`_h`'s reference: the entropy of a compacted copy of the positive cells."""
    q = p[p > 0]
    return float(-(q * np.log2(q)).sum())


law_cells = st.one_of(st.just(0.0), st.floats(1e-300, 1.0), st.floats(0.01, 1.0))


@settings(max_examples=200, deadline=None)
@given(st.lists(law_cells, max_size=40), st.integers(1, 9))
@example([1.0], 4)  # a one-cell law: -0.0, as before
@example([0.0, 1.0, 0.0], 1)
@example([0.5, 0.25, 0.25], 8)  # no zero cell
def test_h_in_place_equals_compacted_entropy(values, block):
    # `_h` works block by block in its argument's buffer, here with blocks
    # shorter and longer than the array
    p = np.array(values, dtype=float)
    expected = _compacted_h(p.copy())
    with mock.patch.object(sim, "_CHUNK_ROW_ENTRIES", block):
        assert sim._h(p).hex() == expected.hex()


@pytest.mark.parametrize("extra", [-1, 0, 1, sim._CHUNK_ROW_ENTRIES + 7])
def test_h_in_place_across_the_block_size(rng, extra):
    # with about 30% zero cells, and with none
    size = sim._CHUNK_ROW_ENTRIES + extra
    for p in (rng.random(size) * (rng.random(size) > 0.3), rng.random(size) + 0.5):
        expected = _compacted_h(p.copy())
        assert sim._h(p).hex() == expected.hex()


def test_forward_exact_report_holds_no_dense_block_pair_table():
    # at n = 11 a (X1, X2) block-pair table alone is 4^11 float64 = 32 MiB
    config = broadcast_forward_preset(11, seeds=(1,))
    _, peak = traced_peak(lambda: exact_report(config))
    assert peak < 64 * 2**20


@pytest.mark.parametrize("config", [broadcast_forward_preset(11, seeds=(1,)),
                                    identity_preset(11)], ids=["forward-11", "identity-11"])
def test_exact_report_holds_one_view_table(config):
    # the view table is transposed and its entropy taken in its own buffer,
    # and err_L weighs its decode failures in place: beyond the largest view
    # table (16.5 and 66.1 MiB here) a report holds one key's slab, a chunk
    # of rows and small arrays
    _, peak = traced_peak(lambda: exact_report(config))
    seed = config.codebook_seeds[0]
    table = max(exact_view_joint(config, seed, user).nbytes for user in (1, 2))
    assert peak <= 1.25 * table

import json
import math
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import oracle_covers, oracle_plugin
from skregion.codec import (
    Codebook,
    DecodeAmbiguous,
    DecodeNone,
    EncoderNoCover,
    EncoderNoSequence,
    InfeasibleRatesError,
)
from skregion import codec
from skregion._lanes import GeneratorLanes, PCG64Lanes
from skregion.pmf import Channel, JointPmf, VariableId, cond_mutual_information as cmi
from skregion.sim import (
    EpsParams,
    TRIAL_SEED,
    SimConfig,
    _Instance,
    _Tally,
    _draw_sources,
    _plugin,
    _source_cdf,
    broadcast_backward_preset,
    broadcast_forward_preset,
    check_definition1,
    exact_leakage,
    exact_report,
    exact_view_joint,
    identity_preset,
    run_trials,
    sample_sources,
)
from skregion.region import AuxSystem, _forward_channels, forward_inner_point
from skregion.sources import broadcast_source, identity_source, triple_from_table


def _h_counts(counts):
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


# ---------------------------------------------------------------------------
# Source sampling
# ---------------------------------------------------------------------------

def test_sample_sources_deterministic_base():
    t = np.zeros((2, 2, 2))
    t[1, 0, 1] = 1.0
    base = triple_from_table(t)
    rng = np.random.default_rng(0)
    x1, x2, x3 = sample_sources(base, 16, rng)
    assert (x1 == 1).all() and (x2 == 0).all() and (x3 == 1).all()


def test_sample_sources_frequencies_match():
    base = identity_source()
    rng = np.random.default_rng(1)
    counts = np.zeros((2, 2, 2))
    draws = 100_000
    x1, x2, x3 = sample_sources(base, draws, rng)
    for a, b, c in zip(x1, x2, x3):
        counts[a, b, c] += 1
    freq = counts / draws
    sigma = np.sqrt(0.25 * 0.75 / draws)
    assert np.all(np.abs(freq - base.table) <= 3.5 * sigma + 1e-12)


def test_sample_sources_e6_plugin_cmi_small():
    base = broadcast_source("X2", 0.25, 0.25)
    rng = np.random.default_rng(2)
    draws = 100_000
    counts = np.zeros((2, 2, 2))
    x1, x2, x3 = sample_sources(base, draws, rng)
    for a, b, c in zip(x1, x2, x3):
        counts[a, b, c] += 1
    emp = triple_from_table(counts / draws)
    assert cmi(emp, ("X1",), ("X3",), ("X2",)) < 5e-3


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
       st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_draw_sources_matches_generator_choice(weights, n, seed):
    # the batched lookup draws exactly what `Generator.choice` draws, leaves
    # the generator in the same state, and keeps each generator's stream
    p = np.array(weights, dtype=float) / sum(weights)
    base = JointPmf((VariableId("X", len(p)),), p)
    rngs = [np.random.default_rng([seed, t]) for t in range(3)]
    (cells,) = _draw_sources(base, _source_cdf(base), n, GeneratorLanes(rngs))
    for t, rng in enumerate(rngs):
        expected = np.random.default_rng([seed, t])
        assert np.array_equal(cells[t], expected.choice(len(p), size=n, p=p))
        assert rng.bit_generator.state == expected.bit_generator.state


def test_source_cdf_rejects_what_choice_rejects():
    rng = np.random.default_rng(0)
    for p in ([0.5, 0.6], [1.2, -0.2], [0.5, np.nan]):
        base = SimpleNamespace(table=np.array(p))
        with pytest.raises(ValueError):
            rng.choice(2, p=base.table)
        with pytest.raises(ValueError):
            _source_cdf(base)


# ---------------------------------------------------------------------------
# Monte Carlo reports
# ---------------------------------------------------------------------------

def test_identity_preset_err_zero_and_uniform():
    cfg = identity_preset(8, trials=300, seeds=(1,))
    rep = run_trials(cfg)
    assert rep.err_K == 0.0
    assert rep.err_L == 0.0
    assert rep.uniformity_gap_K <= 1.0 / 8 + 1e-9


def _over_rate_config(n: int, trials: int) -> SimConfig:
    """Forward strategy at twice the inner-bound key rate: reliability warnings."""
    t = np.zeros((2, 2, 2))
    for x3 in (0, 1):
        for x1 in (0, 1):
            p1 = 0.375 if x1 == x3 else 0.125
            for x2 in (0, 1):
                t[x1, x2, x3] = p1 * 0.5
    base = triple_from_table(t)
    channels = _forward_channels(base)
    point = forward_inner_point(AuxSystem.forward(base, *channels))
    return SimConfig(base, "forward", channels, n, 2.0 * point.r1_max, 0.0,
                     EpsParams(enc=1.0, dec=1.0), trials, (1,))


def test_rates_above_point_drive_error_up():
    # 2x the achievable point: reliability warnings plus error toward 1
    errs = {}
    for n in (4, 8):
        rep = run_trials(_over_rate_config(n, 400))
        assert rep.warnings, "over-rate run must carry reliability warnings"
        errs[n] = rep.err_K
    assert errs[8] > errs[4]
    assert errs[8] > 0.5


def test_broadcast_preset_error_trend_seeded():
    errs = {}
    for n in (4, 6, 8):
        cfg = broadcast_forward_preset(n, trials=400, seeds=(1, 2))
        errs[n] = run_trials(cfg).err_K
    assert errs[4] >= errs[6] >= errs[8]
    assert errs[8] <= 0.2


def _two_key_config(n: int) -> SimConfig:
    """Forward strategy on a symmetric source, both users keying at half the
    inner-bound point."""
    base = broadcast_source("X3", 0.25, 0.25)
    channels = _forward_channels(base, t_identity=True)
    point = forward_inner_point(AuxSystem.forward(base, *channels))
    rate = 0.5 * point.r1_max
    return SimConfig(base, "forward", channels, n, rate, rate,
                     EpsParams(enc=1.0, dec=1.0), 1, (1,))


def _backward_two_key_config(n: int) -> SimConfig:
    """Backward strategy with S = X3 and T a BSC(0.2) copy of X3, both users
    keying."""
    base = broadcast_source("X3", 0.1, 0.2)
    st = np.zeros((2, 2, 2))
    for x in range(2):
        st[x, x, x] = 0.8
        st[x, x, 1 - x] = 0.2
    ch_st = Channel(("X3",), (VariableId("S", 2), VariableId("T", 2)), st)
    ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((2, 2, 1)))
    return SimConfig(base, "backward", (ch_st, ch_u), n, 0.05, 0.05,
                     EpsParams(enc=1.0, dec=1.5), 1, (1,))


_VIOLATED = "user {}: reliability condition {} violated by {} bits"


@pytest.mark.parametrize("make, rates, expected", [
    (_two_key_config, (0.5, 0.5), [
        _VIOLATED.format(1, "R'1 >= H(S|X3,T,U)", "0.356844"),
        _VIOLATED.format(1, "R'1+R'2 >= H(S,T|X3,U,V)", "0.713688"),
        _VIOLATED.format(2, "R'2 >= H(T|X3,S,V)", "0.356844"),
        _VIOLATED.format(2, "R'1+R'2 >= H(S,T|X3,U,V)", "0.713688"),
    ]),
    (_backward_two_key_config, (0.5, 0.5), [
        _VIOLATED.format(1, "R'1 >= H(S|X1,U)", "0.429521"),
        _VIOLATED.format(2, "R'2 >= H(T|X2,U)", "0.682453"),
    ]),
    (_two_key_config, (1.0, 0.2), "public rate R'1 = H(S|X2,U) - R1 = -0.045566 is negative"),
    (_two_key_config, (0.1, 1.0), "public rate R'2 = H(T|X1,V) - R2 = -0.045566 is negative"),
    (_backward_two_key_config, (1.0, 0.2),
     "public rate R'1 = H(S|X2,T,U) - R1 = -0.460525 is negative"),
    (_backward_two_key_config, (0.1, 1.0),
     "public rate R'2 = H(T|X1,S,U) - R2 = -0.278072 is negative"),
], ids=["forward-warnings", "backward-warnings", "forward-r1", "forward-r2",
        "backward-r1", "backward-r2"])
def test_binning_text(make, rates, expected):
    # each strategy's public rates and reliability conditions, as a run reports them
    config = make(6)
    config.rate1, config.rate2 = rates
    if isinstance(expected, list):
        assert run_trials(config).warnings == expected
    else:
        with pytest.raises(InfeasibleRatesError) as info:
            run_trials(config)
        assert str(info.value) == expected


def _healthy_coders(inst: _Instance) -> tuple:
    """Stub coders whose typicality stages return placeholders and whose
    pick and resolve stages succeed on every trial: each encoder picks hit 0
    (codebook sequence 0, or the pair of sequences 0) and cover 0, and each
    decoder returns the keys of sequence 0.  The encoders keep the real
    encoders' `labels` and `dims`, which read only the codebooks.  Returns
    (coders, the keys of sequence 0)."""
    keys = [int(cb.triples[0, 0]) for cb in (inst.cb1, inst.cb2)]

    def zeros(count, value=0):
        return np.full(count, value, dtype=np.int64)

    def encoder(real):
        return SimpleNamespace(typical=lambda blocks: np.zeros((len(blocks), 1), dtype=bool),
                               pick=lambda typical, lanes, rows: (zeros(len(rows)),) * 3,
                               labels=real.labels, dims=real.dims)

    real = inst.coders()
    if inst.config.direction == "forward":
        decoder = SimpleNamespace(resolve=lambda x3, kp, a, lp, b: (
            zeros(len(kp)), zeros(len(kp), keys[0]), zeros(len(kp), keys[1])))
        return [encoder(real[0]), encoder(real[1]), decoder], keys
    decoders = [SimpleNamespace(resolve=lambda blocks, cols, covers, key=key: (
        zeros(len(cols)), zeros(len(cols), key))) for key in keys]
    return [encoder(real[0]), *decoders], keys


# the batched stage that reports each failure
_FAILING_STAGE = {EncoderNoSequence: "pick", EncoderNoCover: "pick",
                  DecodeNone: "resolve", DecodeAmbiguous: "resolve"}


@pytest.mark.parametrize("direction, coder, exc, key, errs", [
    ("forward", 0, EncoderNoSequence, "enc1_no_sequence", (1, 0)),
    ("forward", 0, EncoderNoCover, "enc1_no_cover", (1, 0)),
    ("forward", 1, EncoderNoSequence, "enc2_no_sequence", (0, 1)),
    ("forward", 1, EncoderNoCover, "enc2_no_cover", (0, 1)),
    ("forward", 2, DecodeNone, "decode_none", (1, 1)),
    ("forward", 2, DecodeAmbiguous, "decode_ambiguous", (1, 1)),
    ("backward", 0, EncoderNoSequence, "enc3_no_sequence", (1, 1)),
    ("backward", 0, EncoderNoCover, "enc3_no_cover", (1, 1)),
    ("backward", 1, DecodeNone, "decode1_none", (1, 0)),
    ("backward", 1, DecodeAmbiguous, "decode1_ambiguous", (1, 0)),
    ("backward", 2, DecodeNone, "decode2_none", (0, 1)),
    ("backward", 2, DecodeAmbiguous, "decode2_ambiguous", (0, 1)),
])
def test_trial_failure_taxonomy(direction, coder, exc, key, errs):
    # one trial with one failing coder: the failure is counted under its key,
    # the right keys count as errors, and a failed encoder's fallback keys
    # are the only draws after the source blocks
    cfg = _two_key_config(6) if direction == "forward" else _backward_two_key_config(6)
    inst = _Instance(cfg, 1)

    coders, keys = _healthy_coders(inst)
    healthy = getattr(coders[coder], _FAILING_STAGE[exc])

    def failing(*args):
        # every trial fails, without a draw
        status, *rest = healthy(*args)
        return (np.full_like(status, codec.FAILURES.index(exc)), *rest)

    setattr(coders[coder], _FAILING_STAGE[exc], failing)
    inst._cache["coders"] = tuple(coders)
    tally = _Tally()
    lanes = PCG64Lanes((TRIAL_SEED, 1), [0])
    inst.run_batch(_source_cdf(cfg.base), lanes, tally)

    expected = np.random.default_rng(np.random.SeedSequence([TRIAL_SEED, 1, 0]))
    sample_sources(cfg.base, cfg.n, expected)
    if direction == "forward" and coder < 2:
        keys[coder] = int(expected.integers((inst.cb1, inst.cb2)[coder].n_key))
    elif direction == "backward" and coder == 0:
        keys = [int(expected.integers(cb.n_key)) for cb in (inst.cb1, inst.cb2)]
    assert dict(tally.fails) == {key: 1}
    assert (tally.trials, tally.err_k, tally.err_l) == (1, *errs)
    assert ([(k, c) for (k, _), c in tally.k_view.items()],
            [(l, c) for (l, _), c in tally.l_view.items()]) == ([(keys[0], 1)], [(keys[1], 1)])
    assert lanes.state(0) == expected.bit_generator.state


def _with_trials(cfg: SimConfig, trials: int, seeds=(1, 2)) -> SimConfig:
    cfg.trials, cfg.codebook_seeds = trials, seeds
    return cfg


@pytest.mark.parametrize("make, failures", [
    (lambda: broadcast_forward_preset(6, trials=40, seeds=(1, 2)), True),
    (lambda: _with_trials(_two_key_config(6), 40), True),
    (lambda: _with_trials(_backward_two_key_config(6), 40), True),
    (lambda: identity_preset(6, trials=40, seeds=(1, 2)), False),
    (lambda: _over_rate_config(6, 40), True),
], ids=["forward", "forward-two-key", "backward-two-key", "identity", "over-rate"])
def test_mc_report_independent_of_batch_size(monkeypatch, make, failures):
    # trials run in batches; a batch size changes no draw and no tally
    reference = run_trials(make()).to_json_dict()
    assert bool(reference["failures"]) == failures
    for size in (1, 3, 7):
        monkeypatch.setattr(_Instance, "batch_trials", lambda self, size=size: size)
        assert run_trials(make()).to_json_dict() == reference


def _covered_config(direction: str, trials: int, seeds: tuple) -> SimConfig:
    """Two keys whose cover codewords (a BSC(p) of the codeword) can miss:
    every encoder failure kind occurs."""
    if direction == "forward":
        channels = (Channel.identity("X1", 2, "S"), Channel.identity("X2", 2, "T"),
                    Channel.bsc("S", "U", 0.3), Channel.bsc("T", "V", 0.3))
        return SimConfig(broadcast_source("X3", 0.25, 0.25), "forward", channels, 6, 0.05, 0.05,
                         EpsParams(enc=0.75, dec=1.0), trials, seeds)
    cfg = _backward_two_key_config(6)
    u = np.zeros((2, 2, 2))
    for s in range(2):
        u[s, :, s], u[s, :, 1 - s] = 0.9, 0.1
    ch_u = Channel(("S", "T"), (VariableId("U", 2),), u)
    return SimConfig(cfg.base, "backward", (cfg.channels[0], ch_u), 6, 0.05, 0.05,
                     cfg.eps, trials, seeds)


def _multi_cover_encoder(direction: str):
    """A fresh encoder of `_covered_config` (user 1's forward, or user 3's
    backward) whose hits have no, one or several covers: the cover codeword
    is a BSC(0.3) of the codeword, tested at eps 1.5.  The backward one is at
    n = 4, where its 256 pairs are a permutation Hypothesis can draw."""
    cfg = _covered_config(direction, 1, (1,))
    if direction == "backward":
        u = np.zeros((2, 2, 2))
        for s in range(2):
            u[s, :, s], u[s, :, 1 - s] = 0.7, 0.3
        cfg.channels = (cfg.channels[0], Channel(("S", "T"), (VariableId("U", 2),), u))
        cfg.n = 4
    cfg.eps = EpsParams(enc=1.5, dec=1.0)
    return _Instance(cfg, 1).coders()[0]


@pytest.fixture(scope="module", params=["forward", "backward"])
def cover_table(request) -> tuple:
    """(encoder, each hit's covers by `oracle_covers`) of `_multi_cover_encoder`."""
    encoder = _multi_cover_encoder(request.param)
    expected = [oracle_covers(encoder, hit) for hit in range(encoder.size)]
    assert {len(c) for c in expected} >= {0, 1, 2}, "a vacuous comparison"
    return encoder, expected


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_cover_table_independent_of_request_order(cover_table, data):
    # a hit's covers do not depend on when, or with which other hits, it is
    # first asked for; asking again returns the same covers
    encoder, expected = cover_table
    order = np.array(data.draw(st.permutations(range(encoder.size))))
    cuts = sorted(data.draw(st.sets(st.integers(1, encoder.size - 1), max_size=8)))
    codec._Encoder.__init__(encoder, encoder.size)  # an empty table
    for part in [*np.split(order, cuts), order]:
        count, start = encoder.covers(part)
        got = [encoder.cover_idx[lo:lo + c].tolist()
               for lo, c in zip(start.tolist(), count.tolist())]
        assert got == [expected[hit] for hit in part.tolist()]


def test_backward_mc_tests_each_pair_covers_once(monkeypatch):
    # user 3's encoder tests an (s, t) pair's covers when a batch first picks
    # it, and never again for the same codebook seed
    tested = []
    cover_mask = codec.JointTypicalityTest.mask

    def recording(self, cand_name, cands, fixed):
        if cand_name == "U":  # the cover test; the decoders test S or T
            pairs = zip(*(np.atleast_2d(fixed[v]).tolist() for v in ("S", "T")))
            tested.extend((tuple(s), tuple(t)) for s, t in pairs)
        return cover_mask(self, cand_name, cands, fixed)

    monkeypatch.setattr(codec.JointTypicalityTest, "mask", recording)
    run_trials(broadcast_backward_preset(8, seeds=(1,)))
    assert tested
    assert len(set(tested)) == len(tested)


def mc_regression_configs() -> dict:
    """The Monte Carlo runs pinned in `tests/data/mc_regression.json`.

    The file holds `run_trials(cfg).to_json_dict()` of each, as produced by
    one `Generator` per trial before the lane stream replaced them.  Their
    trial counts cross a batch boundary, and seeds of 2^32 and more give the
    trial seeds multi-word entropy.
    """
    big = (1, 2**32 + 5)
    return {
        "forward-two-key": _with_trials(_two_key_config(6), 60, big),
        "forward-covers": _covered_config("forward", 60, big),
        "over-rate": _over_rate_config(6, 1100),
        "identity": identity_preset(6, trials=1100, seeds=big),
        "broadcast-backward": broadcast_backward_preset(6, trials=1100, seeds=(1, 2)),
        "backward-two-key": _with_trials(_backward_two_key_config(6), 60, big),
        "backward-covers": _covered_config("backward", 60, (3, 2**64 + 1)),
    }


MC_REGRESSION = json.loads(
    (Path(__file__).parent / "data" / "mc_regression.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(MC_REGRESSION))
def test_mc_report_byte_identical_to_recorded(name):
    # the recorded reports pin every draw and tally of both strategies
    got = run_trials(mc_regression_configs()[name]).to_json_dict()
    assert json.dumps(got, sort_keys=True) == json.dumps(MC_REGRESSION[name], sort_keys=True)


def test_mc_kernel_calls_per_batch(monkeypatch):
    # one encoder kernel call per user and one decoder call per announced
    # column pair in each batch, never a call per trial
    cfg = broadcast_forward_preset(8, trials=1000, seeds=(1,))
    inst = _Instance(cfg, 1)
    # a batch holds the most trials for which trials x candidates stays within
    # the kernel's word bound; user 1's codebook is the largest candidate set
    batches = -(-cfg.trials // (codec._KERNEL_WORDS // inst.cb1.size))
    calls = []
    for name in ("mask", "pair_mask"):
        method = getattr(codec.JointTypicalityTest, name)

        def counted(self, *args, method=method):
            calls.append(1)
            return method(self, *args)
        monkeypatch.setattr(codec.JointTypicalityTest, name, counted)
    run_trials(cfg)
    cover_tables = 2  # the encoders' cover tables, built once per codebook seed
    assert batches > 1
    assert len(calls) <= cover_tables + batches * (2 + inst.cb1.n_col * inst.cb2.n_col)


def test_mc_view_holds_the_eavesdropper_block():
    # these two X2 blocks share the low 16 bits of their CRC-32 (55311); as
    # user 1's eavesdropper sees them, they are two views, not one
    inst = _Instance(identity_preset(15, trials=2), 1)
    x2 = np.array([[0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0], [1] + [0] * 14], dtype=np.int8)
    x1 = np.zeros_like(x2)
    tally = _Tally()
    inst._forward_batch(PCG64Lanes((TRIAL_SEED, 1), [0, 1]), tally, x1, x2, x1)
    assert len({view[-1] for _, view in tally.k_view}) == 2


def _entropy_counts(counter: Counter) -> float:
    """The key entropy estimator before it read the (key, view) counts."""
    total = sum(counter.values())
    if total == 0:
        return 0.0
    h = 0.0
    for c in counter.values():
        p = c / total
        h -= p * np.log2(p)
    return float(h)


views = st.tuples(st.integers(0, 3), st.binary(min_size=1, max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), views, st.integers(1, 10**6)), max_size=40))
@example([(3, (0, b"a"), 5), (3, (1, b"a"), 2)])  # one key: H(K) is +0.0 = 0.0 - 0.0
def test_plugin_matches_separate_key_and_pair_estimators(runs):
    # each run is c trials of one (key, view) pair, recorded in run order
    # into the pair counts and, as the tally once did, into separate key
    # counts; the array sums equal the Python loop's, term by term
    pairs, keys = Counter(), Counter()
    for k, v, c in runs:
        pairs[k, v] += c
        keys[k] += c
    got = _plugin(pairs)
    assert [x.hex() for x in got] == [_entropy_counts(keys).hex(), oracle_plugin(pairs)[1].hex()]


# ---------------------------------------------------------------------------
# Exact mode
# ---------------------------------------------------------------------------

def test_exact_leakage_resolving_wiretapper_near_zero():
    # weak tap: singleton residual cells, so the wiretapper resolves the
    # sequence and almost nothing is left to leak about the key
    cfg = broadcast_forward_preset(8, flip_tap=0.45, seeds=(1,))
    leak, gap, err = exact_leakage(cfg)
    assert leak < 0.03
    assert gap <= 1.0 / 8 + 1e-9


def test_exact_leakage_independent_tap_zero():
    cfg = identity_preset(8, seeds=(1,))
    leak, gap, err = exact_leakage(cfg)
    assert leak == 0.0
    assert err == 0.0


def test_exact_leakage_nothing_public_independent_x2():
    # R1 = H(S|X2,U): the public column rate is zero, nothing is announced;
    # leakage reduces to I(K; X2^n)/n which vanishes for an independent tap
    cfg = identity_preset(8, seeds=(1,))
    cfg.rate1 = 1.0
    leak, gap, err = exact_leakage(cfg)
    assert leak == pytest.approx(0.0, abs=1e-12)


def test_exact_leakage_decreases_with_n():
    values = {}
    for n in (4, 8):
        cfg = broadcast_forward_preset(n, seeds=(1,))
        values[n], _, _ = exact_leakage(cfg)
    assert values[8] < values[4]
    assert values[8] <= 0.1


def test_exact_err_matches_typical_set_miss_probability():
    # noiseless key leg: the only error is an atypical source block
    cfg = broadcast_forward_preset(8, seeds=(1,))
    _, _, err = exact_leakage(cfg)
    assert err == pytest.approx(2.0 / 256.0, abs=1e-12)


def test_oversized_key_rate_fails_leakage_check():
    # key rate at the full conditional entropy: the wiretapper's information
    # about S is no longer absorbed by the residual index
    cfg = broadcast_forward_preset(8, seeds=(1,))
    full = cfg.aux.full
    h_s_given_x2 = full.entropy({"S", "X2"}) - full.entropy({"X2"})
    cfg.rate1 = h_s_given_x2
    rep = exact_report(cfg)
    assert rep.leak_K > 0.05
    checks = check_definition1(rep, 0.05)
    assert not checks["leakage_K"]


def test_check_definition1_identity_all_pass():
    cfg = identity_preset(8, seeds=(1,))
    rep = exact_report(cfg)
    checks = check_definition1(rep, 0.05)
    assert all(checks.values()), checks


def test_h_key_bounded_by_rate_plus_rounding():
    for cfg in (identity_preset(8, seeds=(1,)),
                broadcast_forward_preset(6, seeds=(2,))):
        rep = exact_report(cfg)
        assert rep.h_key_K <= cfg.rate1 + 1.0 / cfg.n + 1e-9
        assert rep.keyspace_K <= cfg.rate1 + 1.0 / cfg.n + 1e-9


def test_exact_backward_report():
    cfg = broadcast_backward_preset(8, seeds=(1,))
    rep = exact_report(cfg)
    # the only failure mode is user 3's typical-set miss, which hits both keys
    assert rep.err_K == pytest.approx(2.0 / 256.0, abs=1e-12)
    assert rep.err_L == pytest.approx(2.0 / 256.0, abs=1e-12)
    assert rep.leak_L == pytest.approx(0.0, abs=1e-12)
    assert 0.0 < rep.leak_K <= 0.15


# ---------------------------------------------------------------------------
# Estimator and view invariants
# ---------------------------------------------------------------------------

def test_mc_leakage_agrees_with_exact_within_tolerance():
    # plug-in estimates are biased up by sparsity; allow 3 cross-seed
    # standard errors plus the Miller-Madow style bias bound
    n = 4
    trials = 4000
    seeds = (1, 2, 3, 4)
    mc = run_trials(broadcast_forward_preset(n, trials=trials, seeds=seeds))
    diffs = []
    for row, seed in zip(mc.per_seed, seeds):
        cfg = broadcast_forward_preset(n, seeds=(seed,))
        exact_val, _, _ = exact_leakage(cfg)
        diffs.append(row["leak_K"] - exact_val)
    diffs = np.array(diffs)
    joint = exact_view_joint(broadcast_forward_preset(n, seeds=(1,)), 1, 1)
    cells = int((joint > 0).sum())
    bias_bound = cells / (2.0 * trials * math.log(2)) / n
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se + bias_bound + 1e-3


def test_leak_monotone_under_view_restriction():
    cfg = broadcast_forward_preset(6, seeds=(1,))
    joint = exact_view_joint(cfg, 1, 1)  # axes: key, block, column, cover

    def mi_against(axes_to_keep):
        kept = joint.sum(axis=tuple(a for a in (1, 2, 3) if a not in axes_to_keep))
        flat = kept.reshape(kept.shape[0], -1)
        def h(p):
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum())
        return h(flat.sum(axis=1)) + h(flat.sum(axis=0)) - h(flat.reshape(-1))

    full_view = mi_against((1, 2, 3))
    assert full_view >= mi_against((1,)) - 1e-12
    assert full_view >= mi_against((2,)) - 1e-12
    assert full_view >= mi_against((1, 2)) - 1e-12


def test_independent_view_variable_changes_nothing():
    # the adversary's private randomness is independent: appending an
    # independent uniform axis to the view leaves the MI unchanged
    cfg = broadcast_forward_preset(6, seeds=(1,))
    joint = exact_view_joint(cfg, 1, 1)
    flat = joint.reshape(joint.shape[0], -1)
    extended = np.stack([flat / 2.0, flat / 2.0], axis=-1)

    def mi(arr):
        a = arr.reshape(arr.shape[0], -1)
        def h(p):
            p = p[p > 0]
            return float(-(p * np.log2(p)).sum())
        return h(a.sum(axis=1)) + h(a.sum(axis=0)) - h(a.reshape(-1))

    assert abs(mi(joint) - mi(extended)) < 1e-12


def test_user_swap_symmetry_exact():
    # symmetric source, both users active at the same rate; with matched
    # codebook realizations the two keys' exact statistics coincide
    base = broadcast_source("X3", 0.25, 0.25)
    c = base.variable("X1").cardinality
    channels = (
        Channel.identity("X1", c, "S"), Channel.identity("X2", c, "T"),
        Channel.constant("U", "S", c), Channel.constant("V", "T", c),
    )
    point = forward_inner_point(AuxSystem.forward(base, *channels))
    rate = 0.5 * point.r1_max
    cfg = SimConfig(base, "forward", channels, 6, rate, rate,
                    EpsParams(enc=1.0, dec=1.0), 1, (1,))
    inst = _Instance(cfg, 1)
    # mirror user 1's codebook onto user 2 (same shuffle, renamed variables)
    inst.cb2 = Codebook("T", "V", inst.cb1.sequences.copy(), inst.cb1.triples.copy(),
                        inst.cb1.n_key, inst.cb1.n_col, inst.cb1.u_codebook.copy(),
                        inst.cb1.margins, inst.cb1.seed)
    from skregion.sim import _exact_side
    k_side = _exact_side(inst, 1)
    l_side = _exact_side(inst, 2)
    assert k_side.leak == pytest.approx(l_side.leak, abs=1e-12)
    assert k_side.h_key == pytest.approx(l_side.h_key, abs=1e-12)
    assert k_side.uniformity_gap == pytest.approx(l_side.uniformity_gap, abs=1e-12)


def test_report_json_round_trip():
    cfg = identity_preset(6, trials=50, seeds=(1,))
    rep = run_trials(cfg)
    doc = rep.to_json_dict()
    assert doc["schema"] == 1
    assert "wall_clock" not in doc
    assert doc["err_K"] == 0.0

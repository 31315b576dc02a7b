import numpy as np
import pytest

from skregion.codec import (
    Codebook,
    CodecError,
    DecodeAmbiguous,
    DecodeNone,
    EncoderNoSequence,
    InfeasibleRatesError,
    ProtocolError,
    TypicalityParams,
    WiretapAmbiguous,
    WiretapNone,
    backward_decode,
    backward_encode,
    build_forward_codebooks,
    dump_codebook,
    forward_decode,
    forward_encode,
    jointly_typical,
    typical_sequences,
    wiretap_decode,
)
from skregion import codec
from skregion._lanes import GeneratorLanes
from skregion.pmf import Channel, JointPmf, VariableId
from skregion.region import AuxSystem
from skregion.sim import _Instance, broadcast_backward_preset, broadcast_forward_preset, sample_sources
from skregion.sources import broadcast_source, identity_source, independent_source

GOLDEN_DUMP = (
    "n=3 |S|=2 bins=2x4x1 seed=42\n"
    "000 0 0 0\n"
    "001 0 3 0\n"
    "010 1 0 0\n"
    "011 1 2 0\n"
    "100 0 1 0\n"
    "101 1 3 0\n"
    "110 0 2 0\n"
    "111 1 1 0\n"
)


def bit_marginal(p1=0.5):
    return JointPmf((VariableId("S", 2),), [1 - p1, p1])


def identity_aux():
    return AuxSystem.forward(
        identity_source(),
        Channel.identity("X1", 2, "S"), Channel.constant("T", "X2", 2),
        Channel.constant("U", "S", 2), Channel.constant("V", "T", 1))


# ---------------------------------------------------------------------------
# Typical sets
# ---------------------------------------------------------------------------

def test_typical_uniform_bit_eps1_is_everything():
    seqs = typical_sequences(bit_marginal(), TypicalityParams(4, 1.0))
    assert len(seqs) == 16


def test_typical_deterministic_letter():
    det = JointPmf((VariableId("S", 3),), [0.0, 1.0, 0.0])
    seqs = typical_sequences(det, TypicalityParams(5, 0.5))
    assert len(seqs) == 1
    assert (seqs[0] == 1).all()


def test_typical_bern_quarter_counts():
    # |f - 0.25| <= 0.5 * 0.25 means between 1 and 3 ones at n = 8
    seqs = typical_sequences(bit_marginal(0.25), TypicalityParams(8, 0.5))
    ones = seqs.sum(axis=1)
    assert ones.min() == 1 and ones.max() == 3
    from math import comb
    assert len(seqs) == comb(8, 1) + comb(8, 2) + comb(8, 3)


def test_typical_lexicographic_order():
    seqs = typical_sequences(bit_marginal(), TypicalityParams(3, 1.0))
    codes = [int("".join(map(str, s)), 2) for s in seqs]
    assert codes == sorted(codes)


def test_jointly_typical_correlated_pair():
    pair = JointPmf((VariableId("S", 2), VariableId("X", 2)),
                    [[0.5, 0.0], [0.0, 0.5]])
    params = TypicalityParams(6, 1.0)
    s = np.array([0, 1, 1, 0, 1, 0])
    assert jointly_typical({"S": s, "X": s}, pair, params)
    bad = s.copy()
    bad[0] ^= 1  # hits the zero-probability off-diagonal cell
    assert not jointly_typical({"S": s, "X": bad}, pair, params)


def test_jointly_typical_e3_triple_frequency_rule():
    e3 = broadcast_source("X3", 0.25, 0.25)
    params = TypicalityParams(8, 1.0)
    x3 = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    x1 = x3.copy(); x1[0] ^= 1; x1[4] ^= 1   # two flips: matches 0.25 * 8 = 2
    x2 = x3.copy(); x2[1] ^= 1; x2[5] ^= 1
    seqs = {"X1": x1, "X2": x2, "X3": x3}
    # direct frequency-rule oracle
    counts = {}
    for i in range(8):
        w = (x1[i], x2[i], x3[i])
        counts[w] = counts.get(w, 0) + 1
    expected = all(
        abs(counts.get(tuple(idx), 0) / 8 - e3.table[tuple(idx)])
        <= 1.0 * e3.table[tuple(idx)] + 1e-12
        for idx in np.ndindex(2, 2, 2)
    )
    assert jointly_typical(seqs, e3, params) == expected


def test_jointly_typical_length_mismatch():
    pair = JointPmf((VariableId("S", 2), VariableId("X", 2)), [[0.25] * 2] * 2)
    with pytest.raises(Exception):
        jointly_typical({"S": np.zeros(4, int), "X": np.zeros(5, int)},
                        pair, TypicalityParams(4, 1.0))


_SINGLE_TRIAL = {
    "forward_encode": lambda inst, block: forward_encode(
        1, block, inst.cb1, inst.full, inst.enc_params, np.random.default_rng(0)),
    "forward_decode": lambda inst, block: forward_decode(
        block, (0, 0, 0, 0), inst.cb1, inst.cb2, inst.full, inst.dec_params),
    "backward_encode": lambda inst, block: backward_encode(
        block, inst.cb1, inst.cb2, inst.full, inst.enc_params, np.random.default_rng(0)),
    "backward_decode": lambda inst, block: backward_decode(
        1, block, 0, 0, inst.cb1, inst.full, inst.dec_params),
    "wiretap_decode": lambda inst, block: wiretap_decode(
        *inst.cb1.triples[0, :2].tolist(), block, inst.cb1.u_codebook[0], inst.cb1,
        inst.full, inst.dec_params),
}


@pytest.mark.parametrize("length", [1, 5, 7])
@pytest.mark.parametrize("name", sorted(_SINGLE_TRIAL))
def test_single_trial_refuses_wrong_block_length(name, length):
    # a block of the wrong length is refused at the typicality kernel, not
    # broadcast into a symbol repeated n times or failed as a protocol error
    make = broadcast_backward_preset if name.startswith("backward") else broadcast_forward_preset
    inst = _Instance(make(6, seeds=(1,)), 1)
    with pytest.raises(CodecError, match="need length n=6") as info:
        _SINGLE_TRIAL[name](inst, np.zeros(length, dtype=np.int8))
    assert not isinstance(info.value, ProtocolError)


# ---------------------------------------------------------------------------
# Codebook construction
# ---------------------------------------------------------------------------

def test_forward_codebook_counts_and_balance():
    aux = identity_aux()
    params = TypicalityParams(4, 1.0)
    cb1, cb2 = build_forward_codebooks(aux.full, params, 0.25, 0.0, seed=5)
    assert cb1.size == 16
    assert cb1.n_key == 2
    counts = np.bincount(cb1.triples[:, 0] * cb1.n_col + cb1.triples[:, 1],
                         minlength=cb1.n_key * cb1.n_col)
    assert counts.max() - counts.min() <= 1


def test_forward_codebook_deterministic_in_seed():
    aux = identity_aux()
    params = TypicalityParams(6, 1.0)
    a1, _ = build_forward_codebooks(aux.full, params, 0.5, 0.0, seed=11)
    a2, _ = build_forward_codebooks(aux.full, params, 0.5, 0.0, seed=11)
    b1, _ = build_forward_codebooks(aux.full, params, 0.5, 0.0, seed=12)
    assert (a1.triples == a2.triples).all()
    assert (a1.u_codebook == a2.u_codebook).all()
    assert not (a1.triples == b1.triples).all()


def test_e6_identity_codebook_balance_all_levels():
    e6 = broadcast_source("X2", 0.25, 0.25)
    aux = AuxSystem.forward(
        e6, Channel.identity("X1", 2, "S"), Channel.identity("X2", 2, "T"),
        Channel.constant("U", "S", 2), Channel.constant("V", "T", 2))
    params = TypicalityParams(8, 1.0)
    cb1, _ = build_forward_codebooks(aux.full, params, 0.05, 0.05, seed=3)
    col_sizes = np.bincount(cb1.triples[:, 1], minlength=cb1.n_col)
    assert col_sizes.max() - col_sizes.min() <= 1
    for col in range(cb1.n_col):
        members = cb1.column(col)
        row_sizes = np.bincount(cb1.triples[members, 0], minlength=cb1.n_key)
        assert row_sizes.max() - row_sizes.min() <= 1
    cells = np.bincount(cb1.triples[:, 0] * cb1.n_col + cb1.triples[:, 1],
                        minlength=cb1.n_key * cb1.n_col)
    assert cells.max() - cells.min() <= 1


def test_triple_bijection_round_trip():
    aux = identity_aux()
    cb1, _ = build_forward_codebooks(aux.full, TypicalityParams(5, 1.0), 0.4, 0.0, seed=2)
    for idx in range(cb1.size):
        k, kp, kpp = cb1.triple_of(idx)
        seq = cb1.sequence_of(k, kp, kpp)
        assert (seq == cb1.sequences[idx]).all()


def test_rate_accounting_bounds():
    aux = identity_aux()
    cb1, _ = build_forward_codebooks(aux.full, TypicalityParams(7, 1.0), 0.3, 0.0, seed=9)
    product = cb1.n_key * cb1.n_col * cb1.max_cell
    assert product >= cb1.size
    assert cb1.n_key * cb1.n_col * (cb1.max_cell - 1) < cb1.size


def test_infeasible_key_rate_raises():
    aux = identity_aux()
    with pytest.raises(InfeasibleRatesError) as exc:
        build_forward_codebooks(aux.full, TypicalityParams(4, 1.0), 1.5, 0.0, seed=1)
    assert "R'1" in str(exc.value)


def test_golden_dump_format():
    base = identity_source()
    aux = AuxSystem.forward(
        base, Channel.identity("X1", 2, "S"), Channel.constant("T", "X2", 2),
        Channel.constant("U", "S", 2), Channel.constant("V", "T", 1))
    cb1, _ = build_forward_codebooks(aux.full, TypicalityParams(3, 1.0), 1.0 / 3.0, 0.0, seed=42)
    assert dump_codebook(cb1) == GOLDEN_DUMP


# ---------------------------------------------------------------------------
# Forward encode / decode
# ---------------------------------------------------------------------------

def test_encode_identity_channel_is_singleton():
    inst_aux = identity_aux()
    params = TypicalityParams(6, 1.0)
    cb1, _ = build_forward_codebooks(inst_aux.full, params, 0.5, 0.0, seed=4)
    rng = np.random.default_rng(0)
    block = np.array([0, 1, 1, 0, 0, 1], dtype=np.int8)
    res = forward_encode(1, block, cb1, inst_aux.full, params, rng)
    assert (cb1.sequences[res.seq_index] == block).all()


def test_encode_no_sequence_for_atypical_block():
    aux = identity_aux()
    params = TypicalityParams(8, 0.5)  # all-ones block is outside the band
    cb1, _ = build_forward_codebooks(aux.full, params, 0.25, 0.0, seed=4)
    rng = np.random.default_rng(0)
    with pytest.raises(EncoderNoSequence):
        forward_encode(1, np.ones(8, dtype=np.int8), cb1, aux.full, params, rng)


def test_encoder_selection_uniform_chi_square():
    # noisy S channel: several candidates per block; selection must be uniform
    e6 = broadcast_source("X2", 0.25, 0.25)
    aux = AuxSystem.forward(
        e6, Channel.bsc("X1", "S", 0.1), Channel.constant("T", "X2", 2),
        Channel.constant("U", "S", 2), Channel.constant("V", "T", 1))
    params = TypicalityParams(8, 2.0)
    cb1, _ = build_forward_codebooks(aux.full, params, 0.05, 0.0, seed=8)
    block = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    # one coder for every draw; the public function runs the same coder
    encoder = codec._ForwardEncoder(1, cb1, aux.full, params)
    assert (forward_encode(1, block, cb1, aux.full, params, np.random.default_rng(77))
            == encoder(block, np.random.default_rng(77)))
    typical = encoder.typical(block[None])
    lane = GeneratorLanes([np.random.default_rng(77)])
    draws = 10000
    counts = {}
    for _ in range(draws):
        status, seq, _ = encoder.pick(typical, lane, np.zeros(1, dtype=np.intp))
        assert status[0] == codec.OK
        counts[int(seq[0])] = counts.get(int(seq[0]), 0) + 1
    m = len(counts)
    assert m > 1
    expected = draws / m
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 99.9th percentile of chi-square with m-1 dof, via Wilson-Hilferty
    dof = m - 1
    cutoff = dof * (1 - 2 / (9 * dof) + 3.09 * (2 / (9 * dof)) ** 0.5) ** 3
    assert chi2 < cutoff


def test_decode_noiseless_always_correct():
    aux = identity_aux()
    params = TypicalityParams(6, 1.0)
    cb1, cb2 = build_forward_codebooks(aux.full, params, 0.5, 0.0, seed=6)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x1, x2, x3 = sample_sources(identity_source(), 6, rng)
        e1 = forward_encode(1, x1, cb1, aux.full, params, rng)
        e2 = forward_encode(2, x2, cb2, aux.full, params, rng)
        k_hat, l_hat = forward_decode(x3, (e1.col, e1.cover, e2.col, e2.cover),
                                      cb1, cb2, aux.full, params)
        assert k_hat == e1.key and l_hat == e2.key


def test_decode_ambiguous_with_duplicate_sequences():
    aux = identity_aux()
    params = TypicalityParams(4, 1.0)
    cb1, cb2 = build_forward_codebooks(aux.full, params, 0.25, 0.0, seed=6)
    block = np.array([0, 1, 0, 1], dtype=np.int8)
    # adversarial codebook: the same sequence appears twice in column 0
    seqs = np.stack([block, block])
    triples = np.array([[0, 0, 0], [1, 0, 0]])
    dup = Codebook("S", "U", seqs, triples, 2, 1, cb1.u_codebook[:1], cb1.margins, 0)
    with pytest.raises(DecodeAmbiguous):
        forward_decode(block, (0, 0, 0, 0), dup, cb2, aux.full, params)


def test_decode_error_rate_below_bound_at_half_margin():
    # seeded vector: quarter-noise tap, noiseless key leg, n = 8
    cfg = broadcast_forward_preset(8, trials=300, seeds=(1,))
    inst = _Instance(cfg, 1)
    rng = np.random.default_rng(123)
    errs = 0
    trials = 300
    for _ in range(trials):
        x1, x2, x3 = sample_sources(cfg.base, 8, rng)
        try:
            e1 = forward_encode(1, x1, inst.cb1, inst.full, inst.enc_params, rng)
            e2 = forward_encode(2, x2, inst.cb2, inst.full, inst.enc_params, rng)
            k_hat, _ = forward_decode(x3, (e1.col, e1.cover, e2.col, e2.cover),
                                      inst.cb1, inst.cb2, inst.full, inst.dec_params)
            if k_hat != e1.key:
                errs += 1
        except (EncoderNoSequence, DecodeNone, DecodeAmbiguous):
            errs += 1
    assert errs / trials < 0.2


def test_decoder_error_non_increasing_in_n():
    rates = {}
    for n in (4, 6, 8):
        cfg = broadcast_forward_preset(n, trials=400, seeds=(1,))
        inst = _Instance(cfg, 1)
        rng = np.random.default_rng(55)
        errs = 0
        for _ in range(400):
            x1, x2, x3 = sample_sources(cfg.base, n, rng)
            try:
                e1 = forward_encode(1, x1, inst.cb1, inst.full, inst.enc_params, rng)
                e2 = forward_encode(2, x2, inst.cb2, inst.full, inst.enc_params, rng)
                k_hat, _ = forward_decode(x3, (e1.col, e1.cover, e2.col, e2.cover),
                                          inst.cb1, inst.cb2, inst.full, inst.dec_params)
                if k_hat != e1.key:
                    errs += 1
            except (EncoderNoSequence, DecodeNone, DecodeAmbiguous):
                errs += 1
        rates[n] = errs / 400
    assert rates[4] >= rates[6] >= rates[8]


# ---------------------------------------------------------------------------
# Backward strategy
# ---------------------------------------------------------------------------

def test_backward_noiseless_user1_exact():
    # whenever user 3 encodes, user 1 (whose leg is noiseless) decodes exactly
    cfg = broadcast_backward_preset(6, seeds=(2,))
    inst = _Instance(cfg, 2)
    rng = np.random.default_rng(3)
    decoded = 0
    for _ in range(100):
        x1, x2, x3 = sample_sources(cfg.base, 6, rng)
        try:
            es, et = backward_encode(x3, inst.cb1, inst.cb2, inst.full, inst.enc_params, rng)
        except EncoderNoSequence:
            continue  # atypical x3 block: a counted protocol error, not a decode error
        k_hat = backward_decode(1, x1, es.col, es.cover, inst.cb1, inst.full, inst.dec_params)
        assert k_hat == es.key
        decoded += 1
    assert decoded > 80


def test_backward_constant_t_trivial_user2():
    cfg = broadcast_backward_preset(6, seeds=(2,))
    inst = _Instance(cfg, 2)
    rng = np.random.default_rng(4)
    x1, x2, x3 = sample_sources(cfg.base, 6, rng)
    es, et = backward_encode(x3, inst.cb1, inst.cb2, inst.full, inst.enc_params, rng)
    assert et.key == 0 and et.col == 0
    l_hat = backward_decode(2, x2, et.col, et.cover, inst.cb2, inst.full, inst.dec_params)
    assert l_hat == 0


def test_backward_error_rate_below_bound():
    cfg = broadcast_backward_preset(8, seeds=(1,))
    inst = _Instance(cfg, 1)
    rng = np.random.default_rng(31)
    errs1 = errs2 = 0
    trials = 300
    for _ in range(trials):
        x1, x2, x3 = sample_sources(cfg.base, 8, rng)
        try:
            es, et = backward_encode(x3, inst.cb1, inst.cb2, inst.full, inst.enc_params, rng)
        except EncoderNoSequence:
            errs1 += 1
            errs2 += 1
            continue
        try:
            if backward_decode(1, x1, es.col, es.cover, inst.cb1, inst.full,
                               inst.dec_params) != es.key:
                errs1 += 1
        except (DecodeNone, DecodeAmbiguous):
            errs1 += 1
        try:
            if backward_decode(2, x2, et.col, et.cover, inst.cb2, inst.full,
                               inst.dec_params) != et.key:
                errs2 += 1
        except (DecodeNone, DecodeAmbiguous):
            errs2 += 1
    assert errs1 / trials < 0.2
    assert errs2 / trials < 0.2


# ---------------------------------------------------------------------------
# Wiretap decoding (residual-index resolution)
# ---------------------------------------------------------------------------

def test_wiretap_singleton_cell_returns_when_typical():
    cfg = broadcast_forward_preset(8, flip_tap=0.45, seeds=(1,))
    inst = _Instance(cfg, 1)
    singles = [(k, c) for k in range(inst.cb1.n_key) for c in range(inst.cb1.n_col)
               if len(inst.cb1.cell(k, c)) == 1]
    assert singles
    k, c = singles[0]
    seq = inst.cb1.sequences[inst.cb1.cell(k, c)[0]]
    params_w = TypicalityParams(8, 3.0)
    # observation equal to the sequence itself is certainly typical enough
    kpp = wiretap_decode(k, c, seq, inst.cb1.u_codebook[0], inst.cb1, inst.full,
                         params_w)
    assert kpp == inst.cb1.triple_of(inst.cb1.cell(k, c)[0])[2]


def test_wiretap_success_rate_above_bound():
    # weak-tap variant: residual cells are singletons, so the eavesdropper
    # resolves k'' almost surely -- exactly what keeps its equivocation small
    cfg = broadcast_forward_preset(8, flip_tap=0.45, seeds=(1,))
    inst = _Instance(cfg, 1)
    params_w = TypicalityParams(8, 2.0)
    rng = np.random.default_rng(9)
    succ = tot = 0
    for _ in range(500):
        x1, x2, x3 = sample_sources(cfg.base, 8, rng)
        try:
            e = forward_encode(1, x1, inst.cb1, inst.full, inst.enc_params, rng)
        except EncoderNoSequence:
            continue
        tot += 1
        try:
            kpp = wiretap_decode(e.key, e.col, x2, inst.cb1.u_codebook[e.cover],
                                 inst.cb1, inst.full, params_w)
            if kpp == inst.cb1.triple_of(e.seq_index)[2]:
                succ += 1
        except (WiretapNone, WiretapAmbiguous):
            pass
    assert succ / tot > 0.8


def test_wiretap_ambiguous_without_correlation():
    # one giant cell and an observation carrying no information about it
    aux = AuxSystem.forward(
        independent_source(),
        Channel.identity("X1", 2, "S"), Channel.constant("T", "X2", 2),
        Channel.constant("U", "S", 2), Channel.constant("V", "T", 1))
    params = TypicalityParams(8, 1.0)
    seqs = typical_sequences(aux.full.marginalize({"S"}), params)
    triples = np.zeros((len(seqs), 3), dtype=np.int64)
    triples[:, 2] = np.arange(len(seqs))
    big = Codebook("S", "U", seqs, triples, 1, 1, np.zeros((1, 8), dtype=np.int8),
                   None, 0)
    rng = np.random.default_rng(2)
    ambiguous = 0
    for _ in range(50):
        x2 = rng.integers(0, 2, size=8).astype(np.int8)
        try:
            wiretap_decode(0, 0, x2, big.u_codebook[0], big, aux.full, params)
        except WiretapAmbiguous:
            ambiguous += 1
        except WiretapNone:
            pass
    assert ambiguous > 35

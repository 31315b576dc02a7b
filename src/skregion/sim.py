"""End-to-end protocol trials and exact small-blocklength evaluation.

Monte Carlo mode samples i.i.d. source blocks, runs the random-binning
protocol, and estimates the reliability, leakage and key-uniformity
quantities empirically.  Exact mode enumerates every source block pair,
averages the encoder's selection distribution over its randomness for the
fixed seeded codebook, and computes the leakage mutual information and key
entropy exactly from the resulting joint.

Conventions shared by both modes: an encoder that finds no jointly typical
codeword (or no cover codeword) draws its key uniformly from its private
randomness and transmits index 0 on every public slot; the key(s) owned by
the failing encoder always count as reliability errors, the decoder still
runs on the transmitted indices, and the other key errs only if its own
decode fails or mismatches.  The leakage view for user 1's key is
(own source block, k', a) in the forward strategy and (block, k', l', a) in
the backward strategy; the adversary's private randomness is independent of
everything else and is omitted (adding an independent view variable changes
mutual information by < 1e-12, which the tests assert).
"""

import math
import time
from collections import Counter
# unused here; perfbench/tracer.py patches it and fails a traced run without it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, fields

import numpy as np

from ._lanes import GeneratorLanes, PCG64Lanes
from .codec import (
    AMBIGUOUS,
    FAILURES,
    NO_COVER,
    NO_SEQUENCE,
    NONE,
    OK,
    SequenceBits,
    TypicalityParams,
    build_backward_codebooks,
    build_forward_codebooks,
    _all_sequences,
    _BackwardDecoder,
    _BackwardEncoder,
    _ForwardDecoder,
    _ForwardEncoder,
    _groups,
    _KERNEL_WORDS,
    _unique_hits,
)
from .pmf import (
    BudgetExceededError,
    JointPmf,
    PmfError,
    _check_extension_budget,
    entry_budget,
    iid_extension,
)
from .region import (
    AuxSystem,
    _backward_channels,
    _forward_channels,
    backward_inner_point,
    forward_inner_point,
)
from .sources import broadcast_source, identity_source
from .tolerances import ENTROPY_ROUNDOFF

__all__ = [
    "EpsParams",
    "SimConfig",
    "SimReport",
    "sample_sources",
    "run_trials",
    "exact_leakage",
    "exact_report",
    "exact_view_joint",
    "check_definition1",
    "identity_preset",
    "broadcast_forward_preset",
    "broadcast_backward_preset",
]


#: First entry of every Monte Carlo trial's seed, (TRIAL_SEED, codebook seed, trial).
TRIAL_SEED = 2024


@dataclass(frozen=True)
class EpsParams:
    """Typicality tolerances: enc for codebooks and encoders, dec for decoders."""

    enc: float = 1.0
    dec: float = 1.0


@dataclass
class SimConfig:
    """What a protocol run reads, enough to reproduce it bit-exactly.

    The same config serves both modes: `run_trials` reads `trials`, exact
    mode ignores it.
    """

    base: JointPmf
    direction: str                 # "forward" | "backward"
    channels: tuple                # AuxSystem channel tuple for the direction
    n: int
    rate1: float
    rate2: float
    eps: EpsParams
    trials: int
    codebook_seeds: tuple

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise PmfError(f"direction must be forward|backward, got {self.direction!r}")
        if self.trials < 1:
            raise PmfError("trials must be >= 1")
        if not self.codebook_seeds:
            raise PmfError("need at least one codebook seed")
        self._aux = None

    @property
    def aux(self) -> AuxSystem:
        if self._aux is None:
            if self.direction == "forward":
                self._aux = AuxSystem.forward(self.base, *self.channels)
            else:
                self._aux = AuxSystem.backward(self.base, *self.channels)
        return self._aux


@dataclass
class SimReport:
    """Empirical or exact estimates of the six achievability quantities."""

    schema: int
    mode: str
    direction: str
    n: int
    trials: int
    seeds: list
    rate1: float
    rate2: float
    err_K: float | None
    err_L: float | None
    leak_K: float
    leak_L: float
    uniformity_gap_K: float
    uniformity_gap_L: float
    h_key_K: float
    h_key_L: float
    keyspace_K: float
    keyspace_L: float
    per_seed: list
    failures: dict
    warnings: list
    wall_clock: float = 0.0
    notes: tuple = ()  # why exact mode left a quantity null, one line each

    def to_json_dict(self) -> dict:
        """Every field but `wall_clock` and `notes`, which no output file holds."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("wall_clock", "notes")}

    def summary_line(self) -> str:
        def fmt(x):
            return "n/a" if x is None else f"{x:.6f}"
        return (f"err_K={fmt(self.err_K)} err_L={fmt(self.err_L)} "
                f"leak_K={fmt(self.leak_K)} leak_L={fmt(self.leak_L)}")


def _source_cdf(base: JointPmf) -> np.ndarray:
    """The CDF over the base pmf's flattened cells, built as `Generator.choice`
    builds it, after the checks `choice` applies to its probabilities."""
    p = base.table.reshape(-1)
    total = p.sum()
    if np.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw_sources(base: JointPmf, cdf: np.ndarray, n: int, lanes) -> tuple:
    """One i.i.d. block per source variable and lane, as (len(lanes), n) arrays.

    Each lane draws exactly what `rng.choice(cells, size=n, p=p)` draws, n
    uniforms looked up in the CDF, and is left in the same state; the lookup
    is made once for all lanes.
    """
    cells = cdf.searchsorted(lanes.random(n), side="right")
    return tuple(part.astype(np.int8) for part in np.unravel_index(cells, base.table.shape))


def sample_sources(base: JointPmf, n: int, rng: np.random.Generator) -> tuple:
    """One i.i.d. block per source variable, drawn jointly from the base pmf."""
    return tuple(part[0] for part in
                 _draw_sources(base, _source_cdf(base), n, GeneratorLanes([rng])))


def _plugin(pairs: Counter) -> tuple:
    """Plug-in (H(K), I(K; V)) in bits from the counts of (key, view) pairs.

    H(K) is the entropy of the pairs' key marginal; each sum adds its terms
    in first-seen order, which for the keys is the order of the trials.
    """
    total = sum(pairs.values())
    if total == 0:
        return 0.0, 0.0
    keys, views = {}, {}  # each key and view -> its number, in first-seen order
    k = np.fromiter((keys.setdefault(x, len(keys)) for x, _ in pairs), np.intp, len(pairs))
    v = np.fromiter((views.setdefault(y, len(views)) for _, y in pairs), np.intp, len(pairs))
    c = np.fromiter(pairs.values(), np.int64, len(pairs))
    left, right = np.bincount(k, c), np.bincount(v, c)
    p = left / total
    h = np.subtract.accumulate(np.concatenate(([0.0], p * np.log2(p))))[-1]
    terms = (c / total) * np.log2(c * total / (left[k] * right[v]))
    mi = np.add.accumulate(np.concatenate(([0.0], terms)))[-1]
    return float(h), float(max(0.0, mi))


def _block_values(blocks: np.ndarray) -> np.ndarray:
    """Each row of the C-ordered (B, n) int8 `blocks` as one n-byte value."""
    return blocks.view(f"V{blocks.shape[1]}")[:, 0]


# ---------------------------------------------------------------------------
# Monte Carlo trials
# ---------------------------------------------------------------------------

class _Tally:
    __slots__ = ("trials", "err_k", "err_l", "fails", "k_view", "l_view")

    def __init__(self):
        self.trials = 0
        self.err_k = 0
        self.err_l = 0
        self.fails = Counter()
        self.k_view = Counter()
        self.l_view = Counter()

    def sides(self, inst: "_Instance") -> tuple:
        """The plug-in estimates of both keys, as (user 1's side, user 2's side)."""
        n = inst.config.n
        out = []
        for cb, err, view in ((inst.cb1, self.err_k, self.k_view),
                              (inst.cb2, self.err_l, self.l_view)):
            keyspace = np.log2(cb.n_key) / n
            h, mi = _plugin(view)
            out.append(ExactSide(mi / n, max(0.0, keyspace - h / n), h / n, keyspace,
                                 err / self.trials))
        return tuple(out)

    def record(self, k, l, k_public: tuple, l_public: tuple) -> None:
        """One batch's keys and views, added in trial order.

        Each counter holds (key, view) pairs: `k_public` and `l_public` are
        tuples of per-trial arrays, what each key's eavesdropper sees.  Trial
        order keeps each counter's first-seen order, which fixes the order in
        which the estimates add.
        """
        k, l = k.tolist(), l.tolist()
        self.k_view.update(zip(k, zip(*(p.tolist() for p in k_public))))
        self.l_view.update(zip(l, zip(*(p.tolist() for p in l_public))))

    def count_failures(self, prefix: str, status: np.ndarray) -> None:
        """Count a stage's per-trial outcome codes under `prefix` + kind."""
        for code, count in enumerate(np.bincount(status, minlength=len(FAILURES)).tolist()):
            if code != OK and count:
                self.fails[prefix + _FAILURE_KINDS[code]] += count


#: The `failures` key suffix of each outcome code a trial counts; the key's
#: prefix names the coder stage (`enc1_`, `decode_`, `decode2_`, ...).
_FAILURE_KINDS = {NO_SEQUENCE: "no_sequence", NO_COVER: "no_cover", NONE: "none",
                  AMBIGUOUS: "ambiguous"}


def _announce(lanes, status: np.ndarray, encoder, hit: np.ndarray, cover) -> tuple:
    """(keys, columns, cover, failed) of one encoder's batch of picks.

    Per key the encoder draws, the key and column of the picked hit.  Where
    the encoder failed, columns and cover are 0 and each key is drawn from
    the trial's lane, in label order: the encoder's private randomness.
    """
    failed = status != OK
    rows = np.flatnonzero(failed)
    labels = encoder.labels(np.where(failed, 0, hit))
    labels[rows] = 0
    keys, cols = list(labels[:, 0::2].T), list(labels[:, 1::2].T)
    for key, n_key in zip(keys, encoder.dims[:-1:2]):
        key[rows] = lanes.integers(np.full(len(rows), n_key), rows)
    return keys, cols, np.where(failed, 0, cover), failed


class _Instance:
    """Codebooks plus everything derived from them once, for one codebook seed.

    Derived values (the coders with their typicality tests and packed
    codebooks, and exact mode's encoder outcomes and key decoders) are built on
    first use through `cached`, so a test may swap a codebook before use.
    """

    def __init__(self, config: SimConfig, seed: int):
        self.config = config
        self.seed = seed
        self.full = config.aux.full
        self.enc_params = TypicalityParams(config.n, config.eps.enc)
        self.dec_params = TypicalityParams(config.n, config.eps.dec)
        self._cache = {}
        self.refusals = {}  # user -> why exact mode leaves the user's key error null
        build = (build_forward_codebooks if config.direction == "forward"
                 else build_backward_codebooks)
        self.cb1, self.cb2 = build(self.full, self.enc_params, config.rate1, config.rate2, seed)

    def cached(self, key, compute, *args):
        """`compute(*args)`, computed once per instance and key."""
        if key not in self._cache:
            self._cache[key] = compute(*args)
        return self._cache[key]

    def coders(self) -> tuple:
        """(user 1's encoder, user 2's encoder, user 3's decoder) in the forward
        strategy; (user 3's encoder, user 1's decoder, user 2's decoder) in the
        backward one."""
        return self.cached("coders", self._build_coders)

    def encoder(self, user: int):
        """The encoder that draws `user`'s key: the user's own forward encoder,
        or user 3's backward one."""
        return self.coders()[user - 1 if self.config.direction == "forward" else 0]

    def _build_coders(self) -> tuple:
        full, enc, dec = self.full, self.enc_params, self.dec_params
        if self.config.direction == "forward":
            return (_ForwardEncoder(1, self.cb1, full, enc),
                    _ForwardEncoder(2, self.cb2, full, enc),
                    _ForwardDecoder(self.cb1, self.cb2, full, dec))
        return (_BackwardEncoder(self.cb1, self.cb2, full, enc),
                _BackwardDecoder(1, self.cb1, full, dec),
                _BackwardDecoder(2, self.cb2, full, dec))

    def batch_trials(self) -> int:
        """Trials per batch: the most for which each kernel call of a batch tests
        at most `_KERNEL_WORDS` (candidate, trial) pairs, and at least one.

        One trial's kernel call tests at most |cb1| x |cb2| candidates (the
        backward pair mask; a forward encoder or joint decoder tests fewer) or
        every cover codeword.  This bounds memory; results do not depend on it.
        """
        cands = max(self.cb1.size * self.cb2.size, len(self.cb1.u_codebook))
        return max(1, _KERNEL_WORDS // cands)

    def run_batch(self, cdf: np.ndarray, lanes, tally: _Tally) -> None:
        """One trial per lane of `lanes`, run in array stages over the batch.

        Each stage makes one kernel call for the whole batch (or one per
        group of trials announcing the same columns) and then draws from
        every trial's lane at once; each lane draws in the order of a single
        trial.
        """
        cfg = self.config
        x1, x2, x3 = _draw_sources(cfg.base, cdf, cfg.n, lanes)
        tally.trials += len(lanes)
        if cfg.direction == "forward":
            self._forward_batch(lanes, tally, x1, x2, x3)
        else:
            self._backward_batch(lanes, tally, x1, x2, x3)

    def _forward_batch(self, lanes, tally, x1, x2, x3):
        encode1, encode2, decode = self.coders()
        rows = np.arange(len(x1))
        sent = []
        for user, encode, blocks in ((1, encode1, x1), (2, encode2, x2)):
            status, hit, cover = encode.pick(encode.typical(blocks), lanes, rows)
            tally.count_failures(f"enc{user}_", status)
            sent.append(_announce(lanes, status, encode, hit, cover))
        ((k,), (kp,), a, failed_k), ((l,), (lp,), b, failed_l) = sent
        tally.record(k, l, (kp, a, _block_values(x2)), (lp, b, _block_values(x1)))

        status, k_hat, l_hat = decode.resolve(x3, kp, a, lp, b)
        tally.count_failures("decode_", status)
        wrong = status != OK
        tally.err_k += int((failed_k | wrong | (k_hat != k)).sum())
        tally.err_l += int((failed_l | wrong | (l_hat != l)).sum())

    def _backward_batch(self, lanes, tally, x1, x2, x3):
        encode, decode1, decode2 = self.coders()
        status, hit, cover = encode.pick(encode.typical(x3), lanes, np.arange(len(x3)))
        tally.count_failures("enc3_", status)
        # a failed encoding draws both keys from user 3's private randomness, and both err
        (k, l), (kp, lp), a, failed = _announce(lanes, status, encode, hit, cover)
        tally.record(k, l, (kp, lp, a, _block_values(x2)), (kp, lp, a, _block_values(x1)))
        tally.err_k += int(failed.sum())
        tally.err_l += int(failed.sum())

        # the decoders run on the transcripts of successful encodings only
        live = ~failed
        for user, decode, blocks, key, col in ((1, decode1, x1, k, kp), (2, decode2, x2, l, lp)):
            status, key_hat = decode.resolve(blocks[live], col[live], a[live])
            tally.count_failures(f"decode{user}_", status)
            errors = int(((status != OK) | (key_hat != key[live])).sum())
            if user == 1:
                tally.err_k += errors
            else:
                tally.err_l += errors


def run_trials(config: SimConfig) -> SimReport:
    """Monte Carlo protocol runs, averaged over the configured codebook seeds.

    Deterministic given the seed list: trial t of codebook seed `seed` draws
    from the stream of `np.random.default_rng(SeedSequence([TRIAL_SEED,
    seed, t]))`.  Trials run in batches of `_Instance.batch_trials`, whose
    streams `PCG64Lanes` replays as arrays; batching leaves every trial's
    draws unchanged.
    """
    start = time.perf_counter()
    cdf = _source_cdf(config.base)
    per_seed = []
    fails = Counter()
    for seed in config.codebook_seeds:
        inst = _Instance(config, seed)
        tally = _Tally()
        step = inst.batch_trials()
        for first in range(0, config.trials, step):
            lanes = PCG64Lanes((TRIAL_SEED, seed), range(first, min(first + step, config.trials)))
            inst.run_batch(cdf, lanes, tally)
        per_seed.append(_seed_row(seed, *tally.sides(inst)))
        fails.update(tally.fails)
    return _report(config, "mc", per_seed, dict(sorted(fails.items())), _margin_warnings(inst),
                   start)


def _margin_warnings(inst: _Instance) -> list:
    """The reliability conditions that the instance's binning violates."""
    out = []
    for label, cb in (("user 1", inst.cb1), ("user 2", inst.cb2)):
        for cond, slack in cb.margins.items():
            if slack < -ENTROPY_ROUNDOFF:
                out.append(f"{label}: reliability condition {cond} violated by {-slack:.6f} bits")
    return out


def _seed_row(seed: int, k_side: "ExactSide", l_side: "ExactSide") -> dict:
    """One `per_seed` entry of a report from both keys' quantities."""
    row = {"seed": seed}
    for suffix, side in (("K", k_side), ("L", l_side)):
        row.update((f"{q}_{suffix}", getattr(side, q)) for q in _QUANTITIES)
    return row


def _report(config: SimConfig, mode: str, per_seed: list, failures: dict, warnings: list,
            start: float) -> SimReport:
    """The report of `mode` ("mc" or "exact"): each quantity averaged over the
    seeds' rows, or None if a row lacks it."""
    def avg(key):
        vals = [row[key] for row in per_seed]
        if any(v is None for v in vals):
            return None
        return float(np.mean(vals))

    return SimReport(
        schema=1, mode=mode, direction=config.direction, n=config.n,
        trials=config.trials if mode == "mc" else 0,
        seeds=list(config.codebook_seeds),
        rate1=config.rate1, rate2=config.rate2,
        **{f"{q}_{suffix}": avg(f"{q}_{suffix}") for q in _QUANTITIES for suffix in "KL"},
        per_seed=per_seed, failures=failures,
        warnings=warnings, wall_clock=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

#: Most (source block, codeword) pairs one encoder `pair_mask` call covers
#: in exact mode.  Bounds the memory of its result and temporaries; results
#: do not depend on it.
_CHUNK_PAIRS = 1 << 19


@dataclass(frozen=True)
class _OutcomeTable:
    """An encoder's successful outcomes, block by block.

    The cells of block b are rows start[b]:start[b + 1], in increasing order
    of (*labels, cover): the announced labels and cover index, with `weight`
    the probability of announcing them given the block.
    """

    start: np.ndarray    # (blocks + 1,) offsets
    labels: np.ndarray   # (cells, L)
    cover: np.ndarray    # (cells,)
    weight: np.ndarray   # (cells,)

    def __len__(self) -> int:
        return len(self.start) - 1

    def blocks(self) -> np.ndarray:
        """The block of each cell."""
        return np.repeat(np.arange(len(self)), np.diff(self.start))


def _unique(values: np.ndarray) -> tuple:
    """`np.unique(values, return_index=True, return_inverse=True)` of a 1-D
    array: its sorted distinct values, the first index of each and the
    position of each entry among them.  One stable sort, not `np.unique`,
    whose first call imports numpy.ma."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _weigh_outcomes(chunks, dims: tuple) -> tuple:
    """Per-block encoder outcome distributions plus encoder-failure mass.

    `chunks` yields consecutive chunks of blocks, in block order, as
    (blocks, hit_block, labels, n_covers, covers): the chunk's block count;
    per typical hit, in block order and each block's hit order, its block
    within the chunk, its label row and its number of covers; and the
    covers of every hit, hit after hit, each hit's in increasing order.  The
    encoder draws a hit uniformly, then a cover uniformly among the hit's
    covers, and announces (*label, cover), whose columns `dims` bounds.

    Returns (table, fail): the `_OutcomeTable` of the successful encodings,
    whose weights in block b sum to 1 - fail[b], the probability that the
    encoder finds no hit, or a hit with no cover.  Every weight and missed
    mass is summed from 0.0 in hit, then cover order (`np.add.at` applies
    repeated indices in turn), as a loop over each block's hits sums it.
    """
    counts, labels, covers, weights, fails = [], [], [], [], []
    for blocks, hit_block, hit_labels, n_covers, hit_covers in chunks:
        n_hits = np.bincount(hit_block, minlength=blocks)
        missed = np.zeros(blocks)
        lost = hit_block[n_covers == 0]
        np.add.at(missed, lost, 1.0 / n_hits[lost])
        missed[n_hits == 0] = 1.0
        # one entry per (hit, cover), merged into cells sorted as (block, *label, cover)
        block = np.repeat(hit_block, n_covers)
        label = np.repeat(hit_labels, n_covers, axis=0)
        share = 1.0 / n_hits[block] / np.repeat(n_covers, n_covers)
        key = np.ravel_multi_index((block, *label.T, hit_covers), (blocks, *dims))
        _, first, cell_of = _unique(key)
        weight = np.zeros(len(first))
        np.add.at(weight, cell_of, share)
        counts.append(np.bincount(block[first], minlength=blocks))
        labels.append(label[first])
        covers.append(hit_covers[first])
        weights.append(weight)
        fails.append(missed)
    start = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    table = _OutcomeTable(start, np.concatenate(labels), np.concatenate(covers),
                          np.concatenate(weights))
    return table, np.concatenate(fails)


def _spans(first: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The ranges first[h]:first[h] + count[h], concatenated in order."""
    ends = np.cumsum(count)
    return np.repeat(first - ends + count, count) + np.arange(count.sum())


def _encoder_outcomes(encoder, n: int) -> tuple:
    """`_weigh_outcomes` of `encoder` over every length-n block of its source.

    The blocks are tested against every hit a chunk of blocks at a time;
    the cover table tests each hit's covers once, when a chunk first hits it.
    """
    card = encoder.test.cards[encoder.src]
    blocks = _all_sequences(card, n)
    step = max(1, _CHUNK_PAIRS // encoder.size)

    def chunks():
        for start in range(0, len(blocks), step):
            typical = encoder.typical(blocks[start:start + step])
            hit_block, hit = np.divmod(np.flatnonzero(typical), encoder.size)
            count, first = encoder.covers(hit)
            yield (len(typical), hit_block, encoder.labels(hit), count,
                   encoder.cover_idx[_spans(first, count)])

    return _weigh_outcomes(chunks(), encoder.dims)


def _encoder_outcomes_forward(inst: _Instance, user: int) -> tuple:
    """The outcomes of `user`'s forward encoder, labels (k, k')."""
    return _encoder_outcomes(inst.coders()[user - 1], inst.config.n)


def _encoder_outcomes_backward(inst: _Instance) -> tuple:
    """The outcomes of user 3's backward encoder, labels (k, k', l, l')."""
    return _encoder_outcomes(inst.coders()[0], inst.config.n)


def _outcomes(inst: _Instance, user: int) -> tuple:
    """The outcomes of the encoder that draws `user`'s key (user 3's in the
    backward strategy), computed once."""
    if inst.config.direction == "backward":
        return inst.cached(("outcomes", 3), _encoder_outcomes_backward, inst)
    return inst.cached(("outcomes", user), _encoder_outcomes_forward, inst, user)


#: Most entries of a block-pair law that one chunk of its rows holds in
#: exact mode (a chunk holds at least one row): 1 MiB, within L2.  Also
#: `_h`'s block.  Results do not depend on it.
_CHUNK_ROW_ENTRIES = 1 << 17


def _extend_rows(rows: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Append one position: entry (r*c1 + x, s*c2 + y) is rows[r, s] * pair[x, y]."""
    (r, s), (c1, c2) = rows.shape, pair.shape
    out = np.empty((r, c1, s, c2))
    # one scalar product per cell of `pair`: long inner loops, unlike a broadcast
    for x in range(c1):
        for y in range(c2):
            np.multiply(rows, pair[x, y], out=out[:, x, :, y])
    return out.reshape(r * c1, s * c2)


def _pair_table(base: JointPmf, first: str, second: str) -> np.ndarray:
    """The one-position law p(first, second) as a (c1, c2) table."""
    pair = base.marginalize({first, second})
    return pair.table if pair.names == (first, second) else pair.table.T


def _pair_block_rows(base: JointPmf, first: str, second: str, n: int, needed=None):
    """The rows of p(first-block, second-block), a chunk at a time.

    Yields (first row, rows) with rows a (m, c2^n) slice of the (c1^n, c2^n)
    law, in row order.  Every entry is the left-to-right product over the
    positions that `iid_extension` forms, so the rows equal its table bit for
    bit; the table is refused above `entry_budget()`, as there.  Given the
    boolean per row `needed`, a chunk none of whose rows is needed is
    skipped.
    """
    table = _pair_table(base, first, second)
    c1, c2 = table.shape
    if n > 1:  # as in `iid_extension`, which returns the n = 1 law unchecked
        _check_extension_budget((c1, c2), n)
    # each chunk is one prefix of the first `head` positions, extended by the rest
    max_rows = max(1, _CHUNK_ROW_ENTRIES // c2 ** n)
    tail = 0
    while tail < n and c1 ** (tail + 1) <= max_rows:
        tail += 1
    head = n - tail
    for prefix in range(c1 ** head):
        start = prefix * c1 ** tail
        if needed is not None and not needed[start:start + c1 ** tail].any():
            continue
        rows = np.ones((1, 1))
        for pos in range(head):
            x = prefix // c1 ** (head - 1 - pos) % c1
            rows = _extend_rows(rows, table[x:x + 1])
        for _ in range(tail):
            rows = _extend_rows(rows, table)
        yield start, rows


def _support_rows(table: np.ndarray, n: int) -> tuple:
    """(single, at, mass) per row of the length-n block-pair law whose
    one-position law is the (c1, c2) `table`, without forming the rows.

    single[r]: whether row r has at most one nonzero entry, i.e.
    prod_i nnz(table[x_i, :]) <= 1 for its block x.  For such a row, at[r]
    is the column of that entry (any column when the row is zero) and
    mass[r] the entry itself, which is also the row's sum: the left-to-right
    product over the positions that `_extend_rows` forms.  Other rows' `at`
    and `mass` mean nothing.
    """
    c1, c2 = table.shape
    nnz = np.count_nonzero(table, axis=1)
    col = table.argmax(axis=1)  # entries are >= 0: the nonzero one, if one
    value = table[np.arange(c1), col]
    blocks = _all_sequences(c1, n)
    single = (nnz <= 1)[blocks].all(axis=1) | (nnz == 0)[blocks].any(axis=1)
    at = np.zeros(len(blocks), dtype=np.int64)
    mass = np.ones(len(blocks))
    for x in blocks.T:
        at *= c2
        at += col[x]
        mass *= value[x]
    return single, at, mass


def _fold_rows(out, target: np.ndarray, coef: np.ndarray, source: np.ndarray,
               rows: np.ndarray) -> None:
    """out[target[u]] += coef[u] * rows[source[u]] for u = 0, 1, ... in turn,
    `out` being a sequence of arrays (views) that a row broadcasts to.

    One full-width product and sum per update, in place: every array of
    `out` receives its updates in the order given.  Gathering, stacking and
    scattering the rows to vectorize the updates moves each row several
    times, and measured slower than these in-place row operations.
    """
    for t, c, s in zip(target.tolist(), coef.tolist(), source.tolist()):
        out[t] += c * rows[s]


def _masked_row_sums(rows: np.ndarray, source: np.ndarray, masks: np.ndarray,
                     kept: np.ndarray, mask_of: np.ndarray) -> np.ndarray:
    """rows[source[u]][masks[mask_of[u]]].sum() for every u, bit for bit;
    mask g keeps kept[g] entries.

    The rows whose masks keep the same number of entries are gathered into
    one contiguous (rows, kept) array and summed along its last axis, which
    numpy sums pairwise per row exactly as it sums the 1-D gather; a gather
    holds at most `_CHUNK_ROW_ENTRIES` entries (at least one row).
    """
    sums = np.empty(len(source))
    size_of = kept[mask_of]
    per = max(1, _CHUNK_ROW_ENTRIES // rows.shape[1])
    for size in _unique(size_of)[0].tolist():
        same = np.flatnonzero(size_of == size)
        for lo in range(0, len(same), per):
            u = same[lo:lo + per]
            picked = rows[source[u]][masks[mask_of[u]]]
            sums[u] = picked.reshape(len(u), size).sum(axis=1)
    return sums


@dataclass
class ExactSide:
    """One key's quantities for one codebook seed: exact in exact mode,
    plug-in estimates in Monte Carlo mode."""

    leak: float
    uniformity_gap: float
    h_key: float
    keyspace: float
    err: float | None


#: The per-key quantities: `ExactSide`'s fields, reported as `<name>_K` and
#: `<name>_L` in each `per_seed` row and, averaged, as `SimReport` fields.
_QUANTITIES = tuple(f.name for f in fields(ExactSide))


def _view_joint(inst: _Instance, user: int) -> np.ndarray:
    """Exact joint of (key, eavesdropper block, public indices) for `user`'s key.

    The public indices are (column, cover) in the forward strategy and
    (column 1, column 2, cover) in the backward one.  Encoder-failure mass
    is spread uniformly over the key axis at the fallback transcript (every
    index 0), matching the trial convention.
    """
    cfg = inst.config
    n = cfg.n
    encoder = inst.encoder(user)
    pos = 2 * encoder.users.index(user)  # the label column of `user`'s key
    n_key, public = encoder.dims[pos], (*encoder.dims[1:-1:2], encoder.dims[-1])
    other = "X2" if user == 1 else "X1"
    n_other = inst.full.variable(other).cardinality ** n
    size = n_key * n_other * math.prod(public)
    cap = entry_budget()
    if size > cap:  # before the encoder outcomes, which cost more than the check
        raise BudgetExceededError(f"exact view table needs {size} entries, budget {cap}")
    table, fail = _outcomes(inst, user)
    index = (table.labels[:, pos], *table.labels[:, 1::2].T, table.cover)
    # cell-major (key, public indices, block): each update adds one row
    joint = np.zeros((n_key, *public, n_other))
    n_cells = n_key * math.prod(public)
    # targets: each cell's row, then the fallback transcript (every key at index 0)
    targets = [*joint.reshape(n_cells, n_other), joint[(slice(None),) + (0,) * len(public)]]
    failed = np.flatnonzero(fail > 0.0)
    block, target, coef = _in_block_order(
        (table.blocks(), failed),
        (np.ravel_multi_index(index, (n_key, *public)), np.full(len(failed), n_cells)),
        (table.weight, fail[failed] / n_key))
    for start, rows in _pair_block_rows(cfg.base, encoder.src, other, n):
        lo, hi = np.searchsorted(block, (start, start + len(rows)))
        _fold_rows(targets, target[lo:hi], coef[lo:hi], block[lo:hi] - start, rows)
        del rows  # before the next chunk is formed
    # each key's (public..., block) slab to (block, public...), in place
    slabs = joint.reshape(n_key, -1)
    for slab in slabs:
        slab[:] = slab.reshape(-1, n_other).T.ravel()
    return slabs.reshape(n_key, n_other, *public)


def _in_block_order(block: tuple, *columns: tuple) -> tuple:
    """(block, *columns) of a table's cell updates followed by its fallback
    updates, each part in block order, merged into block order with each
    block's cell updates first."""
    block = np.concatenate(block)
    order = np.argsort(block, kind="stable")
    return (block[order], *(np.concatenate(column)[order] for column in columns))


def exact_view_joint(config: SimConfig, seed: int, user: int) -> np.ndarray:
    """Exact (key, block, public indices) joint for one codebook seed.

    Axes: key, eavesdropper source block code, then the public indices:
    column and cover index (forward), or both columns and the cover index
    (backward).
    """
    return _view_joint(_Instance(config, seed), user)


def _exact_side(inst: _Instance, user: int) -> ExactSide:
    cfg = inst.config
    n = cfg.n
    cb = inst.cb1 if user == 1 else inst.cb2
    leak, h_key = _mi_first_axis(_view_joint(inst, user))
    gap = max(0.0, (np.log2(cb.n_key) - h_key) / n)
    return ExactSide(leak / n, gap, h_key / n, np.log2(cb.n_key) / n,
                     _exact_key_error(inst, user))


class _RowDecoder:
    """`decoder(col, a)`: the key decoded from each observed block given
    column `col` and cover index `a`, or -1 where no candidate or more than
    one is typical; `decoder(col, a, at)` the same at the observed blocks
    numbered `at` only.

    The candidates are `cb`'s sequences of variable `var` in the column, as
    rows of the packed `sequences`; `fixed_of(a)` gives the test's other
    fixed sequences, which depend on `a` only through its cover codeword
    `cb.u_codebook[a]`.  So a decode is keyed by (col, codeword[a]), the
    first cover index of a's codeword.  A row over every block is computed
    once per key, and a decode at some blocks reads it where it exists.
    """

    def __init__(self, test, cb, var: str, sequences, obs: str, blocks, fixed_of):
        first = {}  # cover codeword -> its first cover index
        self.codeword = np.array([first.setdefault(u.tobytes(), a)
                                  for a, u in enumerate(cb.u_codebook)], dtype=np.int64)
        self.test, self.cb, self.var, self.sequences = test, cb, var, sequences
        self.obs, self.blocks, self.fixed_of = obs, blocks, fixed_of
        self._rows = {}

    def __call__(self, col: int, a: int, at=None) -> np.ndarray:
        key = (col, int(self.codeword[a]))
        if key in self._rows:
            return self._rows[key] if at is None else self._rows[key][at]
        if at is not None:
            return self._decode(*key, self.blocks[at])
        self._rows[key] = self._decode(*key, self.blocks)
        return self._rows[key]

    def _decode(self, col: int, a: int, blocks) -> np.ndarray:
        members = self.cb.column(col)
        ok = self.test.pair_mask(self.var, self.sequences[members], self.obs, blocks,
                                 self.fixed_of(a))
        status, which = _unique_hits(ok)
        return np.where(status == OK, self.cb.triples[members[which], 0], -1)


def _key_decoder(inst: _Instance, user: int):
    """(encoder source, decoder observation, `_RowDecoder`) of `user`'s key,
    or None where exact mode does not compute its error, with the reason in
    `inst.refusals[user]`.

    Forward, user 3's joint decoder of user 1's key, which needs constant T
    and V so that it depends on (k', a, x3) only; backward, user's own
    decoder.  Either way the error reads the rows of the (encoder source,
    decoder observation) block-pair law; None when that law exceeds
    `entry_budget()`, whether or not its rows are formed.
    """
    cfg = inst.config
    full = inst.full
    if cfg.direction == "forward":
        cards = {v: full.variable(v).cardinality for v in ("T", "V")}
        if max(cards.values()) > 1:
            inst.refusals[user] = ("user 3's joint decoder needs constant T and V, "
                                   f"got |T|={cards['T']}, |V|={cards['V']}")
            return None
        decoder = inst.coders()[2]
        src, obs, var, sequences = "X1", "X3", "S", decoder.seqs1
        cb = inst.cb1
        const = {"T": inst.cb2.sequences[0], "V": inst.cb2.u_codebook[0]}
    else:
        decoder = inst.coders()[user]
        src, obs, var, sequences = "X3", decoder.src, decoder.var, decoder.sequences
        cb = decoder.codebook
        const = {}
    card = full.variable(obs).cardinality
    size, cap = (full.variable(src).cardinality * card) ** cfg.n, entry_budget()
    if size > cap:
        inst.refusals[user] = f"exact ({src}, {obs}) block-pair law needs {size} entries, budget {cap}"
        return None
    blocks = SequenceBits(_all_sequences(card, cfg.n), card)
    return src, obs, _RowDecoder(decoder.test, cb, var, sequences, obs, blocks,
                                 lambda a: {**const, "U": cb.u_codebook[a]})


def _decoded_rows(decode_row, width: int, col: np.ndarray, cover: np.ndarray) -> tuple:
    """(decoded, decoded_of): `decode_row(c, a)`, of width `width`, for each
    distinct announced (c, a) = (col[u], cover[u]) in increasing order, and
    the row of each u."""
    stride = int(cover.max(initial=0)) + 1
    pairs, _, decoded_of = _unique(col * stride + cover)
    decoded = np.empty((len(pairs), width), dtype=np.int64)
    for g, (c, a) in enumerate(zip(*(part.tolist() for part in np.divmod(pairs, stride)))):
        decoded[g] = decode_row(c, a)
    return decoded, decoded_of


def _exact_key_error(inst: _Instance, user: int) -> float | None:
    """Exact probability that `user`'s key is decoded wrongly, or None.

    Encoder failures (the fallback transcript) count fully against the key;
    otherwise the decode depends only on the announced (column, cover) and
    the decoder's own block, so the (encoder source, decoder observation)
    block-pair law suffices.  This covers forward err_K and both backward
    errors; forward err_L is `_exact_err_l_forward`.

    The law's rows are read from its support.  A row with at most one
    nonzero entry (`_support_rows`) is never formed: its outcome cells
    weigh its one entry where the key decoded at that entry's block is
    wrong.  The other rows are streamed (`_pair_block_rows`), and their
    cells sum each row over the blocks where the decoded key is wrong
    (`_masked_row_sums`).  Each announced (column, cover codeword) is
    decoded by one kernel call: on every observed block if a streamed row
    announces it, else only on the blocks that carry its rows' mass.
    """
    cfg = inst.config
    if cfg.direction == "forward" and user == 2:
        return _exact_err_l_forward(inst)
    decoder = inst.cached(("decoder", user), _key_decoder, inst, user)
    if decoder is None:
        return None
    src, obs, decode = decoder
    table, fail = _outcomes(inst, user)
    encoder = inst.encoder(user)
    dims, pos = encoder.dims, 2 * encoder.users.index(user)  # `user`'s (key, column) labels
    col, cover, key = table.labels[:, pos + 1], table.cover, table.labels[:, pos]
    block = table.blocks()
    single, at, row_mass = _support_rows(_pair_table(cfg.base, src, obs), cfg.n)
    streamed = ~single[block]  # per cell: is its row streamed
    codes = col * dims[-1] + decode.codeword[cover]  # per cell: (column, cover codeword)
    full_rows = {}  # code -> the keys decoded at every observed block
    decoded = np.empty(len(block), dtype=np.int64)  # per cell: the key decoded at `at`
    for code, cells in _groups(codes):
        c, a = divmod(code, dims[-1])
        if streamed[cells].any():
            full_rows[code] = decode(c, a)
            decoded[cells] = full_rows[code][at[block[cells]]]
        else:
            blocks, _, where = _unique(at[block[cells]])
            decoded[cells] = decode(c, a, blocks)[where]
    terms = table.weight * np.where(decoded != key, row_mass[block], 0.0)
    if not single.all():  # the other rows' mass and terms, from the stream
        dense = np.flatnonzero(streamed)
        # one mask per (column, cover, key) announced: where the decoded key differs
        _, first, group_of = _unique(np.ravel_multi_index(
            (col[dense], cover[dense], key[dense]), (dims[pos + 1], dims[-1], dims[pos])))
        wrong = np.empty((len(first), len(decode.blocks)), dtype=bool)
        for h, (code, k) in enumerate(zip(codes[dense[first]].tolist(),
                                          key[dense[first]].tolist())):
            np.not_equal(full_rows[code], k, out=wrong[h])
        kept = wrong.sum(axis=1)
        dense_block = block[dense]
        for start, rows in _pair_block_rows(cfg.base, src, obs, cfg.n, ~single):
            end = start + len(rows)
            formed = ~single[start:end]
            row_mass[start:end][formed] = rows.sum(axis=1)[formed]
            lo, hi = np.searchsorted(dense_block, (start, end))
            u = dense[lo:hi]
            terms[u] = table.weight[u] * _masked_row_sums(
                rows, block[u] - start, wrong, kept, group_of[lo:hi])
            del rows
    # added one at a time in block order, after the encoder-failure mass
    return float(np.add.accumulate(np.concatenate(([row_mass @ fail], terms)))[-1])


def _exact_err_l_forward(inst: _Instance) -> float | None:
    """Exact forward err_L: user 2's encoder failures, plus user 1's decode
    failures where user 2's encoder succeeds.

    It reuses err_K's decoder (so T and V are constant).  The decode
    failures per (x1, x3) block pair need no rows; weighting them needs the
    dense (X1, X3) law when user 2's encoder never fails, or else the full
    block triple, which is skipped (None) above `entry_budget()`.
    """
    cfg = inst.config
    n = cfg.n
    decoder = inst.cached(("decoder", 1), _key_decoder, inst, 1)
    if decoder is None:
        inst.refusals[2] = inst.refusals[1]
        return None
    _, fail2 = _outcomes(inst, 2)
    no_fail2 = fail2.max() == 0.0
    cards = [inst.full.variable(v).cardinality for v in ("X1", "X2", "X3")]
    size, cap = math.prod(cards) ** n, entry_budget()
    if not no_fail2 and size > cap:
        inst.refusals[2] = f"exact block triple needs {size} entries, budget {cap}"
        return None
    dec_fail = _decode_failures(inst, decoder[2])
    if no_fail2:  # each chunk of (X1, X3) rows weighs dec_fail in place
        for start, rows in _pair_block_rows(cfg.base, "X1", "X3", n):
            part = dec_fail[start:start + len(rows)]
            np.multiply(rows, part, out=part)
            del rows
        return float(dec_fail.sum())
    triple = iid_extension(cfg.base, n).table
    err_l = float(np.einsum("abc,b->", triple, fail2))
    weight13 = np.einsum("abc,b->ac", triple, 1.0 - fail2)
    err_l += float((weight13 * dec_fail).sum())
    return err_l


def _decode_failures(inst: _Instance, decode_row) -> np.ndarray:
    """(x1 block, x3 block): the probability that user 3's decode of user 1's
    key fails (no or several candidates) given the block pair, over user 1's
    encoder outcomes, its fallback transcript included."""
    table, fail = _outcomes(inst, 1)
    failed = np.flatnonzero(fail > 0.0)
    zero = np.zeros(len(failed), dtype=np.int64)
    block, coef, col, cover = _in_block_order(
        (table.blocks(), failed), (table.weight, fail[failed]),
        (table.labels[:, 1], zero), (table.cover, zero))
    width = inst.full.variable("X3").cardinality ** inst.config.n
    decoded, decoded_of = _decoded_rows(decode_row, width, col, cover)
    dec_fail = np.zeros((len(table), width))
    _fold_rows(dec_fail, block, coef, decoded_of, (decoded == -1).astype(float))
    return dec_fail


def _h(p: np.ndarray) -> float:
    """Entropy in bits of the 1-D array `p`, which it overwrites: a block at
    a time, each positive x becomes x log2(x), moved left to a prefix in
    order, so one contiguous sum adds `q * log2(q)`, `q = p[p > 0]`."""
    size = 0
    for lo in range(0, len(p), _CHUNK_ROW_ENTRIES):
        part = p[lo:lo + _CHUNK_ROW_ENTRIES]
        keep = part > 0
        if not keep.all():  # a block with no zero cell is not copied
            part = part[keep]
        np.multiply(part, np.log2(part), out=p[size:size + len(part)])
        size += len(part)
    return float(-p[:size].sum())


def _mi_first_axis(joint: np.ndarray) -> tuple:
    """(I(K; V), H(K)) in bits of a joint whose first axis is K and whose
    other axes together are V; `_h` takes its entropy last, in place."""
    flat = joint.reshape(joint.shape[0], -1)
    hk = _h(flat.sum(axis=1))
    hv = _h(flat.sum(axis=0))
    total = _h(flat.reshape(-1))
    return max(0.0, hk + hv - total), hk


def exact_leakage(config: SimConfig) -> tuple:
    """Exact (leak_K bits/symbol, uniformity_gap_K, err_K or None).

    Averaged over the configured codebook seeds; the underlying joint of
    (K, eavesdropper view) is computed by enumerating all source blocks and
    averaging the encoder's selection distribution over its randomness.
    """
    sides = [_exact_side(_Instance(config, seed), 1) for seed in config.codebook_seeds]
    leak = float(np.mean([s.leak for s in sides]))
    gap = float(np.mean([s.uniformity_gap for s in sides]))
    errs = [s.err for s in sides]
    err = None if any(e is None for e in errs) else float(np.mean(errs))
    return leak, gap, err


def exact_report(config: SimConfig) -> SimReport:
    """Full SimReport from exact enumeration (both keys)."""
    start = time.perf_counter()
    per_seed = []
    notes = {}  # each distinct note once, in first-seen order
    for seed in config.codebook_seeds:
        inst = _Instance(config, seed)
        sides = _exact_side(inst, 1), _exact_side(inst, 2)
        per_seed.append(_seed_row(seed, *sides))
        for user, (name, side) in enumerate(zip(("err_K", "err_L"), sides), 1):
            if side.err is None:
                notes.setdefault(f"{name} not computed: {inst.refusals[user]}")
    report = _report(config, "exact", per_seed, {}, _margin_warnings(inst), start)
    report.notes = tuple(notes)
    return report


def check_definition1(report: SimReport, eps: float) -> dict:
    """The six achievability conditions at tolerance eps, as booleans."""
    def lt(x):
        return x is not None and x < eps
    return {
        "reliability_K": lt(report.err_K),
        "reliability_L": lt(report.err_L),
        "leakage_K": lt(report.leak_K),
        "leakage_L": lt(report.leak_L),
        "rate": (report.h_key_K > report.rate1 - eps
                 and report.h_key_L > report.rate2 - eps),
        "uniformity": (report.uniformity_gap_K < eps
                       and report.uniformity_gap_L < eps),
    }


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

#: Each preset's rate1 as a fraction of its auxiliary point's inner-bound r1.
_PRESET_RATE_FRACTION = 0.5


def identity_preset(n: int, *, trials: int = 1000, seeds=(1,)) -> SimConfig:
    """Noiseless sanity configuration: X1 = X3, independent X2, S = X1.

    Every sequence is typical (eps = 1 on a uniform bit), so the encoder
    never fails and end-to-end error is exactly zero.  rate1 is half the
    inner-bound point r1 = I(X1;X3) = 1 bit.
    """
    base = identity_source()
    aux_channels = _forward_channels(base)
    rate1 = _PRESET_RATE_FRACTION * 1.0
    return SimConfig(base, "forward", aux_channels, n, rate1, 0.0,
                     EpsParams(enc=1.0, dec=1.0), trials, tuple(seeds))


def broadcast_forward_preset(n: int, *, flip_tap: float = 0.25, trials: int = 1000,
                             seeds=(1,), eps_enc: float = 0.75) -> SimConfig:
    """Forward demo on the broadcast chain arranged with user 3 at the center.

    User 1 observes the center bit exactly (noiseless key leg) and user 2
    taps it through a BSC(flip_tap).  With a genuine typical set
    (eps_enc < 1) the dominant error is the encoder's typical-set miss,
    which decays with n by concentration; leakage to the tapped leg is
    nonzero and shrinks per symbol as the residual binning absorbs it.
    rate1 is half the inner-bound point's r1 at S = X1.
    """
    base = broadcast_source("X3", 0.0, flip_tap)
    aux_channels = _forward_channels(base)
    aux = AuxSystem.forward(base, *aux_channels)
    point = forward_inner_point(aux)
    rate1 = _PRESET_RATE_FRACTION * point.r1_max
    return SimConfig(base, "forward", aux_channels, n, rate1, 0.0,
                     EpsParams(enc=eps_enc, dec=1.0), trials, tuple(seeds))


def broadcast_backward_preset(n: int, *, flip_tap: float = 0.25, trials: int = 1000,
                              seeds=(1,), eps_enc: float = 0.75) -> SimConfig:
    """Backward demo: user 3 holds the center, S = X3, T constant.

    User 1's leg is noiseless, user 2 taps through BSC(flip_tap); user 2's
    key space is trivial by construction.  rate1 is half the inner-bound
    point's r1 at S = X3.
    """
    base = broadcast_source("X3", 0.0, flip_tap)
    aux_channels = _backward_channels(base)
    point = backward_inner_point(AuxSystem.backward(base, *aux_channels))
    rate1 = _PRESET_RATE_FRACTION * point.r1_max
    return SimConfig(base, "backward", aux_channels, n, rate1, 0.0,
                     EpsParams(enc=eps_enc, dec=1.0), trials, tuple(seeds))

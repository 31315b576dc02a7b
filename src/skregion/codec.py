"""Typical-set machinery and random-binning codebooks for both strategies.

Robust (strong) typicality with multiplicative tolerance is used throughout:
a tuple of length-n sequences is typical for a joint p when every joint cell
w satisfies |count_w / n - p_w| <= eps * p_w.  Cells with p_w = 0 must not
occur at all, which is what makes joint tests clean at small n.

A codebook enumerates the typical sequences of one key-carrying variable and
labels each with a triple (k, k', k''): k is the secret key (row), k' the
public column index, k'' the residual index inside the (k, k') cell.  Bin
counts are ceil(2^{n R}) with leftover sequences dealt round-robin, so every
bin level is balanced within one sequence.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._lanes import GeneratorLanes
from .pmf import BudgetExceededError, JointPmf, PmfError, entry_budget
from .tolerances import COUNT_FUZZ, ENTROPY_ROUNDOFF

__all__ = [
    "CodecError",
    "InfeasibleRatesError",
    "ProtocolError",
    "EncoderNoSequence",
    "EncoderNoCover",
    "DecodeError",
    "DecodeNone",
    "DecodeAmbiguous",
    "WiretapNone",
    "WiretapAmbiguous",
    "TypicalityParams",
    "EncodingResult",
    "Codebook",
    "JointTypicalityTest",
    "SequenceBits",
    "typical_sequences",
    "jointly_typical",
    "conditional_entropy",
    "build_forward_codebooks",
    "build_backward_codebooks",
    "forward_encode",
    "forward_decode",
    "backward_encode",
    "backward_decode",
    "wiretap_decode",
    "dump_codebook",
]

#: Rate slack of the cover codewords over the mutual information they cover.
COVER_SLACK = 0.05

#: Most uint64 words in one tile of the typicality kernel (candidate rows x
#: the other candidates x words per sequence; a tile holds at least one
#: row).  Bounds the kernel's word buffers; results do not depend on it.
#: The Monte Carlo batch size reads it too.
_KERNEL_WORDS = 1 << 16

#: Fewest (candidate, rest row) pairs for which the typicality kernel finds
#: the pairs that pass the zero cells of a pinned candidate by a join, not by
#: the OR of ANDs.  Below it the join's fixed cost of some twenty array calls
#: outweighs the ANDs it saves (crossover measured on a 2-core x86-64 host:
#: 4k to 16k pairs of one word).  Results do not depend on it.
_JOIN_PAIRS = 1 << 13


class CodecError(Exception):
    pass


class InfeasibleRatesError(CodecError):
    """Rate targets cannot be realized as a codebook at this blocklength."""


class ProtocolError(CodecError):
    """A per-trial protocol failure, counted as an error upstream."""


class EncoderNoSequence(ProtocolError):
    pass


class EncoderNoCover(ProtocolError):
    pass


class DecodeError(ProtocolError):
    pass


class DecodeNone(DecodeError):
    pass


class DecodeAmbiguous(DecodeError):
    pass


class WiretapNone(DecodeError):
    pass


class WiretapAmbiguous(DecodeError):
    pass


@dataclass(frozen=True)
class TypicalityParams:
    n: int
    eps: float

    def __post_init__(self):
        if self.n < 1:
            raise CodecError(f"blocklength must be >= 1, got {self.n}")
        if self.eps <= 0:
            raise CodecError(f"eps must be > 0, got {self.eps}")


def conditional_entropy(pmf: JointPmf, a, c=()) -> float:
    """H(A | C) in bits."""
    a, c = set(a), set(c)
    if a & c:
        raise PmfError("conditioning set overlaps target set")
    return pmf.entropy(a | c) - pmf.entropy(c)


def _all_sequences(card: int, n: int) -> np.ndarray:
    total = card ** n
    if total > entry_budget():
        raise BudgetExceededError(
            f"{card}^{n} = {total} sequences exceeds budget {entry_budget()}"
        )
    codes = np.arange(total, dtype=np.int64)
    seqs = np.empty((total, n), dtype=np.int8)
    for i in range(n - 1, -1, -1):
        seqs[:, i] = codes % card
        codes //= card
    return seqs


def typical_sequences(marginal: JointPmf, params: TypicalityParams) -> np.ndarray:
    """All robustly typical length-n sequences of a single variable.

    Returned as an (M, n) int8 array in lexicographic order.
    """
    if len(marginal.variables) != 1:
        raise CodecError(f"need a single-variable marginal, got {marginal.names}")
    card = marginal.variables[0].cardinality
    p = marginal.table
    n, eps = params.n, params.eps
    seqs = _all_sequences(card, n)
    lo = n * p * (1.0 - eps) - COUNT_FUZZ
    hi = n * p * (1.0 + eps) + COUNT_FUZZ
    mask = np.ones(len(seqs), dtype=bool)
    for a in range(card):
        cnt = (seqs == a).sum(axis=1)
        mask &= (cnt >= lo[a]) & (cnt <= hi[a])
    return seqs[mask]


def _pack(flags: np.ndarray) -> np.ndarray:
    """(..., n) booleans as (..., ceil(n / 64)) uint64 bitsets, zero-padded."""
    packed = np.packbits(flags, axis=-1, bitorder="little")
    words = -(-flags.shape[-1] // 64)
    out = np.zeros(flags.shape[:-1] + (8 * words,), dtype=np.uint8)
    out[..., :packed.shape[-1]] = packed
    return out.view(np.uint64)


#: The odd multiplier of `_equal_rows`' row hash (2^64 / golden ratio).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _equal_rows(a: np.ndarray, b: np.ndarray) -> tuple:
    """(i, j): every pair of equal rows, a[i] == b[j], of the 2-D uint64
    arrays `a` and `b`, in no particular order.

    A hash join.  A row of one word is its own hash; a longer row hashes to
    h = h * _HASH_MULT + word over its words, wrapping modulo 2^64.  Both
    sides' hashes are sorted, each hash of b finds the run of equal hashes
    of a by binary search, and the pairs whose rows differ (hash
    collisions) are dropped.
    """
    ha, hb = (rows[:, 0] for rows in (a, b))
    if a.shape[1] > 1:
        ha, hb = ha.copy(), hb.copy()
        for w in range(1, a.shape[1]):
            for h, rows in ((ha, a), (hb, b)):
                h *= _HASH_MULT
                h += rows[:, w]
    order_a, order_b = np.argsort(ha), np.argsort(hb)
    ordered, needles = ha[order_a], hb[order_b]
    lo = np.searchsorted(ordered, needles, side="left")
    count = np.searchsorted(ordered, needles, side="right") - lo
    ends = np.cumsum(count)
    i = order_a[np.repeat(lo - ends + count, count) + np.arange(ends[-1] if len(ends) else 0)]
    j = np.repeat(order_b, count)
    if a.shape[1] > 1:
        same = (a[i] == b[j]).all(axis=1)
        i, j = i[same], j[same]
    return i, j


class SequenceBits:
    """Length-n sequences over {0, ..., card-1}, packed once for the typicality kernel.

    `planes[v, i]` is the bitset (one uint64 word per 64 symbols) of the
    positions where sequence i holds symbol v.
    """

    def __init__(self, seqs: np.ndarray, card: int):
        seqs = np.asarray(seqs)
        symbols = np.arange(card).reshape(-1, 1, 1)
        self.planes = _pack(seqs[None, :, :] == symbols)

    def __len__(self) -> int:
        return self.planes.shape[1]

    def __getitem__(self, rows) -> "SequenceBits":
        """The sequences at `rows` (an index array), still packed."""
        out = SequenceBits.__new__(SequenceBits)
        out.planes = self.planes[:, rows]
        return out


class JointTypicalityTest:
    """Precomputed cell bounds for robust joint typicality against one pmf.

    `mask` and `pair_mask` count each joint cell w of a candidate tuple as
    popcount(bits_a[w_a] & bits_rest[w_rest]): the bitset of the positions
    where the candidate holds w's symbol, intersected with that of the
    positions where the other sequences spell the rest of w.  Only cells
    whose bounds can fail (lo > 0 or hi < n) are counted, against integer
    bounds computed once: ceil(lo)..floor(hi), clipped to [0, n].  A cell
    that no count satisfies makes every mask False.  Zero cells (upper
    bound 0) are tested first, and the other cells are counted only on the
    candidates that pass them.  The zero cells are tested one of two ways,
    decided once per candidate variable from the test's own cells.  Where
    they leave the candidate (of two or more symbols) at most one allowed
    symbol for every combination of the other variables' symbols, the
    candidate is *pinned*: each rest row allows exactly one sequence, and
    the candidates equal to it are found by a hash join (`_equal_rows`) in
    calls of at least `_JOIN_PAIRS` pairs.  Otherwise the zero cells are
    tested as one OR of ANDs against 0.  Candidates may
    be given as (m, n) symbol arrays or as `SequenceBits` packed once by the
    caller.  Each fixed sequence is one length-n array, or a batch of B of
    them stacked as (B, n); a batch gives the masks a trailing axis of
    length B, one mask per batch row, and 1-D values are shared by every
    row.  Symbol arrays of any other shape raise `CodecError`.
    """

    def __init__(self, joint: JointPmf, params: TypicalityParams):
        self.params = params
        self.names = joint.names
        cards = [v.cardinality for v in joint.variables]
        self.cards = dict(zip(joint.names, cards))
        self.width = int(np.prod(cards))
        strides = []
        acc = 1
        for c in reversed(cards):
            strides.append(acc)
            acc *= c
        self.strides = dict(zip(reversed(joint.names), strides))
        p = joint.table.reshape(-1)
        n, eps = params.n, params.eps
        self.lo = n * p * (1.0 - eps) - COUNT_FUZZ
        self.hi = n * p * (1.0 + eps) + COUNT_FUZZ
        self.cells = np.flatnonzero((self.lo > 0) | (self.hi < n))
        # a count c in 0..n lies in [lo, hi] exactly when it lies in [ceil(lo), floor(hi)]
        lo = np.maximum(np.ceil(self.lo[self.cells]), 0)
        hi = np.minimum(np.floor(self.hi[self.cells]), n)
        self._void = bool((lo > hi).any())  # a cell that no count satisfies
        self._zero = hi == 0                # cells that pass only at count 0
        count = np.min_scalar_type(n)       # holds every count
        self._cell_lo = lo.astype(count)
        self._cell_span = np.maximum(hi - lo, 0).astype(count)
        # each counted cell's symbol of each variable
        self._symbols = {v: self.cells // self.strides[v] % self.cards[v] for v in self.names}
        # pinned: the zero cells allow at most one of the variable's (two or
        # more) symbols with every combination of the other variables' symbols
        allowed = np.ones(self.width, dtype=bool)
        allowed[self.cells[self._zero]] = False
        allowed = allowed.reshape(cards)
        self._pinned = {v: card > 1 and bool((allowed.sum(axis=axis) <= 1).all())
                        for axis, (v, card) in enumerate(zip(self.names, cards))}
        self._valid = _pack(np.ones(n, dtype=bool))  # the n live bits of a sequence's words

    def _sequences(self, name: str, seqs, ndims: tuple) -> np.ndarray:
        """`seqs` as an array, refused unless its axis count is in `ndims` and
        its last axis is n long."""
        seqs = np.asarray(seqs)
        if seqs.ndim not in ndims or seqs.shape[-1] != self.params.n:
            raise CodecError(f"{name} sequences of shape {seqs.shape}: "
                             f"need length n={self.params.n}")
        return seqs

    def _fixed_code(self, fixed: dict, ndims=(1, 2)) -> np.ndarray:
        """(B, n): per batch row and position, the code of the `fixed` symbols."""
        code = np.zeros((1, self.params.n), dtype=np.int64)
        for name, seqs in fixed.items():
            seqs = self._sequences(name, seqs, ndims).astype(np.int64, copy=False)
            code = code + self.strides[name] * seqs
        return code

    def _planes(self, name: str, cands) -> np.ndarray:
        if not isinstance(cands, SequenceBits):
            cands = SequenceBits(self._sequences(name, cands, (2,)), self.cards[name])
        return cands.planes

    def _fixed_bits(self, fixed: dict, rest: np.ndarray) -> np.ndarray:
        """(cells, B, words): per counted cell and batch row, the bitset of the
        positions where the `fixed` sequences spell `rest`, the code of the
        cell's other variables."""
        return _pack(self._fixed_code(fixed)[None, :, :] == rest[:, None, None])

    def check(self, seqs: dict) -> bool:
        """Typicality of one complete tuple {variable name: length-n sequence}."""
        if set(seqs) != set(self.names):
            raise CodecError(f"need sequences for exactly {self.names}")
        counts = np.bincount(self._fixed_code(seqs, (1,))[0], minlength=self.width)
        return bool(np.all((counts >= self.lo) & (counts <= self.hi)))

    def _counts_ok(self, bits_a: np.ndarray, va: np.ndarray, rest: np.ndarray,
                   pinned: bool) -> np.ndarray:
        """ok[i, j]: for every counted cell c, popcount(bits_a[va[c], i] & rest[c, j])
        lies within c's integer bounds.

        A zero cell passes only where its AND is all zero.  Grouped by symbol
        v of a, the zero cells' rest bitsets OR into forbidden[v][j]: the
        positions where row j forbids v (a & r | a & r' = a & (r | r')).
        When a is `pinned`, row j allows at most one symbol at each position,
        so the candidates that pass are those whose planes equal the allowed
        planes ~forbidden[v][j] (padding bits masked); above `_JOIN_PAIRS`
        pairs, `_equal_rows` finds them by a hash join.  Otherwise rows i
        are taken in tiles of at most `_KERNEL_WORDS` words (at least one
        row), through word buffers allocated once, and a tile ORs the ANDs
        of bits_a[v] with forbidden[v] into one buffer and tests it against
        0 once.  Either way the other cells are then counted only on the
        pairs that pass, at most `_KERNEL_WORDS` words at a time.
        """
        ma, mb, words = bits_a.shape[1], rest.shape[1], bits_a.shape[2]
        ok = np.zeros((ma, mb), dtype=bool)
        if self._void or ma == 0 or mb == 0:
            return ok
        zero = self._zero
        forbidden = [(v, np.bitwise_or.reduce(rest[zero & (va == v)], axis=0))
                     for v in sorted(set(va[zero].tolist()))]
        counted = np.flatnonzero(~zero).tolist()
        join = pinned and ma * mb >= _JOIN_PAIRS
        if join:
            # the allowed planes; a row that allows a symbol at every position
            # (a live row) leaves the last plane to the complement of the others
            allowed = np.empty((len(bits_a), mb, words), dtype=np.uint64)
            allowed[:] = self._valid
            for v, r in forbidden:
                np.bitwise_and(allowed[v], ~r, out=allowed[v])
            live = np.flatnonzero(
                (np.bitwise_or.reduce(allowed, axis=0) == self._valid).all(axis=1))
            width = (len(bits_a) - 1) * words
            i, j = _equal_rows(bits_a[:-1].transpose(1, 0, 2).reshape(ma, width),
                               allowed[:-1, live].transpose(1, 0, 2).reshape(len(live), width))
            j = live[j]
            cap = max(1, min(len(i), _KERNEL_WORDS // words))
        else:
            cap = min(ma, max(1, _KERNEL_WORDS // (mb * words))) * mb
        hits = np.empty((cap, words), dtype=np.uint64)
        counts = np.empty((cap, words), dtype=np.uint8)
        flag = np.empty(cap, dtype=bool)

        def count(passed, a, rest_of, shape):
            """passed &= lo <= popcount(a[va[c]] & rest_of(c)) <= hi for each
            counted cell c, the AND being of `shape`."""
            size = len(passed)
            for c in counted:
                np.bitwise_and(a[va[c]], rest_of(c), out=hits[:size].reshape(shape))
                np.bitwise_count(hits[:size], out=counts[:size])
                n_c = counts[:size, 0] if words == 1 else counts[:size].sum(
                    axis=1, dtype=self._cell_lo.dtype)
                np.subtract(n_c, self._cell_lo[c], out=n_c)  # below lo wraps past span
                np.less_equal(n_c, self._cell_span[c], out=flag[:size])
                passed &= flag[:size]

        def count_pairs(passed, i, j):
            """count() on the pairs (i[u], j[u]), `cap` pairs at a time."""
            for lo in range(0, len(passed), cap):
                ii, jj = i[lo:lo + cap], j[lo:lo + cap]
                count(passed[lo:lo + cap], bits_a[:, ii], lambda c: rest[c, jj], (-1, words))

        if join:
            survive = np.ones(len(i), dtype=bool)
            count_pairs(survive, i, j)
            ok[i, j] = survive
            return ok
        step = cap // mb  # candidate rows per tile
        acc = np.empty((cap, words), dtype=np.uint64)
        for i0 in range(0, ma, step):
            tile = ok[i0:i0 + step].reshape(-1)
            size = len(tile)
            if not forbidden:
                tile[:] = True
                count(tile, bits_a[:, i0:i0 + step, None, :], lambda c: rest[c], (-1, mb, words))
                continue
            acc_t, hits_t = (buf[:size].reshape(-1, mb, words) for buf in (acc, hits))
            for k, (v, r) in enumerate(forbidden):
                np.bitwise_and(bits_a[v, i0:i0 + step, None, :], r, out=hits_t if k else acc_t)
                if k:
                    np.bitwise_or(acc_t, hits_t, out=acc_t)
            np.equal(acc[:size, 0] if words == 1 else np.bitwise_or.reduce(acc[:size], axis=1),
                     0, out=tile)
            if counted:
                pairs = np.flatnonzero(tile)
                i, j = np.divmod(pairs, mb)
                survive = np.ones(len(pairs), dtype=bool)
                count_pairs(survive, i0 + i, j)
                tile[pairs] = survive
        return ok

    @staticmethod
    def _unbatched(ok: np.ndarray, fixed: dict) -> np.ndarray:
        """`ok` without its batch axis when no fixed value is a batch."""
        if any(np.ndim(seqs) == 2 for seqs in fixed.values()):
            return ok
        return ok[..., 0]

    def mask(self, cand_name: str, cands, fixed: dict) -> np.ndarray:
        """Boolean mask over candidate sequences for one free variable:
        (len(cands),), or (len(cands), B) for a batch of fixed sequences."""
        va = self._symbols[cand_name]
        rest = self.cells - va * self.strides[cand_name]
        fixed_bits = self._fixed_bits(fixed, rest)
        if len(cands) == 0:
            return self._unbatched(np.zeros((0, fixed_bits.shape[1]), dtype=bool), fixed)
        ok = self._counts_ok(self._planes(cand_name, cands), va, fixed_bits,
                             self._pinned[cand_name])
        return self._unbatched(ok, fixed)

    def pair_mask(self, name_a: str, cands_a, name_b: str, cands_b,
                  fixed: dict) -> np.ndarray:
        """Boolean mask of shape (len(cands_a), len(cands_b)) for pairs, or
        (len(cands_a), len(cands_b), B) for a batch of fixed sequences."""
        ma, mb = len(cands_a), len(cands_b)
        va, vb = self._symbols[name_a], self._symbols[name_b]
        rest = self.cells - va * self.strides[name_a] - vb * self.strides[name_b]
        fixed_bits = self._fixed_bits(fixed, rest)
        cells, batch, words = fixed_bits.shape
        if ma == 0 or mb == 0:
            return self._unbatched(np.zeros((ma, mb, batch), dtype=bool), fixed)
        # one rest bitset per (candidate b, batch row)
        rest_bits = self._planes(name_b, cands_b)[vb][:, :, None, :] & fixed_bits[:, None, :, :]
        ok = self._counts_ok(self._planes(name_a, cands_a), va,
                             rest_bits.reshape(cells, mb * batch, words), self._pinned[name_a])
        return self._unbatched(ok.reshape(ma, mb, batch), fixed)


def jointly_typical(seqs, joint: JointPmf, params: TypicalityParams) -> bool:
    """Robust joint typicality of a tuple of sequences, one per joint variable.

    `seqs` maps variable names to length-n integer sequences (a sequence
    tuple in the joint's variable order is also accepted).
    """
    if not isinstance(seqs, dict):
        seqs = dict(zip(joint.names, seqs))
    return JointTypicalityTest(joint, params).check(seqs)


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------

#: The random-binning rule of each strategy.  Per key: its codeword, the
#: wiretapper side of its public rate R'_i = H(codeword | wiretapper side) - R_i,
#: and the decoder side of its reliability condition R'_i >= H(codeword |
#: decoder side).  Then the decoder side of the condition
#: R'_1 + R'_2 >= H(S,T | side) that both keys carry, or None.
_BINNING = {
    "forward": ((("S", ("X2", "U"), ("X3", "T", "U")),
                 ("T", ("X1", "V"), ("X3", "S", "V"))),
                ("X3", "U", "V")),
    "backward": ((("S", ("X2", "T", "U"), ("X1", "U")),
                  ("T", ("X1", "S", "U"), ("X2", "U"))),
                 None),
}


def _bin_count(n: int, rate: float) -> int:
    return max(1, math.ceil(2.0 ** (n * rate) - COUNT_FUZZ))


def _binning(full: JointPmf, direction: str, n: int, rates: tuple) -> list:
    """Per key, (n_key, n_col, margins) under `direction`'s binning rule.

    A negative public rate is structurally infeasible.  The margins map each
    reliability condition to its slack (may be negative); they are recorded
    but not enforced: a run at unreliable rates is a legitimate experiment.
    """
    keys, joint_side = _BINNING[direction]
    public = []
    for i, ((var, tap, _), rate) in enumerate(zip(keys, rates), 1):
        rc = conditional_entropy(full, (var,), tap) - rate
        if rc < -ENTROPY_ROUNDOFF:
            raise InfeasibleRatesError(
                f"public rate R'{i} = H({var}|{','.join(tap)}) - R{i} = {rc:.6f} is negative")
        public.append(rc)
    shared = {}
    if joint_side is not None:
        shared[f"R'1+R'2 >= H(S,T|{','.join(joint_side)})"] = (
            (public[0] + public[1]) - conditional_entropy(full, ("S", "T"), joint_side))
    return [(_bin_count(n, rate), _bin_count(n, max(0.0, rc)),
             {f"R'{i} >= H({var}|{','.join(side)})": rc - conditional_entropy(full, (var,), side),
              **shared})
            for i, ((var, _, side), rate, rc) in enumerate(zip(keys, rates, public), 1)]


# ---------------------------------------------------------------------------
# Codebooks
# ---------------------------------------------------------------------------

@dataclass
class Codebook:
    """Enumerated typical sequences of one variable with (k, k', k'') labels."""

    var: str
    cover_var: str
    sequences: np.ndarray   # (M, n) int8, lexicographic
    triples: np.ndarray     # (M, 3) int64 rows (k, k', k'')
    n_key: int
    n_col: int
    u_codebook: np.ndarray  # (Na, n) int8 cover codewords
    margins: dict           # reliability slack per condition (may be negative)
    seed: int

    def __post_init__(self):
        self._cols = {}
        self._cells = {}

    @property
    def size(self) -> int:
        return len(self.sequences)

    @property
    def max_cell(self) -> int:
        if self.size == 0:
            return 0
        counts = np.bincount(
            self.triples[:, 0] * self.n_col + self.triples[:, 1],
            minlength=self.n_key * self.n_col,
        )
        return int(counts.max())

    def column(self, col: int) -> np.ndarray:
        if col not in self._cols:
            self._cols[col] = np.flatnonzero(self.triples[:, 1] == col)
        return self._cols[col]

    def cell(self, key: int, col: int) -> np.ndarray:
        if (key, col) not in self._cells:
            self._cells[(key, col)] = np.flatnonzero(
                (self.triples[:, 0] == key) & (self.triples[:, 1] == col)
            )
        return self._cells[(key, col)]

    def triple_of(self, idx: int) -> tuple:
        k, kp, kpp = self.triples[idx]
        return int(k), int(kp), int(kpp)

    def sequence_of(self, key: int, col: int, cell: int) -> np.ndarray:
        members = self.cell(key, col)
        ranks = self.triples[members, 2]
        hit = members[ranks == cell]
        if len(hit) != 1:
            raise CodecError(f"no sequence with indices ({key},{col},{cell})")
        return self.sequences[hit[0]]


def _assign_bins(m: int, n_key: int, n_col: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded uniform shuffle, then hierarchical round-robin deal.

    Columns, rows within a column, and cells are each balanced within one
    sequence.
    """
    triples = np.empty((m, 3), dtype=np.int64)
    perm = rng.permutation(m)
    pos = np.arange(m)
    col = pos % n_col
    within = pos // n_col
    key = within % n_key
    cell = within // n_key
    triples[perm, 0] = key
    triples[perm, 1] = col
    triples[perm, 2] = cell
    return triples


def _stream(seed: int, index: int) -> np.random.Generator:
    """Codebook construction's generator number `index` for `seed`."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _binned_typical_set(full: JointPmf, var: str, params: TypicalityParams,
                        n_key: int, n_col: int, rng) -> tuple:
    """(sequences, triples): `var`'s typical set, refused when empty, and its bins."""
    seqs = typical_sequences(full.marginalize({var}), params)
    if len(seqs) == 0:
        raise InfeasibleRatesError(
            f"typical set of {var} is empty at n={params.n}, eps={params.eps}")
    return seqs, _assign_bins(len(seqs), n_key, n_col, rng)


def _draw_covers(full: JointPmf, keyed: tuple, cover_var: str, n: int, rng) -> np.ndarray:
    """(count, n) int8 cover codewords drawn i.i.d. from `cover_var`'s marginal,
    at rate I(keyed; cover) + COVER_SLACK."""
    rate = (full.entropy(keyed) + full.entropy((cover_var,))
            - full.entropy(keyed + (cover_var,))) + COVER_SLACK
    marginal = full.marginalize({cover_var})
    card = marginal.variables[0].cardinality
    return rng.choice(card, size=(_bin_count(n, max(0.0, rate)), n),
                      p=marginal.table.reshape(-1)).astype(np.int8)


def build_forward_codebooks(full: JointPmf, params: TypicalityParams,
                            rate1: float, rate2: float, seed: int) -> tuple:
    """Codebooks of users 1 (over S, covered by U) and 2 (over T, covered by V).

    Deterministic function of `seed`: each codebook deals its bins and then
    draws its covers from its own generator.
    """
    bins = _binning(full, "forward", params.n, (rate1, rate2))
    codebooks = []
    for index, (var, cover_var, (n_key, n_col, margins)) in enumerate(zip("ST", "UV", bins), 1):
        rng = _stream(seed, index)
        seqs, triples = _binned_typical_set(full, var, params, n_key, n_col, rng)
        covers = _draw_covers(full, (var,), cover_var, params.n, rng)
        codebooks.append(Codebook(var, cover_var, seqs, triples, n_key, n_col, covers,
                                  margins, seed))
    return tuple(codebooks)


def build_backward_codebooks(full: JointPmf, params: TypicalityParams,
                             rate1: float, rate2: float, seed: int) -> tuple:
    """User 3's codebooks over S (for user 1's key) and T (user 2's key).

    Both are covered by the single U codeword list, which is drawn at rate
    I(S,T;U) + COVER_SLACK and stored on both codebooks (one shared array).
    """
    bins = _binning(full, "backward", params.n, (rate1, rate2))
    typical = [_binned_typical_set(full, var, params, n_key, n_col, _stream(seed, index))
               for index, (var, (n_key, n_col, _)) in enumerate(zip("ST", bins), 1)]
    covers = _draw_covers(full, ("S", "T"), "U", params.n, _stream(seed, 3))
    return tuple(Codebook(var, "U", seqs, triples, n_key, n_col, covers, margins, seed)
                 for var, (seqs, triples), (n_key, n_col, margins) in zip("ST", typical, bins))


# ---------------------------------------------------------------------------
# Encoding / decoding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodingResult:
    key: int
    col: int
    cell: int
    cover: int
    seq_index: int


def _user_vars(user: int) -> tuple:
    """(codeword variable, source variable) of user 1 or 2."""
    return ("S", "X1") if user == 1 else ("T", "X2")


# The coders below build their typicality tests and packed codebooks once;
# the public encode/decode functions build one per call.  Each coder runs a
# batch of trials in array stages.  An encoder's `typical` tests every block
# against every hit (a codeword forward, an (s, t) pair backward) in one
# kernel call; the shared `_Encoder.pick` draws each trial's hit, then a
# cover among the hit's covers, from its lane of a `_lanes` stream.  The
# covers come from the encoder's one cover table, which tests a hit's covers
# the first time it is asked for.  A decoder's `resolve` tests and decodes
# the trials in groups that announce the same columns.  Masks draw no
# randomness, so testing ahead of the draws leaves every lane's draws in the
# order of a single trial.  The stages return a per-trial outcome code in
# place of raising; `__call__` is a batch of one: it runs the stages on one
# block, draws from the caller's generator, and raises the failure of its
# code.

#: Outcome codes of the batched stages: OK, or the index in `FAILURES` of the
#: protocol failure that a single-trial call raises.
OK, NO_SEQUENCE, NO_COVER, NONE, AMBIGUOUS = range(5)
FAILURES = (None, EncoderNoSequence, EncoderNoCover, DecodeNone, DecodeAmbiguous)

_FAILURE_TEXTS = (None, "no jointly typical {}", "no cover codeword covers the selected {}",
                  "no jointly typical {}", "more than one jointly typical {}")

_ONE = np.zeros(1, dtype=np.intp)  # the lane of a single-trial call


def _raise_failure(status: np.ndarray, what: str) -> None:
    """Raise the protocol failure of a single trial's outcome code."""
    code = int(status[0])
    if code != OK:
        raise FAILURES[code](_FAILURE_TEXTS[code].format(what))


def _draw(counts: np.ndarray, starts: np.ndarray, values: np.ndarray, lanes,
          rows: np.ndarray) -> np.ndarray:
    """Per trial i, values[starts[i] + r] for r drawn by `integers(counts[i])`
    from lane rows[i], or -1 (and no draw) where counts[i] is 0."""
    out = np.full(len(counts), -1, dtype=np.int64)
    found = counts > 0
    if found.any():
        out[found] = values[starts[found] + lanes.integers(counts[found], rows[found])]
    return out


def _unique_hits(hits: np.ndarray) -> tuple:
    """(status, row) per column of the (M, B) `hits`, candidates by trials:
    OK and the row of its one True entry, else NONE or AMBIGUOUS and 0."""
    counts = hits.sum(axis=0)
    unique = counts == 1
    status = np.where(unique, OK, np.where(counts == 0, NONE, AMBIGUOUS))
    row = np.zeros(len(counts), dtype=np.int64)
    if unique.any():
        row[unique] = hits[:, unique].argmax(axis=0)
    return status, row


def _groups(codes: np.ndarray):
    """(code, rows) for each distinct value of the 1-D `codes`, rows increasing."""
    order = np.argsort(codes, kind="stable")
    bounds = np.flatnonzero(np.diff(codes[order])) + 1
    for rows in np.split(order, bounds):
        if len(rows):
            yield int(codes[rows[0]]), rows


class _Encoder:
    """The cover table and `pick`, shared by both encoders.  A subclass sets
    `src` (its blocks' variable), `users` (whose keys it draws) and `dims`
    (the bounds of its labels, then the cover count), and defines `typical`,
    `labels(hits)` ((k, k') per user) and `_cover_mask(hits)` (which covers
    are jointly typical with each hit)."""

    def __init__(self, size: int):
        """An empty cover table over `size` hits."""
        self.size = size
        self._count = np.full(size, -1, dtype=np.int64)  # -1: not yet tested
        self._start = np.zeros(size, dtype=np.int64)
        self.cover_idx = np.zeros(0, dtype=np.int64)

    def covers(self, hits: np.ndarray) -> tuple:
        """(count, start) per hit: its covers are cover_idx[start:start + count],
        in increasing order.  The hits not asked for before are tested in one
        kernel call."""
        asked = np.zeros(self.size, dtype=bool)  # not np.unique, whose first call imports numpy.ma
        asked[hits] = True
        new = np.flatnonzero(asked & (self._count < 0))
        if len(new):
            hit_of, cover = np.nonzero(self._cover_mask(new))
            count = np.bincount(hit_of, minlength=len(new))
            self._count[new] = count
            self._start[new] = len(self.cover_idx) + np.cumsum(count) - count
            self.cover_idx = np.concatenate((self.cover_idx, cover))
        return self._count[hits], self._start[hits]

    def pick(self, typical: np.ndarray, lanes, rows: np.ndarray) -> tuple:
        """(status, hit, cover) per row of the (B, hits) `typical`: lane rows[i]
        draws a hit uniformly among row i's True columns (none where it has
        none), then a cover among the hit's covers."""
        block, col = np.divmod(np.flatnonzero(typical), typical.shape[1])
        n_hits = np.bincount(block, minlength=len(typical))
        hit = _draw(n_hits, np.cumsum(n_hits) - n_hits, col, lanes, rows)
        found = hit >= 0
        count, start = np.zeros((2, len(hit)), dtype=np.int64)
        count[found], start[found] = self.covers(hit[found])
        cover = _draw(count, start, self.cover_idx, lanes, rows)
        status = np.where(~found, NO_SEQUENCE, np.where(cover < 0, NO_COVER, OK))
        return status, hit, cover


class _ForwardEncoder(_Encoder):
    """User 1's or 2's forward encoder; a hit is a codebook sequence."""

    def __init__(self, user: int, codebook: Codebook, full: JointPmf,
                 params: TypicalityParams):
        self.var, self.src = _user_vars(user)
        self.users = (user,)
        self.codebook = codebook
        self.dims = (codebook.n_key, codebook.n_col, len(codebook.u_codebook))
        self.test = JointTypicalityTest(full.marginalize({self.var, self.src}), params)
        self.cover_test = JointTypicalityTest(
            full.marginalize({self.var, codebook.cover_var}), params)
        self.sequences = SequenceBits(codebook.sequences, self.test.cards[self.var])
        super().__init__(codebook.size)
        self.covers(np.arange(codebook.size))  # in one kernel call, not one per batch

    def typical(self, blocks) -> np.ndarray:
        """(len(blocks), M): which codebook sequences are jointly typical with
        each source block."""
        return self.test.pair_mask(self.src, blocks, self.var, self.sequences, {})

    def labels(self, hits: np.ndarray) -> np.ndarray:
        return self.codebook.triples[hits, :2]

    def _cover_mask(self, hits: np.ndarray) -> np.ndarray:
        return self.cover_test.pair_mask(self.var, self.sequences[hits],
                                         self.codebook.cover_var, self.codebook.u_codebook, {})

    def __call__(self, block: np.ndarray, rng: np.random.Generator) -> EncodingResult:
        blocks = np.asarray(block, dtype=np.int8)[None]
        status, seq, cover = self.pick(self.typical(blocks), GeneratorLanes([rng]), _ONE)
        _raise_failure(status, f"{self.var} codeword")
        return EncodingResult(*self.codebook.triple_of(seq[0]), int(cover[0]), int(seq[0]))


class _ForwardDecoder:
    """User 3's joint decoder over the announced columns."""

    def __init__(self, cb1: Codebook, cb2: Codebook, full: JointPmf,
                 params: TypicalityParams):
        self.cb1, self.cb2 = cb1, cb2
        self.test = JointTypicalityTest(full.marginalize({"S", "T", "X3", "U", "V"}), params)
        self.seqs1 = SequenceBits(cb1.sequences, self.test.cards["S"])
        self.seqs2 = SequenceBits(cb2.sequences, self.test.cards["T"])

    def resolve(self, x3_blocks: np.ndarray, kp, a, lp, b) -> tuple:
        """(status, k, l) per trial: the keys of the unique jointly typical
        (s, t) pair in its announced columns.

        Trial i announced (kp[i], a[i], lp[i], b[i]) with block x3_blocks[i];
        trials announcing the same columns share one kernel call.
        """
        status = np.zeros(len(kp), dtype=np.int64)
        k_hat, l_hat = np.zeros_like(status), np.zeros_like(status)
        for code, rows in _groups(np.asarray(kp) * self.cb2.n_col + lp):
            c1, c2 = divmod(code, self.cb2.n_col)
            col1, col2 = self.cb1.column(c1), self.cb2.column(c2)
            fixed = {"X3": x3_blocks[rows], "U": self.cb1.u_codebook[a[rows]],
                     "V": self.cb2.u_codebook[b[rows]]}
            ok = self.test.pair_mask("S", self.seqs1[col1], "T", self.seqs2[col2], fixed)
            status[rows], flat = _unique_hits(ok.reshape(-1, len(rows)))
            i, j = np.divmod(flat, len(col2))
            k_hat[rows] = self.cb1.triples[col1[i], 0]
            l_hat[rows] = self.cb2.triples[col2[j], 0]
        return status, k_hat, l_hat

    def __call__(self, x3_block: np.ndarray, indices: tuple) -> tuple:
        x3_blocks = np.asarray(x3_block, dtype=np.int8)[None]
        status, k_hat, l_hat = self.resolve(x3_blocks, *(np.array([v]) for v in indices))
        _raise_failure(status, "(s, t) pair in the announced columns")
        return int(k_hat[0]), int(l_hat[0])


class _BackwardEncoder(_Encoder):
    """User 3's backward encoder; a hit is a codebook pair (i, j), numbered
    i * M_t + j."""

    src = "X3"
    users = (1, 2)

    def __init__(self, cb_s: Codebook, cb_t: Codebook, full: JointPmf,
                 params: TypicalityParams):
        self.cb_s, self.cb_t = cb_s, cb_t
        self.dims = (cb_s.n_key, cb_s.n_col, cb_t.n_key, cb_t.n_col, len(cb_s.u_codebook))
        self.test = JointTypicalityTest(full.marginalize({"S", "T", "X3"}), params)
        self.cover_test = JointTypicalityTest(full.marginalize({"S", "T", "U"}), params)
        cards = self.cover_test.cards
        self.seqs_s = SequenceBits(cb_s.sequences, cards["S"])
        self.seqs_t = SequenceBits(cb_t.sequences, cards["T"])
        self.seqs_u = SequenceBits(cb_s.u_codebook, cards["U"])
        super().__init__(cb_s.size * cb_t.size)

    def typical(self, x3_blocks: np.ndarray) -> np.ndarray:
        """(len(x3_blocks), M_s * M_t): which sequence pairs are jointly typical
        with each of the (B, n) blocks."""
        ok = self.test.pair_mask("S", self.seqs_s, "T", self.seqs_t, {"X3": x3_blocks})
        return ok.reshape(-1, len(x3_blocks)).T

    def labels(self, hits: np.ndarray) -> np.ndarray:
        i, j = np.divmod(hits, self.cb_t.size)
        return np.column_stack((self.cb_s.triples[i, :2], self.cb_t.triples[j, :2]))

    def _cover_mask(self, hits: np.ndarray) -> np.ndarray:
        i, j = np.divmod(hits, self.cb_t.size)
        fixed = {"S": self.cb_s.sequences[i], "T": self.cb_t.sequences[j]}
        return self.cover_test.mask("U", self.seqs_u, fixed).T

    def __call__(self, x3_block: np.ndarray, rng: np.random.Generator) -> tuple:
        x3_blocks = np.asarray(x3_block, dtype=np.int8)[None]
        status, pair, cover = self.pick(self.typical(x3_blocks), GeneratorLanes([rng]), _ONE)
        _raise_failure(status, "(s, t) pair")
        (i, j), a = divmod(int(pair[0]), self.cb_t.size), int(cover[0])
        return (EncodingResult(*self.cb_s.triple_of(i), a, i),
                EncodingResult(*self.cb_t.triple_of(j), a, j))


class _BackwardDecoder:
    """User 1's or 2's backward decoder over the announced column."""

    def __init__(self, user: int, codebook: Codebook, full: JointPmf,
                 params: TypicalityParams):
        self.var, self.src = _user_vars(user)
        self.codebook = codebook
        self.test = JointTypicalityTest(full.marginalize({self.var, self.src, "U"}), params)
        self.sequences = SequenceBits(codebook.sequences, self.test.cards[self.var])

    def resolve(self, blocks: np.ndarray, cols, covers) -> tuple:
        """(status, key) per trial: the key row of the unique typical member of
        its announced column.

        Trial i announced column cols[i] and cover covers[i] with block
        blocks[i]; trials announcing the same column share one kernel call.
        """
        status = np.zeros(len(cols), dtype=np.int64)
        key = np.zeros_like(status)
        for col, rows in _groups(np.asarray(cols)):
            members = self.codebook.column(col)
            fixed = {self.src: blocks[rows], "U": self.codebook.u_codebook[covers[rows]]}
            ok = self.test.mask(self.var, self.sequences[members], fixed)
            status[rows], which = _unique_hits(ok)
            key[rows] = self.codebook.triples[members[which], 0]
        return status, key

    def __call__(self, block: np.ndarray, col: int, a: int) -> int:
        blocks = np.asarray(block, dtype=np.int8)[None]
        status, key = self.resolve(blocks, np.array([col]), np.array([a]))
        _raise_failure(status, f"{self.var} candidate in the announced column")
        return int(key[0])


def forward_encode(user: int, block: np.ndarray, codebook: Codebook,
                   full: JointPmf, params: TypicalityParams,
                   rng: np.random.Generator) -> EncodingResult:
    """Select a jointly typical codeword for the observed source block.

    The codeword is drawn uniformly from the set of codebook sequences
    jointly typical with the block, then a cover codeword index is drawn
    uniformly among those jointly typical with the selected codeword.
    """
    return _ForwardEncoder(user, codebook, full, params)(block, rng)


def forward_decode(x3_block: np.ndarray, indices: tuple, cb1: Codebook,
                   cb2: Codebook, full: JointPmf, params: TypicalityParams) -> tuple:
    """User 3's joint decoder: unique (s, t) in the announced columns.

    `indices` is (k', a, l', b).  Searches only the announced columns and
    accepts the pair iff the full tuple (s, t, x3, u, v) is jointly typical;
    conditional typicality given the covers is realized as full-tuple joint
    typicality.  Raises DecodeNone / DecodeAmbiguous otherwise.
    """
    return _ForwardDecoder(cb1, cb2, full, params)(x3_block, indices)


def backward_encode(x3_block: np.ndarray, cb_s: Codebook, cb_t: Codebook,
                    full: JointPmf, params: TypicalityParams,
                    rng: np.random.Generator) -> tuple:
    """User 3 selects a jointly typical (s, t) pair for its block plus a cover.

    Returns (EncodingResult for s, EncodingResult for t); both share the
    cover index a.
    """
    return _BackwardEncoder(cb_s, cb_t, full, params)(x3_block, rng)


def backward_decode(user: int, block: np.ndarray, col: int, a: int,
                    codebook: Codebook, full: JointPmf,
                    params: TypicalityParams) -> int:
    """User 1 or 2 decodes its key row from the announced column.

    Accepts the unique column member jointly typical with the user's own
    block and the announced cover codeword.
    """
    return _BackwardDecoder(user, codebook, full, params)(block, col, a)


def wiretap_decode(key: int, col: int, obs_block: np.ndarray, u_seq: np.ndarray,
                   codebook: Codebook, full: JointPmf, params: TypicalityParams) -> int:
    """The eavesdropper resolves the residual index inside a known cell.

    Given (k, k'), its own observation block, and the cover codeword, returns
    the unique k'' whose sequence is jointly typical with both.  The
    eavesdropper on user 1's key (an S codebook) observes X2, the one on
    user 2's key (a T codebook) X1.  This succeeding with high probability
    is exactly what caps the residual equivocation of the key.
    """
    obs_var = "X2" if codebook.var == "S" else "X1"
    obs_block = np.asarray(obs_block, dtype=np.int8)
    members = codebook.cell(key, col)
    test = JointTypicalityTest(
        full.marginalize({codebook.var, obs_var, codebook.cover_var}), params
    )
    mask = test.mask(codebook.var, codebook.sequences[members],
                     {obs_var: obs_block, codebook.cover_var: u_seq})
    hits = np.flatnonzero(mask)
    if len(hits) == 0:
        raise WiretapNone("no cell member typical with the observation")
    if len(hits) > 1:
        raise WiretapAmbiguous(f"{len(hits)} cell members typical")
    return int(codebook.triples[members[hits[0]], 2])


def dump_codebook(cb: Codebook) -> str:
    """Frozen debug dump: header then one '<seq> <k> <k\'> <k\'\'>' line per sequence."""
    n = cb.sequences.shape[1] if cb.size else 0
    card = int(cb.sequences.max()) + 1 if cb.size else 0
    lines = [f"n={n} |S|={card} bins={cb.n_key}x{cb.n_col}x{cb.max_cell} seed={cb.seed}"]
    for i in range(cb.size):
        digits = "".join(str(int(d)) for d in cb.sequences[i])
        k, kp, kpp = cb.triples[i]
        lines.append(f"{digits} {k} {kp} {kpp}")
    return "\n".join(lines) + "\n"

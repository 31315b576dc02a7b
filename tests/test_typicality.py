"""The bitset typicality kernel against the per-tuple `check` oracle.

`JointTypicalityTest.check` counts one tuple's joint cells with a bincount;
`mask` and `pair_mask` count many candidates at once with popcounts over
packed sequences.  Both must accept exactly the same tuples.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import skregion.codec as codec
from conftest import traced_peak
from skregion.codec import JointTypicalityTest, SequenceBits, TypicalityParams
from skregion.pmf import JointPmf, VariableId
from skregion.sim import _Instance, broadcast_forward_preset

NAMES = ("A", "B", "C")


@st.composite
def kernel_cases(draw, min_card_a=1):
    """A random 3-variable joint (some zero cells), n, eps and a seed for sequences."""
    cards = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    cards[0] = max(cards[0], min_card_a)
    size = math.prod(cards)
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
    weights[draw(st.integers(0, size - 1))] += 1  # at least one nonzero cell
    table = np.array(weights, dtype=float).reshape(cards)
    joint = JointPmf(tuple(VariableId(v, c) for v, c in zip(NAMES, cards)),
                     table / table.sum())
    n = draw(st.integers(1, 70))
    eps = draw(st.sampled_from([0.3, 0.75, 1.0, 2.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return joint, TypicalityParams(n, eps), seed


def _tuples(joint, n, rng, count):
    """`count` tuples of length-n sequences: draws from the joint, some with a
    few symbols replaced, so that typical and atypical tuples both occur."""
    flat = joint.table.reshape(-1)
    cards = joint.table.shape
    out = []
    for _ in range(count):
        cells = rng.choice(len(flat), size=n, p=flat)
        seqs = np.stack(np.unravel_index(cells, cards)).astype(np.int8)
        for axis, card in enumerate(cards):
            flips = rng.integers(0, 3)
            pos = rng.integers(0, n, size=flips)
            seqs[axis, pos] = rng.integers(0, card, size=flips)
        out.append(seqs)
    return np.stack(out)  # (count, variable, n)


def _both_forms(seqs, card):
    return seqs, SequenceBits(seqs, card)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_mask_and_pair_mask_match_check(case):
    joint, params, seed = case
    rng = np.random.default_rng(seed)
    test = JointTypicalityTest(joint, params)
    cards = dict(zip(NAMES, joint.table.shape))
    tuples = _tuples(joint, params.n, rng, 5)
    a, b, c = tuples[:, 0], tuples[:, 1], tuples[0, 2]

    expected = np.array([[test.check({"A": ai, "B": bj, "C": c}) for bj in b] for ai in a])
    for cands_a in _both_forms(a, cards["A"]):
        for cands_b in _both_forms(b, cards["B"]):
            got = test.pair_mask("A", cands_a, "B", cands_b, {"C": c})
            assert np.array_equal(got, expected)

    expected = np.array([test.check({"A": ai, "B": b[0], "C": c}) for ai in a])
    for cands in _both_forms(a, cards["A"]):
        assert np.array_equal(test.mask("A", cands, {"B": b[0], "C": c}), expected)

    # the free variable last in the joint's order, the fixed ones first
    cs = tuples[:, 2]
    expected = np.array([test.check({"A": a[0], "B": b[0], "C": ci}) for ci in cs])
    assert np.array_equal(test.mask("C", cs, {"A": a[0], "B": b[0]}), expected)

    # two-variable joint, nothing fixed (exact mode's encoder test)
    pair = JointTypicalityTest(joint.marginalize({"A", "C"}), params)
    expected = np.array([[pair.check({"A": ai, "C": cj}) for cj in cs] for ai in a])
    assert np.array_equal(pair.pair_mask("A", a, "C", cs, {}), expected)


def test_kernel_cases_include_typical_tuples():
    # the property test above is only as strong as its mix of outcomes
    rng = np.random.default_rng(7)
    joint = JointPmf(tuple(VariableId(v, 2) for v in NAMES),
                     np.array([0.3, 0.0, 0.1, 0.1, 0.0, 0.2, 0.1, 0.2]).reshape(2, 2, 2))
    params = TypicalityParams(40, 0.75)
    test = JointTypicalityTest(joint, params)
    tuples = _tuples(joint, params.n, rng, 40)
    ok = [test.check(dict(zip(NAMES, t))) for t in tuples]
    assert 0 < sum(ok) < len(ok)


def _pinned_symbol(b, c):
    """The one A symbol that `_pinned_table` allows with (b, c), elementwise."""
    return (b + 2 * c) % 3


def _pinned_table(rng):
    """A (3, 2, 2) law of (A, B, C) that pins A: A = `_pinned_symbol(B, C)`,
    and the code (B, C) = (1, 1), which never occurs, allows no A symbol."""
    table = np.zeros((3, 2, 2))
    b, c = np.meshgrid(range(2), range(2), indexing="ij")
    table[_pinned_symbol(b, c), b, c] = rng.dirichlet(np.ones(4)).reshape(2, 2)
    table[:, 1, 1] = 0.0
    return table / table.sum()


@pytest.mark.parametrize("kernel_words, zero_cells", [
    (1, False), (7, False), (1 << 30, False),
    (1, True), (7, True), (24, True), (1 << 30, True),
    (1, "pinned"), (7, "pinned"), (24, "pinned"), (1 << 30, "pinned"),
], ids=["1", "7", "1073741824", "1-zero-cells", "7-zero-cells", "24-zero-cells",
        "1073741824-zero-cells", "1-pinned", "7-pinned", "24-pinned", "1073741824-pinned"])
def test_kernel_grouping_does_not_change_masks(monkeypatch, kernel_words, zero_cells):
    # cells are counted a tile of rows at a time; the tile size bounds memory
    # only.  With zero cells, tiles of one row, of 2 rows (`pair_mask`, 24
    # words) or 3 rows (`mask`, 7 words; n = 90 takes 2 words a sequence) and
    # of every row run the zero-cell pass, then count the surviving pairs.
    # A pinned A is joined (every call joins at `_JOIN_PAIRS` = 0), and its
    # surviving pairs are counted 1, 3 (7 words), 12 (24 words) or all at a time.
    rng = np.random.default_rng(3)
    table = rng.dirichlet(np.ones(12)).reshape(3, 2, 2)
    if zero_cells == "pinned":
        table = _pinned_table(rng)
        monkeypatch.setattr(codec, "_JOIN_PAIRS", 0)
    elif zero_cells:
        table[0, 1, 1] = table[2, 0, 0] = 0.0
        table /= table.sum()
    joint = JointPmf(tuple(VariableId(v, c) for v, c in zip(NAMES, (3, 2, 2))), table)
    params = TypicalityParams(90, 1.0)
    tuples = _tuples(joint, params.n, rng, 6)
    a, b, c = tuples[:, 0], tuples[:, 1], tuples[0, 2]
    test = JointTypicalityTest(joint, params)
    assert test._pinned["A"] == (zero_cells == "pinned")
    if zero_cells == "pinned":  # a[i] passes the zero cells with (b[i], c)
        a = _pinned_symbol(b, c).astype(np.int8)
    reference = test.pair_mask("A", a, "B", b, {"C": c}), test.mask("A", a, {"B": b[0], "C": c})
    monkeypatch.setattr(codec, "_KERNEL_WORDS", kernel_words)
    assert np.array_equal(test.pair_mask("A", a, "B", b, {"C": c}), reference[0])
    assert np.array_equal(test.mask("A", a, {"B": b[0], "C": c}), reference[1])
    assert reference[0].any()
    if zero_cells:  # some pairs fail a zero cell; the survivors are counted
        expected = [[test.check({"A": ai, "B": bj, "C": c}) for bj in b] for ai in a]
        assert reference[0].tolist() == expected and not reference[0].all()


@settings(max_examples=100, deadline=None)
@given(kernel_cases())
def test_batched_fixed_matches_per_row_calls(case):
    # fixed sequences stacked as (B, n) give one mask per row on a trailing
    # axis; a 1-D fixed value is shared by every row
    joint, params, seed = case
    rng = np.random.default_rng(seed)
    test = JointTypicalityTest(joint, params)
    tuples = _tuples(joint, params.n, rng, 4)
    a, b, c = tuples[:, 0], tuples[:, 1], tuples[:, 2]

    got = test.pair_mask("A", a, "B", SequenceBits(b, joint.table.shape[1]), {"C": c})
    expected = np.stack([test.pair_mask("A", a, "B", b, {"C": row}) for row in c], axis=-1)
    assert got.shape == (4, 4, 4) and np.array_equal(got, expected)

    got = test.mask("A", a, {"B": b[0], "C": c})
    expected = np.stack([test.mask("A", a, {"B": b[0], "C": row}) for row in c], axis=-1)
    assert got.shape == (4, 4) and np.array_equal(got, expected)

    got = test.mask("A", a[:0], {"B": b, "C": c})
    assert got.shape == (0, 4)


@st.composite
def pinned_cases(draw):
    """`kernel_cases` with zero cells added so that A (2 or 3 symbols) is
    pinned: each (B, C) code allows one A symbol, or sometimes none."""
    joint, params, seed = draw(kernel_cases(min_card_a=2))
    table = joint.table.copy()
    card_a, card_b, card_c = table.shape
    for b in range(card_b):
        for c in range(card_c):
            keep = draw(st.integers(-1, card_a - 1))  # -1: no A symbol allowed
            table[np.arange(card_a) != keep, b, c] = 0.0
    if table.sum() == 0.0:
        table[0, 0, 0] = 1.0
    return JointPmf(joint.variables, table / table.sum()), params, seed


# two words a sequence, card-3 A, and the code (B, C) = (1, 1) allowing no A
_PINNED_TWO_WORDS = (
    JointPmf(tuple(VariableId(v, c) for v, c in zip(NAMES, (3, 2, 2))),
             _pinned_table(np.random.default_rng(11))),
    TypicalityParams(90, 1.0), 2)


def _pinned_operands(joint, params, seed) -> tuple:
    """(a, b, c) of `test_pinned_join_matches_check`: candidates of A, two of
    them repeated; candidates of B; a batch of 3 fixed sequences of C."""
    tuples = _tuples(joint, params.n, np.random.default_rng(seed), 4)
    return np.concatenate((tuples[:, 0], tuples[:2, 0])), tuples[:, 1], tuples[:3, 2]


@settings(max_examples=150, deadline=None)
@given(pinned_cases())
@example(_PINNED_TWO_WORDS)
def test_pinned_join_matches_check(case):
    # the exact-match join of a pinned candidate against the per-tuple oracle:
    # duplicate candidates, a fixed batch of B = 3 rows, packed or not
    joint, params, seed = case
    test = JointTypicalityTest(joint, params)
    assert test._pinned["A"]
    a, b, c = _pinned_operands(joint, params, seed)
    packed = SequenceBits(a, joint.table.shape[0])
    with mock.patch.object(codec, "_JOIN_PAIRS", 0):  # every call joins
        pairs = test.pair_mask("A", a, "B", b, {"C": c})
        masks = test.mask("A", packed, {"B": b[:3], "C": c})
    assert pairs.tolist() == [[[test.check({"A": ai, "B": bj, "C": ck}) for ck in c]
                               for bj in b] for ai in a]
    assert masks.tolist() == [[test.check({"A": ai, "B": bk, "C": ck})
                               for bk, ck in zip(b[:3], c)] for ai in a]


def test_pinned_cases_reach_both_outcomes():
    # the property test above is only as strong as its mix of outcomes: on
    # its two-word example a repeated candidate passes, and most pairs fail
    joint, params, seed = _PINNED_TWO_WORDS
    a, b, c = _pinned_operands(joint, params, seed)
    test = JointTypicalityTest(joint, params)
    ok = [test.check({"A": ai, "B": bj, "C": ck}) for ai in a for bj in b for ck in c]
    assert 0 < sum(ok) < len(ok)


# (n, p, eps) of a two-cell joint (p, 1 - p), then how many counts of the
# first cell COUNT_FUZZ decides, and whether any count fits its window; the
# comment gives that cell's float window n p (1 -+ eps) before the fuzz
WINDOW_EDGES = [
    pytest.param(14, 5 / 9, 0.1, 1, True, id="lo-above-7"),     # lo 7.000000000000001
    pytest.param(5, 1 / 3, 0.2, 1, True, id="hi-below-2"),      # hi 1.9999999999999998
    pytest.param(6, 0.4, 0.25, 0, True, id="hi-above-3"),       # hi 3.0000000000000004
    pytest.param(5, 2 / 7, 0.3, 0, True, id="lo-below-1"),      # lo 0.9999999999999998
    pytest.param(8, 0.25, 0.5, 0, True, id="exact-1-3"),        # lo 1.0 and hi 3.0
    pytest.param(10, 0.15, 0.1, 0, False, id="no-integer"),     # [1.35, 1.65]
    pytest.param(19, 0.1, 0.05, 0, False, id="no-integer-n19"),  # [1.805, 1.995]
    pytest.param(12, 0.0, 0.5, 0, True, id="zero-cell"),        # [0, 0]
]


@pytest.mark.parametrize("n, p, eps, decided, fits", WINDOW_EDGES)
def test_integer_bounds_match_float_window(n, p, eps, decided, fits):
    # one candidate per count c = 0..n of symbol 0 (the other cell counts
    # n - c): the kernel's integer bounds must decide every count as the
    # float test lo <= c <= hi does
    joint = JointPmf((VariableId("A", 2), VariableId("B", 1)), np.array([[p], [1.0 - p]]))
    test = JointTypicalityTest(joint, TypicalityParams(n, eps))
    cands = (np.arange(n)[None, :] >= np.arange(n + 1)[:, None]).astype(np.int8)
    counts = np.stack([np.arange(n + 1), n - np.arange(n + 1)], axis=1)
    within = (test.lo <= counts) & (counts <= test.hi)
    expected = within.all(axis=1).tolist()
    b = np.zeros((1, n), dtype=np.int8)
    assert test.mask("A", cands, {"B": b[0]}).tolist() == expected
    assert test.pair_mask("A", cands, "B", b, {})[:, 0].tolist() == expected
    assert [test.check({"A": row, "B": b[0]}) for row in cands] == expected
    # the case is the edge it says it is
    c = counts[:, 0]
    fuzzless = (n * p * (1.0 - eps) <= c) & (c <= n * p * (1.0 + eps))
    assert np.count_nonzero(fuzzless != within[:, 0]) == decided
    assert within[:, 0].any() == fits


def test_encoder_sized_pair_mask_memory():
    # simulate-exact's encoder at n = 11: every block against a codebook of
    # 2024 sequences.  Beyond its (2048, 2024) result the kernel holds its
    # tile buffers (two of `_KERNEL_WORDS` words, 1 MiB) and little else; a
    # (blocks x codewords) uint64 temporary per cell would be 31.6 MiB.
    encoder = _Instance(broadcast_forward_preset(11, seeds=(1,)), 1).coders()[0]
    blocks = codec._all_sequences(2, 11)
    assert encoder.size == 2024
    ok, peak = traced_peak(lambda: encoder.typical(blocks))
    assert ok.shape == (2048, 2024)
    assert peak < ok.nbytes + 2 * 2**20

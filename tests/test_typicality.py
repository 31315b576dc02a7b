"""The bitset typicality kernel against the per-tuple `check` oracle.

`JointTypicalityTest.check` counts one tuple's joint cells with a bincount;
`mask` and `pair_mask` count many candidates at once with popcounts over
packed sequences.  Both must accept exactly the same tuples.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skregion.codec as codec
from skregion.codec import JointTypicalityTest, SequenceBits, TypicalityParams
from skregion.pmf import JointPmf, VariableId

NAMES = ("A", "B", "C")


@st.composite
def kernel_cases(draw):
    """A random 3-variable joint (some zero cells), n, eps and a seed for sequences."""
    cards = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
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


@pytest.mark.parametrize("kernel_words", [1, 7, 1 << 30])
def test_kernel_grouping_does_not_change_masks(monkeypatch, kernel_words):
    # cells are counted a group at a time; the group size bounds memory only
    rng = np.random.default_rng(3)
    joint = JointPmf(tuple(VariableId(v, c) for v, c in zip(NAMES, (3, 2, 2))),
                     rng.dirichlet(np.ones(12)).reshape(3, 2, 2))
    params = TypicalityParams(90, 1.0)
    tuples = _tuples(joint, params.n, rng, 6)
    a, b, c = tuples[:, 0], tuples[:, 1], tuples[0, 2]
    test = JointTypicalityTest(joint, params)
    reference = test.pair_mask("A", a, "B", b, {"C": c}), test.mask("A", a, {"B": b[0], "C": c})
    monkeypatch.setattr(codec, "_KERNEL_WORDS", kernel_words)
    assert np.array_equal(test.pair_mask("A", a, "B", b, {"C": c}), reference[0])
    assert np.array_equal(test.mask("A", a, {"B": b[0], "C": c}), reference[1])
    assert reference[0].any()


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

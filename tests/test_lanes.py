"""The array replay of seeded numpy streams, against real generators.

`PCG64Lanes` reimplements numpy's SeedSequence, PCG64, `random()` and
`integers(k)`; these tests are its oracle, so a numpy release that changes
any of those draws fails here before it can move a Monte Carlo report.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from skregion._lanes import GeneratorLanes, PCG64Lanes
from skregion.sim import TRIAL_SEED

LANES = 3

# 1 draws nothing; small bounds rarely reject; bounds near 2^31 and 3 * 2^30
# reject a quarter to a half of their 32-bit draws
bounds = st.one_of(st.just(1), st.integers(2, 12), st.integers(2**31 - 4, 2**31 + 4),
                   st.sampled_from([3 * 2**30, 2**32 - 1]), st.integers(1, 2**32 - 1))
draws = st.one_of(
    st.tuples(st.just("random"), st.integers(1, 16)),
    st.tuples(st.just("integers"), st.lists(bounds, min_size=LANES, max_size=LANES),
              st.lists(st.booleans(), min_size=LANES, max_size=LANES)),
)


@settings(max_examples=120, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**96)),
       first=st.integers(0, 2**32 - LANES),
       ops=st.lists(draws, max_size=10))
@example(seed=1, first=0, ops=[("integers", [7, 7, 1], [True] * LANES), ("random", 3),
                               ("integers", [7, 2**31 + 1, 7], [True] * LANES)])
def test_lanes_replay_seeded_generators(seed, first, ops):
    # lane i draws what default_rng(SeedSequence([TRIAL_SEED, seed, first + i]))
    # draws, for every interleaving of random(n) and integers(k) on any
    # subset of lanes, and ends in the same generator state
    trials = range(first, first + LANES)
    lanes = PCG64Lanes((TRIAL_SEED, seed), trials)
    rngs = [np.random.default_rng(np.random.SeedSequence([TRIAL_SEED, seed, t])) for t in trials]
    for op in ops:
        if op[0] == "random":
            expected = np.stack([rng.random(op[1]) for rng in rngs])
            assert np.array_equal(lanes.random(op[1]), expected)
        else:
            _, ks, chosen = op
            rows = np.flatnonzero(chosen)
            k = np.array(ks)[rows]
            expected = [rngs[r].integers(ks[r]) for r in rows]
            assert lanes.integers(k, rows).tolist() == expected
    for i, rng in enumerate(rngs):
        assert lanes.state(i) == rng.bit_generator.state


def test_lanes_keep_a_buffered_half_across_doubles():
    # one bounded draw splits a 64-bit output; random() leaves the buffered
    # half, which the next bounded draw takes
    lanes = PCG64Lanes((TRIAL_SEED, 5), [0])
    rng = np.random.default_rng(np.random.SeedSequence([TRIAL_SEED, 5, 0]))
    assert lanes.integers([10], [0]).tolist() == [rng.integers(10)]
    assert lanes.state(0)["has_uint32"] == 1
    assert np.array_equal(lanes.random(2)[0], rng.random(2))
    assert lanes.state(0) == rng.bit_generator.state
    assert lanes.integers([10], [0]).tolist() == [rng.integers(10)]
    assert lanes.state(0) == rng.bit_generator.state
    assert lanes.state(0)["has_uint32"] == 0


def test_generator_lanes_draw_from_the_callers_generators():
    rngs = [np.random.default_rng(s) for s in (3, 4)]
    lanes = GeneratorLanes(rngs)
    expected = [np.random.default_rng(s) for s in (3, 4)]
    assert np.array_equal(lanes.random(4), np.stack([rng.random(4) for rng in expected]))
    assert lanes.integers(np.array([9, 1]), np.array([1, 0])).tolist() == [
        expected[1].integers(9), 0]
    assert [rng.bit_generator.state for rng in rngs] == [
        rng.bit_generator.state for rng in expected]


def test_lanes_refuse_what_they_cannot_replay():
    with pytest.raises(ValueError):
        PCG64Lanes((TRIAL_SEED, 1), [2**32])
    with pytest.raises(ValueError):
        PCG64Lanes((TRIAL_SEED, -1), [0])
    lanes = PCG64Lanes((TRIAL_SEED, 1), [0])
    for bad in (0, 2**32):
        with pytest.raises(ValueError):
            lanes.integers([bad], [0])


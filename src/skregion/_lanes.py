"""Seeded numpy random streams replayed as arrays, one lane per stream.

Lane i of `PCG64Lanes(prefix, trials)` yields exactly the draws of
`np.random.default_rng(np.random.SeedSequence([*prefix, trials[i]]))`, and
every lane advances in the same few array operations.  The replay covers
`SeedSequence` entropy mixing, PCG64 seeding and stepping with its XSL-RR
output (O'Neill 2014), `Generator.random()` and `Generator.integers(k)`,
which numpy draws from buffered 32-bit outputs by Lemire's rejection
method (Lemire 2019).  It matches numpy 2.4.6 bit for bit; the oracle
tests compare it with real generators, so a numpy that changes any of
these draws fails them.

`GeneratorLanes` gives the same two draws from caller-owned generators, so
one batch stage serves a batch of replayed trials and a single call with
the caller's generator.
"""

import numpy as np

_MASK32 = 0xFFFFFFFF
_LOW32 = np.uint64(_MASK32)

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_WORDS = 4

# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit words
_MULT_HI = np.uint64(2549297995355413924)
_MULT_LO = 4865540595714422341


def _words(value: int) -> list:
    """`value` as `SeedSequence` splits an int: 32-bit words, low word first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> _XSHIFT)


def _seed_words(entropy: list) -> list:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` per lane, as four
    uint64 arrays; `entropy` lists uint32 arrays, one word of every lane each."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, len(entropy)):
        for dst in range(_POOL_WORDS):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))

    hash_const = _INIT_B
    state = []
    for i in range(2 * 4):
        value = pool[i % _POOL_WORDS] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [state[2 * i] | (state[2 * i + 1] << np.uint64(32)) for i in range(4)]


def _mul_hi_lo(a: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * _MULT_LO, from 32-bit limbs."""
    b0, b1 = np.uint64(_MULT_LO & _MASK32), np.uint64(_MULT_LO >> 32)
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


def _add128(hi, lo, add_hi, add_lo) -> tuple:
    out_lo = lo + add_lo
    return hi + add_hi + (out_lo < lo), out_lo


def _step(hi, lo, inc_hi, inc_lo) -> tuple:
    """One LCG step of 128-bit states: state * multiplier + inc, mod 2^128."""
    prod_lo = lo * np.uint64(_MULT_LO)
    prod_hi = _mul_hi_lo(lo) + lo * _MULT_HI + hi * np.uint64(_MULT_LO)
    return _add128(prod_hi, prod_lo, inc_hi, inc_lo)


def _output(hi, lo) -> np.ndarray:
    """PCG64's XSL-RR output of 128-bit states."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


class PCG64Lanes:
    """Lane i replays `default_rng(SeedSequence([*prefix, trials[i]]))`.

    Each lane holds PCG64's 128-bit state and increment as two uint64
    words, and numpy's buffered half of the last 64-bit output that
    `integers` split.  Trial numbers must fit in 32 bits.
    """

    def __init__(self, prefix: tuple, trials):
        trials = np.asarray(trials, dtype=np.int64)
        if len(trials) and (trials.min() < 0 or trials.max() > _MASK32):
            raise ValueError("trial numbers must lie in [0, 2^32)")
        shared = [w for value in prefix for w in _words(int(value))]
        entropy = [np.full(len(trials), w, dtype=np.uint32) for w in shared]
        s0, s1, s2, s3 = _seed_words(entropy + [trials.astype(np.uint32)])
        one = np.uint64(1)
        self._inc_hi = (s2 << one) | (s3 >> np.uint64(63))
        self._inc_lo = (s3 << one) | one
        # PCG64 seeding: from state 0 step (giving inc), add the seed, step
        hi, lo = _add128(self._inc_hi, self._inc_lo, s0, s1)
        self._hi, self._lo = _step(hi, lo, self._inc_hi, self._inc_lo)
        self._has_uint32 = np.zeros(len(trials), dtype=bool)
        self._uinteger = np.zeros(len(trials), dtype=np.uint64)

    def __len__(self) -> int:
        return len(self._hi)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        """One 64-bit output from each lane in `rows`."""
        hi, lo = _step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        return _output(hi, lo)

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        """One 32-bit output from each lane in `rows`: the buffered high half
        of its last split output, or else the low half of a fresh one."""
        buffered = self._has_uint32[rows]
        out = np.empty(len(rows), dtype=np.uint64)
        held = rows[buffered]
        out[buffered] = self._uinteger[held]
        self._has_uint32[held] = False
        fresh = rows[~buffered]
        x = self._next64(fresh)
        out[~buffered] = x & _LOW32
        self._uinteger[fresh] = x >> np.uint64(32)
        self._has_uint32[fresh] = True
        return out

    def random(self, n: int) -> np.ndarray:
        """(lanes, n): `random(n)` of every lane."""
        out = np.empty((len(self), n))
        hi, lo = self._hi, self._lo
        for i in range(n):
            hi, lo = _step(hi, lo, self._inc_hi, self._inc_lo)
            out[:, i] = (_output(hi, lo) >> np.uint64(11)) * (1.0 / 2.0 ** 53)
        self._hi, self._lo = hi, lo
        return out

    def integers(self, bounds, rows) -> np.ndarray:
        """`integers(bounds[i])` of lane rows[i], for distinct lanes `rows`.

        A bound of 1 draws nothing and gives 0, as numpy does; bounds must
        lie in [1, 2^32).
        """
        bounds = np.asarray(bounds, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.intp)
        if len(bounds) and (bounds.min() < 1 or bounds.max() > _MASK32):
            raise ValueError("bounds must lie in [1, 2^32)")
        out = np.zeros(len(rows), dtype=np.int64)
        drawn = np.flatnonzero(bounds > 1)
        if len(drawn) == 0:
            return out
        lanes, k = rows[drawn], bounds[drawn].astype(np.uint64)
        threshold = (np.uint64(1 << 32) - k) % k
        m = self._next32(lanes) * k
        retry = np.flatnonzero((m & _LOW32) < threshold)
        while len(retry):
            m[retry] = self._next32(lanes[retry]) * k[retry]
            retry = retry[(m[retry] & _LOW32) < threshold[retry]]
        out[drawn] = (m >> np.uint64(32)).astype(np.int64)
        return out

    def state(self, lane: int) -> dict:
        """Lane `lane`'s state in the form of `Generator.bit_generator.state`."""
        return {
            "bit_generator": "PCG64",
            "state": {"state": int(self._hi[lane]) << 64 | int(self._lo[lane]),
                      "inc": int(self._inc_hi[lane]) << 64 | int(self._inc_lo[lane])},
            "has_uint32": int(self._has_uint32[lane]),
            "uinteger": int(self._uinteger[lane]),
        }


class GeneratorLanes:
    """The draws of `PCG64Lanes` taken from caller-owned generators: lane i
    draws from `rngs[i]`."""

    def __init__(self, rngs):
        self.rngs = list(rngs)

    def random(self, n: int) -> np.ndarray:
        return np.stack([rng.random(n) for rng in self.rngs])

    def integers(self, bounds, rows) -> np.ndarray:
        return np.array([self.rngs[r].integers(k) for k, r in
                         zip(np.asarray(bounds).tolist(), np.asarray(rows).tolist())],
                        dtype=np.int64)

"""Standard three-terminal source constructions used across tests and demos.

All sources are joints over variables named X1, X2, X3 (the observations of
users 1, 2 and 3).
"""

from __future__ import annotations

import numpy as np

from .pmf import Channel, JointPmf, VariableId

__all__ = [
    "xor_source",
    "identity_source",
    "independent_source",
    "broadcast_source",
    "random_pmf",
    "random_chain",
    "triple_from_table",
]

X_NAMES = ("X1", "X2", "X3")


def triple_from_table(table, names=X_NAMES) -> JointPmf:
    arr = np.asarray(table, dtype=np.float64)
    variables = tuple(VariableId(n, c) for n, c in zip(names, arr.shape))
    return JointPmf(variables, arr)


def xor_source() -> JointPmf:
    """X1, X2 independent uniform bits; X3 = X1 xor X2."""
    t = np.zeros((2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            t[a, b, a ^ b] = 0.25
    return triple_from_table(t)


def identity_source() -> JointPmf:
    """X1 and X3 are the same uniform bit; X2 an independent uniform bit."""
    t = np.zeros((2, 2, 2))
    for a in (0, 1):
        for b in (0, 1):
            t[a, b, a] = 0.25
    return triple_from_table(t)


def independent_source(cards=(2, 2, 2)) -> JointPmf:
    """Three mutually independent uniform variables."""
    t = np.ones(cards) / np.prod(cards)
    return triple_from_table(t)


def broadcast_source(center: str = "X3", flip_a: float = 0.25, flip_b: float = 0.25) -> JointPmf:
    """Uniform center bit observed by the other two users through independent BSCs.

    center="X3" gives the chain X1 - X3 - X2 (flip_a on the X1 leg, flip_b on
    the X2 leg); center="X2" gives X1 - X2 - X3 (flip_a to X1, flip_b to X3);
    center="X1" gives X2 - X1 - X3.
    """
    others = [n for n in X_NAMES if n != center]
    if len(others) != 2:
        raise ValueError(f"center must be one of {X_NAMES}, got {center!r}")
    base = JointPmf((VariableId(center, 2),), np.array([0.5, 0.5]))
    joint = base.extend(Channel.bsc(center, others[0], flip_a))
    joint = joint.extend(Channel.bsc(center, others[1], flip_b))
    # reorder axes to X1, X2, X3
    perm = [joint.axis(n) for n in X_NAMES]
    table = joint.table.transpose(perm)
    return triple_from_table(table)


def random_pmf(rng: np.random.Generator, cards, names=None) -> JointPmf:
    """Dirichlet(1) random joint over the given cardinalities."""
    cards = tuple(int(c) for c in cards)
    if names is None:
        names = X_NAMES[: len(cards)] if len(cards) <= 3 else tuple(f"W{i}" for i in range(len(cards)))
    flat = rng.dirichlet(np.ones(int(np.prod(cards))))
    variables = tuple(VariableId(n, c) for n, c in zip(names, cards))
    return JointPmf(variables, flat.reshape(cards))


def _random_stochastic(rng, rows: int, cols: int) -> np.ndarray:
    return np.stack([rng.dirichlet(np.ones(cols)) for _ in range(rows)])


def random_chain(rng: np.random.Generator, order=("X1", "X2", "X3"), cards=(2, 2, 2)) -> JointPmf:
    """Random Markov chain order[0] - order[1] - order[2] with given cardinalities.

    Cardinalities are per the X1/X2/X3 labels, not the chain position.
    """
    by_name = dict(zip(X_NAMES, cards))
    mid, first, last = order[1], order[0], order[2]
    base = JointPmf((VariableId(mid, by_name[mid]),), rng.dirichlet(np.ones(by_name[mid])))
    ch_first = Channel(
        (mid,), (VariableId(first, by_name[first]),),
        _random_stochastic(rng, by_name[mid], by_name[first]),
    )
    ch_last = Channel(
        (mid,), (VariableId(last, by_name[last]),),
        _random_stochastic(rng, by_name[mid], by_name[last]),
    )
    joint = base.extend(ch_first).extend(ch_last)
    perm = [joint.axis(n) for n in X_NAMES]
    return triple_from_table(joint.table.transpose(perm))

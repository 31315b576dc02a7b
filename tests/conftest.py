"""Shared definition-level oracles, independent of the numpy code paths."""

import math

import numpy as np
import pytest


def oracle_entropy(pmf, names) -> float:
    """Brute-force H over a variable subset: python dicts and math.log2."""
    names = list(names)
    if not names:
        return 0.0
    axes = [pmf.names.index(n) for n in names]
    marginal = {}
    for idx in np.ndindex(*pmf.table.shape):
        p = float(pmf.table[idx])
        if p <= 0.0:
            continue
        key = tuple(idx[a] for a in axes)
        marginal[key] = marginal.get(key, 0.0) + p
    return -sum(p * math.log2(p) for p in marginal.values() if p > 0.0)


def oracle_cmi(pmf, a, b, c=()) -> float:
    a, b, c = list(a), list(b), list(c)
    return (oracle_entropy(pmf, a + c) + oracle_entropy(pmf, b + c)
            - oracle_entropy(pmf, a + b + c) - oracle_entropy(pmf, c))


def lattice_channel_objects(layer) -> list:
    """One `Channel` per matrix of a stacked `LatticeLayer`, in stack order:
    the per-channel view of a lattice layer that the oracle tests iterate."""
    from skregion.pmf import Channel

    return [Channel(layer.from_names, layer.to_vars, m) for m in layer.matrices]


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)

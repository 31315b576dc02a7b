"""Shared definition-level oracles, independent of the numpy code paths."""

import math
import tracemalloc
from collections import Counter, defaultdict

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


def oracle_covers(encoder, hit) -> list:
    """The cover codewords jointly typical with one hit of a forward or a
    backward encoder (a codeword, or a pair i * M_t + j), in increasing
    order: each (hit, cover) tuple is tested on its own by the encoder's
    cover test, through `check`, not through the encoder's cover table."""
    if hasattr(encoder, "cb_t"):
        i, j = divmod(int(hit), encoder.cb_t.size)
        cb = encoder.cb_s
        seqs = {"S": cb.sequences[i], "T": encoder.cb_t.sequences[j]}
    else:
        cb = encoder.codebook
        seqs = {cb.var: cb.sequences[hit]}
    return [a for a, u in enumerate(cb.u_codebook)
            if encoder.cover_test.check({**seqs, cb.cover_var: u})]


def oracle_weigh_outcomes(block_hits, covers_of, label_of) -> tuple:
    """Per-block encoder outcomes, weighed hit by hit in Python.

    `block_hits` yields each block's typical hits, in block order.  The
    encoder draws a hit uniformly, then a cover uniformly among
    `covers_of(hit)`, and announces `label_of(hit)`.  Returns (outcomes,
    fail): outcomes[code] lists ((*label, cover), weight) for the successful
    encodings of block `code`, in sorted order; fail[code] is the
    probability that the encoder finds no hit, or a hit with no cover.
    """
    outcomes, fail = [], []
    for hits in block_hits:
        out = defaultdict(float)
        missed = 0.0 if len(hits) else 1.0
        for hit in hits:
            covers = covers_of(hit)
            if len(covers) == 0:
                missed += 1.0 / len(hits)
                continue
            wa = 1.0 / len(hits) / len(covers)
            label = label_of(hit)
            for a in covers:
                out[(*label, int(a))] += wa
        outcomes.append(sorted(out.items()))
        fail.append(missed)
    return outcomes, np.array(fail)


def oracle_view_joint(outcomes, fail, row_chunks, shape: tuple) -> np.ndarray:
    """The (key, *public indices, eavesdropper block) joint, one row update
    per outcome cell: each block's cells, then its encoder-failure mass
    spread over the keys at the fallback transcript (every index 0).

    `row_chunks` yields (first block, rows) of the (block, eavesdropper
    block) law in block order; a cell is (key, *public indices), and the
    joint has `shape` (keys, *public index ranges, eavesdropper blocks).
    """
    joint = np.zeros(shape)
    fallback = (slice(None),) + (0,) * (len(shape) - 2)
    for start, rows in row_chunks:
        for code, row in enumerate(rows, start):
            for cell, w in outcomes[code]:
                joint[cell] += w * row
            if fail[code] > 0.0:
                joint[fallback] += (fail[code] / shape[0]) * row
    return joint


def oracle_key_error(outcomes, fail, row_chunks, decode_row, pos: int) -> tuple:
    """(err, terms): the probability that the key at label `pos` of each
    outcome is decoded wrongly, one term per outcome cell.

    `decode_row(col, a)` is the key decoded from every observed block, -1
    where the decode fails; the column is label pos + 1 and the cover the
    last entry of a cell.  Encoder failures count fully; the terms are then
    added in block order.
    """
    row_mass = np.empty(len(outcomes))
    terms = []
    for start, rows in row_chunks:
        row_mass[start:start + len(rows)] = rows.sum(axis=1)
        for code, row in enumerate(rows, start):
            for cell, w in outcomes[code]:
                decoded = decode_row(cell[pos + 1], cell[-1])
                terms.append(w * float(row[decoded != cell[pos]].sum()))
    err = float(row_mass @ fail)
    for term in terms:
        err += term
    return err, terms


def oracle_decode_failures(outcomes, fail, decode_row, width: int) -> np.ndarray:
    """(block, observed block): the probability that the decode of the key
    fails given the pair, over the (k, k', a) outcomes of each block and
    its fallback transcript (column 0, cover 0)."""
    dec_fail = np.zeros((len(outcomes), width))
    for code, cells in enumerate(outcomes):
        for (k, kp, a), w in cells:
            dec_fail[code] += w * (decode_row(kp, a) == -1)
        if fail[code] > 0.0:
            dec_fail[code] += fail[code] * (decode_row(0, 0) == -1)
    return dec_fail


def oracle_plugin(pairs: Counter) -> tuple:
    """Plug-in (H(K), I(K; V)) from (key, view) pair counts, one Python term
    at a time in first-seen order, each sum from 0.0."""
    total = sum(pairs.values())
    if total == 0:
        return 0.0, 0.0
    left = Counter()
    right = Counter()
    for (k, v), c in pairs.items():
        left[k] += c
        right[v] += c
    h = 0.0
    for c in left.values():
        p = c / total
        h -= p * np.log2(p)
    mi = 0.0
    for (k, v), c in pairs.items():
        mi += (c / total) * np.log2(c * total / (left[k] * right[v]))
    return float(h), float(max(0.0, mi))


def traced_peak(fn) -> tuple:
    """(fn(), the peak of the memory that tracemalloc traces while fn runs)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture
def rng():
    return np.random.default_rng(20240809)

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


def oracle_entropy_rows(rows: np.ndarray) -> np.ndarray:
    """Per-row entropy of the (tables, cells) array `rows` by the two-mask
    formula: t * log2(t) where t > 0, else +0.0, summed over each row as
    numpy sums a contiguous row (pairwise)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(rows > 0.0, rows * np.log2(np.where(rows > 0.0, rows, 1.0)), 0.0)
    return -x.sum(axis=1)


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


# A union of constraint sets {R1 <= r1_max, R2 <= r2_max, R1 + R2 <= sum_max}
# as rows (r1_max, r2_max, sum_max), sum_max = inf for no sum bound.  The
# oracles below take each set on its own, in plain Python floats.

def as_rates(rows) -> np.ndarray:
    """The (n, 3) float64 rate array of `rows`."""
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def rows_of(csets) -> np.ndarray:
    """The (n, 3) float64 rate array of `RateConstraintSet`s."""
    return as_rates([(c.r1_max, c.r2_max, c.sum_max) for c in csets])


def oracle_contains(row, r1, r2, tol=0.0) -> bool:
    r1_max, r2_max, sum_max = row
    return (r1 >= -tol and r2 >= -tol and r1 <= r1_max + tol and r2 <= r2_max + tol
            and r1 + r2 <= sum_max + tol)


def oracle_max_r1(row) -> float:
    """Largest achievable R1 inside the set."""
    return min(row[0], row[2])


def oracle_r2_at(row, r1) -> float:
    """Largest feasible R2 at the given R1, or -inf if R1 is infeasible."""
    if r1 > oracle_max_r1(row):
        return -math.inf
    return min(row[1], row[2] - r1)


def oracle_dominates(a, b) -> bool:
    return a[0] >= b[0] and a[1] >= b[1] and a[2] >= b[2]


def _clamp(x: float) -> float:
    return x if x > 0.0 else 0.0


def oracle_maximal_sets(rows) -> set:
    """Clamp each set, then keep the sets that no earlier kept set
    dominates, dropping the kept sets each new one dominates."""
    maximal = []
    for c in rows:
        c = (_clamp(c[0]), _clamp(c[1]), c[2] if c[2] == math.inf else _clamp(c[2]))
        if any(oracle_dominates(o, c) for o in maximal):
            continue
        maximal = [o for o in maximal if not oracle_dominates(c, o)]
        maximal.append(c)
    return set(maximal)


def oracle_candidates(maximal) -> list:
    """The frontier's candidate abscissae over the maximal sets, ascending."""
    xs = {0.0}
    for c in maximal:
        xs.add(oracle_max_r1(c))
        if c[2] < math.inf:
            xs.add(_clamp(c[2] - c[1]))
        for o in maximal:
            if o[2] < math.inf:
                xs.add(_clamp(o[2] - c[1]))
    limit = max(oracle_max_r1(c) for c in maximal)
    return sorted(x for x in xs if 0.0 <= x <= limit)


def oracle_pareto_frontier(rows) -> list:
    """The Pareto frontier of the union, swept one candidate and one set at
    a time."""
    from skregion.tolerances import FLAT_TOL, SAME_R1_TOL

    maximal = sorted(oracle_maximal_sets(rows))
    if not maximal:
        return [(0.0, 0.0)]
    verts = []
    for x in oracle_candidates(maximal):
        y = max(oracle_r2_at(c, x) for c in maximal)
        if y == -math.inf:
            continue
        if verts and abs(verts[-1][0] - x) < SAME_R1_TOL:
            verts[-1] = (x, max(verts[-1][1], y))
        else:
            verts.append((x, y))
    out = []
    for i, (x, y) in enumerate(verts):
        if any(yj >= y - FLAT_TOL for _, yj in verts[i + 1:]):
            continue
        out.append((x, y))
    return out if out else [(0.0, 0.0)]


def oracle_point_gap(px: float, py: float, rows) -> float:
    """One-sided Chebyshev distance from (px, py) into the union of rows."""
    best = math.inf
    for r1_max, r2_max, sum_max in rows:
        d = max(0.0, px - min(r1_max, sum_max), py - min(r2_max, sum_max))
        if sum_max < math.inf:
            d = max(d, (px + py - sum_max) / 2.0)
        d = max(d, 0.0)
        if d < best:
            best = d
    return best


def oracle_region_gap(outer_frontier, rows) -> float:
    """Max one-sided gap from the outer frontier's vertices and 15 points
    along each edge into the union of rows (the origin's set if empty)."""
    rows = list(rows) or [(0.0, 0.0, math.inf)]
    probes = list(outer_frontier)
    for (x0, y0), (x1, y1) in zip(outer_frontier, outer_frontier[1:]):
        for j in range(1, 16):
            f = j / 16
            probes.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
    return max(oracle_point_gap(px, py, rows) for px, py in probes)


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

"""The CLI's JSON writer against `json.dumps`, the oracle.

`cli._json_pieces` renders every document with `json.dumps`, except
region.json's point array, which it renders from the lattice columns a
block of points at a time.  Its pieces, joined (`cli._json_text`) or written
by `cli._atomic_write`, must equal `json.dumps(obj, sort_keys=True, indent=2,
allow_nan=False) + "\\n"` byte for byte, and it must raise the same
exception type wherever `json.dumps` raises; region.json is checked against
the document with each point a dict, at several block sizes.  A region.json
write holds one block's text, and a failed write leaves no file behind.
"""

import enum
import gc
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import skregion.cli as cli
from skregion.cli import _json_text
from skregion.region import (
    GridSpec,
    enumerate_region,
    explicit_outer,
    pareto_frontier,
    upper_concave_envelope,
)
from skregion.sources import broadcast_source, random_pmf, xor_source
from conftest import as_rates, traced_peak


def _oracle(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(write, obj):
    """(text, None) on success, (None, exception type) on failure."""
    try:
        return write(obj), None
    except (TypeError, ValueError) as exc:
        return None, type(exc)


def _assert_matches_oracle(obj):
    expected = _outcome(_oracle, obj)
    assert _outcome(_json_text, obj) == expected
    return expected


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-320, 5e-324, 1e300, 0.1]),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    FLOATS,
    st.text(),  # non-ASCII, surrogates and control characters included
    st.text(alphabet=st.characters(max_codepoint=0x1f)),
    st.just(cli._POINTS_SLOT),
)
# each key strategy with the most distinct keys it can give a dict
KEY_KINDS = (
    (st.text(max_size=4), 4),
    (st.integers(-3, 3), 4),
    (FLOATS, 4),
    (st.booleans(), 2),
    (st.none(), 1),
)


def _containers(children, min_size=0):
    items = st.lists(children, min_size=min_size, max_size=4)
    same_kind_dicts = [st.dictionaries(keys, children, min_size=min_size, max_size=size)
                       for keys, size in KEY_KINDS]
    mixed_keys = st.one_of(*(keys for keys, _ in KEY_KINDS), NON_FINITE)
    mixed_dicts = st.dictionaries(mixed_keys, children, min_size=min_size, max_size=3)
    return st.one_of(items, items.map(tuple), *same_kind_dicts, mixed_dicts)


@st.composite
def documents(draw):
    """A list of random containers whose leaves all come from a small pool
    of drawn non-empty containers.

    A pool container drawn more than once appears as the same object in
    several places and at several depths, which the writer's circular
    reference check must not take for a cycle.  One document in four may
    hold non-finite floats, so most are valid.
    """
    scalars = draw(st.sampled_from([LEAVES, LEAVES, LEAVES, LEAVES | NON_FINITE]))
    trees = st.recursive(scalars, _containers, max_leaves=10)
    pool = draw(st.lists(_containers(trees, min_size=1), min_size=1, max_size=3))
    shared = st.integers(0, len(pool) - 1).map(lambda i: pool[i])
    skeleton = st.recursive(shared, _containers, max_leaves=6)
    return draw(st.lists(skeleton, min_size=2, max_size=4))


@settings(max_examples=200, deadline=None)
@given(documents())
def test_writer_matches_json_dumps(doc):
    _assert_matches_oracle(doc)


def test_shared_subtree_at_several_depths():
    shared = {"from": ["X1"], "matrix": [[0.5, 0.5], [1.0, 0.0]], "to": [["S", 2]]}
    doc = {"a": [shared, shared], "b": {"c": [[shared]], "d": shared}, "e": shared}
    text, error = _assert_matches_oracle(doc)
    assert error is None and text.count('"matrix"') == 5


class _Level(enum.IntEnum):
    HIGH = 7


class _LoudInt(int):
    def __repr__(self):
        return "loud"


class _LoudStr(str):
    pass


@pytest.mark.parametrize("obj", [
    {"values": [1, 2.5, -0.0, 10**30, True, None, "é\n \x00"]},
    [_Level.HIGH, _LoudInt(3), {_LoudInt(4): _LoudStr("x")}],
    [np.float64(0.1), np.float64(-2.5)],
    {1: "int", 2.5: "float", False: "bool"},
    {None: 0},
    ([], {}, (), [[]], {"e": {}}),
    "top-level string",
    3.0,
    {"points": cli._POINTS_SLOT, "a": [cli._POINTS_SLOT]},  # the slot's text as data
    [cli._POINTS_SLOT],
])
def test_writer_valid_cases(obj):
    text, error = _assert_matches_oracle(obj)
    assert error is None


def _self_containing_list():
    lst = [1]
    lst.append([lst])
    return lst


def _self_containing_dict():
    d = {}
    d["me"] = {"again": d}
    return d


@pytest.mark.parametrize("obj,error", [
    ([np.int64(1)], TypeError),
    ({"flag": np.bool_(True)}, TypeError),
    ({1, 2}, TypeError),
    ([{"a": {1, 2}}], TypeError),
    ({1: 0, "a": 0}, TypeError),
    ({None: 0, 1: 0}, TypeError),
    ({(1, 2): 0}, TypeError),
    ([math.nan], ValueError),
    ({"x": [1.0, -math.inf]}, ValueError),
    ({math.inf: 0}, ValueError),
    (_self_containing_list(), ValueError),
    (_self_containing_dict(), ValueError),
])
def test_writer_rejects_like_json_dumps(obj, error):
    assert _assert_matches_oracle(obj) == (None, error)


def test_writer_leaves_no_rendered_text_in_garbage():
    """No rendered text outlives the call.  The stdlib's indented encoder
    leaves one small closure cycle per call for the cyclic collector, but no
    string or list of the text may be in it."""
    descriptors = [[{"from": ["X1"], "matrix": [[0.25, 0.75], [1.0, 0.0]], "to": [["S", 2]]},
                    {"from": ["X2"], "matrix": [[0.5, 0.5]], "to": [["T", 1]]}]]
    n = 500
    points = cli._PointArray(descriptors, [np.arange(n) % 2],
                             np.linspace(0.0, 1.0, 3 * n).reshape(n, 3))
    doc = {"points": points, "frontier": [[i / 7, 1.0 - i / 7] for i in range(n)]}
    gc.collect()
    gc.disable()
    debug = gc.get_debug()
    gc.set_debug(debug | gc.DEBUG_SAVEALL)
    try:
        text = _json_text(doc)
        gc.collect()
        large = [type(o) for o in gc.garbage
                 if isinstance(o, (str, list)) and sys.getsizeof(o) > 1024]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        gc.enable()
    assert len(text) >= 100_000 and large == []


# ---------------------------------------------------------------------------
# region.json's point array
# ---------------------------------------------------------------------------

SOURCES = {
    "e3": broadcast_source("X3", 0.25, 0.25),
    "xor": xor_source(),
    "random": random_pmf(np.random.default_rng(11), (2, 2, 2)),
}
CARDS = "S=2,T=2,U=2,V=1"


def _region_doc_as_dicts(dist, direction, bound, cards, hull):
    """The document whose `json.dumps` text region.json must be, with each
    point a dict: a lattice point's channels built from its layers'
    `from_names`, `to_vars` and picked matrices, its constraints from its
    rate row, and the explicit bound's one point from `explicit_outer`."""
    base = cli.load_distribution(dist)
    if bound == "explicit":
        cset = explicit_outer(base)
        rows = [(cset.r1_max, cset.r2_max, cset.sum_max)]
        channels = [None]
        meta = {"family": "explicit-outer"}
    else:
        card = {"S": 2, "T": 2, "U": 1, "V": 1}
        card.update((k, int(v)) for k, v in (item.split("=") for item in cards.split(",")))
        grid = GridSpec(card["S"], card["T"], card["U"], card["V"], 1)
        region = enumerate_region(base, f"{direction}-{bound}", grid)
        lattice, meta = region.lattice, region.meta
        rows = lattice.rates.tolist()
        layers = lattice.layers
        picks = np.unravel_index(lattice.kept, [len(layer.matrices) for layer in layers])
        channels = [[{"from": list(layer.from_names),
                      "to": [[v.name, v.cardinality] for v in layer.to_vars],
                      "matrix": layer.matrices[i].tolist()}
                     for layer, i in zip(layers, pick)]
                    for pick in zip(*picks)]
    frontier = pareto_frontier(as_rates(rows))
    doc = {
        "schema": 1,
        "direction": direction,
        "bound": bound,
        "points": [{"constraints": {"r1_max": r1, "r2_max": r2,
                                    "sum_max": None if rsum == math.inf else rsum},
                    "channels": chs} for (r1, r2, rsum), chs in zip(rows, channels)],
        "frontier": [[r1, r2] for r1, r2 in frontier],
        "meta": meta,
    }
    if hull:
        doc["hull"] = [[x, y] for x, y in upper_concave_envelope(frontier)]
    return doc


def _assert_region_json_matches_oracle(tmp_path, source, direction, bound,
                                       cards=CARDS, hull=False):
    """`cmd_region`'s region.json is the oracle's text of the dict document,
    or both raise the same exception type.  Returns the oracle's outcome."""
    dist = tmp_path / f"{source}.dist"
    cli.write_distribution(SOURCES[source], str(dist))
    out = tmp_path / "out"
    argv = ["region", "--dist", str(dist), "--direction", direction, "--bound", bound,
            "--cards", cards, "--grid-q", "1", "--out", str(out)] + ["--hull"] * hull
    expected = _outcome(_oracle, _region_doc_as_dicts(str(dist), direction, bound,
                                                      cards, hull))
    written = _outcome(lambda argv: cli.main(argv) == 0 and
                       (out / "region.json").read_text(encoding="utf-8"), argv)
    assert written == expected
    return expected


@pytest.mark.parametrize("hull", [False, True], ids=["plain", "hull"])
@pytest.mark.parametrize("direction,bound", [
    ("forward", "inner"), ("forward", "outer"), ("backward", "inner"), ("backward", "outer"),
    ("forward", "explicit"), ("backward", "explicit"),
])
@pytest.mark.parametrize("source", list(SOURCES))
def test_region_json_matches_its_dict_document(tmp_path, source, direction, bound, hull):
    text, error = _assert_region_json_matches_oracle(tmp_path, source, direction, bound,
                                                     hull=hull)
    assert error is None
    if bound != "inner":
        assert '"sum_max": null' in text


def test_region_json_backward_outer_with_rejected_points(tmp_path, monkeypatch):
    from skregion import region as region_module

    text, error = _assert_region_json_matches_oracle(tmp_path, "e3", "backward", "outer",
                                                     cards="S=2,T=2,U=2")
    assert error is None
    meta = json.loads(text)["meta"]
    assert meta["rejected"] > 0 and meta["evaluated"] > meta["rejected"]
    monkeypatch.setattr(region_module, "CHAIN_TOL", -1.0)  # every point rejected
    text, error = _assert_region_json_matches_oracle(tmp_path, "e3", "backward", "outer",
                                                     cards="S=2,T=2,U=2")
    assert error is None and json.loads(text)["points"] == []


def _patch_first_point_of_each_chunk(monkeypatch, family, r1=None, r2=None, rsum=None):
    """Make the family formula give the first point of every lattice chunk
    the values that are not None."""
    from skregion import region as region_module

    formula = region_module._FORMULAS[family]

    def patched(h):
        columns = [np.array(c) for c in formula(h)]
        for column, value in zip(columns, (r1, r2, rsum)):
            if value is not None:
                column[0] = value
        return tuple(columns)

    monkeypatch.setitem(region_module._FORMULAS, family, patched)


@pytest.mark.parametrize("r1,r2,rsum", [
    (-0.0, 0.5, math.inf),   # a signed zero next to a null sum bound
    (0.25, -0.0, -0.0),
])
def test_region_json_signed_zero_and_infinite_sum(tmp_path, monkeypatch, r1, r2, rsum):
    _patch_first_point_of_each_chunk(monkeypatch, "forward-inner", r1, r2, rsum)
    text, error = _assert_region_json_matches_oracle(tmp_path, "e3", "forward", "inner")
    assert error is None and "-0.0" in text
    assert ('"sum_max": null' in text) == (rsum == math.inf)


@pytest.mark.parametrize("r1,r2,rsum", [
    (math.inf, None, None),
    (math.nan, None, None),
    (None, -math.inf, None),
    (None, None, math.nan),
    (None, None, -math.inf),
])
def test_region_json_non_finite_rate_raises_like_json_dumps(tmp_path, monkeypatch,
                                                            r1, r2, rsum):
    _patch_first_point_of_each_chunk(monkeypatch, "forward-inner", r1, r2, rsum)
    text, error = _assert_region_json_matches_oracle(tmp_path, "e3", "forward", "inner")
    assert error is ValueError


# ---------------------------------------------------------------------------
# region.json written a block of points at a time
# ---------------------------------------------------------------------------

_BLOCKS = [1, 2, cli._POINTS_BLOCK]
# rates at the edges of float text: signed zeros, a subnormal, large and
# short-repr values; sum bounds may also be inf (written as null)
_EDGE_RATES = [0.0, -0.0, 5e-324, 1e-320, 0.1, 1.0, 1e300, 0.6931471805599453]


def _descriptor(rng, layer):
    rows, cols = rng.integers(1, 4, size=2)
    return {"from": [f"X{layer + 1}"], "to": [[f"A{layer}", int(cols)]],
            "matrix": rng.uniform(size=(rows, cols)).tolist()}


@st.composite
def _point_arrays(draw):
    """(block size, `_PointArray`, the same points as dicts): 0, 1, block-1,
    block or block+1 points, with no channels (the explicit bound) or one
    to three layers of channels."""
    block = draw(st.sampled_from(_BLOCKS))
    n = max(0, block + draw(st.sampled_from([-block, 1 - block, -1, 0, 1])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = np.where(rng.uniform(size=(n, 3)) < 0.3,
                     rng.choice(_EDGE_RATES, size=(n, 3)), rng.uniform(-1.0, 2.0, (n, 3)))
    rates[rng.uniform(size=n) < 0.3, 2] = math.inf
    constraints = [{"r1_max": r1, "r2_max": r2, "sum_max": None if s == math.inf else s}
                   for r1, r2, s in rates.tolist()]
    if draw(st.booleans()):
        points = cli._PointArray(None, (), rates)
        return block, points, [{"channels": None, "constraints": c} for c in constraints]
    layers = [[_descriptor(rng, j) for _ in range(rng.integers(1, 4))]
              for j in range(draw(st.integers(1, 3)))]
    picks = [rng.integers(0, len(layer), size=n) for layer in layers]
    dicts = [{"channels": [layer[pick[i]] for layer, pick in zip(layers, picks)],
              "constraints": c} for i, c in enumerate(constraints)]
    return block, cli._PointArray(layers, picks, rates), dicts


@settings(max_examples=150, deadline=None)
@given(_point_arrays(), st.dictionaries(st.sampled_from(["a", "meta", "z"]),
                                        st.lists(FLOATS, max_size=3)))
def test_region_json_blocks_match_json_dumps(arrays, extra):
    """At any block size, with 0, 1, block-1, block or block+1 points, the
    joined pieces and the file `_atomic_write` writes from them are the
    `json.dumps` text of the dict document, and no piece holds more than
    one block of points."""
    block, points, dicts = arrays
    doc = {**extra, "schema": 1, "points": points, "frontier": [[0.5, 0.25]]}
    expected = _oracle({**doc, "points": dicts})
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "_POINTS_BLOCK", block)
        pieces = list(cli._json_pieces(doc))
        path = os.path.join(tmp, "region.json")
        cli._atomic_write(path, cli._json_pieces(doc))
        with open(path, encoding="utf-8", newline="") as fh:
            written = fh.read()
    assert "".join(pieces) == expected and written == expected
    assert max(piece.count('"constraints"') for piece in pieces) <= block


def _region_e3_doc():
    """region-e3's region.json document: e3, forward inner, S=3,T=3,U=2,V=2."""
    region = enumerate_region(SOURCES["e3"], "forward-inner", GridSpec(3, 3, 2, 2, 1))
    lattice = region.lattice
    points = cli._PointArray(cli._channel_descriptors(lattice.layers), lattice.picks(),
                             lattice.rates)
    return {"schema": 1, "direction": "forward", "bound": "inner", "points": points,
            "frontier": [[r1, r2] for r1, r2 in region.frontier], "meta": region.meta}


def test_region_json_write_holds_one_block(tmp_path):
    # the text is rendered into the file a block of points at a time: the
    # write holds one block's text and its encoded copy, not the document
    doc = _region_e3_doc()
    path = tmp_path / "region.json"
    _, peak = traced_peak(lambda: cli._atomic_write(str(path), cli._json_pieces(doc)))
    size = path.stat().st_size
    assert size >= 4 << 20
    assert peak <= size / 3


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_region_nan_rate_raises_before_any_file_is_written(tmp_path, monkeypatch):
    dist = tmp_path / "e3.dist"
    cli.write_distribution(SOURCES["e3"], str(dist))
    out = tmp_path / "out"
    argv = ["region", "--dist", str(dist), "--direction", "forward", "--bound", "inner",
            "--cards", CARDS, "--out", str(out)]
    assert cli.main(argv) == 0
    before = _snapshot(out)
    _patch_first_point_of_each_chunk(monkeypatch, "forward-inner", r2=math.nan)
    with pytest.raises(ValueError):
        cli.main(argv + ["--hull"])  # a changed manifest, had it been written
    assert _snapshot(out) == before


def test_failed_piece_leaves_no_partial_file(tmp_path):
    path = tmp_path / "region.json"
    path.write_text("old\n", encoding="utf-8")

    def pieces():
        yield "x" * (1 << 20)  # more than the file buffer: bytes reach the temporary file
        raise ValueError("render failed")

    with pytest.raises(ValueError, match="render failed"):
        cli._atomic_write(str(path), pieces())
    assert _snapshot(tmp_path) == {"region.json": b"old\n"}

"""Command-line interface: region computation, simulation, verification.

Subcommands
-----------
region     enumerate an inner/outer/explicit bound and write frontier.csv
           plus region.json
simulate   run the key-agreement protocol (Monte Carlo or exact) and write
           report.json
verify     diagnose source chains, evaluate the applicable closed-form case
           regions, and check coincidence against the computed bounds
lemmas     fuzz the chain-split inequality on random joints

Every output directory receives a manifest.json describing the run: every
parsed flag except the execution details `--threads` and `--out` (with
`--dist` as its base name and `simulate`'s resolved `--eps-enc` and
`--eps-dec`), the seeds, and the input file's digest.  Outputs are
deterministic functions of the manifest (output paths and wall-clock never
influence file contents).  Files are written to a temporary name and
atomically renamed, so failed runs leave no partial files.  The
SKREGION_BUDGET environment variable sets the dense-table entry budget.
`region` and `simulate` both accept `--threads` and ignore it.  `region
--hull` adds the frontier's time-sharing hull for every bound, the explicit
one included.  Each subcommand imports the modules it runs when it starts:
only `simulate` loads the protocol simulator (`sim`, `codec`, `_lanes`), and
`region` loads neither it nor `cases`.

Exit codes: 0 ok, 2 malformed input (distribution file, flag or
SKREGION_BUDGET), 3 budget exceeded, 4 infeasible rates, 5 claimed
coincidence failed, 6 lemma violation.  Input is checked before any
computation and before the output directory is created; SKREGION_BUDGET and
the numeric flags (`_FLAG_BOUNDS`) before the distribution file is read.
An integer read from text (a `.dist` cardinality or cell index, a `--cards`
value, a `--seeds` item, SKREGION_BUDGET) is ASCII digits alone: no sign,
underscore or other digit set; `--cards` and `--seeds` items may be padded
with spaces.  No seed may repeat in `--seeds` nor a name in `--cards`.

`json.dumps(doc, sort_keys=True, indent=2)` writes every JSON output, plus
a newline, through `_json_pieces`.  The one part the program renders itself
is region.json's `points` array, a `_PointArray` kept as the region's
lattice columns: each channel descriptor is dumped once, and each point is
its descriptors' texts plus one piece holding its three rates.  Its bytes
are those that `json.dumps` writes for the same points as dicts.  It is
rendered into the file a block of `_POINTS_BLOCK` points at a time, so
writing region.json never holds its whole text.
"""

import argparse
import functools
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .pmf import BudgetExceededError, Channel, JointPmf, VariableId, _ascii_int, entry_budget
from .sources import triple_from_table
from .tolerances import CHAIN_TOL, CLOSED_FORM_TOL, NORMALIZATION_TOL

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_BUDGET = 3
EXIT_INFEASIBLE = 4
EXIT_COINCIDENCE = 5
EXIT_LEMMA = 6


class InputError(Exception):
    """Malformed input: a distribution file, a flag or SKREGION_BUDGET."""


class DistributionFormatError(InputError):
    pass


# ---------------------------------------------------------------------------
# Distribution file format
# ---------------------------------------------------------------------------

def parse_distribution(text: str) -> JointPmf:
    """Parse the three-variable distribution format.

    Header ``vars: X1=<c1> X2=<c2> X3=<c3>``, then ``<x1> <x2> <x3> <prob>``
    lines; ``#`` starts a comment; omitted cells are zero.
    """
    header = None
    table = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "vars:":
                raise DistributionFormatError(
                    f"line {lineno}: expected 'vars: X1=<c> X2=<c> X3=<c>', got {raw!r}")
            cards = []
            for name, tok in zip(("X1", "X2", "X3"), parts[1:]):
                key, _, val = tok.partition("=")
                card = _ascii_int(val)
                if key != name or not card:
                    raise DistributionFormatError(f"line {lineno}: bad variable spec {tok!r}")
                cards.append(card)
            header = tuple(cards)
            table = np.zeros(header)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise DistributionFormatError(f"line {lineno}: expected 'x1 x2 x3 prob', got {raw!r}")
        idx = tuple(_ascii_int(p) for p in parts[:3])
        if None in idx:
            i = idx.index(None)
            raise DistributionFormatError(f"line {lineno}: bad X{i + 1} index {parts[i]!r}")
        try:
            prob = float(parts[3])
        except ValueError as exc:
            raise DistributionFormatError(f"line {lineno}: {exc}") from None
        for i, (v, c) in enumerate(zip(idx, header)):
            if v >= c:
                raise DistributionFormatError(
                    f"line {lineno}: index {v} out of range for X{i + 1} (cardinality {c})")
        if not math.isfinite(prob):
            raise DistributionFormatError(f"line {lineno}: non-finite probability {parts[3]!r}")
        if prob < 0:
            raise DistributionFormatError(f"line {lineno}: negative probability {prob}")
        if idx in seen:
            raise DistributionFormatError(f"line {lineno}: duplicate cell {idx}")
        seen.add(idx)
        table[idx] = prob
    if header is None:
        raise DistributionFormatError("empty distribution file")
    total = float(table.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise DistributionFormatError(f"probabilities sum to {total!r}, not 1 within 1e-9")
    return triple_from_table(table)


def load_distribution(path: str) -> JointPmf:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_distribution(fh.read())


def format_distribution(pmf: JointPmf) -> str:
    cards = [v.cardinality for v in pmf.variables]
    lines = [f"vars: X1={cards[0]} X2={cards[1]} X3={cards[2]}"]
    for idx in np.ndindex(*cards):
        p = float(pmf.table[idx])
        if p > 0.0:
            lines.append(f"{idx[0]} {idx[1]} {idx[2]} {p!r}")
    return "\n".join(lines) + "\n"


def write_distribution(pmf: JointPmf, path: str) -> None:
    _atomic_write(path, format_distribution(pmf))


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------

#: points of region.json's `points` array that `_render_points` renders into
#: one piece: `_atomic_write` holds one piece at a time, so one block's text
#: is the most of the array's text in memory, however many points there are
_POINTS_BLOCK = 512


def _atomic_write(path: str, pieces) -> None:
    """Write `pieces`, a `str` or an iterable of `str`, to `path` in UTF-8.

    The pieces go one at a time to a temporary file in `path`'s directory,
    which is renamed to `path` after the last: if producing or writing a
    piece raises, the temporary file is removed and `path` keeps its bytes.
    """
    if isinstance(pieces, str):
        pieces = (pieces,)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: what `_json_pieces` dumps in place of region.json's `points` before it
#: puts their text there: it holds a NUL, which no string the program makes does
_POINTS_SLOT = "\x00points"


def _json_pieces(obj):
    """`json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)` plus a
    newline, as an iterable of `str` pieces.  Whatever `json.dumps` would
    raise is raised here, before the first piece.

    A plain document is one piece.  A dict whose `points` is a `_PointArray`
    (region.json) is dumped with `_POINTS_SLOT` in its place; its pieces
    are the text before the slot's, `_render_points`' blocks, and the text
    after it: the bytes `json.dumps` writes for the same points as dicts.
    """
    points = obj.get("points") if isinstance(obj, dict) else None
    if not isinstance(points, _PointArray):
        return [json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"]
    text = json.dumps({**obj, "points": _POINTS_SLOT}, sort_keys=True, indent=2,
                      allow_nan=False)
    head, _, tail = text.partition(json.dumps(_POINTS_SLOT))
    return itertools.chain([head], _render_points(points), [tail + "\n"])


def _json_text(obj) -> str:
    """The whole text of `_json_pieces(obj)`, as one `str`."""
    return "".join(_json_pieces(obj))


class _PointArray:
    """region.json's `points` array, kept as columns.

    Row i of the (n, 3) float64 array `rates` is point i's (r1_max, r2_max,
    sum_max).  Its channels are `[descriptors[j][picks[j][i]] for each
    layer j]`, or null when `descriptors` is None.  It renders as the list
    of `{"channels": ..., "constraints": _cset_json(...)}` dicts would.
    """

    __slots__ = ("descriptors", "picks", "rates")

    def __init__(self, descriptors, picks, rates):
        self.descriptors = descriptors
        self.picks = picks
        self.rates = rates


def _channel_descriptors(layers) -> list:
    """Per `LatticeLayer` of `layers`, the region.json descriptor of each of
    its channels.  Every point that picks a channel shares its one
    descriptor."""
    return [[{"from": list(layer.from_names),
              "to": [[v.name, v.cardinality] for v in layer.to_vars],
              "matrix": matrix}
             for matrix in layer.matrices.tolist()]
            for layer in layers]


def _render_points(points: _PointArray):
    """A generator of the JSON text of `points`, the value of a top-level
    key, one piece per `_POINTS_BLOCK` points.  A non-finite rate raises as
    `json.dumps` raises, and every descriptor is rendered, before this
    returns; the generator only picks and joins.

    Each point is its layers' descriptor texts (each descriptor rendered
    once, with the separators before it) plus the text of its three rates.
    """
    rates = points.rates
    n = len(rates)
    if not n:
        return iter(["[]"])
    point = "\n    "
    key = point + "  "
    item = key + "  "
    valid = np.isfinite(rates)
    valid[:, 2] |= rates[:, 2] == math.inf  # written as null
    if not valid.all():  # raise as json.dumps does, at the first bad value
        json.dumps(rates.flat[int(np.argmin(valid))].item(), allow_nan=False)
    head = "{" + key + '"channels": '
    if points.descriptors is None:
        columns, close = [([head + "null"], np.zeros(n, dtype=np.intp))], ""
    else:
        columns, lead = [], head + "[" + item
        for descriptors, pick in zip(points.descriptors, points.picks):
            texts = [lead + json.dumps(d, sort_keys=True, indent=2,
                                       allow_nan=False).replace("\n", item)
                     for d in descriptors]
            columns.append((texts, pick))
            lead = "," + item
        close = key + "]"
    # `%r` of a float is `float.__repr__`, the text json writes for it
    last = (close + "," + key + '"constraints": {' + item + '"r1_max": %r,' + item
            + '"r2_max": %r,' + item + '"sum_max": %s' + key + "}" + point + "}")
    following = last + "," + point

    def blocks():
        yield "[" + point
        for start in range(0, n, _POINTS_BLOCK):
            block = slice(start, start + _POINTS_BLOCK)
            r1, r2, sums = rates[block].T.tolist()
            sums = ["null" if s == math.inf else float.__repr__(s) for s in sums]
            tails = [following % row for row in zip(r1, r2, sums)]
            if block.stop >= n:
                tails[-1] = last % (r1[-1], r2[-1], sums[-1])
            picked = [[texts[i] for i in pick[block].tolist()] for texts, pick in columns]
            yield "".join(itertools.chain.from_iterable(zip(*picked, tails)))
        yield "\n  ]"

    return blocks()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


#: parsed attributes kept out of a manifest's flags: the subcommand and its
#: handler, the execution details, which never change an output, and
#: --seeds, which has its own entry
_NOT_FLAGS = ("command", "func", "threads", "out", "seeds")


def _write_manifest(args, seeds, **resolved) -> None:
    """Write `args.out`/manifest.json.  Its flags are every parsed flag of
    the subcommand, with `dist` as its base name, then `resolved` (values
    the subcommand derived from its flags) over them."""
    flags = {k: v for k, v in vars(args).items() if k not in _NOT_FLAGS}
    if "dist" in flags:
        flags["dist"] = os.path.basename(args.dist)
    flags.update(resolved)
    manifest = {
        "schema": 1,
        "tool": "skregion",
        "version": __version__,
        "subcommand": args.command,
        "flags": flags,
        "seeds": list(seeds),
        "input_digest": _digest(args.dist) if "dist" in flags else None,
    }
    _atomic_write(os.path.join(args.out, "manifest.json"), _json_text(manifest))


def _fmt_rate(x: float) -> str:
    return "0" if x == 0.0 else f"{x:.9f}"


def frontier_csv(frontier) -> str:
    lines = ["R1,R2"]
    for r1, r2 in frontier:
        lines.append(f"{_fmt_rate(r1)},{_fmt_rate(r2)}")
    return "\n".join(lines) + "\n"


def _cset_json(r1_max: float, r2_max: float, sum_max: float) -> dict:
    return {
        "r1_max": r1_max,
        "r2_max": r2_max,
        "sum_max": None if sum_max == math.inf else sum_max,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _parse_cards(text: str | None, base: JointPmf) -> "GridSpec":
    from .region import GridSpec

    if text is None:
        return GridSpec.default_inner(base)
    spec = {}
    for tok in text.split(","):
        key, _, val = tok.strip().partition("=")
        card = _ascii_int(val)
        if key not in ("S", "T", "U", "V") or not card:
            raise InputError(f"bad --cards entry {tok!r}")
        if key in spec:
            raise InputError(f"--cards repeats {key}: {text!r}")
        spec[key] = card
    return GridSpec(spec.get("S", 2), spec.get("T", 2), spec.get("U", 1), spec.get("V", 1), 1)


def cmd_region(args) -> int:
    from .region import (
        GridSpec,
        RateRegion,
        enumerate_region,
        explicit_outer,
        upper_concave_envelope,
    )

    base = load_distribution(args.dist)
    grid = _parse_cards(args.cards, base)
    if args.bound == "explicit":
        region = RateRegion.of(explicit_outer(base), {"family": "explicit-outer"})
        points = _PointArray(None, (), region.rates)  # a closed form: one point, no channels
    else:
        grid = GridSpec(grid.card_s, grid.card_t, grid.card_u, grid.card_v, args.grid_q)
        region = enumerate_region(base, f"{args.direction}-{args.bound}", grid)
        lattice = region.lattice
        points = _PointArray(_channel_descriptors(lattice.layers), lattice.picks(),
                             lattice.rates)
    frontier, meta = region.frontier, region.meta
    doc = {
        "schema": 1,
        "direction": args.direction,
        "bound": args.bound,
        "points": points,
        "frontier": [[r1, r2] for r1, r2 in frontier],
        "meta": meta,
    }
    if args.hull:
        doc["hull"] = [[x, y] for x, y in upper_concave_envelope(frontier)]
    pieces = _json_pieces(doc)  # raises before any file is written
    _write_manifest(args, [])
    _atomic_write(os.path.join(args.out, "frontier.csv"), frontier_csv(frontier))
    _atomic_write(os.path.join(args.out, "region.json"), pieces)
    print(f"wrote {args.out}/frontier.csv ({len(frontier)} vertices)")
    return EXIT_OK


def _default_channels(base: JointPmf, direction: str, rate2: float):
    """Default auxiliary layout: identity key channels, constant covers.

    A user with no key target (rate 0) gets a constant channel, which keeps
    its side of the protocol degenerate and the exact error enumeration
    cheap; a keying user gets the identity channel on its source.  The
    backward layout keys user 1 only.
    """
    from .region import _backward_channels, _forward_channels

    if direction == "forward":
        return _forward_channels(base, t_identity=rate2 > 0.0)
    return _backward_channels(base)


def cmd_simulate(args) -> int:
    from .codec import InfeasibleRatesError
    from .sim import EpsParams, SimConfig, exact_report, run_trials

    base = load_distribution(args.dist)
    channels = _default_channels(base, args.direction, args.rate2)
    eps_enc = args.eps_enc if args.eps_enc is not None else max(0.25, 2.0 * args.margin)
    eps_dec = args.eps_dec if args.eps_dec is not None else max(3.0, 2.0 * args.margin)
    seeds = tuple(_ascii_int(s.strip()) for s in args.seeds.split(","))
    if None in seeds:
        raise InputError(f"bad --seeds {args.seeds!r}")
    if len(set(seeds)) < len(seeds):
        raise InputError(f"--seeds repeats a seed: {args.seeds!r}")
    config = SimConfig(
        base, args.direction, channels, args.n, args.rate1, args.rate2,
        EpsParams(enc=eps_enc, dec=eps_dec), args.trials, seeds,
    )
    try:
        report = exact_report(config) if args.mode == "exact" else run_trials(config)
    except InfeasibleRatesError as exc:
        print(f"error: infeasible rates: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    _write_manifest(args, seeds, eps_enc=eps_enc, eps_dec=eps_dec)
    _atomic_write(os.path.join(args.out, "report.json"),
                  _json_text(report.to_json_dict()))
    print(report.summary_line())
    for warning in report.warnings:
        print(f"warning: {warning}")
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"wall clock: {report.wall_clock:.2f}s")
    return EXIT_OK


def _case1_check(base, grid_q, tol, swapped=False):
    """Case-1 coincidence: backward deterministic point vs the segment.

    The forward strategy cannot reach the segment (its sum constraint binds
    strictly below it for non-degenerate chains), so coincidence is checked
    where it genuinely holds: backward inner against the explicit outer.
    """
    from .cases import case1_region, region_gap
    from .region import (
        AuxSystem,
        GridSpec,
        RateRegion,
        _kept_lattice,
        backward_inner_point,
        explicit_outer,
    )

    work = base
    if swapped:
        perm = work.table.transpose(1, 0, 2)
        work = triple_from_table(perm)
    region1 = case1_region(work, tol)
    segment_r2 = region1.rates[0, 1].item()
    c3 = work.variable("X3").cardinality
    grid = GridSpec(1, c3, 1, 1, grid_q)
    inner = _kept_lattice(work, "backward-inner", grid)[1].rates
    gap = region_gap(RateRegion.of(explicit_outer(work)).frontier, inner)
    # the deterministic T = X3 point must attain the segment height exactly
    eye = np.eye(c3).reshape(c3, 1, c3)
    ch_st = Channel(("X3",), (VariableId("S", 1), VariableId("T", c3)), eye)
    ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((1, c3, 1)))
    point = backward_inner_point(AuxSystem.backward(work, ch_st, ch_u))
    point_err = abs(point.r2_max - segment_r2)
    passed = gap <= tol and point_err <= CLOSED_FORM_TOL
    return {
        "applicable": True,
        "segment_r2": segment_r2,
        "deterministic_point_r2": point.r2_max,
        "deterministic_point_error": point_err,
        "outer_to_inner_gap": gap,
        "pass": bool(passed),
    }


def _case2_check(base, grid_q, tol):
    from .cases import case2_region, region_gap
    from .region import (
        AuxSystem,
        GridSpec,
        _forward_channels,
        _kept_lattice,
        forward_inner_point,
    )

    region2 = case2_region(base, tol)
    rect = region2.rates[0].tolist()  # (r1_max, r2_max, sum_max)
    c1 = base.variable("X1").cardinality
    c2 = base.variable("X2").cardinality
    channels = _forward_channels(base, t_identity=True)  # S = X1, T = X2, constant U and V
    corner = forward_inner_point(AuxSystem.forward(base, *channels))
    corner_err = max(abs(corner.r1_max - rect[0]), abs(corner.r2_max - rect[1]))
    grid = GridSpec(c1, c2, 1, 1, grid_q)
    inner = _kept_lattice(base, "forward-inner", grid)[1].rates
    gap = region_gap(region2.frontier, inner)
    passed = corner_err <= CLOSED_FORM_TOL and gap <= tol
    return {
        "applicable": True,
        "rectangle": _cset_json(*rect),
        "identity_corner": [corner.r1_max, corner.r2_max],
        "corner_error": corner_err,
        "outer_to_inner_gap": gap,
        "pass": bool(passed),
    }


def _case3_check(base, grid_q, tol):
    from .cases import case3_region
    from .region import GridSpec, RateRegion, explicit_outer

    c3 = base.variable("X3").cardinality
    grid = GridSpec(c3, c3, 1, 1, grid_q)
    region3 = case3_region(base, grid, tol)
    outer = RateRegion.of(explicit_outer(base))
    contained = outer.contains(region3.rates[:, 0], region3.rates[:, 1], tol).all()
    return {
        "applicable": True,
        "frontier": [[x, y] for x, y in region3.frontier],
        "contained_in_explicit_outer": bool(contained),
        "meta": region3.meta,
        "pass": bool(contained),
    }


#: verify's special cases in report order: (name, the chain the case
#: needs, its check(base, grid_q, tol))
_CASES = (
    ("case1", "X1-X2-X3", _case1_check),
    ("case1_swapped", "X2-X1-X3", functools.partial(_case1_check, swapped=True)),
    ("case2", "X1-X3-X2", _case2_check),
    ("case3", "X1-X3-X2", _case3_check),
)


def cmd_verify(args) -> int:
    from .cases import ChainViolatedError, diagnose

    base = load_distribution(args.dist)
    try:
        diag = diagnose(base, args.tol)
        doc = {"schema": 1, "diagnosis": diag.as_dict()}
        for name, chain, check in _CASES:
            doc[name] = (check(base, args.grid_q, args.tol) if chain in diag.chains
                         else {"applicable": False})
    except ChainViolatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COINCIDENCE
    applicable = [name for name, _, _ in _CASES if doc[name]["applicable"]]
    failures = [name for name in applicable if not doc[name]["pass"]]
    doc["pass"] = not failures
    _write_manifest(args, [])
    _atomic_write(os.path.join(args.out, "verify.json"), _json_text(doc))
    if failures:
        print(f"coincidence FAILED for: {', '.join(failures)}")
        return EXIT_COINCIDENCE
    print(f"coincidence pass: {', '.join(applicable)}" if applicable
          else "no special case applies")
    return EXIT_OK


def cmd_lemmas(args) -> int:
    from .cases import lemma3_check, random_lemma3_joint

    rng = np.random.default_rng(args.seed)
    slacks = []
    violations = 0
    for _ in range(args.draws):
        ok, slack = lemma3_check(random_lemma3_joint(rng, args.n), args.n)
        slacks.append(slack)
        violations += not ok
    doc = {
        "schema": 1,
        "draws": args.draws,
        "n": args.n,
        "seed": args.seed,
        "min_slack": min(slacks) if slacks else None,
        "mean_slack": float(np.mean(slacks)) if slacks else None,
        "violations": violations,
    }
    _write_manifest(args, [args.seed])
    _atomic_write(os.path.join(args.out, "lemmas.json"), _json_text(doc))
    print(f"draws={args.draws} violations={violations}"
          + (f" min_slack={doc['min_slack']:.3e}" if slacks else ""))
    return EXIT_LEMMA if violations else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: numeric flag bounds: an int flag must be >= its bound, a float flag
#: finite and >= 0 or > 0 as stated; a flag the subcommand lacks or left
#: unset is skipped
_FLAG_BOUNDS = (
    ("grid_q", 1), ("n", 1), ("trials", 1), ("draws", 0), ("seed", 0),
    ("tol", ">= 0"), ("rate1", ">= 0"), ("rate2", ">= 0"), ("margin", ">= 0"),
    ("eps_enc", "> 0"), ("eps_dec", "> 0"),
)


def _check_input(args) -> None:
    """Refuse a malformed SKREGION_BUDGET, then a numeric flag outside its
    bound; run before a subcommand reads its distribution."""
    try:
        entry_budget()
    except ValueError as exc:
        raise InputError(exc) from None
    for dest, bound in _FLAG_BOUNDS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        flag = "--" + dest.replace("_", "-")
        if isinstance(bound, int):
            if value < bound:
                raise InputError(f"{flag} must be >= {bound}, got {value}")
        elif not math.isfinite(value) or value < 0.0 or (bound == "> 0" and value == 0.0):
            raise InputError(f"{flag} must be finite and {bound}, got {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skregion",
        description="Secret-key rate regions and key-agreement simulation "
                    "for a three-user source model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", help="enumerate a rate-region bound")
    p.add_argument("--dist", required=True)
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("--bound", choices=("inner", "outer", "explicit"), required=True)
    p.add_argument("--grid-q", type=int, default=1)
    p.add_argument("--cards", default=None, help="e.g. S=3,T=3,U=2,V=2")
    p.add_argument("--hull", action="store_true",
                   help="also emit the time-sharing (upper concave) hull")
    p.add_argument("--threads", type=int, default=0, help="accepted and ignored")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("simulate", help="run the key-agreement protocol")
    p.add_argument("--dist", required=True)
    p.add_argument("--direction", choices=("forward", "backward"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate1", type=float, default=0.0)
    p.add_argument("--rate2", type=float, default=0.0)
    p.add_argument("--margin", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seeds", default="1", help="comma-separated distinct codebook seeds")
    p.add_argument("--mode", choices=("mc", "exact"), default="mc")
    p.add_argument("--eps-enc", type=float, default=None)
    p.add_argument("--eps-dec", type=float, default=None)
    p.add_argument("--threads", type=int, default=0, help="accepted and ignored")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="validate special-case coincidences")
    p.add_argument("--dist", required=True)
    p.add_argument("--tol", type=float, default=CHAIN_TOL)
    p.add_argument("--grid-q", type=int, default=1)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lemmas", help="fuzz the chain-split inequality")
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_input(args)
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

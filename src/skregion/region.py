"""Rate-pair bounds for the two key-agreement strategies.

Each bound is evaluated at a concrete auxiliary system (channels S, T, U, V
layered on the three-terminal source) and yields linear constraints on
(R1, R2).  Regions are assembled by enumerating auxiliary channels on a
simplex lattice and taking the union of the per-point constraint sets.

Families
--------
forward-inner   full joint p(u|s) p(v|t) p(s|x1) p(t|x2) p(x1,x2,x3);
                per-key bounds plus a sum bound.
forward-outer   same product parameterization (the listed Markov chains do
                not pin down the (S,T) coupling, so this is a lower
                approximation of the true outer bound -- the exact explicit
                rectangle is available separately via `explicit_outer`).
backward-inner  full joint p(u|s,t) p(s,t|x3) p(x1,x2,x3).
backward-outer  backward factorization restricted to channels satisfying the
                chains U - S - X3 and U - T - X3 (enforced by rejection).

Each family's formula is written once, over a `JointBatch` of full joints.
A lattice is a list of layers, one per auxiliary channel: `lattice_channels`
returns a layer's every lattice channel as one stacked, once-validated
matrix array (`LatticeLayer`), not as `Channel` objects.  `_evaluate_lattice`
evaluates a lattice a chunk of points at a time from those stacks for
`enumerate_region`, `single_key_capacity` and `cases.case3_region`; the
per-point evaluators (`forward_inner_point`, ...) take `Channel`s and use a
batch of one, and a lattice point's values equal its per-point values bit
for bit.

A union of constraint sets is one (n, 3) float64 array of rows (r1_max,
r2_max, sum_max), sum_max = inf for no sum bound: `RateRegion.rates`, the
union's only form.  `pareto_frontier`, `RateRegion.contains` and
`cases.region_gap` compute over these rows; a lattice region also keeps
which lattice point each row is (`LatticePoints`), from which a caller
reads the channels the point picks.
"""

import math
# unused here; perfbench/tracer.py patches it and fails a traced run without it
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .pmf import (
    BudgetExceededError,
    Channel,
    JointBatch,
    JointPmf,
    PmfError,
    VariableId,
    _stochastic_array,
    cond_mutual_information as cmi,
    entry_budget,
)
from .tolerances import CHAIN_TOL, COLLINEAR_TOL, FACTORIZATION_TOL, FLAT_TOL, SAME_R1_TOL

__all__ = [
    "INF",
    "RateConstraintSet",
    "RateRegion",
    "GridSpec",
    "AuxSystem",
    "FamilyError",
    "forward_inner_point",
    "forward_outer_point",
    "explicit_outer",
    "backward_inner_point",
    "backward_outer_point",
    "enumerate_region",
    "single_key_capacity",
    "pareto_frontier",
    "upper_concave_envelope",
    "lattice_rows",
    "lattice_channels",
    "LatticeLayer",
    "LatticePoints",
]

INF = math.inf

FAMILIES = ("forward-inner", "forward-outer", "backward-inner", "backward-outer")

#: Most full-joint entries one chunk of lattice points may hold (8 bytes
#: each).  Bounds the evaluator's working memory; results do not depend on it.
#: A chunk's point count is the inner-loop length of its marginal sums (910
#: points on region-e3).  With the one-buffer entropy kernel, region-e3's peak
#: RSS read 39.05-39.08 MB at 2^17 against 40.94-40.99 MB at 2^18, CPU about
#: equal; the q=2 lattice CPU was unresolved (ROADMAP item 19).
_CHUNK_ENTRIES = 1 << 18


class FamilyError(PmfError):
    """Auxiliary system does not satisfy the family's factorization contract."""


@dataclass(frozen=True)
class RateConstraintSet:
    """The region {(R1,R2) >= 0 : R1 <= r1_max, R2 <= r2_max, R1+R2 <= sum_max}."""

    r1_max: float
    r2_max: float
    sum_max: float = INF


class RateRegion:
    """A union of constraint sets plus its Pareto frontier.

    Row i of the (n, 3) float64 array `rates` is the i-th set's (r1_max,
    r2_max, sum_max).  A region from `enumerate_region` also holds its kept
    lattice points as `lattice` (a `LatticePoints`, whose `rates` these
    are); any other region's `lattice` is None.
    """

    def __init__(self, rates, frontier, meta=None, *, lattice=None):
        self.rates = rates
        self.frontier = frontier
        self.meta = {} if meta is None else meta
        self.lattice = lattice

    @classmethod
    def of(cls, cset: RateConstraintSet, meta=None) -> "RateRegion":
        """The union of the one set `cset`."""
        rates = np.array([[cset.r1_max, cset.r2_max, cset.sum_max]])
        return cls(rates, pareto_frontier(rates), meta=meta)

    def contains(self, r1, r2, tol: float):
        """Whether some set holds (r1, r2) within tol: both rates at least
        -tol and no bound exceeded by more than tol.  Elementwise over
        arrays of points."""
        r1 = np.asarray(r1, dtype=np.float64)
        r2 = np.asarray(r2, dtype=np.float64)
        r1_max, r2_max, sum_max = self.rates.T
        a, b = r1[..., None], r2[..., None]
        held = (((a <= r1_max + tol) & (b <= r2_max + tol) & (a + b <= sum_max + tol)).any(axis=-1)
                & (r1 >= -tol) & (r2 >= -tol))
        return held if held.ndim else bool(held)


# ---------------------------------------------------------------------------
# Auxiliary systems
# ---------------------------------------------------------------------------

class AuxSystem:
    """A source joint extended with auxiliary variables for one bound family."""

    __slots__ = ("base", "channels", "family", "full")

    def __init__(self, base, channels, family, full):
        if family not in FAMILIES:
            raise FamilyError(f"unknown family {family!r}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "channels", tuple(channels))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "full", full)

    def __setattr__(self, *a):
        raise AttributeError("AuxSystem is immutable")

    @classmethod
    def forward(cls, base: JointPmf, ch_s: Channel, ch_t: Channel,
                ch_u: Channel, ch_v: Channel, family: str = "forward-inner") -> "AuxSystem":
        """Layer p(s|x1), p(t|x2), p(u|s), p(v|t) onto the source."""
        if family not in ("forward-inner", "forward-outer"):
            raise FamilyError(f"{family!r} is not a forward family")
        _expect(ch_s, ("X1",), ("S",))
        _expect(ch_t, ("X2",), ("T",))
        _expect(ch_u, ("S",), ("U",))
        _expect(ch_v, ("T",), ("V",))
        full = base.extend(ch_s).extend(ch_t).extend(ch_u).extend(ch_v)
        return cls(base, (ch_s, ch_t, ch_u, ch_v), family, full)

    @classmethod
    def backward(cls, base: JointPmf, ch_st: Channel, ch_u: Channel,
                 family: str = "backward-inner") -> "AuxSystem":
        """Layer p(s,t|x3) and p(u|s,t) onto the source."""
        if family not in ("backward-inner", "backward-outer"):
            raise FamilyError(f"{family!r} is not a backward family")
        _expect(ch_st, ("X3",), ("S", "T"))
        _expect(ch_u, ("S", "T"), ("U",))
        full = base.extend(ch_st).extend(ch_u)
        return cls(base, (ch_st, ch_u), family, full)

    def validate(self) -> None:
        """Re-derive the full joint from base + channels and compare within
        `tolerances.FACTORIZATION_TOL`.

        For backward-outer systems, additionally checks the Markov chains
        U - S - X3 and U - T - X3 within `tolerances.CHAIN_TOL`.
        """
        rebuilt = self.base
        for ch in self.channels:
            rebuilt = rebuilt.extend(ch)
        if rebuilt.names != self.full.names:
            raise FamilyError(f"variable mismatch: {rebuilt.names} vs {self.full.names}")
        if float(np.max(np.abs(rebuilt.table - self.full.table))) > FACTORIZATION_TOL:
            raise FamilyError(f"full joint deviates from {self.family} factorization")
        if self.family == "backward-outer":
            backward_outer_point(self)  # raises on a violated chain


def _expect(ch: Channel, from_names, to_names) -> None:
    if ch.from_names != tuple(from_names) or ch.to_names != tuple(to_names):
        raise FamilyError(
            f"expected channel {from_names} -> {to_names}, got "
            f"{ch.from_names} -> {ch.to_names}"
        )


def _forward_channels(base: JointPmf, t_identity=False):
    """S = X1, T = X2 or constant, and constant U and V."""
    c1 = base.variable("X1").cardinality
    c2 = base.variable("X2").cardinality
    ch_s = Channel.identity("X1", c1, "S")
    ch_t = Channel.identity("X2", c2, "T") if t_identity else Channel.constant("T", "X2", c2)
    card_t = c2 if t_identity else 1
    ch_u = Channel.constant("U", "S", c1)
    ch_v = Channel.constant("V", "T", card_t)
    return (ch_s, ch_t, ch_u, ch_v)


def _backward_channels(base: JointPmf):
    """S = X3 and constant T and U: only user 1 gets a key."""
    c3 = base.variable("X3").cardinality
    eye = np.eye(c3).reshape(c3, c3, 1)
    ch_st = Channel(("X3",), (VariableId("S", c3), VariableId("T", 1)), eye)
    ch_u = Channel(("S", "T"), (VariableId("U", 1),), np.ones((c3, 1, 1)))
    return (ch_st, ch_u)


# ---------------------------------------------------------------------------
# Per-auxiliary rate formulas
# ---------------------------------------------------------------------------
#
# Each formula maps a JointBatch of full joints to per-point arrays
# (r1_max, r2_max, sum_max), already clamped at zero.

def _nonneg(x: np.ndarray) -> np.ndarray:
    """x where it is positive, else 0.0 (a -0.0 included)."""
    return np.where(x > 0.0, x, 0.0)


def _forward_inner(h: JointBatch) -> tuple:
    leak1 = h.cmi(("S",), ("X2",), ("T", "U"))
    leak2 = h.cmi(("T",), ("X1",), ("S", "V"))
    r1 = h.cmi(("S",), ("X3",), ("T", "U")) - leak1
    r2 = h.cmi(("T",), ("X3",), ("S", "V")) - leak2
    rsum = (
        h.cmi(("S", "T"), ("X3",), ("U", "V"))
        - leak1
        - leak2
        - h.cmi(("S",), ("T",), ("U", "V"))
    )
    return _nonneg(r1), _nonneg(r2), _nonneg(rsum)


def _forward_outer(h: JointBatch) -> tuple:
    r1 = h.cmi(("S",), ("T", "X3"), ("U",)) - h.cmi(("S",), ("X2",), ("U",))
    r2 = h.cmi(("T",), ("S", "X3"), ("V",)) - h.cmi(("T",), ("X1",), ("V",))
    return _nonneg(r1), _nonneg(r2), np.full(len(h), INF)


def _backward_inner(h: JointBatch) -> tuple:
    r1 = h.cmi(("S",), ("X1",), ("U",)) - h.cmi(("S",), ("X2", "T"), ("U",))
    r2 = h.cmi(("T",), ("X2",), ("U",)) - h.cmi(("T",), ("X1", "S"), ("U",))
    return _nonneg(r1), _nonneg(r2), np.full(len(h), INF)


def _backward_outer(h: JointBatch) -> tuple:
    """Valid only where `_markov_residuals` are within tolerance."""
    r1 = np.minimum(
        h.cmi(("S",), ("X1",), ("U",)) - h.cmi(("S",), ("X2",), ("U",)),
        h.cmi(("S",), ("X1",), ("T", "U")) - h.cmi(("S",), ("X2",), ("T", "U")),
    )
    r2 = np.minimum(
        h.cmi(("T",), ("X2",), ("U",)) - h.cmi(("T",), ("X1",), ("U",)),
        h.cmi(("T",), ("X2",), ("S", "U")) - h.cmi(("T",), ("X1",), ("S", "U")),
    )
    return _nonneg(r1), _nonneg(r2), np.full(len(h), INF)


_FORMULAS = {
    "forward-inner": _forward_inner,
    "forward-outer": _forward_outer,
    "backward-inner": _backward_inner,
    "backward-outer": _backward_outer,
}


def _markov_residuals(h: JointBatch) -> dict:
    """{mid: I(U;X3|mid)} for the chains U - S - X3 and U - T - X3."""
    return {mid: h.cmi(("U",), ("X3",), (mid,)) for mid in ("S", "T")}


def _point(aux: AuxSystem, family: str) -> RateConstraintSet:
    """The family formula at `aux` alone, as a batch of one."""
    if aux.family != family:
        raise FamilyError(f"need {family}, got {aux.family}")
    r1, r2, rsum = _FORMULAS[family](JointBatch.of(aux.full))
    return RateConstraintSet(float(r1[0]), float(r2[0]), float(rsum[0]))


def forward_inner_point(aux: AuxSystem) -> RateConstraintSet:
    """Achievable constraints at one forward auxiliary point.

    r1 <= I(S;X3|T,U) - I(S;X2|T,U), r2 symmetrically, and
    R1+R2 <= I(S,T;X3|U,V) - I(S;X2|T,U) - I(T;X1|S,V) - I(S;T|U,V).
    """
    return _point(aux, "forward-inner")


def forward_outer_point(aux: AuxSystem) -> RateConstraintSet:
    """Outer constraints at one forward auxiliary point (no sum bound)."""
    return _point(aux, "forward-outer")


def explicit_outer(base: JointPmf) -> RateConstraintSet:
    """The explicit rectangle R1 <= I(X1;X3|X2), R2 <= I(X2;X3|X1)."""
    r1 = cmi(base, ("X1",), ("X3",), ("X2",))
    r2 = cmi(base, ("X2",), ("X3",), ("X1",))
    return RateConstraintSet(r1, r2, INF)


def backward_inner_point(aux: AuxSystem) -> RateConstraintSet:
    return _point(aux, "backward-inner")


def backward_outer_point(aux: AuxSystem) -> RateConstraintSet:
    if aux.family != "backward-outer":
        raise FamilyError(f"need backward-outer, got {aux.family}")
    for mid, residual in _markov_residuals(JointBatch.of(aux.full)).items():
        if residual[0] > CHAIN_TOL:
            raise FamilyError(f"chain U - {mid} - X3 violated by {residual[0]}")
    return _point(aux, "backward-outer")


# ---------------------------------------------------------------------------
# Simplex lattice enumeration
# ---------------------------------------------------------------------------

def lattice_rows(m: int, q: int) -> list:
    """All probability rows of length m whose entries are multiples of 1/q.

    Lexicographically ordered compositions of q into m nonnegative parts.
    """
    if m < 1 or q < 1:
        raise PmfError(f"need m >= 1 and q >= 1, got m={m} q={q}")
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v, slots - 1)

    rec([], q, m)
    return [np.array(row, dtype=np.float64) / q for row in out]


@dataclass(frozen=True, eq=False)
class LatticeLayer:
    """Every lattice channel p(to | from) of one auxiliary layer, stacked.

    `matrices[i]` is the i-th channel's matrix, of shape (from
    cardinalities..., to cardinalities...): the matrix a `Channel` over
    `from_names` and `to_vars` would hold.  The stack is read-only.
    """

    from_names: tuple
    to_vars: tuple
    matrices: np.ndarray


def lattice_channels(from_names, from_cards, to_vars, q: int) -> LatticeLayer:
    """Every channel whose conditional rows live on the 1/q simplex lattice.

    With `rows = lattice_rows(width, q)` over the to-alphabet, channel i
    gives the j-th conditioning cell (C order over `from_cards`) the row
    `rows[combos[i][j]]`, where `combos` runs through
    `itertools.product(range(len(rows)), repeat=cells)` in order.  The
    (count, *from_cards, *to_cards) stack is validated once, by the rule
    `Channel` applies to one matrix.
    """
    from_names, to_vars = tuple(from_names), tuple(to_vars)
    to_shape = tuple(v.cardinality for v in to_vars)
    cells = math.prod(from_cards)
    rows = np.stack(lattice_rows(math.prod(to_shape), q))
    combos = np.indices((len(rows),) * cells).reshape(cells, -1).T
    stack = rows[combos].reshape((len(combos),) + tuple(from_cards) + to_shape)
    return LatticeLayer(from_names, to_vars,
                        _stochastic_array(stack, 1 + len(from_names), to_shape))


@dataclass(frozen=True)
class GridSpec:
    """Auxiliary alphabet sizes and the lattice denominator q."""

    card_s: int = 2
    card_t: int = 2
    card_u: int = 1
    card_v: int = 1
    q: int = 1

    def __post_init__(self):
        for label, c in (("S", self.card_s), ("T", self.card_t),
                         ("U", self.card_u), ("V", self.card_v)):
            if c < 1:
                raise PmfError(f"cardinality of {label} must be >= 1")
        if self.q < 1:
            raise PmfError("q must be >= 1")

    @classmethod
    def default_inner(cls, base: JointPmf) -> "GridSpec":
        # |S| = |T| = alphabet size + 1, |U| = |V| = 2 keeps grids tractable
        card = max(v.cardinality for v in base.variables)
        return cls(card + 1, card + 1, 2, 2, 1)


def _family_layers(family: str, grid: GridSpec) -> list:
    """(from names, to variables) of each auxiliary layer, in extension order."""
    s, t, u, v = (VariableId(n, c) for n, c in
                  zip("STUV", (grid.card_s, grid.card_t, grid.card_u, grid.card_v)))
    if family.startswith("forward"):
        return [(("X1",), (s,)), (("X2",), (t,)), (("S",), (u,)), (("T",), (v,))]
    return [(("X3",), (s, t)), (("S", "T"), (u,))]


def _lattice_layers(base: JointPmf, layers, q: int) -> list:
    """Each layer's `LatticeLayer`, once the lattice fits `entry_budget()`.

    `layers` gives each layer's (from names, to variables) in extension
    order.  The lattice is refused when its points times the entries of one
    full joint exceed that budget.
    """
    cards = {v.name: v.cardinality for v in base.variables}
    n_points, entries = 1, base.table.size
    for from_names, to_vars in layers:
        width = math.prod(v.cardinality for v in to_vars)
        n_points *= math.comb(q + width - 1, width - 1) ** math.prod(cards[n] for n in from_names)
        entries *= width
        cards.update((v.name, v.cardinality) for v in to_vars)
    cost = n_points * entries
    cap = entry_budget()
    if cost > cap:
        raise BudgetExceededError(
            f"grid has {n_points} points ({cost} table entries total), budget {cap}"
        )
    return [lattice_channels(f, [cards[n] for n in f], t, q) for f, t in layers]


@dataclass(frozen=True, eq=False)
class LatticePoints:
    """The kept points of a channel lattice, as columns.

    `layers` are the lattice's `LatticeLayer`s in extension order.  A
    point's lattice index is its position in the lexicographic order of its
    picks (one row of each layer's stack); `kept` holds the indices of the
    kept points, ascending, and row i of the (len(kept), 3) array `rates`
    the (r1_max, r2_max, sum_max) of point `kept[i]`.
    """

    layers: tuple
    kept: np.ndarray
    rates: np.ndarray

    def picks(self) -> tuple:
        """Per layer, the stack row that each kept point picks."""
        return np.unravel_index(self.kept, tuple(len(layer.matrices) for layer in self.layers))


def _evaluate_lattice(base: JointPmf, layers, formula) -> tuple:
    """`formula` applied to every point of the channel lattice `layers`.

    `layers` holds each layer's `LatticeLayer` in extension order; a point
    picks one channel (one row of the stack) per layer, and points run in
    lexicographic order of their picks.  A chunk of points at a time, each
    layer's picked matrices are gathered from its stack, the full joints are
    built by `JointBatch.extend`, and `formula` maps their batch to a tuple
    of per-point arrays; the arrays are concatenated over the lattice.
    """
    counts = tuple(len(layer.matrices) for layer in layers)
    n_points = math.prod(counts)
    entries = base.table.size * math.prod(
        v.cardinality for layer in layers for v in layer.to_vars)
    chunk = max(1, _CHUNK_ENTRIES // entries)
    parts = []
    for start in range(0, n_points, chunk):
        picks = np.unravel_index(np.arange(start, min(start + chunk, n_points)), counts)
        tables = np.broadcast_to(base.table[..., None], base.table.shape + (len(picks[0]),))
        h = JointBatch(base.names, tables)
        for layer, pick in zip(layers, picks):
            h = h.extend(layer.from_names, layer.to_vars, layer.matrices[pick])
        parts.append(formula(h))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _kept_lattice(base: JointPmf, family: str, grid: GridSpec) -> tuple:
    """(evaluated, LatticePoints) of the family over the channel lattice.

    Points are evaluated in batches, in lexicographic lattice order (see
    `_evaluate_lattice`); `evaluated` counts them.  backward-outer lattice
    points violating either required Markov chain beyond `tolerances.CHAIN_TOL` are
    skipped; the `LatticePoints` holds the rest.
    """
    if family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    layers = _lattice_layers(base, _family_layers(family, grid), grid.q)
    formula = _FORMULAS[family]

    def evaluate(h):
        keep = np.ones(len(h), dtype=bool)
        if family == "backward-outer":
            for residual in _markov_residuals(h).values():
                keep &= ~(residual > CHAIN_TOL)
        return (keep,) + formula(h)

    keep, r1, r2, rsum = _evaluate_lattice(base, layers, evaluate)
    kept = np.flatnonzero(keep)
    rates = np.stack((r1[kept], r2[kept], rsum[kept]), axis=1)
    return len(keep), LatticePoints(tuple(layers), kept, rates)


def enumerate_region(base: JointPmf, family: str, grid: GridSpec, *,
                     workers: int = 0) -> RateRegion:
    """Union of the family's constraint sets over the whole channel lattice.

    The region holds its kept lattice points (see `_kept_lattice`) as
    `lattice`, and its `rates` are theirs; the time-sharing hull of its
    frontier is `upper_concave_envelope(region.frontier)`.
    `workers` is accepted for compatibility and ignored.  The count of
    backward-outer points skipped for a Markov chain violation is reported
    in `meta`.
    """
    evaluated, lattice = _kept_lattice(base, family, grid)
    return RateRegion(
        lattice.rates,
        pareto_frontier(lattice.rates),
        meta={"family": family, "evaluated": evaluated,
              "rejected": evaluated - len(lattice.kept),
              "grid": {"S": grid.card_s, "T": grid.card_t, "U": grid.card_u,
                       "V": grid.card_v, "q": grid.q}},
        lattice=lattice,
    )


def single_key_capacity(base: JointPmf, direction: str, grid: GridSpec) -> float:
    """Single-key capacity bound with the other user reduced to wiretapping:
    the two-key bound's largest r1 with the other key trivial (T and V
    constant), over `grid`'s S, U and q.

    forward: max over p(s|x1), p(u|s) of I(S;X3|U) - I(S;X2|U) (clamped);
    backward: max over p(s|x3), p(u|s) of I(S;X1|U) - I(S;X2|U).
    """
    if direction not in ("forward", "backward"):
        raise PmfError(f"direction must be forward or backward, got {direction!r}")
    family = "forward-outer" if direction == "forward" else "backward-inner"
    trivial_partner = GridSpec(grid.card_s, 1, grid.card_u, 1, grid.q)
    return float(_kept_lattice(base, family, trivial_partner)[1].rates[:, 0].max())


# ---------------------------------------------------------------------------
# Pareto frontier of a union of constraint sets
# ---------------------------------------------------------------------------

#: Rows of the clamped constraint table that one step of `_maximal_sets`
#: compares with the maximal rows found so far, and the maximal rows or
#: candidate abscissae that one step of `pareto_frontier` crosses with every
#: maximal row; bounds their working memory.
_PRUNE_BLOCK = 1024


def _maximal_sets(rates: np.ndarray) -> np.ndarray:
    """The distinct rows of the (n, 3) `rates`, each bound clamped at 0,
    that no other distinct one dominates, in descending lexicographic order.

    In that order a row sorts after every row that dominates it, so a block
    at a time is compared with the maximal rows before it and with itself.
    (Not `np.unique`, whose first call imports numpy.ma.)
    """
    rows = _nonneg(rates)
    rows = rows[np.lexsort(rows.T[::-1])[::-1]]
    rows = np.concatenate((rows[:1], rows[1:][(rows[1:] != rows[:-1]).any(axis=1)]))
    kept = rows[:0]
    for lo in range(0, len(rows), _PRUNE_BLOCK):
        block = rows[lo:lo + _PRUNE_BLOCK]
        covers = (np.concatenate((kept, block))[None] >= block[:, None]).all(axis=2)
        covers[np.arange(len(block)), len(kept) + np.arange(len(block))] = False  # itself
        kept = np.concatenate((kept, block[~covers.any(axis=1)]))
    return kept


def pareto_frontier(rates) -> list:
    """Pareto-maximal vertices of the union, sorted by increasing R1.

    `rates` holds the union's (r1_max, r2_max, sum_max) rows, as an (n, 3)
    float64 array.  Every listed pair is achievable and dominated by no
    other point of the union by more than `tolerances.FLAT_TOL`; R2 is
    non-increasing along the list.  Between consecutive vertices the exact
    boundary is the staircase/diagonal implied by the constituent sets.

    The candidate abscissae are 0, each maximal set's largest R1 and every
    corner sum_max - r2_max of two maximal sets (clamped at 0) up to the
    largest R1; at each, the height is the largest R2 of a set that admits
    it.  Candidates closer than `tolerances.SAME_R1_TOL` merge into one
    vertex at the last of them, with their largest height, and a vertex
    that some later one matches within `FLAT_TOL` is dropped.
    """
    maximal = _maximal_sets(np.asarray(rates, dtype=np.float64).reshape(-1, 3))
    if not len(maximal):
        return [(0.0, 0.0)]
    r1, r2, rsum = maximal.T
    right = np.minimum(r1, rsum)
    limit = right.max()
    sums = rsum[rsum < INF]
    xs = [np.zeros(1), right]
    for lo in range(0, len(r2), _PRUNE_BLOCK):
        corners = _nonneg(sums - r2[lo:lo + _PRUNE_BLOCK, None]).ravel()
        xs.append(corners[corners <= limit])
    xs = np.sort(np.concatenate(xs))
    xs = xs[np.concatenate(([True], xs[1:] != xs[:-1]))]
    ys = np.concatenate([
        np.where(x[:, None] > right, -INF, np.minimum(r2, rsum - x[:, None])).max(axis=1)
        for x in (xs[lo:lo + _PRUNE_BLOCK] for lo in range(0, len(xs), _PRUNE_BLOCK))])
    starts = np.flatnonzero(np.concatenate(([True], np.diff(xs) >= SAME_R1_TOL)))
    xs, ys = xs[np.append(starts[1:], len(xs)) - 1], np.maximum.reduceat(ys, starts)
    # y is non-increasing in x, so only flat runs produce domination: keep
    # the rightmost vertex of each run, flat within FLAT_TOL
    later = np.append(np.maximum.accumulate(ys[::-1])[::-1][1:], -INF)
    keep = later < ys - FLAT_TOL
    return list(zip(xs[keep].tolist(), ys[keep].tolist()))


def upper_concave_envelope(points) -> list:
    """Time-sharing hull of frontier points (upper concave majorant)."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if not pts:
        return [(0.0, 0.0)]
    # complete with the axis extremes so the hull spans the full R1 range
    ymax = max(y for _, y in pts)
    xmax = max(x for x, _ in pts)
    pts = sorted(set(pts) | {(0.0, ymax), (xmax, 0.0)})
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) >= -COLLINEAR_TOL:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull

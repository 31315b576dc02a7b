"""Exact discrete probability algebra over named finite-alphabet variables.

Everything downstream (rate regions, codebooks, leakage enumeration) is built
on one currency: a dense joint probability table with named axes.  All
information measures are in bits (log base 2) and use the convention
0 * log 0 = 0.  Tables are immutable after construction and every operation
is a pure function, so values can be shared and evaluated concurrently.
"""

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .tolerances import CHAIN_TOL, ENTROPY_ROUNDOFF, NEGATIVE_PROB_TOL, NORMALIZATION_TOL

__all__ = [
    "PmfError",
    "BudgetExceededError",
    "ConsistencyError",
    "VariableId",
    "JointPmf",
    "Channel",
    "entry_budget",
    "cond_mutual_information",
    "mutual_information",
    "is_markov_chain",
    "iid_extension",
]

#: Default cap on dense table size, in entries.  Joints above the cap are
#: refused outright rather than silently degraded.
DEFAULT_ENTRY_BUDGET = 1 << 26


class PmfError(Exception):
    """Base error for this module."""


class BudgetExceededError(PmfError):
    """A requested table would exceed the configured entry budget."""


class ConsistencyError(PmfError):
    """An internally computed quantity violated a hard invariant."""


def entry_budget() -> int:
    """Current dense-table entry budget: the SKREGION_BUDGET environment
    variable if set, else `DEFAULT_ENTRY_BUDGET`.  Every size gate reads it.

    The variable must be a positive decimal integer written in ASCII digits
    alone; anything else (a sign, a space, an underscore, zero) raises
    ValueError.
    """
    env = os.environ.get("SKREGION_BUDGET")
    if env:
        budget = _ascii_int(env)
        if not budget:
            raise ValueError(f"SKREGION_BUDGET must be a positive integer, got {env!r}")
        return budget
    return DEFAULT_ENTRY_BUDGET


def _ascii_int(token: str) -> int | None:
    """The value of `token` if it is ASCII decimal digits alone, else None.

    `int()` also reads a sign, surrounding whitespace, underscores and
    non-ASCII digits; no integer that skregion reads from text may carry
    them (SKREGION_BUDGET here, and the CLI's flags and `.dist` files).
    """
    return int(token) if token.isascii() and token.isdigit() else None


def _chain(terms) -> np.ndarray:
    """0.0 + terms[0] + terms[1] + ..., added left to right into a new array."""
    terms = iter(terms)
    out = next(terms) + 0.0
    for term in terms:
        out += term
    return out


def _marginal(t: np.ndarray, drop) -> np.ndarray:
    """Each table of the batch `t` summed over the cell axes `drop`, bit for
    bit as `np.sum(table, axis=drop)` sums it, in a few long vector operations.

    `t` holds tables of cells along its leading axes and the batch along its
    last axis, which is innermost in memory (or of length one); the result
    keeps that layout.  Each table is dense in some axis order, as every
    table the library holds is (C order, or a transpose of it copied by
    `np.where`).  numpy sums a table over the cell axes of size > 1 in memory
    order: the trailing run of summed axes is one inner loop per output
    cell, numpy's pairwise sum (left to right below 8 terms), and the other
    summed axes are folded onto a zeroed output left to right, in
    lexicographic order.  Here each of those additions is one add over whole
    (..., batch) slices, whose inner loop is the batch; only a run of 8 or
    more terms goes to numpy's reduction, on a copy with the run innermost.
    `tests/test_pmf.py` holds each table's result to `np.sum` bit for bit.
    """
    drop = set(drop)
    cells = t.ndim - 1
    axes = sorted((a for a in range(cells) if t.shape[a] > 1), key=lambda a: -t.strides[a])
    v = t.transpose(axes + [a for a in range(cells) if t.shape[a] == 1] + [cells]).reshape(
        [t.shape[a] for a in axes] + [t.shape[-1]])
    summed = [a in drop for a in axes]
    r = len(axes)
    while r and summed[r - 1]:
        r -= 1
    run = r < len(axes)
    if run:  # the trailing run, flattened: numpy's inner loop
        flat = v.reshape(v.shape[:r] + (-1, t.shape[-1]))
        if flat.shape[-2] >= 8:
            v = np.add.reduce(np.ascontiguousarray(np.swapaxes(flat, -1, -2)), axis=-1)
        else:
            v = _chain(flat[..., i, :] for i in range(flat.shape[-2]))
    lead = [i for i in range(r) if summed[i]]
    rest = [i for i in range(r) if not summed[i]]
    if lead or not run:  # without a run, a copy even when nothing is summed
        w = v.transpose(lead + rest + [r])
        v = _chain(w[i] for i in itertools.product(*map(range, w.shape[:len(lead)])))
    kept = [axes[i] for i in rest]  # v's cell axes, in memory order
    v = v.transpose([kept.index(a) for a in sorted(kept)] + [len(kept)])
    return v.reshape([n for a, n in enumerate(t.shape) if a not in drop])


@dataclass(frozen=True)
class VariableId:
    """A named finite-alphabet variable."""

    name: str
    cardinality: int

    def __post_init__(self):
        if not self.name:
            raise PmfError("variable name must be nonempty")
        if self.cardinality < 1:
            raise PmfError(f"cardinality of {self.name!r} must be >= 1")


class JointPmf:
    """Dense joint distribution over an ordered tuple of variables.

    Parameters
    ----------
    variables : sequence of VariableId
        Axis labels, in table axis order.  Names must be unique.
    table : array_like
        Nonnegative reals of shape ``tuple(v.cardinality for v in variables)``
        summing to 1 within `tolerances.NORMALIZATION_TOL`; entries down to
        -`tolerances.NEGATIVE_PROB_TOL` are roundoff and become 0.
    """

    __slots__ = ("variables", "table")

    def __init__(self, variables, table):
        variables = tuple(variables)
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise PmfError(f"duplicate variable names in {names}")
        arr = np.asarray(table, dtype=np.float64)
        shape = tuple(v.cardinality for v in variables)
        if arr.shape != shape:
            raise PmfError(f"table shape {arr.shape} does not match cardinalities {shape}")
        if arr.size > entry_budget():
            raise BudgetExceededError(
                f"table with {arr.size} entries exceeds budget {entry_budget()}"
            )
        total = float(arr.sum())
        if not math.isfinite(total):
            raise PmfError("non-finite probability in table")
        if arr.size and arr.min() < -NEGATIVE_PROB_TOL:
            raise PmfError(f"negative probability {arr.min()} in table")
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise PmfError(f"table sums to {total}, not 1 within {NORMALIZATION_TOL}")
        arr = np.where(arr < 0.0, 0.0, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "table", arr)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("JointPmf is immutable")

    # -- naming helpers -----------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise PmfError(f"unknown variable {name!r}; have {self.names}") from None

    def variable(self, name: str) -> VariableId:
        return self.variables[self.axis(name)]

    # -- operations ----------------------------------------------------------

    def marginalize(self, keep) -> "JointPmf":
        """Sum out every variable not in `keep`, preserving axis order."""
        keep = set(keep)
        unknown = keep - set(self.names)
        if unknown:
            raise PmfError(f"unknown variable(s) {sorted(unknown)}; have {self.names}")
        kept = tuple(v for v in self.variables if v.name in keep)
        drop = tuple(i for i, v in enumerate(self.variables) if v.name not in keep)
        out = _marginal(self.table[..., None], drop)[..., 0] if drop else self.table
        return JointPmf(kept, out)

    def extend(self, channel: "Channel") -> "JointPmf":
        """Adjoin new variables through a conditional channel.

        The result is p(old) * p(new | from), in a C-order table; the
        marginal over the old variables is unchanged.
        """
        for n in channel.from_names:
            self.axis(n)  # raises on unknown
        for v in channel.to_vars:
            if v.name in self.names:
                raise PmfError(f"variable {v.name!r} already present")
        from_cards = tuple(self.variable(n).cardinality for n in channel.from_names)
        if channel.matrix.shape[: len(from_cards)] != from_cards:
            raise PmfError(
                f"channel conditioned on cards {channel.matrix.shape[:len(from_cards)]}, "
                f"pmf has {from_cards}"
            )
        batch = JointBatch.of(self).extend(channel.from_names, channel.to_vars,
                                           channel.matrix[None])
        return JointPmf(self.variables + channel.to_vars, batch.tables[..., 0])

    def entropy(self, names=None) -> float:
        """Joint entropy in bits of the given variable subset (all if None)."""
        return float(JointBatch.of(self).entropy(self.names if names is None else names)[0])

    def __repr__(self):
        spec = ",".join(f"{v.name}={v.cardinality}" for v in self.variables)
        return f"JointPmf({spec})"


class JointBatch:
    """Joint tables over the same variables, stacked along a trailing batch axis.

    `tables` has shape (cells..., batch), and the batch axis is innermost in
    memory (or of length one), so that every marginal sum adds whole
    (..., batch) slices (see `_marginal`).  Entropies and conditional MIs
    come back as one value per table.  Each distinct marginal entropy is
    computed once per batch and cached.  The arithmetic applied to one table
    does not depend on the batch around it, so a batch of one reproduces
    `JointPmf.entropy` and `cond_mutual_information` bit for bit: those two
    are this kernel.
    Tables are not validated here; they come from a validated `JointPmf` or
    from products of validated tables and channels.
    """

    __slots__ = ("names", "tables", "_entropies")

    def __init__(self, names, tables: np.ndarray):
        self.names = tuple(names)
        self.tables = tables
        self._entropies = {}

    @classmethod
    def of(cls, pmf: JointPmf) -> "JointBatch":
        """A batch of one: `pmf` alone."""
        return cls(pmf.names, pmf.table[..., None])

    def __len__(self) -> int:
        return self.tables.shape[-1]

    def extend(self, from_names, to_vars, matrices: np.ndarray) -> "JointBatch":
        """Adjoin `to_vars` to each table through its own channel p(to | from).

        `matrices` stacks one `Channel` matrix per table along its leading
        axis.  Every entry is the single product `JointPmf.extend` takes,
        which is this method on a batch of one.  The new tables are laid out
        in C order, the batch innermost.
        """
        k = len(self.names)
        cell_subs = list(range(1, k + 1))  # subscript 0 is the batch
        new_subs = list(range(k + 1, k + 1 + len(to_vars)))
        mat_subs = [0] + [self.names.index(n) + 1 for n in from_names] + new_subs
        tables = np.einsum(self.tables, cell_subs + [0], matrices, mat_subs,
                           cell_subs + new_subs + [0], order="C")
        return JointBatch(self.names + tuple(v.name for v in to_vars), tables)

    def entropy(self, names) -> np.ndarray:
        """Joint entropy in bits of the variable subset `names`, per table.

        One mask, and one buffer for t * log2(t) (+0.0 where t is not positive):
        so glibc does not trim and regrow its heap between lattice chunks."""
        key = frozenset(names)
        h = self._entropies.get(key)
        if h is not None:
            return h
        unknown = key - set(self.names)
        if unknown:
            raise PmfError(f"unknown variable(s) {sorted(unknown)}; have {self.names}")
        if key:
            drop = tuple(i for i, n in enumerate(self.names) if n not in key)
            t = _marginal(self.tables, drop) if drop else self.tables
            # one contiguous row per table, so each row sum is numpy's pairwise sum
            t = np.ascontiguousarray(t.reshape(-1, len(self)).T)
            pos = t > 0.0
            x = np.where(pos, t, 1.0)
            np.log2(x, out=x)
            x *= t
            x[~pos] = 0.0
            h = -x.sum(axis=1)
        else:
            h = np.zeros(len(self))
        self._entropies[key] = h
        return h

    def cmi(self, a, b, c=()) -> np.ndarray:
        """I(A; B | C) in bits per table, clamped as `cond_mutual_information` is."""
        a, b, c = set(a), set(b), set(c)
        if (a & b) or (a & c) or (b & c):
            raise PmfError(
                f"variable sets must be disjoint: {sorted(a)}, {sorted(b)}, {sorted(c)}")
        if not a or not b:
            return np.zeros(len(self))
        value = (
            self.entropy(a | c)
            + self.entropy(b | c)
            - self.entropy(a | b | c)
            - self.entropy(c)
        )
        if len(value) and value.min() < -ENTROPY_ROUNDOFF:
            raise ConsistencyError(
                f"conditional MI = {value.min()} below -{ENTROPY_ROUNDOFF}")
        return np.where(value < 0.0, 0.0, value)


def _stochastic_array(matrix, cond_rank: int, to_shape: tuple) -> np.ndarray:
    """`matrix` as a read-only float64 array of conditional distributions.

    The trailing axes, of shape `to_shape`, hold p(to | ...) for each cell of
    the `cond_rank` axes before them.  Each such slice must be finite, no
    entry below -`tolerances.NEGATIVE_PROB_TOL`, and sum to 1 within
    `tolerances.NORMALIZATION_TOL`; entries below zero become 0.  This is
    the rule for one `Channel` matrix (`cond_rank` = its from-variable
    count) and, with one more leading axis, for a stack of them.
    """
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.shape[len(arr.shape) - len(to_shape):] != to_shape:
        raise PmfError(f"matrix trailing shape {arr.shape} does not match to-vars {to_shape}")
    if len(arr.shape) != len(to_shape) + cond_rank:
        raise PmfError("matrix rank does not match from/to variable counts")
    if arr.size and arr.min() < -NEGATIVE_PROB_TOL:
        raise PmfError("negative conditional probability")
    to_axes = tuple(range(cond_rank, arr.ndim))
    rows = arr.sum(axis=to_axes) if to_axes else arr
    if not np.isfinite(rows).all():
        raise PmfError("non-finite conditional probability")
    if np.max(np.abs(rows - 1.0)) > NORMALIZATION_TOL:
        raise PmfError("conditional rows must sum to 1 within 1e-9")
    arr = np.where(arr < 0.0, 0.0, arr)
    arr.setflags(write=False)
    return arr


class Channel:
    """Conditional distribution p(to | from) as a dense stochastic array.

    `matrix` has shape (from cardinalities..., to cardinalities...); each
    conditional slice over the `to` axes sums to 1 within
    `tolerances.NORMALIZATION_TOL`.
    """

    __slots__ = ("from_names", "to_vars", "matrix")

    def __init__(self, from_names, to_vars, matrix):
        from_names = tuple(from_names)
        to_vars = tuple(to_vars)
        arr = _stochastic_array(matrix, len(from_names), tuple(v.cardinality for v in to_vars))
        object.__setattr__(self, "from_names", from_names)
        object.__setattr__(self, "to_vars", to_vars)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, *a):
        raise AttributeError("Channel is immutable")

    @property
    def to_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.to_vars)

    # -- constructors used throughout the package ----------------------------

    @staticmethod
    def identity(from_name: str, cardinality: int, to_name: str) -> "Channel":
        """Deterministic copy: new variable equals the source symbol."""
        return Channel((from_name,), (VariableId(to_name, cardinality),), np.eye(cardinality))

    @staticmethod
    def constant(to_name: str, from_name: str, from_cardinality: int) -> "Channel":
        """Degenerate channel to a one-symbol alphabet."""
        mat = np.ones((from_cardinality, 1))
        return Channel((from_name,), (VariableId(to_name, 1),), mat)

    @staticmethod
    def bsc(from_name: str, to_name: str, flip: float) -> "Channel":
        """Binary symmetric channel with the given crossover probability."""
        if not 0.0 <= flip <= 1.0:
            raise PmfError(f"flip probability {flip} outside [0, 1]")
        mat = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
        return Channel((from_name,), (VariableId(to_name, 2),), mat)

    def __repr__(self):
        return f"Channel({self.from_names} -> {self.to_names})"


def cond_mutual_information(pmf: JointPmf, a, b, c=()) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    A, B, C are disjoint variable-name collections; C may be empty.  Tiny
    negative values from floating-point cancellation (down to
    -`tolerances.ENTROPY_ROUNDOFF`) are clamped to zero; anything more
    negative raises ConsistencyError.
    """
    return float(JointBatch.of(pmf).cmi(a, b, c)[0])


def mutual_information(pmf: JointPmf, a, b) -> float:
    return cond_mutual_information(pmf, a, b, ())


def is_markov_chain(pmf: JointPmf, a, b, c) -> bool:
    """True iff A - B - C holds, i.e. I(A; C | B) <= `tolerances.CHAIN_TOL`."""
    return cond_mutual_information(pmf, a, c, b) <= CHAIN_TOL


def _check_extension_budget(cards, n: int) -> None:
    """Refuse an n-fold extension of a table with axis sizes `cards` over the budget."""
    size = 1
    for c in cards:
        size *= c ** n
        if size > entry_budget():
            raise BudgetExceededError(
                f"iid extension would need {math.prod(c ** n for c in cards)} entries, "
                f"budget is {entry_budget()}"
            )


def iid_extension(pmf: JointPmf, n: int) -> JointPmf:
    """n-fold i.i.d. product distribution, one sequence variable per original.

    Each variable keeps its name and gets cardinality ``card ** n``; a symbol
    of the extension encodes the length-n sequence in base ``card``, most
    significant letter first.  Entropies scale by exactly n.
    """
    if n < 1:
        raise PmfError(f"extension length must be >= 1, got {n}")
    if n == 1:
        return pmf
    cards = [v.cardinality for v in pmf.variables]
    _check_extension_budget(cards, n)
    k = len(cards)
    full = pmf.table
    for _ in range(n - 1):
        full = np.multiply.outer(full, pmf.table)
    # axis layout is (copy, variable); regroup to (variable, copy) then merge
    perm = [copy * k + j for j in range(k) for copy in range(n)]
    full = full.transpose(perm).reshape([c ** n for c in cards])
    variables = tuple(VariableId(v.name, v.cardinality ** n) for v in pmf.variables)
    return JointPmf(variables, full)

"""Closed-form special-case regions and their coincidence validation.

When the three sources form one of the recognized Markov chains, inner and
outer bounds meet and the exact key capacity region has a closed form.  The
validators here compute the closed forms, compare them against the grid
evaluators, and fuzz the chain-split inequality used by the converse
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pmf import JointPmf, PmfError, VariableId, cond_mutual_information as cmi
from .region import (
    INF,
    GridSpec,
    RateConstraintSet,
    RateRegion,
    _evaluate_lattice,
    _family_layers,
    _lattice_layers,
    _markov_residuals,
    _nonneg,
    explicit_outer,
    pareto_frontier,
)
from .tolerances import CHAIN_TOL, CONSEQUENCE_FLOOR, LEMMA_SLACK_TOL

__all__ = [
    "ChainViolatedError",
    "CaseDiagnosis",
    "diagnose",
    "case1_region",
    "case2_region",
    "case3_region",
    "verify_coincidence",
    "region_gap",
    "lemma3_check",
    "telescoped_slack",
    "random_lemma3_joint",
]

#: The recognized source chains, in the order they are reported, each with
#: the (A, B, C) of its residual I(A; B | C), which is 0 exactly when it holds.
_CHAINS = {
    "X1-X2-X3": (("X1",), ("X3",), ("X2",)),
    "X2-X1-X3": (("X2",), ("X3",), ("X1",)),
    "X1-X3-X2": (("X1",), ("X2",), ("X3",)),
}

#: `region_gap` probes each frontier edge at this many equal steps.
_EDGE_SAMPLES = 16


class ChainViolatedError(PmfError):
    def __init__(self, chain: str, residual: float):
        super().__init__(f"Markov chain {chain} violated: residual {residual:.3e} bits")
        self.chain = chain
        self.residual = residual


@dataclass(frozen=True)
class CaseDiagnosis:
    """Conditional-MI residuals for the three recognized chains, in `_CHAINS` order."""

    residual_x1_x2_x3: float   # I(X1;X3|X2)
    residual_x2_x1_x3: float   # I(X2;X3|X1)
    residual_x1_x3_x2: float   # I(X1;X2|X3)
    tol: float

    @property
    def residuals(self) -> dict:
        """Each chain's residual, by chain name, in `_CHAINS` order."""
        return dict(zip(_CHAINS, (self.residual_x1_x2_x3, self.residual_x2_x1_x3,
                                  self.residual_x1_x3_x2)))

    @property
    def chains(self) -> tuple:
        return tuple(chain for chain, residual in self.residuals.items() if residual <= self.tol)

    def as_dict(self) -> dict:
        return {"residuals": self.residuals, "tol": self.tol, "chains": list(self.chains)}


def diagnose(base: JointPmf, tol: float = CHAIN_TOL) -> CaseDiagnosis:
    """Report which of the recognized source chains hold within tol."""
    return CaseDiagnosis(*(cmi(base, *abc) for abc in _CHAINS.values()), tol=tol)


def _require_chain(base: JointPmf, chain: str, tol: float) -> None:
    """Raise ChainViolatedError unless `chain`'s residual is at most tol."""
    residual = cmi(base, *_CHAINS[chain])
    if residual > tol:
        raise ChainViolatedError(chain, residual)


def case1_region(base: JointPmf, tol: float = CHAIN_TOL) -> RateRegion:
    """Exact region for X1 - X2 - X3 chains: the segment R1 = 0, R2 <= I(X2;X3|X1).

    Holds for both strategies; the backward deterministic point T = X3
    attains the segment, and the explicit outer rectangle collapses onto it.
    """
    _require_chain(base, "X1-X2-X3", tol)
    r2 = cmi(base, ("X2",), ("X3",), ("X1",))
    return RateRegion.of(RateConstraintSet(0.0, r2, INF), {"case": "case1"})


def case2_region(base: JointPmf, tol: float = CHAIN_TOL) -> RateRegion:
    """Exact forward region for X1 - X3 - X2 chains: the explicit rectangle."""
    _require_chain(base, "X1-X3-X2", tol)
    return RateRegion.of(explicit_outer(base), {"case": "case2"})


def case3_region(base: JointPmf, grid: GridSpec, tol: float = CHAIN_TOL) -> RateRegion:
    """Grid lower bound of the backward region for X1 - X3 - X2 chains.

    Lattice points must satisfy U - S - X3, U - T - X3 and S - X1 - X2 - T
    (all enforced by rejection within tol).  The conditional-independence
    consequence I(S;T|X1,U) = I(S;T|X2,U) = 0 is checked on every accepted
    point; violations are rejected and counted separately.  The maximum is a
    lower bound of the case region: no analytic construction is attempted.
    A lattice above the entry budget is refused, as in `enumerate_region`.
    """
    _require_chain(base, "X1-X3-X2", tol)
    layers = _lattice_layers(base, _family_layers("backward-inner", grid), grid.q)

    def evaluate(h):
        chains_ok = np.logical_and.reduce([value <= tol for value in (
            *_markov_residuals(h).values(),
            h.cmi(("S",), ("X2", "T"), ("X1",)),
            h.cmi(("S", "X1"), ("T",), ("X2",)),
        )])
        threshold = max(tol, CONSEQUENCE_FLOOR)
        consequence_ok = ~(
            (h.cmi(("S",), ("T",), ("X1", "U")) > threshold)
            | (h.cmi(("S",), ("T",), ("X2", "U")) > threshold)
        )
        r1 = h.cmi(("S",), ("X1",), ("U",)) - h.cmi(("S",), ("X2",), ("U",))
        r2 = h.cmi(("T",), ("X2",), ("U",)) - h.cmi(("T",), ("X1",), ("U",))
        return chains_ok, consequence_ok, _nonneg(r1), _nonneg(r2)

    chains_ok, consequence_ok, r1, r2 = _evaluate_lattice(base, layers, evaluate)
    kept = chains_ok & consequence_ok
    rates = np.stack((r1[kept], r2[kept], np.full(np.count_nonzero(kept), INF)), axis=1)
    return RateRegion(rates, pareto_frontier(rates), meta={
        "case": "case3", "bound": "lower",
        "evaluated": len(kept),
        "chain_rejected": int(np.count_nonzero(~chains_ok)),
        "consequence_rejected": int(np.count_nonzero(chains_ok & ~consequence_ok)),
    })


# ---------------------------------------------------------------------------
# Coincidence measurement
# ---------------------------------------------------------------------------

def region_gap(outer_frontier, inner_rates) -> float:
    """Max one-sided gap from the outer frontier into the inner union.

    `inner_rates` holds the inner union's (r1_max, r2_max, sum_max) rows;
    an empty union is the origin's, (0, 0, inf).  Probes every outer vertex
    plus 15 evenly spaced points along each frontier edge; each probe
    measures how far it must move down-left (Chebyshev) to enter the inner
    region: into one set, the largest of 0, its excess over the set's
    largest R1 and largest R2, and half its excess over the sum bound.
    """
    rows = np.asarray(inner_rates, dtype=np.float64).reshape(-1, 3)
    if not len(rows):
        rows = np.array([[0.0, 0.0, INF]])
    r1, r2, rsum = rows.T
    right, top = np.minimum(r1, rsum), np.minimum(r2, rsum)
    probes = list(outer_frontier)
    for (x0, y0), (x1, y1) in zip(outer_frontier, outer_frontier[1:]):
        for j in range(1, _EDGE_SAMPLES):
            f = j / _EDGE_SAMPLES
            probes.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0)))
    gaps = []
    for px, py in probes:
        d = _nonneg(np.maximum(px - right, py - top))
        diagonal = (px + py - rsum) / 2.0  # -inf without a sum bound
        gaps.append(np.where(diagonal > d, diagonal, d).min())
    return float(max(gaps))


def verify_coincidence(inner: RateRegion, outer: RateRegion, tol: float) -> tuple:
    """True iff the outer frontier is within tol of the inner region."""
    gap = region_gap(outer.frontier, inner.rates)
    return gap <= tol, gap


# ---------------------------------------------------------------------------
# Chain-split inequality (converse workhorse)
# ---------------------------------------------------------------------------

def _x2_tail(n: int, i: int) -> tuple:
    return tuple(f"X2_{j}" for j in range(i + 1, n + 1))


def _x3_head(n: int, i: int) -> tuple:
    return tuple(f"X3_{j}" for j in range(1, i + 1))


def lemma3_check(joint: JointPmf, n: int) -> tuple:
    """Evaluate the chain-split inequality exactly; returns (ok, slack).

    For arbitrary (K, F1, F2, X2_1..X2_n, X3_1..X3_n):

        I(K; X3^n, F2 | F1) - I(K; X2^n | F1)
          <= sum_i [ I(K; F2, X3_i | X3^{i-1}, X2_{i+1}^n, F1)
                     - I(K; X2_i | X3^{i-1}, X2_{i+1}^n, F1) ]

    slack = RHS - LHS, which telescopes to
    sum_{i<n} I(K; F2 | X3^i, X2_{i+1}^n, F1) >= 0.
    """
    needed = {"K", "F1", "F2"} | set(_x2_tail(n, 0)) | set(_x3_head(n, n))
    missing = needed - set(joint.names)
    if missing:
        raise PmfError(f"joint is missing variables {sorted(missing)}")
    lhs = (
        cmi(joint, ("K",), _x3_head(n, n) + ("F2",), ("F1",))
        - cmi(joint, ("K",), _x2_tail(n, 0), ("F1",))
    )
    rhs = 0.0
    for i in range(1, n + 1):
        cond = _x3_head(n, i - 1) + _x2_tail(n, i) + ("F1",)
        rhs += cmi(joint, ("K",), ("F2", f"X3_{i}"), cond)
        rhs -= cmi(joint, ("K",), (f"X2_{i}",), cond)
    slack = rhs - lhs
    return slack >= -LEMMA_SLACK_TOL, slack


def telescoped_slack(joint: JointPmf, n: int) -> float:
    """Closed form of the lemma3 slack, for cross-checking the evaluator."""
    total = 0.0
    for i in range(1, n):
        cond = _x3_head(n, i) + _x2_tail(n, i) + ("F1",)
        total += cmi(joint, ("K",), ("F2",), cond)
    return total


def random_lemma3_joint(rng: np.random.Generator, n: int) -> JointPmf:
    """Arbitrary random joint over (K, F1, F2, X2_1..n, X3_1..n), cards 2 or 3."""
    names = ["K", "F1", "F2"]
    names += [f"X2_{i}" for i in range(1, n + 1)]
    names += [f"X3_{i}" for i in range(1, n + 1)]
    cards = [int(rng.integers(2, 4)) for _ in names]
    flat = rng.dirichlet(np.ones(int(np.prod(cards))))
    variables = tuple(VariableId(nm, c) for nm, c in zip(names, cards))
    return JointPmf(variables, flat.reshape(cards))

"""Every numeric tolerance of the package, each named once with its reason.

A comparison against a tolerance reads its constant from here, so that one
decision (say, "this Markov chain holds") is made with one value wherever it
is made.  The values are part of the output contract: changing one can move
a pinned frontier, report or exit code.  Information quantities are in bits.
"""

#: A Markov chain A - B - C holds when its residual I(A; C | B) is at most
#: this.  An exact chain leaves only the roundoff of differencing entropies
#: of order 1, far below it.  `is_markov_chain`, backward-outer's chain
#: rejection, the case regions and `verify`'s diagnosis (the `--tol`
#: default) all decide with it.
CHAIN_TOL = 1e-9

#: A probability table, a `.dist` file or a channel row must sum to 1 within
#: this.  Cells that are products of probabilities, or decimals written out
#: to a dozen digits or more, sum to 1 within far less; a cell dropped or
#: mistyped moves the sum far more.
NORMALIZATION_TOL = 1e-9

#: Entries down to -NEGATIVE_PROB_TOL are roundoff from forming a table or a
#: channel matrix and are set to 0; a lower entry is refused as invalid input.
NEGATIVE_PROB_TOL = 1e-12

#: A sum of entropies that cannot be negative (a conditional MI, a public
#: rate H(S|...) - R, a reliability margin) is roundoff down to
#: -ENTROPY_ROUNDOFF and real below it.  The four or so entropy terms of
#: order 1 round to about 1e-15 each.  Below it a conditional MI is an
#: arithmetic bug, a public rate is infeasible and a margin is a violated
#: reliability condition.
ENTROPY_ROUNDOFF = 1e-12

#: `lemma3_check` reports a violation only for a slack below -this.  The
#: slack telescopes to a sum of conditional MIs, so it is >= 0 exactly; the
#: 2n + 2 clamped CMIs it is evaluated from each carry up to
#: ENTROPY_ROUNDOFF of roundoff, which this leaves room for.
LEMMA_SLACK_TOL = 1e-10

#: `AuxSystem.validate` accepts a stored full joint whose entries differ from
#: the joint rebuilt from base and channels by at most this.  Rebuilding
#: repeats the same products, so an honest joint differs by roundoff only.
FACTORIZATION_TOL = 1e-9

#: `pareto_frontier` treats a run of vertices as flat when their R2 values
#: differ by at most this.  The run's right corner, sum_max - r2_max, is
#: rounded, which can leave its R2 up to one ulp of sum_max below the run's.
#: Far above that rounding and far below the 1e-9 that frontier.csv prints.
FLAT_TOL = 1e-12

#: `pareto_frontier` merges candidate R1 values closer than this into one
#: vertex: the same corner reached by two differently rounded sums.  A few
#: ulps of a rate of order 1.
SAME_R1_TOL = 1e-15

#: `upper_concave_envelope` drops a point that lies on or below the chord of
#: its neighbours, with the cross product's roundoff (a few ulps of products
#: of order 1) counted as on the chord.
COLLINEAR_TOL = 1e-15

#: `case3_region` rejects a point on its conditional-independence consequence
#: only above max(tol, this): a `tol` tighter than this tightens the chain
#: checks without rejecting points for the roundoff of the consequence's CMIs.
CONSEQUENCE_FLOOR = 1e-9

#: `verify`'s case-1 deterministic point and case-2 identity corner must
#: reproduce their closed form within this.  Both sides compute the same
#: information quantities by different sums of entropies, so they differ by
#: roundoff only; `--tol` bounds the region gap, not this.
CLOSED_FORM_TOL = 1e-9

#: Absolute guard for comparing an integer count with a float bound: the
#: typicality window n p (1 +- eps) and the bin count ceil(2^(n R)).  A bound
#: that is an integer up to rounding then counts as that integer; it is far
#: below the spacing of counts, which is 1.
COUNT_FUZZ = 1e-9

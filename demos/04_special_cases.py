"""
Special-case regions and coincidence checks
===========================================

For chain-structured sources the inner and outer bounds meet and the key
capacity region has a closed form.  This script diagnoses the chain
structure, evaluates the closed forms, and measures the gap between the
computed bounds.  It ends with a fuzz of the chain-split inequality that
powers the converse arguments.
"""

import numpy as np

from skregion import case1_region, case2_region, diagnose, verify_coincidence
from skregion.cases import case3_region, lemma3_check, random_lemma3_joint, region_gap
from skregion.region import GridSpec, enumerate_region
from skregion.sources import broadcast_source, xor_source

chain = broadcast_source("X2", 0.25, 0.25)   # X1 - X2 - X3
star = broadcast_source("X3", 0.25, 0.25)    # X1 - X3 - X2

print("diagnosis of the hidden-middle chain:", diagnose(chain).chains)
print("diagnosis of the star:", diagnose(star).chains)
print("diagnosis of xor:", diagnose(xor_source()).chains)

# Case 1: X1 - X2 - X3, the exact region is the segment R1 = 0.
segment = case1_region(chain)
print("\ncase-1 segment: R1 = 0, R2 <=", round(segment.frontier[0][1], 6))
inner = enumerate_region(chain, "backward-inner", GridSpec(1, 2, 1, 1, 1))
ok, gap = verify_coincidence(inner, segment, 1e-9)
print("backward inner attains it:", ok, f"(gap {gap:.2e})")

# Case 2: X1 - X3 - X2, the forward region is the explicit rectangle.
rect = case2_region(star)
print("\ncase-2 rectangle corner:",
      tuple(round(v, 6) for v in rect.frontier[0]))
inner = enumerate_region(star, "forward-inner", GridSpec(2, 2, 1, 1, 1))
gap = region_gap(rect.frontier, inner.rates)
print("forward inner reaches the corner: gap", f"{gap:.2e}")

# Case 3: the backward region of a star source, searched on the lattice
# under the three required chains.  Symmetric legs give the origin; an
# asymmetric star leaves user 1 an advantage.
r3 = case3_region(star, GridSpec(2, 2, 1, 1, 1))
print("\ncase-3 lattice lower bound (symmetric star):", r3.frontier, r3.meta["chain_rejected"],
      "lattice points rejected by the chains")

# The chain-split inequality behind the converses, fuzzed on random joints.
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(300):
    joint = random_lemma3_joint(rng, 2)
    ok, slack = lemma3_check(joint, 2)
    assert ok
    worst = min(worst, slack)
print("\nchain-split inequality over 300 random joints: min slack =", f"{worst:.3e}")

"""
Running the random-binning key-agreement protocol
=================================================

Small-blocklength trials of the binning protocol: typical sequences are
dealt into (key, column, residual) bins, the key owner announces its column
and cover index, the decoder searches the announced columns for the unique
jointly typical tuple, and the eavesdropper's view is scored for leakage.

Monte Carlo estimates come from seeded trials; exact mode enumerates every
source block and computes the leakage mutual information exactly.
"""

from skregion import check_definition1
from skregion.sim import (
    broadcast_forward_preset,
    exact_leakage,
    exact_report,
    identity_preset,
    run_trials,
)

# --- sanity: the noiseless configuration never errs -----------------------
report = run_trials(identity_preset(8, trials=500, seeds=(1,)))
print("identity preset:", report.summary_line())

# --- a protocol with a real wiretapper ------------------------------------
# User 1 shares the center bit with user 3 exactly; user 2 taps it through
# a BSC(0.25).  Typical-set encoder misses are the only error source, so
# reliability improves with the blocklength.
print("\nreliability trend (half-margin rates, two codebook seeds):")
for n in (4, 6, 8):
    cfg = broadcast_forward_preset(n, trials=500, seeds=(1, 2))
    rep = run_trials(cfg)
    print(f"  n={n}:  err_K={rep.err_K:.4f}  uniformity_gap_K={rep.uniformity_gap_K:.4f}")

# --- exact leakage ---------------------------------------------------------
print("\nexact per-symbol leakage to the tapped leg:")
for n in (4, 8):
    cfg = broadcast_forward_preset(n, seeds=(1,))
    leak, gap, err = exact_leakage(cfg)
    print(f"  n={n}:  leak_K={leak:.4f} bits/symbol  err_K={err:.4f}")

# --- the six achievability conditions at a fixed tolerance -----------------
cfg = broadcast_forward_preset(8, seeds=(1,))
rep = exact_report(cfg)
print("\nachievability checks at eps = 0.1:")
for name, ok in check_definition1(rep, 0.1).items():
    print(f"  {name}: {'ok' if ok else 'FAIL'}")

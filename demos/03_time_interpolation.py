"""Show how the time-aware variant replaces position weights with
continuous-time transition matrices.

A grid of boundary matrices T_0h, T_1h, ... is learned; an arbitrary time
difference gets the linear blend of its two enclosing boundaries, so an
event 1.6h in the past is weighted 0.4*T_1h + 0.6*T_2h. Differences beyond
the grid clamp to the last boundary. The forward pass is RLBL's: only the
window matrices come from the grid.
"""

import numpy as np

from rlbl.data import UserSequence
from rlbl.model import hidden_chain
from rlbl.time_aware import init_ta_rlbl_params, interp_matrix, interp_weights

HOUR = 3600.0
params = init_ta_rlbl_params(n_users=2, n_items=10, n_behaviors=2,
                             d=4, n=2, bin_width=HOUR, n_bins=6, seed=3)
grid = params.grid
print(f"grid: {grid.n_bins} bins of {grid.bin_width/3600:.0f}h, "
      f"{grid.boundary_mats.shape[0]} boundary matrices")

for td_hours in (0.0, 0.5, 1.0, 1.6, 2.5, 6.0, 50.0):
    lo, hi, w_lo, w_hi = interp_weights(grid, td_hours * HOUR)
    print(f"  t_d = {td_hours:4.1f}h -> {w_lo:.2f}*T_{lo}h + {w_hi:.2f}*T_{hi}h")

T = interp_matrix(grid, 1.6 * HOUR)
ref = 0.4 * grid.boundary_mats[1] + 0.6 * grid.boundary_mats[2]
print(f"\n1.6h blend max abs deviation from 0.4*T_1h + 0.6*T_2h: "
      f"{np.max(np.abs(T - ref)):.2e}")

# only gaps matter, not absolute clock values: shifting every timestamp by
# a constant leaves all hidden states bit-identical
rng = np.random.default_rng(4)
length = 8
items = rng.integers(10, size=length).astype(np.int64)
behaviors = rng.integers(2, size=length).astype(np.int64)
ts = np.cumsum(rng.integers(900, 7200, size=length)).astype(np.int64)

seq = UserSequence(0, items, behaviors, ts)
shifted = UserSequence(0, items, behaviors, ts + 123_456_789)
H = hidden_chain(params, seq, length)
H_shift = hidden_chain(params, shifted, length)
print(f"time-shift invariance (bit level): {np.array_equal(H, H_shift)}")

# squeezing the gaps changes the states: recency now matters
squeezed = UserSequence(0, items, behaviors, (ts // 10).astype(np.int64))
H_sq = hidden_chain(params, squeezed, length)
print(f"max |h| change after dividing all gaps by 10: "
      f"{np.max(np.abs(H - H_sq)):.4f}")

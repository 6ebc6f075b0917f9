"""TA-RLBL: time-specific transition matrices via linear interpolation.

Instead of one matrix per window position, the time-aware model keeps one
matrix per boundary of an equally spaced grid of time-difference bins.
The matrix for a time difference t_d strictly inside a bin [L, U] is the
linear interpolation

    T(t_d) = (T_L (U - t_d) + T_U (t_d - L)) / (U - L),

a boundary value returns its boundary matrix exactly, and differences past
the end of the grid clamp to the last boundary matrix. Time differences
are taken against the newest item in the window (t_k - t_{k-i}); a
negative difference (possible after stable tie-sorting) clamps to 0.
"""

from dataclasses import dataclass

import numpy as np

from rlbl.model import Sizes

class TimeError(ValueError):
    """Raised for negative time differences."""


@dataclass
class TimeBinGrid:
    """Equally spaced bin boundaries 0, w, 2w, ..., n_bins*w with one matrix each."""

    bin_width: float                # seconds, > 0
    boundary_mats: np.ndarray       # (n_bins + 1, d, d)

    @property
    def n_bins(self):
        return self.boundary_mats.shape[0] - 1


@dataclass
class TaRlblParams(Sizes):
    """TA-RLBL learnable tensors; like RlblParams with C replaced by a grid."""

    user_vecs: np.ndarray  # (n_users, d)
    item_vecs: np.ndarray  # (n_items, d)
    W: np.ndarray          # (d, d)
    grid: TimeBinGrid
    M: np.ndarray          # (n_behaviors, d, d)
    u0: np.ndarray         # (d,)
    n: int                 # window width

    @property
    def trans(self):
        """The stack that windows() indices address: the boundary matrices."""
        return self.grid.boundary_mats

    def windows(self, seq, layers, i):
        """T(t_d) for the gap between each layer's event and the one i before it
        (the first event if none is), for ``layers`` broadcast against offsets
        ``i``, as a (..., d, d) stack with the boundary matrices and weights
        each matrix blends."""
        ts, earlier = seq.timestamps, np.maximum(layers - 1 - i, 0)
        return interp_stack(self.grid, np.maximum(ts[layers - 1] - ts[earlier], 0))


def init_ta_rlbl_params(n_users, n_items, n_behaviors, d, n, bin_width=3600.0,
                        n_bins=24, seed=0):
    """Seeded initialization mirroring the RLBL scheme; 1-hour bins by default."""
    rng = np.random.default_rng(seed)
    half = 0.1 / np.sqrt(d)
    eye_noise = 0.01
    grid = TimeBinGrid(
        bin_width=float(bin_width),
        boundary_mats=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(n_bins + 1, d, d)),
    )
    return TaRlblParams(
        user_vecs=rng.uniform(-half, half, size=(n_users, d)),
        item_vecs=rng.uniform(-half, half, size=(n_items, d)),
        W=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(d, d)),
        grid=grid,
        M=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(n_behaviors, d, d)),
        u0=rng.uniform(-half, half, size=d),
        n=n,
    )


def interp_weights(grid, t_d):
    """Indices and weights of the boundary matrices blending at each t_d.

    Returns (lo, hi, w_lo, w_hi) arrays shaped like t_d. At an exact
    boundary (and beyond the last one) the full weight sits on a single
    matrix: lo == hi, w_lo = 1, w_hi = 0.
    """
    t = np.asarray(t_d, dtype=float)
    if not (t >= 0).all():
        raise TimeError(f"negative or NaN time difference: {t.min()}")
    w = grid.bin_width
    last = grid.n_bins
    past = t >= last * w
    j = np.where(past, last, np.floor(t / w))
    lo = j * w
    one = past | (t == lo)
    j = j.astype(np.int64)
    return (j, np.where(one, j, j + 1),
            np.where(one, 1.0, (lo + w - t) / w), np.where(one, 0.0, (t - lo) / w))


def interp_stack(grid, t_d):
    """T(t_d) for each time difference in an array of shape s as an
    s + (d, d) stack, with the (lo, hi, w_lo, w_hi) split of interp_weights;
    a matrix on a single boundary is that boundary matrix exactly."""
    split = lo, hi, w_lo, w_hi = interp_weights(grid, t_d)
    mats = grid.boundary_mats
    stack = mats[lo]
    two = lo != hi
    blend = stack[two]  # blended in place: the stacks are the forward's largest arrays
    blend *= w_lo[two][:, None, None]
    upper = mats[hi[two]]
    upper *= w_hi[two][:, None, None]
    blend += upper
    stack[two] = blend
    return stack, split


def interp_matrix(grid, t_d):
    """Time-specific transition matrix for time difference t_d (seconds)."""
    return interp_stack(grid, [t_d])[0][0]

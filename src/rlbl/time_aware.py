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

    @property
    def d(self):
        return self.boundary_mats.shape[1]


@dataclass
class TaRlblParams:
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
        """The stack that window() indices address: the boundary matrices."""
        return self.grid.boundary_mats

    def window(self, seq, p, i):
        """T(t_d) for the gap between layer p's event and the one i before
        it, with the boundary matrices and weights it blends."""
        ts = seq.timestamps
        return _blend(self.grid, max(int(ts[p - 1]) - int(ts[p - 1 - i]), 0))

    @property
    def d(self):
        return self.W.shape[0]

    @property
    def n_users(self):
        return self.user_vecs.shape[0]

    @property
    def n_items(self):
        return self.item_vecs.shape[0]

    @property
    def n_behaviors(self):
        return self.M.shape[0]


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
    """Indices and weights of the boundary matrices blending at t_d.

    Returns (lo, hi, w_lo, w_hi). At an exact boundary (and beyond the last
    one) the full weight sits on a single matrix.
    """
    if t_d < 0:
        raise TimeError(f"negative time difference: {t_d}")
    w = grid.bin_width
    last = grid.n_bins
    if t_d >= last * w:
        return last, last, 1.0, 0.0
    j = int(np.floor(t_d / w))
    lo = j * w
    if t_d == lo:
        return j, j, 1.0, 0.0
    hi = lo + w
    return j, j + 1, (hi - t_d) / w, (t_d - lo) / w


def _blend(grid, t_d):
    """T(t_d) plus the (boundary index, weight) pairs it blends; at a single
    boundary the matrix is a view into the grid."""
    lo, hi, w_lo, w_hi = interp_weights(grid, t_d)
    mats = grid.boundary_mats
    if lo == hi:
        return mats[lo], ((lo, 1.0),)
    return w_lo * mats[lo] + w_hi * mats[hi], ((lo, w_lo), (hi, w_hi))


def interp_matrix(grid, t_d):
    """Time-specific transition matrix for time difference t_d (seconds)."""
    return np.array(_blend(grid, t_d)[0])

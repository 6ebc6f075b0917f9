import numpy as np
import pytest

from rlbl.model import hidden_at, hidden_chain
from rlbl.time_aware import (
    TaRlblParams,
    TimeBinGrid,
    TimeError,
    init_ta_rlbl_params,
    interp_matrix,
)
from tests.test_model import make_seq

HOUR = 3600.0


def random_grid(n_bins=4, d=3, bin_width=HOUR, seed=0):
    rng = np.random.default_rng(seed)
    return TimeBinGrid(bin_width=bin_width,
                       boundary_mats=rng.normal(size=(n_bins + 1, d, d)))


def random_ta_params(n_users=3, n_items=10, n_behaviors=3, d=4, n=3, n_bins=6, seed=0):
    rng = np.random.default_rng(seed)
    return TaRlblParams(
        user_vecs=rng.normal(size=(n_users, d)),
        item_vecs=rng.normal(size=(n_items, d)),
        W=rng.normal(size=(d, d)) * 0.4,
        grid=TimeBinGrid(bin_width=HOUR,
                         boundary_mats=rng.normal(size=(n_bins + 1, d, d)) * 0.4),
        M=rng.normal(size=(n_behaviors, d, d)) * 0.4,
        u0=rng.normal(size=d),
        n=n,
    )


def test_worked_interpolation_example():
    # 1.6h on a 1-hour grid blends 0.4 of the 1h matrix with 0.6 of the 2h one
    grid = random_grid()
    got = interp_matrix(grid, 1.6 * HOUR)
    expected = 0.4 * grid.boundary_mats[1] + 0.6 * grid.boundary_mats[2]
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_boundary_returns_boundary_matrix_exactly():
    grid = random_grid()
    for j in range(grid.n_bins + 1):
        assert np.array_equal(interp_matrix(grid, j * HOUR), grid.boundary_mats[j])


def test_midpoint_is_elementwise_mean():
    grid = random_grid(seed=1)
    got = interp_matrix(grid, 2.5 * HOUR)
    assert np.allclose(got, 0.5 * (grid.boundary_mats[2] + grid.boundary_mats[3]), atol=1e-12)


def test_clamps_beyond_grid():
    grid = random_grid(n_bins=3)
    assert np.array_equal(interp_matrix(grid, 100 * HOUR), grid.boundary_mats[-1])


def test_negative_difference_rejected():
    with pytest.raises(TimeError):
        interp_matrix(random_grid(), -1.0)


def test_continuity_at_boundaries():
    grid = random_grid(seed=2)
    for j in range(1, grid.n_bins):
        at = interp_matrix(grid, j * HOUR)
        left = interp_matrix(grid, j * HOUR - 1.0)
        right = interp_matrix(grid, j * HOUR + 1.0)
        assert np.max(np.abs(left - at)) <= 1e-3  # 1s step on an hour grid
        assert np.max(np.abs(right - at)) <= 1e-3
        lam = 1.0 / HOUR
        expect_left = lam * grid.boundary_mats[j - 1] + (1 - lam) * grid.boundary_mats[j]
        assert np.allclose(left, expect_left, atol=1e-9)


def test_linear_within_bin():
    grid = random_grid(seed=3)
    for lam in (0.0, 0.25, 0.5, 0.9, 1.0):
        t = (1.0 + lam) * HOUR
        expected = (1 - lam) * grid.boundary_mats[1] + lam * grid.boundary_mats[2]
        assert np.allclose(interp_matrix(grid, t), expected, atol=1e-12)


def test_slopes_differ_across_bins():
    # with distinct boundary matrices the piecewise-linear map is globally nonlinear
    d = 2
    mats = np.stack([np.eye(d) * s for s in (0.0, 1.0, 5.0)])
    grid = TimeBinGrid(bin_width=HOUR, boundary_mats=mats)
    slope1 = (interp_matrix(grid, HOUR) - interp_matrix(grid, 0.0)) / HOUR
    slope2 = (interp_matrix(grid, 2 * HOUR) - interp_matrix(grid, HOUR)) / HOUR
    assert not np.allclose(slope1, slope2)


def unrolled_reference_ta(params, seq, k):
    if k == 0:
        return params.u0.copy()
    n = params.n
    win = n if k >= n else k
    prev = k - n if k >= n else 0
    h = params.W @ unrolled_reference_ta(params, seq, prev)
    for i in range(win):
        j = k - i
        t_d = max(int(seq.timestamps[k - 1]) - int(seq.timestamps[j - 1]), 0)
        T = interp_matrix(params.grid, t_d)
        v, b = seq.items[j - 1], seq.behaviors[j - 1]
        h = h + T @ (params.M[b] @ params.item_vecs[v])
    return h


def random_ta_seq(params, length, seed=1):
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(600, 7000, size=length))
    return make_seq(rng.integers(params.n_items, size=length),
                    rng.integers(params.n_behaviors, size=length), ts)


def test_hidden_ta_matches_unrolled_reference():
    p = random_ta_params(seed=4)
    seq = random_ta_seq(p, 9, seed=5)
    for k in range(10):
        assert np.allclose(hidden_at(p, seq, k).h,
                           unrolled_reference_ta(p, seq, k), atol=1e-12), k


def test_ta_hidden_chain_equals_hidden_at():
    p = random_ta_params(seed=6)
    seq = random_ta_seq(p, 8, seed=7)
    H = hidden_chain(p, seq, 8)
    for k in range(9):
        assert np.array_equal(H[k], hidden_at(p, seq, k).h)


def test_shared_timestamp_uses_zero_bin_matrix_and_ignores_order():
    p = random_ta_params(n=3, seed=8)
    rng = np.random.default_rng(9)
    items = rng.integers(p.n_items, size=6)
    behaviors = rng.integers(p.n_behaviors, size=6)
    seq = make_seq(items, behaviors, [1000] * 6)
    k = 5
    got = hidden_at(p, seq, k).h
    # direct evaluation with T_0 everywhere
    T0 = p.grid.boundary_mats[0]
    expected = p.W @ (p.W @ p.u0 + sum(
        T0 @ (p.M[behaviors[j - 1]] @ p.item_vecs[items[j - 1]]) for j in (2, 1)))
    for i in range(3):
        j = k - i
        expected = expected + T0 @ (p.M[behaviors[j - 1]] @ p.item_vecs[items[j - 1]])
    assert np.allclose(got, expected, atol=1e-12)
    # window contributions commute: permuting the window items leaves h unchanged
    seq2 = make_seq(np.concatenate([items[:2], items[2:5][::-1], items[5:]]),
                    np.concatenate([behaviors[:2], behaviors[2:5][::-1], behaviors[5:]]),
                    [1000] * 6)
    assert np.allclose(hidden_at(p, seq2, k).h, got, atol=1e-12)


def test_equal_boundary_matrices_reduce_to_rlbl():
    from rlbl.model import RlblParams

    p = random_ta_params(seed=10)
    A = p.grid.boundary_mats[0].copy()
    p.grid.boundary_mats[:] = A
    seq = random_ta_seq(p, 7, seed=11)
    rl = RlblParams(p.user_vecs, p.item_vecs, p.W,
                    np.stack([A] * p.n), p.M, p.u0)
    for k in range(8):
        assert np.allclose(hidden_at(p, seq, k).h, hidden_at(rl, seq, k).h, atol=1e-12)


def test_time_shift_invariance_is_bit_exact():
    p = random_ta_params(seed=12)
    seq = random_ta_seq(p, 9, seed=13)
    shifted = make_seq(seq.items, seq.behaviors, seq.timestamps + 123456789)
    for k in range(10):
        assert np.array_equal(hidden_at(p, seq, k).h, hidden_at(p, shifted, k).h)


def test_init_ta_params_seeded():
    a = init_ta_rlbl_params(3, 5, 2, d=4, n=2, seed=1)
    b = init_ta_rlbl_params(3, 5, 2, d=4, n=2, seed=1)
    assert np.array_equal(a.grid.boundary_mats, b.grid.boundary_mats)
    assert a.n == 2 and a.grid.n_bins == 24

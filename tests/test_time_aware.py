import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlbl.model import hidden_at, hidden_chain
from rlbl.time_aware import (
    TimeBinGrid,
    TimeError,
    init_ta_rlbl_params,
    interp_matrix,
)
from tests.test_model import make_seq, random_ta_params

HOUR = 3600.0


def random_grid(n_bins=4, d=3, bin_width=HOUR, seed=0):
    rng = np.random.default_rng(seed)
    return TimeBinGrid(bin_width=bin_width,
                       boundary_mats=rng.normal(size=(n_bins + 1, d, d)))


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


def test_boundary_is_the_matrix_itself_not_a_weight_one_blend():
    # 1 * inf + 0 * inf would be NaN
    grid = random_grid(n_bins=3)
    grid.boundary_mats[1, 0, 0] = np.inf
    grid.boundary_mats[3, 1, 1] = -np.inf
    assert np.array_equal(interp_matrix(grid, HOUR), grid.boundary_mats[1])
    assert np.array_equal(interp_matrix(grid, 10 * HOUR), grid.boundary_mats[3])


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
    with pytest.raises(TimeError):
        interp_matrix(random_grid(), np.nan)


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


# ---------------------------------------------------------------------------
# properties over drawn window widths, sizes, lengths and timestamps


@st.composite
def ta_case(draw):
    """(TA-RLBL params, sequence) with gaps that hit bin boundaries, ties and
    gaps past the grid; the drawn seed fills the tensors."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 6))
    length = draw(st.integers(0, 20))
    bin_width = draw(st.sampled_from([1.0, 60.0, 900.0, HOUR]))
    gaps = draw(st.lists(st.integers(0, 8).map(lambda q: q * int(bin_width) // 2)
                         | st.integers(0, 10 * int(bin_width)), min_size=length, max_size=length))
    start = draw(st.integers(-10**9, 10**9))
    params = random_ta_params(d=d, n=n, n_bins=draw(st.integers(1, 6)),
                              seed=draw(st.integers(0, 2**32 - 1)))
    params.grid.bin_width = bin_width
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seq = make_seq(rng.integers(params.n_items, size=length),
                   rng.integers(params.n_behaviors, size=length),
                   start + np.cumsum(np.array(gaps, dtype=np.int64)))
    return params, seq


@settings(deadline=None, max_examples=200)
@given(ta_case(), st.integers(-10**12, 10**12))
def test_time_shift_leaves_ta_hidden_chain_bit_identical(case, shift):
    params, seq = case
    shifted = make_seq(seq.items, seq.behaviors, seq.timestamps + shift)
    assert np.array_equal(hidden_chain(params, seq, len(seq)),
                          hidden_chain(params, shifted, len(seq)))


@settings(deadline=None, max_examples=200)
@given(ta_case())
def test_constant_grid_ta_equals_rlbl(case):
    from rlbl.model import RlblParams

    params, seq = case
    A = params.grid.boundary_mats[0].copy()
    params.grid.boundary_mats[:] = A
    rl = RlblParams(params.user_vecs, params.item_vecs, params.W,
                    np.stack([A] * params.n), params.M, params.u0)
    assert np.allclose(hidden_chain(params, seq, len(seq)),
                       hidden_chain(rl, seq, len(seq)), rtol=1e-9, atol=1e-12)

import numpy as np
import pytest

from rlbl.data import UserSequence
from rlbl.model import (
    _BLOCK_LAYERS,
    PositionError,
    RlblParams,
    hidden_at,
    hidden_chain,
    hidden_path,
    init_rlbl_params,
    score,
    score_all_items,
)
from rlbl.time_aware import TaRlblParams, TimeBinGrid, interp_matrix


def make_seq(items, behaviors=None, timestamps=None, user_id=0):
    m = len(items)
    return UserSequence(
        user_id,
        np.asarray(items, dtype=np.int64),
        np.asarray(behaviors if behaviors is not None else [0] * m, dtype=np.int64),
        np.asarray(timestamps if timestamps is not None else range(m), dtype=np.int64),
    )


def random_params(n_users=3, n_items=10, n_behaviors=3, d=4, n=3, seed=0):
    rng = np.random.default_rng(seed)
    return RlblParams(
        user_vecs=rng.normal(size=(n_users, d)),
        item_vecs=rng.normal(size=(n_items, d)),
        W=rng.normal(size=(d, d)) * 0.4,
        C=rng.normal(size=(n, d, d)) * 0.4,
        M=rng.normal(size=(n_behaviors, d, d)) * 0.4,
        u0=rng.normal(size=d),
    )


def random_seq(params, length, seed=1):
    rng = np.random.default_rng(seed)
    return make_seq(
        rng.integers(params.n_items, size=length),
        rng.integers(params.n_behaviors, size=length),
    )


def unrolled_reference(params, seq, k):
    """Independent recursive evaluation of the windowed recurrence."""
    if k == 0:
        return params.u0.copy()
    n = params.n
    win = n if k >= n else k
    prev = k - n if k >= n else 0
    h = params.W @ unrolled_reference(params, seq, prev)
    for i in range(win):
        j = k - i
        v, b = seq.items[j - 1], seq.behaviors[j - 1]
        h = h + params.C[i] @ (params.M[b] @ params.item_vecs[v])
    return h


def test_all_zero_params_give_zero_state():
    p = random_params()
    for arr in (p.user_vecs, p.item_vecs, p.W, p.C, p.M, p.u0):
        arr[...] = 0.0
    seq = random_seq(p, 8)
    for k in range(1, 9):
        assert np.array_equal(hidden_at(p, seq, k).h, np.zeros(p.d))


def test_hidden_matches_unrolled_reference():
    p = random_params(n=3, seed=5)
    seq = random_seq(p, 9, seed=6)
    for k in range(10):
        got = hidden_at(p, seq, k).h
        ref = unrolled_reference(p, seq, k)
        assert np.allclose(got, ref, atol=1e-12), k


def test_hidden_chain_equals_hidden_at():
    p = random_params(n=2, seed=7)
    seq = random_seq(p, 11, seed=8)
    H = hidden_chain(p, seq, 11)
    for k in range(12):
        assert np.array_equal(H[k], hidden_at(p, seq, k).h)


def test_n1_identity_behavior_reduces_to_linear_rnn():
    # h_k = W h_{k-1} + C_0 r_{v_k}, bit-identical to the direct recursion
    p = random_params(n=1, seed=9)
    p.M[...] = np.eye(p.d)
    seq = random_seq(p, 12, seed=10)
    h = p.u0
    for k in range(1, 13):
        h = p.W @ h + p.C[0] @ p.item_vecs[seq.items[k - 1]]
        assert np.array_equal(hidden_at(p, seq, k).h, h)


def test_zero_w_short_position_is_windowed_sum():
    # with W = 0 and k <= n the state is the plain windowed combination
    p = random_params(n=5, seed=11)
    p.W[...] = 0.0
    seq = random_seq(p, 5, seed=12)
    for k in range(1, 5):
        expected = np.zeros(p.d)
        for i in range(k):
            j = k - i
            v, b = seq.items[j - 1], seq.behaviors[j - 1]
            expected += p.C[i] @ (p.M[b] @ p.item_vecs[v])
        assert np.allclose(hidden_at(p, seq, k).h, expected, atol=1e-12)


def test_state_ignores_future_events():
    p = random_params(seed=13)
    seq = random_seq(p, 10, seed=14)
    k = 6
    before = hidden_at(p, seq, k).h
    seq.items[k:] = (seq.items[k:] + 1) % p.n_items
    seq.behaviors[k:] = (seq.behaviors[k:] + 1) % p.n_behaviors
    assert np.array_equal(hidden_at(p, seq, k).h, before)


def test_position_out_of_range():
    p = random_params()
    seq = random_seq(p, 4)
    with pytest.raises(PositionError):
        hidden_at(p, seq, 5)
    with pytest.raises(PositionError):
        hidden_at(p, seq, -1)


def test_score_zero_when_state_cancels_user_vec():
    p = random_params(seed=15)
    h = -p.user_vecs[1]
    for v in range(p.n_items):
        assert score(p, h, 1, 0, v) == pytest.approx(0.0, abs=1e-12)


def test_score_identity_basis():
    p = random_params(seed=16)
    p.M[0] = np.eye(p.d)
    p.user_vecs[0] = 0.0
    p.item_vecs[0] = np.eye(p.d)[0]
    h = np.eye(p.d)[0]
    assert score(p, h, 0, 0, 0) == pytest.approx(1.0)


def test_score_matches_triple_loop():
    p = random_params(seed=17)
    rng = np.random.default_rng(18)
    h = rng.normal(size=p.d)
    s = h + p.user_vecs[2]
    ref = 0.0
    for a in range(p.d):
        for b in range(p.d):
            ref += s[a] * p.M[1][a, b] * p.item_vecs[4][b]
    assert score(p, h, 2, 1, 4) == pytest.approx(ref, rel=1e-12)


def test_score_is_bilinear_in_state():
    p = random_params(seed=19)
    p.user_vecs[0] = 0.0
    rng = np.random.default_rng(20)
    h = rng.normal(size=p.d)
    base = score(p, h, 0, 1, 3)
    assert score(p, 2.5 * h, 0, 1, 3) == pytest.approx(2.5 * base, rel=1e-10)


def test_score_all_items_agrees_with_score():
    p = random_params(seed=21)
    rng = np.random.default_rng(22)
    h = rng.normal(size=p.d)
    scores = score_all_items(p, h, 1, 2)
    for v in range(p.n_items):
        assert scores[v] == pytest.approx(score(p, h, 1, 2, v), abs=1e-12)


def test_score_all_items_constant_when_items_equal():
    p = random_params(seed=23)
    p.item_vecs[:] = p.item_vecs[0]
    h = np.ones(p.d)
    scores = score_all_items(p, h, 0, 0)
    assert np.allclose(scores, scores[0], atol=1e-12)


def test_init_is_seeded_and_reproducible():
    a = init_rlbl_params(4, 7, 2, d=6, n=3, seed=42)
    b = init_rlbl_params(4, 7, 2, d=6, n=3, seed=42)
    for x, y in ((a.user_vecs, b.user_vecs), (a.W, b.W), (a.C, b.C)):
        assert np.array_equal(x, y)
    c = init_rlbl_params(4, 7, 2, d=6, n=3, seed=43)
    assert not np.array_equal(a.W, c.W)


# ---------------------------------------------------------------------------
# the batched forward against a per-position reference

HOUR = 3600.0


def reference_window(params, seq, p, i):
    """Matrix for window offset i at layer p, one at a time: C_i, or the
    interpolated boundary matrices for the gap to the newest window event."""
    if isinstance(params, RlblParams):
        return params.C[i]
    grid, ts = params.grid, seq.timestamps
    t_d = max(int(ts[p - 1]) - int(ts[p - 1 - i]), 0)
    w, last, mats = grid.bin_width, grid.n_bins, grid.boundary_mats
    if t_d >= last * w:
        return mats[last]
    j = int(np.floor(t_d / w))
    lo = j * w
    if t_d == lo:
        return mats[j]
    return (lo + w - t_d) / w * mats[j] + (t_d - lo) / w * mats[j + 1]


def reference_layer(params, seq, p, prev):
    """h_p = W prev, then each window term in offset order."""
    acc = params.W @ prev
    for i in range(min(params.n, p)):
        j = p - i
        z = params.M[seq.behaviors[j - 1]] @ params.item_vecs[seq.items[j - 1]]
        acc += reference_window(params, seq, p, i) @ z
    return acc


def reference_chain(params, seq, upto):
    n = params.n
    H = [params.u0]
    for k in range(1, upto + 1):
        H.append(reference_layer(params, seq, k, H[k - n] if k >= n else H[0]))
    return np.array(H)


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


def quarter_hour_seq(params, length, seed):
    """Gaps in quarter hours from 0 to 6 h, so that window gaps land on bin
    boundaries, inside bins, on equal timestamps and past a 4-hour grid."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(rng.integers(0, 25, size=length) * 900)
    return make_seq(rng.integers(params.n_items, size=length),
                    rng.integers(params.n_behaviors, size=length), ts)


def assert_forward_matches_reference(params, seq):
    length = len(seq)
    H = hidden_chain(params, seq, length)
    assert H.shape == (length + 1, params.d)
    assert np.array_equal(H, reference_chain(params, seq, length))
    for k in range(length + 1):
        positions, states = hidden_path(params, seq, k)[:2]
        assert positions == list(range(k, 0, -params.n)) + [0]
        assert len(states) == len(positions)
        for p, h in zip(positions, states):
            assert np.array_equal(h, H[p]), (k, p)


@pytest.mark.parametrize("kind", ["rlbl", "ta-rlbl"])
@pytest.mark.parametrize("n", range(1, 7))
def test_batched_forward_is_bit_identical_to_per_position_loop(kind, n):
    # every length from 0 to 3n+2: k < n, k = n and k a multiple of n included;
    # and one past two of hidden_chain's blocks, whose last row is padded
    for length in [*range(3 * n + 3), 2 * _BLOCK_LAYERS + n + 1]:
        seed = 100 * n + length
        if kind == "rlbl":
            params = random_params(d=5, n=n, seed=seed)
            seq = random_seq(params, length, seed=seed + 1)
        else:
            params = random_ta_params(d=5, n=n, n_bins=4, seed=seed)
            seq = quarter_hour_seq(params, length, seed=seed + 1)
        assert_forward_matches_reference(params, seq)


@pytest.mark.parametrize("n", [1, 6])
def test_hidden_chain_asks_the_provider_for_bounded_stacks(monkeypatch, n):
    # a long TA-RLBL sequence: one stack per offset would hold 2,000 matrices
    params = random_ta_params(d=3, n=n, n_bins=4, seed=40 + n)
    seq = quarter_hour_seq(params, 2000, seed=41)
    sizes, windows = [], params.windows

    def counted(seq, layers, i):
        sizes.append(np.broadcast(layers, i).size)
        return windows(seq, layers, i)

    monkeypatch.setattr(params, "windows", counted)
    hidden_chain(params, seq, len(seq))
    assert sum(sizes) >= len(seq) * n - n * n  # every (position, offset) pair is asked for
    assert max(sizes) <= _BLOCK_LAYERS * n


@pytest.mark.parametrize("kind", ["rlbl", "ta-rlbl"])
@pytest.mark.parametrize("n, upto", [(1, 7), (3, 1), (5, 0), (6, 2), (6, 40), (9, 9), (50, 10),
                                     (500, 100)])
def test_hidden_chain_work_is_bounded_by_the_prefix(monkeypatch, kind, n, upto):
    # a window wider than the prefix does not widen the rows: the provider is
    # asked for at most 2 x upto x min(n, upto) matrices, whatever n is
    if kind == "rlbl":
        params = random_params(d=2, n=n, seed=50 + n)
        seq = random_seq(params, upto + 3, seed=51)
    else:
        params = random_ta_params(d=2, n=n, n_bins=4, seed=50 + n)
        seq = quarter_hour_seq(params, upto + 3, seed=51)
    sizes, windows = [], params.windows

    def counted(seq, layers, i):
        sizes.append(np.broadcast(layers, i).size)
        return windows(seq, layers, i)

    monkeypatch.setattr(params, "windows", counted)
    H = hidden_chain(params, seq, upto)
    assert H.shape == (upto + 1, 2)
    assert sum(sizes) <= 2 * upto * min(n, upto)


@pytest.mark.parametrize("n", [1, 9, 12])
def test_forward_in_one_dimension_adds_in_order(n):
    # d = 1 makes each layer's terms a column of single numbers, which
    # np.add.reduce would sum pairwise once there are more than eight
    for length in (n - 1, 3 * n + 2):
        params = random_params(d=1, n=n, seed=300 + n + length)
        params.item_vecs *= 10.0 ** np.arange(-6, 6)[np.arange(params.n_items) % 12, None]
        assert_forward_matches_reference(params, random_seq(params, length, seed=n + length))


# window gaps (n = 4) on a 4-bin hourly grid: 1 h and 4 h (boundaries, the
# second the last one), 1.5 h (mid-bin), 16000 s (past the grid), 0 (equal
# timestamps) and an event older than the one before it (clamps to 0)
EDGE_TIMES = [0, 3600, 5400, 5400, 4000, 20000, 21600, 21600, 23400, 36000]


def test_ta_forward_on_boundary_mid_bin_past_grid_tied_and_unordered_gaps():
    params = random_ta_params(n=4, n_bins=4, seed=31)
    rng = np.random.default_rng(32)
    m = len(EDGE_TIMES)
    seq = make_seq(rng.integers(params.n_items, size=m),
                   rng.integers(params.n_behaviors, size=m), EDGE_TIMES)
    assert_forward_matches_reference(params, seq)


def test_ta_window_stack_rows_are_interp_matrix():
    params = random_ta_params(n=4, n_bins=4, seed=33)
    seq = make_seq(range(len(EDGE_TIMES)), timestamps=EDGE_TIMES)
    mats = params.grid.boundary_mats
    seen = set()
    for i in range(params.n):
        layers = np.arange(i + 1, len(seq) + 1)
        stack, (lo, hi, w_lo, w_hi) = params.windows(seq, layers, i)
        assert stack.shape == (len(layers), params.d, params.d)
        for r, p in enumerate(layers):
            t_d = max(EDGE_TIMES[p - 1] - EDGE_TIMES[p - 1 - i], 0)
            seen.add(t_d)
            assert np.array_equal(stack[r], interp_matrix(params.grid, t_d))
            assert np.array_equal(stack[r], reference_window(params, seq, p, i))
            # one matrix on a boundary (the last one covers the rest)
            assert (lo[r] == hi[r]) == (t_d % 3600 == 0 or t_d >= 4 * 3600)
            if lo[r] == hi[r]:
                assert (w_lo[r], w_hi[r]) == (1.0, 0.0)
                assert np.array_equal(stack[r], mats[lo[r]])
            else:
                assert hi[r] == lo[r] + 1 and w_lo[r] + w_hi[r] == pytest.approx(1.0)
    assert {0, 3600, 5400, 14400, 16000} <= seen


@pytest.mark.parametrize("kind", ["rlbl", "ta-rlbl"])
def test_window_table_rows_are_the_per_offset_windows(kind):
    if kind == "rlbl":
        params = random_params(n=4, seed=36)
    else:
        params = random_ta_params(n=4, n_bins=4, seed=36)
    seq = make_seq(range(len(EDGE_TIMES)), timestamps=EDGE_TIMES)
    layers = np.arange(len(seq), 0, -1)  # layers 1-3 include pairs that reach back past event 1
    stack, split = params.windows(seq, layers[:, None], np.arange(params.n))
    assert stack.shape == (len(layers), params.n, params.d, params.d)
    for i in range(params.n):
        row_stack, row_split = params.windows(seq, layers, i)
        assert stack[:, i].tobytes() == row_stack.tobytes()
        for a, b in zip(split, row_split):
            assert a.shape == stack.shape[:2] and a.dtype == b.dtype
            assert a[:, i].tobytes() == b.tobytes()


def test_rlbl_window_stack_is_c_i_with_unit_weight():
    params = random_params(n=3, seed=34)
    seq = random_seq(params, 7, seed=35)
    layers = np.arange(3, 8)
    stack, (lo, hi, w_lo, w_hi) = params.windows(seq, layers, 2)
    assert stack.shape == (5, params.d, params.d)
    assert all(np.array_equal(a, params.C[2]) for a in stack)
    assert list(lo) == list(hi) == [2] * 5
    assert list(w_lo) == [1.0] * 5 and list(w_hi) == [0.0] * 5

"""RLBL parameters and forward computation.

The hidden state at (1-based) sequence position k aggregates a window of
the n most recent items, each transformed by a behavior-specific matrix
M_b and a position-specific matrix C_i (C_0 for the most recent item),
on top of the previous hidden state propagated through the recurrence
matrix W:

    h_k = W h_{k-n} + sum_{i=0}^{n-1} C_i M_{b_{k-i}} r_{v_{k-i}}    (k >= n)
    h_k = W u0      + sum_{i=0}^{k-1} C_i M_{b_{k-i}} r_{v_{k-i}}    (k < n)

with h_0 = u0 shared by all users (cold start). The recursion is anchored
at the prediction position: h_k refers to h_{k-n}, h_{k-2n}, ... down to
the first position below n. Scoring is the inner product
(h_k + u_u)^T M_b r_v.

The forward pass and scoring here serve both model kinds. A parameter
class differs from the other only in its window-matrix provider:
``windows(seq, layers, i)`` broadcasts layer positions against window
offsets i and gives each pair's matrix in a (..., d, d) stack, with the
(lo, hi, w_lo, w_hi) arrays of the ``trans`` entries each matrix's
gradient splits over (``trans`` is C here, the boundary matrices for TA-RLBL).

The forward computes M_b r_v once per event. One builder, _window_terms,
turns a table of layer positions into each layer's window terms with one
provider call; one recurrence, _recur, adds W h_prev and the terms in
offset order, row by row. hidden_path runs them on one anchored chain (the
BPTT sweep reads its stack back); hidden_chain on every position, n lanes
to a row (upto lanes when upto < n). Batched matrix-vector products use
stacked ``np.matmul``, which gives the bits of one ``A @ z`` each (a 2-D
gemm does not).
"""

from dataclasses import dataclass

import numpy as np


class PositionError(IndexError):
    """Raised when a sequence position is out of range."""


class NumericError(FloatingPointError):
    """Raised when a loss or a score is not a finite number."""


class Sizes:
    """Sizes read off the tensors of either parameter class."""

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


@dataclass
class RlblParams(Sizes):
    """All learnable tensors of the RLBL model."""

    user_vecs: np.ndarray  # (n_users, d)
    item_vecs: np.ndarray  # (n_items, d)
    W: np.ndarray          # (d, d) recurrence
    C: np.ndarray          # (n, d, d) position-specific, C[0] = most recent
    M: np.ndarray          # (n_behaviors, d, d) behavior-specific
    u0: np.ndarray         # (d,) cold-start state

    @property
    def n(self):
        return self.C.shape[0]

    @property
    def trans(self):
        """The stack that windows() indices address."""
        return self.C

    def windows(self, seq, layers, i):
        """C_i for ``layers`` broadcast against offsets ``i``, as a (..., d, d)
        view, with its split (lo, hi, w_lo, w_hi): all of the gradient goes to C_i."""
        shape = np.broadcast(layers, i).shape
        lo = np.full(shape, i)
        return (np.broadcast_to(self.C[i], shape + (self.d, self.d)),
                (lo, lo, np.ones(shape), np.zeros(shape)))


@dataclass
class HiddenState:
    h: np.ndarray
    position: int


def init_rlbl_params(n_users, n_items, n_behaviors, d, n, seed=0):
    """Seeded initialization: small uniform vectors, near-identity transitions.

    Identity-centered W/C/M keep early hidden states close to the plain
    windowed sum and avoid vanishing signal at the start of training.
    """
    rng = np.random.default_rng(seed)
    half = 0.1 / np.sqrt(d)
    eye_noise = 0.01
    params = RlblParams(
        user_vecs=rng.uniform(-half, half, size=(n_users, d)),
        item_vecs=rng.uniform(-half, half, size=(n_items, d)),
        W=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(d, d)),
        C=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(n, d, d)),
        M=np.eye(d) + rng.uniform(-eye_noise, eye_noise, size=(n_behaviors, d, d)),
        u0=rng.uniform(-half, half, size=d),
    )
    return params


def _check_position(seq, k):
    if not 0 <= k <= len(seq):
        raise PositionError(f"position {k} outside sequence of length {len(seq)}")


def _matvecs(A, Z):
    """A[j] @ Z[j] for every (broadcast) index j, with the bits of one A @ z each."""
    return np.matmul(A, Z[..., None])[..., 0]


def fold_rows(table):
    """Sum a table's rows top to bottom, with the bits of adding them one at
    a time. np.add.reduce over the outer axis adds row by row onto its
    initial value (-0.0, so that a sum of -0.0s keeps its sign), but sums a
    lone axis pairwise, so a table of single numbers is accumulated instead."""
    if table.size > len(table):
        return np.add.reduce(table, axis=0, initial=-0.0)
    return np.add.accumulate(table, axis=0)[-1]


def prefix_products(params, seq, upto):
    """Z[j] = M_b r_v of the event at 1-based position j+1, for j < upto."""
    return _matvecs(params.M[seq.behaviors[:upto]], params.item_vecs[seq.items[:upto]])


# positions per hidden_chain block, which bounds the window stacks it asks for
_BLOCK_LAYERS = 128


def _window_terms(params, seq, Z, layers):
    """Term table of the int array ``layers`` (rows, lanes...): T[r, 0] is left
    for W h_prev and T[r, 1 + i] holds offset i's window term, shaped (rows,
    1 + offsets, lanes..., d); with it the stack and split of the one
    windows() call. A layer that does not reach back past an offset gets
    -0.0 there (x + -0.0 == x; its Z row wraps)."""
    offsets = np.arange(min(params.n, Z.shape[0]))
    L, i = layers[:, None], offsets[(...,) + (None,) * (layers.ndim - 1)]  # i ahead of the lanes
    stack, split = params.windows(seq, L, i)
    T = np.empty(layers.shape[:1] + (offsets.size + 1,) + layers.shape[1:] + (params.d,))
    T[:, 1:] = np.where((L > i)[..., None], _matvecs(stack, Z[L - i - 1]), -0.0)
    return T, stack, split


def _recur(W, h0, T):
    """States h0 and one per row of T: row[0] takes W times the state before
    it, and the row folds in offset order; lanes recur side by side."""
    states = [h0]
    for row in T:
        np.matmul(W, states[-1], out=row[0])
        states.append(fold_rows(row))
    return states


def hidden_chain(params, seq, upto):
    """Hidden states h_0 .. h_upto as an (upto+1, d) array (h_0 = u0), one row
    of min(n, upto) lanes (consecutive positions) per recurrence step, with
    the window terms built _BLOCK_LAYERS positions at a time. The lanes follow
    the offset axis, as np.add.reduce sums a contiguous axis pairwise (d = 1).
    The last row's padding lanes repeat position upto and are dropped."""
    _check_position(seq, upto)
    lanes = max(1, min(params.n, upto))
    rows = -(-upto // lanes)
    step = max(1, _BLOCK_LAYERS // lanes)  # rows per block
    P = np.minimum(np.arange(1, rows * lanes + 1), upto).reshape(rows, lanes)
    Z, states = prefix_products(params, seq, upto), [params.u0[:, None]]
    for r in range(0, rows, step):
        T = _window_terms(params, seq, Z, P[r:r + step])[0]
        states += _recur(params.W, states[-1], T[..., None])[1:]
    return np.vstack([params.u0, np.reshape(states[1:], (-1, params.d))])[:upto + 1]


def hidden_path(params, seq, k):
    """States along the anchored chain k, k-n, ..., ground.

    Returns (positions, states, (Z, stack, split)): positions descending
    from k to the grounding layer plus a final 0, states aligned with them
    (states[-1] is u0), the prefix_products up to k, and the windows() of
    every (chain layer, window offset) pair: stack[r, i] is the matrix of
    offset i at layer positions[r], and split its gradient split. A pair
    whose layer does not reach back past the offset (only the grounding
    layer can have one) adds nothing. Only the chain is evaluated.
    """
    _check_position(seq, k)
    chain = list(range(k, 0, -params.n))
    Z = prefix_products(params, seq, k)
    T, stack, split = _window_terms(params, seq, Z, np.array(chain, dtype=np.int64))
    states = _recur(params.W, params.u0, T[::-1])  # from the grounding layer up
    return chain + [0], states[::-1], (Z, stack, split)


def hidden_at(params, seq, k):
    """Hidden state at position k, following the anchored chain k, k-n, ..."""
    return HiddenState(h=hidden_path(params, seq, k)[1][0], position=k)


def _state_vec(h):
    return h.h if isinstance(h, HiddenState) else np.asarray(h)


def score(params, h, user_id, behavior_id, item_id):
    """y = (h + u_u)^T M_b r_v."""
    s = _state_vec(h) + params.user_vecs[user_id]
    return float(s @ params.M[behavior_id] @ params.item_vecs[item_id])


def score_rows(params, H, user_id, behaviors):
    """(m, n_items) scores, row j (H[j] + u_u)^T M_{b_j} r_v over all v, each
    row with the bits of V @ (M_b^T (h + u_u)) alone."""
    P = _matvecs(params.M[behaviors].transpose(0, 2, 1), H + params.user_vecs[user_id])
    return np.matmul(params.item_vecs[None], P[:, :, None])[:, :, 0]


def score_all_items(params, h, user_id, behavior_id):
    """Scores for every item under one behavior, as an (n_items,) array."""
    return score_rows(params, _state_vec(h)[None], user_id, [behavior_id])[0]

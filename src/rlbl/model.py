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
``window(seq, p, i)`` gives the matrix for window offset i at layer p
together with the (stack index, weight) pairs its gradient splits over,
and ``trans`` is the stack those indices address (C here, the time-bin
boundary matrices for TA-RLBL).
"""

from dataclasses import dataclass

import numpy as np


class PositionError(IndexError):
    """Raised when a sequence position is out of range."""


class NumericError(FloatingPointError):
    """Raised when a loss or a score is not a finite number."""


@dataclass
class RlblParams:
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
        """The stack that window() indices address."""
        return self.C

    def window(self, seq, p, i):
        """Matrix for window offset i at layer p, with the (trans index,
        weight) pairs its gradient splits over: C_i, whatever the times."""
        return self.C[i], ((i, 1.0),)

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


def _layer(params, seq, p, prev):
    """h_p from the state it recurs on: W prev plus the window terms."""
    acc = params.W @ prev
    n = params.n
    for i in range(n if p >= n else p):
        j = p - i  # 1-based event position
        A, _ = params.window(seq, p, i)
        acc += A @ (params.M[seq.behaviors[j - 1]] @ params.item_vecs[seq.items[j - 1]])
    return acc


def hidden_chain(params, seq, upto):
    """Hidden states h_0 .. h_upto as an (upto+1, d) array (h_0 = u0)."""
    _check_position(seq, upto)
    n = params.n
    H = np.empty((upto + 1, params.d))
    H[0] = params.u0
    for k in range(1, upto + 1):
        H[k] = _layer(params, seq, k, H[k - n] if k >= n else H[0])
    return H


def hidden_path(params, seq, k):
    """States along the anchored chain k, k-n, ..., ground.

    Returns (positions, states): positions descending from k to the
    grounding layer plus a final 0, states aligned with them (states[-1]
    is u0). Only the chain positions are evaluated, not every prefix.
    """
    _check_position(seq, k)
    n = params.n
    chain = []
    p = k
    while p >= 1:
        chain.append(p)
        p = p - n if p >= n else 0
    states = [params.u0]
    for p in reversed(chain):
        states.append(_layer(params, seq, p, states[-1]))
    return chain + [0], states[::-1]


def hidden_at(params, seq, k):
    """Hidden state at position k, following the anchored chain k, k-n, ..."""
    _, states = hidden_path(params, seq, k)
    return HiddenState(h=states[0], position=k)


def _state_vec(h):
    return h.h if isinstance(h, HiddenState) else np.asarray(h)


def score(params, h, user_id, behavior_id, item_id):
    """y = (h + u_u)^T M_b r_v."""
    s = _state_vec(h) + params.user_vecs[user_id]
    return float(s @ params.M[behavior_id] @ params.item_vecs[item_id])


def score_all_items(params, h, user_id, behavior_id):
    """Scores for every item under one behavior, as an (n_items,) array."""
    s = _state_vec(h) + params.user_vecs[user_id]
    proj = params.M[behavior_id].T @ s
    return params.item_vecs @ proj

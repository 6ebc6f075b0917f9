"""BPR pairwise training with backpropagation through the recurrent chain.

A training step takes the group of BPR pairs at one context position k of
a sequence: the positive item v of event k+1 against each sampled negative
v', all scored from the same hidden state h_k. Its objective is the sum of
the pair terms

    J = ln(1 + exp(-(y_pos - y_neg))) + (lambda/2) ||Theta||^2,

where Theta collects the tensors a pair touches (u_u, r_v, r_v', the target
behavior matrix, W, the full transition stack and u0). One function,
:func:`group_gradients`, gives the pair losses and the gradient of the sum:
closed-form at the output layer (:func:`output_gradients`, the one place
that scores the pairs, all negatives as one stacked product, and sums their
lambda norms), then one BPTT sweep down the chain h_k -> h_{k-n} -> ... ->
u0, with the sparse user/item rows as arrays. The SGD step uses it, and
the central finite-difference oracle (:func:`gradient_check`) differences
the pair losses that :func:`output_gradients` returns, the loss the step
reports.

Both model kinds share this module through their window-matrix provider
(see rlbl.model): the "transition stack" is ``params.trans``, and each
window-term gradient splits over the stack entries the forward's window
stacks name (one position matrix for RLBL; the two blending boundary
matrices, with the interpolation weights, for TA-RLBL).
"""

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from rlbl.model import NumericError, fold_rows, hidden_path


class SamplingError(ValueError):
    """Raised when negative sampling is impossible (fewer than 2 items)."""


@dataclass
class TrainConfig:
    lam: float = 0.01
    learning_rate: float = 0.05
    # Inverse-time decay: the step size in epoch e (0-based) is
    # learning_rate / (1 + lr_decay * e). 0 keeps it constant. A decaying
    # step turns the late-training oscillation of constant-step SGD into
    # convergence toward a single point.
    lr_decay: float = 0.0
    negatives_per_positive: int = 1
    epochs: int = 1
    rng_seed: int = 0
    train_behavior_mats: bool = True
    # Per-step gradient clipping: if the global L2 norm of the group's
    # gradient bundle exceeds this, the whole bundle is rescaled to it. The
    # recurrent chain has no nonlinearity to squash activations, so a
    # near-identity W makes gradient magnitude roughly depth-independent and
    # occasional large steps can push the spectral radius past 1, after which
    # states and gradients grow without bound. math.inf never clips.
    clip_norm: float = 5.0

    def __post_init__(self):
        for names, kind, what in (
                (("lam", "learning_rate", "lr_decay", "clip_norm"), numbers.Real, "a real number"),
                (("negatives_per_positive", "epochs"), numbers.Integral, "an integer")):
            for name in names:
                value = getattr(self, name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{name} must be {what}: {value!r}")
        # written so that NaN fails every range check
        if not 0 <= self.lam < math.inf:
            raise ValueError("lam must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0 (use epochs=0 to skip training)")
        if not 0 <= self.lr_decay < math.inf:
            raise ValueError("lr_decay must be finite and >= 0")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be > 0 (math.inf never clips)")


@dataclass(frozen=True)
class TrainingInstance:
    """One BPR pair for the finite-difference oracle: event k+1's item vs a negative."""

    user_id: int
    position: int   # k; the target is the event at 1-based position k+1
    behavior: int   # behavior of the target event
    pos_item: int
    neg_item: int


# np.add.at adds one element at a time, about 5 ns each, with little
# start-up; a table fold starts in about 10 us and then adds about five times
# faster.
_ADD_AT_MAX = 2048
# bptt_backward scatters the window items' terms this many items at a time,
# which bounds the size of its temporary arrays
_BLOCK_ITEMS = 256


def _ordered_add(acc, idx, vals):
    """acc[idx[r]] += vals[r] for r = 0, 1, ... in turn, with the bits of that
    loop.

    np.add.at does exactly that. For larger scatters, each index's terms fill,
    in order, a column of a table under the index's current value, padded
    with -0.0 (x + -0.0 == x for every x), and fold_rows adds the table's
    rows top to bottom: the same sums, vectorised.
    """
    if vals.size <= _ADD_AT_MAX:
        np.add.at(acc, idx, vals)
        return
    keys, col, counts = np.unique(idx, return_inverse=True, return_counts=True)
    row = np.empty(len(col), np.intp)  # 1 + the number of earlier terms of the index
    row[np.argsort(col, kind="stable")] = np.arange(1, len(col) + 1) - np.repeat(
        np.cumsum(counts) - counts, counts)
    table = np.full((counts.max() + 1, len(keys)) + acc.shape[1:], -0.0)
    table[0] = acc[keys]
    table[row, col] = vals
    acc[keys] = fold_rows(table)


def _ordered_sum(idx, rows):
    """(keys, sums) of rows labelled by idx: each index once, in order of its
    first appearance, with its rows added in turn onto -0.0 (so a lone row
    is copied exactly, sign bits included)."""
    keys, first, col = np.unique(idx, return_index=True, return_inverse=True)
    sums = np.full((len(keys),) + rows.shape[1:], -0.0)
    _ordered_add(sums, col, rows)
    order = np.argsort(first)
    return keys[order], sums[order]


@dataclass
class GradientBundle:
    """Gradient accumulators of one group, one per parameter tensor.

    User/item rows are sparse, (indices, stacked rows) with each index once
    in order of its first term (``item_vecs`` lists the terms themselves
    until group_gradients sums them); W, the transition stack (position
    matrices C for RLBL, grid boundary matrices for TA-RLBL), the behavior
    matrices and u0 are dense.
    """

    user_vecs: tuple = None
    item_vecs: tuple = None
    W: np.ndarray = None
    trans: np.ndarray = None
    M: np.ndarray = None
    u0: np.ndarray = None

    @classmethod
    def zeros_like(cls, params):
        rows = np.empty(0, np.intp), np.empty((0, params.d))
        return cls(rows, rows, np.zeros_like(params.W), np.zeros_like(params.trans),
                   np.zeros_like(params.M), np.zeros_like(params.u0))

    def clip(self, max_norm):
        """Rescale the bundle to global L2 norm max_norm if it is larger; return the
        norm before clipping. The squared norms (rows, then dense tensors) are
        added one at a time by a cumulative sum, where np.sum would pair them."""
        sq = [np.sum(G * G, axis=1) for _, G in (self.user_vecs, self.item_vecs)]
        sq.append([np.sum(g * g) for g in (self.W, self.trans, self.M, self.u0)])
        norm = math.sqrt(np.cumsum(np.concatenate(sq))[-1])
        if norm > max_norm:
            self.scale(max_norm / norm)
        return norm

    def scale(self, alpha):
        for arr in (self.user_vecs[1], self.item_vecs[1], self.W, self.trans, self.M, self.u0):
            arr *= alpha
        return self


@dataclass
class EpochReport:
    mean_loss: float
    n_instances: int
    n_skipped: int  # always 0: every step is taken
    mean_step_size: float
    wall_time: float
    # the steps' gradient norms before clipping, and the share of steps
    # clipped; nan for an epoch without steps
    grad_norm_p50: float = math.nan
    grad_norm_max: float = math.nan
    clip_fraction: float = math.nan


def bpr_pair_loss(y_pos, y_neg, reg=0.0):
    """Softplus of the negated margin plus a regularization term, elementwise.

    Numerically stable for any margin: ln(1 + e^{-m}) is computed as
    logaddexp(0, -m).
    """
    return np.logaddexp(0.0, -(y_pos - y_neg)) + reg


def sample_negative(n_items, pos_item, rng, size=None):
    """Uniform draw over all n_items items except pos_item: an int, or an
    array of ``size`` draws (numpy's convention)."""
    if n_items < 2:
        raise SamplingError("need at least 2 items to sample a negative")
    v = rng.integers(n_items - 1, size=size)
    v = v + (v >= pos_item)
    return v if size is not None else int(v)


def output_gradients(params, h_k, seq, k, negs, lam=0.0, shared_scale=1.0):
    """Pair losses and closed-form gradients at the output layer of the group
    at ``seq``'s position k: event k+1 (user, behavior, item) against ``negs``.

    Returns (pair loss array, bundle, dJ/dh_k). (h_k + u_u) M_b, y_pos and
    the shared lambda norms are computed once; the negatives' vectors R go
    through as one stacked product. A pair's loss is its BPR term plus
    (lambda/2) times the squared norms it regularizes: its u_u, r_v and r_v'
    fully, and the densely-shared tensors discounted by ``shared_scale``
    (see sgd_epoch). The u_u, r_v, M_b gradients (with lambda terms) and
    dJ/dh_k (without) are pair sums; the negatives' item rows follow r_v's.
    """
    uid, b, v = seq.user_id, seq.behaviors[k], seq.items[k]
    u, Mb, r_pos = params.user_vecs[uid], params.M[b], params.item_vecs[v]
    R = params.item_vecs[negs]
    s = h_k + u
    proj = s @ Mb
    y_pos = float(proj @ r_pos)
    y_neg = np.matmul(R[:, None], proj[:, None])[:, 0, 0]
    reg = 0.0
    if lam:
        shared = shared_scale * (np.sum(Mb ** 2) + np.sum(params.W ** 2)
                                 + np.sum(params.trans ** 2) + np.sum(params.u0 ** 2))
        reg = 0.5 * lam * (np.sum(u ** 2) + np.sum(r_pos ** 2) + np.sum(R ** 2, axis=1) + shared)
    losses = bpr_pair_loss(y_pos, y_neg, reg)
    sig = expit(-(y_pos - y_neg))  # l/(1+l) with l = exp(-(y_pos - y_neg))
    D = R - r_pos
    d_s = sig[:, None] * np.matmul(Mb, D[:, :, None])[:, :, 0]  # through s = h + u_u
    d_proj = sig[:, None] * (Mb.T @ s)
    g_pos, g_neg = (-d_proj + lam * r_pos, d_proj + lam * R) if lam else (-d_proj, d_proj)
    bundle = GradientBundle.zeros_like(params)
    bundle.user_vecs = np.array([uid]), np.sum(d_s + lam * u, axis=0)[None]
    bundle.item_vecs = (np.concatenate(([v], negs)),
                        np.concatenate((np.sum(g_pos, axis=0)[None], g_neg)))
    bundle.M[b] += np.sum(sig[:, None, None] * (s[:, None] * D[:, None, :])
                          + shared_scale * lam * Mb, axis=0)
    return losses, bundle, np.sum(d_s, axis=0)


def bptt_backward(params, seq, path, dJ_dh, bundle):
    """Propagate dJ/dh_k down the whole chain k, k-n, ..., u0, accumulating
    into bundle.

    ``path`` is the forward pass from hidden_path, whose (layer, offset)
    table of window matrices gives each window term's A and its split, and
    whose prefix products give its M r. With g_t the gradient at chain depth
    t (g_{t+1} = W^T g_t), the window item of offset i at depth t receives
    M^T A^T g_t, the transition matrices g_t (M r)^T (split over the two
    boundary matrices for TA-RLBL), its behavior matrix A^T g_t r^T, and W
    picks up g_t h_{t+1}^T. The chain grounds at u0 with dJ/du0 = W^T g of
    the deepest layer.

    One sweep for all depths: A^T g for every (depth, offset) pair is one
    stacked product, and each accumulator gets one ordered scatter of its
    terms listed depth by depth, offsets in order within a depth (the item
    rows' terms are appended to ``bundle.item_vecs``), so the sums have the
    bits of adding one window item at a time.
    """
    positions, states, (Z, stack, (lo, hi, w_lo, w_hi)) = path
    depth = len(positions) - 1  # the final entry is layer 0
    gs, Wt = [np.array(dJ_dh)], params.W.T
    for _ in range(depth):
        gs.append(Wt @ gs[-1])
    bundle.u0 += gs[-1]
    if not depth:
        return bundle
    G = np.array(gs[:-1])
    _ordered_add(bundle.W[None], np.zeros(depth, np.intp),
                 G[:, :, None] * np.array(states[1:])[:, None, :])
    # the (depth, offset) pairs whose layer reaches back past the offset,
    # depth-major, offsets in order, with their A^T g, trans entries and weights
    layers = np.asarray(positions[:-1])
    t, i = np.nonzero(layers[:, None] > np.arange(stack.shape[1]))
    js = layers[t] - i - 1  # the window events, 0-based
    Atg = np.matmul(stack.swapaxes(-1, -2), G[:, None, :, None])[t, i, :, 0]
    ids, wts = np.stack([lo[t, i], hi[t, i]], axis=1), np.stack([w_lo[t, i], w_hi[t, i]], axis=1)
    rows = [bundle.item_vecs[1]]
    for s in range(0, len(t), _BLOCK_ITEMS):  # consecutive blocks keep the order
        blk = slice(s, s + _BLOCK_ITEMS)
        A, j = Atg[blk], js[blk]
        v, b = seq.items[j], seq.behaviors[j]
        rows.append(np.matmul(params.M[b].transpose(0, 2, 1), A[:, :, None])[:, :, 0])
        _ordered_add(bundle.M, b, A[:, :, None] * params.item_vecs[v][:, None, :])
        # each term's lo entry, then its hi entry where the split blends two
        lohi, w = ids[blk], wts[blk]
        r, c = np.nonzero(np.stack([np.ones(len(j), bool), lohi[:, 1] != lohi[:, 0]], axis=1))
        GA = G[t[blk][r]][:, :, None] * Z[j[r]][:, None, :]
        GA *= w[r, c][:, None, None]
        _ordered_add(bundle.trans, lohi[r, c], GA)
    bundle.item_vecs = np.concatenate((bundle.item_vecs[0], seq.items[js])), np.concatenate(rows)
    return bundle


def group_gradients(params, seq, k, negs, cfg, shared_scale=1.0):
    """(per-pair losses, unclipped gradient bundle of their sum) for the BPR
    pairs of the target at 1-based position k+1 of ``seq`` against each
    item of ``negs``: one forward, the output layer of the group, one BPTT
    sweep of the summed dJ/dh_k, one ordered sum of the item-row terms, and
    the W, transition-stack and u0 lambda terms once per pair. A non-finite
    loss raises NumericError."""
    path = hidden_path(params, seq, k)
    losses, bundle, dJ_dh = output_gradients(params, path[1][0], seq, k, negs, lam=cfg.lam,
                                             shared_scale=shared_scale)
    if not np.isfinite(losses).all():
        bad = losses[~np.isfinite(losses)][0]
        raise NumericError(f"non-finite loss {bad} at user {seq.user_id} position {k}")
    bptt_backward(params, seq, path, dJ_dh, bundle)
    bundle.item_vecs = _ordered_sum(*bundle.item_vecs)
    lam = cfg.lam * shared_scale * len(negs)
    if lam:
        bundle.W += lam * params.W
        bundle.trans += lam * params.trans
        bundle.u0 += lam * params.u0
    return losses, bundle


def _train_group(params, seq, k, negs, cfg, shared_scale, eta):
    """One clipped SGD step theta <- theta - eta * g on a group; returns the
    pre-update pair losses and the gradient's norm before clipping."""
    losses, bundle = group_gradients(params, seq, k, negs, cfg, shared_scale)
    norm = bundle.clip(cfg.clip_norm)
    for name in ("user_vecs", "item_vecs"):
        idx, G = getattr(bundle, name)
        getattr(params, name)[idx] -= eta * G
    params.W -= eta * bundle.W
    params.trans[...] -= eta * bundle.trans
    if cfg.train_behavior_mats:
        params.M -= eta * bundle.M
    params.u0 -= eta * bundle.u0
    return losses, norm


def training_positions(corpus, user_id):
    """1-based context positions k with a training target at k+1."""
    return range(1, int(corpus.train_end[user_id]))


def sgd_epoch(params, corpus, cfg, rng, epoch=0):
    """One pass over all training instances, users in shuffled order.

    ``epoch`` (0-based) only feeds the lr_decay schedule.
    """
    eta = cfg.learning_rate / (1.0 + cfg.lr_decay * epoch)
    users = [u for u in range(corpus.n_users) if corpus.train_end[u] >= 2]
    order = [users[i] for i in rng.permutation(len(users))]
    t0 = time.perf_counter()
    # Each step carries 1/N of the L2 penalty on the densely-shared tensors
    # (W, transition stack, behavior matrices, u0), so one epoch of N pairs
    # applies the full lambda once, matching a single global
    # (lambda/2)||Theta||^2 term. The full term on every step would decay
    # them by (1 - eta*lambda)^N per epoch regardless of the data, which
    # flattens the model at corpus scale. Sparsely-touched rows (user and
    # item vectors) always carry their full lambda term, as usual for
    # pairwise ranking trainers.
    n_planned = sum(len(training_positions(corpus, u)) for u in users)
    shared_scale = 1.0 / max(n_planned * cfg.negatives_per_positive, 1)
    losses, norms = [], []
    for u in order:
        seq = corpus.sequences[u]
        for k in training_positions(corpus, u):
            negs = sample_negative(corpus.n_items, seq.items[k], rng,
                                   size=cfg.negatives_per_positive)
            group_losses, norm = _train_group(params, seq, k, negs, cfg, shared_scale, eta)
            losses.extend(group_losses)
            norms.append(norm)
    telemetry = {}
    if norms:
        norms = np.array(norms)
        telemetry = dict(grad_norm_p50=float(np.median(norms)), grad_norm_max=float(norms.max()),
                         clip_fraction=float(np.mean(norms > cfg.clip_norm)))
    return EpochReport(
        mean_loss=float(np.mean(losses)) if losses else 0.0,
        n_instances=len(losses),
        n_skipped=0,
        mean_step_size=eta if losses else 0.0,
        wall_time=time.perf_counter() - t0,
        **telemetry,
    )


def train(params, corpus, cfg, on_epoch=None):
    """Run up to cfg.epochs SGD epochs, all drawing from one rng seeded with
    cfg.rng_seed; on_epoch(epoch_index, report) runs after each, and a true
    return stops the run there. Returns the reports of the epochs that ran."""
    rng = np.random.default_rng(cfg.rng_seed)
    reports = []
    for e in range(cfg.epochs):
        reports.append(sgd_epoch(params, corpus, cfg, rng, epoch=e))
        if on_epoch is not None and on_epoch(e, reports[-1]):
            break
    return reports


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    max_rel_error: dict       # tensor name -> max relative error over checked coords
    tolerance: float
    passed: bool


def _dense(params, bundle, name):
    """(dense gradient of one tensor, its sorted touched rows or None)."""
    if name not in ("user_vecs", "item_vecs"):
        return getattr(bundle, name), None
    idx, G = getattr(bundle, name)
    dense = np.zeros_like(getattr(params, name))
    dense[idx] = G
    return dense, sorted(idx.tolist())


def _check_coords(arr, rows, min_coords, rng):
    """Coordinates to compare: all of the touched rows, or of a small dense
    tensor, or min_coords random ones; padded with random draws up to
    min_coords."""
    if rows is not None:
        coords = [(r, c) for r in rows for c in range(arr.shape[1])]
    elif arr.size <= 2 * min_coords:
        coords = [np.unravel_index(i, arr.shape) for i in range(arr.size)]
    else:
        picks = rng.choice(arr.size, size=min_coords, replace=False)
        coords = [np.unravel_index(int(i), arr.shape) for i in picks]
    target = min(min_coords, arr.size)
    seen = set(coords)
    while len(coords) < target:
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        if idx not in seen:
            coords.append(idx)
            seen.add(idx)
    return coords


def _rel_error(a, f):
    scale = max(abs(a), abs(f))
    return 0.0 if scale < 1e-7 else abs(a - f) / scale


TENSOR_NAMES = ("user_vecs", "item_vecs", "W", "trans", "M", "u0")


def gradient_check(params, seq, k, group, step=1e-5, tolerance=1e-4,
                   cfg=None, rng=None, min_coords=50, analytic_bundle=None):
    """Compare analytic gradients against central finite differences.

    ``group`` is one TrainingInstance or a sequence of them, each naming
    ``seq``'s user, position k and event k+1 (else ValueError); the
    objective is the sum of their pair losses, and the analytic side is
    :func:`group_gradients`, the function the SGD step uses. Perturbs >=
    min_coords coordinates per tensor (all coordinates of the touched
    user/item rows, a subsample of large dense tensors) and reports the max
    relative error per tensor. ``analytic_bundle`` lets tests inject a
    corrupted bundle as a negative control.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    insts = [group] if isinstance(group, TrainingInstance) else list(group)
    pairs = {(i.user_id, i.position, i.behavior, i.pos_item) for i in insts}
    if not 0 <= k < len(seq) or pairs != {(seq.user_id, k, seq.behaviors[k], seq.items[k])}:
        raise ValueError(f"the pairs must predict user {seq.user_id}'s event after position {k}")
    negs = np.array([i.neg_item for i in insts])
    if cfg is None:
        cfg = TrainConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    bundle = analytic_bundle
    if bundle is None:
        bundle = group_gradients(params, seq, k, negs, cfg)[1]

    def objective():
        h = hidden_path(params, seq, k)[1][0]
        return math.fsum(output_gradients(params, h, seq, k, negs, lam=cfg.lam)[0])

    errors = {}
    for name in TENSOR_NAMES:
        arr = getattr(params, name)
        analytic, rows = _dense(params, bundle, name)
        worst = 0.0
        for idx in _check_coords(arr, rows, min_coords, rng):
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = objective()
            arr[idx] = orig - step
            f_minus = objective()
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, _rel_error(analytic[idx], fd))
        errors[name] = worst
    return GradCheckReport(
        max_rel_error=errors,
        tolerance=tolerance,
        passed=all(e <= tolerance for e in errors.values()),
    )

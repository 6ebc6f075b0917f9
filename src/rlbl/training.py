"""BPR pairwise training with backpropagation through the recurrent chain.

The per-instance objective for a positive item v and a sampled negative v'
at target position k+1 is

    J = ln(1 + exp(-(y_pos - y_neg))) + (lambda/2) ||Theta||^2,

where the scores come from the model forward pass and Theta collects the
tensors the instance touches (u_u, r_v, r_v', the target behavior matrix,
W, the full transition stack and optionally u0). Gradients at the output
layer are closed-form; below it they propagate down the chain
h_k -> h_{k-n} -> ... -> u0 (BPTT). A central finite-difference oracle
(:func:`gradient_check`) verifies every analytic tensor.

Both model kinds share this module through their window-matrix provider
(see rlbl.model): the "transition stack" is ``params.trans``, and each
window-term gradient splits over the stack entries ``params.window`` names
(one position matrix for RLBL; the two blending boundary matrices, with
the interpolation weights, for TA-RLBL).
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from rlbl.model import NumericError, hidden_path


class SamplingError(ValueError):
    """Raised when negative sampling is impossible (fewer than 2 items)."""


@dataclass
class TrainConfig:
    lam: float = 0.01
    learning_rate: float = 0.05
    lr_policy: str = "fixed"  # "fixed" | "backtracking"
    # Inverse-time decay: the step size in epoch e (0-based) is
    # learning_rate / (1 + lr_decay * e). 0 keeps it constant. A decaying
    # step turns the late-training oscillation of constant-step SGD into
    # convergence toward a single point.
    lr_decay: float = 0.0
    negatives_per_positive: int = 1
    epochs: int = 1
    rng_seed: int = 0
    bptt_truncation: int | None = None  # max recurrence depth; None = full chain
    regularize_u0: bool = True
    train_behavior_mats: bool = True
    # Per-instance gradient clipping: if the global L2 norm of the gradient
    # bundle exceeds this, the whole bundle is rescaled to it. The recurrent
    # chain has no nonlinearity to squash activations, so a near-identity W
    # makes gradient magnitude roughly depth-independent and occasional large
    # steps can push the spectral radius past 1, after which states and
    # gradients grow without bound. None disables clipping.
    clip_norm: float | None = 5.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0 (use epochs=0 to skip training)")
        if self.lr_decay < 0:
            raise ValueError("lr_decay must be >= 0")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be >= 1")
        if self.lr_policy not in ("fixed", "backtracking"):
            raise ValueError(f"unknown lr_policy {self.lr_policy!r}")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0 or None")


@dataclass(frozen=True)
class TrainingInstance:
    """One BPR pair: predict event k+1, positive item vs sampled negative."""

    user_id: int
    position: int   # k; the target is the event at 1-based position k+1
    behavior: int   # behavior of the target event
    pos_item: int
    neg_item: int


@dataclass
class GradientBundle:
    """Per-instance gradient accumulators, one per parameter tensor.

    User/item rows are kept sparse (dict row -> vector); W, the transition
    stack (position matrices C for RLBL, grid boundary matrices for
    TA-RLBL), the behavior matrices and u0 are dense.
    """

    user_rows: dict = field(default_factory=dict)
    item_rows: dict = field(default_factory=dict)
    W: np.ndarray = None
    trans: np.ndarray = None
    M: np.ndarray = None
    u0: np.ndarray = None

    @classmethod
    def zeros_like(cls, params):
        return cls(
            W=np.zeros_like(params.W),
            trans=np.zeros_like(params.trans),
            M=np.zeros_like(params.M),
            u0=np.zeros_like(params.u0),
        )

    def add_user(self, idx, g):
        idx = int(idx)
        if idx in self.user_rows:
            self.user_rows[idx] = self.user_rows[idx] + g
        else:
            self.user_rows[idx] = np.array(g)

    def add_item(self, idx, g):
        idx = int(idx)
        if idx in self.item_rows:
            self.item_rows[idx] = self.item_rows[idx] + g
        else:
            self.item_rows[idx] = np.array(g)

    def global_norm(self):
        sq = 0.0
        for g in self.user_rows.values():
            sq += float(np.sum(g * g))
        for g in self.item_rows.values():
            sq += float(np.sum(g * g))
        for arr in (self.W, self.trans, self.M, self.u0):
            sq += float(np.sum(arr * arr))
        return math.sqrt(sq)

    def clip(self, max_norm):
        norm = self.global_norm()
        if norm > max_norm:
            self.scale(max_norm / norm)
        return self

    def merge(self, other):
        """Accumulate another bundle into this one."""
        for i, g in other.user_rows.items():
            self.add_user(i, g)
        for i, g in other.item_rows.items():
            self.add_item(i, g)
        self.W += other.W
        self.trans += other.trans
        self.M += other.M
        self.u0 += other.u0
        return self

    def scale(self, alpha):
        for k in self.user_rows:
            self.user_rows[k] = self.user_rows[k] * alpha
        for k in self.item_rows:
            self.item_rows[k] = self.item_rows[k] * alpha
        self.W *= alpha
        self.trans *= alpha
        self.M *= alpha
        self.u0 *= alpha
        return self


@dataclass
class EpochReport:
    mean_loss: float
    n_instances: int
    n_skipped: int
    mean_step_size: float
    wall_time: float


def bpr_pair_loss(y_pos, y_neg, reg=0.0):
    """Softplus of the negated margin plus a regularization term.

    Numerically stable for any margin: ln(1 + e^{-m}) is computed as
    logaddexp(0, -m).
    """
    return float(np.logaddexp(0.0, -(y_pos - y_neg)) + reg)


def sample_negative(n_items, pos_item, rng):
    """Uniform draw over all n_items items except pos_item."""
    if n_items < 2:
        raise SamplingError("need at least 2 items to sample a negative")
    v = int(rng.integers(n_items - 1))
    return v + 1 if v >= pos_item else v


def _scores(params, h, inst):
    s = h + params.user_vecs[inst.user_id]
    proj = s @ params.M[inst.behavior]
    return float(proj @ params.item_vecs[inst.pos_item]), float(proj @ params.item_vecs[inst.neg_item])


def regularization(params, inst, cfg, shared_scale=1.0):
    """(lambda/2) * squared norm of the tensors the instance regularizes.

    ``shared_scale`` discounts the densely-shared tensors (see sgd_epoch);
    the touched user/item rows always count fully.
    """
    lam = cfg.lam
    if lam == 0.0:
        return 0.0
    sq = (
        np.sum(params.user_vecs[inst.user_id] ** 2)
        + np.sum(params.item_vecs[inst.pos_item] ** 2)
        + np.sum(params.item_vecs[inst.neg_item] ** 2)
    )
    shared = (
        np.sum(params.M[inst.behavior] ** 2)
        + np.sum(params.W ** 2)
        + np.sum(params.trans ** 2)
    )
    if cfg.regularize_u0:
        shared += np.sum(params.u0 ** 2)
    return 0.5 * lam * float(sq + shared_scale * shared)


def instance_loss(params, seq, inst, cfg, shared_scale=1.0):
    """Full per-instance objective, recomputing the forward chain."""
    _, states = hidden_path(params, seq, inst.position)
    y_pos, y_neg = _scores(params, states[0], inst)
    return bpr_pair_loss(y_pos, y_neg, regularization(params, inst, cfg, shared_scale))


def output_gradients(params, h_k, inst, lam=0.0, shared_scale=1.0):
    """Closed-form gradients at the output layer.

    Returns (bundle, dJ/dh_k). The bundle carries the u_u, r_v, r_v' and
    M_b gradients including their lambda terms; dJ/dh_k carries none.
    """
    u = params.user_vecs[inst.user_id]
    r_pos = params.item_vecs[inst.pos_item]
    r_neg = params.item_vecs[inst.neg_item]
    Mb = params.M[inst.behavior]
    s = h_k + u
    y_pos, y_neg = _scores(params, h_k, inst)
    sig = float(expit(-(y_pos - y_neg)))  # l/(1+l) with l = exp(-(y_pos - y_neg))

    diff = r_neg - r_pos
    d_s = sig * (Mb @ diff)        # gradient through s = h + u_u
    d_proj = sig * (Mb.T @ s)

    bundle = GradientBundle.zeros_like(params)
    bundle.add_user(inst.user_id, d_s + lam * u)
    bundle.add_item(inst.pos_item, -d_proj)
    bundle.add_item(inst.neg_item, d_proj)
    if lam:
        bundle.add_item(inst.pos_item, lam * r_pos)
        bundle.add_item(inst.neg_item, lam * r_neg)
    bundle.M[inst.behavior] += sig * np.outer(s, diff) + shared_scale * lam * Mb
    return bundle, d_s


def bptt_backward(params, seq, k, dJ_dh, bundle=None, truncation=None, path=None):
    """Propagate dJ/dh_k down the chain k, k-n, ..., accumulating into bundle.

    At each layer the window items receive M^T A^T g, the transition
    matrices g (M r)^T (split over the two boundary matrices for TA-RLBL),
    the window behavior matrices A^T g r^T, and W picks up g h_prev^T.
    The chain grounds at u0 with dJ/du0 = W^T g of the deepest layer.
    ``path`` accepts a precomputed forward pass from hidden_path.
    """
    if bundle is None:
        bundle = GradientBundle.zeros_like(params)
    n = params.n
    if path is None:
        path = hidden_path(params, seq, k)
    positions, states = path
    g = np.array(dJ_dh)
    for depth, p in enumerate(positions[:-1]):  # the final entry is layer 0
        if truncation is not None and depth >= truncation:
            return bundle
        win = n if p >= n else p
        for i in range(win):
            j = p - i
            v = int(seq.items[j - 1])
            b = int(seq.behaviors[j - 1])
            r = params.item_vecs[v]
            Mb = params.M[b]
            A, weights = params.window(seq, p, i)
            Atg = A.T @ g
            bundle.add_item(v, Mb.T @ Atg)
            GA = np.outer(g, Mb @ r)
            for idx, wt in weights:
                bundle.trans[idx] += wt * GA
            bundle.M[b] += np.outer(Atg, r)
        bundle.W += np.outer(g, states[depth + 1])
        g = params.W.T @ g
    bundle.u0 += g
    return bundle


def instance_gradients(params, seq, inst, cfg, shared_scale=1.0, path=None):
    """Full analytic gradient bundle for one instance (output + BPTT + lambda)."""
    if path is None:
        path = hidden_path(params, seq, inst.position)
    h = path[1][0]
    bundle, dJ_dh = output_gradients(params, h, inst, lam=cfg.lam, shared_scale=shared_scale)
    bptt_backward(params, seq, inst.position, dJ_dh, bundle,
                  truncation=cfg.bptt_truncation, path=path)
    lam = cfg.lam * shared_scale
    if lam:
        bundle.W += lam * params.W
        bundle.trans += lam * params.trans
        if cfg.regularize_u0:
            bundle.u0 += lam * params.u0
    return bundle


def _apply_update(params, bundle, eta, cfg):
    """theta <- theta - eta * g; returns an undo record of touched values."""
    undo = {
        "user": {i: params.user_vecs[i].copy() for i in bundle.user_rows},
        "item": {i: params.item_vecs[i].copy() for i in bundle.item_rows},
        "W": params.W.copy(),
        "trans": params.trans.copy(),
        "M": params.M.copy(),
        "u0": params.u0.copy(),
    }
    for i, g in bundle.user_rows.items():
        params.user_vecs[i] -= eta * g
    for i, g in bundle.item_rows.items():
        params.item_vecs[i] -= eta * g
    params.W -= eta * bundle.W
    params.trans[...] -= eta * bundle.trans
    if cfg.train_behavior_mats:
        params.M -= eta * bundle.M
    params.u0 -= eta * bundle.u0
    return undo


def _undo_update(params, undo):
    for i, v in undo["user"].items():
        params.user_vecs[i] = v
    for i, v in undo["item"].items():
        params.item_vecs[i] = v
    params.W[...] = undo["W"]
    params.trans[...] = undo["trans"]
    params.M[...] = undo["M"]
    params.u0[...] = undo["u0"]


_MAX_BACKTRACKS = 8


def _train_group(params, seq, insts, cfg, shared_scale=1.0, eta=None):
    """One SGD step over BPR pairs sharing a context position.

    All pairs condition on the same hidden-state chain, so the forward pass
    runs once and a single BPTT sweep propagates the summed output-layer
    gradient; only the output layer is evaluated per pair. Returns
    (per-pair pre-update losses, effective step or None).
    """
    k = insts[0].position
    path = hidden_path(params, seq, k)
    h = path[1][0]
    losses = []
    bundle = dJ_dh = None
    for inst in insts:
        y_pos, y_neg = _scores(params, h, inst)
        loss = bpr_pair_loss(y_pos, y_neg, regularization(params, inst, cfg, shared_scale))
        if not math.isfinite(loss):
            raise NumericError(
                f"non-finite loss {loss} at user {inst.user_id} position {inst.position}"
            )
        losses.append(loss)
        out, g = output_gradients(params, h, inst, lam=cfg.lam,
                                  shared_scale=shared_scale)
        if bundle is None:
            bundle, dJ_dh = out, g
        else:
            bundle.merge(out)
            dJ_dh = dJ_dh + g
    bptt_backward(params, seq, k, dJ_dh, bundle,
                  truncation=cfg.bptt_truncation, path=path)
    lam = cfg.lam * shared_scale * len(insts)
    if lam:
        bundle.W += lam * params.W
        bundle.trans += lam * params.trans
        if cfg.regularize_u0:
            bundle.u0 += lam * params.u0
    if cfg.clip_norm is not None:
        bundle.clip(cfg.clip_norm)
    if eta is None:
        eta = cfg.learning_rate
    if cfg.lr_policy == "fixed":
        _apply_update(params, bundle, eta, cfg)
        return losses, eta
    # backtracking: halve the step until the summed pair loss stops increasing
    loss0 = math.fsum(losses)
    for _ in range(_MAX_BACKTRACKS + 1):
        undo = _apply_update(params, bundle, eta, cfg)
        after = math.fsum(
            instance_loss(params, seq, i, cfg, shared_scale) for i in insts)
        if after <= loss0:
            return losses, eta
        _undo_update(params, undo)
        eta *= 0.5
    return losses, None  # no acceptable step; update skipped


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
    losses, steps, skipped = [], [], 0
    for u in order:
        seq = corpus.sequences[u]
        for k in training_positions(corpus, u):
            b = int(seq.behaviors[k])
            v = int(seq.items[k])
            insts = [TrainingInstance(u, k, b, v, sample_negative(corpus.n_items, v, rng))
                     for _ in range(cfg.negatives_per_positive)]
            group_losses, step = _train_group(params, seq, insts, cfg, shared_scale, eta=eta)
            losses.extend(group_losses)
            if step is None:
                skipped += len(insts)
            else:
                steps.append(step)
    return EpochReport(
        mean_loss=float(np.mean(losses)) if losses else 0.0,
        n_instances=len(losses),
        n_skipped=skipped,
        mean_step_size=float(np.mean(steps)) if steps else 0.0,
        wall_time=time.perf_counter() - t0,
    )


def train(params, corpus, cfg, rng=None, on_epoch=None):
    """Run cfg.epochs SGD epochs; on_epoch(epoch_index, report) after each."""
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    reports = []
    for e in range(cfg.epochs):
        rep = sgd_epoch(params, corpus, cfg, rng, epoch=e)
        reports.append(rep)
        if on_epoch is not None:
            on_epoch(e, rep)
    return reports


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckReport:
    max_rel_error: dict       # tensor name -> max relative error over checked coords
    tolerance: float
    passed: bool


def _bundle_lookup(params, bundle, name):
    """Dense view of one bundle tensor for coordinate lookup."""
    if name == "user_vecs":
        dense = np.zeros_like(params.user_vecs)
        for i, g in bundle.user_rows.items():
            dense[i] = g
        return dense
    if name == "item_vecs":
        dense = np.zeros_like(params.item_vecs)
        for i, g in bundle.item_rows.items():
            dense[i] = g
        return dense
    return getattr(bundle, name)


def _check_coords(params, bundle, name, seq, inst, min_coords, rng):
    """Coordinates to compare: everything the instance touches, padded with
    random draws up to min_coords."""
    arr = getattr(params, name)
    coords = []
    if name == "user_vecs":
        rows = sorted(bundle.user_rows)
    elif name == "item_vecs":
        rows = sorted(bundle.item_rows)
    else:
        rows = None
    if rows is not None:
        for r in rows:
            coords.extend((r, c) for c in range(arr.shape[1]))
    else:
        flat = arr.size
        if flat <= max(min_coords, 2 * min_coords):
            coords = [np.unravel_index(i, arr.shape) for i in range(flat)]
        else:
            picks = rng.choice(flat, size=min_coords, replace=False)
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
    if scale < 1e-7:
        return 0.0
    return abs(a - f) / scale


TENSOR_NAMES = ("user_vecs", "item_vecs", "W", "trans", "M", "u0")


def gradient_check(params, seq, k, instance, step=1e-5, tolerance=1e-4,
                   cfg=None, rng=None, min_coords=50, analytic_bundle=None):
    """Compare analytic gradients against central finite differences.

    Perturbs >= min_coords coordinates per tensor (all coordinates of the
    touched user/item rows, a subsample of large dense tensors) and reports
    the max relative error per tensor. ``analytic_bundle`` lets tests
    inject a corrupted bundle as a negative control.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    if cfg is None:
        cfg = TrainConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    bundle = analytic_bundle
    if bundle is None:
        bundle = instance_gradients(params, seq, instance, cfg)

    errors = {}
    for name in TENSOR_NAMES:
        arr = getattr(params, name)
        analytic = _bundle_lookup(params, bundle, name)
        worst = 0.0
        for idx in _check_coords(params, bundle, name, seq, instance, min_coords, rng):
            orig = arr[idx]
            arr[idx] = orig + step
            f_plus = instance_loss(params, seq, instance, cfg)
            arr[idx] = orig - step
            f_minus = instance_loss(params, seq, instance, cfg)
            arr[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, _rel_error(analytic[idx], fd))
        errors[name] = worst
    return GradCheckReport(
        max_rel_error=errors,
        tolerance=tolerance,
        passed=all(e <= tolerance for e in errors.values()),
    )

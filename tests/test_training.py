import dataclasses
import math

import numpy as np
import pytest
from scipy.special import expit

from rlbl import training
from rlbl.data import Event, build_corpus
from rlbl.model import hidden_path, init_rlbl_params
from rlbl.time_aware import init_ta_rlbl_params
from rlbl.training import (
    EpochReport,
    GradientBundle,
    NumericError,
    SamplingError,
    TrainConfig,
    TrainingInstance,
    _ADD_AT_MAX,
    _ordered_add,
    _ordered_sum,
    _train_group,
    bptt_backward,
    bpr_pair_loss,
    gradient_check,
    group_gradients,
    output_gradients,
    sample_negative,
    sgd_epoch,
    train,
    training_positions,
)


def tiny_corpus(n_users=4, n_items=12, n_behaviors=3, length=14, seed=0):
    rng = np.random.default_rng(seed)
    events = []
    for u in range(n_users):
        ts = 0
        for _ in range(length):
            ts += int(rng.integers(300, 9000))
            events.append(Event(user=f"u{u}", item=f"i{rng.integers(n_items)}",
                                behavior=int(rng.integers(n_behaviors)), timestamp=ts))
    return build_corpus(events)


def tiny_params(corpus, d=4, n=2, seed=0, ta=False):
    if ta:
        return init_ta_rlbl_params(corpus.n_users, corpus.n_items, corpus.n_behaviors,
                                   d=d, n=n, seed=seed, bin_width=3600.0, n_bins=4)
    return init_rlbl_params(corpus.n_users, corpus.n_items, corpus.n_behaviors,
                            d=d, n=n, seed=seed)


def an_instance(corpus, user=0, k=4):
    seq = corpus.sequences[user]
    return TrainingInstance(user, k, int(seq.behaviors[k]), int(seq.items[k]),
                            (int(seq.items[k]) + 1) % corpus.n_items)


def pair_loss(params, seq, inst, cfg):
    """The objective of one pair, recomputing the forward chain."""
    h = hidden_path(params, seq, inst.position)[1][0]
    (loss,), _, _ = output_gradients(params, h, seq, inst.position, [inst.neg_item], lam=cfg.lam)
    return loss


def gradients(params, seq, inst, cfg):
    """The analytic gradient bundle of a one-pair group."""
    return group_gradients(params, seq, inst.position, [inst.neg_item], cfg)[1]


def row_dict(rows):
    """A bundle's (indices, stacked rows) as a dict, in their order."""
    return dict(zip(rows[0].tolist(), rows[1]))


# --- loss ------------------------------------------------------------------

def test_loss_at_zero_margin_is_ln2():
    assert bpr_pair_loss(0.0, 0.0) == pytest.approx(math.log(2.0), rel=1e-15)
    assert bpr_pair_loss(3.7, 3.7) == pytest.approx(math.log(2.0), rel=1e-15)


def test_loss_tails():
    assert bpr_pair_loss(50.0, 0.0) == pytest.approx(math.exp(-50.0), rel=1e-10)
    assert bpr_pair_loss(0.0, 50.0) == pytest.approx(50.0 + math.exp(-50.0), rel=1e-12)
    # no overflow at extreme margins
    assert bpr_pair_loss(0.0, 1000.0) == pytest.approx(1000.0)
    assert bpr_pair_loss(1000.0, 0.0) == 0.0


def test_loss_depends_only_on_margin():
    for c in (-100.0, -1.0, 0.5, 42.0):
        assert bpr_pair_loss(1.2 + c, 0.3 + c) == pytest.approx(
            bpr_pair_loss(1.2, 0.3), rel=1e-12)


def test_loss_monotone_decreasing_in_margin():
    vals = [bpr_pair_loss(m, 0.0) for m in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_instance_loss_zero_params_is_ln2():
    c = tiny_corpus()
    p = tiny_params(c)
    for arr in (p.user_vecs, p.item_vecs, p.W, p.C, p.M, p.u0):
        arr[...] = 0.0
    cfg = TrainConfig(lam=0.0, learning_rate=0.1)
    inst = an_instance(c)
    assert pair_loss(p, c.sequences[0], inst, cfg) == pytest.approx(math.log(2.0))


def test_regularization_added_to_loss():
    c = tiny_corpus()
    p = tiny_params(c)
    inst = an_instance(c)
    seq = c.sequences[0]
    base = pair_loss(p, seq, inst, TrainConfig(lam=0.0, learning_rate=0.1))
    reg = pair_loss(p, seq, inst, TrainConfig(lam=0.5, learning_rate=0.1))
    assert reg > base


# --- negative sampling -----------------------------------------------------

def test_sample_negative_never_returns_positive():
    c = tiny_corpus()
    rng = np.random.default_rng(1)
    pos = int(c.sequences[0].items[3])
    for _ in range(500):
        assert sample_negative(c.n_items, pos, rng) != pos


def test_sample_negative_uniform_over_remaining():
    c = tiny_corpus(n_items=6, length=30)
    rng = np.random.default_rng(2)
    pos = int(c.sequences[0].items[3])
    n = 30000
    counts = np.zeros(c.n_items)
    for _ in range(n):
        counts[sample_negative(c.n_items, pos, rng)] += 1
    assert counts[pos] == 0
    m = c.n_items - 1
    expect = n / m
    sigma = math.sqrt(n * (1 / m) * (1 - 1 / m))
    others = np.delete(counts, pos)
    assert np.all(np.abs(others - expect) <= 3.0 * sigma)


def test_sample_negative_needs_two_items():
    events = [Event("u", "only", 0, t) for t in range(5)]
    c = build_corpus(events)
    with pytest.raises(SamplingError):
        sample_negative(c.n_items, 0, np.random.default_rng(0))


def test_one_sized_draw_is_that_many_single_draws():
    # sgd_epoch draws a step's negatives in one call; that must give the
    # values and the next generator state of drawing them one at a time
    for n_items in [*range(2, 60), 199, 200, 201, 3706, 2**16, 2**31 + 7, 2**32 + 5]:
        for m in (1, 2, 3, 8, 17):
            pos = (7 * m) % n_items
            one, each = np.random.default_rng(n_items + m), np.random.default_rng(n_items + m)
            got = sample_negative(n_items, pos, one, size=m)
            assert got.tolist() == [sample_negative(n_items, pos, each) for _ in range(m)], \
                (n_items, m)
            assert one.bit_generator.state == each.bit_generator.state, (n_items, m)


# --- gradients vs finite differences ---------------------------------------

@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_gradient_check_passes(ta, lam):
    c = tiny_corpus(seed=3)
    p = tiny_params(c, ta=ta, seed=3)
    cfg = TrainConfig(lam=lam, learning_rate=0.1)
    inst = an_instance(c, user=1, k=6)
    rep = gradient_check(p, c.sequences[1], 6, inst, cfg=cfg)
    assert rep.passed, rep.max_rel_error


def test_gradient_check_short_position():
    # k < n exercises the truncated-window grounding branch
    c = tiny_corpus(seed=4)
    p = tiny_params(c, n=3, seed=4)
    inst = an_instance(c, user=2, k=2)
    rep = gradient_check(p, c.sequences[2], 2, inst, cfg=TrainConfig(lam=0.01, learning_rate=0.1))
    assert rep.passed, rep.max_rel_error


def test_gradient_check_negative_control():
    # a corrupted bundle must fail the finite-difference comparison
    c = tiny_corpus(seed=5)
    p = tiny_params(c, seed=5)
    cfg = TrainConfig(lam=0.01, learning_rate=0.1)
    inst = an_instance(c, user=0, k=5)
    bad = gradients(p, c.sequences[0], inst, cfg).scale(-1.0)
    rep = gradient_check(p, c.sequences[0], 5, inst, cfg=cfg, analytic_bundle=bad)
    assert not rep.passed


@pytest.mark.parametrize("ta", [False, True])
def test_gradient_check_multi_negative_group(ta):
    # three pairs at one position, one negative drawn twice: the summed
    # output-layer rows, the repeated item row and the lambda terms once per
    # pair must all match finite differences of the summed pair losses
    c = tiny_corpus(seed=20)
    p = tiny_params(c, ta=ta, seed=20)
    seq, k = c.sequences[2], 7
    pos = int(seq.items[k])
    negs = [(pos + 1) % c.n_items, (pos + 3) % c.n_items, (pos + 1) % c.n_items]
    group = [TrainingInstance(2, k, int(seq.behaviors[k]), pos, v) for v in negs]
    cfg = TrainConfig(lam=0.01, learning_rate=0.1)
    rep = gradient_check(p, seq, k, group, cfg=cfg)
    assert rep.passed, rep.max_rel_error
    # the group objective is the sum of its pairs, and so is its gradient
    one = [gradients(p, seq, inst, cfg) for inst in group]
    summed = group_gradients(p, seq, k, negs, cfg)[1]
    for name in ("W", "trans", "M", "u0"):
        assert np.allclose(getattr(summed, name), sum(getattr(b, name) for b in one))
    rows, one_rows = row_dict(summed.item_vecs), [row_dict(b.item_vecs) for b in one]
    assert len(rows) == len(summed.item_vecs[0])  # each item once
    assert set(rows) == set().union(*one_rows)
    for v, row in rows.items():
        assert np.allclose(row, sum(r.get(v, 0.0) for r in one_rows))


def test_gradient_check_rejects_a_mixed_group():
    c = tiny_corpus(seed=21)
    p = tiny_params(c, seed=21)
    group = [an_instance(c, user=0, k=5), an_instance(c, user=0, k=6)]
    with pytest.raises(ValueError):
        gradient_check(p, c.sequences[0], 5, group)
    # the group's pairs are scored against one positive item
    one = an_instance(c, user=0, k=5)
    other = TrainingInstance(0, 5, one.behavior, one.neg_item, one.pos_item)
    with pytest.raises(ValueError):
        gradient_check(p, c.sequences[0], 5, [one, other])


def test_gradient_check_rejects_a_group_that_is_not_the_sequences_target():
    # training reads user, behavior and positive item off the sequence at k,
    # so a pair that names others would check a loss training never computes
    c = tiny_corpus(seed=21)
    p = tiny_params(c, seed=21)
    seq, one = c.sequences[0], an_instance(c, user=0, k=5)
    assert gradient_check(p, seq, 5, one).passed
    for wrong in (dict(user_id=1), dict(behavior=(one.behavior + 1) % c.n_behaviors),
                  dict(pos_item=one.neg_item, neg_item=one.pos_item)):
        with pytest.raises(ValueError, match="position 5"):
            gradient_check(p, seq, 5, dataclasses.replace(one, **wrong))
    for k in (-1, len(seq)):  # no event after position k
        with pytest.raises(ValueError):
            gradient_check(p, seq, k, dataclasses.replace(one, position=k))
    with pytest.raises(ValueError):
        gradient_check(p, seq, 5, [])


# --- updates ---------------------------------------------------------------

def test_pure_regularization_step_is_shrinkage():
    # with identical item vectors the pairwise signal vanishes and one fixed
    # step multiplies W, the transition stack, u0 and u_u by (1 - eta*lam)
    c = tiny_corpus(seed=9)
    p = tiny_params(c, seed=9)
    p.item_vecs[:] = p.item_vecs[0]
    lam, eta = 0.1, 0.5
    cfg = TrainConfig(lam=lam, learning_rate=eta)
    inst = an_instance(c, user=0, k=4)
    W0, C0, u00 = p.W.copy(), p.C.copy(), p.u0.copy()
    uu0 = p.user_vecs[inst.user_id].copy()
    # shared_scale 1: the full lambda term
    _train_group(p, c.sequences[0], inst.position, [inst.neg_item], cfg, 1.0, eta)
    f = 1.0 - eta * lam
    assert np.allclose(p.W, f * W0, atol=1e-12)
    assert np.allclose(p.C, f * C0, atol=1e-12)
    assert np.allclose(p.u0, f * u00, atol=1e-12)
    assert np.allclose(p.user_vecs[inst.user_id], f * uu0, atol=1e-12)


def test_per_epoch_reg_amortizes_shared_decay():
    # with all vectors zeroed the data gradients vanish at every step, so
    # only the lambda terms act: over one epoch of N instances W decays by
    # (1-eta*lam/N)^N ~ one full unit of decay in total, not (1-eta*lam)^N
    c = tiny_corpus(seed=19)
    lam, eta = 0.1, 0.1
    n_inst = sum(len(training_positions(c, u)) for u in range(c.n_users))
    p = tiny_params(c, seed=19)
    p.user_vecs[...] = 0.0
    p.item_vecs[...] = 0.0
    p.u0[...] = 0.0
    W0 = p.W.copy()
    sgd_epoch(p, c, TrainConfig(lam=lam, learning_rate=eta), np.random.default_rng(0))
    ratio = np.linalg.norm(p.W) / np.linalg.norm(W0)
    assert ratio == pytest.approx((1 - eta * lam / n_inst) ** n_inst, rel=1e-9)


def test_frozen_behavior_mats():
    c = tiny_corpus(seed=10)
    p = tiny_params(c, seed=10)
    cfg = TrainConfig(lam=0.01, learning_rate=0.1, train_behavior_mats=False)
    M0 = p.M.copy()
    train(p, c, cfg)
    assert np.array_equal(p.M, M0)


def test_numeric_error_on_nonfinite_params():
    c = tiny_corpus(seed=12)
    p = tiny_params(c, seed=12)
    p.W[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(NumericError):
        sgd_epoch(p, c, TrainConfig(learning_rate=0.1), np.random.default_rng(0))


# --- epoch-level behavior ---------------------------------------------------

def test_training_positions_cover_training_segment():
    c = tiny_corpus(seed=13)
    pos = list(training_positions(c, 0))
    assert pos[0] == 1
    assert pos[-1] == int(c.train_end[0]) - 1


def test_train_is_deterministic_given_seed():
    c = tiny_corpus(seed=14)
    cfg = TrainConfig(lam=0.01, learning_rate=0.05, epochs=2, rng_seed=3)
    p1 = tiny_params(c, seed=14)
    p2 = tiny_params(c, seed=14)
    train(p1, c, cfg)
    train(p2, c, cfg)
    for name in ("user_vecs", "item_vecs", "W", "C", "M", "u0"):
        assert np.array_equal(getattr(p1, name), getattr(p2, name)), name



def test_a_true_on_epoch_stops_train_after_that_epoch():
    c = tiny_corpus(seed=14)
    cfg = TrainConfig(lam=0.01, learning_rate=0.05, epochs=5, rng_seed=3)
    stopped, ref, seen = tiny_params(c, seed=14), tiny_params(c, seed=14), []
    reports = train(stopped, c, cfg, on_epoch=lambda e, rep: seen.append(rep) or e == 1)
    assert reports == seen and len(reports) == 2
    train(ref, c, dataclasses.replace(cfg, epochs=2))
    for name in ("user_vecs", "item_vecs", "W", "C", "M", "u0"):
        assert np.array_equal(getattr(stopped, name), getattr(ref, name)), name


def test_an_epoch_without_steps_reports_nan_gradient_telemetry():
    c = tiny_corpus(seed=14)
    c = dataclasses.replace(c, train_end=np.ones(c.n_users, dtype=np.int64))
    rep = sgd_epoch(tiny_params(c, seed=14), c, TrainConfig(), np.random.default_rng(0))
    assert rep.n_instances == 0
    assert all(math.isnan(x) for x in (rep.grad_norm_p50, rep.grad_norm_max, rep.clip_fraction))

def test_train_reduces_mean_loss():
    c = tiny_corpus(n_users=6, length=20, seed=15)
    p = tiny_params(c, seed=15)
    cfg = TrainConfig(lam=0.001, learning_rate=0.05, epochs=8, rng_seed=0)
    reports = train(p, c, cfg)
    assert reports[-1].mean_loss < reports[0].mean_loss


def test_epoch_report_counts():
    c = tiny_corpus(n_users=3, length=10, seed=16)
    p = tiny_params(c, seed=16)
    cfg = TrainConfig(learning_rate=0.01)
    rep = sgd_epoch(p, c, cfg, np.random.default_rng(0))
    expected = sum(len(training_positions(c, u)) for u in range(c.n_users))
    assert rep.n_instances == expected
    assert rep.n_skipped == 0
    assert rep.mean_step_size == pytest.approx(0.01)


@pytest.mark.parametrize("clip_norm", [math.inf, 1e-3, 0.05, 1e6])
def test_epoch_report_gradient_telemetry(monkeypatch, clip_norm):
    c = tiny_corpus(n_users=3, length=10, seed=26)
    cfg = TrainConfig(learning_rate=0.05, clip_norm=clip_norm)
    seen, clip = [], GradientBundle.clip

    def recording_clip(bundle, max_norm):
        seen.append(clip(bundle, max_norm))
        return seen[-1]

    monkeypatch.setattr(GradientBundle, "clip", recording_clip)
    p = tiny_params(c, seed=26)
    rep = sgd_epoch(p, c, cfg, np.random.default_rng(0))
    monkeypatch.undo()
    # recording the norm leaves training as it was
    ref = tiny_params(c, seed=26)
    ref_rep = sgd_epoch(ref, c, cfg, np.random.default_rng(0))
    assert rep.mean_loss == ref_rep.mean_loss
    for name in ("user_vecs", "item_vecs", "W", "C", "M", "u0"):
        assert np.array_equal(getattr(p, name), getattr(ref, name)), name
    assert len(seen) == rep.n_instances  # one step per pair at 1 negative
    assert rep.grad_norm_p50 == np.median(seen)
    assert rep.grad_norm_max == max(seen)
    assert rep.clip_fraction == sum(x > clip_norm for x in seen) / len(seen)
    if clip_norm != 0.05:  # every step clipped, or none
        assert rep.clip_fraction == (clip_norm == 1e-3)


def test_ta_training_runs_and_learns_nothing_breaks():
    c = tiny_corpus(seed=17)
    p = tiny_params(c, ta=True, seed=17)
    cfg = TrainConfig(lam=0.01, learning_rate=0.05, epochs=2)
    reports = train(p, c, cfg)
    assert all(math.isfinite(r.mean_loss) for r in reports)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(negatives_per_positive=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    for key in ("lam", "learning_rate", "lr_decay", "clip_norm"):
        with pytest.raises(ValueError):
            TrainConfig(**{key: math.nan})
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    TrainConfig(epochs=0, clip_norm=math.inf)
    # the rates must be real numbers and the counts integers; a bool is neither
    for key, what in (("lam", "a real number"), ("learning_rate", "a real number"),
                      ("lr_decay", "a real number"), ("clip_norm", "a real number"),
                      ("negatives_per_positive", "an integer"), ("epochs", "an integer")):
        for value in (None, True, "5"):
            with pytest.raises(ValueError, match=f"^{key} must be {what}: "):
                TrainConfig(**{key: value})
    for key, value in (("negatives_per_positive", 2.5), ("epochs", 1.5)):
        with pytest.raises(ValueError, match=f"^{key} must be an integer: {value}$"):
            TrainConfig(**{key: value})
    # numpy scalars pass
    TrainConfig(lam=np.float64(0.01), clip_norm=np.float32(5), lr_decay=np.int64(0),
                negatives_per_positive=np.int64(2), epochs=np.int32(1))


# --- the stacked output layer and the bundle's sparse rows -------------------

def add_row(rows, idx, g):
    """rows[idx] += g on a dict of rows; a new row is a copy of g."""
    rows[idx] = rows[idx] + g if idx in rows else np.array(g)


def as_rows(rows, d):
    """A dict of rows as a bundle's (indices, stacked rows), in insertion order."""
    G = np.array(list(rows.values())).reshape(len(rows), d)
    return np.fromiter(rows, np.intp, len(rows)), G


def per_pair_output_gradients(params, h_k, seq, k, negs, lam, shared_scale):
    """The output layer one pair at a time, every sum in pair order and the
    sparse rows in dicts: the reference that the stacked output_gradients
    must match bit for bit."""
    uid, b, v = seq.user_id, int(seq.behaviors[k]), int(seq.items[k])
    u, Mb, r_pos = params.user_vecs[uid], params.M[b], params.item_vecs[v]
    s = h_k + u
    proj = s @ Mb
    y_pos = float(proj @ r_pos)
    pos_sq = np.sum(u ** 2) + np.sum(r_pos ** 2)
    shared = shared_scale * (np.sum(Mb ** 2) + np.sum(params.W ** 2)
                             + np.sum(params.trans ** 2) + np.sum(params.u0 ** 2))
    bundle = GradientBundle.zeros_like(params)
    user_rows, item_rows = {}, {}
    losses, dJ_dh = [], None
    for neg in negs:
        r_neg = params.item_vecs[neg]
        y_neg = float(proj @ r_neg)
        reg = 0.5 * lam * float(pos_sq + np.sum(r_neg ** 2) + shared) if lam else 0.0
        losses.append(float(np.logaddexp(0.0, -(y_pos - y_neg)) + reg))
        sig = float(expit(-(y_pos - y_neg)))
        diff = r_neg - r_pos
        d_s = sig * (Mb @ diff)
        d_proj = sig * (Mb.T @ s)
        g_pos, g_neg = -d_proj, d_proj
        if lam:
            g_pos = g_pos + lam * r_pos
            g_neg = g_neg + lam * r_neg
        add_row(user_rows, uid, d_s + lam * u)
        add_row(item_rows, v, g_pos)
        add_row(item_rows, neg, g_neg)
        bundle.M[b] += sig * np.outer(s, diff) + shared_scale * lam * Mb
        dJ_dh = d_s if dJ_dh is None else dJ_dh + d_s
    bundle.user_vecs, bundle.item_vecs = as_rows(user_rows, params.d), as_rows(item_rows, params.d)
    return losses, bundle, dJ_dh


def assert_bundles_identical(got, want):
    for name in ("W", "trans", "M", "u0"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for name in ("user_vecs", "item_vecs"):
        (idx, G), (want_idx, want_G) = getattr(got, name), getattr(want, name)
        assert idx.tolist() == want_idx.tolist(), name  # first-appearance order
        assert np.array_equal(G, want_G), name
        assert np.array_equal(np.signbit(G), np.signbit(want_G)), name


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("lam, shared_scale", [(0.0, 1.0), (0.01, 1.0), (0.01, 1 / 137)])
def test_output_gradients_match_the_per_pair_loop(ta, lam, shared_scale):
    c = tiny_corpus(n_items=30, length=20, seed=22)
    p = tiny_params(c, d=8, ta=ta, seed=22)
    rng = np.random.default_rng(22)
    p.user_vecs[...] = rng.normal(size=p.user_vecs.shape)
    p.item_vecs[...] = rng.normal(size=p.item_vecs.shape)
    seq = c.sequences[1]
    for m in range(1, 10):
        k = int(rng.integers(1, len(seq)))
        pos = int(seq.items[k])
        negs = [sample_negative(c.n_items, pos, rng) for _ in range(m)]
        if m >= 3:
            negs[-2] = negs[0]  # a negative drawn twice
        h = hidden_path(p, seq, k)[1][0]
        losses, got, dh = output_gradients(p, h, seq, k, negs, lam=lam, shared_scale=shared_scale)
        want_losses, want, want_dh = per_pair_output_gradients(p, h, seq, k, negs, lam,
                                                               shared_scale)
        assert np.array_equal(losses, want_losses)
        assert np.array_equal(dh, want_dh)
        # the item-row terms: the positive row's pair sum, then each negative's row
        assert got.item_vecs[0].tolist() == [pos, *negs]
        got.item_vecs = _ordered_sum(*got.item_vecs)
        assert_bundles_identical(got, want)


def random_bundle(seed, d=16, n_items=40):
    """A bundle of 12 rows, their magnitudes spread over six decades."""
    r = np.random.default_rng(seed)
    return GradientBundle(
        user_vecs=(np.array([3]), r.normal(size=(1, d))),
        item_vecs=(r.permutation(n_items)[:11],
                   r.normal(size=(11, d)) * 10.0 ** r.integers(-3, 3, size=(11, 1))),
        W=r.normal(size=(d, d)), trans=r.normal(size=(3, d, d)),
        M=r.normal(size=(2, d, d)), u0=r.normal(size=d))


def bundle_tensors(b):
    return [*b.user_vecs[1], *b.item_vecs[1], b.W, b.trans, b.M, b.u0]


@pytest.mark.parametrize("seed", range(5))
def test_clip_returns_the_sequential_norm(seed):
    b = random_bundle(seed)
    sq = 0.0
    for g in bundle_tensors(b):  # one row or tensor at a time, in bundle order
        sq += float(np.sum(g * g))
    norm = math.sqrt(sq)
    assert b.clip(2.0 * norm) == norm
    for g, ref in zip(bundle_tensors(b), bundle_tensors(random_bundle(seed))):
        assert np.array_equal(g, ref)  # below max_norm the bundle is untouched
    assert b.clip(0.25 * norm) == norm
    alpha = 0.25 * norm / norm
    for g, ref in zip(bundle_tensors(b), bundle_tensors(random_bundle(seed))):
        assert np.array_equal(g, ref * alpha)
    assert b.clip(math.inf) == pytest.approx(0.25 * norm, rel=1e-12)


@pytest.mark.parametrize("n_terms", [5, 400])
def test_ordered_sum_matches_adding_row_by_row(n_terms):
    r = np.random.default_rng(n_terms)
    idx = r.integers(0, 30, n_terms)
    idx[-2] = idx[0]  # a repeated key
    G = r.normal(size=(n_terms, 8))
    G[r.random(n_terms) < 0.2] = -0.0  # a key's first row must keep its zeros' signs
    G[r.random(n_terms) < 0.1] = 0.0
    G[idx == idx[-1]] = -0.0  # a sum that stays -0.0
    assert (G.size > _ADD_AT_MAX) == (n_terms == 400)  # np.add.at, then table folds
    want = {}
    for i, g in zip(idx.tolist(), G):
        add_row(want, i, g)
    keys, sums = _ordered_sum(idx, G)
    assert keys.tolist() == list(want)  # each key once, at its first appearance
    assert np.array_equal(sums, np.array(list(want.values())))
    assert np.array_equal(np.signbit(sums), np.signbit(np.array(list(want.values()))))


def test_nan_in_one_negative_raises_naming_the_position():
    c = tiny_corpus(n_items=30, seed=24)
    p = tiny_params(c, seed=24)
    seq, k = c.sequences[0], 6
    pos = int(seq.items[k])
    negs = [v for v in range(c.n_items) if v != pos and v not in seq.items[:k]][:3]
    p.item_vecs[negs[1]] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            NumericError, match=f"^non-finite loss nan at user 0 position {k}$"):
        group_gradients(p, seq, k, negs, TrainConfig(lam=0.01))


def test_bundle_scale():
    c = tiny_corpus(seed=18)
    p = tiny_params(c, seed=18)
    inst = an_instance(c)
    cfg = TrainConfig(lam=0.01, learning_rate=0.1)
    a = gradients(p, c.sequences[0], inst, cfg)
    b = gradients(p, c.sequences[0], inst, cfg).scale(2.0)
    assert np.allclose(2.0 * a.W, b.W)
    for name in ("user_vecs", "item_vecs"):
        assert np.array_equal(getattr(a, name)[0], getattr(b, name)[0])
        assert np.allclose(2.0 * getattr(a, name)[1], getattr(b, name)[1])


# --- the stacked BPTT sweep ---------------------------------------------------

@pytest.mark.parametrize("seed", range(40))
def test_ordered_add_adds_each_term_in_turn(seed):
    # small scatters (np.add.at), large ones (table folds, more than one
    # table), rows of single numbers, skewed keys and signed zeros
    r = np.random.default_rng(seed)
    shape = [(), (1,), (3,), (8,), (4, 4)][seed % 5]
    n_keys = int(r.integers(1, 12))
    n_terms = int(r.choice([1, 7, 300, 2500]))
    idx = np.minimum(r.geometric(0.3, n_terms) - 1, n_keys - 1)
    vals = r.normal(size=(n_terms, *shape)) * 10.0 ** r.integers(-8, 9, size=(n_terms, *shape))
    vals[r.random(n_terms) < 0.1] = -0.0
    acc = r.normal(size=(n_keys, *shape))
    acc[r.random(n_keys) < 0.3] = -0.0
    acc[-1], vals[idx == n_keys - 1] = -0.0, -0.0  # a sum that stays -0.0
    want = acc.copy()
    for i, v in zip(idx.tolist(), vals):
        want[i] += v
    _ordered_add(acc, idx, vals)
    assert np.array_equal(acc, want)
    assert np.array_equal(np.signbit(acc), np.signbit(want))


def per_item_bptt_backward(params, seq, path, dJ_dh, bundle):
    """The BPTT sweep one window item at a time, every sum in loop order and
    the item rows in a dict: the reference that the stacked bptt_backward,
    its item-row terms summed by _ordered_sum, must match bit for bit."""
    positions, states, (Z, stack, split) = path
    lo, hi, w_lo, w_hi = (a.tolist() for a in split)
    item_rows = row_dict(bundle.item_vecs)
    g = np.array(dJ_dh)
    for depth, p in enumerate(positions[:-1]):
        for i in range(min(p, stack.shape[1])):
            j = p - i - 1
            v, b = int(seq.items[j]), int(seq.behaviors[j])
            Atg = stack[depth, i].T @ g
            add_row(item_rows, v, params.M[b].T @ Atg)
            GA = np.outer(g, Z[j])
            bundle.trans[lo[depth][i]] += w_lo[depth][i] * GA
            if hi[depth][i] != lo[depth][i]:
                bundle.trans[hi[depth][i]] += w_hi[depth][i] * GA
            bundle.M[b] += np.outer(Atg, params.item_vecs[v])
        bundle.W += np.outer(g, states[depth + 1])
        g = params.W.T @ g
    bundle.u0 += g
    bundle.item_vecs = as_rows(item_rows, params.d)
    return bundle


@pytest.mark.parametrize("ta", [False, True])
def test_group_gradients_asks_the_provider_once(ta, monkeypatch):
    c = tiny_corpus(length=30, seed=26)
    p = tiny_params(c, n=6, ta=ta, seed=26)
    windows, calls = type(p).windows, []

    def spy(self, seq, layers, i):
        calls.append((np.shape(layers), np.shape(i)))
        return windows(self, seq, layers, i)

    monkeypatch.setattr(type(p), "windows", spy)
    gradients(p, c.sequences[0], an_instance(c, k=20), TrainConfig())
    assert calls == [((4, 1), (6,))]  # chain 20, 14, 8, 2 against offsets 0-5


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("depth", [None, 0, 1, 2, 50])
def test_bptt_backward_matches_the_per_item_loop(ta, n, depth):
    # depth counts the chain layers the sweep runs down: every context
    # position whose chain is that deep, or None for the last position
    c = tiny_corpus(n_items=6, length=300, seed=25)  # 6 items over 300 events: items repeat
    p = tiny_params(c, d=5, n=n, ta=ta, seed=25)
    rng = np.random.default_rng(25)
    for arr in (p.W, p.trans, p.M):
        arr += rng.normal(scale=0.3, size=arr.shape)  # off identity, so the sums round
    seq = c.sequences[1]
    # depth 0 is u0 alone; below k = d * n the chain grounds below a full window
    ks = [len(seq) - 1] if depth is None else range(max((depth - 1) * n + 1, 0), depth * n + 1)
    for k in ks:
        path = hidden_path(p, seq, k)
        assert len(path[0]) - 1 == (depth if depth is not None else -(-k // n))
        if n > 1 and depth is None:  # a window item repeats
            assert any(len(set(seq.items[j - n:j].tolist())) < n for j in path[0][:-2])
        dJ_dh = rng.normal(size=p.d)
        got, want = GradientBundle.zeros_like(p), GradientBundle.zeros_like(p)
        for b in (got, want):  # a row term already present, as the output layer leaves it
            b.item_vecs = np.array([seq.items[0]]), (np.arange(p.d) - 2.0)[None]
        bptt_backward(p, seq, path, dJ_dh, got)
        per_item_bptt_backward(p, seq, path, dJ_dh, want)
        got.item_vecs = _ordered_sum(*got.item_vecs)
        assert_bundles_identical(got, want)


# --- one epoch against a loop of reference steps -------------------------------

def reference_epoch(params, corpus, cfg, rng):
    """sgd_epoch (epoch 0) as a loop of reference steps: the per-pair output
    layer and the per-item BPTT sweep on dict rows, the lambda terms, a clip
    whose norm adds one row or tensor at a time in bundle order, then the
    update. Returns the pair losses and the pre-clip norms."""
    users = [u for u in range(corpus.n_users) if corpus.train_end[u] >= 2]
    order = [users[i] for i in rng.permutation(len(users))]
    m, eta = cfg.negatives_per_positive, cfg.learning_rate
    shared_scale = 1.0 / (sum(len(training_positions(corpus, u)) for u in users) * m)
    losses, norms = [], []
    for u in order:
        seq = corpus.sequences[u]
        for k in training_positions(corpus, u):
            negs = [sample_negative(corpus.n_items, int(seq.items[k]), rng) for _ in range(m)]
            path = hidden_path(params, seq, k)
            step_losses, b, dJ_dh = per_pair_output_gradients(
                params, path[1][0], seq, k, negs, cfg.lam, shared_scale)
            per_item_bptt_backward(params, seq, path, dJ_dh, b)
            lam = cfg.lam * shared_scale * m
            if lam:
                b.W += lam * params.W
                b.trans += lam * params.trans
                b.u0 += lam * params.u0
            tensors, sq = bundle_tensors(b), 0.0
            for g in tensors:
                sq += float(np.sum(g * g))
            norms.append(math.sqrt(sq))
            if norms[-1] > cfg.clip_norm:
                for g in tensors:
                    g *= cfg.clip_norm / norms[-1]
            for name in ("user_vecs", "item_vecs"):
                for i, g in zip(*getattr(b, name)):
                    getattr(params, name)[i] -= eta * g
            params.W -= eta * b.W
            params.trans[...] -= eta * b.trans
            params.M -= eta * b.M
            params.u0 -= eta * b.u0
            losses.extend(step_losses)
    return losses, norms


@pytest.mark.parametrize("ta", [False, True])
@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("clip_norm", [5.0, math.inf])
def test_sgd_epoch_matches_the_reference_steps(ta, m, clip_norm):
    c = tiny_corpus(seed=27)
    cfg = TrainConfig(learning_rate=0.05, negatives_per_positive=m, clip_norm=clip_norm)
    got, want = tiny_params(c, ta=ta, seed=27), tiny_params(c, ta=ta, seed=27)
    for p in (got, want):  # large enough that some steps clip
        p.item_vecs *= 12.0
    rep = sgd_epoch(got, c, cfg, np.random.default_rng(27))
    losses, norms = reference_epoch(want, c, cfg, np.random.default_rng(27))
    for name in ("user_vecs", "item_vecs", "W", "trans", "M", "u0"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    clip_fraction = float(np.mean(np.array(norms) > clip_norm))
    assert 0 < clip_fraction < 1 if clip_norm == 5.0 else clip_fraction == 0
    assert rep == EpochReport(mean_loss=float(np.mean(losses)), n_instances=len(losses),
                              n_skipped=0, mean_step_size=cfg.learning_rate,
                              wall_time=rep.wall_time, grad_norm_p50=float(np.median(norms)),
                              grad_norm_max=max(norms), clip_fraction=clip_fraction)


# --- names the benchmark traces ------------------------------------------------

@pytest.mark.parametrize("name", ["sgd_epoch", "hidden_path", "output_gradients",
                                  "bptt_backward", "GradientBundle.clip"])
def test_traced_training_names_resolve(name):
    # perfbench/bench.py times these by patching them on rlbl.training, and
    # its tracer skips a target that is gone without a word
    obj = training
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)

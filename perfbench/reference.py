"""The paper's formulas, written apart from rlbl, to check its outputs.

    h_0 = u0,   h_k = W h_{max(k-n, 0)} + sum_{i < min(n, k)} A_{k,i} M_{b_{k-i}} r_{v_{k-i}}

with A_{k,i} = C_i for RLBL, and for TA-RLBL the boundary matrices blended
linearly at the time gap t_k - t_{k-i} (clamped to [0, last boundary]).
The score of item v under behavior b is (h + u_u)^T M_b r_v, and a target's
rank is its place in a stable argsort of the negated scores.

Hidden states of every user are computed together: step k updates every
user whose sequence is at least k long, so the Python loop runs max-length
times instead of once per event.
"""

import numpy as np


def _window_terms(params, items, behaviors, times, first):
    """x_k = sum_i A_{k,i} M_b r_v for every event k of a flat event array.

    ``first[k]`` is the flat index of event k's user's first event.
    """
    d = params.W.shape[0]
    e = np.einsum("nij,nj->ni", params.M[behaviors], params.item_vecs[items])
    x = np.zeros((len(items), d))
    pos = np.arange(len(items)) - first
    ta = hasattr(params, "grid")
    for i in range(params.n):
        k = np.nonzero(pos >= i)[0]
        src = e[k - i]
        if not ta:
            x[k] += src @ params.C[i].T
            continue
        mats = params.grid.boundary_mats
        last = mats.shape[0] - 1
        width = params.grid.bin_width
        gap = np.maximum(times[k] - times[k - i], 0).astype(np.float64)
        lo = np.minimum(np.floor(gap / width).astype(np.int64), last)
        hi = np.minimum(lo + 1, last)
        w_hi = np.where(gap >= last * width, 0.0, gap / width - lo)
        blend = (1.0 - w_hi)[:, None, None] * mats[lo] + w_hi[:, None, None] * mats[hi]
        x[k] += np.einsum("nij,nj->ni", blend, src)
    return x


def hidden_states(params, corpus):
    """Per user, the (len + 1, d) array of states h_0 .. h_len."""
    seqs = corpus.sequences
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    items = np.concatenate([s.items for s in seqs])
    behaviors = np.concatenate([s.behaviors for s in seqs])
    times = np.concatenate([s.timestamps for s in seqs])
    first = np.repeat(starts, lengths)
    x = _window_terms(params, items, behaviors, times, first)

    # flat state store: user u owns rows base[u] .. base[u] + lengths[u]
    base = starts + np.arange(len(seqs))
    h = np.empty((len(items) + len(seqs), params.W.shape[0]))
    h[base] = params.u0
    by_length = np.argsort(-lengths, kind="stable")
    n = params.n
    for k in range(1, int(lengths.max()) + 1):
        active = by_length[: np.searchsorted(-lengths[by_length], -k, side="right")]
        prev = base[active] + (k - n if k >= n else 0)
        h[base[active] + k] = h[prev] @ params.W.T + x[starts[active] + k - 1]
    return [h[b:b + m + 1] for b, m in zip(base, lengths)]


def scores(params, h, user, behavior):
    """(P, n_items) scores for P contexts: (h + u_u)^T M_b r_v for every v."""
    s = h + params.user_vecs[user]
    proj = np.einsum("pji,pj->pi", params.M[behavior], s)
    return proj @ params.item_vecs.T


def ranks(score_rows, targets):
    """1-based rank of each target in a stable argsort of -scores."""
    order = np.argsort(-score_rows, axis=1, kind="stable")
    return np.argmax(order == targets[:, None], axis=1) + 1


def counted_ranks(score_rows, targets):
    """The same ranks by counting: higher scores, then equal scores at a
    lower index. Much cheaper than a sort over a full vocabulary."""
    t = score_rows[np.arange(len(targets)), targets][:, None]
    before = np.arange(score_rows.shape[1]) < targets[:, None]
    return 1 + np.count_nonzero((score_rows > t) | ((score_rows == t) & before), axis=1)


def evaluate(params, corpus, states, segment, cutoffs, chunk=512, sorted_rows=4096):
    """Recall per cutoff, MAP and count over one segment's positions.

    Ranks are counted for every position and, on an evenly spaced sample of
    about ``sorted_rows`` positions, compared with a stable argsort. The
    last value returned counts positions with a non-finite score plus
    sampled positions where the two ranks differ.
    """
    user, k = [], []
    for u, seq in enumerate(corpus.sequences):
        lo = int(corpus.train_end[u] if segment == "valid" else corpus.valid_end[u])
        hi = int(corpus.valid_end[u]) if segment == "valid" else len(seq)
        ks = np.arange(max(lo, 1), hi)
        user.append(np.full(len(ks), u))
        k.append(ks)
    user, k = np.concatenate(user), np.concatenate(k)
    stride = max(1, len(k) // sorted_rows)
    hits = {c: 0 for c in cutoffs}
    inv_rank = 0.0
    mismatches = 0
    for a in range(0, len(k), chunk):
        u, kk = user[a:a + chunk], k[a:a + chunk]
        h = np.stack([states[uu][ki] for uu, ki in zip(u, kk)])
        b = np.array([corpus.sequences[uu].behaviors[ki] for uu, ki in zip(u, kk)])
        t = np.array([corpus.sequences[uu].items[ki] for uu, ki in zip(u, kk)])
        rows = scores(params, h, u, b)
        r = counted_ranks(rows, t)
        sample = np.nonzero((a + np.arange(len(kk))) % stride == 0)[0]
        mismatches += int(np.count_nonzero(ranks(rows[sample], t[sample]) != r[sample]))
        mismatches += int(np.count_nonzero(~np.isfinite(rows).all(axis=1)))
        for c in cutoffs:
            hits[c] += int(np.count_nonzero(r <= c))
        inv_rank += float(np.sum(1.0 / r))
    n = len(k)
    return {c: hits[c] / n for c in cutoffs}, inv_rank / n, n, mismatches


def top_k(params, states, corpus, user, behavior, k):
    """Top-k (item index, score) after a user's whole history."""
    h = states[user][len(corpus.sequences[user])]
    row = scores(params, h[None, :], np.array([user]), np.array([behavior]))[0]
    order = np.argsort(-row, kind="stable")[:k]
    return [(int(i), float(row[i])) for i in order]

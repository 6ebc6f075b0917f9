"""Ranking evaluation: recall@k, F1-score@k and MAP over test positions.

Each test position contributes exactly one relevant item (the next
selected item), so precision@k = recall@k / k, F1@k = 2 recall@k / (k+1)
and average precision = 1/rank. Ties in the score vector break by item
index for reproducibility. Reports carry per-length-bucket breakdowns.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rlbl.data import length_bucket
from rlbl.scoring import finite_scores


class EmptyEval(ValueError):
    """Raised when no test instance matches the evaluation config."""


@dataclass
class EvalConfig:
    cutoffs: tuple = (1, 2, 5, 10)
    target_behaviors: frozenset | None = None  # None = score every test event
    exclude_seen: bool = False
    bucket_thresholds: tuple = (50, 200)
    segment: str = "test"  # "test" | "valid"

    def __post_init__(self):
        cuts = tuple(self.cutoffs)
        if not cuts or any(c <= 0 for c in cuts) or list(cuts) != sorted(cuts):
            raise ValueError(f"cutoffs must be positive and sorted: {self.cutoffs}")
        self.cutoffs = cuts
        t = tuple(self.bucket_thresholds)
        if len(t) != 2 or not t[0] < t[1]:
            raise ValueError(f"bucket thresholds must be two, strictly increasing: {t}")
        if self.target_behaviors is not None:
            self.target_behaviors = frozenset(int(b) for b in self.target_behaviors)


@dataclass
class RankingReport:
    recall: dict            # cutoff -> mean recall
    f1: dict                # cutoff -> mean F1
    map: float
    n_instances: int
    buckets: dict = field(default_factory=dict)  # bucket name -> RankingReport


def rank_of_target(scores, target):
    """1-based rank of the target item under index-order tie-breaking."""
    scores = np.asarray(scores)
    t = scores[target]
    greater = int(np.count_nonzero(scores > t))
    tied_before = int(np.count_nonzero(scores[:target] == t))
    return 1 + greater + tied_before


def instance_metrics(rank, cutoffs):
    """Per-cutoff (recall, F1) plus average precision for one instance."""
    if rank < 1:
        raise ValueError(f"rank must be >= 1: {rank}")
    recall = {k: 1.0 if rank <= k else 0.0 for k in cutoffs}
    f1 = {k: 2.0 * recall[k] / (k + 1) for k in cutoffs}
    return recall, f1, 1.0 / rank


def _aggregate(instances, cutoffs):
    n = len(instances)
    recall = {k: math.fsum(r[k] for r, _, _ in instances) / n for k in cutoffs}
    f1 = {k: math.fsum(f[k] for _, f, _ in instances) / n for k in cutoffs}
    ap = math.fsum(a for _, _, a in instances) / n
    return RankingReport(recall=recall, f1=f1, map=ap, n_instances=n)


def eval_positions(corpus, user_id, config):
    """1-based context positions k whose target event (k+1) is evaluated."""
    seq = corpus.sequences[user_id]
    if config.segment == "valid":
        lo, hi = int(corpus.train_end[user_id]), int(corpus.valid_end[user_id])
    else:
        lo, hi = int(corpus.valid_end[user_id]), len(seq)
    for k in range(max(lo, 1), hi):
        b = int(seq.behaviors[k])
        if config.target_behaviors is None or b in config.target_behaviors:
            yield k


def evaluate(scorer, corpus, config=None):
    """Score every qualifying test position of every user and aggregate.

    ``scorer`` must provide score_items(seq, k, behavior) -> (n_items,)
    scores for the item at position k+1 given history up to k; hidden
    states condition on the full preceding history (training + validation
    + earlier test events). Parameters are never modified. A non-finite
    score raises NumericError instead of being ranked (a NaN target would
    otherwise rank first).
    """
    if config is None:
        config = EvalConfig()

    all_instances = []
    by_bucket = {}
    for u in range(corpus.n_users):
        seq = corpus.sequences[u]
        for k in eval_positions(corpus, u, config):
            b = int(seq.behaviors[k])
            target = int(seq.items[k])
            scores = finite_scores(scorer, seq, k, b)
            if config.exclude_seen:
                scores = scores.copy()
                seen = np.unique(seq.items[:k])
                keep = scores[target]
                scores[seen] = -np.inf
                scores[target] = keep
            metrics = instance_metrics(rank_of_target(scores, target), config.cutoffs)
            all_instances.append(metrics)
            by_bucket.setdefault(length_bucket(seq, config.bucket_thresholds), []).append(metrics)
    if not all_instances:
        raise EmptyEval("no qualifying test instance")

    report = _aggregate(all_instances, config.cutoffs)
    for bucket in ("short", "medium", "long"):
        if bucket in by_bucket:
            report.buckets[bucket] = _aggregate(by_bucket[bucket], config.cutoffs)
    return report


def report_rows(report):
    """Flatten a report into (metric, cutoff, bucket, value) rows."""
    rows = []

    def emit(rep, bucket):
        for k in sorted(rep.recall):
            rows.append(("recall", k, bucket, rep.recall[k]))
        for k in sorted(rep.f1):
            rows.append(("f1", k, bucket, rep.f1[k]))
        rows.append(("map", "", bucket, rep.map))
        rows.append(("n_instances", "", bucket, rep.n_instances))

    emit(report, "all")
    for bucket, rep in report.buckets.items():
        emit(rep, bucket)
    return rows


def report_table(report, delimiter="\t"):
    """Delimited table of (metric, cutoff, bucket, value); bit-stable."""
    lines = [delimiter.join(("metric", "cutoff", "bucket", "value"))]
    for metric, cutoff, bucket, value in report_rows(report):
        val = repr(value) if isinstance(value, float) else str(value)
        lines.append(delimiter.join((metric, str(cutoff), bucket, val)))
    return "\n".join(lines) + "\n"


def report_summary(report):
    """Human-readable summary of the main metrics."""
    lines = [f"instances: {report.n_instances}"]
    for k in sorted(report.recall):
        lines.append(f"recall@{k}: {report.recall[k]:.4f}   f1@{k}: {report.f1[k]:.4f}")
    lines.append(f"MAP: {report.map:.4f}")
    for bucket, rep in report.buckets.items():
        lines.append(f"[{bucket}] n={rep.n_instances} MAP={rep.map:.4f} "
                     + " ".join(f"recall@{k}={rep.recall[k]:.4f}" for k in sorted(rep.recall)))
    return "\n".join(lines) + "\n"

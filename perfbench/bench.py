"""One benchmark run of one workload: set-up, timed rounds, checks, metrics.

A run sets up ``setup_reps`` times (setup_s is the median), trains one epoch
from the initial parameters, and snapshots the model that is served: the
trained one, or the initial one for a workload that only serves. It then
repeats identical rounds for about ``seconds``. A round is ``slots`` slots,
and each slot does three things in turn, so that every kind of operation is
sampled across the whole round rather than in one window of it:

    sgd_epoch on the slot's chunk of users (the round's own epoch, from the
    initial parameters, so it ends where the first epoch ended)
    -> evaluate the served model (all users, or the slot's chunk of them)
    -> the slot's share of the cold ``rlbl predict`` calls, via cli.main

A traced run makes one untraced set-up, epoch and round, then one traced
set-up, epoch and round, and reports per-layer figures from the traced
spans and the difference of the two wall times as the tracing overhead.
"""

import contextlib
import copy
import dataclasses
import gc
import io
import math
import resource
import statistics
import sys
import time

import numpy as np

from rlbl import baselines, cli, data, evaluation, ingestion, model, scoring, snapshot, time_aware, training

import reference
from tracing import Tracer

PREDICTS_PER_ROUND = 200
TOP_K = 10
MAX_CHECK_POSITION = 60  # deeper chains make finite differences too noisy to compare
TIME_SHIFT_S = 86_400_000

def _count_states(counts, result):
    counts["training.forward_layers"] += len(result[1])  # (positions, states)


def _count_chain(counts, result):
    counts["scoring.forward_layers"] += result.shape[0]  # one row per state


def _layers():
    """(owner, attribute, layer, count) for every call the traced run times;
    functions are patched where their callers look them up."""
    states, chain = _count_states, _count_chain
    return [
        (ingestion, "generate_synthetic", "ingestion.generate_synthetic", None),
        (ingestion, "parse_generic", "ingestion.parse_generic", None),
        (data, "build_corpus", "data.build_corpus", None),
        (snapshot, "save_snapshot", "snapshot.save", None),
        (snapshot, "load_snapshot", "snapshot.load", None),
        (training, "sgd_epoch", "training.sgd_epoch", None),
        (training, "hidden_path", "training.hidden_path", states),
        (training, "hidden_path_ta", "training.hidden_path", states),
        (training, "output_gradients", "training.output_gradients", None),
        (training, "regularization", "training.regularization", None),
        (training, "bptt_backward", "training.bptt_backward", None),
        (training.GradientBundle, "clip", "training.clip", None),
        (evaluation, "evaluate", "evaluation.evaluate", None),
        (evaluation, "rank_of_target", "evaluation.rank_of_target", None),
        (scoring.RlblScorer, "score_items", "scoring.score_items", None),
        (scoring.TaRlblScorer, "score_items", "scoring.score_items", None),
        (scoring, "hidden_chain", "scoring.hidden_chain", chain),
        (scoring, "hidden_chain_ta", "scoring.hidden_chain", chain),
        (cli, "cmd_predict", "cli.predict", None),
    ]


# per-layer metric -> (unit, source): a layer's self time or a count
PER_LAYER = {
    "ingestion.generate_synthetic_s": ("s", "ingestion.generate_synthetic"),
    "ingestion.parse_generic_s": ("s", "ingestion.parse_generic"),
    "data.build_corpus_s": ("s", "data.build_corpus"),
    "snapshot.save_s": ("s", "snapshot.save"),
    "snapshot.bytes": ("bytes", None),
    "snapshot.load_s": ("s", "snapshot.load"),
    "training.hidden_path_s": ("s", "training.hidden_path"),
    "training.hidden_path_calls": ("count", None),
    "training.forward_layers": ("count", None),
    "training.output_gradients_s": ("s", "training.output_gradients"),
    "training.output_gradients_calls": ("count", None),
    "training.regularization_s": ("s", "training.regularization"),
    "training.bptt_backward_s": ("s", "training.bptt_backward"),
    "training.bptt_backward_calls": ("count", None),
    "training.clip_s": ("s", "training.clip"),
    "training.sgd_epoch_self_s": ("s", "training.sgd_epoch"),
    "scoring.hidden_chain_s": ("s", "scoring.hidden_chain"),
    "scoring.forward_layers": ("count", None),
    "scoring.score_items_s": ("s", "scoring.score_items"),
    "scoring.score_items_calls": ("count", None),
    "evaluation.rank_of_target_s": ("s", "evaluation.rank_of_target"),
    "evaluation.evaluate_self_s": ("s", "evaluation.evaluate"),
    "cli.predict_self_s": ("s", "cli.predict"),
}


def percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) * len(values) samples lie above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """State of one run: its files, corpus, parameters, plan and failures."""

    def __init__(self, workload, seed, tiny, work_dir):
        self.w = workload
        self.seed = seed
        self.tiny = tiny
        self.tsv = work_dir / "events.tsv"
        self.snap = work_dir / "model.snap"
        self.resave = work_dir / "resaved.snap"
        self.generated = None  # (events, users, items, behaviors) as generated
        self.failures = []
        self.tracer = None

    def fail(self, message):
        self.failures.append(message)
        print(f"CHECK FAILED [{self.w.name}]: {message}", file=sys.stderr)

    # -- inputs and set-up -------------------------------------------------

    def write_events(self):
        """Generate the seed's events and write them as a generic TSV log."""
        n_events, users, items, behaviors = 0, set(), set(), set()
        with open(self.tsv, "w", encoding="utf-8") as fh:
            for prefix, spec in self.w.groups(self.seed, self.tiny):
                events = ingestion.generate_synthetic(spec)
                fh.write("".join(f"{prefix}{e.user}\t{e.item}\t{e.behavior}\t{e.timestamp}\n"
                                 for e in events))
                if self.generated is None:
                    n_events += len(events)
                    users.update(prefix + e.user for e in events)
                    items.update(e.item for e in events)
                    behaviors.update(e.behavior for e in events)
        if self.generated is None:
            self.generated = (n_events, len(users), len(items), max(behaviors) + 1)

    def setup(self):
        gc.collect()  # no garbage from earlier work is collected on set-up's time
        t0 = time.perf_counter()
        if not self.w.serving:
            self.write_events()
        events = ingestion.parse_generic(self.tsv)
        self.n_parsed = len(events)
        corpus = data.build_corpus(events)
        del events
        if self.w.kind == "ta-rlbl":
            params = time_aware.init_ta_rlbl_params(  # 24 one-hour bins
                corpus.n_users, corpus.n_items, corpus.n_behaviors, d=self.w.d, n=self.w.n,
                seed=self.seed)
        else:
            params = model.init_rlbl_params(corpus.n_users, corpus.n_items, corpus.n_behaviors,
                                            d=self.w.d, n=self.w.n, seed=self.seed)
        if self.w.serving:
            snapshot.save_snapshot(self.snap, params, corpus)
        elapsed = time.perf_counter() - t0
        self.corpus, self.params0 = corpus, params
        self._plan()
        return elapsed

    def _plan(self):
        """Which users train, how users and predicts split over the slots, and
        which users and behaviors the predicts ask for."""
        corpus, slots = self.corpus, self.w.slots
        lengths = np.array([len(s) for s in corpus.sequences])
        by_length = np.argsort(lengths, kind="stable")
        trained = np.flatnonzero(corpus.train_end >= 2)
        if self.w.train_users is not None:
            # a slice of users at evenly spaced length ranks below the 80th percentile
            k = self.w.train_users if not self.tiny else 4
            trained = np.sort(by_length[(0.8 * (np.arange(k) + 0.5) / k * len(by_length)).astype(int)])
        self.trained_users = [int(u) for u in trained]
        self.train_views = []
        for c in range(slots):
            end = np.zeros_like(corpus.train_end)
            end[trained[c::slots]] = corpus.train_end[trained[c::slots]]
            self.train_views.append(dataclasses.replace(corpus, train_end=end))
        self.eval_views = ([_users_view(corpus, range(c, corpus.n_users, slots)) for c in range(slots)]
                           if self.w.split_eval else [corpus] * slots)
        p = PREDICTS_PER_ROUND if not self.tiny else 20
        rng = np.random.default_rng(self.seed + 1)
        users = by_length[((np.arange(p) + 0.5) * len(by_length) / p).astype(int)]
        rng.shuffle(users)
        self.queries = [(int(u), int(b)) for u, b in
                        zip(users, rng.integers(corpus.n_behaviors, size=p))]

    # -- rounds ----------------------------------------------------------------

    def train_config(self):
        return training.TrainConfig(**self.w.train, rng_seed=self.seed)

    def round(self, served=None):
        """One epoch from the initial parameters, slot by slot; with a served
        model, each slot also evaluates it and makes its share of predicts."""
        params = copy.deepcopy(self.params0)
        out = {"trained": params, "train": [], "eval": [], "tables": [], "latency_s": [], "predicts": []}
        cfg = self.train_config()
        rng = np.random.default_rng(self.seed)
        scorer = scoring.scorer_for(served) if served is not None else None
        for slot in range(self.w.slots):
            view = self.train_views[slot]
            if view.train_end.any():
                t0 = time.perf_counter()
                rep = training.sgd_epoch(params, view, cfg, rng)
                out["train"].append((rep.n_instances, rep.n_skipped, time.perf_counter() - t0))
            if served is None:
                continue
            for _ in range(self.w.evals_per_slot):
                if not self.w.split_eval:
                    scorer = scoring.scorer_for(served)  # a fresh scorer recomputes every chain
                t0 = time.perf_counter()
                reports = {seg: evaluation.evaluate(scorer, self.eval_views[slot],
                                                    evaluation.EvalConfig(segment=seg))
                           for seg in self.w.segments}
                positions = sum(r.n_instances for r in reports.values())
                out["eval"].append((positions, time.perf_counter() - t0, reports))
                out["tables"].append({seg: evaluation.report_table(r) for seg, r in reports.items()})
            for user, behavior in self.queries[slot::self.w.slots]:
                argv = ["predict", "--snapshot", str(self.snap), "--user", self.corpus.user_ids[user],
                        "--behavior", str(behavior), "--top-k", str(TOP_K)]
                buf = io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                out["latency_s"].append(time.perf_counter() - t0)
                out["predicts"].append((code, buf.getvalue()))
        if served is not None:
            # the last evaluation of every chunk, combined per segment
            last = [reports for _, _, reports in out["eval"]]
            last = last[-1:] if not self.w.split_eval else last
            out["reports"] = {seg: _combine([r[seg] for r in last]) for seg in self.w.segments}
        return out

    def epoch_and_snapshot(self):
        """Train the first epoch and snapshot the model the rounds serve."""
        first = self.round()
        self.trained = first["trained"]
        self.served = self.params0 if self.w.serving else self.trained
        snapshot.save_snapshot(self.snap, self.served, self.corpus)
        return first

    # -- tracing -------------------------------------------------------------

    @contextlib.contextmanager
    def traced(self):
        if self.tracer is None:
            self.tracer = Tracer()
        for owner, attr, layer, count in _layers():
            self.tracer.patch(owner, attr, layer, count)
        try:
            yield self.tracer
        finally:
            self.tracer.restore()

    def per_layer(self):
        times = self.tracer.self_times()
        counts = self.tracer.counts
        counts["snapshot.bytes"] = self.snap.stat().st_size
        return {name: (times[src] if unit == "s" else counts[name], unit)
                for name, (unit, src) in PER_LAYER.items()}

    # -- checks --------------------------------------------------------------

    def check(self, rounds):
        w, corpus, last = self.w, self.corpus, rounds[-1]
        served = self.served

        got = (self.n_parsed, corpus.n_users, corpus.n_items, corpus.n_behaviors)
        if got != self.generated:
            self.fail(f"parsed events/users/items/behaviors {got} != generated {self.generated}")

        negatives = w.train["negatives_per_positive"]
        expected = sum(int(math.floor(len(corpus.sequences[u]) * 0.7 + 1e-9)) - 1
                       for u in self.trained_users) * negatives
        for r in rounds:
            pairs = sum(n for n, _, _ in r["train"])
            skipped = sum(k for _, k, _ in r["train"])
            if pairs != expected or skipped:
                self.fail(f"trained {pairs} pairs ({skipped} skipped), expected {expected}")
                break

        first = rounds[1]  # rounds[0] is the first epoch, which serves nothing
        for r in rounds:
            same = _same_params(r["trained"], self.trained)
            if "reports" in r:
                same = same and r["tables"] == first["tables"] and r["predicts"] == first["predicts"]
            if not same:
                self.fail("rounds from the same start disagree")
                break

        states = reference.hidden_states(served, corpus)
        for seg, rep in last["reports"].items():
            recall, ap, n, bad = reference.evaluate(served, corpus, states, seg, rep.recall)
            slack = 1.0 / n + 1e-12  # one near-tie resolved the other way
            if (n != rep.n_instances or bad or abs(ap - rep.map) > slack
                    or any(abs(recall[c] - rep.recall[c]) > slack for c in recall)):
                self.fail(f"{seg}: evaluate gives MAP {rep.map} over {rep.n_instances}, reference "
                          f"{ap} over {n} ({bad} rank mismatches or non-finite rows)")

        queries = [q for slot in range(w.slots) for q in self.queries[slot::w.slots]]
        for (user, behavior), (code, text) in zip(queries, last["predicts"]):
            want = reference.top_k(served, states, corpus, user, behavior, TOP_K)
            rows = [line.split("\t") for line in text.splitlines()]
            ok = code == 0 and len(rows) == len(want) and all(
                item == corpus.item_ids[i] and abs(float(score) - s) <= 1e-6 * max(1.0, abs(s))
                for (item, score), (i, s) in zip(rows, want))
            if not ok:
                self.fail(f"predict for user {corpus.user_ids[user]} behavior {behavior}: "
                          f"exit {code}, output {text!r}, reference {want}")
                break

        rng = np.random.default_rng(self.seed + 2)
        cfg = self.train_config()
        for u in rng.choice(self.trained_users, size=2):
            seq = corpus.sequences[u]
            k = int(rng.integers(1, min(int(corpus.train_end[u]) - 1, MAX_CHECK_POSITION) + 1))
            pos = int(seq.items[k])
            neg = (pos + 1 + int(rng.integers(corpus.n_items - 1))) % corpus.n_items
            inst = training.TrainingInstance(int(u), k, int(seq.behaviors[k]), pos, neg)
            report = training.gradient_check(self.trained, seq, k, inst, cfg=cfg,
                                             rng=np.random.default_rng(self.seed))
            if not report.passed:
                self.fail(f"gradient check at user {u} position {k}: {report.max_rel_error}")

        if w.min_pop_ratio is not None:
            pop = evaluation.evaluate(baselines.PopModel(corpus), corpus).map
            if last["reports"]["test"].map < w.min_pop_ratio * pop:
                self.fail(f"test MAP {last['reports']['test'].map} below {w.min_pop_ratio} x POP {pop}")

        if w.check_time_shift:
            shifted = data.build_corpus([
                data.Event(corpus.user_ids[u], corpus.item_ids[v], int(b), int(t) + TIME_SHIFT_S)
                for u, s in enumerate(corpus.sequences)
                for v, b, t in zip(s.items, s.behaviors, s.timestamps)])
            for seg in w.segments:
                config = evaluation.EvalConfig(segment=seg)
                before, after = (evaluation.report_table(evaluation.evaluate(
                    scoring.scorer_for(served), c, config)) for c in (corpus, shifted))
                if before != after:
                    self.fail(f"{seg}: report changes when timestamps shift by {TIME_SHIFT_S} s")

        _, loaded, bound = snapshot.load_snapshot(self.snap)
        if not (_same_params(loaded, served) and _same_corpus(bound, corpus)):
            self.fail("loaded snapshot differs from the saved model or corpus")
        snapshot.save_snapshot(self.resave, loaded, bound)
        if self.resave.read_bytes() != self.snap.read_bytes():
            self.fail("saving a loaded snapshot again gives other bytes")


def _param_arrays(params):
    arrays = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    grid = arrays.pop("grid", None)
    if grid is not None:
        arrays["boundary_mats"] = grid.boundary_mats
        arrays["bin_width"] = np.array(grid.bin_width)
    return arrays


def _same_params(a, b):
    x, y = _param_arrays(a), _param_arrays(b)
    return type(a) is type(b) and x.keys() == y.keys() and all(
        np.array_equal(x[k], y[k]) for k in x)


def _same_corpus(a, b):
    return (a is not None
            and (a.n_users, a.n_items, a.n_behaviors) == (b.n_users, b.n_items, b.n_behaviors)
            and list(a.user_ids) == list(b.user_ids) and list(a.item_ids) == list(b.item_ids)
            and np.array_equal(a.train_end, b.train_end) and np.array_equal(a.valid_end, b.valid_end)
            and all(np.array_equal(getattr(s, f), getattr(t, f))
                    for s, t in zip(a.sequences, b.sequences)
                    for f in ("items", "behaviors", "timestamps")))


def _users_view(corpus, users):
    """The corpus restricted to some users, who keep their ids and sequences."""
    users = list(users)
    return dataclasses.replace(
        corpus, sequences=[corpus.sequences[u] for u in users], n_users=len(users),
        train_end=corpus.train_end[users], valid_end=corpus.valid_end[users],
        user_ids=[corpus.user_ids[u] for u in users])


def _combine(reports):
    """One report over the positions of several disjoint reports."""
    if len(reports) == 1:
        return reports[0]
    n = sum(r.n_instances for r in reports)
    mean = lambda f: math.fsum(f(r) * r.n_instances for r in reports) / n
    return evaluation.RankingReport(
        recall={c: mean(lambda r: r.recall[c]) for c in reports[0].recall},
        f1={c: mean(lambda r: r.f1[c]) for c in reports[0].f1},
        map=mean(lambda r: r.map), n_instances=n)


def _operations(r):
    """Operations a round attempted and how many of them failed."""
    attempted = (sum(n for n, _, _ in r["train"]) + sum(n for n, _, _ in r["eval"])
                 + len(r["predicts"]))
    return attempted, sum(code != 0 for code, _ in r["predicts"])


def run(workload, seed, seconds, trace, tiny, work_dir):
    """Run one workload; returns (run state, attempted, failed, metrics)."""
    b = Run(workload, seed, tiny, work_dir)
    if workload.serving:
        with (b.traced() if trace else contextlib.nullcontext()):
            b.write_events()

    setup_s = [b.setup() for _ in range(workload.setup_reps)]
    t_start = time.perf_counter()
    rounds = [b.epoch_and_snapshot()]
    # whole rounds, as many as are expected to end within `seconds`; at least one
    while True:
        t0 = time.perf_counter()
        rounds.append(b.round(b.served))
        elapsed = time.perf_counter() - t_start
        if trace or elapsed + time.perf_counter() - t0 > seconds:
            break

    if trace:
        untraced = statistics.median(setup_s) + elapsed
        with b.traced():
            t0 = time.perf_counter()
            b.setup()
            rounds.append(b.epoch_and_snapshot())
            rounds.append(b.round(b.served))
            traced = time.perf_counter() - t0
        metrics = b.per_layer()
        metrics["evaluation.test_map"] = (rounds[-1]["reports"]["test"].map, "MAP")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
    else:
        latency_ms = [x * 1e3 for r in rounds for x in r["latency_s"]]
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_pairs_per_s": (statistics.median(
                n / t for r in rounds for n, _, t in r["train"]), "pairs/s"),
            "eval_positions_per_s": (statistics.median(
                n / t for r in rounds for n, t, _ in r["eval"]), "positions/s"),
            "predict_p50_ms": (statistics.median(latency_ms), "ms"),
            # per round, so that one disturbed round moves the tail less
            "predict_p95_ms": (statistics.median(
                percentile([x * 1e3 for x in r["latency_s"]], 0.95) for r in rounds if r["latency_s"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    b.check(rounds)
    attempted = failed = 0
    for r in rounds:
        a, f = _operations(r)
        attempted += a
        failed += f
    b.predict_calls = sum(len(r["latency_s"]) for r in rounds)
    b.test_map = rounds[-1]["reports"]["test"].map
    return b, attempted, failed, metrics

"""Command-line entry point: train, evaluate, predict, gradcheck, gen-synth.

Runs are driven by a YAML config file; unknown keys are rejected so that
typos in hyperparameter sweeps fail loudly. The resolved config (defaults
filled in) is written next to the outputs. Exit codes: 0 success,
2 config error, 3 I/O error, 4 numeric failure, 5 check failure.
"""

import argparse
import copy
import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from rlbl import baselines, evaluation, ingestion, model, scoring, snapshot, time_aware, training
from rlbl.data import MAX_BEHAVIORS, build_corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_CHECK = 5


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "dataset": {
        "format": "synthetic",
        "path": None,
        "delimiter": "\t",
        "columns": {"user": 0, "item": 1, "behavior": 2, "timestamp": 3},
        "has_header": False,
        "timestamp_unit": 1,
        "behavior_map": None,
        "target_behaviors": None,
        "synth": {},
    },
    "split": [0.7, 0.1],
    "model": {"kind": "rlbl", "d": 8, "n": 2, "bin_width": 3600.0, "n_bins": 24},
    # TrainConfig's fields and defaults but the seed (the run's) and
    # train_behavior_mats (the model kind's), with the CLI's epochs and patience
    "train": {**{f.name: f.default for f in dataclasses.fields(training.TrainConfig)
                 if f.name not in ("rng_seed", "train_behavior_mats")},
              "epochs": 10, "patience": 5},
    "eval": {"cutoffs": [1, 2, 5, 10], "buckets": [50, 200], "exclude_seen": False},
    "out": None,
    "seed": 0,
}

MODEL_KINDS = ("rlbl", "ta-rlbl", "pop", "markov", "linear-rnn")

# the keys of dataset.synth, with SynthSpec's defaults as their types
SYNTH_KEYS = {f.name: f.default for f in dataclasses.fields(ingestion.SynthSpec)}
# a value of the right type for each key whose default does not show it:
# the null defaults, timestamp_unit, whose int default may be a fraction,
# and seq_len_range, a tuple default given as a YAML list
TYPE_OF = {"dataset.path": "", "dataset.behavior_map": {}, "dataset.target_behaviors": [0],
           "dataset.timestamp_unit": 1.0, "out": "",
           "dataset.synth.seq_len_range": [0], "dataset.synth.cycle_len": 0}
NULLABLE = ("train.patience",)  # null switches early stopping off


def _fits(value, like):
    """Whether value has the type of ``like``; a float key also takes an int."""
    if isinstance(like, list):
        return isinstance(value, list) and all(_fits(x, like[0]) for x in value)
    if isinstance(like, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(like)


def _merge(defaults, override, path=""):
    if override is None:
        return copy.deepcopy(defaults)
    if not isinstance(override, dict):
        raise ConfigError(f"expected a mapping at {path or 'top level'}")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key {path + key!r}")
        if isinstance(defaults[key], dict) and key not in ("columns", "behavior_map", "synth"):
            merged[key] = _merge(defaults[key], value, path + key + ".")
        else:
            like = TYPE_OF.get(path + key, defaults[key])
            nulled = value is None and (defaults[key] is None or path + key in NULLABLE)
            if like is not None and not nulled and not _fits(value, like):
                raise ConfigError(f"config key {path + key!r} must be of type "
                                  f"{type(like).__name__}: {value!r}")
            if path + key == "dataset.synth":
                _merge(SYNTH_KEYS, value, "dataset.synth.")  # keys and value types only
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path, seed_override=None, out_override=None):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ingestion.IoError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    cfg = _merge(DEFAULT_CONFIG, raw)
    if seed_override is not None:
        cfg["seed"] = seed_override
    if out_override is not None:
        cfg["out"] = out_override
    if cfg["out"] is None:
        root = os.environ.get("RLBL_OUT", "runs")
        cfg["out"] = str(Path(root) / Path(path).stem)
    if cfg["model"]["kind"] not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {cfg['model']['kind']!r}")
    m = cfg["model"]
    if min(m["d"], m["n"], m["n_bins"]) < 1 or not 0 < m["bin_width"] < math.inf:
        raise ConfigError(f"model d, n and n_bins must be >= 1 and bin_width finite and > 0: {m}")
    if (cfg["train"]["patience"] or 0) < 0:
        raise ConfigError(f"train.patience must be >= 0 or null: {cfg['train']['patience']}")
    ds = cfg["dataset"]
    if not 0 < ds["timestamp_unit"] < math.inf:
        raise ConfigError(f"dataset.timestamp_unit must be finite and > 0: {ds['timestamp_unit']}")
    behavior_ids = (ds["behavior_map"] or {}).values()
    if not all(type(b) is int and 0 <= b < MAX_BEHAVIORS for b in behavior_ids):
        raise ConfigError(f"dataset.behavior_map values must be ints in "
                          f"[0, {MAX_BEHAVIORS}): {ds['behavior_map']!r}")
    if not all(0 <= b < MAX_BEHAVIORS for b in ds["target_behaviors"] or ()):
        raise ConfigError(f"dataset.target_behaviors must be ints in "
                          f"[0, {MAX_BEHAVIORS}): {ds['target_behaviors']!r}")
    if ds["format"] not in ("movielens", "generic", "synthetic"):
        raise ConfigError(f"unknown dataset format {ds['format']!r}")
    if ds["format"] != "synthetic" and not ds["path"]:
        raise ConfigError("dataset.path is required for non-synthetic datasets")
    if ds["format"] != "synthetic" and not Path(ds["path"]).exists():
        raise ConfigError(f"dataset.path does not exist: {ds['path']}")
    cols, names = ds["columns"], DEFAULT_CONFIG["dataset"]["columns"]
    if set(cols) != set(names) or not all(type(c) is int and c >= 0 for c in cols.values()):
        raise ConfigError(f"dataset.columns must map exactly {', '.join(names)} "
                          f"to non-negative ints: {cols!r}")
    return cfg


def load_events(cfg):
    ds = cfg["dataset"]
    if ds["format"] == "movielens":
        return ingestion.parse_movielens(ds["path"])
    if ds["format"] == "generic":
        cols = ds["columns"]
        spec = ingestion.ColumnSpec(
            delimiter=ds["delimiter"],
            user=cols["user"], item=cols["item"],
            behavior=cols["behavior"], timestamp=cols["timestamp"],
            has_header=ds["has_header"], timestamp_unit=ds["timestamp_unit"],
        )
        return ingestion.parse_generic(ds["path"], spec, ds["behavior_map"])
    return ingestion.generate_synthetic(synth_spec(cfg))


def synth_spec(cfg):
    """The config's SynthSpec; its rng_seed defaults to the run seed."""
    return ingestion.synth_spec_from_dict({"rng_seed": cfg["seed"], **cfg["dataset"]["synth"]})


def load_corpus(cfg):
    return build_corpus(load_events(cfg), tuple(cfg["split"]))


def init_model(cfg, corpus):
    kind = cfg["model"]["kind"]
    d, n = cfg["model"]["d"], cfg["model"]["n"]
    seed = cfg["seed"]
    if kind == "rlbl":
        return model.init_rlbl_params(corpus.n_users, corpus.n_items,
                                      corpus.n_behaviors, d=d, n=n, seed=seed)
    if kind == "ta-rlbl":
        return time_aware.init_ta_rlbl_params(
            corpus.n_users, corpus.n_items, corpus.n_behaviors, d=d, n=n,
            bin_width=cfg["model"]["bin_width"], n_bins=cfg["model"]["n_bins"], seed=seed)
    if kind == "linear-rnn":
        return baselines.linear_rnn_as_rlbl(corpus, d=d, seed=seed)
    if kind == "pop":
        return baselines.PopModel(corpus)
    if kind == "markov":
        return baselines.MarkovModel(corpus)
    raise ConfigError(f"unknown model kind {kind!r}")


def train_config(cfg):
    """The TrainConfig of the train section, whose keys but patience are its
    fields; the behavior matrices train unless the model is the linear RNN."""
    t = {key: value for key, value in cfg["train"].items() if key != "patience"}
    return training.TrainConfig(**t, rng_seed=cfg["seed"],
                                train_behavior_mats=cfg["model"]["kind"] != "linear-rnn")


def eval_config(cfg, segment="test"):
    e = cfg["eval"]
    targets = cfg["dataset"]["target_behaviors"]
    return evaluation.EvalConfig(
        cutoffs=tuple(e["cutoffs"]),
        target_behaviors=None if targets is None else frozenset(targets),
        exclude_seen=e["exclude_seen"],
        bucket_thresholds=tuple(e["buckets"]),
        segment=segment,
    )


def _write_resolved(cfg, out_dir):
    with open(out_dir / "resolved_config.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)


def cmd_train(cfg):
    # config, data and model errors exit before any output
    tcfg, vcfg = train_config(cfg), eval_config(cfg, segment="valid")
    corpus = load_corpus(cfg)
    params = init_model(cfg, corpus)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_resolved(cfg, out_dir)

    if isinstance(params, (baselines.PopModel, baselines.MarkovModel)):
        snapshot.save_snapshot(out_dir / "model.snap", params, corpus)
        print(f"fitted {cfg['model']['kind']} baseline -> {out_dir / 'model.snap'}")
        return EXIT_OK

    rng = np.random.default_rng(tcfg.rng_seed)
    patience = cfg["train"]["patience"]
    best_map, best_params, since_best = -1.0, copy.deepcopy(params), 0
    log_lines = ["epoch\tmean_loss\twall_time\tmean_step\tvalid_map\t"
                 "grad_norm_p50\tgrad_norm_max\tclip_fraction"]

    for epoch in range(tcfg.epochs):
        rep = training.sgd_epoch(params, corpus, tcfg, rng, epoch=epoch)
        try:
            valid_map = evaluation.evaluate(scoring.scorer_for(params), corpus, vcfg).map
        except evaluation.EmptyEval:
            valid_map = float("nan")
        clipping = [math.nan if x is None else x
                    for x in (rep.grad_norm_p50, rep.grad_norm_max, rep.clip_fraction)]
        log_lines.append(f"{epoch}\t{rep.mean_loss:.6f}\t{rep.wall_time:.3f}\t"
                         f"{rep.mean_step_size:.6g}\t{valid_map:.6f}\t"
                         + "\t".join(f"{x:.6g}" for x in clipping))
        print(log_lines[-1])
        if np.isnan(valid_map) or valid_map > best_map:
            best_map = -1.0 if np.isnan(valid_map) else valid_map
            best_params = copy.deepcopy(params)
            since_best = 0
        else:
            since_best += 1
            if patience is not None and since_best >= patience:
                print(f"early stop after epoch {epoch} (patience {patience})")
                break

    snapshot.save_snapshot(out_dir / "model.snap", best_params, corpus)
    with open(out_dir / "train_log.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(log_lines) + "\n")
    print(f"snapshot -> {out_dir / 'model.snap'}")
    return EXIT_OK


def cmd_evaluate(cfg, snapshot_path):
    # snapshot, data and evaluation errors exit before any output
    kind, params, bound_corpus = snapshot.load_snapshot(snapshot_path)
    corpus = bound_corpus if bound_corpus is not None else load_corpus(cfg)
    _check_dims(params, corpus)
    report = evaluation.evaluate(scoring.scorer_for(params), corpus, eval_config(cfg))
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.tsv").write_text(evaluation.report_table(report), encoding="utf-8")
    (out_dir / "report.txt").write_text(evaluation.report_summary(report), encoding="utf-8")
    print(evaluation.report_summary(report), end="")
    print(f"report -> {out_dir / 'report.tsv'}")
    return EXIT_OK


def _check_dims(params, corpus):
    for size in ("n_users", "n_items", "n_behaviors"):
        have, want = getattr(params, size, None), getattr(corpus, size)
        if have is not None and have != want:
            raise snapshot.SnapshotError(f"snapshot has {have} {size[2:]} but corpus has {want}")


def cmd_predict(snapshot_path, user, behavior, top_k):
    if top_k < 1:
        raise ConfigError(f"--top-k must be at least 1: {top_k}")
    kind, params, corpus = snapshot.load_snapshot(snapshot_path)
    if corpus is None:
        raise snapshot.SnapshotError("snapshot carries no corpus binding; retrain with it")
    if not 0 <= behavior < corpus.n_behaviors:
        raise ConfigError(f"--behavior must be in [0, {corpus.n_behaviors}): {behavior}")
    try:
        uid = corpus.user_ids.index(str(user))
    except ValueError:
        raise ConfigError(f"unknown user {user!r}") from None
    seq = corpus.sequences[uid]
    ranked = scoring.top_k_items(scoring.scorer_for(params), seq, len(seq), behavior, top_k)
    for item, value in ranked:
        print(f"{corpus.item_ids[item]}\t{value:.6f}")
    return EXIT_OK


def run_gradcheck(seed=0, tolerance=1e-4, corrupt=False):
    """Build tiny random instances and check both model kinds.

    Returns (passed, lines). ``corrupt`` injects a sign error as a
    negative control.
    """
    spec = ingestion.SynthSpec(n_users=3, n_items=10, n_behaviors=3,
                               seq_len_range=(12, 12), rng_seed=seed)
    corpus = ingestion.synth_corpus(spec)
    rng = np.random.default_rng(seed)
    tcfg = training.TrainConfig(lam=0.01)
    lines, ok = [], True
    for kind in ("rlbl", "ta-rlbl"):
        if kind == "rlbl":
            params = model.init_rlbl_params(3, corpus.n_items, 3, d=4, n=2, seed=seed + 1)
        else:
            params = time_aware.init_ta_rlbl_params(
                3, corpus.n_items, 3, d=4, n=2, bin_width=3600.0, n_bins=8, seed=seed + 1)
        seq = corpus.sequences[0]
        k = 5
        inst = training.TrainingInstance(
            user_id=0, position=k, behavior=int(seq.behaviors[k]),
            pos_item=int(seq.items[k]),
            neg_item=training.sample_negative(corpus.n_items, int(seq.items[k]), rng),
        )
        injected = (training.group_gradients(params, seq, k, [inst.neg_item], tcfg)[1].scale(-1.0)
                    if corrupt else None)
        report = training.gradient_check(params, seq, k, inst, tolerance=tolerance,
                                         cfg=tcfg, rng=rng, analytic_bundle=injected)
        for name, err in report.max_rel_error.items():
            lines.append(f"{kind}\t{name}\t{err:.3e}\t{'ok' if err <= tolerance else 'FAIL'}")
        ok = ok and report.passed
    return ok, lines


def cmd_gradcheck(seed=0):
    ok, lines = run_gradcheck(seed=seed)
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_CHECK


def cmd_gen_synth(cfg, out_path):
    spec = synth_spec(cfg)
    events = ingestion.generate_synthetic(spec)
    ingestion.write_generic(events, out_path)
    users = len({e.user for e in events})
    items = len({e.item for e in events})
    print(f"{len(events)} events, {users} users, {items} items, "
          f"{spec.n_behaviors} behaviors -> {out_path}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args returns a fresh namespace
def build_parser():
    parser = argparse.ArgumentParser(prog="rlbl", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a snapshot")
    p.add_argument("--config", required=True)

    p = sub.add_parser("evaluate", help="evaluate a snapshot on the test segment")
    p.add_argument("--config", required=True)
    p.add_argument("--snapshot", required=True)

    p = sub.add_parser("predict", help="rank items for one user")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--behavior", type=int, required=True)
    p.add_argument("--top-k", type=int, default=10)

    p = sub.add_parser("gradcheck", help="finite-difference check of both model kinds")

    p = sub.add_parser("gen-synth", help="write a synthetic event log")
    p.add_argument("--config", required=True)
    p.add_argument("--out-file", required=True)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = load_config(args.config, args.seed, args.out)
            return cmd_train(cfg)
        if args.command == "evaluate":
            cfg = load_config(args.config, args.seed, args.out)
            return cmd_evaluate(cfg, args.snapshot)
        if args.command == "predict":
            return cmd_predict(args.snapshot, args.user, args.behavior, args.top_k)
        if args.command == "gradcheck":
            return cmd_gradcheck(seed=args.seed or 0)
        if args.command == "gen-synth":
            cfg = load_config(args.config, args.seed, args.out)
            return cmd_gen_synth(cfg, args.out_file)
        raise ConfigError(f"unknown command {args.command!r}")
    except model.NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ingestion.IoError, snapshot.SnapshotError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # ConfigError, EmptyCorpus and the range checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

import dataclasses
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from rlbl import cli, data, evaluation, ingestion, model, snapshot, training
from rlbl.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    load_config,
    main,
    run_gradcheck,
)
from rlbl.data import MAX_BEHAVIORS
from rlbl.training import TrainConfig


SYNTH_CFG = {
    "dataset": {
        "format": "synthetic",
        "synth": {"n_users": 6, "n_items": 12, "n_behaviors": 2,
                  "seq_len_range": [12, 12], "markov_strength": 0.8},
    },
    "model": {"kind": "rlbl", "d": 4, "n": 2},
    "train": {"epochs": 2, "learning_rate": 0.05},
}


def write_cfg(tmp_path, cfg, name="run.yaml"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def cfg_with_out(tmp_path, extra=None, name="run.yaml"):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    if extra:
        cfg.update(extra)
    return write_cfg(tmp_path, cfg, name)


def test_train_writes_outputs(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    assert (out / "model.snap").exists()
    assert (out / "resolved_config.yaml").exists()
    log = (out / "train_log.tsv").read_text().strip().split("\n")
    assert log[0].startswith("epoch\t")
    assert len(log) == 3  # header + 2 epochs
    assert log[0].split("\t")[-3:] == ["grad_norm_p50", "grad_norm_max", "clip_fraction"]
    for line in log[1:]:
        p50, top, frac = map(float, line.split("\t")[-3:])
        assert 0 < p50 <= top and 0 <= frac <= 1
    resolved = yaml.safe_load((out / "resolved_config.yaml").read_text())
    assert resolved["train"]["epochs"] == 2
    assert resolved["train"]["lam"] == 0.01  # default filled in


def test_evaluate_writes_reports(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    main(["train", "--config", str(cfg)])
    snap = tmp_path / "out" / "model.snap"
    assert main(["evaluate", "--config", str(cfg), "--snapshot", str(snap)]) == EXIT_OK
    assert (tmp_path / "out" / "report.tsv").exists()
    txt = (tmp_path / "out" / "report.txt").read_text()
    assert "MAP" in txt


def test_train_twice_same_seed_byte_identical(tmp_path):
    cfg_a = cfg_with_out(tmp_path / "a", name="a.yaml")
    cfg_b = cfg_with_out(tmp_path / "b", name="b.yaml")
    main(["train", "--config", str(cfg_a)])
    main(["train", "--config", str(cfg_b)])
    a = (tmp_path / "a" / "out" / "model.snap").read_bytes()
    b = (tmp_path / "b" / "out" / "model.snap").read_bytes()
    assert a == b


def test_predict_outputs_topk(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    snap = str(tmp_path / "out" / "model.snap")
    assert main(["predict", "--snapshot", snap, "--user", "u0",
                 "--behavior", "0", "--top-k", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    scores = [float(ln.split("\t")[1]) for ln in lines]
    assert scores == sorted(scores, reverse=True)


def test_cold_predict_builds_one_user(tmp_path, monkeypatch, capsys):
    corpus = ingestion.synth_corpus(ingestion.SynthSpec(n_users=50, n_items=20, n_behaviors=2,
                                                        seq_len_range=(5, 30), rng_seed=3))
    snap = tmp_path / "model.snap"
    snapshot.save_snapshot(snap, model.init_rlbl_params(
        corpus.n_users, corpus.n_items, corpus.n_behaviors, d=3, n=2), corpus)
    built, user_sequence = [], data.UserSequence

    def counted(*args):
        built.append(args[0])
        return user_sequence(*args)

    monkeypatch.setattr(data, "UserSequence", counted)
    user = corpus.user_ids[37]
    assert main(["predict", "--snapshot", str(snap), "--user", user, "--behavior", "1"]) == EXIT_OK
    assert built == [37]
    assert len(capsys.readouterr().out.splitlines()) == 10


def test_predict_unknown_user_is_config_error(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    main(["train", "--config", str(cfg)])
    snap = str(tmp_path / "out" / "model.snap")
    capsys.readouterr()
    assert main(["predict", "--snapshot", snap, "--user", "nobody",
                 "--behavior", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: unknown user 'nobody'\n"


@pytest.mark.parametrize("behavior, top_k", [(2, 3), (99, 3), (-1, 3), (0, 0), (0, -1)])
def test_predict_rejects_bad_behavior_and_top_k(tmp_path, capsys, behavior, top_k):
    cfg = cfg_with_out(tmp_path)  # two behaviors
    main(["train", "--config", str(cfg)])
    capsys.readouterr()
    snap = str(tmp_path / "out" / "model.snap")
    assert main(["predict", "--snapshot", snap, "--user", "u0", "--behavior", str(behavior),
                 "--top-k", str(top_k)]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out == "" and ("--behavior" if top_k > 0 else "--top-k") in out.err


def test_gradcheck_passes(capsys):
    assert main(["gradcheck"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "rlbl" in out and "ta-rlbl" in out


def test_gradcheck_negative_control():
    ok, _ = run_gradcheck(corrupt=True)
    assert not ok


def test_parser_is_built_once_and_parses_afresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["--seed", "3", "predict", "--snapshot", "m.snap",
                               "--user", "u", "--behavior", "1"])
    second = parser.parse_args(["gradcheck"])
    assert (first.seed, first.top_k) == (3, 10)
    assert second.seed is None and not hasattr(second, "top_k")


def test_gen_synth_roundtrip(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    out_file = tmp_path / "events.tsv"
    assert main(["gen-synth", "--config", str(cfg), "--out-file", str(out_file)]) == EXIT_OK
    from rlbl.ingestion import parse_generic

    events = parse_generic(out_file)
    assert len({e.user for e in events}) == 6


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path, extra={"trian": {"epochs": 1}})
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


def test_nested_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, {"train": {"learning_rat": 0.1}})
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.yaml")]) == EXIT_IO


def test_bad_snapshot_is_io_error(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    bad = tmp_path / "bad.snap"
    bad.write_bytes(b"not a snapshot")
    assert main(["evaluate", "--config", str(cfg), "--snapshot", str(bad)]) == EXIT_IO
    assert not (tmp_path / "out").exists()  # nothing is written before the report


def test_dim_mismatch_is_io_error(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path)
    main(["train", "--config", str(cfg)])
    snap = str(tmp_path / "out" / "model.snap")
    # strip the corpus binding so evaluate rebuilds from config
    from rlbl.snapshot import load_snapshot, save_snapshot

    _, params, _ = load_snapshot(snap)
    bare = tmp_path / "bare.snap"
    save_snapshot(bare, params)
    for size, value in (("n_items", 30), ("n_users", 10), ("n_behaviors", 3)):
        other = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
        other["dataset"]["synth"][size] = value
        other["out"] = str(tmp_path / "out2")
        other_cfg = write_cfg(tmp_path, other, name="other.yaml")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(other_cfg),
                     "--snapshot", str(bare)]) == EXIT_IO
        assert f"{size[2:]} but corpus has {value}" in capsys.readouterr().err
        assert not (tmp_path / "out2").exists()


def test_unknown_model_kind(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path, extra={"model": {"kind": "transformer"}})
    assert main(["train", "--config", str(cfg)]) == EXIT_CONFIG


def test_seed_override_changes_model(tmp_path):
    cfg_a = cfg_with_out(tmp_path / "a", name="a.yaml")
    cfg_b = cfg_with_out(tmp_path / "b", name="b.yaml")
    main(["--seed", "1", "train", "--config", str(cfg_a)])
    main(["--seed", "2", "train", "--config", str(cfg_b)])
    a = (tmp_path / "a" / "out" / "model.snap").read_bytes()
    b = (tmp_path / "b" / "out" / "model.snap").read_bytes()
    assert a != b


def test_out_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("RLBL_OUT", str(tmp_path / "envroot"))
    path = write_cfg(tmp_path, SYNTH_CFG, name="envrun.yaml")
    cfg = load_config(path)
    assert cfg["out"] == str(tmp_path / "envroot" / "envrun")


def test_baseline_train_and_evaluate(tmp_path, capsys):
    cfg = cfg_with_out(tmp_path, extra={"model": {"kind": "markov"}})
    assert main(["train", "--config", str(cfg)]) == EXIT_OK
    snap = str(tmp_path / "out" / "model.snap")
    assert main(["evaluate", "--config", str(cfg), "--snapshot", str(snap)]) == EXIT_OK


def test_ta_rlbl_train(tmp_path):
    cfg = cfg_with_out(tmp_path, extra={
        "model": {"kind": "ta-rlbl", "d": 4, "n": 2, "bin_width": 3600.0, "n_bins": 4}})
    assert main(["train", "--config", str(cfg)]) == EXIT_OK


def test_nonfinite_model_is_numeric_error(tmp_path, capsys):
    from rlbl.snapshot import load_snapshot, save_snapshot

    cfg = cfg_with_out(tmp_path)
    main(["train", "--config", str(cfg)])
    snap = tmp_path / "out" / "model.snap"
    _, params, corpus = load_snapshot(snap)
    params.W[0, 0] = np.nan
    save_snapshot(snap, params, corpus)
    with np.errstate(invalid="ignore"):
        assert main(["predict", "--snapshot", str(snap), "--user", "u0",
                     "--behavior", "0"]) == EXIT_NUMERIC
        assert main(["evaluate", "--config", str(cfg), "--snapshot", str(snap)]) == EXIT_NUMERIC


@pytest.mark.parametrize("dataset", [
    {"columns": {"user": 0}},
    {"columns": {"user": 0, "item": 1, "behavior": 2, "timestamp": 3, "rating": 4}},
    {"columns": {"user": 0, "item": 1, "behavior": 2, "timestamp": -1}},
    {"columns": {"user": 0, "item": "1", "behavior": 2, "timestamp": 3}},
    {"columns": [0, 1, 2, 3]},
    {"behavior_map": [1, 2]},
    {"synth": None},
    {"synth": [6, 12]},
    # scalars of the wrong type; a dotted key names a section other than dataset
    {"train.epochs": "ten"},
    {"model.d": "8"},
    {"eval.cutoffs": 5},
    {"eval.cutoffs": [1, 2.5]},
    {"train.lam": True},
    {"train.negatives_per_positive": "2"},
    {"train.clip_norm": "off"},
    {"has_header": "no"},
    # a window of 0 would never ground the recurrent chain
    {"model.n": 0},
    {"model.d": 0},
    # behavior ids are ints below the cap; the log's label "0" maps to them
    {"behavior_map": {"0": MAX_BEHAVIORS}},
    {"behavior_map": {"0": "1"}},
])
def test_nested_map_schema_is_config_error(tmp_path, capsys, dataset):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    if "columns" in dataset or "behavior_map" in dataset:
        events = tmp_path / "events.tsv"
        events.write_text("".join(f"u{t % 2}\ti{t % 5}\t0\t{t}\n" for t in range(24)))
        cfg["dataset"] = {"format": "generic", "path": str(events)}
    for key, value in dataset.items():
        section, _, name = key.rpartition(".")
        cfg.setdefault(section or "dataset", {})[name] = value
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG


@pytest.mark.parametrize("key", ["epochs", "negatives_per_positive", "patience"])
def test_negative_train_counts_are_config_errors(tmp_path, key):
    # -1 used to train nothing (epochs) or stop after the first epoch
    # without a new best (patience), and exit 0
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    cfg["train"][key] = -1
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, values", [
    ("train", {"lam": 1, "clip_norm": math.inf, "patience": None}),
    ("dataset", {"timestamp_unit": 0.001, "target_behaviors": [0, 1], "behavior_map": None}),
    ("model", {"bin_width": 600}),
])
def test_scalar_types_that_fit_are_accepted(tmp_path, section, values):
    # a float key takes an int, and null switches off the keys that allow it
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg.setdefault(section, {}).update(values)
    loaded = load_config(write_cfg(tmp_path, cfg))
    assert {k: loaded[section][k] for k in values} == values


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("key, value", [
    # dataset.synth values are checked against SynthSpec's field types
    ("dataset.synth.n_users", "5"),
    ("dataset.synth.n_users", 2.5),
    ("dataset.synth.seq_len_range", 5),
    ("dataset.synth.markov_strength", "x"),
    # ... and against its ranges
    ("dataset.synth.n_users", 0),
    ("dataset.synth.seq_len_range", [12]),
    # settings that no longer exist are unknown keys
    ("dataset.synth.flip_behavior", 1),
    ("dataset.synth.gap_mean", 60.0),
    # NaN fails every range check
    ("train.lam", NAN),
    ("train.learning_rate", NAN),
    ("train.lr_decay", NAN),
    ("train.clip_norm", NAN),
    ("model.bin_width", INF),
    ("dataset.timestamp_unit", INF),
    ("eval.buckets", [200, 50]),
    ("split", [0.9, 0.2]),
    ("eval.cutoffs", [1, 1, 5]),
    ("dataset.synth.cycle_len", -1),
    ("dataset.synth.cycle_len", 13),
    ("dataset.target_behaviors", [-1]),
    ("dataset.target_behaviors", [1024]),
])
def test_bad_config_values_exit_2_before_any_output(tmp_path, capsys, key, value):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    if key == "model.bin_width":
        cfg["model"]["kind"] = "ta-rlbl"  # which reads bin_width
    if key == "dataset.timestamp_unit":  # which the generic parser scales by
        events = tmp_path / "events.tsv"
        events.write_text("".join(f"u{t % 2}\ti{t % 5}\t0\t{t}\n" for t in range(24)))
        cfg["dataset"] = {"format": "generic", "path": str(events)}
    *sections, name = key.split(".")
    node = cfg
    for section in sections:
        node = node.setdefault(section, {})
    node[name] = value
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("split, shown", [([0.5], "(0.5,)"), ([], "()"),
                                          ([0.7, 0.1, 0.1], "(0.7, 0.1, 0.1)")])
def test_split_of_the_wrong_length_exits_2_before_any_output(tmp_path, capsys, split, shown):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    cfg["split"] = split
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: split must be exactly two fractions (train, validation): {shown}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value, error", [
    # every step backpropagates down the whole chain
    ("bptt_truncation", 2, "unknown config key 'train.bptt_truncation'"),
    # the model kind decides it
    ("train_behavior_mats", False, "unknown config key 'train.train_behavior_mats'"),
    # .inf trains unclipped
    ("clip_norm", None, "config key 'train.clip_norm' must be of type float: None"),
], ids=["bptt_truncation", "train_behavior_mats", "clip_norm"])
def test_removed_train_settings_exit_2_before_any_output(tmp_path, capsys, key, value, error):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    cfg["train"][key] = value
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["rlbl", "ta-rlbl", "linear-rnn"])
def test_train_section_defaults_are_train_config_defaults(tmp_path, kind):
    # but for the CLI's own epochs and patience, the run's seed, and the
    # behavior matrices, which train unless the model is the linear RNN
    cfg = load_config(write_cfg(tmp_path, {"model": {"kind": kind}, "seed": 4}))
    assert cli.train_config(cfg) == TrainConfig(epochs=10, rng_seed=4,
                                                train_behavior_mats=kind != "linear-rnn")
    assert cfg["train"]["patience"] == 5


def _trained_snapshot(tmp_path, cfg_path, epochs):
    """The bytes of a snapshot of the run's corpus and initial parameters
    trained ``epochs`` epochs through training.train."""
    cfg = load_config(cfg_path)
    corpus = cli.load_corpus(cfg)
    params = cli.init_model(cfg, corpus)
    training.train(params, corpus, dataclasses.replace(cli.train_config(cfg), epochs=epochs))
    path = tmp_path / f"reference-{epochs}.snap"
    snapshot.save_snapshot(path, params, corpus)
    return path.read_bytes()


SCRIPTED_MAPS = [0.2, 0.5, 0.4, 0.3, 0.9]


@pytest.mark.parametrize("patience, maps, rows, best_after", [
    (2, SCRIPTED_MAPS, 4, 2),  # epochs 2 and 3 bring no new best
    (None, SCRIPTED_MAPS, 5, 5),
    (2, [None] * 5, 5, 5),  # every validation is empty, and nan counts as a new best
], ids=["patience-2", "no-early-stop", "empty-validation"])
def test_model_snap_holds_the_epoch_with_the_best_validation_map(
        tmp_path, monkeypatch, capsys, patience, maps, rows, best_after):
    scripted = iter(maps)

    def evaluate(*args):
        value = next(scripted)
        if value is None:
            raise evaluation.EmptyEval("no qualifying test instance")
        return SimpleNamespace(map=value)

    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    cfg["train"].update(epochs=5, patience=patience)
    path = write_cfg(tmp_path, cfg)
    monkeypatch.setattr(cli.evaluation, "evaluate", evaluate)
    assert main(["train", "--config", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    log = (tmp_path / "out" / "train_log.tsv").read_text().splitlines()
    assert len(log) == 1 + rows and out[:rows] == log[1:]
    assert [line.split("\t")[4] for line in log[1:]] == [
        "nan" if m is None else f"{m:.6f}" for m in maps[:rows]]
    stop = [f"early stop after epoch {rows - 1} (patience {patience})"] if rows < 5 else []
    assert out[rows:] == stop + [f"snapshot -> {tmp_path / 'out' / 'model.snap'}"]
    assert ((tmp_path / "out" / "model.snap").read_bytes()
            == _trained_snapshot(tmp_path, path, best_after))


def test_failed_run_keeps_the_log_of_the_epochs_it_finished(tmp_path, monkeypatch, capsys):
    calls, sgd_epoch = [], training.sgd_epoch

    def fails_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise model.NumericError("non-finite loss")
        return sgd_epoch(*args, **kwargs)

    monkeypatch.setattr(training, "sgd_epoch", fails_second)
    assert main(["train", "--config", str(cfg_with_out(tmp_path))]) == EXIT_NUMERIC
    log = (tmp_path / "out" / "train_log.tsv").read_text().splitlines()
    assert len(log) == 2 and log[0].startswith("epoch\t")
    assert log[1] == capsys.readouterr().out.splitlines()[0] and log[1].startswith("0\t")
    assert not (tmp_path / "out" / "model.snap").exists()


# each asks for more than a PiB, which no 64-bit address space grants, so the
# allocation fails at once without touching memory
@pytest.mark.parametrize("model_cfg", [{"kind": "ta-rlbl", "n_bins": 10**13},
                                       {"kind": "rlbl", "n": 10**13}], ids=["n_bins", "n"])
def test_a_model_larger_than_memory_exits_2_before_any_output(tmp_path, capsys, model_cfg):
    cfg = yaml.safe_load(yaml.safe_dump(SYNTH_CFG))
    cfg["out"] = str(tmp_path / "out")
    cfg["model"].update(model_cfg)
    assert main(["train", "--config", str(write_cfg(tmp_path, cfg))]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: Unable to allocate ")
    assert not (tmp_path / "out").exists()


def _nan_model_snapshot(tmp_path):
    from rlbl.ingestion import SynthSpec, synth_corpus
    from rlbl.model import init_rlbl_params
    from rlbl.snapshot import save_snapshot

    c = synth_corpus(SynthSpec(n_users=3, n_items=8, seq_len_range=(6, 6)))
    p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=3, n=2)
    p.W[0, 0] = np.nan
    save_snapshot(tmp_path / "nan.snap", p, corpus=c)
    return ["predict", "--snapshot", str(tmp_path / "nan.snap"), "--user", c.user_ids[0],
            "--behavior", "0"]


def _failed_gradcheck(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_gradcheck", functools.partial(run_gradcheck, corrupt=True))
    return ["gradcheck"]


# one input per documented exit code: (code, argv builder)
EXIT_MATRIX = {
    "ok": (EXIT_OK, lambda tmp_path, _: ["train", "--config", str(cfg_with_out(tmp_path))]),
    "config": (EXIT_CONFIG, lambda tmp_path, _: [
        "train", "--config", str(cfg_with_out(tmp_path, extra={"trian": {}}))]),
    "io": (EXIT_IO, lambda tmp_path, _: ["predict", "--snapshot", str(tmp_path / "missing.snap"),
                                         "--user", "u0", "--behavior", "0"]),
    "numeric": (EXIT_NUMERIC, lambda tmp_path, _: _nan_model_snapshot(tmp_path)),
    "check": (EXIT_CHECK, _failed_gradcheck),
}


@pytest.mark.parametrize("case", list(EXIT_MATRIX))
def test_exit_code_matrix(tmp_path, monkeypatch, capsys, case):
    code, argv = EXIT_MATRIX[case]
    with np.errstate(invalid="ignore"):
        assert main(argv(tmp_path, monkeypatch)) == code

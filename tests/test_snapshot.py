import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlbl.baselines import MarkovModel, PopModel
from rlbl.data import EmptyCorpus, Event, build_corpus
from rlbl.model import init_rlbl_params
from rlbl.snapshot import MAGIC, SnapshotError, load_snapshot, save_snapshot
from rlbl.time_aware import init_ta_rlbl_params


def small_corpus(seed=0):
    rng = np.random.default_rng(seed)
    events = []
    for u in range(4):
        for t in range(10):
            events.append(Event(f"user-{u}", f"item-{rng.integers(12)}",
                                int(rng.integers(3)), t * 100))
    return build_corpus(events)


def assert_params_equal(a, b, names):
    for name in names:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_rlbl_roundtrip(tmp_path):
    p = init_rlbl_params(4, 12, 3, d=5, n=2, seed=1)
    f = tmp_path / "m.snap"
    save_snapshot(f, p)
    kind, loaded, corpus = load_snapshot(f)
    assert kind == "rlbl" and corpus is None
    assert_params_equal(p, loaded, ("user_vecs", "item_vecs", "W", "C", "M", "u0"))


def test_ta_rlbl_roundtrip(tmp_path):
    p = init_ta_rlbl_params(4, 12, 3, d=5, n=2, seed=2, bin_width=1800.0, n_bins=6)
    f = tmp_path / "m.snap"
    save_snapshot(f, p)
    kind, loaded, _ = load_snapshot(f)
    assert kind == "ta-rlbl"
    assert loaded.n == 2
    assert loaded.grid.bin_width == 1800.0
    assert np.array_equal(loaded.grid.boundary_mats, p.grid.boundary_mats)
    assert_params_equal(p, loaded, ("user_vecs", "item_vecs", "W", "M", "u0"))


def test_pop_roundtrip(tmp_path):
    c = small_corpus()
    m = PopModel(c)
    f = tmp_path / "pop.snap"
    save_snapshot(f, m)
    kind, loaded, _ = load_snapshot(f)
    assert kind == "pop"
    assert np.array_equal(loaded.item_counts, m.item_counts)


def test_markov_roundtrip(tmp_path):
    c = small_corpus()
    m = MarkovModel(c)
    f = tmp_path / "mk.snap"
    save_snapshot(f, m)
    kind, loaded, _ = load_snapshot(f)
    assert kind == "markov"
    assert np.array_equal(loaded.transitions, m.transitions)
    assert np.array_equal(loaded.fallback, m.fallback)
    assert np.array_equal(loaded.row_observed, m.row_observed)
    assert loaded.row_observed.dtype == bool


def test_corpus_roundtrip(tmp_path):
    c = small_corpus(seed=3)
    p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=3)
    f = tmp_path / "with_corpus.snap"
    save_snapshot(f, p, corpus=c)
    _, _, loaded = load_snapshot(f)
    assert loaded.n_users == c.n_users
    assert loaded.n_items == c.n_items
    assert loaded.n_behaviors == c.n_behaviors
    assert loaded.user_ids == c.user_ids
    assert loaded.item_ids == c.item_ids
    assert np.array_equal(loaded.train_end, c.train_end)
    assert np.array_equal(loaded.valid_end, c.valid_end)
    for a, b in zip(loaded.sequences, c.sequences):
        assert np.array_equal(a.items, b.items)
        assert np.array_equal(a.behaviors, b.behaviors)
        assert np.array_equal(a.timestamps, b.timestamps)


@pytest.mark.parametrize("key", ["user", "item"])
def test_ids_equal_as_strings_are_refused_before_writing(tmp_path, key):
    # build_corpus keeps raw ids as given, so 1 and "1" are two users (or
    # items) that the snapshot, which stores ids as strings, cannot tell apart
    events = [Event(user="x", item="a", behavior=0, timestamp=t) for t in range(4)]
    for raw in (1, "1"):
        ids = {"user": raw, "item": "a"} if key == "user" else {"user": "x", "item": raw}
        events += [Event(behavior=0, timestamp=t, **ids) for t in range(4, 8)]
    c = build_corpus(events)
    p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=2, n=1, seed=0)
    f = tmp_path / "collide.snap"
    with pytest.raises(SnapshotError, match=f"corpus {key}_ids collide as strings"):
        save_snapshot(f, p, corpus=c)
    assert not f.exists()


def test_save_is_byte_deterministic(tmp_path):
    c = small_corpus(seed=4)
    p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=4)
    f1, f2 = tmp_path / "a.snap", tmp_path / "b.snap"
    save_snapshot(f1, p, corpus=c)
    save_snapshot(f2, p, corpus=c)
    assert f1.read_bytes() == f2.read_bytes()


def test_file_starts_with_magic(tmp_path):
    f = tmp_path / "m.snap"
    save_snapshot(f, init_rlbl_params(2, 3, 1, d=2, n=1, seed=0))
    assert f.read_bytes().startswith(MAGIC)


def test_not_a_snapshot(tmp_path):
    f = tmp_path / "junk"
    f.write_bytes(b"hello world, definitely not a snapshot")
    with pytest.raises(SnapshotError):
        load_snapshot(f)


def test_truncated_file(tmp_path):
    f = tmp_path / "m.snap"
    save_snapshot(f, init_rlbl_params(3, 5, 2, d=4, n=2, seed=5))
    data = f.read_bytes()
    f.write_bytes(data[: len(data) - 16])
    with pytest.raises(SnapshotError):
        load_snapshot(f)


def test_file_that_shrinks_while_read_is_snapshot_error(tmp_path, monkeypatch):
    # the size taken when the file is opened still covers the last array,
    # so only the short read itself can catch it
    f = tmp_path / "m.snap"
    save_snapshot(f, init_rlbl_params(3, 5, 2, d=4, n=2, seed=5))
    n = f.stat().st_size
    f.write_bytes(f.read_bytes()[: n - 16])
    monkeypatch.setattr("rlbl.snapshot.os.fstat", lambda fd: type("St", (), {"st_size": n}))
    with pytest.raises(SnapshotError, match="truncated array u0"):
        load_snapshot(f)


def test_loaded_arrays_are_aligned_writeable_and_own_their_memory(tmp_path):
    f = tmp_path / "m.snap"
    c = small_corpus()
    save_snapshot(f, init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=5), corpus=c)
    _, params, corpus = load_snapshot(f)
    for a in (params.user_vecs, params.item_vecs, params.W, params.C, params.M, params.u0,
              corpus.train_end, corpus.valid_end):
        assert a.flags.aligned and a.flags.writeable and a.flags.owndata


def test_missing_file(tmp_path):
    with pytest.raises(SnapshotError):
        load_snapshot(tmp_path / "nope.snap")


@pytest.mark.parametrize("ta", [False, True])
def test_empty_transition_stack_is_snapshot_error(tmp_path, ta):
    # RLBL with no position matrix has window 0, which never grounds the
    # chain; TA-RLBL with no boundary matrix has no matrix to interpolate
    c = small_corpus(seed=8)
    if ta:
        p = init_ta_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=8)
        p.grid.boundary_mats = p.grid.boundary_mats[:0]
    else:
        p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=8)
        p.C = p.C[:0]
    save_snapshot(tmp_path / "m.snap", p, corpus=c)
    with pytest.raises(SnapshotError, match="boundary_mats" if ta else "array C"):
        load_snapshot(tmp_path / "m.snap")


def test_unsupported_object(tmp_path):
    with pytest.raises(SnapshotError):
        save_snapshot(tmp_path / "x.snap", object())


def test_loaded_model_scores_identically(tmp_path):
    from rlbl.scoring import scorer_for

    c = small_corpus(seed=6)
    p = init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=6)
    f = tmp_path / "m.snap"
    save_snapshot(f, p, corpus=c)
    _, loaded, lc = load_snapshot(f)
    seq, lseq = c.sequences[1], lc.sequences[1]
    s1 = scorer_for(p).score_positions(seq, [2, 4], [0, 1])
    s2 = scorer_for(loaded).score_positions(lseq, [2, 4], [0, 1])
    assert np.array_equal(s1, s2)


def _split(blob):
    """(header dict, array bytes) of a snapshot file's contents."""
    hlen = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 8], "little")
    start = len(MAGIC) + 8
    return json.loads(blob[start:start + hlen]), blob[start + hlen:]


def _join(header, payload):
    raw = json.dumps(header).encode("utf-8")
    return MAGIC + len(raw).to_bytes(8, "little") + raw + payload


def _spec(header, name):
    return next(s for s in header["arrays"] if s["name"] == name)


def _rename(header, name):
    _spec(header, name)["name"] = "renamed"


def _set_id(header, key, index, value):
    header["meta"]["corpus"][key][index] = value


MALFORMED = {
    "header is a list": None,
    "no kind": lambda h: h.pop("kind"),
    "no meta": lambda h: h.pop("meta"),
    "no arrays": lambda h: h.pop("arrays"),
    "array without name": lambda h: _spec(h, "W").pop("name"),
    "array without shape": lambda h: _spec(h, "W").pop("shape"),
    "array without dtype": lambda h: _spec(h, "W").pop("dtype"),
    "object dtype": lambda h: _spec(h, "W").update(dtype="object"),
    "float32 dtype": lambda h: _spec(h, "W").update(dtype="float32"),
    "negative shape": lambda h: _spec(h, "u0").update(shape=[-4]),
    "float shape": lambda h: _spec(h, "u0").update(shape=[4.0]),
    "unknown kind": lambda h: h.update(kind="transformer"),
    "kind lacks an array": lambda h: _rename(h, "W"),
    "ta-rlbl lacks bin_width": lambda h: h["meta"].pop("bin_width"),
    "corpus lacks an array": lambda h: _rename(h, "corpus_offsets"),
    "corpus meta lacks user_ids": lambda h: h["meta"]["corpus"].pop("user_ids"),
    "trailing bytes": None,
    # values and cross-array shapes
    "n_users is a string": lambda h: h["meta"]["corpus"].update(n_users="4"),
    "n_users past the corpus": lambda h: h["meta"]["corpus"].update(n_users=50),
    "n_behaviors disagrees with M": lambda h: h["meta"]["corpus"].update(n_behaviors=2),
    "user_ids too short": lambda h: h["meta"]["corpus"]["user_ids"].pop(),
    # predict finds a user by id string: a repeat shadows a user, an int never matches
    "user_ids repeat": lambda h: _set_id(h, "user_ids", 1, h["meta"]["corpus"]["user_ids"][0]),
    "user_ids are ints": lambda h: h["meta"]["corpus"].update(
        user_ids=list(range(len(h["meta"]["corpus"]["user_ids"])))),
    "item_ids repeat": lambda h: _set_id(h, "item_ids", 2, h["meta"]["corpus"]["item_ids"][0]),
    "W is 2 x 8": lambda h: _spec(h, "W").update(shape=[2, 8]),
    "float timestamps": lambda h: _spec(h, "corpus_timestamps").update(dtype="float64"),
    "bin_width is a string": lambda h: h["meta"].update(bin_width="3600"),
    "window width 0": lambda h: h["meta"].update(n=0),
    "window width is text": lambda h: h["meta"].update(n="two"),
}

# array name -> (flat index, value) written into the payload
BAD_VALUES = {
    "offsets fall": ("corpus_offsets", 2, 5),
    "offsets end past the events": ("corpus_offsets", 4, 41),
    "item id past n_items": ("corpus_items", 0, 99),
    "negative behavior id": ("corpus_behaviors", 0, -1),
    # split cuts: each user has 10 events, train_end 7 and valid_end 8
    "valid_end below zero": ("corpus_valid_end", 0, -3),
    "negative train_end": ("corpus_train_end", 1, -1),
    "train_end past valid_end": ("corpus_train_end", 2, 9),
    "valid_end past the sequence": ("corpus_valid_end", 3, 11),
}


def _poke(header, payload, name, index, value):
    """The payload with element ``index`` of array ``name`` set to value."""
    start = 0
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        size = int(np.prod(spec["shape"])) * dtype.itemsize
        if spec["name"] == name:
            arr = np.frombuffer(payload[start:start + size], dtype=dtype).copy()
            arr.flat[index] = value
            return payload[:start] + arr.tobytes() + payload[start + size:]
        start += size
    raise KeyError(name)


@pytest.mark.parametrize("case", sorted({**MALFORMED, **BAD_VALUES}))
def test_malformed_snapshot_is_snapshot_error(tmp_path, capsys, case):
    from rlbl.cli import EXIT_IO, main

    c = small_corpus(seed=7)
    p = init_ta_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=4, n=2, seed=7)
    f = tmp_path / "m.snap"
    save_snapshot(f, p, corpus=c)
    header, payload = _split(f.read_bytes())
    if case == "trailing bytes":
        payload += b"\0"
    elif case == "header is a list":
        header = [header]
    elif case in BAD_VALUES:
        payload = _poke(header, payload, *BAD_VALUES[case])
    else:
        MALFORMED[case](header)
    f.write_bytes(_join(header, payload))
    with pytest.raises(SnapshotError):
        load_snapshot(f)
    assert main(["predict", "--snapshot", str(f), "--user", "user-0", "--behavior", "0"]) == EXIT_IO


@pytest.mark.parametrize("name, value", [("corpus_items", "n_items"), ("corpus_items", -1),
                                         ("corpus_behaviors", "n_behaviors")])
def test_bad_id_of_a_user_not_predicted_is_snapshot_error(tmp_path, capsys, name, value):
    # the checks cover every user's events, not only the one a predict reads
    from rlbl.cli import EXIT_IO, main

    c = small_corpus(seed=8)
    f = tmp_path / "m.snap"
    save_snapshot(f, init_rlbl_params(c.n_users, c.n_items, c.n_behaviors, d=3, n=2, seed=8),
                  corpus=c)
    header, payload = _split(f.read_bytes())
    value = getattr(c, value) if isinstance(value, str) else value
    f.write_bytes(_join(header, _poke(header, payload, name, 35, value)))  # user-3's 6th event
    assert main(["predict", "--snapshot", str(f), "--user", "user-0", "--behavior", "0"]) == EXIT_IO
    assert f"{name} holds ids outside" in capsys.readouterr().err


def _model(kind, corpus, d, n, seed):
    if kind == "ta-rlbl":
        return init_ta_rlbl_params(corpus.n_users, corpus.n_items, corpus.n_behaviors,
                                   d=d, n=n, seed=seed, bin_width=600.0, n_bins=3)
    return init_rlbl_params(corpus.n_users, corpus.n_items, corpus.n_behaviors, d=d, n=n, seed=seed)


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@SETTINGS
@given(kind=st.sampled_from(["rlbl", "ta-rlbl"]), d=st.integers(1, 4), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1),
       events=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 6), st.integers(0, 2),
                                 st.integers(0, 10 ** 12)), min_size=3, max_size=40))
def test_snapshot_roundtrip_property(tmp_path, kind, d, n, seed, events):
    # what is saved loads back equal, and saving it again gives the same bytes
    try:
        c = build_corpus([Event(f"u{u}", f"i{i}", b, t) for u, i, b, t in events])
    except EmptyCorpus:  # no user with 3 events
        return
    p = _model(kind, c, d, n, seed)
    f, again = tmp_path / "a.snap", tmp_path / "b.snap"
    for path in (f, again):
        path.unlink(missing_ok=True)  # a new file: truncating one can wait on a flush
    save_snapshot(f, p, corpus=c)
    loaded_kind, loaded, lc = load_snapshot(f)
    assert loaded_kind == kind
    assert_params_equal(p, loaded, ("user_vecs", "item_vecs", "W", "trans", "M", "u0"))
    assert (lc.n_users, lc.n_items, lc.n_behaviors, lc.user_ids, lc.item_ids) == (
        c.n_users, c.n_items, c.n_behaviors, c.user_ids, c.item_ids)
    assert np.array_equal(lc.train_end, c.train_end) and np.array_equal(lc.valid_end, c.valid_end)
    for a, b in zip(lc.sequences, c.sequences, strict=True):
        for name in ("items", "behaviors", "timestamps"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    save_snapshot(again, loaded, corpus=lc)
    assert again.read_bytes() == f.read_bytes()


@pytest.fixture(scope="module")
def snapshot_blobs(tmp_path_factory):
    """A corpus-bound snapshot file's bytes for each model kind."""
    c = small_corpus(seed=12)
    blobs = {}
    for kind in ("rlbl", "ta-rlbl"):
        f = tmp_path_factory.mktemp("blobs") / f"{kind}.snap"
        save_snapshot(f, _model(kind, c, 3, 2, 12), corpus=c)
        blobs[kind] = f.read_bytes()
    return blobs


@settings(SETTINGS, max_examples=400)
@given(kind=st.sampled_from(["rlbl", "ta-rlbl"]),
       flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 7)), max_size=3),
       cut=st.none() | st.floats(0, 1, exclude_max=True))
def test_truncated_or_bit_flipped_snapshot_raises_only_snapshot_error(
        tmp_path, snapshot_blobs, kind, flips, cut):
    blob = bytearray(snapshot_blobs[kind])
    for where, bit in flips:
        blob[int(where * len(blob))] ^= 1 << bit
    if cut is not None:
        blob = blob[:int(cut * len(blob))]
    f = tmp_path / "m.snap"
    f.unlink(missing_ok=True)
    f.write_bytes(bytes(blob))
    try:
        load_snapshot(f)
    except SnapshotError:
        pass

"""Versioned binary snapshot container for models and their corpus binding.

Layout (little-endian):

    bytes 0..5   magic  b"RLBL" + version byte + b"\\n"
    bytes 6..13  uint64 header length H
    next H bytes UTF-8 JSON header: {"kind", "meta", "arrays": [
                     {"name", "shape", "dtype"}, ...]}
    then the raw C-order bytes of each array, in header order.

The writer emits no timestamps or other volatile state, so identical
inputs produce byte-identical files. Model kinds: "rlbl", "ta-rlbl",
"pop", "markov". A corpus may be embedded so that prediction can rebuild
user histories from the snapshot alone; it is stored as the flat,
user-sorted event arrays and offsets that Corpus.from_arrays reads.
"""

import json
import math
import os

import numpy as np

from rlbl.baselines import MarkovModel, PopModel
from rlbl.data import Corpus
from rlbl.model import RlblParams
from rlbl.time_aware import TaRlblParams, TimeBinGrid

MAGIC = b"RLBL\x01\n"

# what the reader requires: the dtypes the writer emits, and per model kind
# the arrays and meta keys it rebuilds from
DTYPES = ("float64", "int64", "int8")
KIND_ARRAYS = {
    "rlbl": ("user_vecs", "item_vecs", "W", "C", "M", "u0"),
    "ta-rlbl": ("user_vecs", "item_vecs", "W", "boundary_mats", "M", "u0"),
    "pop": ("item_counts",),
    "markov": ("transitions", "fallback", "row_observed"),
}
KIND_META = {"ta-rlbl": ("bin_width", "n")}
CORPUS_ARRAYS = ("corpus_offsets", "corpus_items", "corpus_behaviors",
                 "corpus_timestamps", "corpus_train_end", "corpus_valid_end")
CORPUS_META = ("n_users", "n_items", "n_behaviors", "user_ids", "item_ids")
# the shape of each array, one letter per axis: equal letters are equal
# sizes, bound by the corpus meta when present (u users, o = u + 1
# offsets, i items, b behaviors) or else by the first array that has them;
# d is the latent size, e the corpus events, + any size of at least 1 (no
# position or boundary matrix would leave the forward chain without a step)
SHAPES = {"user_vecs": "ud", "item_vecs": "id", "W": "dd", "C": "+dd", "boundary_mats": "+dd",
          "M": "bdd", "u0": "d", "item_counts": "i", "transitions": "ii", "fallback": "i",
          "row_observed": "i", "corpus_offsets": "o", "corpus_items": "e", "corpus_behaviors": "e",
          "corpus_timestamps": "e", "corpus_train_end": "u", "corpus_valid_end": "u"}


class SnapshotError(ValueError):
    """Raised for unreadable or incompatible snapshot files."""


def _model_payload(params):
    if isinstance(params, RlblParams):
        return "rlbl", {}, [(name, getattr(params, name)) for name in KIND_ARRAYS["rlbl"]]
    if isinstance(params, TaRlblParams):
        return "ta-rlbl", {"bin_width": params.grid.bin_width, "n": params.n}, [
            (name, getattr(params.grid if name == "boundary_mats" else params, name))
            for name in KIND_ARRAYS["ta-rlbl"]]
    if isinstance(params, PopModel):
        return "pop", {}, [("item_counts", params.item_counts)]
    if isinstance(params, MarkovModel):
        return "markov", {}, [
            ("transitions", params.transitions),
            ("fallback", params.fallback),
            ("row_observed", params.row_observed.astype(np.int8)),
        ]
    raise SnapshotError(f"cannot snapshot object of type {type(params).__name__}")


def _corpus_payload(corpus):
    offsets = np.cumsum([0] + [len(s) for s in corpus.sequences], dtype=np.int64)
    items = np.concatenate([s.items for s in corpus.sequences])
    behaviors = np.concatenate([s.behaviors for s in corpus.sequences])
    timestamps = np.concatenate([s.timestamps for s in corpus.sequences])
    meta = {
        "n_users": corpus.n_users,
        "n_items": corpus.n_items,
        "n_behaviors": corpus.n_behaviors,
        "user_ids": [str(x) for x in corpus.user_ids],
        "item_ids": [str(x) for x in corpus.item_ids],
    }
    for key in ("user_ids", "item_ids"):  # the reader looks ids up by string
        if len(set(meta[key])) != len(meta[key]):
            raise SnapshotError(f"corpus {key} collide as strings; a snapshot could not be read back")
    arrays = list(zip(CORPUS_ARRAYS, (offsets, items, behaviors, timestamps,
                                      corpus.train_end, corpus.valid_end)))
    return meta, arrays


def save_snapshot(path, params, corpus=None):
    """Write a model (and optionally its corpus) to a snapshot file. Raises
    SnapshotError, before the file is opened, for what load_snapshot would
    refuse."""
    kind, meta, arrays = _model_payload(params)
    meta = dict(meta)
    if corpus is not None:
        corpus_meta, corpus_arrays = _corpus_payload(corpus)
        meta["corpus"] = corpus_meta
        arrays = arrays + corpus_arrays
    header = {
        "kind": kind,
        "meta": meta,
        "arrays": [
            {"name": name, "shape": list(a.shape), "dtype": str(np.asarray(a).dtype)}
            for name, a in arrays
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a).tobytes())


def _rebuild_model(kind, meta, arrs):
    if kind == "rlbl":
        return RlblParams(arrs["user_vecs"], arrs["item_vecs"], arrs["W"],
                          arrs["C"], arrs["M"], arrs["u0"])
    if kind == "ta-rlbl":
        grid = TimeBinGrid(bin_width=float(meta["bin_width"]),
                           boundary_mats=arrs["boundary_mats"])
        return TaRlblParams(arrs["user_vecs"], arrs["item_vecs"], arrs["W"],
                            grid, arrs["M"], arrs["u0"], n=int(meta["n"]))
    if kind == "pop":
        m = PopModel()
        m.item_counts = arrs["item_counts"]
        return m
    if kind == "markov":
        m = MarkovModel()
        m.transitions = arrs["transitions"]
        m.fallback = arrs["fallback"]
        m.row_observed = arrs["row_observed"].astype(bool)
        return m
    raise SnapshotError(f"unknown model kind {kind!r}")


def _require(path, what, mapping, keys):
    if not isinstance(mapping, dict):
        raise SnapshotError(f"{path}: {what} is not a mapping")
    missing = [k for k in keys if k not in mapping]
    if missing:
        raise SnapshotError(f"{path}: {what} lacks {', '.join(missing)}")


def _array_spec(path, spec):
    """(name, dtype, shape) of one header array entry, checked."""
    _require(path, "array entry", spec, ("name", "shape", "dtype"))
    if not isinstance(spec["name"], str):
        raise SnapshotError(f"{path}: array name {spec['name']!r} is not a string")
    if spec["dtype"] not in DTYPES:
        raise SnapshotError(f"{path}: array {spec['name']!r} has dtype {spec['dtype']!r}")
    shape = spec["shape"]
    if not isinstance(shape, list) or not all(type(x) is int and x >= 0 for x in shape):
        raise SnapshotError(f"{path}: array {spec['name']!r} has shape {shape!r}")
    return spec["name"], np.dtype(spec["dtype"]), tuple(shape)


def _check_values(path, kind, meta, arrs):
    """Meta value types and cross-array shapes, so that the rebuilt model
    and corpus index consistently."""
    sizes, c = {}, meta.get("corpus")
    if c is not None:
        if not all(type(c[k]) is int and c[k] >= 0 for k in ("n_users", "n_items", "n_behaviors")):
            raise SnapshotError(f"{path}: meta.corpus counts must be non-negative ints")
        sizes = {"u": c["n_users"], "o": c["n_users"] + 1, "i": c["n_items"], "b": c["n_behaviors"]}
        for key, n in (("user_ids", c["n_users"]), ("item_ids", c["n_items"])):
            ids = c[key]  # predict looks users up by their id string
            if not (isinstance(ids, list) and len(ids) == n
                    and set(map(type, ids)) <= {str} and len(set(ids)) == n):
                raise SnapshotError(f"{path}: meta.corpus.{key} must list {n} distinct string ids")
    for name in KIND_ARRAYS[kind] + (CORPUS_ARRAYS if c is not None else ()):
        shape, letters = arrs[name].shape, SHAPES[name]
        if len(shape) != len(letters) or any(
                n < 1 if x == "+" else sizes.setdefault(x, n) != n for x, n in zip(letters, shape)):
            raise SnapshotError(f"{path}: array {name} has shape {shape}, not {letters!r} {sizes}")
    n, bw = meta.get("n", 1), meta.get("bin_width", 1.0)  # a window of 0 never grounds
    if not (type(n) is int and n >= 1 and type(bw) in (int, float) and 0 < bw < math.inf):
        raise SnapshotError(f"{path}: window width {n!r} or bin_width {bw!r} is invalid")
    if c is not None:
        off = arrs["corpus_offsets"]
        if (any(arrs[name].dtype != np.int64 for name in CORPUS_ARRAYS) or off[0] != 0
                or np.any(np.diff(off) < 0) or off[-1] != sizes["e"]):
            raise SnapshotError(f"{path}: corpus arrays are not int64, or corpus_offsets "
                                f"do not rise from 0 to the {sizes['e']} events")
        for name, n in (("corpus_items", c["n_items"]), ("corpus_behaviors", c["n_behaviors"])):
            # one pass: as uint64 a negative id reads above any count
            if arrs[name].size and int(arrs[name].view(np.uint64).max()) >= n:
                raise SnapshotError(f"{path}: {name} holds ids outside [0, {n})")
        train_end, valid_end = arrs["corpus_train_end"], arrs["corpus_valid_end"]
        if np.any((train_end < 0) | (train_end > valid_end) | (valid_end > np.diff(off))):
            raise SnapshotError(f"{path}: corpus split cuts break 0 <= train_end <= "
                                f"valid_end <= sequence length")


def load_snapshot(path):
    """Read a snapshot; returns (kind, model, corpus-or-None).

    Each array is read from the file straight into its own buffer, so no
    copy of the whole file is made. Anything malformed, truncated or
    incomplete raises SnapshotError.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if fh.read(len(MAGIC)) != MAGIC:
                raise SnapshotError(f"{path}: not a snapshot file")
            hlen = int.from_bytes(fh.read(8), "little")
            off = len(MAGIC) + 8 + hlen
            try:
                header = json.loads(fh.read(min(hlen, size)).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SnapshotError(f"{path}: corrupt header: {exc}") from exc
            _require(path, "header", header, ("kind", "meta", "arrays"))
            if not isinstance(header["arrays"], list):
                raise SnapshotError(f"{path}: header arrays is not a list")
            arrs = {}
            for spec in header["arrays"]:
                name, dtype, shape = _array_spec(path, spec)
                nbytes = math.prod(shape) * dtype.itemsize
                if off + nbytes > size:
                    raise SnapshotError(f"{path}: truncated array {name}")
                arrs[name] = a = np.empty(shape, dtype)
                if fh.readinto(a.reshape(-1).view(np.uint8)) != nbytes:  # the file shrank
                    raise SnapshotError(f"{path}: truncated array {name}")
                off += nbytes
    except OSError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}") from exc
    if off != size:
        raise SnapshotError(f"{path}: file has {size} bytes, its header describes {off}")

    kind = header["kind"]
    meta = header["meta"]
    if not isinstance(kind, str) or kind not in KIND_ARRAYS:
        raise SnapshotError(f"{path}: unknown model kind {kind!r}")
    _require(path, "arrays", arrs, KIND_ARRAYS[kind])
    _require(path, "meta", meta, KIND_META.get(kind, ()))
    if "corpus" in meta:
        _require(path, "arrays", arrs, CORPUS_ARRAYS)
        _require(path, "meta.corpus", meta["corpus"], CORPUS_META)
    _check_values(path, kind, meta, arrs)
    model = _rebuild_model(kind, meta, arrs)
    c = meta.get("corpus")
    corpus = None if c is None else Corpus.from_arrays(
        *(arrs[name] for name in CORPUS_ARRAYS), c["n_items"], c["n_behaviors"],
        c["user_ids"], c["item_ids"])
    return kind, model, corpus

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rlbl.data import MAX_BEHAVIORS, EmptyCorpus, Event, build_corpus
from rlbl.ingestion import (
    ColumnSpec,
    FormatError,
    IoError,
    ParseReport,
    SynthSpec,
    generate_synthetic,
    parse_generic,
    parse_movielens,
    synth_corpus,
    synth_spec_from_dict,
    write_generic,
)


# --- movielens format -------------------------------------------------------

def test_movielens_line_oracle(tmp_path):
    f = tmp_path / "ratings.dat"
    f.write_text("1::1193::5::978300760\n")
    events = parse_movielens(f)
    assert events == [Event(user="1", item="1193", behavior=4, timestamp=978300760)]


def test_movielens_rating_to_behavior_mapping(tmp_path):
    f = tmp_path / "r.dat"
    f.write_text("".join(f"7::42::{r}::1000\n" for r in range(1, 6)))
    events = parse_movielens(f)
    assert [e.behavior for e in events] == [0, 1, 2, 3, 4]


def test_movielens_blank_lines_ignored(tmp_path):
    f = tmp_path / "r.dat"
    f.write_text("\n1::2::3::4\n\n")
    rep = ParseReport()
    events = parse_movielens(f, rep)
    assert len(events) == 1 and rep.n_lines == 1


def test_movielens_malformed_collected(tmp_path):
    lines = [f"{u}::{u}::1::{u}\n" for u in range(1, 400)]
    lines[10] = "garbage\n"
    lines[20] = "1::2::nine::3\n"
    lines[30] = "1::2::9::3\n"   # rating out of range
    f = tmp_path / "r.dat"
    f.write_text("".join(lines))
    rep = ParseReport()
    events = parse_movielens(f, rep)
    assert len(rep.malformed) == 3
    assert len(events) == 396
    assert rep.malformed[0][0] == 11  # 1-based line numbers


def test_movielens_too_many_malformed_raises(tmp_path):
    f = tmp_path / "r.dat"
    f.write_text("junk\n" * 5 + "1::2::3::4\n" * 95)
    with pytest.raises(FormatError):
        parse_movielens(f)


def test_missing_file_raises_io():
    with pytest.raises(IoError):
        parse_movielens("/nonexistent/path.dat")


# --- generic format ---------------------------------------------------------

def test_generic_roundtrip(tmp_path):
    events = [Event("alice", "book-1", 0, 100), Event("bob", "book-2", 2, 250)]
    f = tmp_path / "log.tsv"
    write_generic(events, f)
    assert parse_generic(f) == events


def test_generic_custom_columns_and_header(tmp_path):
    f = tmp_path / "log.csv"
    f.write_text("ts,beh,item,user\n50,1,i9,u3\n")
    spec = ColumnSpec(delimiter=",", timestamp=0, behavior=1, item=2, user=3,
                      has_header=True)
    events = parse_generic(f, spec)
    assert events == [Event("u3", "i9", 1, 50)]


def test_generic_unknown_behavior_label_is_format_error(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text("u\ti\tclick\t1\nu\ti\tmystery\t2\n")
    with pytest.raises(FormatError, match="mystery"):
        parse_generic(f, behavior_map={"click": 0, "buy": 1})


def test_generic_timestamp_unit_scaling(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text("u\ti\t0\t3\n")
    events = parse_generic(f, ColumnSpec(timestamp_unit=86400))
    assert events[0].timestamp == 3 * 86400


def test_generic_negative_values_malformed(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text("u\ti\t0\t-5\n" + "u\ti\t0\t1\n" * 200)
    rep = ParseReport()
    events = parse_generic(f, report=rep)
    assert len(events) == 200 and len(rep.malformed) == 1


def test_generic_behavior_past_cap_is_malformed(tmp_path):
    # a behavior of 10^12 used to pass, and rlbl train then sized M by it
    lines = [f"u{t % 3}\ti{t % 4}\t1\t{t}\n" for t in range(300)]
    lines[10] = f"u0\ti0\t{10 ** 12}\t10\n"
    lines[20] = f"u0\ti0\t{MAX_BEHAVIORS}\t20\n"
    lines[30] = f"u0\ti0\t{MAX_BEHAVIORS - 1}\t30\n"  # the largest id fits
    f = tmp_path / "log.tsv"
    f.write_text("".join(lines))
    rep = ParseReport()
    events = parse_generic(f, report=rep)
    assert [line for line, _ in rep.malformed] == [11, 21]
    assert build_corpus(events).n_behaviors == MAX_BEHAVIORS


@pytest.mark.parametrize("fmt", ["generic", "movielens"])
def test_timestamp_past_int64_is_malformed(tmp_path, fmt):
    # a 20-digit timestamp used to reach build_corpus and raise OverflowError
    sep, parse = ("\t", parse_generic) if fmt == "generic" else ("::", parse_movielens)
    lines = [f"u{t % 3}{sep}i{t % 4}{sep}1{sep}{t}\n" for t in range(200)]
    lines[50] = f"u0{sep}i0{sep}1{sep}{'9' * 20}\n"
    lines[60] = f"u0{sep}i0{sep}1{sep}{2 ** 63}\n"
    lines[70] = f"u0{sep}i0{sep}1{sep}{2 ** 63 - 1}\n"  # the largest int64 fits
    f = tmp_path / "log.txt"
    f.write_text("".join(lines))
    rep = ParseReport()
    events = parse(f, report=rep)
    assert [line for line, _ in rep.malformed] == [51, 61]
    assert build_corpus(events).n_users == 3


def test_scaled_timestamp_past_int64_is_malformed(tmp_path):
    f = tmp_path / "log.tsv"
    f.write_text(f"u\ti\t0\t{2 ** 63 // 86400 + 1}\n" + "u\ti\t0\t1\n" * 200)
    rep = ParseReport()
    events = parse_generic(f, ColumnSpec(timestamp_unit=86400), report=rep)
    assert len(events) == 200 and len(rep.malformed) == 1


# any field text, and the numbers a log might carry, including past int64
FIELD = st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str), st.text(max_size=6),
                  st.sampled_from(["", "0", "-1", "9" * 20, "1e3", " 7 ", "3.5"]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fmt=st.sampled_from(["generic", "movielens"]),
       unit=st.sampled_from([1, 86400, 0.001]),
       edits=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 4), FIELD), max_size=3),
       junk=st.lists(st.tuples(st.integers(0, 199), st.text()), max_size=1))
def test_parser_fuzz_raises_only_format_errors(tmp_path, fmt, unit, edits, junk):
    # 200 good lines with up to 3 fields rewritten (field 4 appends one) and
    # a line replaced by any text: the parse either raises FormatError or
    # returns events that build_corpus accepts
    sep = "\t" if fmt == "generic" else "::"
    rows = [[f"u{t % 3}", f"i{t % 4}", "1", str(t)] for t in range(200)]
    for at, col, value in edits:
        rows[at][col:col + 1] = [value]
    lines = [sep.join(row) for row in rows]
    for at, text in junk:
        lines[at] = text
    f = tmp_path / "log.txt"
    f.unlink(missing_ok=True)  # a new file: truncating one can wait on a flush
    f.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogatepass")
    try:
        events = (parse_generic(f, ColumnSpec(timestamp_unit=unit)) if fmt == "generic"
                  else parse_movielens(f))
    except FormatError:
        return
    try:
        build_corpus(events)
    except EmptyCorpus:
        pass


def test_write_generic_rejects_delimiter_in_field(tmp_path):
    with pytest.raises(FormatError):
        write_generic([Event("a\tb", "i", 0, 1)], tmp_path / "x.tsv")


@pytest.mark.parametrize("user, item", [("u\r1", "i0"), ("u0", "i\n2")])
def test_write_generic_rejects_line_breaks_in_fields(tmp_path, user, item):
    # a line break splits the event's line; in a log of 302 events the broken
    # lines stay under parse_generic's 1% malformed limit, so the log would
    # read back short without an error ("u\r1" even leaves a user "1")
    events = [Event(f"u{t % 3}", f"i{t % 7}", 0, t) for t in range(301)]
    events.append(Event(user, item, 0, 301))
    with pytest.raises(FormatError, match="line break"):
        write_generic(events, tmp_path / "x.tsv")


# --- synthetic generator ----------------------------------------------------

def test_synth_deterministic():
    spec = SynthSpec(n_users=5, n_items=10, rng_seed=9)
    assert generate_synthetic(spec) == generate_synthetic(spec)
    spec2 = SynthSpec(n_users=5, n_items=10, rng_seed=10)
    assert generate_synthetic(spec) != generate_synthetic(spec2)


def test_synth_shapes_and_ranges():
    spec = SynthSpec(n_users=20, n_items=15, n_behaviors=4, seq_len_range=(8, 12),
                     rng_seed=1)
    events = generate_synthetic(spec)
    by_user = {}
    for e in events:
        by_user.setdefault(e.user, []).append(e)
    assert len(by_user) == 20
    for seq in by_user.values():
        assert 8 <= len(seq) <= 12
        assert all(0 <= e.behavior < 4 for e in seq)
        ts = [e.timestamp for e in seq]
        assert all(b > a for a, b in zip(ts, ts[1:]))  # strictly increasing


def test_synth_behaviors_roughly_uniform():
    spec = SynthSpec(n_users=50, n_items=10, n_behaviors=3, seq_len_range=(30, 30),
                     rng_seed=2)
    events = generate_synthetic(spec)
    counts = np.bincount([e.behavior for e in events], minlength=3)
    n = counts.sum()
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) <= 4 * sigma)


def test_markov_strength_one_follows_permutation():
    # with no flips and strength 1, every transition obeys one permutation
    spec = SynthSpec(n_users=30, n_items=20, n_behaviors=2, markov_strength=1.0,
                     behavior_flip_prob=0.0, seq_len_range=(15, 15), rng_seed=3)
    events = generate_synthetic(spec)
    succ = {}
    prev = {}
    for e in events:
        cur = int(e.item[1:])
        if e.user in prev:
            src = prev[e.user]
            assert succ.setdefault(src, cur) == cur
        prev[e.user] = cur
    # injective: it really is a permutation restricted to visited items
    assert len(set(succ.values())) == len(succ)


def test_markov_strength_zero_is_unpredictable():
    spec = SynthSpec(n_users=40, n_items=5, markov_strength=0.0,
                     seq_len_range=(40, 40), rng_seed=4)
    events = generate_synthetic(spec)
    trans = np.zeros((5, 5))
    prev = {}
    for e in events:
        cur = int(e.item[1:])
        if e.user in prev:
            trans[prev[e.user], cur] += 1
        prev[e.user] = cur
    rows = trans / trans.sum(axis=1, keepdims=True)
    assert np.all(np.abs(rows - 0.2) < 0.1)


def test_cycle_len_two_plants_period_two_cycles():
    spec = SynthSpec(n_users=10, n_items=8, n_behaviors=1, markov_strength=1.0,
                     cycle_len=2, seq_len_range=(20, 20), rng_seed=5)
    events = generate_synthetic(spec)
    prev = {}
    for e in events:
        cur = int(e.item[1:])
        if e.user in prev:
            src = prev[e.user]
            assert cur == src + 1 if src % 2 == 0 else cur == src - 1
        prev[e.user] = cur


def test_synth_corpus_builds():
    c = synth_corpus(SynthSpec(n_users=8, n_items=12, seq_len_range=(10, 10), rng_seed=6))
    assert c.n_users == 8
    assert c.n_items <= 12


def test_synth_roundtrip_through_generic_file(tmp_path):
    events = generate_synthetic(SynthSpec(n_users=4, n_items=6, rng_seed=7))
    f = tmp_path / "synth.tsv"
    write_generic(events, f)
    assert parse_generic(f) == events


def test_spec_from_dict():
    spec = synth_spec_from_dict({"n_users": 3, "seq_len_range": [5, 9]})
    assert spec.n_users == 3 and spec.seq_len_range == (5, 9)
    with pytest.raises(ValueError):
        synth_spec_from_dict({"n_userz": 3})


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_users=0)
    with pytest.raises(ValueError):
        SynthSpec(markov_strength=1.5)
    with pytest.raises(ValueError):
        SynthSpec(seq_len_range=(9, 5))
    for cycle_len in (0, -1, 7, 2.5, True):
        with pytest.raises(ValueError, match=f"cycle_len .*: {cycle_len!r}"):
            SynthSpec(n_items=6, cycle_len=cycle_len)
    for cycle_len in (None, 1, 6, np.int64(3)):
        assert SynthSpec(n_items=6, cycle_len=cycle_len).cycle_len == cycle_len

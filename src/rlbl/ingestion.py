"""Dataset parsers and a synthetic multi-behavioral sequence generator.

Supported inputs: the Movielens `user::item::rating::timestamp` layout
(rating level 1..5 becomes behavior id 0..4) and a generic one-record-per-
line delimited event log with configurable columns and a behavior-label
map. The synthetic generator plants per-behavior first-order item
transitions so that a correct learner is verifiably better than chance.
"""

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from rlbl.data import MAX_BEHAVIORS, Event


class IoError(OSError):
    """Raised when an input file cannot be read."""


class FormatError(ValueError):
    """Raised when a file is too malformed to trust (>1% bad lines, or an
    unknown behavior label)."""


@dataclass
class ColumnSpec:
    """Column layout of a generic delimited event log."""

    delimiter: str = "\t"
    user: int = 0
    item: int = 1
    behavior: int = 2
    timestamp: int = 3
    has_header: bool = False
    timestamp_unit: int = 1  # seconds per timestamp unit (86400 for day logs)


@dataclass
class ParseReport:
    n_lines: int = 0
    n_records: int = 0
    malformed: list = field(default_factory=list)   # (line number, reason)


MALFORMED_FRACTION_LIMIT = 0.01
INT64_MAX = 2 ** 63 - 1  # build_corpus stores timestamps as int64


def _finish(records, report, path):
    if report.n_lines and len(report.malformed) > MALFORMED_FRACTION_LIMIT * report.n_lines:
        first = report.malformed[0]
        raise FormatError(
            f"{path}: {len(report.malformed)}/{report.n_lines} malformed lines "
            f"(first at line {first[0]}: {first[1]})"
        )
    report.n_records = len(records)
    return records


def _lines(path, report, skip_first=False):
    """(line number, text) of each non-blank line, counted in report.n_lines;
    skip_first drops line 1 (a header). An unreadable file raises IoError."""
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line and not (skip_first and lineno == 1):
                report.n_lines += 1
                yield lineno, line


def parse_movielens(path, report=None):
    """Parse a `user::item::rating::timestamp` ratings file into events.

    The rating value 1..5 maps to behavior id 0..4. Malformed lines
    (including timestamps outside [0, 2^63)) are collected in the report
    with their line numbers; more than 1% of them raises FormatError.
    """
    if report is None:
        report = ParseReport()
    records = []
    for lineno, line in _lines(path, report):
        parts = line.split("::")
        if len(parts) != 4:
            report.malformed.append((lineno, f"expected 4 fields, got {len(parts)}"))
            continue
        user, item, rating_s, ts_s = parts
        try:
            rating = int(rating_s)
            ts = int(ts_s)
        except ValueError:
            report.malformed.append((lineno, "non-integer rating or timestamp"))
            continue
        if not 1 <= rating <= 5 or not 0 <= ts <= INT64_MAX:
            report.malformed.append((lineno, f"rating {rating} or timestamp {ts} out of range"))
            continue
        records.append(Event(user=user, item=item, behavior=rating - 1, timestamp=ts))
    return _finish(records, report, path)


def parse_generic(path, column_spec=None, behavior_map=None, report=None):
    """Parse a delimited event log, mapping behavior labels through behavior_map.

    behavior_map=None accepts integer behavior ids verbatim; with a map, an
    unknown behavior label raises FormatError. A scaled timestamp outside
    [0, 2^63) or a behavior id outside [0, MAX_BEHAVIORS) makes a line
    malformed.
    """
    spec = column_spec or ColumnSpec()
    if report is None:
        report = ParseReport()
    records = []
    need = max(spec.user, spec.item, spec.behavior, spec.timestamp) + 1
    for lineno, line in _lines(path, report, skip_first=spec.has_header):
        parts = line.split(spec.delimiter)
        if len(parts) < need:
            report.malformed.append((lineno, f"expected >= {need} fields, got {len(parts)}"))
            continue
        label = parts[spec.behavior]
        if behavior_map is not None:
            if label not in behavior_map:
                raise FormatError(f"{path}:{lineno}: unknown behavior label {label!r}")
            behavior = int(behavior_map[label])
        else:
            try:
                behavior = int(label)
            except ValueError:
                report.malformed.append((lineno, f"non-integer behavior {label!r}"))
                continue
        try:
            ts = int(parts[spec.timestamp]) * spec.timestamp_unit
        except (ValueError, OverflowError):  # overflow: a huge int times a float unit
            report.malformed.append((lineno, "non-integer timestamp"))
            continue
        if not 0 <= ts <= INT64_MAX or not 0 <= behavior < MAX_BEHAVIORS:
            report.malformed.append((lineno, f"timestamp outside [0, 2^63) or behavior "
                                             f"outside [0, {MAX_BEHAVIORS})"))
            continue
        records.append(Event(user=parts[spec.user], item=parts[spec.item],
                             behavior=behavior, timestamp=ts))
    return _finish(records, report, path)


def write_generic(events, path, delimiter="\t"):
    """Write events in the generic format; round-trips through parse_generic."""
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            for fld in (str(ev.user), str(ev.item)):
                if delimiter in fld or "\n" in fld or "\r" in fld:
                    raise FormatError(f"field {fld!r} contains the delimiter or a line break")
            fh.write(delimiter.join((str(ev.user), str(ev.item),
                                     str(ev.behavior), str(ev.timestamp))) + "\n")


@dataclass
class SynthSpec:
    """Configuration of the synthetic corpus generator.

    With probability markov_strength the next item follows a planted
    permutation; otherwise it is uniform. The highest behavior id "flips"
    the transition: after an event with that behavior the alternative
    permutation applies with probability behavior_flip_prob (mimicking a
    behavior that reverses the preference signal). cycle_len=2 plants a
    period-2 item cycle instead of a random permutation. Consecutive events
    are an exponential gap of mean 3600 s apart (at least 1 s).
    """

    n_users: int = 100
    n_items: int = 100
    n_behaviors: int = 2
    seq_len_range: tuple = (20, 40)
    rng_seed: int = 0
    markov_strength: float = 0.0
    behavior_flip_prob: float = 0.0
    cycle_len: int | None = None

    def __post_init__(self):
        if min(self.n_users, self.n_items, self.n_behaviors) < 1:
            raise ValueError("counts must be >= 1")
        if len(self.seq_len_range) != 2 or not 0 <= self.seq_len_range[0] <= self.seq_len_range[1]:
            raise ValueError(f"seq_len_range must be (lo, hi) with 0 <= lo <= hi: "
                             f"{self.seq_len_range}")
        for p in (self.markov_strength, self.behavior_flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of [0,1]: {p}")
        cyc = self.cycle_len
        if cyc is not None and (isinstance(cyc, bool) or not isinstance(cyc, numbers.Integral)
                                or not 1 <= cyc <= self.n_items):
            raise ValueError(f"cycle_len must be null or an integer in "
                             f"[1, n_items={self.n_items}]: {cyc!r}")


def _planted_permutation(n_items, cycle_len, rng):
    if cycle_len is None:
        return rng.permutation(n_items)
    perm = np.arange(n_items)
    for start in range(0, n_items - cycle_len + 1, cycle_len):
        block = np.arange(start, start + cycle_len)
        perm[block] = np.roll(block, -1)
    return perm


def generate_synthetic(spec):
    """Seeded synthetic corpus as a flat event list (generic-format ids)."""
    rng = np.random.default_rng(spec.rng_seed)
    base_perm = _planted_permutation(spec.n_items, spec.cycle_len, rng)
    flip_perm = rng.permutation(spec.n_items)
    flip_behavior = spec.n_behaviors - 1

    events = []
    lo, hi = spec.seq_len_range
    for u in range(spec.n_users):
        m = int(rng.integers(lo, hi + 1))
        t = int(rng.integers(0, 86400))
        item = int(rng.integers(spec.n_items))
        for j in range(m):
            behavior = int(rng.integers(spec.n_behaviors))
            events.append(Event(user=f"u{u}", item=f"i{item}", behavior=behavior, timestamp=t))
            t += max(int(rng.exponential(3600.0)), 1)
            perm = base_perm
            if behavior == flip_behavior and rng.random() < spec.behavior_flip_prob:
                perm = flip_perm
            if rng.random() < spec.markov_strength:
                item = int(perm[item])
            else:
                item = int(rng.integers(spec.n_items))
    return events


def synth_corpus(spec, split_fracs=(0.7, 0.1)):
    """Convenience: generate and build in one step."""
    from rlbl.data import build_corpus

    return build_corpus(generate_synthetic(spec), split_fracs)


def synth_spec_from_dict(d):
    """Build a SynthSpec from a plain dict, rejecting unknown keys."""
    names = {f.name for f in dataclasses.fields(SynthSpec)}
    unknown = set(d) - names
    if unknown:
        raise ValueError(f"unknown synthetic-spec keys: {sorted(unknown)}")
    kwargs = dict(d)
    if "seq_len_range" in kwargs:
        kwargs["seq_len_range"] = tuple(kwargs["seq_len_range"])
    return SynthSpec(**kwargs)

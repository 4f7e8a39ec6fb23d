"""Per-developer activity metrics and per-commit feature vectors.

Everything is computed in the commit's local time (timestamp shifted by its
embedded offset). Medians of even-length sequences are the mean of the two
middle values; "regular activity" start/end are nearest-rank 10th/90th
percentiles of weekday commit hours.

Histories, their calendar and the 16 per-developer metrics come from the
History pass, native.sort_histories, local_calendar and activity, and each
commit's feature row from native.commit_rows: the compiled ones, or without
the library their Python twins here (sort_histories_py, local_calendar_py,
activity_py, commit_rows_py), which give the same results bit for bit;
paydev.native chooses. So this module imports no numpy: feature_matrix and
commit_features give their rows as one array("d"), one row after another.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, fields
from math import nan
from typing import NamedTuple


from paydev import native
from paydev.model import read_features_csv  # noqa: F401  perfbench/tracing.py wraps it here
from paydev.native import LOCAL_MAX, LOCAL_MIN


@dataclass(frozen=True)
class DeveloperFeatures:
    period: int
    days: int
    weeks: int
    timediff: float
    commits: int
    loc_per_commit: float
    weekend: float
    night: float
    morning: float
    afternoon: float
    evening: float
    office: float
    most_active_hour: int
    beginning_regular: int
    length_regular: int
    end_regular: int


FEATURE_COLUMNS = [f.name for f in fields(DeveloperFeatures)]

VOLUME_COLUMNS = {"commits", "days", "weeks", "period"}

COMMIT_FEATURE_COLUMNS = [
    "weekend_flag",
    "hour",
    "night_flag",
    "morning_flag",
    "afternoon_flag",
    "evening_flag",
    "office_flag",
    "loc",
    "time_since_prev",
    "dev_weekend",
    "dev_night",
    "dev_morning",
    "dev_afternoon",
    "dev_evening",
    "dev_office",
]


class LocalCalendar(NamedTuple):
    """Civil calendar of instants under fixed minutes-east-of-UTC offsets,
    one array("q") per field."""

    day: array  # days since 1970-01-01
    hour: array
    weekday: array  # Monday=0 .. Sunday=6


def to_local(ts_utc, offset_minutes) -> LocalCalendar:
    """Civil day, hour and weekday of each ts_utc shifted by its
    offset_minutes (two int sequences of one length).

    Every local instant must fall in years 1-9999 (see native.LOCAL_MIN and
    LOCAL_MAX); the readers reject records outside them. ValueError names an
    offset outside +-1440 minutes first, then a local time out of range.
    """
    return LocalCalendar(*native.local_calendar(ts_utc, offset_minutes))


class History(NamedTuple):
    """One identity's commits sorted by (timestamp, sha): their shas, author
    addresses, UTC timestamps (array("q")), local calendar and changed lines
    (array("d"), NaN for binary-only commits). Features, labels and
    baselines all read it. Each History owns its arrays."""

    sha: list[str]
    email: list[str]
    ts: array
    local: LocalCalendar
    lines: array


def sort_histories_py(rows, sizes, timestamp, offset, added, deleted):
    """native.sort_histories in Python."""
    order, start = array("q"), 0
    for size in sizes:
        order += array("q", sorted(rows[start:start + size], key=timestamp.__getitem__))
        start += size
    pairs = zip(map(added.__getitem__, order), map(deleted.__getitem__, order))
    return (order, array("q", map(timestamp.__getitem__, order)),
            array("q", map(offset.__getitem__, order)),
            array("d", [float(a) + float(d) if a >= 0 and d >= 0 else nan for a, d in pairs]))


def local_calendar_py(ts, offset):
    """native.local_calendar in Python."""
    if len(offset) != len(ts):
        raise ValueError("local_calendar: ts and offset differ in length")
    if any(o < -1440 or o > 1440 for o in offset):
        raise ValueError("tz offset out of range")
    cal = tuple(array("q") for _ in range(3))
    day_of, hour_of, weekday_of = (c.append for c in cal)
    for t, o in zip(ts, offset):
        local = t + 60 * o
        if not LOCAL_MIN <= local <= LOCAL_MAX:
            raise ValueError("local time outside years 1-9999")
        day, secs = divmod(local, 86400)
        day_of(day)
        hour_of(secs // 3600)
        weekday_of((day + 3) % 7)
    return cal


def _median(s):
    return (s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2


def _nearest_rank(bucket, pct):
    """The hour of nearest rank pct (the ceil(m * pct / 100)-th smallest, at
    least the first) among the m hours counted in bucket."""
    k, seen = max(1, -(-sum(bucket) * pct // 100)), 0
    for hour, count in enumerate(bucket):
        seen += count
        if seen >= k:
            return hour


def activity_py(ts, day, hour, weekday, lines):
    """native.activity in Python."""
    n = len(ts)
    if any(len(c) != n for c in (day, hour, weekday, lines)):
        raise ValueError("activity: the columns differ in length")
    if not n or min(hour) < 0 or max(hour) > 23:
        raise ValueError("activity needs at least one commit, each at an hour 0-23")
    every, work = [0] * 24, [0] * 24  # commits per hour: all, and Monday-Friday
    for h, w in zip(hour, weekday):
        every[h] += 1
        if w < 5:
            work[h] += 1
    gaps = sorted(b - a for a, b in zip(ts, ts[1:]))
    locs = sorted(x for x in lines if x == x)  # NaN marks a binary-only commit
    working = sum(work)
    beginning, end = (_nearest_rank(work, 10), _nearest_rank(work, 90)) if working else (0, 0)
    shares = (n - working, sum(every[:6]), sum(every[6:12]), sum(every[12:18]),
              sum(every[18:]), sum(every[8:17]))
    return (max(day) - min(day), len(set(day)), len({d - w for d, w in zip(day, weekday)}),
            _median([g / 86400.0 for g in gaps]) if gaps else 0.0, n,
            _median(locs) if locs else 0.0, *(count / n for count in shares),
            every.index(max(every)), beginning, end - beginning, end)


def histories(identities, commits) -> dict[str, History]:
    """Each identity's History, keyed by identity id, in the order of
    `identities`, each of which owns rows of the Commits table `commits`.

    One sort_histories call sorts every identity's rows by timestamp and
    gathers their columns, and one to_local call calendars them all; each
    History takes its slice of those arrays."""
    sizes = [len(ident.rows) for ident in identities]
    rows, ts, offset, lines = native.sort_histories(
        [row for ident in identities for row in ident.rows], sizes, commits.timestamp_utc,
        commits.tz_offset_minutes, commits.lines_added, commits.lines_deleted)
    local = to_local(ts, offset)
    out, start = {}, 0
    for ident, size in zip(identities, sizes):
        end = start + size
        picked = rows[start:end]
        out[ident.id] = History(list(map(commits.sha.__getitem__, picked)),
                                list(map(commits.author_email.__getitem__, picked)),
                                ts[start:end], LocalCalendar(*(c[start:end] for c in local)),
                                lines[start:end])
        start = end
    return out


def developer_features(h: History) -> DeveloperFeatures:
    """The 16 activity metrics of one identity's History."""
    if not len(h.ts):
        raise ValueError("developer_features requires at least one commit")
    return DeveloperFeatures(*native.activity(h.ts, *h.local, h.lines))


def compute_features(histories) -> dict[str, DeveloperFeatures]:
    """DeveloperFeatures per identity id, from each identity's History."""
    return {ident_id: developer_features(h) for ident_id, h in histories.items()}


def matrix_columns(mode: str) -> list[str]:
    if mode == "all":
        return list(FEATURE_COLUMNS)
    if mode == "no_volume":
        return [c for c in FEATURE_COLUMNS if c not in VOLUME_COLUMNS]
    raise ValueError(f"unknown feature mode {mode!r}")


def feature_matrix(features_by_id, mode="all"):
    """(X, row ids, column names): X holds one row per identity, sorted by
    identity id, as an array("d") of the rows one after another."""
    columns = matrix_columns(mode)
    ids = sorted(features_by_id)
    X = array("d", [float(getattr(features_by_id[i], c)) for i in ids for c in columns])
    return X, ids, columns


def commit_rows_py(ts, hour, weekday, lines, fill):
    """native.commit_rows in Python."""
    n = len(ts)
    if any(len(c) != n for c in (hour, weekday, lines)) or len(fill) != 8:
        raise ValueError("commit_rows: the columns differ in length, or fill is not 8 values")
    loc, first, *shares = fill
    out, last = array("d"), None
    for t, h, w, x in zip(ts, hour, weekday, lines):
        out.extend((w >= 5, h, h < 6, 6 <= h < 12, 12 <= h < 18, h >= 18, 8 <= h < 17,
                    loc if x != x else x, first if last is None else (t - last) / 86400.0))
        out.extend(shares)
        last = t
    return out


def commit_features(h: History):
    """Per-commit vectors for one identity, aligned with h.sha, next to the
    identity's own aggregates. Returns (X, shas, column names), X an
    array("d") of one row of the COMMIT_FEATURE_COLUMNS per commit, one
    after another."""
    f = developer_features(h)
    X = native.commit_rows(h.ts, h.local.hour, h.local.weekday, h.lines,
                           (f.loc_per_commit, f.timediff, f.weekend, f.night, f.morning,
                            f.afternoon, f.evening, f.office))
    return X, list(h.sha), list(COMMIT_FEATURE_COLUMNS)


def write_features_csv(features_by_id, fileobj, mode="all") -> None:
    """The features CSV: identity column plus the metrics, floats with
    6 decimal digits. An id holding a comma, quote or newline is quoted."""
    columns = matrix_columns(mode)
    out = csv.writer(fileobj, lineterminator="\n")
    out.writerow(["identity", *columns])
    for ident_id in sorted(features_by_id):
        feats = features_by_id[ident_id]
        cells = []
        for name in columns:
            value = getattr(feats, name)
            cells.append(str(value) if isinstance(value, int) else f"{value:.6f}")
        out.writerow([ident_id, *cells])

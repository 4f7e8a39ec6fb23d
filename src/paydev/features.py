"""Per-developer activity metrics and per-commit feature vectors.

Everything is computed in the commit's local time (timestamp shifted by its
embedded offset). Medians of even-length sequences are the mean of the two
middle values; "regular activity" start/end are nearest-rank 10th/90th
percentiles of weekday commit hours.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from paydev.ingest import LOCAL_MAX, LOCAL_MIN
from paydev.model import read_features_csv  # noqa: F401  perfbench/tracing.py wraps it here


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
    one int64 array per field."""

    day: np.ndarray  # days since 1970-01-01
    hour: np.ndarray
    weekday: np.ndarray  # Monday=0 .. Sunday=6
    iso_year: np.ndarray
    iso_week: np.ndarray


def to_local(ts_utc, offset_minutes) -> LocalCalendar:
    """Civil decomposition of each ts_utc shifted by its offset_minutes.

    Every local instant must fall in years 1-9999 (see ingest.LOCAL_MIN and
    LOCAL_MAX); the readers reject records outside them.
    """
    offset = np.asarray(offset_minutes, dtype=np.int64)
    if np.any(np.abs(offset) > 1440):
        raise ValueError("tz offset out of range")
    local = np.asarray(ts_utc, dtype=np.int64) + 60 * offset
    if np.any(local < LOCAL_MIN) or np.any(local > LOCAL_MAX):
        raise ValueError("local time outside years 1-9999")
    day, secs = np.divmod(local, 86400)
    weekday = (day + 3) % 7
    thursday = day + 3 - weekday  # its ISO week's Thursday names the ISO year
    iso_year = thursday.astype("datetime64[D]").astype("datetime64[Y]").astype(np.int64)
    jan1 = iso_year.astype("datetime64[Y]").astype("datetime64[D]").astype(np.int64)
    return LocalCalendar(day, secs // 3600, weekday, iso_year + 1970, (thursday - jan1) // 7 + 1)


class History(NamedTuple):
    """One identity's commits sorted by (timestamp, sha): their shas, author
    addresses, UTC timestamps, local calendar and changed lines (NaN for
    binary-only commits). Features, labels and baselines all read it. The
    arrays are read-only views, shared with the other Histories built with
    it."""

    sha: list[str]
    email: list[str]
    ts: np.ndarray
    local: LocalCalendar
    lines: np.ndarray


def _changed_lines(added, deleted):
    """Lines added plus deleted, as floats; NaN where either is -1 (a
    binary-only commit)."""
    added, deleted = added.astype(np.float64), deleted.astype(np.float64)
    return np.where((added >= 0) & (deleted >= 0), added + deleted, np.nan)


def _owned_rows(identities, commits):
    """The rows of `commits` each identity owns, in sha order, identity
    after identity, and how many each owns. The sha index is freed on
    return, before histories makes its full-size arrays, which keeps the
    peak memory of a command where it was when each identity was built
    alone."""
    row_of = {sha: row for row, sha in enumerate(commits.sha)}
    rows, sizes = [], []
    for ident in identities:
        shas = sorted(ident.commit_shas)
        rows += map(row_of.__getitem__, shas)
        sizes.append(len(shas))
    return np.array(rows, dtype=np.intp), sizes


def histories(identities, commits) -> dict[str, History]:
    """Each identity's History, keyed by identity id, in the order of
    `identities`; every sha an identity owns must be in the Commits table.

    One stable sort by (identity, timestamp) over each identity's rows in
    sha order, one to_local call and one gather per column serve all of
    them; each History is a slice of those arrays."""
    rows, sizes = _owned_rows(identities, commits)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    # views of the table's array("q") columns, not copies
    timestamp, offset, added, deleted = (np.asarray(c) for c in (
        commits.timestamp_utc, commits.tz_offset_minutes, commits.lines_added,
        commits.lines_deleted))
    rows = rows[np.lexsort((timestamp[rows], owner))]  # stable: sha order kept
    ts = timestamp[rows]
    local = to_local(ts, offset[rows])
    lines = _changed_lines(added[rows], deleted[rows])
    for column in (ts, lines, *local):
        column.flags.writeable = False
    out, start = {}, 0
    for ident, size in zip(identities, sizes):
        cut = slice(start, start + size)
        picked = rows[cut].tolist()
        out[ident.id] = History(list(map(commits.sha.__getitem__, picked)),
                                list(map(commits.author_email.__getitem__, picked)), ts[cut],
                                LocalCalendar(*(c[cut] for c in local)), lines[cut])
        start += size
    return out


def _median(values) -> float:
    s = np.sort(values)
    return float((s[(len(s) - 1) // 2] + s[len(s) // 2]) / 2)


def _distinct(values) -> int:
    """The number of distinct values (at least one)."""
    s = np.sort(values)
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def _nearest_rank(sorted_values, pct):
    k = max(1, -(-len(sorted_values) * pct // 100))  # ceil
    return int(sorted_values[k - 1])


def _share(mask) -> float:
    return np.count_nonzero(mask) / len(mask)


def developer_features(h: History) -> DeveloperFeatures:
    """The 16 activity metrics of one identity's History."""
    if not len(h.ts):
        raise ValueError("developer_features requires at least one commit")
    local = h.local
    hour, weekend = local.hour, local.weekday >= 5
    deltas = np.diff(h.ts) / 86400.0
    locs = h.lines[~np.isnan(h.lines)]
    weekday_hours = np.sort(hour[~weekend])
    if len(weekday_hours):
        beginning = _nearest_rank(weekday_hours, 10)
        end = _nearest_rank(weekday_hours, 90)
    else:
        beginning = end = 0
    return DeveloperFeatures(
        period=int(local.day.max() - local.day.min()),
        days=_distinct(local.day),
        weeks=_distinct(local.iso_year * 100 + local.iso_week),
        timediff=_median(deltas) if len(deltas) else 0.0,
        commits=len(h.ts),
        loc_per_commit=_median(locs) if len(locs) else 0.0,
        weekend=_share(weekend),
        night=_share(hour < 6),
        morning=_share((6 <= hour) & (hour < 12)),
        afternoon=_share((12 <= hour) & (hour < 18)),
        evening=_share(18 <= hour),
        office=_share((8 <= hour) & (hour < 17)),
        most_active_hour=int(np.bincount(hour, minlength=24).argmax()),
        beginning_regular=beginning,
        length_regular=end - beginning,
        end_regular=end,
    )


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
    """(X, row ids, column names); rows sorted by identity id."""
    columns = matrix_columns(mode)
    ids = sorted(features_by_id)
    rows = []
    for ident_id in ids:
        feats = features_by_id[ident_id]
        rows.append([float(getattr(feats, c)) for c in columns])
    X = np.array(rows, dtype=np.float64).reshape(len(ids), len(columns))
    return X, ids, columns


def commit_features(h: History):
    """Per-commit vectors for one identity, aligned with h.sha, next to the
    identity's own aggregates. Returns (X, shas, column names)."""
    aggregates = developer_features(h)
    local, ts, lines = h.local, h.ts, h.lines
    hour = local.hour
    since = np.concatenate([[aggregates.timediff], np.diff(ts) / 86400.0])[: len(ts)]
    shares = [aggregates.weekend, aggregates.night, aggregates.morning,
              aggregates.afternoon, aggregates.evening, aggregates.office]
    X = np.column_stack([
        local.weekday >= 5,
        hour,
        hour < 6,
        (6 <= hour) & (hour < 12),
        (12 <= hour) & (hour < 18),
        18 <= hour,
        (8 <= hour) & (hour < 17),
        np.where(np.isnan(lines), aggregates.loc_per_commit, lines),
        since,
        np.broadcast_to(shares, (len(ts), len(shares))),
    ]).astype(np.float64)
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

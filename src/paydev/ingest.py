"""Parse version-control history into canonical commit records.

The importer reads the output of one documented git command (see
GIT_EXPORT_COMMAND) and normalizes it into CommitRecord objects whose
timestamps carry the offset embedded in the commit metadata. Civil-time
math uses that offset only; no timezone database is consulted, so results
are deterministic for any input.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from paydev.errors import DuplicateShaError, ParseError, SchemaError

# Record sentinel 0x1E starts each commit; 0x1F separates header fields.
GIT_EXPORT_COMMAND = (
    "git", "log", "--all", "--no-merges", "--date-order",
    "--pretty=format:%x1e%H%x1f%an%x1f%ae%x1f%at%x1f%ad",
    "--date=format:%Y-%m-%d %H:%M:%S %z", "--numstat",
)

_SHA_RE = re.compile(rb"^[0-9a-f]{40}$")
_SHA_STR_RE = re.compile(r"^[0-9a-f]{40}$")
_OFFSET_RE = re.compile(rb"^([+-])(\d{2})(\d{2})$")
_NUMSTAT_RE = re.compile(rb"^(\d+|-)[ \t]+(\d+|-)[ \t]+(.+)$")

CANONICAL_FIELDS = (
    "sha",
    "author_name",
    "author_email",
    "timestamp_utc",
    "tz_offset_minutes",
    "lines_added",
    "lines_deleted",
    "message",
)

# Local instants (ts_utc + 60 * offset) must fall in years 1-9999:
# 0001-01-01T00:00:00 .. 9999-12-31T23:59:59.
LOCAL_MIN, LOCAL_MAX = -62135596800, 253402300799


@dataclass(frozen=True)
class CommitRecord:
    """One commit's metadata. lines_added/lines_deleted are -1 when the
    commit touched only binary content."""

    sha: str
    author_name: str
    author_email: str
    timestamp_utc: int
    tz_offset_minutes: int
    lines_added: int
    lines_deleted: int
    message: str


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

    Every local instant must fall in years 1-9999 (see LOCAL_MIN/LOCAL_MAX);
    the readers reject records outside them.
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


def _decode(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")


def _parse_offset(raw: bytes, offset: int, index: int) -> int:
    m = _OFFSET_RE.match(raw)
    if m is None:
        raise ParseError(
            f"invalid timezone offset {_decode(raw)!r}", byte_offset=offset, record_index=index
        )
    sign = 1 if m.group(1) == b"+" else -1
    minutes = sign * (int(m.group(2)) * 60 + int(m.group(3)))
    if not -1440 <= minutes <= 1440:
        raise ParseError(
            f"timezone offset out of range: {minutes} minutes",
            byte_offset=offset,
            record_index=index,
        )
    return minutes


def _parse_header(header: bytes, offset: int, index: int):
    parts = header.split(b"\x1f")
    if len(parts) != 5:
        raise ParseError(
            f"expected 5 header fields, got {len(parts)}", byte_offset=offset, record_index=index
        )
    sha_raw, name_raw, email_raw, at_raw, ad_raw = parts
    if not _SHA_RE.match(sha_raw):
        raise ParseError(
            f"malformed commit id {_decode(sha_raw)!r}", byte_offset=offset, record_index=index
        )
    try:
        ts = int(at_raw)
    except ValueError:
        raise ParseError(
            f"malformed timestamp {_decode(at_raw)!r}", byte_offset=offset, record_index=index
        ) from None
    # %ad carries the author's offset as its last token; the instant itself
    # is taken from %at and the two are not cross-checked.
    ad_tokens = ad_raw.strip().split(b" ")
    if not ad_tokens or not ad_tokens[-1]:
        raise ParseError("missing timezone offset", byte_offset=offset, record_index=index)
    tz = _parse_offset(ad_tokens[-1], offset, index)
    if not LOCAL_MIN <= ts + 60 * tz <= LOCAL_MAX:
        raise ParseError(
            f"timestamp {ts} with offset {tz} is outside years 1-9999",
            byte_offset=offset,
            record_index=index,
        )
    return sha_raw.decode("ascii"), _decode(name_raw), _decode(email_raw).lower(), ts, tz


def _parse_numstat(lines, offset: int, index: int):
    added = deleted = 0
    saw_numeric = saw_binary = False
    for line_offset, line in lines:
        m = _NUMSTAT_RE.match(line)
        if m is None:
            raise ParseError(
                f"malformed numstat line {_decode(line)!r}",
                byte_offset=line_offset,
                record_index=index,
            )
        if m.group(1) == b"-" or m.group(2) == b"-":
            saw_binary = True
            continue
        added += int(m.group(1))
        deleted += int(m.group(2))
        saw_numeric = True
    if saw_binary and not saw_numeric:
        return -1, -1
    return added, deleted


def parse_git_log(stream) -> list[CommitRecord]:
    """Parse the documented export format into commit records.

    Accepts bytes, str, or a binary/text file object. Raises ParseError with
    a byte offset and record index on malformed input, DuplicateShaError on
    repeated commit ids; never raises anything else on arbitrary bytes.
    """
    if hasattr(stream, "read"):
        data = stream.read()
    else:
        data = stream
    if isinstance(data, str):
        data = data.encode("utf-8")

    records: list[CommitRecord] = []
    seen: set[str] = set()
    if not data:
        return records
    first = data.find(b"\x1e")
    if first < 0 or data[:first].strip():
        raise ParseError("input does not start with a record sentinel", byte_offset=0)

    pos = first
    index = 0
    while pos < len(data):
        nxt = data.find(b"\x1e", pos + 1)
        end = len(data) if nxt < 0 else nxt
        chunk = data[pos + 1 : end]
        header_end = chunk.find(b"\n")
        header = chunk if header_end < 0 else chunk[:header_end]
        sha, name, email, ts, tz = _parse_header(header, pos + 1, index)
        if sha in seen:
            raise DuplicateShaError(f"duplicate commit id {sha}")
        seen.add(sha)

        numstat_lines = []
        if header_end >= 0:
            cursor = pos + 1 + header_end + 1
            for line in chunk[header_end + 1 :].split(b"\n"):
                if line.strip():
                    numstat_lines.append((cursor, line))
                cursor += len(line) + 1
        added, deleted = _parse_numstat(numstat_lines, pos + 1, index)

        records.append(
            CommitRecord(
                sha=sha,
                author_name=name,
                author_email=email,
                timestamp_utc=ts,
                tz_offset_minutes=tz,
                lines_added=added,
                lines_deleted=deleted,
                message="",
            )
        )
        pos = end
        index += 1
    return records


def write_canonical(records, fileobj) -> None:
    """Write records as JSON-lines with the canonical field names."""
    for rec in records:
        obj = {name: getattr(rec, name) for name in CANONICAL_FIELDS}
        fileobj.write(json.dumps(obj, ensure_ascii=False) + "\n")


_INT_FIELDS = {"timestamp_utc", "tz_offset_minutes", "lines_added", "lines_deleted"}


def read_canonical(fileobj) -> list[CommitRecord]:
    """Read canonical JSON-lines, validating the schema per line."""
    records = []
    seen: set[str] = set()
    expected = set(CANONICAL_FIELDS)
    for lineno, line in enumerate(fileobj, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno) from None
        if not isinstance(obj, dict):
            raise SchemaError("expected a JSON object", line=lineno)
        unknown = set(obj) - expected
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]!r}", line=lineno)
        missing = expected - set(obj)
        if missing:
            raise SchemaError(f"missing field {sorted(missing)[0]!r}", line=lineno)
        for name in CANONICAL_FIELDS:
            value = obj[name]
            if name in _INT_FIELDS:
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(f"field {name!r} must be an integer", line=lineno)
            elif not isinstance(value, str):
                raise SchemaError(f"field {name!r} must be a string", line=lineno)
        if not _SHA_STR_RE.match(obj["sha"]):
            raise SchemaError(f"malformed commit id {obj['sha']!r}", line=lineno)
        if obj["sha"] in seen:
            raise DuplicateShaError(f"duplicate commit id {obj['sha']}", line=lineno)
        seen.add(obj["sha"])
        if not -1440 <= obj["tz_offset_minutes"] <= 1440:
            raise SchemaError("tz_offset_minutes out of range", line=lineno)
        if not LOCAL_MIN <= obj["timestamp_utc"] + 60 * obj["tz_offset_minutes"] <= LOCAL_MAX:
            raise SchemaError("local time outside years 1-9999", line=lineno)
        if obj["author_email"] != obj["author_email"].lower():
            raise SchemaError("author_email must be lowercase", line=lineno)
        if obj["lines_added"] < -1 or obj["lines_deleted"] < -1:
            raise SchemaError("line counts must be >= -1", line=lineno)
        records.append(CommitRecord(**obj))
    return records

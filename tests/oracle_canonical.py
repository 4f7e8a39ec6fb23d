"""Reference canonical-JSONL reader: the original per-line reader, kept
verbatim except that it returns each line's object as a dict row instead of
a CommitRecord. tests/test_ingest.py compares paydev.ingest.read_canonical
against it on hostile files."""

import json
import re

from paydev.errors import DuplicateShaError, SchemaError

_SHA_STR_RE = re.compile(r"^[0-9a-f]{40}$")

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

_INT_FIELDS = {"timestamp_utc", "tz_offset_minutes", "lines_added", "lines_deleted"}


def read_canonical(fileobj) -> list[dict]:
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
        records.append(obj)
    return records

"""Parse version-control history into canonical commit records.

The importer reads the output of one documented git command (see
GIT_EXPORT_COMMAND) and normalizes it into a Commits table whose
timestamps carry the offset embedded in the commit metadata. Civil-time
math (features.to_local) uses that offset only; no timezone database is
consulted, so results are deterministic for any input. This module imports
no numpy.
"""

from __future__ import annotations

import json
import re
from array import array
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring
from operator import itemgetter

from paydev import native
from paydev.errors import DuplicateShaError, ParseError, SchemaError, utf8_line

# Record sentinel 0x1E starts each commit; 0x1F separates header fields.
GIT_EXPORT_COMMAND = (
    "git", "log", "--all", "--no-merges", "--date-order",
    "--pretty=format:%x1e%H%x1f%an%x1f%ae%x1f%at%x1f%ad",
    "--date=format:%Y-%m-%d %H:%M:%S %z", "--numstat",
)

_SHA_RE = re.compile(rb"[0-9a-f]{40}")  # fullmatch only: `$` would pass a final newline
_SHA_STR_RE = re.compile(r"[0-9a-f]{40}")
_TIMESTAMP_RE = re.compile(rb"-?[0-9]+")  # fullmatch only
_OFFSET_RE = re.compile(rb"^([+-])(\d{2})(\d{2})$")
_NUMSTAT_RE = re.compile(rb"^(\d+|-)[ \t]+(\d+|-)[ \t]+.+$")

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
INT64_MAX = 2**63 - 1  # line counts must fit the table's int64 columns


@dataclass(frozen=True)
class CommitRecord:
    """One commit's metadata, as synth generates it (see Commits.from_records).
    lines_added/lines_deleted are -1 when the commit touched only binary
    content."""

    sha: str
    author_name: str
    author_email: str
    timestamp_utc: int
    tz_offset_minutes: int
    lines_added: int
    lines_deleted: int
    message: str


def _int_column(values):
    """`values` as an array("q"); an array("q") itself is kept, not copied."""
    if type(values) is array and values.typecode == "q":
        return values
    return array("q", values)


class Commits:
    """Commit metadata as one table, one entry per commit in each column:
    lists of str for sha, author_name, author_email and message, and
    stdlib array("q") int64 buffers for timestamp_utc, tz_offset_minutes,
    lines_added and lines_deleted (-1 when the commit touched only binary
    content), so that reading, writing and merging commits needs no numpy;
    features.histories views the int columns with np.asarray, which does
    not copy them. Commits() is the empty table."""

    __slots__ = CANONICAL_FIELDS

    def __init__(self, sha=(), author_name=(), author_email=(), timestamp_utc=(),
                 tz_offset_minutes=(), lines_added=(), lines_deleted=(), message=()):
        self.sha = list(sha)
        self.author_name = list(author_name)
        self.author_email = list(author_email)
        self.timestamp_utc = _int_column(timestamp_utc)
        self.tz_offset_minutes = _int_column(tz_offset_minutes)
        self.lines_added = _int_column(lines_added)
        self.lines_deleted = _int_column(lines_deleted)
        self.message = list(message)

    @classmethod
    def from_records(cls, records) -> Commits:
        """The table of a sequence of CommitRecords."""
        return cls(*([getattr(r, name) for r in records] for name in CANONICAL_FIELDS))

    def __len__(self) -> int:
        return len(self.sha)

    def take(self, rows) -> Commits:
        """The commits at the given list of row indices, in that order."""
        return Commits(*(map(column.__getitem__, rows)
                         for column in map(self.__getattribute__, CANONICAL_FIELDS)))


def _decode(raw: bytes) -> str:
    return raw.decode("utf-8", errors="replace")


@lru_cache(maxsize=4096)  # an export repeats a few offsets many times
def _offset_minutes(raw: bytes):
    """The minutes east of UTC a `+hhmm` or `-hhmm` token gives, or None."""
    m = _OFFSET_RE.match(raw)
    if m is None:
        return None
    sign = 1 if m.group(1) == b"+" else -1
    return sign * (int(m.group(2)) * 60 + int(m.group(3)))


def _parse_offset(raw: bytes, offset: int, index: int) -> int:
    minutes = _offset_minutes(raw)
    if minutes is None:
        raise ParseError(
            f"invalid timezone offset {_decode(raw)!r}", byte_offset=offset, record_index=index
        )
    if not -1440 <= minutes <= 1440:
        raise ParseError(
            f"timezone offset out of range: {minutes} minutes",
            byte_offset=offset,
            record_index=index,
        )
    return minutes


def _parse_timestamp(raw: bytes, offset: int, index: int) -> int:
    """%at, which git writes as -?[0-9]+ (int() would also take white space,
    a plus sign or underscores)."""
    if _TIMESTAMP_RE.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise ParseError(
        f"malformed timestamp {_decode(raw)!r}", byte_offset=offset, record_index=index
    )


def _parse_header(header: bytes, offset: int, index: int):
    parts = header.split(b"\x1f")
    if len(parts) != 5:
        raise ParseError(
            f"expected 5 header fields, got {len(parts)}", byte_offset=offset, record_index=index
        )
    sha_raw, name_raw, email_raw, at_raw, ad_raw = parts
    if not _SHA_RE.fullmatch(sha_raw):
        raise ParseError(
            f"malformed commit id {_decode(sha_raw)!r}", byte_offset=offset, record_index=index
        )
    ts = _parse_timestamp(at_raw, offset, index)
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


def _parse_numstat(body: bytes, offset: int, index: int):
    """(lines added, lines deleted) summed over a commit's numstat lines,
    which start at byte `offset`; (-1, -1) when every line is a binary file.
    Blank lines are skipped."""
    added = deleted = 0
    saw_numeric = saw_binary = False
    lines = body.split(b"\n")
    try:
        for line in lines:
            m = _NUMSTAT_RE.match(line)
            if m is None:
                if not line.strip():
                    continue
                k = lines.index(line)  # an equal line before it would have failed first
                raise ParseError(
                    f"malformed numstat line {_decode(line)!r}",
                    byte_offset=offset + sum(len(prev) + 1 for prev in lines[:k]),
                    record_index=index,
                )
            a, d = m.groups()
            if a == b"-" or d == b"-":
                saw_binary = True
                continue
            added += int(a)
            deleted += int(d)
            saw_numeric = True
    except ValueError:  # more digits than int() converts
        added = INT64_MAX + 1
    if added > INT64_MAX or deleted > INT64_MAX:
        raise ParseError(f"line counts exceed {INT64_MAX}", byte_offset=offset,
                         record_index=index)
    if saw_binary and not saw_numeric:
        return -1, -1
    return added, deleted


def _add_run(run, seen, shas, lineno=None):
    """Adds the shas of a scanned run that starts on line `lineno` (None for
    a git-log export, whose errors name no line) to `seen`, which holds those
    in `shas`; raises DuplicateShaError at the first one seen before, in
    order."""
    before = len(seen)
    seen.update(run)
    if len(seen) == before + len(run):
        return
    earlier = set(shas)
    for i, sha in enumerate(run):
        if sha in earlier:
            raise DuplicateShaError(f"duplicate commit id {sha}",
                                    line=None if lineno is None else lineno + i)
        earlier.add(sha)


def _int_columns():
    """Empty timestamp_utc, tz_offset_minutes, lines_added and lines_deleted
    columns."""
    return tuple(array("q") for _ in range(4))


def _append(columns, values):
    for column, value in zip(columns, values):
        column.append(value)


def _extend(columns, runs):
    for column, run in zip(columns, runs):
        column += run


def parse_git_log(stream) -> Commits:
    """Parse the documented export format into a Commits table.

    Accepts bytes, str, or a binary/text file object. Raises ParseError with
    a byte offset and record index on malformed input, DuplicateShaError on
    repeated commit ids; never raises anything else on arbitrary bytes.

    native.scan_git_log hands back runs of records it has read, in exactly
    git's shape with printable-ASCII names and emails and values that
    _parse_header and _parse_numstat accept; only their shas are checked
    here, for duplicates. Every other record (every record without the
    compiled library) it hands back as its byte offset, and that record is
    parsed on its own. Either way an error names the first faulty record,
    with the message, type, byte offset and record index those two
    functions give.
    """
    if hasattr(stream, "read"):
        data = stream.read()
    else:
        data = stream
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif type(data) is not bytes:
        data = bytes(data)  # the scanner reads the buffer of a bytes object

    if not data:
        return Commits()
    first = data.find(b"\x1e")
    if first < 0 or data[:first].strip():
        raise ParseError("input does not start with a record sentinel", byte_offset=0)

    shas, names, emails = strings = ([], [], [])
    ints = _int_columns()
    seen: set[str] = set()
    index = 0
    for item in native.scan_git_log(data, first + 1):
        if type(item) is int:  # the offset of a record the scanner declined
            end = data.find(b"\x1e", item)
            header, _, body = data[item:end if end >= 0 else len(data)].partition(b"\n")
            sha, name, email, ts, tz = _parse_header(header, item, index)
            if sha in seen:
                raise DuplicateShaError(f"duplicate commit id {sha}")
            seen.add(sha)
            shas.append(sha)
            names.append(name)
            emails.append(email)
            _append(ints, (ts, tz, *_parse_numstat(body, item + len(header) + 1, index)))
            index += 1
            continue
        numbers, texts = item
        _add_run(texts[0::3], seen, shas)
        index += len(numbers[0])
        for k, column in enumerate(strings):
            column += texts[k::3]
        _extend(ints, numbers)
    # the export has no message
    return Commits(shas, names, emails, *ints, [""] * len(shas))


def write_canonical(commits, fileobj) -> None:
    """Write the commits as canonical JSON lines. Each line is exactly
    json.dumps(row, ensure_ascii=False) of the row as a dict in
    CANONICAL_FIELDS order; names and addresses repeat, so each distinct
    one is escaped once."""
    quote = encode_basestring  # the C escaper json.dumps itself uses
    names = {n: quote(n) for n in set(commits.author_name)}
    emails = {e: quote(e) for e in set(commits.author_email)}
    write = fileobj.write
    for s, n, e, t, z, a, d, m in zip(
        commits.sha, commits.author_name, commits.author_email, commits.timestamp_utc,
        commits.tz_offset_minutes, commits.lines_added, commits.lines_deleted, commits.message,
    ):
        write(f'{{"sha": {quote(s)}, "author_name": {names[n]}, "author_email": {emails[e]}, '
              f'"timestamp_utc": {t}, "tz_offset_minutes": {z}, "lines_added": {a}, '
              f'"lines_deleted": {d}, "message": {quote(m)}}}\n')


_FIELD_SET = frozenset(CANONICAL_FIELDS)
_KINDS = (str, str, str, int, int, int, int, str)  # of each field, in CANONICAL_FIELDS order
_ROW = itemgetter(*CANONICAL_FIELDS)
LONE_SURROGATE_RE = re.compile("[\ud800-\udfff]")  # no UTF-8 encodes these


def _checked_row(obj, seen, lineno):
    """The field values of a parsed canonical line, in CANONICAL_FIELDS
    order; raises the SchemaError of the first check it fails, the checks
    taken in this order. `seen` holds the shas of the lines before it."""
    if type(obj) is not dict:
        raise SchemaError("expected a JSON object", line=lineno)
    if obj.keys() != _FIELD_SET:
        unknown = obj.keys() - _FIELD_SET
        if unknown:
            raise SchemaError(f"unknown field {sorted(unknown)[0]!r}", line=lineno)
        raise SchemaError(f"missing field {sorted(_FIELD_SET - obj.keys())[0]!r}", line=lineno)
    row = _ROW(obj)
    if tuple(map(type, row)) != _KINDS:  # JSON has no int or str subclass but bool
        for name, value, kind in zip(CANONICAL_FIELDS, row, _KINDS):
            if type(value) is not kind:
                what = "an integer" if kind is int else "a string"
                raise SchemaError(f"field {name!r} must be {what}", line=lineno)
    sha, name, email, ts, tz, added, deleted, message = row
    if not _SHA_STR_RE.fullmatch(sha):
        raise SchemaError(f"malformed commit id {sha!r}", line=lineno)
    if sha in seen:
        raise DuplicateShaError(f"duplicate commit id {sha}", line=lineno)
    if not -1440 <= tz <= 1440:
        raise SchemaError("tz_offset_minutes out of range", line=lineno)
    if not LOCAL_MIN <= ts + 60 * tz <= LOCAL_MAX:
        raise SchemaError("local time outside years 1-9999", line=lineno)
    if email != email.lower():
        raise SchemaError("author_email must be lowercase", line=lineno)
    if added < -1 or deleted < -1:
        raise SchemaError("line counts must be >= -1", line=lineno)
    if added > INT64_MAX or deleted > INT64_MAX:
        raise SchemaError(f"line counts must be <= {INT64_MAX}", line=lineno)
    if not (name + email + message).isascii():  # the sha is hex; a surrogate is not ASCII
        for field, value in zip(CANONICAL_FIELDS, row):
            if type(value) is str and LONE_SURROGATE_RE.search(value):
                raise SchemaError(f"field {field!r} holds a lone surrogate", line=lineno)
    return row


def _line_row(raw, name, seen, lineno):
    """_checked_row of line `lineno` (its bytes), or None for a blank line."""
    line = utf8_line(raw, name, lineno)
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        if not line.strip():
            return None
        raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno) from None
    except ValueError:  # int() converts at most 4300 digits
        raise SchemaError("invalid JSON: integer too long", line=lineno) from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply", line=lineno) from None
    return _checked_row(obj, seen, lineno)


def read_canonical(fileobj, name="input") -> Commits:
    """Read the canonical JSON lines of a binary file into a Commits table;
    blank lines are skipped. `name` names the file in the error a line that
    is not UTF-8 raises.

    native.scan_canonical hands back runs of lines it has read, in
    write_canonical's exact layout with printable-ASCII strings (without
    `"` or `\\`) and values that pass _checked_row; only their shas are
    checked here, for duplicates. Every other line it hands back as bytes
    (CRLF, blank, escaped, non-ASCII, other spacing or key order, faulty or
    the final line without a line feed; every line without the compiled
    library), and that line is decoded, parsed and checked on its own.
    Either way an error names the first faulty line, with the message and
    type the per-line checks give."""
    shas, names, emails, messages = strings = ([], [], [], [])
    ints = _int_columns()
    seen: set[str] = set()
    lineno = 0
    for item in native.scan_canonical(fileobj):
        if type(item) is bytes:
            lineno += 1
            row = _line_row(item, name, seen, lineno)
            if row is None:
                continue
            s, n, e, t, z, a, d, m = row
            seen.add(s)
            shas.append(s)
            names.append(n)
            emails.append(e)
            messages.append(m)
            _append(ints, (t, z, a, d))
            continue
        numbers, texts = item
        _add_run(texts[0::4], seen, shas, lineno + 1)
        lineno += len(numbers[0])
        for k, column in enumerate(strings):
            column += texts[k::4]
        _extend(ints, numbers)
    return Commits(shas, names, emails, *ints, messages)

"""Exception hierarchy shared across the pipeline, and the line decoder and
CSV row reader that raise it.

Each class maps to one documented CLI exit code (see paydev.cli).
"""

import csv


class PaydevError(Exception):
    """Base class; exit code 1 unless a subclass says otherwise."""

    exit_code = 1


class InputFileError(PaydevError):
    """Missing or unreadable input file."""

    exit_code = 2


class OutputFileError(PaydevError):
    """An output file that cannot be written."""

    exit_code = 2


class ParseError(PaydevError):
    """Malformed git-log export stream."""

    exit_code = 3

    def __init__(self, message, byte_offset=None, record_index=None):
        loc = []
        if record_index is not None:
            loc.append(f"record {record_index}")
        if byte_offset is not None:
            loc.append(f"byte {byte_offset}")
        super().__init__(f"{message} ({', '.join(loc)})" if loc else message)
        self.byte_offset = byte_offset
        self.record_index = record_index


class SchemaError(PaydevError):
    """File content violates a documented schema (canonical JSONL, CSVs,
    overrides, config)."""

    exit_code = 3

    def __init__(self, message, line=None):
        super().__init__(f"{message} (line {line})" if line is not None else message)
        self.line = line


class DuplicateShaError(SchemaError):
    """The same commit id appears twice in one dataset."""


class OverrideConflictError(SchemaError):
    """A key appears in conflicting identity override rules."""


class IdentityClashError(SchemaError):
    """Two merged identities would share one id."""


class ColumnMismatchError(PaydevError):
    """Feature columns do not match the columns a model was trained on."""

    exit_code = 4

    def __init__(self, missing=(), extra=()):
        parts = []
        if missing:
            parts.append("missing: " + ", ".join(sorted(missing)))
        if extra:
            parts.append("extra: " + ", ".join(sorted(extra)))
        super().__init__("feature columns do not match model (" + "; ".join(parts) + ")")
        self.missing = tuple(sorted(missing))
        self.extra = tuple(sorted(extra))


class SingleClassError(PaydevError):
    """Training or evaluation requires both classes to be present."""

    exit_code = 5


class StratificationError(PaydevError):
    """k exceeds the size of the minority class."""

    exit_code = 6


class UnlabeledIdentityError(PaydevError):
    """An identity has neither a direct status nor employment periods."""

    exit_code = 5


def utf8_line(raw, name, lineno):
    """Line `lineno` of the file called `name`, decoded from UTF-8; raises
    SchemaError naming both when its bytes are not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise SchemaError(f"{name} is not valid UTF-8", line=lineno) from None


def csv_rows(lines):
    """csv.reader over `lines`, except that a line the csv module cannot read
    (a bare carriage return in an unquoted field, a field over its size
    limit) raises SchemaError with the number of that line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        message = str(exc).split(" - ")[0]  # drop csv's hint about opening files
        raise SchemaError(f"unreadable CSV line: {message}", line=reader.line_num) from None

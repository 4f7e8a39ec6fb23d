import io
import json
import re
from contextlib import contextmanager
from dataclasses import asdict
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_canonical
from conftest import make_record, rows, sha_of
from oracle_calendar import days_from_civil, local_civil
from paydev.errors import DuplicateShaError, ParseError, SchemaError
from paydev import native
from paydev.features import to_local
from paydev.ingest import (
    CANONICAL_FIELDS,
    LOCAL_MAX,
    LOCAL_MIN,
    CommitRecord,
    Commits,
    parse_git_log,
    read_canonical,
    write_canonical,
)

SHA_A = "a" * 40
SHA_B = "b" * 40

# the readers with the compiled scanners, where there are any, and without
SCANNER_MODES = (True, False) if native.BACKEND == "c" else (False,)


@contextmanager
def scanning(on):
    """read_canonical and parse_git_log with the compiled scanners (`on`),
    or with every line and every record read on its own."""
    with pytest.MonkeyPatch.context() as mp:
        if not on:
            mp.setattr(native, "scan_canonical", iter)
            mp.setattr(native, "scan_git_log", native.record_offsets)
        yield


def canonical_bytes(records):
    buf = io.StringIO()
    write_canonical(Commits.from_records(records), buf)
    return buf.getvalue().encode("utf-8")


def read_bytes(data):
    return read_canonical(io.BytesIO(data))


def record_bytes(sha, name="Alice", email="A@X.COM", at=1483348800,
                 ad="2017-01-02 14:00:00 +0500", numstat=""):
    header = f"\x1e{sha}\x1f{name}\x1f{email}\x1f{at}\x1f{ad}"
    return (header + "\n" + numstat).encode("utf-8")


class TestParseGitLog:
    def test_documented_example(self):
        data = record_bytes(SHA_A, numstat="3\t1\tsrc/a.c\n")
        (rec,) = rows(parse_git_log(data))
        assert rec.sha == SHA_A
        assert rec.author_name == "Alice"
        assert rec.author_email == "a@x.com"
        assert rec.timestamp_utc == 1483348800
        assert rec.tz_offset_minutes == 300
        assert rec.lines_added == 3
        assert rec.lines_deleted == 1
        assert rec.message == ""

    def test_empty_stream(self):
        assert rows(parse_git_log(b"")) == []

    def test_binary_only_numstat(self):
        data = record_bytes(SHA_A, numstat="-\t-\timage.png\n")
        (rec,) = rows(parse_git_log(data))
        assert rec.lines_added == -1
        assert rec.lines_deleted == -1

    def test_mixed_numstat_ignores_binary(self):
        data = record_bytes(SHA_A, numstat="5\t2\ta.c\n-\t-\timg.png\n2\t0\tb.c\n")
        (rec,) = rows(parse_git_log(data))
        assert (rec.lines_added, rec.lines_deleted) == (7, 2)

    def test_no_numstat_is_zero(self):
        (rec,) = rows(parse_git_log(record_bytes(SHA_A)))
        assert (rec.lines_added, rec.lines_deleted) == (0, 0)

    def test_multiple_records_in_order(self):
        data = record_bytes(SHA_A) + b"\n" + record_bytes(SHA_B, at=99)
        recs = rows(parse_git_log(data))
        assert [r.sha for r in recs] == [SHA_A, SHA_B]

    def test_negative_offset(self):
        (rec,) = rows(parse_git_log(record_bytes(SHA_A, ad="2017-01-03 09:10:11 -0130")))
        assert rec.tz_offset_minutes == -90

    def test_spaces_accepted_in_numstat(self):
        (rec,) = rows(parse_git_log(record_bytes(SHA_A, numstat="3 1 src/a.c\n")))
        assert (rec.lines_added, rec.lines_deleted) == (3, 1)

    def test_duplicate_sha_rejected(self):
        data = record_bytes(SHA_A) + b"\n" + record_bytes(SHA_A)
        with pytest.raises(DuplicateShaError):
            parse_git_log(data)

    def test_malformed_header_names_location(self):
        data = record_bytes(SHA_A) + b"\n\x1enot-a-header"
        with pytest.raises(ParseError) as exc:
            parse_git_log(data)
        assert "record 1" in str(exc.value)
        assert "byte" in str(exc.value)

    def test_invalid_offset_string(self):
        with pytest.raises(ParseError):
            parse_git_log(record_bytes(SHA_A, ad="2017-01-02 14:00:00 +05x0"))

    def test_offset_out_of_range(self):
        with pytest.raises(ParseError):
            parse_git_log(record_bytes(SHA_A, ad="2017-01-02 14:00:00 +2500"))

    @pytest.mark.parametrize("at, ad_offset, ok", [
        (99999999999999, "+0000", False),
        (LOCAL_MAX, "+0000", True),
        (LOCAL_MAX + 1, "+0000", False),
        (LOCAL_MAX - 60, "+0001", True),
        (LOCAL_MAX - 59, "+0001", False),
        (LOCAL_MIN, "+0000", True),
        (LOCAL_MIN, "-0001", False),
        (-(10**30), "+0000", False),
    ])
    def test_local_time_outside_years_1_to_9999(self, at, ad_offset, ok):
        data = record_bytes(SHA_A) + b"\n" + record_bytes(
            SHA_B, at=at, ad=f"2017-01-02 14:00:00 {ad_offset}")
        if ok:
            assert rows(parse_git_log(data))[1].timestamp_utc == at
        else:
            with pytest.raises(ParseError) as exc:
                parse_git_log(data)
            assert "record 1" in str(exc.value) and "years 1-9999" in str(exc.value)

    def test_garbage_before_first_sentinel(self):
        with pytest.raises(ParseError):
            parse_git_log(b"junk" + record_bytes(SHA_A))

    def test_real_git_layout(self):
        # byte-for-byte layout of git --pretty=format:...%ad --numstat output
        data = (
            b"\x1e" + SHA_A.encode() + b"\x1fT\x1ft@t\x1f1483440011\x1f"
            b"2017-01-03 09:10:11 -0130\n1\t0\ta.c\n\n"
            b"\x1e" + SHA_B.encode() + b"\x1fT\x1ft@t\x1f1483347600\x1f"
            b"2017-01-02 14:00:00 +0500\n1\t0\ta.c\n-\t-\timg.bin\n"
        )
        recs = rows(parse_git_log(data))
        assert len(recs) == 2
        assert recs[0].tz_offset_minutes == -90
        assert recs[1].lines_added == 1

    @pytest.mark.parametrize("at", [" +1_483_348_800 ", "+1483348800", " 1483348800",
                                    "1483348800 ", "1_483_348_800", "1483348800\r", "-", ""])
    def test_timestamp_is_digits_only(self, at):
        """%at is -?[0-9]+, as git writes it: no sign, space or underscore
        that int() would accept."""
        data = record_bytes(SHA_B) + b"\n" + record_bytes(SHA_A, at=at)
        for on in SCANNER_MODES:
            with scanning(on), pytest.raises(ParseError) as exc:
                parse_git_log(data)
            assert str(exc.value).startswith(f"malformed timestamp {at!r}")
            assert exc.value.record_index == 1

    @pytest.mark.parametrize("at, ts", [("-0", 0), ("007", 7), ("-3600", -3600)])
    def test_timestamp_spellings(self, at, ts):
        for on in SCANNER_MODES:
            with scanning(on):
                assert parse_git_log(record_bytes(SHA_A, at=at)).timestamp_utc.tolist() == [ts]

    @given(st.binary(max_size=400))
    @settings(max_examples=300, deadline=None)
    def test_never_raises_unstructured(self, blob):
        for on in SCANNER_MODES:
            with scanning(on):
                try:
                    result = parse_git_log(blob)
                except (ParseError, DuplicateShaError):
                    continue
            assert isinstance(result, Commits)


def _one(ts, off):
    """to_local of a single instant, as a dict of Python ints."""
    return {k: int(v[0]) for k, v in to_local([ts], [off])._asdict().items()}


def _day(y, m, d):
    return (date(y, m, d) - date(1970, 1, 1)).days


# (local instant, offset) pairs over the whole accepted range, years 1-9999
_local_instants = st.lists(
    st.tuples(st.integers(LOCAL_MIN, LOCAL_MAX), st.integers(-1440, 1440)),
    min_size=1, max_size=300,
)


class TestToLocal:
    def test_positive_offset(self):
        lt = _one(1483255800, 120)  # 2017-01-01T07:30:00Z
        assert (lt["day"], lt["hour"], lt["weekday"]) == (_day(2017, 1, 1), 9, 6)

    def test_zero_offset_is_utc(self):
        lt = _one(1483255800, 0)
        assert (lt["day"], lt["hour"]) == (_day(2017, 1, 1), 7)

    def test_negative_offset_crosses_midnight(self):
        lt = _one(1483315200, -60)  # 2017-01-02T00:00:00Z
        assert lt["day"] == _day(2017, 1, 1)
        assert lt["hour"] == 23
        assert lt["weekday"] == 6  # Sunday
        assert (lt["iso_year"], lt["iso_week"]) == (2016, 52)

    def test_offset_range_enforced(self):
        with pytest.raises(ValueError):
            to_local(0, 1441)
        with pytest.raises(ValueError):
            to_local([0, 0], [0, -1441])

    def test_local_range_enforced(self):
        with pytest.raises(ValueError):
            to_local([LOCAL_MAX + 1], [0])
        with pytest.raises(ValueError):
            to_local([LOCAL_MIN], [-1])
        assert _one(LOCAL_MAX + 60, -1)["hour"] == 23

    def test_int64_arrays_without_minute(self):
        lt = to_local(np.array([0, 86400]), np.array([0, 30]))
        assert lt._fields == ("day", "hour", "weekday", "iso_year", "iso_week")
        assert all(a.dtype == np.int64 and a.shape == (2,) for a in lt)
        empty = to_local([], [])
        assert all(a.dtype == np.int64 and a.shape == (0,) for a in empty)

    @pytest.mark.parametrize("y, m, d, weekday, iso", [
        (1, 1, 1, 0, (1, 1)),
        (2020, 12, 31, 3, (2020, 53)),
        (2021, 1, 3, 6, (2020, 53)),
        (2021, 1, 4, 0, (2021, 1)),
        (9999, 12, 31, 4, (9999, 52)),
    ])
    def test_iso_boundaries(self, y, m, d, weekday, iso):
        midnight = 86400 * _day(y, m, d)
        for ts, off, hour in ((midnight, 0, 0), (midnight + 86399, 0, 23),
                              (midnight + 60 * 1440, -1440, 0),
                              (midnight - 60 * 1440 + 86399, 1440, 23)):
            lt = _one(ts, off)
            assert lt == {"day": _day(y, m, d), "hour": hour, "weekday": weekday,
                          "iso_year": iso[0], "iso_week": iso[1]}
            assert date(y, m, d).isocalendar()[:2] == iso

    @given(_local_instants)
    @settings(max_examples=100, deadline=None)
    def test_matches_calendar_oracle(self, pairs):
        off = np.array([o for _, o in pairs])
        ts = np.array([local for local, _ in pairs]) - 60 * off
        lt = to_local(ts, off)
        for i, (t, o) in enumerate(zip(ts.tolist(), off.tolist())):
            y, m, d, hour, _, weekday, iso_year, iso_week = local_civil(t, o)
            assert (lt.day[i], lt.hour[i], lt.weekday[i]) == (
                days_from_civil(y, m, d), hour, weekday)
            assert (lt.iso_year[i], lt.iso_week[i]) == (iso_year, iso_week)

    @given(_local_instants)
    @settings(max_examples=50, deadline=None)
    def test_hour_equals_shifted_utc(self, pairs):
        off = np.array([o for _, o in pairs])
        ts = np.array([local for local, _ in pairs]) - 60 * off
        assert (to_local(ts, off).hour == to_local(ts + 60 * off, 0 * off).hour).all()


_record_strategy = st.builds(
    CommitRecord,
    sha=st.integers(min_value=0, max_value=2**80).map(lambda i: f"{i:040x}"[-40:]),
    author_name=st.text(max_size=30),
    author_email=st.text(max_size=30).map(str.lower),
    timestamp_utc=st.integers(min_value=-10**10, max_value=10**10),
    tz_offset_minutes=st.integers(min_value=-1440, max_value=1440),
    lines_added=st.integers(min_value=-1, max_value=10**6),
    lines_deleted=st.integers(min_value=-1, max_value=10**6),
    message=st.text(max_size=100),
)


class TestCanonical:
    def test_one_record_one_line_exact_keys(self):
        buf = io.StringIO()
        write_canonical(Commits.from_records([make_record()]), buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {
            "sha",
            "author_name",
            "author_email",
            "timestamp_utc",
            "tz_offset_minutes",
            "lines_added",
            "lines_deleted",
            "message",
        }

    @given(st.lists(_record_strategy, max_size=25, unique_by=lambda r: r.sha))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, records):
        data = canonical_bytes(records)
        for on in SCANNER_MODES:
            with scanning(on):
                assert rows(read_bytes(data)) == records

    def test_unknown_field_names_field_and_line(self):
        buf = io.StringIO()
        write_canonical(Commits.from_records([make_record()]), buf)
        obj = json.loads(buf.getvalue())
        obj["foo"] = 1
        with pytest.raises(SchemaError) as exc:
            read_bytes(json.dumps(obj).encode() + b"\n")
        assert "foo" in str(exc.value)
        assert "line 1" in str(exc.value)

    def test_type_mismatch_reports_line(self):
        good = io.StringIO()
        write_canonical(Commits.from_records([make_record(), make_record(sha=sha_of(1))]), good)
        lines = good.getvalue().splitlines()
        obj = json.loads(lines[1])
        obj["timestamp_utc"] = "soon"
        bad = lines[0] + "\n" + json.dumps(obj) + "\n"
        with pytest.raises(SchemaError) as exc:
            read_bytes(bad.encode())
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize("ts, off, ok", [
        (10**12, 0, False),
        (LOCAL_MAX, 0, True),
        (LOCAL_MAX + 1, 0, False),
        (LOCAL_MAX - 60, 1, True),
        (LOCAL_MAX - 59, 1, False),
        (LOCAL_MIN, 0, True),
        (LOCAL_MIN + 60, -1, True),
        (LOCAL_MIN + 59, -1, False),
        (-(10**30), 0, False),
    ])
    def test_local_time_outside_years_1_to_9999(self, ts, off, ok):
        # -(10**30) does not fit the table's int64 column, so the lines are
        # written by json.dumps
        rows_in = [make_record(), make_record(sha=sha_of(1), timestamp_utc=ts,
                                              tz_offset_minutes=off)]
        data = "".join(json.dumps(asdict(r)) + "\n" for r in rows_in).encode()
        if ok:
            assert rows(read_bytes(data))[1].timestamp_utc == ts
        else:
            with pytest.raises(SchemaError) as exc:
                read_bytes(data)
            assert "line 2" in str(exc.value) and "years 1-9999" in str(exc.value)

    def test_uppercase_email_rejected(self):
        buf = io.StringIO()
        write_canonical(Commits.from_records([make_record()]), buf)
        obj = json.loads(buf.getvalue())
        obj["author_email"] = "A@X.COM"
        with pytest.raises(SchemaError):
            read_bytes(json.dumps(obj).encode() + b"\n")

    def test_duplicate_sha_rejected(self):
        with pytest.raises(DuplicateShaError):
            read_bytes(canonical_bytes([make_record(), make_record()]))


# ---------------------------------------------------------------- hostile files

_POOL_SHAS = [sha_of(i) for i in range(4)]
_GOOD_ROW = st.fixed_dictionaries({
    "sha": st.sampled_from(_POOL_SHAS),
    "author_name": st.text(max_size=8),
    "author_email": st.text(max_size=8).map(str.lower),
    "timestamp_utc": st.integers(-10**9, 10**9),
    "tz_offset_minutes": st.integers(-1440, 1440),
    "lines_added": st.integers(-1, 10**6),
    "lines_deleted": st.integers(-1, 10**6),
    "message": st.text(max_size=12),
})
_INT_KEYS = ("timestamp_utc", "tz_offset_minutes", "lines_added", "lines_deleted")
_STR_KEYS = ("sha", "author_name", "author_email", "message")


@st.composite
def _hostile_line(draw):
    """One line of a canonical file: valid, or broken in one of many ways."""
    row = draw(_GOOD_ROW)
    kind = draw(st.sampled_from([
        "valid", "valid", "valid", "bad_json", "non_object", "missing", "extra",
        "duplicate_key", "bool", "float", "huge_int", "bad_sha", "offset", "upper_email",
        "blank", "surrogate", "astral_pair", "local_time", "negative_lines",
    ]))
    if kind == "bad_json":
        text = json.dumps(row)
        return text[:draw(st.integers(1, len(text) - 1))]
    if kind == "non_object":
        return json.dumps(draw(st.sampled_from([[1, 2], 5, "x", None, [row]])))
    if kind == "missing":
        del row[draw(st.sampled_from(CANONICAL_FIELDS))]
    elif kind == "extra":
        row[draw(st.sampled_from(["foo", "Sha", ""]))] = 1
    elif kind == "duplicate_key":  # json.loads keeps the last value
        key = draw(st.sampled_from(CANONICAL_FIELDS))
        return '{"%s": 0, %s' % (key, json.dumps(row)[1:])
    elif kind == "bool":
        row[draw(st.sampled_from(_INT_KEYS))] = draw(st.booleans())
    elif kind == "float":
        row[draw(st.sampled_from(_INT_KEYS))] = draw(st.sampled_from([1.0, 0.5, 1e400]))
    elif kind == "huge_int":
        key = draw(st.sampled_from(_INT_KEYS))
        value = draw(st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 10**30, -(10**30), None]))
        if value is None:  # more digits than json.loads converts
            row[key] = 0
            return json.dumps(row).replace(f'"{key}": 0', f'"{key}": {"9" * 5000}', 1)
        row[key] = value
    elif kind == "bad_sha":
        row["sha"] = draw(st.sampled_from(["A" * 40, "a" * 39, "a" * 41, "g" * 40,
                                           "a" * 40 + "\n", 5]))
    elif kind == "offset":
        row["tz_offset_minutes"] = draw(st.sampled_from([1441, -1441, 10**6]))
    elif kind == "upper_email":
        row["author_email"] = "A" + row["author_email"]
    elif kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "  \t "]))
    elif kind in ("surrogate", "astral_pair"):
        escape = "\\ud800" if kind == "surrogate" else "\\ud83d\\ude00"
        key = draw(st.sampled_from(_STR_KEYS[1:]))
        return json.dumps(row).replace(f'"{key}": "', f'"{key}": "{escape}', 1)
    elif kind == "local_time":
        row["timestamp_utc"] = draw(st.sampled_from([LOCAL_MAX + 1, LOCAL_MIN - 1, 10**12]))
    elif kind == "negative_lines":
        row[draw(st.sampled_from(["lines_added", "lines_deleted"]))] = -2
    return json.dumps(row, ensure_ascii=draw(st.booleans()))


def _outcome(read):
    """The rows read() gives as dicts, or its error as (type, message, line)."""
    try:
        result = read()
    except (SchemaError, ValueError, RecursionError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    if isinstance(result, Commits):
        return [asdict(r) for r in rows(result)]
    return result


def _read_outcome(data):
    """read_canonical's outcome on the bytes `data`, the same with the
    compiled scanner and without it."""
    outcomes = []
    for on in SCANNER_MODES:
        with scanning(on):
            outcomes.append(_outcome(lambda: read_bytes(data)))
    assert all(o == outcomes[0] for o in outcomes), outcomes
    return outcomes[0]


def _oracle_outcome(text):
    return _outcome(lambda: oracle_canonical.read_canonical(io.StringIO(text)))


_DELIBERATE = ("holds a lone surrogate", "line counts must be <=", "invalid JSON: integer too long",
               "invalid JSON: nested too deeply", "malformed commit id")


def _deliberate_fault(line):
    """Whether `line` holds one of the faults only the new reader rejects: a
    lone surrogate, a line count past int64, an integer json.loads cannot
    convert, or a sha followed by a newline."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return False
    except ValueError:
        return True
    if not isinstance(obj, dict):
        return False
    surrogate = any(isinstance(v, str) and re.search("[\ud800-\udfff]", v) for v in obj.values())
    sha_newline = isinstance(obj.get("sha"), str) and re.fullmatch("[0-9a-f]{40}\n", obj["sha"])
    return surrogate or sha_newline or any(type(obj.get(k)) is int and obj[k] > 2**63 - 1
                            for k in ("lines_added", "lines_deleted"))


class TestReaderOracle:
    @given(st.lists(_hostile_line(), min_size=1, max_size=8), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_oracle_on_hostile_files(self, lines, trailing_newline):
        text = "\n".join(lines) + ("\n" if trailing_newline else "")
        got = _read_outcome(text.encode())
        # The oracle's outcome, except that a line holding a deliberate fault
        # (which the oracle accepts or crashes on) is rejected once every
        # line before it passes.
        file_lines = io.StringIO(text).readlines()
        want = _oracle_outcome(text)
        for lineno, line in enumerate(file_lines, start=1):
            before = _oracle_outcome("".join(file_lines[:lineno]))
            if isinstance(before, tuple) and issubclass(before[0], SchemaError):
                break
            if _deliberate_fault(line):
                assert got[0] is SchemaError and got[2] == lineno, (got, want)
                assert any(d in got[1] for d in _DELIBERATE), (got, want)
                return
        assert got == want

    def _line(self, **fields):
        obj = {**asdict(make_record(sha=sha_of(1))), **fields}
        return json.dumps(obj)

    def _both(self, text):
        """read_canonical's outcome on the UTF-8 bytes of `text` (a lone
        surrogate kept as its three bytes), and the oracle's on `text`."""
        return _read_outcome(text.encode("utf-8", "surrogatepass")), _oracle_outcome(text)

    def test_lone_surrogate_rejected_with_line(self):
        text = self._line(sha=sha_of(0)) + "\n" + self._line(author_name="\ud800x") + "\n"
        assert "\\ud800" in text
        got, want = self._both(text)
        assert got == (SchemaError, "field 'author_name' holds a lone surrogate (line 2)", 2)
        assert isinstance(want, list) and len(want) == 2  # the oracle accepted it
        # unescaped, a lone surrogate's bytes are not UTF-8
        got, _ = self._both(text.replace("\\ud800", "\ud800"))
        assert got == (SchemaError, "input is not valid UTF-8 (line 2)", 2)
        # a pair that encodes one astral character is fine
        got, want = self._both(self._line(message="😀"))
        assert got == want and got[0]["message"] == "\U0001F600"

    @pytest.mark.parametrize("field", ["lines_added", "lines_deleted"])
    def test_line_counts_past_int64_rejected(self, field):
        got, want = self._both(self._line(**{field: 2**63}))
        assert got == (SchemaError, f"line counts must be <= {2**63 - 1} (line 1)", 1)
        assert isinstance(want, list)  # the oracle accepted it
        got, want = self._both(self._line(**{field: 2**63 - 1}))
        assert got == want and got[0][field] == 2**63 - 1

    @pytest.mark.parametrize("field, message", [
        ("timestamp_utc", "local time outside years 1-9999"),
        ("tz_offset_minutes", "tz_offset_minutes out of range"),
    ])
    @pytest.mark.parametrize("value", [10**30, -(10**30), 2**63])
    def test_huge_time_fields_keep_their_messages(self, field, message, value):
        got, want = self._both(self._line(**{field: value}))
        assert got == want == (SchemaError, f"{message} (line 1)", 1)

    def test_sha_followed_by_newline_rejected(self):
        sha = sha_of(1) + "\n"
        got, want = self._both(self._line(sha=sha_of(0)) + "\n" + self._line(sha=sha) + "\n")
        assert got == (SchemaError, f"malformed commit id {sha!r} (line 2)", 2)
        assert isinstance(want, list) and want[1]["sha"] == sha  # the oracle accepted it

    def test_integer_past_the_digit_limit_rejected(self):
        text = self._line(lines_added=0).replace('"lines_added": 0', '"lines_added": ' + "9" * 5000)
        got, want = self._both(text)
        assert got == (SchemaError, "invalid JSON: integer too long (line 1)", 1)
        assert want[0] is ValueError  # the oracle crashed

    def test_deep_nesting_rejected(self):
        got, want = self._both(self._line() + "\n" + "[" * 100_000 + "\n")
        assert got == (SchemaError, "invalid JSON: nested too deeply (line 2)", 2)
        assert want[0] is RecursionError  # the oracle crashed

    @staticmethod
    def _canonical(n, start=0):
        """n lines as write_canonical writes them, with shas sha_of(start) on."""
        return canonical_bytes([make_record(sha=sha_of(start + i)) for i in range(n)]).decode()

    def test_duplicate_sha_within_one_run(self):
        got, want = self._both(self._canonical(3) + self._canonical(1, start=1))
        assert got == want == (DuplicateShaError, f"duplicate commit id {sha_of(1)} (line 4)", 4)

    def test_duplicate_sha_across_two_blocks(self):
        n = native.BLOCK_BYTES // 200 + 10
        text = self._canonical(n) + self._canonical(1, start=5)
        assert len(text.split("\n", 5)[5]) > native.BLOCK_BYTES  # sha_of(5) in the first block
        got, want = self._both(text)
        line = n + 1
        assert got == want == (DuplicateShaError, f"duplicate commit id {sha_of(5)} (line {line})",
                               line)

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_line_longer_than_a_block(self, end):
        long = self._line(sha=sha_of(9), message="x" * (2 * native.BLOCK_BYTES + 1))
        text = self._canonical(2) + long + "\n" + self._canonical(2, start=2) + long + end
        got, want = self._both(text)
        assert got == want == (DuplicateShaError, f"duplicate commit id {sha_of(9)} (line 6)", 6)
        got, want = self._both(self._canonical(2) + long + end)
        assert got == want and len(got[2]["message"]) == 2 * native.BLOCK_BYTES + 1

    def test_crlf_blank_lines_and_no_final_line_feed(self):
        a, b, c = (self._line(sha=sha_of(i)) for i in range(3))
        got, want = self._both(a + "\r\n" + "\n" + " \t\r\n" + b + "\n\n" + c)
        assert got == want and [r["sha"] for r in got] == [sha_of(i) for i in range(3)]

    @pytest.mark.parametrize("literal, value", [
        ("9" * 18, 10**18 - 1), ("1" + "0" * 18, 10**18), ("-0", 0), ("-1", -1), ("01", None),
    ])
    def test_int_spellings(self, literal, value):
        line = self._line(lines_added=7).replace('"lines_added": 7', f'"lines_added": {literal}')
        got, want = self._both(self._canonical(1) + line + "\n")
        assert got == want
        if value is None:
            assert got[:2] == (SchemaError, "invalid JSON: Expecting ',' delimiter (line 2)")
        else:
            assert got[1]["lines_added"] == value

    @pytest.mark.parametrize("name", ["del\x7f", "é", 'say "hi"', "back\\slash", ""])
    def test_strings_past_printable_ascii(self, name):
        line = json.dumps({**asdict(make_record(sha=sha_of(1))), "author_name": name},
                          ensure_ascii=False)
        got, want = self._both(self._canonical(1) + line + "\n")
        assert got == want and got[1]["author_name"] == name

    def test_uppercase_email_after_a_run(self):
        got, want = self._both(self._canonical(3) + self._line(sha=sha_of(9),
                                                               author_email="Ann@x.org") + "\n")
        assert got == want == (SchemaError, "author_email must be lowercase (line 4)", 4)

    @pytest.mark.parametrize("fields, message", [
        ({"tz_offset_minutes": 1441}, "tz_offset_minutes out of range"),
        ({"timestamp_utc": LOCAL_MAX + 1}, "local time outside years 1-9999"),
        ({"lines_deleted": -2}, "line counts must be >= -1"),
        ({"lines_added": 1.5}, "field 'lines_added' must be an integer"),
    ])
    def test_value_fault_right_after_a_run(self, fields, message):
        text = self._canonical(3) + self._line(sha=sha_of(9), **fields) + "\n" + self._canonical(1)
        got, want = self._both(text)
        assert got == want == (SchemaError, f"{message} (line 4)", 4)


_GOOD_LINE = json.dumps(asdict(make_record(sha=sha_of(1)))) + "\n"


@pytest.mark.skipif(native.BACKEND != "c", reason="no compiled scanner")
@pytest.mark.parametrize("old, new, taken", [
    ("", "", True),
    ('"lines_added": 1', '"lines_added": -0', True),
    ('"lines_added": 1', '"lines_added": ' + "9" * 18, True),
    ('"lines_added": 1', '"lines_added": 1' + "0" * 18, False),
    ('"lines_added": 1', '"lines_added": 01', False),
    ('"lines_added": 1', '"lines_added": 1.0', False),
    ('"lines_added": 1', '"lines_added": -2', False),
    ('"tz_offset_minutes": 0', '"tz_offset_minutes": 1441', False),
    ('"timestamp_utc": 1483347600', f'"timestamp_utc": {LOCAL_MAX + 1}', False),
    ("alice@", "Alice@", False),
    ("Alice", "Alice\x7f", False),
    ("Alice", "Alicé", False),
    ("Alice", 'Al\\"ice', False),
    ("Alice", "Al\\u0069ce", False),
    (sha_of(1), sha_of(1).upper().replace("0", "A"), False),
    ("}\n", "}\r\n", False),
    ("}\n", "} \n", False),
    ('", "author_name"', '","author_name"', False),
    ("{", " {", False),
])
def test_scanner_takes_only_the_canonical_layout(old, new, taken):
    """native.scan_canonical takes a line only in write_canonical's layout,
    with printable-ASCII strings and values _checked_row accepts."""
    line = _GOOD_LINE.replace(old, new, 1) if old else _GOOD_LINE
    assert line != _GOOD_LINE or not old
    (item,) = native.scan_canonical(io.BytesIO(line.encode()))
    assert (type(item) is tuple) == taken
    if taken:
        obj = json.loads(line)
        numbers, strings = item
        assert [column[0] for column in numbers] == [obj[k] for k in _INT_KEYS]
        assert strings == [obj[k] for k in _STR_KEYS]


_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", " ", " ", "\U0001F600",
                         "﻿", "/", "\t", "\n", "é"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=20,
)


class TestWriter:
    @given(st.lists(st.tuples(_TRICKY_TEXT, _TRICKY_TEXT.map(str.lower), _TRICKY_TEXT),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_lines_equal_json_dumps(self, texts):
        records = [make_record(sha=sha_of(i), author_name=n, author_email=e, message=m,
                               lines_added=-1 if i % 2 else 2**63 - 1, timestamp_utc=-i)
                   for i, (n, e, m) in enumerate(texts)]
        buf = io.StringIO()
        write_canonical(Commits.from_records(records), buf)
        assert buf.getvalue().split("\n")[:-1] == [
            json.dumps(asdict(r), ensure_ascii=False) for r in records]
        assert buf.getvalue().endswith("\n")


class TestNumstatBound:
    def test_int64_max_accepted(self):
        (rec,) = rows(parse_git_log(record_bytes(SHA_A, numstat=f"{2**63 - 1}\t0\ta.c\n")))
        assert rec.lines_added == 2**63 - 1

    @pytest.mark.parametrize("numstat", [
        f"{2**63 - 1}\t0\ta.c\n1\t0\tb.c\n",
        f"0\t{2**63}\ta.c\n",
        "9" * 5000 + "\t0\ta.c\n",
    ])
    def test_sums_past_int64_rejected(self, numstat):
        data = record_bytes(SHA_B) + b"\n" + record_bytes(SHA_A, numstat=numstat)
        with pytest.raises(ParseError, match=f"line counts exceed {2**63 - 1}.*record 1"):
            parse_git_log(data)


# ------------------------------------------------------------ git-log scanner

_GIT_SHAS = [sha_of(i) for i in range(6)]
_NUMSTAT_LINES = [b"3\t1\ta.c", b"0\t0\tb", b"-\t-\timg.png", b"", b"12\t7\tsrc/x y.c",
                  b"1\t0\told => new"]
_GIT_MUTATIONS = {
    # field or line -> the values a mutation puts there
    "name": [b"Al\xc3\xa9", b"\xff", b"A\x00b", b"A\x7f", b"\x1b[0m", b"A\tB", b"A\rB", b"",
             b" "],
    "email": [b"\xc3\x89@X.ORG", b"a\x00@x", b"A B@X", b""],
    "at": [b"+1", b" 1483348800", b"1483348800 ", b"1_0", b"9" * 19, b"0" * 19, b"9" * 5000,
           b"", b"-", b"-0", b"007", b"0x10", str(LOCAL_MAX).encode(),
           str(LOCAL_MIN).encode(), str(LOCAL_MAX + 1).encode()],
    "offset": [b"+2400", b"-2400", b"+2401", b"-2401", b"+05x0", b"0500", b"+050", b"+00000",
               b"", b"+9999", b"-0000", b"+0500 ", b"+0500\r", b"\t+0500"],
    "line": [b"-\t5\ta.c", b"5\t-\ta.c", b"-\t-\t", b"9" * 18 + b"\t1\ta", b"9" * 19 + b"\t1\ta",
             b"9" * 5000 + b"\t0\ta", f"{2**63 - 1}\t0\ta".encode(), b"3 1 a.c", b"3\t\t1\ta",
             b"3 \t1\ta", b"3\t1\t", b"3\t1\ta\r", b"\r", b"x\ty\tz",
             b"3\t1\ta\x1eb.c", b"3\t1"],
}


@st.composite
def _git_export(draw):
    """A valid export of 1-5 records built with record_bytes, with 0-3
    mutations, and with or without its final line feed."""
    n = draw(st.integers(1, 5))
    records = []  # [header fields, numstat lines] per record
    for sha in draw(st.permutations(_GIT_SHAS))[:n]:
        offset = draw(st.sampled_from(["+0500", "-0130", "+0000", "+2400", "-2400"]))
        numstat = b"\n".join(draw(st.lists(st.sampled_from(_NUMSTAT_LINES), max_size=4)))
        data = record_bytes(sha, name=draw(st.sampled_from(["Alice", "Dev 0001", "o'Neil"])),
                            email=draw(st.sampled_from(["A@X.COM", "dev@example.org"])),
                            at=draw(st.integers(-10**10, 10**10)),
                            ad=f"2017-01-02 14:00:00 {offset}", numstat=numstat.decode())
        header, _, body = data[1:].partition(b"\n")
        records.append([header.split(b"\x1f"), body.split(b"\n")])
    for _ in range(draw(st.integers(0, 3))):
        fields, lines = draw(st.sampled_from(records))
        kind = draw(st.sampled_from([*_GIT_MUTATIONS, "sha", "dup_sha", "fields", "cr",
                                     "ad_spaces", "blank"]))
        # after a "fields" mutation the header may hold fewer fields
        if kind in ("name", "email", "at"):
            k = min(("name", "email", "at").index(kind) + 1, len(fields) - 1)
            fields[k] = draw(st.sampled_from(_GIT_MUTATIONS[kind]))
        elif kind == "offset":
            fields[-1] = fields[-1][:-5] + draw(st.sampled_from(_GIT_MUTATIONS[kind]))
        elif kind == "line":
            line = draw(st.sampled_from(_GIT_MUTATIONS[kind]))
            lines.insert(draw(st.integers(0, len(lines))), line)
        elif kind == "sha":
            fields[0] = draw(st.sampled_from([fields[0].upper(), fields[0][:39], b"g" * 40]))
        elif kind == "dup_sha":
            fields[0] = draw(st.sampled_from(records))[0][0]
        elif kind == "fields":
            fields.insert(draw(st.integers(0, len(fields))), b"extra")
            if draw(st.booleans()):  # one field fewer than it started with
                del fields[draw(st.integers(0, len(fields) - 1))]
                del fields[draw(st.integers(0, len(fields) - 1))]
        elif kind == "cr":
            k = draw(st.integers(0, len(fields) - 1))
            cut = draw(st.integers(0, len(fields[k])))
            fields[k] = fields[k][:cut] + b"\r" + fields[k][cut:]
        elif kind == "ad_spaces":
            fields[-1] = fields[-1].replace(b" ", draw(st.sampled_from([b"  ", b"\t", b" \t"])), 1)
        else:  # a blank line, or a line of white space
            line = draw(st.sampled_from([b"", b" ", b"\t", b" \t "]))
            lines.insert(draw(st.integers(0, len(lines))), line)
    data = b"\n".join(b"\x1e" + b"\x1f".join(fields) + b"\n" + b"\n".join(lines)
                      for fields, lines in records)
    return data if draw(st.booleans()) else data.rstrip(b"\n")


def _git_outcome(data):
    """parse_git_log's rows on `data`, or its error as (type, message, byte
    offset, record index); the same with the compiled scanner and without."""
    outcomes = []
    for on in SCANNER_MODES:
        with scanning(on):
            try:
                outcomes.append(rows(parse_git_log(data)))
            except (ParseError, DuplicateShaError) as exc:
                outcomes.append((type(exc), str(exc), getattr(exc, "byte_offset", None),
                                 getattr(exc, "record_index", None)))
    assert all(o == outcomes[0] for o in outcomes), outcomes
    return outcomes[0]


class TestGitLogScanner:
    @given(_git_export())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_with_and_without_the_scanner(self, data):
        _git_outcome(data)

    def test_runs_longer_than_a_call(self):
        """More records than one scanner call takes, with a declined record
        (CRLF) and a duplicate sha far past the first run."""
        n = native.RUN_RECORDS + 5
        records = [record_bytes(sha_of(i), numstat="1\t2\ta.c\n") for i in range(n)]
        records[n // 2] = record_bytes(sha_of(n // 2), numstat="1\t2\ta.c\r\n")
        data = b"\n".join(records)
        got = _git_outcome(data)
        assert len(got) == n and got[n // 2].lines_added == 1
        got = _git_outcome(data + b"\n" + record_bytes(sha_of(n - 3)))
        assert got == (DuplicateShaError, f"duplicate commit id {sha_of(n - 3)}", None, None)

    def test_strings_past_the_text_buffer(self):
        """A record whose strings alone fill more than a call's text buffer
        is declined and read by the per-record parser."""
        long_name = "x" * (native.BLOCK_BYTES + 1)
        data = (record_bytes(SHA_A) + b"\n" + record_bytes(SHA_B, name=long_name) + b"\n"
                + record_bytes("c" * 40))
        got = _git_outcome(data)
        assert [r.author_name for r in got] == ["Alice", long_name, "Alice"]


_GOOD_GIT = record_bytes(SHA_A, numstat="3\t1\ta.c\n-\t-\timg.png\n\n")


@pytest.mark.skipif(native.BACKEND != "c", reason="no compiled scanner")
@pytest.mark.parametrize("old, new, taken", [
    (b"", b"", True),
    (b"Alice", b"", True),
    (b"Alice", b"Al ice~", True),
    (b"Alice", b"Al\xc3\xa9ce", False),
    (b"Alice", b"Al\x7fce", False),
    (b"Alice", b"Al\tce", False),
    (b"A@X.COM", b"a@x.com", True),
    (b"A@X.COM", b"A@X\x01.COM", False),
    (b"A@X.COM\x1f", b"A@X.COM\x1fextra\x1f", False),
    (SHA_A.encode(), b"A" * 40, False),
    (b"1483348800", b"-0", True),
    (b"1483348800", b"0" * 18, True),
    (b"1483348800", b"0" * 19, False),
    (b"1483348800", b"9" * 18, False),
    (b"1483348800", b"+1483348800", False),
    (b"1483348800", b" 1483348800", False),
    (b"+0500", b"+2400", True),
    (b"+0500", b"-2400", True),
    (b"+0500", b"+2401", False),
    (b"+0500", b"+05x0", False),
    (b"+0500", b"+0500 ", False),
    (b"+0500", b"+0500\r", False),
    (b" +0500", b"\t+0500", False),
    (b"2017-01-02 14:00:00 +0500", b"+0500", True),
    (b"2017-01-02 14:00:00 ", b"\xff\r ", True),
    (b"3\t1\ta.c", b"3 1 a.c", False),
    (b"3\t1\ta.c", b"3\t1\t", False),
    (b"3\t1\ta.c", b"3\t1\t\t", True),
    (b"3\t1\ta.c", b"3\t1\ta.c\r", True),
    (b"3\t1\ta.c", b"9" * 18 + b"\t1\ta.c", True),
    (b"3\t1\ta.c", b"9" * 19 + b"\t1\ta.c", False),
    (b"3\t1\ta.c", b"-\t1\ta.c", True),
    (b"3\t1\ta.c", b"-5\t1\ta.c", False),
    (b"3\t1\ta.c", b"\n".join([b"9" * 18 + b"\t0\ta"] * 9), True),  # sums to 9e18 - 9
    (b"3\t1\ta.c", b"\n".join([b"9" * 18 + b"\t0\ta"] * 10), False),  # past int64
    (b"\n\n", b"\n \n", False),
    (b"\n\n", b"\n\r\n", False),
    (b"\n\n", b"", True),
])
def test_git_scanner_takes_only_git_shape(old, new, taken):
    """native.scan_git_log takes a record only in exactly git's shape, with
    printable-ASCII names and emails and values the per-record parser
    accepts; what it takes, it reads as that parser does."""
    data = _GOOD_GIT.replace(old, new, 1) if old else _GOOD_GIT
    assert data != _GOOD_GIT or not old
    item = next(native.scan_git_log(data, 1))
    assert (type(item) is tuple) == taken
    if taken:
        with scanning(False):
            (want,) = rows(parse_git_log(data))
        numbers, strings = item
        assert [column[0] for column in numbers] == [want.timestamp_utc, want.tz_offset_minutes,
                                                     want.lines_added, want.lines_deleted]
        assert strings == [want.sha, want.author_name, want.author_email]

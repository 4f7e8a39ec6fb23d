import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_record, rows, sha_of
from paydev.errors import SchemaError
from paydev.linkage import (
    extract_issue_ids,
    extract_links,
    filter_by_products,
    load_product_map,
)
from paydev.ingest import Commits


class TestExtract:
    def test_simple(self):
        assert extract_issue_ids("Bug 12345 - fix crash. r=foo") == [12345]

    def test_no_identifier(self):
        assert extract_issue_ids("Merge branch") == []

    def test_dedup_and_min_digits(self):
        # 42 has only two digits, so only the long id survives
        assert extract_issue_ids("bug #42 relates to Bug 42 and bug 7000000") == [7000000]

    def test_dedup_keeps_first_occurrence(self):
        assert extract_issue_ids("bug 111, bug 222, Bug 111") == [111, 222]

    def test_case_insensitive_and_hash(self):
        assert extract_issue_ids("BUG  #  1234") == [1234]

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        out = extract_issue_ids(text)
        assert all(isinstance(i, int) and i >= 100 for i in out)
        assert len(out) == len(set(out))


class TestProductMap:
    def test_load(self):
        mapping = load_product_map(io.StringIO("issue_id,product\n10,Firefox\n11,Core\n"))
        assert mapping == {10: "Firefox", 11: "Core"}

    def test_cells_stripped(self):
        """The product cell, like the issue id and the header cells, is read
        without its surrounding spaces, so it matches a `products=` value."""
        mapping = load_product_map(io.StringIO("issue_id, product\n123456, Firefox \n"))
        assert mapping == {123456: "Firefox"}
        records = Commits.from_records([make_record(sha=sha_of(0), message="Bug 123456 - x")])
        kept, report = filter_by_products(records, extract_links(records), mapping, {"Firefox"})
        assert [r.sha for r in rows(kept)] == [sha_of(0)]
        assert report.disallowed == 0

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            load_product_map(io.StringIO("id,product\n"))

    def test_duplicate_issue(self):
        with pytest.raises(SchemaError):
            load_product_map(io.StringIO("issue_id,product\n10,A\n10,B\n"))


class TestFilter:
    def _records(self):
        return Commits.from_records([
            make_record(sha=sha_of(0), message="Bug 100 - linked to allowed"),
            make_record(sha=sha_of(1), message="no link"),
            make_record(sha=sha_of(2), message="Bug 999 - unmapped"),
            make_record(sha=sha_of(3), message="Bug 200 - other product"),
        ])

    def test_keeps_allowed_only(self):
        records = self._records()
        links = extract_links(records)
        mapping = {100: "Firefox", 200: "Thunderbird"}
        kept, report = filter_by_products(records, links, mapping, {"Firefox"})
        assert [r.sha for r in rows(kept)] == [sha_of(0)]
        assert (report.total, report.linked, report.kept) == (4, 3, 1)
        assert (report.unmapped, report.disallowed) == (1, 1)

    def test_counts_nest(self):
        records = self._records()
        links = extract_links(records)
        _, report = filter_by_products(records, links, {100: "Firefox"}, {"Firefox"})
        assert report.kept <= report.linked <= report.total
        assert report.linked == report.kept + report.unmapped + report.disallowed

    def test_primary_link_is_first(self):
        rec = Commits.from_records([make_record(sha=sha_of(9), message="Bug 300 then Bug 100")])
        links = extract_links(rec)
        kept, _ = filter_by_products(rec, links, {100: "Firefox", 300: "X"}, {"Firefox"})
        assert rows(kept) == []  # primary link 300 maps to a disallowed product

    def test_empty_allowed_rejected(self):
        with pytest.raises(ValueError):
            filter_by_products(Commits.from_records([]), {}, {}, set())

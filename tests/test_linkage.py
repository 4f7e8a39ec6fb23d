import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paydev.errors import SchemaError
from paydev.linkage import filter_by_products, load_product_map, primary_issue


class TestExtract:
    def test_simple(self):
        assert primary_issue("Bug 12345 - fix crash. r=foo") == 12345

    def test_no_identifier(self):
        assert primary_issue("Merge branch") is None

    def test_dedup_and_min_digits(self):
        # 42 has only two digits, so the first reference is the long id
        assert primary_issue("bug #42 relates to Bug 42 and bug 7000000") == 7000000

    def test_dedup_keeps_first_occurrence(self):
        """The first reference decides, whatever follows it."""
        assert primary_issue("bug 111, bug 222, Bug 111") == 111
        assert primary_issue("Bug 300 then Bug 100") == 300

    def test_case_insensitive_and_hash(self):
        assert primary_issue("BUG  #  1234") == 1234
        assert primary_issue("bug #1234") == 1234

    @pytest.mark.parametrize("message, issue", [
        ("Bug 123456 - x", 123456),
        ("(bug 1234)", 1234),
        ("Bug 999999999 - nine digits", 999999999),
        # no word starts at the "bug" of "debug", and ten digits are no id
        ("debug 1234", None),
        ("Bug 1234567890 - x", None),
        ("debug 1234, then bug 5678", 5678),
        ("Bug 1234567890 and bug 555", 555),
        # an id starts with a digit other than 0
        ("bug 007", None),
        ("bug 0123", None),
    ])
    def test_reference_bounds(self, message, issue):
        assert primary_issue(message) == issue

    @given(st.text(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_total_on_arbitrary_text(self, text):
        issue = primary_issue(text)
        assert issue is None or (type(issue) is int and 100 <= issue <= 999_999_999)


class TestProductMap:
    def test_load(self):
        mapping = load_product_map(io.StringIO("issue_id,product\n10,Firefox\n11,Core\n"))
        assert mapping == {10: "Firefox", 11: "Core"}

    def test_cells_stripped(self):
        """The product cell, like the issue id and the header cells, is read
        without its surrounding spaces, so it matches a `products=` value."""
        mapping = load_product_map(io.StringIO("issue_id, product\n 123456 , Firefox \n"))
        assert mapping == {123456: "Firefox"}
        rows, report = filter_by_products(["Bug 123456 - x"], mapping, {"Firefox"})
        assert rows == [0]
        assert report.disallowed == 0

    @pytest.mark.parametrize("cell", ["1_000", "+200", "٣٢١", "-7", "", "1.0",
                                      "12 3", "1" * 5000])
    def test_issue_id_is_ascii_digits(self, cell):
        """An issue id is ASCII digits alone, once stripped; int() would
        also take an underscore, a sign or another script's digits."""
        with pytest.raises(SchemaError) as exc:
            load_product_map(io.StringIO(f"issue_id,product\n10,A\n{cell},B\n"))
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            load_product_map(io.StringIO("id,product\n"))

    def test_duplicate_issue(self):
        with pytest.raises(SchemaError):
            load_product_map(io.StringIO("issue_id,product\n10,A\n10,B\n"))


class TestFilter:
    MESSAGES = [
        "Bug 100 - linked to allowed",
        "no link",
        "Bug 999 - unmapped",
        "Bug 200 - other product",
        "bug 100 again",
    ]

    def test_keeps_allowed_only(self):
        mapping = {100: "Firefox", 200: "Thunderbird"}
        rows, report = filter_by_products(self.MESSAGES, mapping, {"Firefox"})
        assert rows == [0, 4]
        assert (report.total, report.linked, report.kept) == (5, 4, 2)
        assert (report.unmapped, report.disallowed) == (1, 1)

    @given(st.lists(st.sampled_from(MESSAGES + ["Bug 300 then Bug 100", "debug 100"]),
                    max_size=30),
           st.dictionaries(st.sampled_from([100, 200, 300, 999]),
                           st.sampled_from(["Firefox", "Thunderbird"])))
    @settings(max_examples=100, deadline=None)
    def test_counts_nest(self, messages, mapping):
        rows, report = filter_by_products(messages, mapping, {"Firefox"})
        assert rows == sorted(set(rows)) and set(rows) <= set(range(len(messages)))
        assert report.total == len(messages) and report.kept == len(rows)
        assert report.kept <= report.linked <= report.total
        assert report.linked == report.kept + report.unmapped + report.disallowed
        assert all(mapping[primary_issue(messages[r])] == "Firefox" for r in rows)

    def test_primary_link_is_first(self):
        rows, _ = filter_by_products(["Bug 300 then Bug 100"], {100: "Firefox", 300: "X"},
                                     {"Firefox"})
        assert rows == []  # primary link 300 maps to a disallowed product

    def test_empty_allowed_rejected(self):
        with pytest.raises(ValueError):
            filter_by_products([], {}, set())

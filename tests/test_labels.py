import io
from datetime import date

import pytest

from conftest import history_of, make_record, sha_of
from paydev.errors import SchemaError, UnlabeledIdentityError
from paydev.identity import Identity
from paydev.labels import (
    LabelSet,
    commit_labels,
    load_labels,
    resolve_status,
    study_filter,
)

HEADER = "identity,status,hired_from,hired_to\n"


def _commit_on(day_iso, i=0):
    # local noon on the given date, offset 0
    d = date.fromisoformat(day_iso)
    ts = (d - date(1970, 1, 1)).days * 86400 + 12 * 3600
    return make_record(sha=sha_of(i), timestamp_utc=ts)


class TestLoad:
    def test_open_ended_period(self):
        labels = load_labels(io.StringIO(HEADER + "a@x.com,hired,2015-01-01,\n"))
        assert labels.periods["a@x.com"] == [(date(2015, 1, 1), None)]
        assert "a@x.com" not in labels.entries

    def test_empty_file(self):
        labels = load_labels(io.StringIO(HEADER))
        assert labels.entries == {} and labels.periods == {}

    def test_overlapping_periods_rejected(self):
        text = HEADER + "a@x,hired,2015-01-01,2016-01-01\na@x,hired,2015-06-01,2017-01-01\n"
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(text))

    def test_two_open_ended_rejected(self):
        text = HEADER + "a@x,hired,2015-01-01,\na@x,hired,2016-01-01,\n"
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(text))

    def test_bad_status(self):
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(HEADER + "a@x,employee,,\n"))

    def test_malformed_date(self):
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(HEADER + "a@x,hired,01/02/2015,\n"))

    def test_from_after_to(self):
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(HEADER + "a@x,hired,2016-01-01,2015-01-01\n"))

    def test_contradictory_direct_statuses(self):
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(HEADER + "a@x,hired,,\na@x,volunteer,,\n"))

    def test_volunteer_with_dates_rejected(self):
        with pytest.raises(SchemaError):
            load_labels(io.StringIO(HEADER + "a@x,volunteer,2015-01-01,\n"))

    def test_unknown_identities_kept(self):
        labels = load_labels(io.StringIO(HEADER + "ghost@x,volunteer,,\n"))
        assert labels.entries == {"ghost@x": "volunteer"}


def _identity(n_commits):
    return Identity(id="a@x", emails={"a@x"}, rows=list(range(n_commits)))


class TestStudyFilter:
    def test_strictly_more_than(self):
        assert study_filter([_identity(100)], 100) == []
        kept = study_filter([_identity(101)], 100)
        assert len(kept) == 1

    def test_small_threshold(self):
        assert len(study_filter([_identity(2)], 1)) == 1

    def test_monotone_in_threshold(self):
        idents = [_identity(k) for k in (1, 5, 50, 150)]
        for k in (2, 5, 49):
            bigger = {i.id for i in study_filter(idents, k)}
            smaller = {i.id for i in study_filter(idents, k - 1)}
            assert bigger <= smaller

    def test_min_commits_validated(self):
        with pytest.raises(ValueError):
            study_filter([], 0)


class TestResolve:
    def _label_set(self):
        return load_labels(
            io.StringIO(HEADER + "a@x,hired,2017-01-01,2017-06-30\n")
        )

    def test_majority_inside_periods_is_hired(self):
        labels = self._label_set()
        commits = [_commit_on("2017-02-01", 0), _commit_on("2017-03-01", 1),
                   _commit_on("2017-04-01", 2), _commit_on("2017-05-01", 3),
                   _commit_on("2017-09-01", 4)]
        assert resolve_status("a@x", history_of(commits), labels) == "hired"

    def test_all_outside_is_volunteer(self):
        labels = self._label_set()
        commits = [_commit_on("2018-01-01", 0), _commit_on("2018-02-01", 1)]
        assert resolve_status("a@x", history_of(commits), labels) == "volunteer"

    def test_exact_half_is_hired(self):
        labels = self._label_set()
        commits = [_commit_on("2017-02-01", 0), _commit_on("2018-01-01", 1)]
        assert resolve_status("a@x", history_of(commits), labels) == "hired"

    def test_direct_status_without_periods(self):
        labels = load_labels(io.StringIO(HEADER + "b@x,volunteer,,\n"))
        assert resolve_status("b@x", history_of([_commit_on("2017-01-01")]), labels) == "volunteer"

    def test_unlabeled_returns_none(self):
        assert resolve_status("ghost@x", history_of([_commit_on("2017-01-01")]), LabelSet()) is None

    def test_agrees_with_commit_majority(self):
        labels = self._label_set()
        commits = [_commit_on(d, i) for i, d in enumerate(
            ["2017-01-15", "2017-02-15", "2017-08-15", "2017-09-15", "2017-10-15"]
        )]
        statuses = commit_labels("a@x", history_of(commits), labels)
        majority = "hired" if statuses.count("hired") / len(statuses) >= 0.5 else "volunteer"
        assert resolve_status("a@x", history_of(commits), labels) == majority


class TestCommitLabels:
    def test_whole_range_hired(self):
        labels = load_labels(io.StringIO(HEADER + "a@x,hired,,\n"))
        commits = [_commit_on("2017-01-01", 0), _commit_on("2019-01-01", 1)]
        assert commit_labels("a@x", history_of(commits), labels) == ["hired", "hired"]

    def test_interval_splits_commits(self):
        labels = load_labels(io.StringIO(HEADER + "a@x,hired,2017-01-01,2017-06-30\n"))
        commits = [_commit_on("2017-02-01", 0), _commit_on("2018-02-01", 1)]
        assert commit_labels("a@x", history_of(commits), labels) == ["hired", "volunteer"]

    def test_unlabeled_errors(self):
        with pytest.raises(UnlabeledIdentityError):
            commit_labels("ghost@x", history_of([_commit_on("2017-01-01")]), LabelSet())

    def test_local_date_containment(self):
        # UTC instant 2017-06-30T23:00 with +120 offset is local 2017-07-01,
        # one day past the interval end
        labels = load_labels(io.StringIO(HEADER + "a@x,hired,2017-01-01,2017-06-30\n"))
        ts = (date(2017, 6, 30) - date(1970, 1, 1)).days * 86400 + 23 * 3600
        rec = make_record(timestamp_utc=ts, tz_offset_minutes=120)
        assert commit_labels("a@x", history_of([rec]), labels) == ["volunteer"]

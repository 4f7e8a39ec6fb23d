import io
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HISTORY_MODES, compiled_histories, history_of, make_record, owning, sha_of
from oracle_calendar import local_civil
from oracle_features import brute_force_features
from paydev.labels import commit_labels, load_labels
from paydev.features import (
    COMMIT_FEATURE_COLUMNS,
    FEATURE_COLUMNS,
    commit_features,
    developer_features,
    feature_matrix,
    histories,
    to_local,
    read_features_csv,
    write_features_csv,
)
from paydev import native
from paydev.identity import Identity
from paydev.ingest import Commits
from paydev.native import LOCAL_MAX, LOCAL_MIN

# Frozen from tests/oracle_features.py (run before the implementation).
FIXTURE_EXPECTED = {
    "period": 6,
    "days": 3,
    "weeks": 1,
    "timediff": 0.22916666666666666,
    "commits": 4,
    "loc_per_commit": 5.0,
    "weekend": 0.5,
    "night": 0.25,
    "morning": 0.25,
    "afternoon": 0.25,
    "evening": 0.25,
    "office": 0.5,
    "most_active_hour": 2,
    "beginning_regular": 9,
    "end_regular": 14,
    "length_regular": 5,
}


# (local dates of a History, its number of ISO weeks)
_WEEK_EDGES = [
    ([(2020, 12, 31), (2021, 1, 3)], 1),  # both in 2020-W53
    ([(2021, 1, 3), (2021, 1, 4)], 2),
    ([(1, 1, 1), (1, 1, 7)], 1),  # 0001-01-01 is a Monday
    ([(9999, 12, 27), (9999, 12, 31)], 1),
]


class TestDeveloperFeatures:
    def test_fixture_exact(self, fixture_commits):
        feats = developer_features(history_of(fixture_commits))
        for name, expected in FIXTURE_EXPECTED.items():
            got = getattr(feats, name)
            if name == "timediff":
                assert got == pytest.approx(expected, abs=1e-4)
            else:
                assert got == expected, name

    def test_fixture_matches_oracle(self, fixture_commits):
        oracle = brute_force_features(
            [
                (c.sha, c.timestamp_utc, c.tz_offset_minutes, c.lines_added, c.lines_deleted)
                for c in fixture_commits
            ]
        )
        for on in HISTORY_MODES:
            with compiled_histories(on):
                feats = developer_features(history_of(fixture_commits))
            for name, expected in oracle.items():
                assert getattr(feats, name) == pytest.approx(expected), name

    def test_single_commit(self):
        rec = make_record(timestamp_utc=1483347600 + 3600)  # Mon 10:00
        feats = developer_features(history_of([rec]))
        assert feats.period == 0
        assert feats.days == 1
        assert feats.weeks == 1
        assert feats.timediff == 0.0
        assert feats.morning == 1.0
        assert feats.office == 1.0
        assert feats.weekend == 0.0
        assert feats.most_active_hour == 10
        assert feats.beginning_regular == feats.end_regular == 10
        assert feats.length_regular == 0

    def test_identical_timestamps(self):
        recs = [make_record(sha=sha_of(i)) for i in range(2)]
        feats = developer_features(history_of(recs))
        assert feats.timediff == 0.0
        assert feats.commits == 2

    def test_zero_commits_rejected(self):
        with pytest.raises(ValueError):
            developer_features(history_of([]))

    def test_unknown_loc_excluded(self):
        recs = [
            make_record(sha=sha_of(0), lines_added=-1, lines_deleted=-1),
            make_record(sha=sha_of(1), lines_added=10, lines_deleted=5),
        ]
        assert developer_features(history_of(recs)).loc_per_commit == 15.0

    def test_all_unknown_loc_falls_back_to_zero(self):
        recs = [make_record(lines_added=-1, lines_deleted=-1)]
        assert developer_features(history_of(recs)).loc_per_commit == 0.0

    def test_permutation_invariant(self, fixture_commits, rng):
        base = developer_features(history_of(fixture_commits))
        for _ in range(5):
            shuffled = list(fixture_commits)
            rng.shuffle(shuffled)
            assert developer_features(history_of(shuffled)) == base

    def test_matches_oracle_on_random_histories(self, rng):
        drawn = [
            ([
                make_record(
                    sha=sha_of(i),
                    timestamp_utc=int(rng.integers(1.4e9, 1.6e9)),
                    tz_offset_minutes=int(rng.integers(-720, 721)),
                    lines_added=int(rng.integers(-1, 300)),
                    lines_deleted=int(rng.integers(-1, 200)),
                )
                for i in range(int(rng.integers(1, 60)))
            ], None)
            for _ in range(40)
        ]
        # weeks at ISO-year boundaries and at the ends of years 1-9999: each
        # date's local midnight and the second before the next, under offsets
        # that put the UTC instant on the day before or after
        for dates, weeks in _WEEK_EDGES:
            assert len({date(*d).isocalendar()[:2] for d in dates}) == weeks
            days = [(date(*d) - date(1970, 1, 1)).days for d in dates]
            for off in (0, 1440, -1440):
                drawn.append(([
                    make_record(sha=sha_of(2 * k + late),
                                timestamp_utc=86400 * day + 86399 * late - 60 * off,
                                tz_offset_minutes=off)
                    for k, day in enumerate(days) for late in (0, 1)], weeks))
        for commits, weeks in drawn:
            oracle = brute_force_features(
                [
                    (c.sha, c.timestamp_utc, c.tz_offset_minutes, c.lines_added,
                     c.lines_deleted)
                    for c in commits
                ]
            )
            for on in HISTORY_MODES:
                with compiled_histories(on):
                    feats = developer_features(history_of(commits))
                for name, expected in oracle.items():
                    assert getattr(feats, name) == pytest.approx(expected, abs=1e-12), name
                assert weeks is None or feats.weeks == weeks

    def test_share_sums_to_one(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 50))
            commits = [
                make_record(sha=sha_of(i), timestamp_utc=int(rng.integers(1.4e9, 1.6e9)))
                for i in range(n)
            ]
            f = developer_features(history_of(commits))
            assert abs(f.night + f.morning + f.afternoon + f.evening - 1.0) < 1e-12
            assert 0 <= f.weekend <= 1 and 0 <= f.office <= 1
            assert f.days <= f.period + 1
            assert f.weeks <= f.days
            assert f.commits >= f.days
            assert f.length_regular == f.end_regular - f.beginning_regular >= 0


class TestMedians:
    def test_against_sort_index_oracle(self, rng):
        from statistics import median

        for _ in range(200):
            n = int(rng.integers(1, 1000))
            xs = rng.normal(size=n).tolist()
            s = sorted(xs)
            expected = s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2
            assert median(xs) == pytest.approx(expected, rel=1e-15)


def _rows(X, columns):
    """The flat array("d") X as a numpy matrix of rows of len(columns)."""
    return np.asarray(X).reshape(-1, len(columns))


class TestMatrix:
    def _features(self, fixture_commits):
        return {"dev": developer_features(history_of(fixture_commits))}

    def test_all_mode_16_columns(self, fixture_commits):
        X, ids, columns = feature_matrix(self._features(fixture_commits), "all")
        assert columns == FEATURE_COLUMNS
        assert len(columns) == 16
        assert _rows(X, columns).shape == (1, 16)
        assert ids == ["dev"]

    def test_no_volume_12_columns(self, fixture_commits):
        X, _, columns = feature_matrix(self._features(fixture_commits), "no_volume")
        assert len(columns) == 12
        assert set(FEATURE_COLUMNS) - set(columns) == {"commits", "days", "weeks", "period"}
        assert _rows(X, columns).shape == (1, 12)

    def test_rows_sorted_by_id(self, fixture_commits):
        feats = developer_features(history_of(fixture_commits))
        X, ids, _ = feature_matrix({"b": feats, "a": feats}, "all")
        assert ids == ["a", "b"]

    def test_csv_round_trip(self, fixture_commits):
        buf = io.StringIO()
        write_features_csv(self._features(fixture_commits), buf)
        buf.seek(0)
        X, ids, columns = read_features_csv(buf)
        assert columns == FEATURE_COLUMNS
        assert ids == ["dev"]
        direct, _, _ = feature_matrix(self._features(fixture_commits), "all")
        assert np.allclose(_rows(X, columns), _rows(direct, columns), atol=1e-6)


class TestCommitFeatures:
    def test_flags(self, fixture_commits):
        aggregates = developer_features(history_of(fixture_commits))
        X, shas, columns = commit_features(history_of(fixture_commits))
        X = _rows(X, columns)
        assert columns == COMMIT_FEATURE_COLUMNS
        assert X.shape == (4, len(columns))
        sat = X[2]  # Sat 22:00
        col = {c: i for i, c in enumerate(columns)}
        assert sat[col["weekend_flag"]] == 1
        assert sat[col["evening_flag"]] == 1
        assert sat[col["office_flag"]] == 0
        # exactly one time-of-day flag per commit
        tod = X[:, [col["night_flag"], col["morning_flag"], col["afternoon_flag"],
                    col["evening_flag"]]]
        assert (tod.sum(axis=1) == 1).all()

    def test_first_commit_uses_aggregate_timediff(self, fixture_commits):
        aggregates = developer_features(history_of(fixture_commits))
        X, _, columns = commit_features(history_of(fixture_commits))
        X = _rows(X, columns)
        assert X[0][columns.index("time_since_prev")] == pytest.approx(aggregates.timediff)

    def test_flag_sums_match_aggregate_shares(self, fixture_commits):
        aggregates = developer_features(history_of(fixture_commits))
        X, _, columns = commit_features(history_of(fixture_commits))
        X = _rows(X, columns)
        col = {c: i for i, c in enumerate(columns)}
        n = len(X)
        assert X[:, col["weekend_flag"]].sum() == aggregates.weekend * n
        for name in ("night", "morning", "afternoon", "evening", "office"):
            assert X[:, col[f"{name}_flag"]].sum() == getattr(aggregates, name) * n

    def test_missing_loc_imputed(self):
        recs = [
            make_record(sha=sha_of(0), lines_added=4, lines_deleted=4),
            make_record(sha=sha_of(1), timestamp_utc=1483347600 + 60,
                        lines_added=-1, lines_deleted=-1),
        ]
        aggregates = developer_features(history_of(recs))
        X, _, columns = commit_features(history_of(recs))
        X = _rows(X, columns)
        assert X[1][columns.index("loc")] == aggregates.loc_per_commit == 8.0

    def test_columns_match_calendar_oracle(self, rng):
        """Row by row on a multi-timezone history spanning years 1-9999."""
        commits = [
            make_record(
                sha=sha_of(i),
                timestamp_utc=int(ts),
                tz_offset_minutes=int(off),
                lines_added=int(rng.integers(-1, 50)),
            )
            for i, (ts, off) in enumerate(zip(
                np.concatenate([rng.integers(-6.2e10, 2.5e11, 300),
                                rng.integers(1.4e9, 1.6e9, 300)]),
                rng.integers(-1440, 1441, 600),
            ))
        ]
        aggregates = developer_features(history_of(commits))
        X, shas, columns = commit_features(history_of(commits))
        X = _rows(X, columns)
        by_sha = {c.sha: c for c in commits}
        col = {c: i for i, c in enumerate(columns)}
        assert len(shas) == len(commits)
        for row, sha in zip(X, shas):
            c = by_sha[sha]
            *_, hour, _, weekday, _, _ = local_civil(c.timestamp_utc, c.tz_offset_minutes)
            expected = {
                "weekend_flag": weekday >= 5,
                "hour": hour,
                "night_flag": hour < 6,
                "morning_flag": 6 <= hour < 12,
                "afternoon_flag": 12 <= hour < 18,
                "evening_flag": 18 <= hour,
                "office_flag": 8 <= hour < 17,
            }
            assert {k: row[col[k]] for k in expected} == {
                k: float(v) for k, v in expected.items()}


def _tied_commits(rng, n=60):
    """Commits on a few shared instants, so (timestamp, sha) order needs the
    sha tie-break; random shas, offsets and binary-only commits."""
    return [
        make_record(
            sha=sha_of(int(k)),
            author_email=f"a{k % 3}@example.org",
            timestamp_utc=1483347600 + int(rng.integers(0, 6)) * 40000,
            tz_offset_minutes=int(rng.integers(-720, 721)),
            lines_added=int(rng.integers(-1, 30)),
        )
        for k in rng.permutation(10 * n)[:n]
    ]


def _columns(h):
    """A History's array columns as (typecode, bytes), NaN included."""
    return [(c.typecode, c.tobytes()) for c in (h.ts, h.lines, *h.local)]


class TestHistory:
    def test_order_of_commits_does_not_matter(self, rng):
        commits = _tied_commits(rng)
        base = history_of(sorted(commits, key=lambda c: (c.timestamp_utc, c.sha)))
        for _ in range(5):
            rng.shuffle(commits)
            h = history_of(commits)
            assert h.sha == base.sha
            assert h.email == base.email
            assert _columns(h) == _columns(base)

    def test_rows_align_with_sha(self, rng):
        commits = _tied_commits(rng)
        h = history_of(commits)
        by_sha = {c.sha: c for c in commits}
        assert h.sha == [c.sha for c in sorted(commits, key=lambda c: (c.timestamp_utc, c.sha))]
        X, shas, columns = commit_features(h)
        X = _rows(X, columns)
        assert shas == h.sha
        hours = [local_civil(by_sha[sha].timestamp_utc, by_sha[sha].tz_offset_minutes)[3]
                 for sha in h.sha]
        assert X[:, columns.index("hour")].tolist() == hours
        labels = load_labels(io.StringIO("identity,status,hired_from,hired_to\n"
                                         "a,hired,2017-01-03,2017-01-05\n"))
        local_dates = [date(*local_civil(by_sha[sha].timestamp_utc,
                                         by_sha[sha].tz_offset_minutes)[:3]) for sha in h.sha]
        assert commit_labels("a", h, labels) == [
            "hired" if date(2017, 1, 3) <= d <= date(2017, 1, 5) else "volunteer"
            for d in local_dates
        ]

    def test_histories_equal_one_identity_at_a_time(self, rng):
        """histories over several identities (one empty, one sharing every
        instant with another) gives each identity the History it has alone."""
        commits = _tied_commits(rng, n=90)
        rng.shuffle(commits)
        table = Commits.from_records(commits)
        identities = [owning(f"id{k}", table, range(k, len(table), 4)) for k in (2, 0, 3, 1)]
        identities.append(Identity("none"))
        got = histories(identities, table)
        assert list(got) == ["id2", "id0", "id3", "id1", "none"]
        for ident in identities:
            alone = history_of([commits[r] for r in ident.rows])
            h = got[ident.id]
            assert (h.sha, h.email, _columns(h)) == (alone.sha, alone.email, _columns(alone))
            if h.sha:
                assert developer_features(h) == developer_features(alone)

    def test_histories_own_their_arrays(self, rng):
        """Writing one History's column changes no other History's."""
        commits = _tied_commits(rng)
        table = Commits.from_records(commits)
        identities = [owning(f"id{k}", table, range(k, len(table), 2)) for k in (0, 1)]
        first, second = histories(identities, table).values()
        before = _columns(second)
        for column in (first.ts, first.lines, *first.local):
            for k in range(len(column)):
                column[k] = 0
        assert _columns(second) == before


DAY = 86400
# local instants: anywhere in years 1-9999, at its edges, or a few shared
# instants around 1970 (ties, and negative timestamps)
_instants = st.one_of(
    st.integers(LOCAL_MIN, LOCAL_MAX),
    st.sampled_from([LOCAL_MIN, LOCAL_MIN + DAY - 1, LOCAL_MAX - DAY + 1, LOCAL_MAX]),
    st.sampled_from([-DAY - 1, -1, 0, 3 * DAY + 7]),
)
# a Saturday or Sunday (1970-01-03 was a Saturday) in years 1-9999
_weekend_instants = st.builds(lambda week, sunday, secs: ((7 * week + 2 + sunday) * DAY + secs),
                              st.integers(-101_600, 417_000), st.integers(0, 1),
                              st.integers(0, DAY - 1))
_offsets = st.one_of(st.sampled_from([-1440, 0, 1440]), st.integers(-1440, 1440))
_counts = st.one_of(st.just(-1), st.integers(0, 50), st.integers(0, 2**62))
# (owner, local instant, offset, added, deleted); owner 3 commits only at weekends
_commits = st.lists(
    st.tuples(st.integers(0, 3), _instants, _weekend_instants, _offsets, _counts, _counts)
    .map(lambda t: (t[0], t[2] if t[0] == 3 else t[1], *t[3:])),
    min_size=1, max_size=60,
)


@pytest.mark.skipif(native.BACKEND != "c", reason="needs the compiled library")
class TestCompiledTwin:
    """The compiled History pass and commit rows and their Python twins give
    the same columns, byte for byte (NaN included), the same developer
    features and commit rows, and the same errors."""

    @given(_commits)
    @settings(max_examples=150, deadline=None)
    def test_same_histories_and_features(self, drawn):
        records = [make_record(sha=sha_of(i), author_email=f"a{owner}@example.org",
                               timestamp_utc=local - 60 * off, tz_offset_minutes=off,
                               lines_added=added, lines_deleted=deleted)
                   for i, (owner, local, off, added, deleted) in enumerate(drawn)]
        table = Commits.from_records(records)
        identities = [owning(f"id{k}", table, [i for i, c in enumerate(drawn) if c[0] == k])
                      for k in range(4)]
        got = []
        for on in (True, False):
            with compiled_histories(on):
                hs = histories(identities, table)
                got.append({i: (h.sha, h.email, _columns(h),
                                developer_features(h) if h.sha else None,
                                commit_features(h)[0].tobytes() if h.sha else None)
                            for i, h in hs.items()})
        assert got[0] == got[1]
        weekend = hs["id3"]
        if weekend.sha:
            assert developer_features(weekend).weekend == 1.0

    @given(st.lists(st.tuples(st.integers(LOCAL_MIN - DAY, LOCAL_MAX + DAY),
                              st.integers(-1500, 1500)), max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_same_calendar_and_errors(self, pairs):
        ts, off = [t for t, _ in pairs], [o for _, o in pairs]
        got = []
        for on in (True, False):
            with compiled_histories(on):
                try:
                    got.append([(c.typecode, c.tobytes()) for c in to_local(ts, off)])
                except ValueError as exc:
                    got.append(str(exc))
        assert got[0] == got[1]
        if any(abs(o) > 1440 for o in off):
            assert got[0] == "tz offset out of range"
        elif any(not LOCAL_MIN <= t + 60 * o <= LOCAL_MAX for t, o in pairs):
            assert got[0] == "local time outside years 1-9999"

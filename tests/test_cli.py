import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paydev import evaluation, features, native
from paydev import labels as labels_mod
from paydev.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def corpus(tmp_path):
    records = tmp_path / "records.jsonl"
    labels = tmp_path / "labels.csv"
    code = run_cli(
        "synth", "--out", str(records), "--labels-out", str(labels),
        "--seed", "7", "--devs", "24", "--commits-low", "30",
        "--commits-high", "60",
    )
    assert code == 0
    return records, labels


SMALL_EVAL = ["--min-commits", "20", "--folds", "3", "--repeats", "2",
              "--forest-trees", "20"]


def _write_commit_features(path, labels):
    """A features CSV of the per-commit columns, one row of small integers
    per labelled identity, to train a per-commit model on."""
    ids = [row[0] for row in csv.reader(labels.read_text().splitlines()[1:])]
    path.write_text("\n".join(
        [",".join(["identity", *features.COMMIT_FEATURE_COLUMNS])]
        + [",".join([ident_id, *(str((i * 7 + k) % 5) for k in range(15))])
           for i, ident_id in enumerate(ids)]) + "\n")


def _identity_sizes(records, tmp_path):
    """Commit count per merged identity of the records."""
    idmap = tmp_path / "sizes.jsonl"
    assert run_cli("identities", str(records), "--out", str(idmap)) == 0
    return [len(json.loads(line)["commit_shas"]) for line in idmap.read_text().splitlines()]


def _dated_labels(labels, tmp_path):
    """The labels with every third developer on one dated hired period."""
    rows = labels.read_text().splitlines()
    dated = tmp_path / "dated.csv"
    dated.write_text("\n".join(
        [rows[0]] + [f"{row.split(',')[0]},hired,2016-03-01,2016-07-31" if i % 3 == 0 else row
                     for i, row in enumerate(rows[1:])]) + "\n")
    return dated


class TestSynthAndIngest:
    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run_cli("synth", "--out", str(out), "--labels-out",
                           str(tmp_path / "l.csv"), "--seed", "3",
                           "--devs", "10", "--commits-low", "10",
                           "--commits-high", "20") == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, flag", [
        (["--devs", "0"], "--devs"),
        (["--devs", "-3"], "--devs"),
        (["--commits-low", "0", "--commits-high", "0"], "--commits-low"),
        (["--commits-low", "-5", "--commits-high", "3"], "--commits-low"),
        (["--commits-low", "50", "--commits-high", "10"], "--commits-high"),
        (["--hired-share", "1.5"], "--hired-share"),
        (["--hired-share", "-0.1"], "--hired-share"),
        (["--hired-share", "nan"], "--hired-share"),
    ])
    def test_synth_rejects_out_of_range_sizes(self, tmp_path, capsys, flags, flag):
        """A size synth cannot generate from is a usage error, before any
        file is written."""
        out, labels = tmp_path / "r.jsonl", tmp_path / "l.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--out", str(out), "--labels-out", str(labels), *flags)
        assert exc.value.code == 2
        assert f"synth: {flag} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_ingest_file_and_help_documents_git(self, tmp_path, capsys):
        export = tmp_path / "log.bin"
        sha = "a" * 40
        export.write_bytes(
            f"\x1e{sha}\x1fT\x1fT@X.Y\x1f1483347600\x1f"
            "2017-01-02 14:00:00 +0500\n1\t0\ta.c\n".encode()
        )
        out = tmp_path / "canon.jsonl"
        assert run_cli("ingest", str(export), "--out", str(out)) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["author_email"] == "t@x.y"
        assert rec["tz_offset_minutes"] == 300

    def test_ingest_from_real_git_repo(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        env = dict(
            os.environ,
            GIT_AUTHOR_DATE="2017-01-02 14:00:00 +0500",
            GIT_COMMITTER_DATE="2017-01-02 14:00:00 +0500",
        )

        def git(*args):
            subprocess.run(["git", "-C", str(repo), *args], check=True, env=env,
                           capture_output=True)

        git("init", "-q")
        git("config", "user.email", "dev@example.org")
        git("config", "user.name", "Dev")
        (repo / "a.txt").write_text("hello\n")
        git("add", "a.txt")
        git("commit", "-qm", "Bug 123456 - first")
        out = tmp_path / "canon.jsonl"
        assert run_cli("ingest", str(repo), "--out", str(out)) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["tz_offset_minutes"] == 300
        assert rec["lines_added"] == 1

    def test_ingest_help_prints_export_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("ingest", "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "git log --all --no-merges --date-order" in out
        assert "--numstat" in out

    def test_help_command_is_the_one_ingest_runs(self, tmp_path, capsys, monkeypatch):
        with pytest.raises(SystemExit):
            run_cli("ingest", "--help")
        help_lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
        git, *rest = shlex.split(next(line for line in help_lines if line.startswith("git ")))
        ran = []

        def fake_run(argv, **kwargs):
            ran.append(argv)
            return subprocess.CompletedProcess(argv, 0, stdout=b"", stderr=b"")

        monkeypatch.setattr(subprocess, "run", fake_run)
        assert run_cli("ingest", str(tmp_path), "--out", str(tmp_path / "c.jsonl")) == 0
        assert ran == [[git, "-C", str(tmp_path), *rest]]

    def test_ingest_missing_file_exit_2(self, tmp_path):
        assert run_cli("ingest", str(tmp_path / "nope.log")) == 2

    def test_ingest_parse_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"\x1enot a header\n")
        assert run_cli("ingest", str(bad)) == 3


    def test_local_time_outside_years_1_to_9999_exit_3(self, tmp_path, capsys):
        export = tmp_path / "export.log"
        export.write_bytes(b"\x1e" + b"a" * 40 + b"\x1fA\x1fa@x.org\x1f99999999999999"
                           b"\x1f2017-01-02 14:00:00 +0000\n1\t0\ta.c\n")
        assert run_cli("ingest", str(export)) == 3
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({
            "sha": "a" * 40, "author_name": "A", "author_email": "a@x.org",
            "timestamp_utc": 10**12, "tz_offset_minutes": 0, "lines_added": 1,
            "lines_deleted": 0, "message": "",
        }) + "\n")
        assert run_cli("features", str(records)) == 3
        err = capsys.readouterr().err
        assert err.count("years 1-9999") == 2 and "internal error" not in err


class TestIdentitiesAndFeatures:
    def test_identity_map_and_features(self, corpus, tmp_path):
        records, _ = corpus
        ident_map = tmp_path / "identities.jsonl"
        assert run_cli("identities", str(records), "--out", str(ident_map)) == 0
        rows = [json.loads(l) for l in ident_map.read_text().splitlines()]
        assert all({"id", "names", "emails", "commit_shas"} <= set(r) for r in rows)

        csv_path = tmp_path / "features.csv"
        assert run_cli("features", str(records), "--identities", str(ident_map),
                       "--out", str(csv_path)) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == (
            "identity,period,days,weeks,timediff,commits,loc_per_commit,weekend,"
            "night,morning,afternoon,evening,office,most_active_hour,"
            "beginning_regular,length_regular,end_regular"
        )

    def test_features_no_volume_mode(self, corpus, tmp_path):
        records, _ = corpus
        csv_path = tmp_path / "features12.csv"
        assert run_cli("features", str(records), "--mode", "no_volume",
                       "--out", str(csv_path)) == 0
        header = csv_path.read_text().splitlines()[0].split(",")
        assert len(header) == 13  # identity + 12 metrics
        assert "commits" not in header

    def test_schema_violation_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"sha": "zz", "foo": 1}\n')
        assert run_cli("identities", str(bad)) == 3

    @pytest.mark.parametrize("pairs,rules,fix", [
        ([("N1", "a@x.com"), ("N2", "a@x.com")] * 3, "split N2\n", "split N2|a@x.com\n"),
        ([("a@x.com", ""), ("Bob", "a@x.com")], "", "merge a@x.com\n"),
    ], ids=["split_shares_address", "name_is_address"])
    def test_clashing_identity_ids_exit_3(self, tmp_path, capsys, pairs, rules, fix):
        from conftest import make_record, sha_of
        from paydev.ingest import Commits, write_canonical

        records = tmp_path / "records.jsonl"
        with open(records, "w", encoding="utf-8") as f:
            write_canonical(Commits.from_records([
                make_record(sha=sha_of(i), author_name=name, author_email=email)
                for i, (name, email) in enumerate(pairs)]), f)
        overrides, out = tmp_path / "overrides.txt", tmp_path / "out"
        overrides.write_text(rules)
        for command in ("identities", "features"):
            assert run_cli(command, str(records), "--overrides", str(overrides),
                           "--out", str(out)) == 3
            assert "two identities have the id 'a@x.com'" in capsys.readouterr().err
            assert not out.exists()
        overrides.write_text(fix)  # the rule the message suggests
        assert run_cli("features", str(records), "--overrides", str(overrides),
                       "--out", str(out)) == 0
        assert out.read_text().splitlines()[1].startswith("a@x.com,")
        assert len(out.read_text().splitlines()) == 2

    def test_merge_and_split_of_one_normalized_name_exit_3(self, corpus, tmp_path, capsys):
        records, _ = corpus
        overrides, out = tmp_path / "overrides.txt", tmp_path / "id.jsonl"
        overrides.write_text("merge Dev  0001|dev0002@example.org\nsplit Dev 0001\n")
        assert run_cli("identities", str(records), "--overrides", str(overrides),
                       "--out", str(out)) == 3
        assert "'Dev 0001' appears in both merge and split rules" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "evaluate"])
    def test_identities_excludes_overrides(self, corpus, tmp_path, capsys, command):
        records, labels = corpus
        ident_map, out = tmp_path / "identities.jsonl", tmp_path / "out"
        assert run_cli("identities", str(records), "--out", str(ident_map)) == 0
        argv = [command, str(records), "--identities", str(ident_map),
                "--overrides", str(tmp_path / "missing.txt"), "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, *(["--labels", str(labels)] if command == "evaluate" else []))
        assert exc.value.code == 2
        assert "not allowed with argument --identities" in capsys.readouterr().err
        assert not out.exists()


class TestEncodingFaults:
    """Input that is not UTF-8, or holds a lone surrogate, exits 3."""

    def test_non_utf8_records_exit_3(self, corpus, tmp_path, capsys):
        records, _ = corpus
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(records.read_bytes() + b"\xff\xfe\n")
        n = len(records.read_text().splitlines())
        assert run_cli("identities", str(bad)) == 3
        err = capsys.readouterr().err
        assert f"{bad} is not valid UTF-8 (line {n + 1})" in err
        assert "internal error" not in err

    def test_value_fault_before_non_utf8_byte_is_named(self, corpus, tmp_path, capsys):
        records, _ = corpus
        lines = records.read_text().splitlines(keepends=True)
        lines[1] = re.sub(r'"tz_offset_minutes": -?\d+', '"tz_offset_minutes": 1441', lines[1])
        bad = tmp_path / "bad.jsonl"
        # the byte sits far past the first block the text reader decodes
        bad.write_bytes("".join(lines).encode() + b"\n" * 100_000 + b"\xff\n")
        assert run_cli("identities", str(bad)) == 3
        assert "tz_offset_minutes out of range (line 2)" in capsys.readouterr().err

    def test_value_fault_then_non_utf8_byte_on_next_line(self, corpus, tmp_path, capsys):
        records, _ = corpus
        lines = records.read_bytes().splitlines(keepends=True)
        lines[1] = re.sub(rb'"tz_offset_minutes": -?\d+', b'"tz_offset_minutes": 5000', lines[1])
        lines[2] = b"\xff" + lines[2]  # inside the first block a text reader decodes
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        assert run_cli("identities", str(bad)) == 3
        assert "tz_offset_minutes out of range (line 2)" in capsys.readouterr().err

    def test_crlf_inputs_read_like_lf(self, corpus, tmp_path):
        """Records, labels, an identity map and a config file with \\r\\n
        line ends give the report they give with \\n."""
        records, labels = corpus
        ident, cfg = tmp_path / "id.jsonl", tmp_path / "run.cfg"
        assert run_cli("identities", str(records), "--out", str(ident)) == 0
        cfg.write_text("# small run\nfolds=3\nrepeats=1\nforest_trees=10\nmin_commits=20\n")
        reports = []
        for ends in (b"\n", b"\r\n"):
            paths = []
            for path in (records, labels, ident, cfg):
                copy = tmp_path / f"{len(ends)}-{path.name}"
                copy.write_bytes(path.read_bytes().replace(b"\n", ends))
                paths.append(str(copy))
            out = tmp_path / f"report-{len(ends)}.json"
            assert run_cli("evaluate", paths[0], "--labels", paths[1], "--identities", paths[2],
                           "--config", paths[3], "--out", str(out)) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command, damaged", [
        ("train", "labels"), ("train", "features"), ("evaluate", "labels"),
        ("commits", "labels"), ("features", "product_map"),
    ])
    def test_bare_carriage_return_in_csv_exit_3(self, corpus, tmp_path, capsys, command,
                                                 damaged):
        """A carriage return inside an unquoted field of any CSV input is
        named by its line, and nothing is written."""
        records, labels = corpus
        feats, pm, cfg = tmp_path / "f.csv", tmp_path / "pm.csv", tmp_path / "c.cfg"
        assert run_cli("features", str(records), "--out", str(feats)) == 0
        issues = [json.loads(line)["message"].split()[1]
                  for line in records.read_text().splitlines()]
        pm.write_text("issue_id,product\n" + "".join(f"{i},Firefox\n" for i in issues))
        cfg.write_text("products=Firefox\n")
        original = {"labels": labels, "features": feats, "product_map": pm}[damaged]
        lines = original.read_bytes().split(b"\n")
        lines[2] = lines[2][:3] + b"\r" + lines[2][3:]  # mid-field, on line 3
        bad = tmp_path / f"cr-{original.name}"
        bad.write_bytes(b"\n".join(lines))
        argv = {
            "train": ["train", feats, "--labels", labels, "--classifier", "logit"],
            "evaluate": ["evaluate", records, "--labels", labels, *SMALL_EVAL],
            "commits": ["commits", records, "--labels", labels, "--min-commits", "20",
                        "--forest-trees", "5"],
            "features": ["features", records, "--product-map", pm, "--config", cfg],
        }[command]
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(*[str(bad if a == original else a) for a in argv],
                       "--out", str(out)) == 3
        assert "unreadable CSV line: new-line character seen in unquoted field (line 3)" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_labels_exit_3(self, corpus, tmp_path, capsys):
        records, labels = corpus
        bad = tmp_path / "labels.csv"
        bad.write_bytes(labels.read_bytes().replace(b",volunteer,", b",volunt\xffer,", 1))
        out = tmp_path / "r.json"
        assert run_cli("evaluate", str(records), "--labels", str(bad), *SMALL_EVAL,
                       "--out", str(out)) == 3
        assert f"{bad} is not valid UTF-8 (line " in capsys.readouterr().err
        assert not out.exists()

    def test_lone_surrogate_record_exit_3(self, corpus, tmp_path, capsys):
        records, _ = corpus
        lines = records.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"author_name": "', '"author_name": "\\ud800', 1)
        bad, out = tmp_path / "bad.jsonl", tmp_path / "id.jsonl"
        bad.write_text("".join(lines))
        assert run_cli("identities", str(bad), "--out", str(out)) == 3
        assert "lone surrogate (line 4)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["identities"],
        ["features"],
        ["features", "--product-map", "{pm}", "--config", "{cfg}"],
    ])
    def test_lone_surrogate_message_exit_3(self, corpus, tmp_path, capsys, argv):
        """A message is checked whether or not the command keeps it (only
        the product filter reads messages)."""
        records, _ = corpus
        lines = records.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"message": "', '"message": "\\ud800', 1)
        bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
        bad.write_text("".join(lines))
        pm, cfg = tmp_path / "pm.csv", tmp_path / "c.cfg"
        pm.write_text("issue_id,product\n1,Firefox\n")
        cfg.write_text("products=Firefox\n")
        argv = [a.format(pm=pm, cfg=cfg) for a in argv]
        assert run_cli(argv[0], str(bad), *argv[1:], "--out", str(out)) == 3
        assert "field 'message' holds a lone surrogate (line 4)" in capsys.readouterr().err
        assert not out.exists()


class TestEvaluate:
    def test_json_report_and_determinism(self, corpus, tmp_path):
        records, labels = corpus
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = run_cli("evaluate", str(records), "--labels", str(labels),
                           "--seed", "7", *SMALL_EVAL, "--out", str(out))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        names = {c["classifier"] for c in report["cells"]}
        assert {"logit", "rpart", "randomforest", "allhired", "email",
                "5%officehours", "50%officehours", "95%officehours"} <= names
        assert report["config"]["seed"] == 7

    def test_single_class_labels_exit_5(self, corpus, tmp_path):
        records, labels = corpus
        rows = labels.read_text().splitlines()
        hired_only = [rows[0]] + [r for r in rows[1:] if r.endswith("hired,,")]
        bad = tmp_path / "hired_only.csv"
        bad.write_text("\n".join(hired_only) + "\n")
        assert run_cli("evaluate", str(records), "--labels", str(bad),
                       *SMALL_EVAL) == 5

    def test_no_studied_developers_exit_5(self, tmp_path, capsys):
        """Under the default min_commits of 100 no developer of a small corpus
        is studied: evaluate and train exit 5, as commits does."""
        records, labels = tmp_path / "r.jsonl", tmp_path / "l.csv"
        assert run_cli("synth", "--out", str(records), "--labels-out", str(labels), "--devs",
                       "12", "--commits-low", "20", "--commits-high", "40") == 0
        feats, unknown = tmp_path / "f.csv", tmp_path / "unknown.csv"
        assert run_cli("features", str(records), "--out", str(feats)) == 0
        unknown.write_text("identity,status,hired_from,hired_to\nnobody@x.org,hired,,\n")
        out = tmp_path / "out"
        capsys.readouterr()
        for argv in (["evaluate", records, "--labels", labels],
                     ["commits", records, "--labels", labels],
                     ["train", feats, "--labels", unknown, "--classifier", "logit"]):
            assert run_cli(*map(str, argv), "--out", str(out)) == 5, argv
            assert "internal error" not in capsys.readouterr().err
            assert not out.exists()

    def test_stratification_impossible_exit_6(self, corpus, tmp_path):
        records, labels = corpus
        code = run_cli("evaluate", str(records), "--labels", str(labels),
                       "--min-commits", "20", "--folds", "50", "--repeats", "1",
                       "--forest-trees", "5")
        assert code == 6

    def test_missing_labels_exit_2(self, corpus, tmp_path):
        records, _ = corpus
        assert run_cli("evaluate", str(records), "--labels",
                       str(tmp_path / "ghost.csv")) == 2

    def test_features_only_mode_skips_baselines(self, corpus, tmp_path, capsys):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--features", str(csv_path), "--labels",
                       str(labels), "--seed", "1", *SMALL_EVAL,
                       "--out", str(out)) == 0
        report = json.loads(out.read_text())
        assert {c["classifier"] for c in report["cells"]} == {
            "logit", "rpart", "randomforest"
        }

    @pytest.mark.parametrize("exists", [True, False])
    def test_features_only_mode_rejects_records(self, corpus, tmp_path, capsys, exists):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", str(records if exists else tmp_path / "missing.jsonl"),
                    "--features", str(csv_path), "--labels", str(labels), *SMALL_EVAL,
                    "--out", str(out))
        assert exc.value.code == 2
        assert "canonical records are not allowed with --features" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--identities", "--overrides", "--product-map"])
    def test_features_only_mode_rejects_records_flags(self, corpus, tmp_path, capsys, flag):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--features", str(csv_path), "--labels", str(labels),
                    flag, str(tmp_path / "missing"), *SMALL_EVAL, "--out", str(out))
        assert exc.value.code == 2
        assert f"{flag} needs canonical records" in capsys.readouterr().err
        assert not out.exists()


    def test_stderr_label_counts(self, corpus, tmp_path, capsys):
        records, labels = corpus
        rows = labels.read_text().splitlines()
        kept = rows[:-3]  # three identities lose their label
        trimmed = tmp_path / "trimmed.csv"
        trimmed.write_text("\n".join(kept) + "\n")
        hired = sum(row.split(",")[1] == "hired" for row in kept[1:])
        capsys.readouterr()
        assert run_cli("evaluate", str(records), "--labels", str(trimmed), "--seed", "1",
                       *SMALL_EVAL, "--out", str(tmp_path / "r.json")) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("# labels:")] == [
            f"# labels: hired={hired} volunteer={len(kept) - 1 - hired} unlabeled=3"
        ]

    def test_stderr_identity_counts(self, corpus, tmp_path, capsys):
        records, labels = corpus
        sizes = _identity_sizes(records, tmp_path)
        expected = f"# identities: total={len(sizes)} studied={sum(n > 40 for n in sizes)}"
        capsys.readouterr()
        assert run_cli("evaluate", str(records), "--labels", str(labels), *SMALL_EVAL,
                       "--min-commits", "40", "--out", str(tmp_path / "r.json")) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("# identities:")] == [expected]
        assert err[err.index(expected) + 1].startswith("# labels:")
        assert run_cli("commits", str(records), "--labels", str(labels), "--min-commits", "40",
                       "--forest-trees", "10", "--out", str(tmp_path / "c.json")) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("# identities:")] == [expected]

    def test_features_with_dated_periods_exit_5(self, corpus, tmp_path, capsys):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        ident = csv_path.read_text().splitlines()[1].split(",")[0]
        dated = tmp_path / "dated.csv"
        dated.write_text(labels.read_text() + f"{ident},hired,2017-01-01,\n")
        assert run_cli("evaluate", "--features", str(csv_path), "--labels", str(dated),
                       *SMALL_EVAL) == 5
        assert "evaluate <records>" in capsys.readouterr().err
        assert run_cli("evaluate", str(records), "--labels", str(dated), *SMALL_EVAL,
                       "--out", str(tmp_path / "r.json")) == 0


class TestTrainPredict:
    def test_train_predict_flow(self, corpus, tmp_path):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        run_cli("features", str(records), "--out", str(csv_path))
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(csv_path), "--labels", str(labels),
                       "--classifier", "randomforest", "--forest-trees", "20",
                       "--seed", "5", "--out", str(model_path)) == 0
        assert model_path.read_text().startswith('{"magic": "PAYDEVMODEL/2"')

        preds = tmp_path / "preds.csv"
        assert run_cli("predict", str(model_path), "--features", str(csv_path),
                       "--out", str(preds)) == 0
        lines = preds.read_text().splitlines()
        assert lines[0] == "id,probability,class"
        assert len(lines) == 25  # 24 developers + header
        assert all(line.split(",")[2] in ("hired", "volunteer") for line in lines[1:])

    def test_train_with_dated_periods_exit_5(self, corpus, tmp_path, capsys):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        ident = csv_path.read_text().splitlines()[-1].split(",")[0]
        dated = tmp_path / "dated.csv"
        dated.write_text(labels.read_text() + f"{ident},hired,2017-01-01,2017-06-30\n")
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(csv_path), "--labels", str(dated), "--classifier",
                       "logit", "--out", str(model_path)) == 5
        assert "evaluate <records>" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("value, code", [("inf", 3), ("-inf", 3), ("nan", 0)])
    def test_infinite_feature_exit_3(self, corpus, tmp_path, capsys, value, code):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        lines = csv_path.read_text().splitlines()
        row = lines[3].split(",")
        lines[3] = ",".join([row[0], value, *row[2:]])  # nan means missing: imputed
        csv_path.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier",
                       "logit", "--out", str(model_path)) == code
        if code:
            assert "infinite feature value (line 4)" in capsys.readouterr().err
            assert not model_path.exists()

    def test_repeated_identity_exit_3(self, corpus, tmp_path, capsys):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier",
                       "logit", "--out", str(model_path)) == 0
        lines = csv_path.read_text().splitlines()
        csv_path.write_text("\n".join(lines + [lines[1]]) + "\n")
        message = f"identity {lines[1].split(',')[0]!r} repeated (line {len(lines) + 1})"
        for argv in (
            ["train", str(csv_path), "--labels", str(labels), "--classifier", "logit",
             "--out", str(tmp_path / "again.json")],
            ["predict", str(model_path), "--features", str(csv_path)],
            ["evaluate", "--features", str(csv_path), "--labels", str(labels), *SMALL_EVAL],
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 3
            assert message in capsys.readouterr().err
        assert not (tmp_path / "again.json").exists()

    def test_repeated_column_exit_3(self, corpus, tmp_path, capsys):
        """A header that names a column twice is refused, even where the
        names as a set match a model's columns."""
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier",
                       "rpart", "--out", str(model_path)) == 0
        lines = csv_path.read_text().splitlines()
        repeated = [lines[0] + ",period"] + [f"{line},{line.split(',')[1]}" for line in lines[1:]]
        csv_path.write_text("\n".join(repeated) + "\n")
        for argv in (
            ["train", str(csv_path), "--labels", str(labels), "--classifier", "rpart",
             "--out", str(tmp_path / "again.json")],
            ["predict", str(model_path), "--features", str(csv_path)],
            ["evaluate", "--features", str(csv_path), "--labels", str(labels), *SMALL_EVAL],
        ):
            capsys.readouterr()
            assert run_cli(*argv) == 3
            assert "features CSV: column 'period' repeated (line 1)" in capsys.readouterr().err
        assert not (tmp_path / "again.json").exists()

    def test_ids_with_comma_and_quote_round_trip(self, corpus, tmp_path):
        records, labels = corpus
        idmap = tmp_path / "id.jsonl"
        assert run_cli("identities", str(records), "--out", str(idmap)) == 0
        objs = [json.loads(line) for line in idmap.read_text().splitlines()]
        renamed = {objs[0]["id"]: "Doe, Jane", objs[1]["id"]: 'Roe "R" Rick'}
        for obj in objs:
            obj["id"] = renamed.get(obj["id"], obj["id"])
        idmap.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        relabeled = tmp_path / "renamed.csv"
        with open(relabeled, "w", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(
                [renamed.get(row[0], row[0]), *row[1:]]
                for row in csv.reader(io.StringIO(labels.read_text())))
        csv_path, model_path = tmp_path / "f.csv", tmp_path / "model.json"
        assert run_cli("features", str(records), "--identities", str(idmap),
                       "--out", str(csv_path)) == 0
        assert run_cli("train", str(csv_path), "--labels", str(relabeled), "--classifier",
                       "logit", "--out", str(model_path)) == 0
        for source in (["--features", str(csv_path)],
                       ["--records", str(records), "--identities", str(idmap)]):
            preds = tmp_path / "p.csv"
            assert run_cli("predict", str(model_path), *source, "--out", str(preds)) == 0
            ids = [row[0] for row in csv.reader(io.StringIO(preds.read_text()))][1:]
            assert sorted(ids) == sorted(obj["id"] for obj in objs)
            assert {"Doe, Jane", 'Roe "R" Rick'} <= set(ids)

    def test_forest_on_overflowing_midpoints(self, tmp_path, recwarn):
        """Every feature is -1.5e308 for volunteers and -1e308 for the
        hired: the midpoint overflows to -inf, and the split is taken at the
        lower value (the forest once aborted here). The median of the two
        middle values overflowed the same way, and its -inf made model files
        that predict rejected; logit cannot standardize such values and
        exits 3 with no model."""
        features, labels = tmp_path / "f.csv", tmp_path / "l.csv"
        values = [-1.5e308 if i % 2 else -1e308 for i in range(20)]
        features.write_text("identity,a,b\n" + "".join(f"d{i},{v!r},{v!r}\n"
                                                     for i, v in enumerate(values)))
        labels.write_text("identity,status,hired_from,hired_to\n" + "".join(
            f"d{i},{'volunteer' if i % 2 else 'hired'},,\n" for i in range(20)))
        for classifier, code in (("rpart", 0), ("randomforest", 0), ("logit", 3)):
            model = tmp_path / f"{classifier}.json"
            assert run_cli("train", str(features), "--labels", str(labels), "--classifier",
                           classifier, "--forest-trees", "3", "--out", str(model)) == code
            assert model.exists() == (code == 0)
            if code == 0:
                assert run_cli("predict", str(model), "--features", str(features),
                               "--out", str(tmp_path / f"{classifier}.csv")) == 0
        assert not [w.message for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_deep_tree_train_predict_introspect(self, tmp_path, capsys):
        # labels alternate along one feature: a ~3,000-level CART
        n = 3000
        features, labels = tmp_path / "f.csv", tmp_path / "l.csv"
        features.write_text("identity,commits\n" + "".join(f"d{i},{i}\n" for i in range(n)))
        classes = ["hired" if i % 2 else "volunteer" for i in range(n)]
        labels.write_text("identity,status,hired_from,hired_to\n"
                          + "".join(f"d{i},{c},,\n" for i, c in enumerate(classes)))
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("tree_minsplit=2\ntree_cp=0\ntree_maxdepth=100000\n")
        model_path, preds = tmp_path / "model.json", tmp_path / "p.csv"
        capsys.readouterr()
        assert run_cli("train", str(features), "--labels", str(labels), "--classifier",
                       "rpart", "--config", str(cfg), "--introspect",
                       "--out", str(model_path)) == 0
        report = capsys.readouterr().err.split("decision tree:\n", 1)[1].splitlines()
        nodes = len(json.loads(model_path.read_text())["payload"]["root"]["n"])
        assert nodes > n and len(report) == nodes
        assert run_cli("predict", str(model_path), "--features", str(features),
                       "--out", str(preds)) == 0
        assert [line.split(",")[2] for line in preds.read_text().splitlines()[1:]] == classes

    def test_column_mismatch_exit_4(self, corpus, tmp_path):
        records, labels = corpus
        full = tmp_path / "f16.csv"
        slim = tmp_path / "f12.csv"
        run_cli("features", str(records), "--out", str(full))
        run_cli("features", str(records), "--mode", "no_volume", "--out", str(slim))
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(full), "--labels", str(labels),
                       "--classifier", "logit", "--out", str(model_path)) == 0
        assert run_cli("predict", str(model_path), "--features", str(slim)) == 4

    def test_predict_from_records(self, corpus, tmp_path):
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        run_cli("features", str(records), "--out", str(csv_path))
        model_path = tmp_path / "model.json"
        run_cli("train", str(csv_path), "--labels", str(labels),
                "--classifier", "rpart", "--out", str(model_path))
        preds = tmp_path / "p.csv"
        assert run_cli("predict", str(model_path), "--records", str(records),
                       "--out", str(preds)) == 0
        assert len(preds.read_text().splitlines()) == 25

    @pytest.mark.parametrize("inputs, message", [
        ("neither", "exactly one of --features and --records"),
        ("both", "exactly one of --features and --records"),
        ("identities", "--identities needs --records"),
    ])
    def test_predict_input_flags_exit_2(self, corpus, tmp_path, capsys, inputs, message):
        """predict reads exactly one of --features and --records, and takes
        --identities only with --records, even where its file is missing;
        any other mix is a usage error that writes nothing."""
        records, labels = corpus
        csv_path, model_path = tmp_path / "f.csv", tmp_path / "model.json"
        assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier", "rpart",
                       "--out", str(model_path)) == 0
        flags = {"neither": [],
                 "both": ["--features", str(csv_path), "--records", str(records)],
                 "identities": ["--features", str(csv_path),
                                "--identities", str(tmp_path / "missing.jsonl")]}[inputs]
        out = tmp_path / "p.csv"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli("predict", str(model_path), *flags, "--out", str(out))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_predict_from_records_uses_model_columns(self, corpus, tmp_path):
        records, labels = corpus
        slim = tmp_path / "f12.csv"
        run_cli("features", str(records), "--mode", "no_volume", "--out", str(slim))
        model_path = tmp_path / "model.json"
        assert run_cli("train", str(slim), "--labels", str(labels),
                       "--classifier", "logit", "--out", str(model_path)) == 0
        from_records, from_csv = tmp_path / "r.csv", tmp_path / "c.csv"
        assert run_cli("predict", str(model_path), "--records", str(records),
                       "--out", str(from_records)) == 0
        assert run_cli("predict", str(model_path), "--features", str(slim),
                       "--out", str(from_csv)) == 0
        assert from_records.read_bytes() == from_csv.read_bytes()

    def test_predict_from_records_per_commit_model_in_any_column_order(self, corpus, tmp_path):
        """A model of the per-commit columns in another order scores each
        commit's row, as the same model in the trained order does."""
        records, labels = corpus
        csv_path, model_path = tmp_path / "cf.csv", tmp_path / "m.json"
        _write_commit_features(csv_path, labels)
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier",
                       "randomforest", "--forest-trees", "5", "--out", str(model_path)) == 0
        model = json.loads(model_path.read_text())
        p = len(model["columns"])
        model["columns"].reverse()
        for key in ("impute", "importance"):
            model["payload"][key].reverse()
        for tree in model["payload"]["trees"]:
            tree["feature"] = [f if f < 0 else p - 1 - f for f in tree["feature"]]
        reversed_path = tmp_path / "reversed.json"
        reversed_path.write_text(json.dumps(model))
        outputs = []
        for path in (model_path, reversed_path):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli("predict", str(path), "--records", str(records),
                           "--out", str(out)) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert len(lines) == len(records.read_text().splitlines()) + 1
        assert len({line.split(",")[1] for line in lines[1:]}) > 1

    def test_predict_from_records_partial_per_commit_model_exit_4(self, corpus, tmp_path,
                                                                  capsys):
        """A model of 14 of the 15 per-commit columns is matched against the
        commit rows, and names only the column it lacks."""
        records, labels = corpus
        full, slim, model_path = tmp_path / "cf.csv", tmp_path / "cf14.csv", tmp_path / "m.json"
        _write_commit_features(full, labels)
        lacked = features.COMMIT_FEATURE_COLUMNS[-1]
        slim.write_text("".join(line.rsplit(",", 1)[0] + "\n"
                                for line in full.read_text().splitlines()))
        assert run_cli("train", str(slim), "--labels", str(labels), "--classifier", "logit",
                       "--out", str(model_path)) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run_cli("predict", str(model_path), "--records", str(records),
                       "--out", str(out)) == 4
        assert f"(extra: {lacked})" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["logit", "rpart", "randomforest", "evaluate", "predict"])
    def test_no_feature_column_exit_3(self, corpus, tmp_path, capsys, command):
        """A features CSV that holds only its identity column, and a model
        file of no columns, are schema faults that write nothing."""
        records, labels = corpus
        csv_path, out = tmp_path / "f.csv", tmp_path / "out"
        ids = [row[0] for row in csv.reader(labels.read_text().splitlines()[1:])]
        csv_path.write_text("identity\n" + "".join(f"{ident_id}\n" for ident_id in ids))
        if command == "evaluate":
            argv = ["evaluate", "--features", str(csv_path), "--labels", str(labels), *SMALL_EVAL]
            message = "features CSV names no feature column (line 1)"
        elif command == "predict":
            assert run_cli("features", str(records), "--out", str(csv_path)) == 0
            model_path = tmp_path / "m.json"
            model_path.write_text(json.dumps({
                "magic": "PAYDEVMODEL/2", "kind": "logit", "columns": [], "params": {},
                "payload": {"coef": [], "intercept": 0.0, "mean": [], "scale": [], "impute": [],
                            "converged": True, "n_iter": 0, "loss_history": []}}))
            argv = ["predict", str(model_path), "--features", str(csv_path)]
            message = "'columns' must be a non-empty list of names"
        else:
            argv = ["train", str(csv_path), "--labels", str(labels), "--classifier", command]
            message = "features CSV names no feature column (line 1)"
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("columns", ["developer", "commit"])
    def test_predict_from_records_without_commits(self, corpus, tmp_path, columns):
        """A records file with no commits scores no rows, with a developer-
        feature model and with a per-commit-feature one."""
        records, labels = corpus
        csv_path = tmp_path / "f.csv"
        if columns == "developer":
            assert run_cli("features", str(records), "--out", str(csv_path)) == 0
        else:
            _write_commit_features(csv_path, labels)
        model_path, empty, preds = tmp_path / "m.json", tmp_path / "e.jsonl", tmp_path / "p.csv"
        assert run_cli("train", str(csv_path), "--labels", str(labels), "--classifier",
                       "logit", "--out", str(model_path)) == 0
        empty.write_text("")
        assert run_cli("predict", str(model_path), "--records", str(empty),
                       "--out", str(preds)) == 0
        assert preds.read_text() == "id,probability,class\n"


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """A features CSV and one saved model of each kind."""
    d = tmp_path_factory.mktemp("models")
    records, labels, features = d / "records.jsonl", d / "labels.csv", d / "f.csv"
    assert run_cli("synth", "--out", str(records), "--labels-out", str(labels),
                   "--seed", "7", "--devs", "24", "--commits-low", "30",
                   "--commits-high", "60") == 0
    assert run_cli("features", str(records), "--out", str(features)) == 0
    models = {}
    for classifier in ("logit", "rpart", "randomforest"):
        path = d / f"{classifier}.json"
        assert run_cli("train", str(features), "--labels", str(labels), "--classifier",
                       classifier, "--forest-trees", "3", "--out", str(path)) == 0
        models[classifier] = json.loads(path.read_text())
    return d, features, models


def _key_paths(obj, path=()):
    """Every (path to a dict, key) pair in a parsed JSON document."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path, key
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, path + (i,))


NONFINITE = [float("nan"), float("inf"), float("-inf")]
# numbers load_model rejects: per model kind, (section, key) -> bad values
BAD_NUMBERS = {
    "logit": {("payload", "coef"): NONFINITE, ("payload", "intercept"): NONFINITE,
              ("payload", "mean"): NONFINITE, ("payload", "scale"): NONFINITE + [0.0, -1.0],
              ("payload", "impute"): NONFINITE},
    "tree": {("payload", "importance"): NONFINITE, ("params", "cp"): NONFINITE,
             ("payload", "impute"): NONFINITE},
    "forest": {("payload", "importance"): NONFINITE, ("payload", "impute"): NONFINITE},
}


class TestModelFiles:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_damaged_model_file_exit_3(self, model_files, data):
        d, features, models = model_files
        doc = json.loads(json.dumps(models[data.draw(st.sampled_from(sorted(models)))]))
        damage = data.draw(st.sampled_from(["truncate", "delete", "mistype", "number"]))
        if damage == "truncate":
            text = json.dumps(doc)
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        elif damage == "number":
            bad = BAD_NUMBERS[doc["kind"]]
            section, key = data.draw(st.sampled_from(sorted(bad)))
            value = data.draw(st.sampled_from(bad[section, key]))
            target = doc[section]
            if isinstance(target[key], list):
                target[key][data.draw(st.integers(0, len(target[key]) - 1))] = value
            else:
                target[key] = value
            text = json.dumps(doc)
        else:
            path, key = data.draw(st.sampled_from(list(_key_paths(doc))))
            parent = doc
            for step in path:
                parent = parent[step]
            if damage == "delete":
                del parent[key]
            else:
                parent[key] = data.draw(st.sampled_from(
                    [v for v in ("x", [], {}, True) if type(v) is not type(parent[key])]
                ))
            text = json.dumps(doc)
        damaged = d / "damaged.json"
        damaged.write_text(text)
        assert run_cli("predict", str(damaged), "--features", str(features)) == 3

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_damaged_tree_element_exit_3(self, model_files, data):
        d, features, models = model_files
        kind = data.draw(st.sampled_from(["rpart", "randomforest"]))
        doc = json.loads(json.dumps(models[kind]))
        trees = [doc["payload"]["root"]] if kind == "rpart" else doc["payload"]["trees"]
        tree = data.draw(st.sampled_from(trees))
        m = len(tree["n"])
        inner = [i for i in range(m) if tree["feature"][i] >= 0]
        node = data.draw(st.integers(0, m - 1))
        int_key = data.draw(st.sampled_from(["feature", "left", "right", "n", "pos"]))
        damage = data.draw(st.sampled_from(
            ["child", "twin", "feature", "huge", "mistyped", "n", "pos", "length", "threshold",
             "magic"]
        ))
        if damage == "child":  # a child at its own node or an earlier one
            node = data.draw(st.sampled_from(inner))
            side = data.draw(st.sampled_from(["left", "right"]))
            tree[side][node] = data.draw(st.integers(0, node))
        elif damage == "twin":  # both children the same later node
            node = data.draw(st.sampled_from(inner))
            tree["right"][node] = tree["left"][node]
        elif damage == "feature":
            tree["feature"][node] = len(doc["columns"])
        elif damage == "huge":
            tree[int_key][node] = 2**70
        elif damage == "mistyped":
            tree[int_key][node] = data.draw(st.sampled_from([True, 1.5]))
        elif damage == "n":
            tree["n"][node] = 0
        elif damage == "pos":
            tree["pos"][node] = tree["n"][node] + data.draw(st.integers(1, 3))
        elif damage == "threshold":
            tree["threshold"][node] = data.draw(st.sampled_from(NONFINITE))
        elif damage == "length":
            key = data.draw(st.sampled_from(sorted(tree)))
            tree[key] = tree[key][:-1] if data.draw(st.booleans()) else tree[key] + [0]
        else:
            doc["magic"] = "PAYDEVMODEL/1"
        damaged = d / "damaged.json"
        damaged.write_text(json.dumps(doc))
        assert run_cli("predict", str(damaged), "--features", str(features)) == 3

    # nested past the JSON parser's recursion limit; not UTF-8
    @pytest.mark.parametrize("data", [b"[" * 100_000, b"\xff\xfe{}"])
    def test_unparsable_model_bytes_exit_3(self, model_files, data):
        d, features, _ = model_files
        damaged = d / "damaged.json"
        damaged.write_bytes(data)
        assert run_cli("predict", str(damaged), "--features", str(features)) == 3

    @pytest.mark.parametrize("key", ["intercept", "coef"])
    def test_int_beyond_float64_exit_3(self, model_files, key):
        d, features, models = model_files
        doc = json.loads(json.dumps(models["logit"]))
        payload = doc["payload"]
        payload[key] = 10**400 if key == "intercept" else [10**400] * len(payload[key])
        damaged = d / "damaged.json"
        damaged.write_text(json.dumps(doc))
        assert run_cli("predict", str(damaged), "--features", str(features)) == 3

    def test_nan_impute_exit_3(self, model_files, tmp_path, capsys):
        """Training never writes a NaN impute (an all-missing column gets
        0.0), so a file with one is damaged, even where predict would not
        need it."""
        d, features, models = model_files
        for kind in sorted(models):
            doc = json.loads(json.dumps(models[kind]))
            doc["payload"]["impute"][0] = float("nan")
            model = tmp_path / f"nan-impute-{kind}.json"
            model.write_text(json.dumps(doc))
            assert run_cli("predict", str(model), "--features", str(features)) == 3
            assert "'impute'" in capsys.readouterr().err

    def test_repeated_model_column_exit_3(self, model_files, tmp_path, capsys):
        """A model file whose columns name one column twice is refused, even
        against a features CSV that holds that one column."""
        d, _, models = model_files
        features = tmp_path / "one.csv"
        features.write_text("identity,period\na,10\nb,200\n")
        for kind in sorted(models):
            doc = json.loads(json.dumps(models[kind]))
            doc["columns"] = ["period"] * len(doc["columns"])
            model = tmp_path / f"repeated-{kind}.json"
            model.write_text(json.dumps(doc))
            assert run_cli("predict", str(model), "--features", str(features)) == 3
            assert "model file: column 'period' repeated" in capsys.readouterr().err

    def test_v1_model_file_asks_to_retrain(self, model_files, capsys):
        d, features, models = model_files
        old = d / "old.json"
        old.write_text(json.dumps(dict(models["logit"], magic="PAYDEVMODEL/1")))
        assert run_cli("predict", str(old), "--features", str(features)) == 3
        assert "retrain" in capsys.readouterr().err

class TestCommits:
    def test_per_commit_reports(self, corpus, tmp_path):
        records, labels = corpus
        out = tmp_path / "commits.json"
        code = run_cli("commits", str(records), "--labels", str(labels),
                       "--seed", "7", "--min-commits", "20",
                       "--forest-trees", "10", "--out", str(out))
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report) == {"all_commits", "least_active"}
        names = {c["classifier"] for c in report["all_commits"]["cells"]}
        assert {"logit", "rpart", "randomforest", "allpaid", "email",
                "officehours"} == names


class TestLocalTimeOnce:
    """The studied identities' commits are calendared once per command, in
    features.histories; labels and baselines read those Histories."""

    def test_one_to_local_per_command(self, corpus, tmp_path, monkeypatch):
        records, labels = corpus
        calls = []
        real = features.to_local
        monkeypatch.setattr(features, "to_local", lambda *a: calls.append(len(a[0])) or real(*a))

        def elsewhere(*args):
            raise AssertionError("to_local called outside features.histories")

        monkeypatch.setattr(labels_mod, "to_local", elsewhere)
        monkeypatch.setattr(evaluation, "to_local", elsewhere)
        studied = sum(n for n in _identity_sizes(records, tmp_path) if n > 40)
        for argv in (
            ["commits", str(records), "--labels", str(_dated_labels(labels, tmp_path)),
             "--min-commits", "40", "--forest-trees", "10", "--out", str(tmp_path / "c.json")],
            ["evaluate", str(records), "--labels", str(labels), *SMALL_EVAL,
             "--min-commits", "40", "--out", str(tmp_path / "r.json")],
        ):
            calls.clear()
            assert run_cli(*argv) == 0
            assert calls == [studied]  # one call over every studied identity's commits


class TestConfigFile:
    def test_config_file_and_flag_override(self, corpus, tmp_path):
        records, labels = corpus
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment config\nseed=3\nfolds=3\nrepeats=1\n"
            "forest_trees=10\nmin_commits=20\n"
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("evaluate", str(records), "--labels", str(labels),
                       "--config", str(cfg), "--out", str(out1)) == 0
        # flag wins over the file
        assert run_cli("evaluate", str(records), "--labels", str(labels),
                       "--config", str(cfg), "--seed", "4", "--out", str(out2)) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["config"]["seed"] == 3
        assert b["config"]["seed"] == 4

    def test_unknown_config_key_exit_3(self, corpus, tmp_path):
        records, labels = corpus
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume=11\n")
        assert run_cli("evaluate", str(records), "--labels", str(labels),
                       "--config", str(cfg)) == 3

    def test_nonpositive_config_exit_3(self, corpus, tmp_path):
        records, labels = corpus
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("folds=0\n")
        assert run_cli("evaluate", str(records), "--labels", str(labels),
                       "--config", str(cfg)) == 3

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_one_fold_exit_3(self, corpus, tmp_path, capsys, source):
        """k-fold cross-validation needs two folds: --folds 1, or folds=1 in
        a config file, is a config fault (exit 3), not an internal error."""
        records, labels = corpus
        cfg, out = tmp_path / "one.cfg", tmp_path / "r.json"
        cfg.write_text("folds=1\n")
        given = ["--folds", "1"] if source == "flag" else ["--config", str(cfg)]
        assert run_cli("evaluate", str(records), "--labels", str(labels), *given,
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert "folds must be at least 2" in err and "internal error" not in err
        assert not out.exists()

    def test_forest_mtry_beyond_the_features_exit_3(self, corpus, tmp_path, capsys):
        """forest_mtry above the features CSV's 16 columns is a config fault."""
        records, labels = corpus
        features, cfg, model = tmp_path / "f.csv", tmp_path / "wide.cfg", tmp_path / "m.json"
        assert run_cli("features", str(records), "--out", str(features)) == 0
        cfg.write_text("forest_mtry=17\n")
        assert run_cli("train", str(features), "--labels", str(labels), "--classifier",
                       "randomforest", "--forest-trees", "3", "--config", str(cfg),
                       "--out", str(model)) == 3
        assert "forest_mtry" in capsys.readouterr().err and not model.exists()

    @pytest.mark.parametrize("line, classifier", [
        ("forest_trees=100000000000000000000", "randomforest"),
        ("forest_trees=9223372036854775808", "randomforest"),
        ("forest_mtry=9223372036854775808", "randomforest"),
        ("tree_minsplit=9223372036854775808", "rpart"),
        ("tree_maxdepth=100000000000000000000", "rpart"),
    ])
    def test_count_past_int64_exit_3_before_input_is_read(self, tmp_path, capsys, line,
                                                          classifier):
        """The compiled grower takes its counts as int64; a larger one is a
        config fault, found before the (here missing) inputs are read, not a
        count that runs until killed or wraps around."""
        cfg, model = tmp_path / "c.cfg", tmp_path / "m.json"
        cfg.write_text(line + "\n")
        assert run_cli("train", str(tmp_path / "missing.csv"), "--labels",
                       str(tmp_path / "missing-labels.csv"), "--classifier", classifier,
                       "--config", str(cfg), "--out", str(model)) == 3
        assert "below 2**63" in capsys.readouterr().err and not model.exists()
        if line.startswith("forest_trees"):
            trees = line.split("=")[1]
            assert run_cli("train", str(tmp_path / "missing.csv"), "--labels",
                           str(tmp_path / "missing-labels.csv"), "--classifier", classifier,
                           "--forest-trees", trees, "--out", str(model)) == 3

    @pytest.mark.parametrize("line, classifier", [
        ("tree_cp=nan", "rpart"), ("tree_cp=inf", "rpart"), ("logit_l2=nan", "logit"),
    ])
    def test_non_finite_config_exit_3(self, corpus, tmp_path, capsys, line, classifier):
        """NaN passes `<= 0` and `< 0`, and inf passes `tree_cp >= 0`; both
        are config faults, so no model is written that predict would reject."""
        records, labels = corpus
        features, cfg, model = tmp_path / "f.csv", tmp_path / "c.cfg", tmp_path / "m.json"
        assert run_cli("features", str(records), "--out", str(features)) == 0
        cfg.write_text(line + "\n")
        assert run_cli("train", str(features), "--labels", str(labels), "--classifier",
                       classifier, "--config", str(cfg), "--out", str(model)) == 3
        assert "must be finite" in capsys.readouterr().err and not model.exists()


class TestAtomicWrites:
    def test_failed_run_leaves_no_partial_output(self, corpus, tmp_path):
        records, _ = corpus
        bad_labels = tmp_path / "bad.csv"
        bad_labels.write_text("identity,status,hired_from,hired_to\nx,weird,,\n")
        out = tmp_path / "report.json"
        assert run_cli("evaluate", str(records), "--labels", str(bad_labels),
                       "--out", str(out)) == 3
        assert not out.exists()
        assert not list(tmp_path.glob(".paydev-*"))

    @pytest.mark.parametrize("command", ["ingest", "identities"])
    @pytest.mark.parametrize("out, reason", [("no-dir/out.jsonl", "No such file or directory"),
                                             ("a-dir", "Is a directory")])
    def test_unwritable_out_names_the_path(self, corpus, tmp_path, capsys, monkeypatch,
                                           command, out, reason):
        records, _ = corpus
        source = records
        if command == "ingest":
            source = tmp_path / "export.log"
            source.write_bytes(_export([("Ann", "ann@x.org")]))
        (tmp_path / "a-dir").mkdir()
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, str(source), "--out", out) == 2
        assert f"error: cannot write {out}: {reason}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob(".paydev-*"))

    def test_unwritable_out_found_before_a_bad_input(self, tmp_path, capsys):
        """The output is checked before the input is read: a faulty export
        with an unwritable --out exits 2, not with the parse error's 3."""
        source = tmp_path / "bad.log"
        source.write_bytes(b"not an export\n")
        out = tmp_path / "missing" / "r.jsonl"
        assert run_cli("ingest", str(source), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: No such file or directory\n" in err
        assert "sentinel" not in err

    def test_unwritable_labels_out_writes_no_records(self, tmp_path, capsys):
        records, labels = tmp_path / "good.jsonl", tmp_path / "missing" / "l.csv"
        assert run_cli("synth", "--out", str(records), "--labels-out", str(labels),
                       "--devs", "4", "--commits-low", "5", "--commits-high", "8") == 2
        assert f"error: cannot write {labels}: No such file or directory\n" in capsys.readouterr().err
        assert not records.exists()
        assert not list(tmp_path.glob(".paydev-*"))

    def test_out_as_a_link_to_a_directory_replaces_the_link(self, tmp_path):
        (tmp_path / "a-dir").mkdir()
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "a-dir")
        assert run_cli("synth", "--out", str(link), "--labels-out", str(tmp_path / "l.csv"),
                       "--devs", "4", "--commits-low", "5", "--commits-high", "8") == 0
        assert link.is_file() and not link.is_symlink() and (tmp_path / "a-dir").is_dir()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
                             ids=["022", "077", "002"])
    def test_outputs_take_the_mode_open_gives(self, tmp_path, umask, mode):
        records, labels = tmp_path / "r.jsonl", tmp_path / "l.csv"
        old = os.umask(umask)
        try:
            assert run_cli("synth", "--out", str(records), "--labels-out", str(labels),
                           "--devs", "4", "--commits-low", "5", "--commits-high", "8") == 0
            (tmp_path / "plain").open("w").close()
        finally:
            os.umask(old)
        assert {p.stat().st_mode & 0o777 for p in (records, labels, tmp_path / "plain")} == {mode}


def _export(authors):
    """A git-log export of one commit per (name, email), a day apart; its
    last record ends in CRLF, which the compiled scanner declines."""
    records = [f"\x1e{i:040x}\x1f{name}\x1f{email}\x1f{1483347600 + 86400 * i}\x1f"
               f"2017-01-02 14:00:00 +0100\n{i}\t1\ta.c\n" for i, (name, email) in enumerate(authors)]
    records[-1] = records[-1].replace("\n", "\r\n")
    return "\n".join(records).encode()


# ingest and identities, run in one fresh interpreter, must never load numpy
NUMPY_FREE = """
import sys
from paydev import cli, native
assert "numpy" not in sys.modules, "import paydev.cli"
for argv in (["ingest", "export.log", "--out", "records.jsonl"],
             ["identities", "records.jsonl", "--out", "identities.jsonl"]):
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
print(native.BACKEND)
"""


@pytest.mark.parametrize("backend", ["c", "python"])
def test_ingest_and_identities_import_no_numpy(tmp_path, backend):
    """With the compiled scanners and with the fallback ones (no cc on PATH
    and an empty library cache)."""
    if backend == "c" and native.BACKEND != "c":
        pytest.skip("no compiled library")
    authors = [(f"Dev {i % 40}", f"dev{i % 40}@x.org") for i in range(200)]
    (tmp_path / "export.log").write_bytes(_export(authors + [("Dev 1", "other@x.org")]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if backend == "python":
        (tmp_path / "no-cc").mkdir()
        env.update(HOME=str(tmp_path / "home"), PATH=str(tmp_path / "no-cc"))
    r = subprocess.run([sys.executable, "-c", NUMPY_FREE], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == backend  # after the identities report
    assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 201
    assert len((tmp_path / "identities.jsonl").read_text().splitlines()) == 40


PREDICT_COLUMNS = ["a", "b", "c", "d", "e"]
PREDICT_MODELS = ["logit", "rpart", "forest-1", "forest-7"]


def _write_features(path, rows, columns):
    """A features CSV of (id, values) rows; a None value is written nan."""
    lines = [",".join(["identity", *columns])]
    lines += [",".join([ident, *("nan" if v is None else repr(v) for v in values)])
              for ident, values in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def predict_inputs(tmp_path_factory):
    """60 developers' random features (about one cell in seven missing) and
    labels, and a model file of each kind in PREDICT_MODELS trained on them;
    returns the directory and the rows."""
    import random

    d = tmp_path_factory.mktemp("predict")
    rng = random.Random(3)
    rows = [(f"dev{i:02d}", [None if rng.random() < 0.15 else rng.gauss(0, 3)
                             for _ in PREDICT_COLUMNS]) for i in range(60)]
    _write_features(d / "f.csv", rows, PREDICT_COLUMNS)
    (d / "labels.csv").write_text("identity,status,hired_from,hired_to\n" + "".join(
        f"{ident},{'hired' if (values[0] or 0) + rng.gauss(0, 1) > 0 else 'volunteer'},,\n"
        for ident, values in rows))
    for kind in PREDICT_MODELS:
        classifier, _, trees = kind.partition("-")
        argv = ["--classifier", "randomforest", "--forest-trees", trees] if trees else [
            "--classifier", classifier]
        assert run_cli("train", str(d / "f.csv"), "--labels", str(d / "labels.csv"), *argv,
                       "--seed", "4", "--out", str(d / f"{kind}.json")) == 0
    return d, rows


@pytest.mark.parametrize("kind", PREDICT_MODELS)
@pytest.mark.parametrize("layout", ["trained", "reordered"])
def test_predict_writes_what_predict_proba_gives(predict_inputs, tmp_path, monkeypatch, kind,
                                                 layout):
    """`predict --features` prints ml.predict_proba's probabilities, found
    with the numpy twin of the walker, for rows with missing values and
    columns in any order."""
    import numpy as np

    from paydev import ml
    from paydev.ml import kernels

    d, rows = predict_inputs
    order = [4, 2, 0, 3, 1] if layout == "reordered" else list(range(5))
    columns = [PREDICT_COLUMNS[j] for j in order]
    shuffled = [(ident, [values[j] for j in order]) for ident, values in rows]
    _write_features(tmp_path / "f.csv", shuffled, columns)
    out = tmp_path / "p.csv"
    assert run_cli("predict", str(d / f"{kind}.json"), "--features", str(tmp_path / "f.csv"),
                   "--out", str(out)) == 0
    with open(d / f"{kind}.json") as f:
        model = ml.load_model(f)
    X = np.array([[np.nan if v is None else v for v in values] for _, values in shuffled])
    X = X[:, [columns.index(c) for c in model.columns]]  # back into the model's order
    monkeypatch.setattr(native, "forest_sum", kernels.forest_sum_py)  # the numpy twin scores
    p = ml.predict_proba(model, X)
    assert out.read_text() == "id,probability,class\n" + "".join(
        f"{ident},{v:.6f},{'hired' if v >= 0.5 else 'volunteer'}\n"
        for (ident, _), v in zip(rows, p))


@pytest.mark.parametrize("kind", PREDICT_MODELS)
@pytest.mark.parametrize("change", ["missing", "extra"])
def test_predict_column_mismatch_exit_4(predict_inputs, tmp_path, capsys, kind, change):
    d, rows = predict_inputs
    if change == "missing":
        columns, rows = PREDICT_COLUMNS[1:], [(i, values[1:]) for i, values in rows]
    else:
        columns, rows = PREDICT_COLUMNS + ["z"], [(i, values + [1.0]) for i, values in rows]
    _write_features(tmp_path / "f.csv", rows, columns)
    out = tmp_path / "p.csv"
    assert run_cli("predict", str(d / f"{kind}.json"), "--features", str(tmp_path / "f.csv"),
                   "--out", str(out)) == 4
    assert f"{change}: {'a' if change == 'missing' else 'z'})" in capsys.readouterr().err
    assert not out.exists()


# predict --features with a logit, a tree or a forest model, in one fresh
# interpreter in the directory of the models: per model, whether numpy was
# loaded after it
PREDICT_SCRIPT = """
import sys
from paydev import cli, native
for kind in ("logit", "rpart", "forest-7"):
    argv = ["predict", f"{kind}.json", "--features", "f.csv", "--out", sys.argv[1] + kind]
    assert cli.main(argv) == 0, kind
    print(kind, "numpy" in sys.modules)
print(native.BACKEND)
"""


@pytest.mark.parametrize("backend", ["c", "python"])
def test_predict_tree_or_forest_imports_no_numpy(predict_inputs, tmp_path, backend):
    """With the compiled library numpy stays unloaded; the fallback (no cc on
    PATH and an empty library cache) loads it for a tree or forest, not for
    a logit, and writes the same bytes."""
    if backend == "c" and native.BACKEND != "c":
        pytest.skip("no compiled library")
    d, _ = predict_inputs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if backend == "python":
        (tmp_path / "no-cc").mkdir()
        env.update(HOME=str(tmp_path / "home"), PATH=str(tmp_path / "no-cc"))
    r = subprocess.run([sys.executable, "-c", PREDICT_SCRIPT, f"{tmp_path}/fresh-"], cwd=d,
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["logit False", f"rpart {backend == 'python'}",
                                     f"forest-7 {backend == 'python'}", backend]
    for kind in ("logit", "rpart", "forest-7"):
        here = tmp_path / f"here-{kind}"
        assert run_cli("predict", str(d / f"{kind}.json"), "--features", str(d / "f.csv"),
                       "--out", str(here)) == 0
        assert (tmp_path / f"fresh-{kind}").read_bytes() == here.read_bytes()


# evaluate, commits, logit train and predict (a developer-feature model with
# --features and --records, a commit-feature model with --records), in one
# fresh interpreter with the compiled library: none of them loads numpy
STUDY_SCRIPT = """
import sys
from paydev import cli
runs = (
    ["evaluate", "r.jsonl", "--labels", "l.csv", "--min-commits", "20", "--folds", "3",
     "--repeats", "1", "--forest-trees", "5", "--out", "report.json"],
    ["commits", "r.jsonl", "--labels", "l.csv", "--min-commits", "20", "--forest-trees", "5",
     "--out", "commits.json"],
    ["features", "r.jsonl", "--out", "f.csv"],
    ["train", "f.csv", "--labels", "l.csv", "--classifier", "logit", "--out", "logit.json"],
    ["predict", "logit.json", "--features", "f.csv", "--out", "p.csv"],
    ["predict", "logit.json", "--records", "r.jsonl", "--out", "pr.csv"],
    ["train", "cf.csv", "--labels", "l.csv", "--classifier", "logit", "--out", "clogit.json"],
    ["predict", "clogit.json", "--records", "r.jsonl", "--out", "cpr.csv"],
)
for argv in runs:
    assert cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
"""


def test_study_commands_import_no_numpy(tmp_path):
    if native.BACKEND != "c":
        pytest.skip("no compiled library")
    assert run_cli("synth", "--out", str(tmp_path / "r.jsonl"), "--labels-out",
                   str(tmp_path / "l.csv"), "--seed", "7", "--devs", "24", "--commits-low", "30",
                   "--commits-high", "60") == 0
    _write_commit_features(tmp_path / "cf.csv", tmp_path / "l.csv")
    r = subprocess.run([sys.executable, "-c", STUDY_SCRIPT], cwd=tmp_path,
                       env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
                       timeout=300)
    assert r.returncode == 0, r.stderr
    n_commits = len((tmp_path / "r.jsonl").read_text().splitlines())
    assert len((tmp_path / "cpr.csv").read_text().splitlines()) == n_commits + 1
    assert json.loads((tmp_path / "commits.json").read_text())["all_commits"]["cells"]


class TestProductFilter:
    def test_product_map_filters_commits(self, tmp_path, capsys):
        from io import StringIO

        from conftest import make_record, sha_of
        from paydev.ingest import Commits, write_canonical

        records = [
            make_record(sha=sha_of(i), message=f"Bug 10{i} - x", author_email="a@x")
            for i in range(4)
        ]
        records += [make_record(sha=sha_of(9), message="no link", author_email="a@x")]
        buf = StringIO()
        write_canonical(Commits.from_records(records), buf)
        rec_path = tmp_path / "r.jsonl"
        rec_path.write_text(buf.getvalue())
        pm = tmp_path / "products.csv"
        pm.write_text("issue_id,product\n100,Firefox\n101,Firefox\n102,Other\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("products=Firefox\n")
        out = tmp_path / "f.csv"
        assert run_cli("features", str(rec_path), "--product-map", str(pm),
                       "--config", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2  # header + one identity
        assert lines[1].split(",")[5] == "2"  # commits column: 2 kept
        # an issue id int() reads but that is not ASCII digits
        pm.write_text("issue_id,product\n100,Firefox\n+101,Firefox\n")
        assert run_cli("features", str(rec_path), "--product-map", str(pm),
                       "--config", str(cfg), "--out", str(out)) == 3
        assert "invalid issue id '+101' (line 3)" in capsys.readouterr().err

    def test_identity_whose_commits_are_all_dropped_is_dropped(self, tmp_path):
        """An --identities map identity that owns no kept commit gets no row,
        and the run succeeds."""
        from io import StringIO

        from conftest import make_record, sha_of
        from paydev.ingest import Commits, write_canonical

        records = [make_record(sha=sha_of(i), message=f"Bug {100 + i} - x",
                               author_name="Kept" if i < 2 else "Dropped",
                               author_email="kept@x" if i < 2 else "dropped@x")
                   for i in range(4)]
        buf = StringIO()
        write_canonical(Commits.from_records(records), buf)
        rec_path = tmp_path / "r.jsonl"
        rec_path.write_text(buf.getvalue())
        ident_map = tmp_path / "identities.jsonl"
        assert run_cli("identities", str(rec_path), "--out", str(ident_map)) == 0
        assert len(ident_map.read_text().splitlines()) == 2
        pm = tmp_path / "products.csv"
        pm.write_text("issue_id,product\n100,Firefox\n101,Firefox\n102,Other\n103,Other\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("products=Firefox\n")
        out = tmp_path / "f.csv"
        assert run_cli("features", str(rec_path), "--product-map", str(pm), "--config", str(cfg),
                       "--identities", str(ident_map), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["kept@x"]
        assert lines[1].split(",")[5] == "2"

    @pytest.fixture
    def filtered_corpus(self, corpus, tmp_path):
        """The synth corpus, its identity map, and a product map that keeps
        the commits whose bug number is even."""
        records, labels = corpus
        ident_map = tmp_path / "identities.jsonl"
        assert run_cli("identities", str(records), "--out", str(ident_map)) == 0
        issues = [int(json.loads(line)["message"].split()[1])
                  for line in records.read_text().splitlines()]
        pm = tmp_path / "products.csv"
        pm.write_text("issue_id,product\n" + "".join(
            f"{i},{'Firefox' if i % 2 == 0 else 'Other'}\n" for i in issues))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("products=Firefox\n")
        return records, labels, ident_map, ["--product-map", str(pm), "--config", str(cfg)]

    @pytest.mark.parametrize("argv", [
        ["features"],
        ["evaluate", "--labels", "{labels}", "--min-commits", "10", "--folds", "3",
         "--repeats", "1", "--forest-trees", "5"],
        ["commits", "--labels", "{labels}", "--min-commits", "10", "--forest-trees", "5"],
    ])
    def test_identity_map_with_product_map(self, filtered_corpus, tmp_path, capsys, argv):
        records, labels, ident_map, product_args = filtered_corpus
        argv = [a.format(labels=labels) for a in argv]
        outputs = []
        for extra in ([], ["--identities", str(ident_map)]):
            out = tmp_path / f"out{len(outputs)}"
            assert run_cli(argv[0], str(records), *argv[1:], *product_args, *extra,
                           "--out", str(out)) == 0, capsys.readouterr().err
            outputs.append(out.read_bytes())
        assert "kept=" in capsys.readouterr().err
        assert outputs[0] == outputs[1]

    def test_identity_map_naming_unknown_commit_exit_3(self, filtered_corpus, tmp_path, capsys):
        records, _, ident_map, product_args = filtered_corpus
        rows = [json.loads(line) for line in ident_map.read_text().splitlines()]
        rows[1]["commit_shas"].append("f" * 40)
        bad_map = tmp_path / "bad.jsonl"
        bad_map.write_text("".join(json.dumps(r) + "\n" for r in rows))
        for extra in ([], product_args):
            assert run_cli("features", str(records), "--identities", str(bad_map),
                           *extra, "--out", str(tmp_path / "f.csv")) == 3
            err = capsys.readouterr().err
            assert "f" * 40 in err and "(line 2)" in err, err
        # a malformed second line, or one that contradicts the first
        first, second = (json.loads(line) for line in ident_map.read_text().splitlines()[:2])
        for bad in (5, {"id": 1}, {"names": 5}, {"commit_shas": [[1]]},
                    {"commit_shas": [1, "a"]}, {"commit_shas": []}, {"id": "x\ud800"},
                    {"names": ["\udcff"]},
                    {"commit_shas": second["commit_shas"] + first["commit_shas"][:1]},
                    {"id": first["id"]}):
            line = {**second, **bad} if isinstance(bad, dict) else bad
            bad_map.write_text(json.dumps(first) + "\n" + json.dumps(line) + "\n")
            assert run_cli("features", str(records), "--identities", str(bad_map),
                           "--out", str(tmp_path / "f.csv")) == 3, bad
            assert "(line 2)" in capsys.readouterr().err, bad
        # an integer longer than json.loads converts
        bad_map.write_text(json.dumps(first) + "\n" + json.dumps(second)[:-1]
                           + ', "n": ' + "9" * 5000 + "}\n")
        assert run_cli("features", str(records), "--identities", str(bad_map),
                       "--out", str(tmp_path / "f.csv")) == 3
        assert "integer too long or nested too deeply (line 2)" in capsys.readouterr().err


# what a fuzzed field may become: empty, non-finite and huge numbers, a BOM, NUL, a
# lone carriage return, a quote, separators, impossible dates, a lone-surrogate escape
FUZZ_TOKENS = ["", "nan", "inf", "1e309", "9" * 400, "\ufeff", "\x00", "\r", '"', ",", "|",
               "=", "#", ":", "2016-02-30", "2016-13-01", "\\ud800"]
FIELD = re.compile(r'[^\s,|=:"\[\]{}]+')
FUZZ_RUN = ["--min-commits", "1", "--folds", "2", "--repeats", "1", "--forest-trees", "3"]
# input kind -> (the command that reads it as {mut}, the valid file it starts from)
FUZZ_COMMANDS = {
    "labels": (["evaluate", "{records}", "--labels", "{mut}", *FUZZ_RUN], "labels.csv"),
    "dated_labels": (["commits", "{records}", "--labels", "{mut}", "--min-commits", "1",
                      "--forest-trees", "3"], "dated.csv"),
    "features": (["train", "{mut}", "--labels", "{labels}", "--classifier", "{classifier}",
                  "--forest-trees", "3"], "f.csv"),
    "identity_map": (["features", "{records}", "--identities", "{mut}"], "ids.jsonl"),
    "overrides": (["identities", "{records}", "--overrides", "{mut}"], "overrides.txt"),
    "product_map": (["features", "{records}", "--product-map", "{mut}", "--config",
                     "{products}"], "products.csv"),
    "config": (["evaluate", "{records}", "--labels", "{labels}", "--config", "{mut}",
                "--folds", "2", "--repeats", "1", "--forest-trees", "3"], "run.cfg"),
    "model": (["predict", "{mut}", "--features", "{features}"], "model.json"),
    "predict_features": (["predict", "{model}", "--features", "{mut}"], "f.csv"),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A 12-developer corpus and one valid file of each fuzzed kind."""
    d = tmp_path_factory.mktemp("fuzz")
    records, labels = d / "records.jsonl", d / "labels.csv"
    assert run_cli("synth", "--out", str(records), "--labels-out", str(labels), "--seed", "5",
                   "--devs", "12", "--commits-low", "20", "--commits-high", "40") == 0
    _dated_labels(labels, d)
    assert run_cli("features", str(records), "--out", str(d / "f.csv")) == 0
    assert run_cli("identities", str(records), "--out", str(d / "ids.jsonl")) == 0
    (d / "overrides.txt").write_text(
        "# people\nmerge Dev 0001|dev0002@example.org\nsplit dev0003@example.org\n")
    issues = [json.loads(line)["message"].split()[1] for line in records.read_text().splitlines()]
    (d / "products.csv").write_text("issue_id,product\n" + "".join(
        f"{issue},{'Firefox' if k % 2 else 'Other'}\n" for k, issue in enumerate(issues)))
    (d / "products.cfg").write_text("products=Firefox\n")
    assert run_cli("train", str(d / "f.csv"), "--labels", str(labels), "--classifier",
                   "randomforest", "--forest-trees", "3", "--out", str(d / "model.json")) == 0
    (d / "run.cfg").write_text(
        "# run\nseed=3\nmin_commits=1\nfeature_mode=all\ncoverage=0.5\n"
        "email_domains=example.org,mozilla.com\nproducts=Firefox\nlogit_l2=1e-8\n"
        "logit_max_iter=100\nlogit_tol=1e-8\ntree_minsplit=20\ntree_cp=0.01\n"
        "tree_maxdepth=30\nforest_mtry=2\n")
    return d


def _mutate(data, text):
    """text after 1-3 mutations: a pool token in place of a field, or a line
    duplicated, deleted, swapped with another or truncated."""
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, len(lines) - 1)) for _ in range(2))
        op = data.draw(st.sampled_from(["token", "duplicate", "delete", "swap", "truncate"]))
        fields = list(FIELD.finditer(lines[i]))
        if op == "token" and fields:
            field = data.draw(st.sampled_from(fields))
            token = data.draw(st.sampled_from(FUZZ_TOKENS))
            lines[i] = lines[i][:field.start()] + token + lines[i][field.end():]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "truncate":
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines)


class TestInputFuzz:
    @pytest.mark.parametrize("kind", sorted(FUZZ_COMMANDS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_input_exits_with_a_documented_code(self, fuzz_inputs, kind, data):
        """Each documented text input, mutated, exits with a code from
        README's table other than 1, and leaves no --out file unless it
        exits 0."""
        d = fuzz_inputs
        argv, valid = FUZZ_COMMANDS[kind]
        mut, out = d / f"mutated-{kind}", d / f"out-{kind}"
        mut.write_bytes(_mutate(data, (d / valid).read_text()).encode("utf-8"))
        out.unlink(missing_ok=True)
        classifier = data.draw(st.sampled_from(["logit", "rpart", "randomforest"]))
        code = run_cli(*(a.format(records=d / "records.jsonl", labels=d / "labels.csv",
                                  products=d / "products.cfg", classifier=classifier,
                                  features=d / "f.csv", model=d / "model.json",
                                  mut=mut) for a in argv), "--out", str(out))
        assert code in (0, 2, 3, 4, 5, 6)
        assert code == 0 or not out.exists()

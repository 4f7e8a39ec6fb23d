"""Workload definitions: input generation, command chains and output checks.

Every input is a pure function of the workload seed. Inputs are written in
the documented file formats by this module itself (not by paydev's writers),
so the program under test only ever sees the generated files. The corpora
come from `paydev.synth`; each generated file's digest is recorded so that a
change to the generator shows up as a changed workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

from oracle_features import brute_force_features
from paydev import synth

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
CLASSIFIERS = ("logit", "rpart", "randomforest")
EVAL_BASELINES = ("allhired", "email", "5%officehours", "50%officehours", "95%officehours")
COMMIT_BASELINES = ("allpaid", "email", "officehours")
FEATURE_SAMPLE = 20  # developers whose features are checked against the oracle

# Sizes. A chain must fit several times into one measured run, so the forest
# and the repeat count are smaller than the paper's 500 trees x 10 repeats,
# and the ML workloads give each developer only a little more than the
# study's 100-commit minimum, which shrinks the mining share of their chains.
STUDY_DEVS, STUDY_FOLDS, STUDY_TREES = 200, 10, 100
MINE_DEVS = 200
PERIOD_DEVS, PERIOD_TREES = 200, 20
FEW_COMMITS = (101, 160)  # commits per developer in study_cv and commit_periods


@dataclass
class Inputs:
    """Generated files plus what the checks compare the outputs against."""

    commits: int
    files: dict[str, bytes]
    expected_records: list = field(default_factory=list)  # in input-file order
    expected_identities: dict = field(default_factory=dict)  # id -> (names, emails, shas)
    sample_ids: list = field(default_factory=list)

    def digests(self) -> dict[str, str]:
        return {name: sha256(data) for name, data in sorted(self.files.items())}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ------------------------------------------------------------------ inputs


def _corpus(n_devs, seed, commits=(120, 280)):
    base = synth.SynthSpec(n_devs=n_devs, commits_low=commits[0], commits_high=commits[1])
    spec = synth.spec_with_profiles(base, "overlapping")
    records, labels = synth.generate_synthetic_corpus(spec, seed=seed)
    return spec, records, labels


def _dev(record) -> int:
    """Developer index; synth addresses are devNNNN@<domain>."""
    return int(record.author_email.split("@", 1)[0][3:])


def _canonical_jsonl(records) -> bytes:
    return "".join(
        json.dumps({f: getattr(r, f) for f in CANONICAL_FIELDS}, ensure_ascii=False) + "\n"
        for r in records
    ).encode()


def _labels_csv(rows) -> bytes:
    """rows: (identity, status, hired_from, hired_to) in any order."""
    lines = ["identity,status,hired_from,hired_to"]
    lines += [",".join(row) for row in sorted(rows)]
    return ("\n".join(lines) + "\n").encode()


def _git_log_export(records) -> bytes:
    """The `paydev ingest` export format: 0x1E record sentinel, 0x1F header
    fields, a blank line, then numstat lines. Line counts are split over two
    files, and every tenth commit also touches a binary file."""
    out = []
    for i, r in enumerate(records):
        local = datetime.fromtimestamp(r.timestamp_utc + 60 * r.tz_offset_minutes, timezone.utc)
        off = abs(r.tz_offset_minutes)
        sign = "-" if r.tz_offset_minutes < 0 else "+"
        ad = f"{local:%Y-%m-%d %H:%M:%S} {sign}{off // 60:02d}{off % 60:02d}"
        out.append(
            f"\x1e{r.sha}\x1f{r.author_name}\x1f{r.author_email}\x1f{r.timestamp_utc}\x1f{ad}\n\n"
        )
        a, d = r.lines_added, r.lines_deleted
        out.append(f"{a // 2}\t{d // 2}\tsrc/core.c\n{a - a // 2}\t{d - d // 2}\tsrc/util.c\n")
        if i % 10 == 0:
            out.append("-\t-\tassets/logo.png\n")
    return "".join(out).encode()


def _expected_identities(records):
    by_dev = {}
    for r in records:
        names, emails, shas = by_dev.setdefault(_dev(r), (set(), set(), set()))
        names.add(r.author_name)
        emails.add(r.author_email)
        shas.add(r.sha)
    return {min(emails): (names, emails, shas) for names, emails, shas in by_dev.values()}


def _sample(ids, seed):
    rng = np.random.default_rng([seed, 3])
    ids = sorted(ids)
    return [ids[i] for i in sorted(rng.choice(len(ids), size=FEATURE_SAMPLE, replace=False))]


def _with_aliases(records, n_devs, seed):
    """A quarter of the developers also commit under a login-style name; a
    third of those commits pair it with the home address (linking the two
    names) and a third with a second address."""
    rng = np.random.default_rng([seed, 1])
    aliased = set(rng.choice(n_devs, size=n_devs // 4, replace=False).tolist())
    seen = {}
    out = []
    for r in records:
        dev = _dev(r)
        if dev in aliased and not r.author_email.endswith("@mozilla.com"):
            k = seen[dev] = seen.get(dev, -1) + 1
            if k % 3 == 1:
                r = replace(r, author_name=f"dev{dev:04d}")
            elif k % 3 == 2:
                r = replace(
                    r,
                    author_name=f"dev{dev:04d}",
                    author_email=f"dev{dev:04d}@users.noreply.example.net",
                )
        out.append(r)
    return out


def gen_study_cv(seed) -> Inputs:
    _, records, labels = _corpus(STUDY_DEVS, seed, FEW_COMMITS)
    expected = _expected_identities(records)
    return Inputs(
        commits=len(records),
        files={
            "records.jsonl": _canonical_jsonl(records),
            "labels.csv": _labels_csv((k, v, "", "") for k, v in labels.items()),
        },
        expected_records=records,
        expected_identities=expected,
        sample_ids=_sample(expected, seed),
    )


def gen_mine_history(seed) -> Inputs:
    _, records, labels = _corpus(MINE_DEVS, seed)
    status_by_dev = {int(ident.split("@", 1)[0][3:]): s for ident, s in labels.items()}
    records = _with_aliases(records, MINE_DEVS, seed)
    records.reverse()  # git log --date-order lists the newest commit first
    expected = _expected_identities(records)
    emails_by_dev = {}
    for r in records:
        emails_by_dev.setdefault(_dev(r), set()).add(r.author_email)
    label_rows = [(min(emails), status_by_dev[dev], "", "") for dev, emails in emails_by_dev.items()]
    return Inputs(
        commits=len(records),
        files={"export.log": _git_log_export(records), "labels.csv": _labels_csv(label_rows)},
        expected_records=records,
        expected_identities=expected,
        sample_ids=_sample(expected, seed),
    )


def gen_commit_periods(seed) -> Inputs:
    """A third of the developers carry one dated hired period instead of a
    direct status, so labels vary within a developer."""
    spec, records, labels = _corpus(PERIOD_DEVS, seed, FEW_COMMITS)
    rng = np.random.default_rng([seed, 2])
    ids = sorted(labels)
    dated = set(rng.choice(len(ids), size=len(ids) // 3, replace=False).tolist())
    rows = []
    for i, ident in enumerate(ids):
        if i in dated:
            start = spec.start + timedelta(days=int(rng.integers(0, 180)))
            stop = start + timedelta(days=int(rng.integers(60, 181)))
            rows.append((ident, "hired", start.isoformat(), stop.isoformat()))
        else:
            rows.append((ident, labels[ident], "", ""))
    return Inputs(
        commits=len(records),
        files={"records.jsonl": _canonical_jsonl(records), "labels.csv": _labels_csv(rows)},
    )


# ---------------------------------------------------------------- commands


def chain_study_cv(seed, path):
    s = str(seed + 1)  # paydev seeds must be positive
    trees = str(STUDY_TREES)
    return [
        ["evaluate", path("records.jsonl"), "--labels", path("labels.csv"), "--seed", s,
         "--folds", str(STUDY_FOLDS), "--repeats", "1", "--forest-trees", trees,
         "--out", path("report.json")],
        ["features", path("records.jsonl"), "--out", path("features.csv")],
        ["train", path("features.csv"), "--labels", path("labels.csv"), "--classifier",
         "randomforest", "--forest-trees", trees, "--seed", s, "--introspect",
         "--out", path("model.json")],
        ["predict", path("model.json"), "--features", path("features.csv"),
         "--out", path("predictions.csv")],
    ]


def chain_mine_history(seed, path):
    return [
        ["ingest", path("export.log"), "--out", path("records.jsonl")],
        ["identities", path("records.jsonl"), "--out", path("identities.jsonl")],
        ["features", path("records.jsonl"), "--identities", path("identities.jsonl"),
         "--out", path("features.csv")],
        ["evaluate", path("records.jsonl"), "--identities", path("identities.jsonl"),
         "--labels", path("labels.csv"), "--folds", "2", "--repeats", "1",
         "--forest-trees", "1", "--seed", str(seed + 1), "--out", path("report.json")],
    ]


def chain_commit_periods(seed, path):
    return [
        ["commits", path("records.jsonl"), "--labels", path("labels.csv"),
         "--forest-trees", str(PERIOD_TREES), "--seed", str(seed + 1),
         "--out", path("report.json")],
    ]


# ------------------------------------------------------------------ checks


def _check_cells(cells, expected_counts, where):
    errors = []
    counts = {}
    for cell in cells:
        counts[cell["classifier"]] = counts.get(cell["classifier"], 0) + 1
        if not 0.0 <= cell["auc"] <= 1.0:
            errors.append(f"{where}: {cell['classifier']} auc {cell['auc']} outside [0,1]")
    if counts != expected_counts:
        errors.append(f"{where}: cells per classifier {counts}, expected {expected_counts}")
    return errors


def _check_eval_report(report, folds):
    expected = {c: folds for c in CLASSIFIERS}
    expected.update({b: 1 for b in EVAL_BASELINES})
    return _check_cells(report["cells"], expected, "report.json")


def _check_features(text, inputs):
    rows = {row["identity"]: row for row in csv.DictReader(text.splitlines())}
    if set(rows) != set(inputs.expected_identities):
        return [f"features.csv has {len(rows)} identities, expected "
                f"{len(inputs.expected_identities)}"]
    by_sha = {r.sha: r for r in inputs.expected_records}
    errors = []
    for ident in inputs.sample_ids:
        commits = [by_sha[sha] for sha in inputs.expected_identities[ident][2]]
        oracle = brute_force_features(
            (c.sha, c.timestamp_utc, c.tz_offset_minutes, c.lines_added, c.lines_deleted)
            for c in commits
        )
        for name, value in oracle.items():
            if abs(float(rows[ident][name]) - value) > 1e-6:
                errors.append(f"features.csv {ident} {name}={rows[ident][name]}, oracle {value}")
    return errors


def _check_identity_map(text, inputs):
    got = {}
    for line in text.splitlines():
        obj = json.loads(line)
        got[obj["id"]] = (set(obj["names"]), set(obj["emails"]), set(obj["commit_shas"]))
    if got != inputs.expected_identities:
        return [f"identities.jsonl: {len(got)} identities differ from the "
                f"{len(inputs.expected_identities)} generated developers"]
    return []


def _check_ingest(text, inputs):
    lines = text.splitlines()
    if len(lines) != len(inputs.expected_records):
        return [f"records.jsonl: {len(lines)} records, expected {len(inputs.expected_records)}"]
    for line, rec in zip(lines, inputs.expected_records):
        obj = json.loads(line)
        for name in CANONICAL_FIELDS[:-1]:  # the export format carries no message
            if obj[name] != getattr(rec, name):
                return [f"records.jsonl: commit {rec.sha} field {name} is {obj[name]!r}, "
                        f"expected {getattr(rec, name)!r}"]
    return []


def _check_predictions(text, n_rows):
    lines = text.splitlines()
    if lines[0] != "id,probability,class" or len(lines) != n_rows + 1:
        return [f"predictions.csv: {len(lines) - 1} rows, expected {n_rows}"]
    for line in lines[1:]:
        _, p, label = line.split(",")
        if not 0.0 <= float(p) <= 1.0 or label != ("hired" if float(p) >= 0.5 else "volunteer"):
            return [f"predictions.csv: bad row {line!r}"]
    return []


def check_study_cv(out, inputs):
    features = out["features.csv"].decode()
    return (
        _check_eval_report(json.loads(out["report.json"]), STUDY_FOLDS)
        + _check_features(features, inputs)
        + _check_predictions(out["predictions.csv"].decode(), len(features.splitlines()) - 1)
    )


def check_mine_history(out, inputs):
    return (
        _check_ingest(out["records.jsonl"].decode(), inputs)
        + _check_identity_map(out["identities.jsonl"].decode(), inputs)
        + _check_features(out["features.csv"].decode(), inputs)
        + _check_eval_report(json.loads(out["report.json"]), 2)
    )


def check_commit_periods(out, inputs):
    reports = json.loads(out["report.json"])
    expected = {c: 1 for c in CLASSIFIERS + COMMIT_BASELINES}
    errors = []
    for name in ("all_commits", "least_active"):
        errors += _check_cells(reports[name]["cells"], expected, f"report.json {name}")
    return errors


# -------------------------------------------------------------------- pins


def _cell_digests(cells):
    """Digests of the cells ROADMAP aim 3 keeps byte-identical: logit, rpart
    and the baselines. Forest cells may change once (ROADMAP 1), so they
    are compared only between runs of one commit."""
    groups = {"cells.logit": [], "cells.rpart": [], "cells.baselines": []}
    for cell in cells:
        if cell["classifier"] == "randomforest":
            continue
        key = f"cells.{cell['classifier']}"
        groups[key if key in groups else "cells.baselines"].append(cell)
    return {k: sha256(json.dumps(v, sort_keys=True).encode()) for k, v in groups.items()}


def pinned_digests(workload, out) -> dict[str, str]:
    """Output digests that must not change between commits."""
    report = json.loads(out["report.json"])
    reports = [report] if "cells" in report else list(report.values())
    pins = _cell_digests([cell for r in reports for cell in r["cells"]])
    pins.update({f: sha256(out[f]) for f in workload.pinned_files})
    return pins


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    chain: object
    outputs: tuple[str, ...]
    pinned_files: tuple[str, ...]  # outputs pinned whole; report cells are pinned by kind
    check: object
    # Corpora per untraced run. Forest size, and with it the ML workloads'
    # cost, varies with the generated developers, so those runs rotate over
    # several corpora; mine_history's cost follows the commit count.
    corpora: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_cv", gen_study_cv, chain_study_cv,
                 ("report.json", "features.csv", "model.json", "predictions.csv"),
                 ("features.csv",), check_study_cv, corpora=4),
        Workload("mine_history", gen_mine_history, chain_mine_history,
                 ("records.jsonl", "identities.jsonl", "features.csv", "report.json"),
                 ("records.jsonl", "identities.jsonl", "features.csv"), check_mine_history),
        Workload("commit_periods", gen_commit_periods, chain_commit_periods,
                 ("report.json",), (), check_commit_periods, corpora=4),
    )
}

"""Command-line front end.

Subcommands: ingest, identities, features, evaluate, train, predict,
commits, synth. Every command echoes its effective configuration to
stderr, checks that its output paths can be written before it reads any
input, validates inputs before writing anything, and writes outputs
atomically (temp file + rename) with the mode the umask allows.

Exit codes:
  0 success
  1 internal error
  2 missing or unreadable input file, or an output file that cannot be written
  3 schema or parse violation (git log, canonical JSONL, CSVs, config)
  4 feature columns do not match the model
  5 labels resolve to a single class (or an identity is unlabeled)
  6 stratification impossible (folds exceed a class count)

All randomness flows from the config seed through numpy's SeedSequence
and PCG64 (numpy.random.default_rng), which the compiled forest grower and
fold draws repeat draw for draw; reruns with the same inputs and config
are byte-identical.

This module imports, at the top, only what every command needs; each
command imports the rest of paydev where it runs it. `ingest`,
`identities` and `features` never load numpy, and where the compiled
library is loaded no other command does but `synth`: not `evaluate`,
`commits`, `train` with any classifier, nor `predict` with any model.
Without the library the numpy twins of the generator, the forest grower
and the forest walker load numpy where they run. The names other code
wraps (parse_git_log, read_canonical, write_canonical, read_identity_map,
write_identity_map here; identity.merge_identities, ml.fit_* and the like)
are looked up as module attributes when called.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import shlex
import sys
import tempfile
from array import array
from contextlib import contextmanager

from paydev import native
from paydev.config import Config, apply_overrides, load_config, validate
from paydev.errors import (
    InputFileError,
    OutputFileError,
    PaydevError,
    SchemaError,
    UnlabeledIdentityError,
    utf8_line,
)
from paydev.ingest import (
    GIT_EXPORT_COMMAND,
    LONE_SURROGATE_RE,
    Commits,
    parse_git_log,
    read_canonical,
    write_canonical,
)


def _temp_beside(path):
    """A new temporary file in the directory of `path`, as (fd, its path)."""
    return tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".paydev-",
                            suffix=".tmp")


def _check_writable(path) -> None:
    """Raises the OutputFileError _atomic_write would raise when it can make
    no temporary file beside `path` or `path` is a directory, so that a
    command fails before it reads any input."""
    try:
        fd, tmp = _temp_beside(path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as exc:
        raise OutputFileError(f"cannot write {path}: {exc.strerror}") from None
    if os.path.isdir(path) and not os.path.islink(path):  # rename replaces a link itself
        raise OutputFileError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


def _atomic_write(path, writer) -> None:
    """Write `path` through writer(text file): into a temporary file beside
    it, then renamed over it, with the mode open(path, "w") would give. An
    OSError on the way names `path`, not the temporary file."""
    tmp = None
    try:
        fd, tmp = _temp_beside(path)
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as f:
            writer(f)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OutputFileError(f"cannot write {path}: {exc.strerror}") from None
        raise


class _Utf8Lines:
    """A binary file read as UTF-8 text one line at a time, so that a line
    that does not decode raises SchemaError, with its number, only after the
    reader has checked every line before it. A line ends at a line feed; a
    carriage return before it stays, which every reader takes for white
    space or, in a CSV, for the line end. read() returns the rest."""

    def __init__(self, raw, name):
        self._raw, self._name = raw, name

    def __iter__(self):
        for lineno, line in enumerate(self._raw, start=1):
            yield utf8_line(line, self._name, lineno)

    def read(self):
        return "".join(self)


@contextmanager
def _open_binary(path):
    """The input file opened for reading bytes, and its name for messages
    ('-' is stdin)."""
    if path == "-":
        f = sys.stdin.buffer
    else:
        try:
            f = open(path, "rb")
        except OSError as exc:
            raise InputFileError(f"cannot read {path}: {exc.strerror}") from None
    with f:
        yield f, "stdin" if path == "-" else path


@contextmanager
def _open_input(path):
    """The input file as _Utf8Lines ('-' is stdin)."""
    with _open_binary(path) as (f, name):
        yield _Utf8Lines(f, name)


def _emit(path, writer) -> None:
    if path:
        _atomic_write(path, writer)
    else:
        writer(sys.stdout)


def _build_config(args) -> Config:
    cfg = Config()
    if getattr(args, "config", None):
        with _open_input(args.config) as f:
            cfg = load_config(f)
    # every Config field the command has a flag for
    overrides = {name: getattr(args, name) for name in Config._fields if hasattr(args, name)}
    cfg = validate(apply_overrides(cfg, **overrides))
    print(f"# config: {cfg.echo()}", file=sys.stderr)
    print(f"# kernel: {native.BACKEND}", file=sys.stderr)
    return cfg


def _study_records(args, cfg):
    """The Commits of the canonical records file that the --product-map
    filter keeps (all of them without one), and their identities: the
    --identities map read against every record, each identity's rows moved
    to the kept table and the identities left with none dropped; or else
    identities merged afresh from the kept table."""
    filtering = bool(getattr(args, "product_map", None))
    with _open_binary(args.records) as (f, name):  # the filter alone reads messages
        commits = kept = read_canonical(f, name, message=filtering)
    if filtering:
        from paydev import linkage

        if not cfg.products:
            raise SchemaError("--product-map given but config lists no products")
        with _open_input(args.product_map) as f:
            product_map = linkage.load_product_map(f)
        rows, report = linkage.filter_by_products(commits.message, product_map,
                                                  set(cfg.products))
        print(
            f"# products: total={report.total} linked={report.linked} kept={report.kept} "
            f"unmapped={report.unmapped} disallowed={report.disallowed}",
            file=sys.stderr,
        )
        kept = commits.take(rows)
    if getattr(args, "identities", None):
        with _open_input(args.identities) as f:
            identities = read_identity_map(f, commits)
        if filtering:
            new_row = array("q", [-1]) * len(commits)  # each row's in `kept`, or -1
            for i, row in enumerate(rows):
                new_row[row] = i
            for ident in identities:
                ident.rows = [r for r in map(new_row.__getitem__, ident.rows) if r >= 0]
            identities = [i for i in identities if i.rows]
        return kept, identities
    from paydev import identity as ident_mod

    overrides = []
    if getattr(args, "overrides", None):
        with _open_input(args.overrides) as f:
            overrides = ident_mod.parse_overrides(f)
    return kept, ident_mod.merge_identities(kept, overrides)


def write_identity_map(identities, commits, fileobj) -> None:
    """Identity-map JSONL, one line per identity: its id, its sorted names
    and emails, and the shas of the rows of `commits` it owns, which are in
    sha order already."""
    for ident in identities:
        obj = {
            "id": ident.id,
            "names": sorted(ident.names),
            "emails": sorted(ident.emails),
            "commit_shas": [commits.sha[r] for r in ident.rows],
        }
        fileobj.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_identity_map(fileobj, commits):
    """Identities owning rows of the Commits `commits`, from identity-map
    JSONL: one object per line with a string id and lists of strings names,
    emails and commit_shas (at least one sha). Every sha must be in
    `commits`, no id may repeat, no sha may belong to two identities and no
    string may hold a lone surrogate; the line that breaks a rule is named."""
    from paydev.identity import Identity

    row_of = dict(zip(commits.sha, range(len(commits))))
    identities, ids, owner_of = [], set(), {}
    for lineno, line in enumerate(fileobj, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}", line=lineno) from None
        except (ValueError, RecursionError):  # an integer past 4300 digits, deep nesting
            raise SchemaError("invalid JSON: integer too long or nested too deeply",
                              line=lineno) from None
        if not isinstance(obj, dict):
            raise SchemaError("expected a JSON object", line=lineno)
        for key in ("id", "names", "emails", "commit_shas"):
            if key not in obj:
                raise SchemaError(f"missing field {key!r}", line=lineno)
        ident_id = obj["id"]
        if not isinstance(ident_id, str):
            raise SchemaError("field 'id' must be a string", line=lineno)
        for key in ("names", "emails", "commit_shas"):
            if not (isinstance(obj[key], list) and all(isinstance(v, str) for v in obj[key])):
                raise SchemaError(f"field {key!r} must be a list of strings", line=lineno)
        if not obj["commit_shas"]:
            raise SchemaError(f"identity {ident_id!r} has no commits", line=lineno)
        # the map is read as UTF-8 (_open_input), so a surrogate can only
        # come from a \u escape; most lines have none and skip the search
        if "\\u" in line and any(LONE_SURROGATE_RE.search(s) for s in (
                ident_id, *obj["names"], *obj["emails"], *obj["commit_shas"])):
            raise SchemaError("a string holds a lone surrogate", line=lineno)
        if ident_id in ids:
            raise SchemaError(f"identity {ident_id!r} repeated", line=lineno)
        ids.add(ident_id)
        shas = sorted(set(obj["commit_shas"]))
        rows = list(map(row_of.get, shas))
        if None in rows:
            raise SchemaError(f"identity {ident_id!r} names commit {shas[rows.index(None)]}, "
                              "which no record has", line=lineno)
        for row in rows:
            owner = owner_of.setdefault(row, ident_id)
            if owner != ident_id:
                raise SchemaError(f"commit {commits.sha[row]} is under identities {owner!r} "
                                  f"and {ident_id!r}", line=lineno)
        identities.append(Identity(ident_id, set(obj["names"]), set(obj["emails"]), rows))
    return identities


def _studied(identities, cfg):
    """The identities the study filter keeps; echoes both counts."""
    from paydev import labels as lab

    studied = lab.study_filter(identities, cfg.min_commits)
    print(f"# identities: total={len(identities)} studied={len(studied)}", file=sys.stderr)
    return studied


def _labeled_dataset(identities, commits, label_set, cfg):
    """Join features with resolved labels; returns (dataset, histories)."""
    from paydev import features as feat
    from paydev import labels as lab
    from paydev import ml

    filtered = _studied(identities, cfg)
    histories = feat.histories(filtered, commits)
    kept, ys = [], {}
    unlabeled = 0
    for ident in filtered:
        status = lab.resolve_status(ident.id, histories[ident.id], label_set)
        if status is None:
            unlabeled += 1
            continue
        kept.append(ident)
        ys[ident.id] = 1 if status == lab.HIRED else 0
    print(
        f"# labels: hired={sum(ys.values())} "
        f"volunteer={len(kept) - sum(ys.values())} unlabeled={unlabeled}",
        file=sys.stderr,
    )
    features_by_id = feat.compute_features({i.id: histories[i.id] for i in kept})
    X, ids, columns = feat.feature_matrix(features_by_id, cfg.feature_mode)
    y = [ys[i] for i in ids]
    data = ml.make_dataset(X, y, columns, ids)
    return data, histories


def _labeled_features(path, label_set):
    """The features CSV's rows with a direct status. Dated hired periods
    resolve only against commits, so a row that has them is rejected."""
    from paydev import labels as lab
    from paydev import ml
    from paydev import model as mdl

    with _open_input(path) as f:
        X, ids, columns = mdl.read_features_csv(f)
    dated = [ident_id for ident_id in ids if ident_id in label_set.periods]
    if dated:
        raise UnlabeledIdentityError(
            f"identity {dated[0]!r} has dated hired periods, which a features CSV "
            "cannot resolve; run `paydev evaluate <records>` instead"
        )
    rows = [i for i, ident_id in enumerate(ids) if ident_id in label_set.entries]
    y = [1 if label_set.entries[ids[i]] == lab.HIRED else 0 for i in rows]
    p = len(columns)
    labeled = array("d")
    for i in rows:
        labeled += X[i * p:i * p + p]
    return ml.make_dataset(labeled, y, columns, [ids[i] for i in rows])


def _classifiers(cfg: Config):
    """Each report name's fit(data, seed_parts), with the config's settings.
    The fits look ml's functions up when called, where a tracer may have
    wrapped them."""
    from paydev import ml

    mtry = cfg.forest_mtry if cfg.forest_mtry > 0 else None
    return {
        "logit": lambda data, seed_parts: ml.fit_logit(
            data, l2=cfg.logit_l2, max_iter=cfg.logit_max_iter, tol=cfg.logit_tol),
        "rpart": lambda data, seed_parts: ml.fit_tree(
            data, minsplit=cfg.tree_minsplit, cp=cfg.tree_cp, maxdepth=cfg.tree_maxdepth),
        "randomforest": lambda data, seed_parts: ml.fit_forest(
            data, seed=ml.forest_seed(seed_parts), n_trees=cfg.forest_trees, mtry=mtry),
    }


def _report_table(report) -> str:
    rows = [("classifier", "auc", "precision", "recall")]
    for name, agg in report.aggregate().items():
        def fmt(value):
            return "NA" if value is None else f"{value:.3f}"

        rows.append(
            (name, fmt(agg["auc_mean"]), fmt(agg["precision_mean"]), fmt(agg["recall_mean"]))
        )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    return "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows
    )


def _write_report(obj, args) -> None:
    """Writes an EvalReport, or a dict of them by name, as JSON or a table."""
    from paydev.evaluation import EvalReport

    if getattr(args, "format", "json") == "table":
        if isinstance(obj, EvalReport):
            text = _report_table(obj)
        else:
            text = "\n\n".join(f"[{k}]\n{_report_table(v)}" for k, v in obj.items())
        _emit(args.out, lambda f: f.write(text + "\n"))
    else:
        if isinstance(obj, EvalReport):
            payload = obj.as_dict()
        else:
            payload = {k: v.as_dict() for k, v in obj.items()}
        _emit(args.out, lambda f: f.write(json.dumps(payload, sort_keys=True, indent=1) + "\n"))


# ----------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    _build_config(args)
    if os.path.isdir(args.source):
        import subprocess

        git, *rest = GIT_EXPORT_COMMAND
        proc = subprocess.run([git, "-C", args.source, *rest], capture_output=True)
        if proc.returncode != 0:
            raise InputFileError(
                f"git log failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        commits = parse_git_log(proc.stdout)
    else:
        with _open_binary(args.source) as (f, _):
            commits = parse_git_log(f)
    print(f"# ingested {len(commits)} commits", file=sys.stderr)
    _emit(args.out, lambda f: write_canonical(commits, f))
    return 0


def cmd_identities(args) -> int:
    from paydev import identity as ident_mod

    commits, identities = _study_records(args, _build_config(args))
    report = ident_mod.identity_report(identities)
    if args.out:
        _atomic_write(args.out, lambda f: write_identity_map(identities, commits, f))
        out = sys.stdout
    else:
        write_identity_map(identities, commits, sys.stdout)
        out = sys.stderr
    print(f"{'identity':<40} {'aliases':>7} {'commits':>7}", file=out)
    for ident_id, aliases, count in report:
        print(f"{ident_id:<40} {aliases:>7} {count:>7}", file=out)
    return 0


def cmd_features(args) -> int:
    from paydev import features as feat

    cfg = _build_config(args)
    commits, identities = _study_records(args, cfg)
    features_by_id = feat.compute_features(feat.histories(identities, commits))
    _emit(args.out, lambda f: feat.write_features_csv(features_by_id, f, mode=args.mode))
    return 0


def cmd_evaluate(args) -> int:
    from paydev import evaluation as ev
    from paydev import labels as lab
    from paydev import ml

    cfg = _build_config(args)
    with _open_input(args.labels) as f:
        label_set = lab.load_labels(f)
    histories = None
    if args.features:
        # Features-only mode: the baselines need raw commits, so they are
        # skipped and only the three classifiers run.
        data = _labeled_features(args.features, label_set)
        print("# baselines skipped (no canonical records given)", file=sys.stderr)
    else:
        if not args.records:
            raise InputFileError("evaluate needs canonical records or --features")
        commits, identities = _study_records(args, cfg)
        data, histories = _labeled_dataset(identities, commits, label_set, cfg)
    ml.check_training(data)

    folds = ev.stratified_kfold(len(data.y), data.y, k=cfg.folds, repeats=cfg.repeats,
                                seed=cfg.seed)
    report = ev.cross_validate(data, _classifiers(cfg), folds, seed=cfg.seed,
                               config=cfg.as_dict())
    if histories is not None:
        report.cells += ev.developer_baselines(histories, data.ids, data.y, cfg.email_domains)
    _write_report(report, args)
    return 0


def cmd_train(args) -> int:
    from paydev import labels as lab
    from paydev import ml

    cfg = _build_config(args)
    with _open_input(args.labels) as f:
        label_set = lab.load_labels(f)
    data = _labeled_features(args.features, label_set)
    model = _classifiers(cfg)[args.classifier](data, (cfg.seed, 0, 0))
    _emit(args.out, lambda f: ml.save_model(model, f))
    if args.introspect:
        print(ml.introspect(model), file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    """Scores the rows of a features CSV, or those computed from canonical
    records, with paydev.model.predict_proba, which needs no numpy where the
    compiled library is loaded."""
    from paydev import model as mdl

    cfg = _build_config(args)
    with _open_input(args.model) as f:
        model = mdl.load_model(f)
    if args.features:
        with _open_input(args.features) as f:
            X, row_ids, columns = mdl.read_features_csv(f)
    else:
        from paydev import features as feat

        commits, identities = _study_records(args, cfg)
        histories = feat.histories(identities, commits)
        # the two column sets are disjoint: any per-commit column means commit rows
        if not set(model.columns).isdisjoint(feat.COMMIT_FEATURE_COLUMNS):
            columns, X, row_ids = feat.COMMIT_FEATURE_COLUMNS, array("d"), []
            for h in histories.values():
                rows, shas, _ = feat.commit_features(h)
                X += rows
                row_ids += shas
        else:
            features_by_id = feat.compute_features(histories)
            # score with the model's own columns (e.g. a no_volume model)
            columns = [c for c in feat.FEATURE_COLUMNS if c in model.columns]
            row_ids = sorted(features_by_id)
            X = array("d", [float(getattr(features_by_id[i], c)) for i in row_ids for c in columns])
    probabilities = mdl.predict_proba(model, X, len(row_ids), columns)

    def writer(f):
        out = csv.writer(f, lineterminator="\n")  # quotes an id with a comma or quote
        out.writerow(["id", "probability", "class"])
        for row_id, p in zip(row_ids, probabilities):
            out.writerow([row_id, f"{p:.6f}", mdl.HIRED if p >= 0.5 else mdl.VOLUNTEER])

    _emit(args.out, writer)
    return 0


def cmd_commits(args) -> int:
    from paydev import evaluation as ev
    from paydev import features as feat
    from paydev import labels as lab

    cfg = _build_config(args)
    with _open_input(args.labels) as f:
        label_set = lab.load_labels(f)
    commits, identities = _study_records(args, cfg)
    all_report, rest_report = ev.per_commit_experiment(
        feat.histories(_studied(identities, cfg), commits),
        label_set,
        _classifiers(cfg),
        coverage=cfg.coverage,
        domains=cfg.email_domains,
        seed=cfg.seed,
        config=cfg.as_dict(),
    )
    _write_report({"all_commits": all_report, "least_active": rest_report}, args)
    return 0


def cmd_synth(args) -> int:
    from paydev import synth

    cfg = _build_config(args)
    spec = synth.SynthSpec(
        n_devs=args.devs,
        hired_share=args.hired_share,
        commits_low=args.commits_low,
        commits_high=args.commits_high,
    )
    spec = synth.spec_with_profiles(spec, args.profiles)
    records, labels = synth.generate_synthetic_corpus(spec, seed=cfg.seed)
    print(f"# synthesized {len(records)} commits for {args.devs} developers",
          file=sys.stderr)
    _emit(args.out, lambda f: write_canonical(Commits.from_records(records), f))
    _atomic_write(args.labels_out, lambda f: synth.write_labels_csv(labels, f))
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub, out_default=None):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, help="master RNG seed (overrides config)")
    sub.add_argument("--out", default=out_default, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paydev",
        description="Predict paid vs volunteer contributors from commit history.",
        epilog=(
            "exit codes: 1 internal error, 2 missing input, 3 schema/parse "
            "violation, 4 column mismatch, 5 single-class labels, "
            "6 stratification impossible"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest",
        help="parse a git-log export (or run git on a repo) into canonical JSONL",
        description=(
            "Parse the output of the documented export command into the canonical "
            f"JSON-lines commit format. Export command:\n\n  {shlex.join(GIT_EXPORT_COMMAND)}"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("source", help="export file, '-' for stdin, or a git repository path")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("identities", help="merge author aliases into identities")
    p.add_argument("records", help="canonical JSONL file")
    p.add_argument("--overrides", help="manual merge/split rules file")
    _add_common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("features", help="compute per-developer metrics CSV")
    p.add_argument("records", help="canonical JSONL file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--identities", help="identity map JSONL (default: recompute)")
    group.add_argument("--overrides", help="identity override rules")
    p.add_argument("--mode", choices=["all", "no_volume"], default="all")
    p.add_argument("--product-map", help="issue_id,product CSV for product filtering")
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser(
        "evaluate", help="cross-validate the three classifiers plus baselines"
    )
    p.add_argument("records", nargs="?", help="canonical JSONL file")
    p.add_argument("--features", help="features CSV (classifiers only, no baselines)")
    p.add_argument("--labels", required=True, help="labels CSV")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--identities", help="identity map JSONL (default: recompute)")
    group.add_argument("--overrides", help="identity override rules")
    p.add_argument("--product-map", help="issue_id,product CSV for product filtering")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--min-commits", dest="min_commits", type=int)
    p.add_argument("--feature-mode", dest="feature_mode", choices=["all", "no_volume"])
    p.add_argument("--folds", type=int)
    p.add_argument("--repeats", type=int)
    p.add_argument("--forest-trees", dest="forest_trees", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="fit one classifier and save the model file")
    p.add_argument("features", help="features CSV")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument(
        "--classifier", required=True, choices=["logit", "rpart", "randomforest"]
    )
    p.add_argument("--introspect", action="store_true", help="print a model report")
    p.add_argument("--forest-trees", dest="forest_trees", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score developers (or commits) with a model")
    p.add_argument("model", help="PAYDEVMODEL/2 model file")
    p.add_argument("--features", help="features CSV")
    p.add_argument("--records", help="canonical JSONL (alternative to --features)")
    p.add_argument("--identities", help="identity map JSONL")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "commits", help="train on the most active developers, score per commit"
    )
    p.add_argument("records", help="canonical JSONL file")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--identities", help="identity map JSONL (default: recompute)")
    p.add_argument("--product-map", help="issue_id,product CSV for product filtering")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--min-commits", dest="min_commits", type=int)
    p.add_argument("--coverage", type=float)
    p.add_argument("--forest-trees", dest="forest_trees", type=int)
    _add_common(p)
    p.set_defaults(func=cmd_commits)

    p = sub.add_parser("synth", help="generate a synthetic corpus with known labels")
    p.add_argument("--labels-out", required=True, help="labels CSV output path")
    p.add_argument("--profiles", choices=["separable", "overlapping"],
                   default="separable")
    p.add_argument("--devs", type=int, default=200)
    p.add_argument("--hired-share", dest="hired_share", type=float, default=0.5)
    p.add_argument("--commits-low", dest="commits_low", type=int, default=120)
    p.add_argument("--commits-high", dest="commits_high", type=int, default=280)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and args.features:
        # the baselines and these flags act on canonical records only
        if args.records:
            parser.error("evaluate: canonical records are not allowed with --features")
        for flag in ("identities", "overrides", "product_map"):
            if getattr(args, flag):
                parser.error(f"evaluate: --{flag.replace('_', '-')} needs canonical records "
                             "and is not allowed with --features")
    if args.command == "predict":
        if bool(args.features) == bool(args.records):
            parser.error("predict: give exactly one of --features and --records")
        if args.identities and not args.records:
            parser.error("predict: --identities needs --records")
    if args.command == "synth":
        if args.devs < 1:
            parser.error("synth: --devs must be at least 1")
        if args.commits_low < 1:
            parser.error("synth: --commits-low must be at least 1")
        if args.commits_high < args.commits_low:
            parser.error("synth: --commits-high must be at least --commits-low")
        if not 0 <= args.hired_share <= 1:  # NaN too
            parser.error("synth: --hired-share must be in [0, 1]")
    try:
        for path in (args.out, getattr(args, "labels_out", None)):
            if path:
                _check_writable(path)
        return args.func(args)
    except PaydevError as exc:
        print(f"paydev {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"paydev {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        print(f"paydev {args.command}: internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

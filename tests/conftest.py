import importlib
from contextlib import contextmanager

import numpy as np
import pytest

from paydev import native
from paydev.features import histories
from paydev.identity import Identity
from paydev.ingest import CANONICAL_FIELDS, Commits
from paydev.synth import CommitRecord


def make_record(
    sha="0" * 40,
    author_name="Alice",
    author_email="alice@example.org",
    timestamp_utc=1483347600,
    tz_offset_minutes=0,
    lines_added=1,
    lines_deleted=0,
    message="",
):
    return CommitRecord(
        sha=sha,
        author_name=author_name,
        author_email=author_email,
        timestamp_utc=timestamp_utc,
        tz_offset_minutes=tz_offset_minutes,
        lines_added=lines_added,
        lines_deleted=lines_deleted,
        message=message,
    )


# True: the kernels native binds (the compiled ones with the library);
# False: their twins
HISTORY_MODES = KERNEL_MODES = (True, False) if native.BACKEND == "c" else (False,)


@contextmanager
def twins(*names):
    """native's kernels `names` bound to their twins (<name>_py in the
    module native._TWINS names) while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            module = importlib.import_module(native._TWINS[name])
            mp.setattr(native, name, getattr(module, f"{name}_py"))
        yield


def compiled_histories(on):
    """features.histories, to_local, developer_features and commit_features
    on the compiled History pass and commit rows (`on`, which native binds
    with the library), or on their Python twins."""
    return twins(*() if on else ("sort_histories", "local_calendar", "activity", "commit_rows"))


def sha_of(i: int) -> str:
    return f"{i:040x}"


def rows(commits):
    """The rows of a Commits table as CommitRecords, in table order."""
    columns = [getattr(commits, name) for name in CANONICAL_FIELDS]
    columns = [c if isinstance(c, list) else c.tolist() for c in columns]
    return [CommitRecord(*row) for row in zip(*columns)]


def loss_and_grad(w, X1, y, l2):
    """The penalized negative log-likelihood of the logit, and its gradient,
    at the weights w (the intercept last) on the rows of the numpy matrix
    X1, whose last column is all ones, and the labels y: the fit's own
    paydev.ml.logit._loss_grad."""
    from paydev.ml.logit import _loss_grad

    columns = np.asarray(X1, dtype=np.float64).T.tolist()
    loss, grad, _ = _loss_grad([float(v) for v in w], columns, [float(v) for v in y], l2)
    return loss, grad


def owning(ident_id, commits, rows):
    """The Identity `ident_id` owning the given rows of the Commits table
    `commits`, in the sha order an Identity keeps them in."""
    return Identity(ident_id, rows=sorted(rows, key=commits.sha.__getitem__))


def shas_of(ident, commits):
    """The shas of the rows of the Commits table `commits` an Identity owns."""
    return [commits.sha[r] for r in ident.rows]


def history_of(records):
    """The History of a list of CommitRecords as one identity's commits."""
    commits = Commits.from_records(records)
    return histories([owning("dev", commits, range(len(commits)))], commits)["dev"]


@pytest.fixture
def fixture_commits():
    """The four-commit fixture: Mon 09:00 (loc 10), Mon 14:30 (loc 4),
    Sat 22:00 (loc 6), Sun 02:00 (loc 2), offset 0."""
    spec = [
        (1483347600, 7, 3),  # Mon 2017-01-02 09:00
        (1483367400, 3, 1),  # Mon 2017-01-02 14:30
        (1483826400, 4, 2),  # Sat 2017-01-07 22:00
        (1483840800, 1, 1),  # Sun 2017-01-08 02:00
    ]
    return [
        make_record(sha=sha_of(i), timestamp_utc=ts, lines_added=a, lines_deleted=d)
        for i, (ts, a, d) in enumerate(spec)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

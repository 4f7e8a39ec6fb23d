"""Ground-truth employment labels and the study filter.

Labels arrive as a CSV keyed by identity id. An identity either has a
direct status or dated hired periods; with periods, each commit is hired
iff its local date falls inside one, and the developer's overall status is
the commit majority (ties go to hired).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from operator import or_

from paydev.errors import SchemaError, UnlabeledIdentityError, csv_rows
from paydev.features import to_local  # noqa: F401  perfbench/tracing.py counts calls here
from paydev.model import HIRED, VOLUNTEER

LABELS_HEADER = ["identity", "status", "hired_from", "hired_to"]


@dataclass
class LabelSet:
    entries: dict[str, str] = field(default_factory=dict)
    periods: dict[str, list[tuple[date, date | None]]] = field(default_factory=dict)

    def __contains__(self, identity_id):
        """Whether the identity has a status or hired periods, that is,
        whether resolve_status gives it a status."""
        return identity_id in self.entries or identity_id in self.periods


def _parse_date(text, lineno):
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"malformed date {text!r}", line=lineno) from None


def load_labels(fileobj) -> LabelSet:
    """Read the labels CSV; identities unknown to the commit data are kept."""
    reader = csv_rows(fileobj)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != LABELS_HEADER:
        raise SchemaError(
            "labels CSV must start with header 'identity,status,hired_from,hired_to'", line=1
        )
    labels = LabelSet()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise SchemaError("expected four columns", line=lineno)
        ident, status, from_text, to_text = (cell.strip() for cell in row)
        if status not in (HIRED, VOLUNTEER):
            raise SchemaError(f"status must be hired or volunteer, got {status!r}", line=lineno)
        if from_text or to_text:
            if status != HIRED:
                raise SchemaError("dated periods are hired periods", line=lineno)
            if not from_text:
                raise SchemaError("hired_from required when hired_to is set", line=lineno)
            start = _parse_date(from_text, lineno)
            stop = _parse_date(to_text, lineno) if to_text else None
            if stop is not None and start > stop:
                raise SchemaError("hired_from is after hired_to", line=lineno)
            intervals = labels.periods.setdefault(ident, [])
            intervals.append((start, stop))
            _check_overlap(intervals, lineno)
        else:
            previous = labels.entries.get(ident)
            if previous is not None and previous != status:
                raise SchemaError(f"contradictory statuses for {ident!r}", line=lineno)
            labels.entries[ident] = status
    return labels


def _check_overlap(intervals, lineno):
    spans = sorted(intervals, key=lambda iv: iv[0])
    for (_, stop), (start, _) in zip(spans, spans[1:]):
        if stop is None or start <= stop:
            raise SchemaError("overlapping hired periods", line=lineno)


def study_filter(identities, min_commits: int = 100):
    """Identities with strictly more than min_commits commits."""
    if min_commits < 1:
        raise ValueError("min_commits must be >= 1")
    return [i for i in identities if len(i.rows) > min_commits]


_EPOCH = date(1970, 1, 1).toordinal()


def _hired(h, intervals):
    """Per commit of h, whether its local date falls in a hired period."""
    hired = [False] * len(h.ts)
    for start, stop in intervals:
        days = range(start.toordinal() - _EPOCH, (stop or date.max).toordinal() - _EPOCH + 1)
        hired = list(map(or_, hired, map(days.__contains__, h.local.day)))
    return hired


def resolve_status(identity_id, h, labels: LabelSet) -> str | None:
    """One status per identity, from its History h: commit-majority over
    periods when periods exist, the direct status otherwise, None when
    unlabeled."""
    intervals = labels.periods.get(identity_id)
    if intervals:
        hired = sum(_hired(h, intervals))
        return HIRED if hired / len(h.ts) >= 0.5 else VOLUNTEER
    return labels.entries.get(identity_id)


def commit_labels(identity_id, h, labels: LabelSet) -> list[str]:
    """Per-commit statuses aligned with the History's h.sha."""
    intervals = labels.periods.get(identity_id)
    if intervals:
        return [HIRED if hired else VOLUNTEER for hired in _hired(h, intervals)]
    status = labels.entries.get(identity_id)
    if status is None:
        raise UnlabeledIdentityError(f"identity {identity_id!r} has no label")
    return [status] * len(h.ts)

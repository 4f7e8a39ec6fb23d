"""Link each commit to the issue of its message's first `bug NNN` reference,
and keep the rows whose issue maps to an allowed product.

Product data comes from an offline CSV (issue_id,product); there is no
issue-tracker client here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from paydev.errors import SchemaError, csv_rows

# An id of 3-9 digits, the first not 0, keeps prose like "bug 42" or "bug
# 007" and version strings out at scale; a reference starts a word ("debug
# 1234" is none) and ends its digits ("Bug 1234567890" is none).
_ISSUE_RE = re.compile(r"\bbug[ \t]*#?[ \t]*([1-9][0-9]{2,8})(?![0-9])", re.IGNORECASE)


def primary_issue(message: str) -> int | None:
    """The issue id of a message's first reference, which alone links the
    commit, or None."""
    m = _ISSUE_RE.search(message)
    return None if m is None else int(m.group(1))


def load_product_map(fileobj) -> dict[int, str]:
    """Read the issue_id,product CSV into a mapping."""
    reader = csv_rows(fileobj)
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != ["issue_id", "product"]:
        raise SchemaError("product map must start with header 'issue_id,product'", line=1)
    mapping: dict[int, str] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise SchemaError("expected two columns", line=lineno)
        cell = row[0].strip()
        try:
            if not (cell.isascii() and cell.isdigit()):  # int() takes "+1", "1_0", "-7", "٣"
                raise ValueError
            issue = int(cell)
        except ValueError:  # or more digits than int() converts
            raise SchemaError(f"invalid issue id {row[0]!r}", line=lineno) from None
        if issue in mapping:
            raise SchemaError(f"duplicate issue id {issue}", line=lineno)
        mapping[issue] = row[1].strip()
    return mapping


@dataclass(frozen=True)
class LinkageReport:
    total: int
    linked: int
    kept: int
    unmapped: int
    disallowed: int


def filter_by_products(messages, product_map, allowed):
    """The rows whose message's primary issue maps to an allowed product,
    in ascending order, and the LinkageReport."""
    if not allowed:
        raise ValueError("allowed product set must be nonempty")
    kept = []
    linked = unmapped = disallowed = 0
    for row, message in enumerate(messages):
        issue = primary_issue(message)
        if issue is None:
            continue
        linked += 1
        product = product_map.get(issue)
        if product is None:
            unmapped += 1
        elif product not in allowed:
            disallowed += 1
        else:
            kept.append(row)
    report = LinkageReport(
        total=len(messages),
        linked=linked,
        kept=len(kept),
        unmapped=unmapped,
        disallowed=disallowed,
    )
    return kept, report

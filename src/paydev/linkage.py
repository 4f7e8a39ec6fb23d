"""Link commits to issue ids found in their messages and filter by product.

Product data comes from an offline CSV (issue_id,product); there is no
issue-tracker client here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from paydev.errors import SchemaError, csv_rows

# 3-9 digits keeps prose like "bug 42" and version strings out at scale.
_ISSUE_RE = re.compile(r"bug[ \t]*#?[ \t]*([0-9]{3,9})", re.IGNORECASE)


def extract_issue_ids(message: str) -> list[int]:
    """All issue ids referenced in a message, first occurrence kept."""
    out = []
    seen = set()
    for m in _ISSUE_RE.finditer(message):
        issue = int(m.group(1))
        if issue not in seen:
            seen.add(issue)
            out.append(issue)
    return out


def extract_links(commits) -> dict[str, list[int]]:
    """Map sha -> issue ids for every commit; empty lists are omitted."""
    links = {}
    for sha, message in zip(commits.sha, commits.message):
        ids = extract_issue_ids(message)
        if ids:
            links[sha] = ids
    return links


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
        try:
            issue = int(row[0])
        except ValueError:
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


def filter_by_products(commits, links, product_map, allowed):
    """Keep commits whose primary (first) issue link maps to an allowed
    product. Returns (kept Commits, LinkageReport)."""
    if not allowed:
        raise ValueError("allowed product set must be nonempty")
    kept = []
    linked = unmapped = disallowed = 0
    for row, sha in enumerate(commits.sha):
        ids = links.get(sha)
        if not ids:
            continue
        linked += 1
        product = product_map.get(ids[0])
        if product is None:
            unmapped += 1
        elif product not in allowed:
            disallowed += 1
        else:
            kept.append(row)
    report = LinkageReport(
        total=len(commits),
        linked=linked,
        kept=len(kept),
        unmapped=unmapped,
        disallowed=disallowed,
    )
    return commits.take(kept), report

"""Merge author aliases into developer identities.

Grouping is transitive over shared names or shared emails: the alias graph
has one node per distinct name and per distinct email and one edge per
observed (name, email) pair; connected components are identities. Manual
override rules adjust the automatic result. A key of either kind matches the
aliases whose normalized name equals the normalized key or whose email equals
the key. Splits are applied first: each alias a split key matches leaves the
graph, with its commits, for the identity of the first rule matching its name,
else of the first matching its email. Merges union the components containing
their keys afterwards. No two identities may share an id.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from paydev.errors import IdentityClashError, OverrideConflictError, SchemaError

_WS_RUN = re.compile(r"\s+")


def normalize_name(name: str) -> str:
    """Trim surrounding whitespace and collapse internal runs to one space."""
    return _WS_RUN.sub(" ", name.strip())


@dataclass
class Identity:
    """A merged developer: alias sets plus the commits they own, as the
    rows of the Commits table the identity was built against, in sha order
    (histories sorts them stably by timestamp, so ties keep that order)."""

    id: str
    names: set[str] = field(default_factory=set)
    emails: set[str] = field(default_factory=set)
    rows: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class OverrideRule:
    kind: str  # "merge" or "split"
    keys: tuple[str, ...]


def parse_overrides(fileobj) -> list[OverrideRule]:
    """Read override rules: `merge key1|key2|...` or `split key1|...`."""
    rules = []
    for lineno, line in enumerate(fileobj, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("merge", "split"):
            raise SchemaError(f"unknown override kind {kind!r}", line=lineno)
        keys = tuple(k.strip() for k in rest.split("|") if k.strip())
        if not keys:
            raise SchemaError("override rule needs at least one key", line=lineno)
        rules.append(OverrideRule(kind=kind, keys=keys))
    return rules


class _DSU:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def merge_identities(commits, overrides=()) -> list[Identity]:
    """Partition Commits into identities; see the module docstring.

    Result is sorted by identity id. Split keys never observed in the data
    produce a warning, a merge key and a split key with the same normalized
    name are an error, and so are two identities with the same id.
    """
    merge_keys = {k for r in overrides if r.kind == "merge" for k in r.keys}
    split_rules = [r for r in overrides if r.kind == "split"]
    split_keys = {k for r in split_rules for k in r.keys}
    conflict = {normalize_name(k) for k in merge_keys} & {normalize_name(k) for k in split_keys}
    if conflict:
        raise OverrideConflictError(
            f"key {sorted(conflict)[0]!r} appears in both merge and split rules"
        )

    split_by_name, split_by_email = {}, {}
    for i, rule in enumerate(split_rules):
        for key in rule.keys:
            split_by_name.setdefault(normalize_name(key), i)
            split_by_email.setdefault(key, i)

    rows_by_alias = {}
    for row, alias in enumerate(zip(commits.author_name, commits.author_email)):
        rows_by_alias.setdefault(alias, []).append(row)

    # One DSU node per alias: its split rule's, else its name's joined to
    # its email's. Empty strings must not link, so a commit with neither
    # a name nor an email gets a node of its own.
    dsu = _DSU()
    aliases = []  # (node, normalized name, email, rows)
    for (raw_name, email), rows in rows_by_alias.items():
        name = normalize_name(raw_name)
        rule_idx = split_by_name.get(name, split_by_email.get(email))
        if rule_idx is not None:
            aliases.append((("s", rule_idx), name, email, rows))
        elif name or email:
            node = ("n", name) if name else ("e", email)
            if name and email:
                dsu.union(node, ("e", email))
            else:
                dsu.find(node)
            aliases.append((node, name, email, rows))
        else:
            aliases.extend((("c", row), name, email, (row,)) for row in rows)

    if split_keys:
        names, emails = {a[1] for a in aliases}, {a[2] for a in aliases}
        for key in sorted(split_keys):
            if normalize_name(key) not in names and key not in emails:
                print(f"split override key {key!r} was never observed", file=sys.stderr)

    # Merge overrides union the components containing each listed key.
    for rule in overrides:
        if rule.kind == "merge":
            nodes = [node for key in rule.keys
                     for node in (("n", normalize_name(key)), ("e", key)) if node in dsu.parent]
            for node in nodes[1:]:
                dsu.union(nodes[0], node)

    components = {}
    for node, name, email, rows in aliases:
        root = dsu.find(node)
        ident = components.get(root)
        if ident is None:
            ident = components[root] = Identity(id="")
        if name:
            ident.names.add(name)
        if email:
            ident.emails.add(email)
        ident.rows += rows

    result = list(components.values())
    for ident in result:
        ident.rows.sort(key=commits.sha.__getitem__)
        ident.id = min(ident.emails or ident.names or [commits.sha[ident.rows[0]]])
    result.sort(key=lambda i: i.id)
    for a, b in zip(result, result[1:]):
        if a.id == b.id:
            raise IdentityClashError(
                f"two identities have the id {a.id!r}; join them with the override "
                f"`merge {a.id}`, or list {a.id!r} in the split rule that takes one"
            )
    return result


def identity_report(identities) -> list[tuple[str, int, int]]:
    """Rows of (id, alias count, commit count), most commits first."""
    rows = [
        (ident.id, len(ident.names) + len(ident.emails), len(ident.rows))
        for ident in identities
    ]
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows

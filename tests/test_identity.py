import io
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_record, sha_of, shas_of
from paydev.errors import IdentityClashError, OverrideConflictError, SchemaError
from paydev.identity import (
    OverrideRule,
    identity_report,
    normalize_name,
    parse_overrides,
)
from paydev.identity import merge_identities as merge_commits
from paydev.ingest import Commits


def records_from_pairs(pairs):
    return [
        make_record(sha=sha_of(i), author_name=name, author_email=email)
        for i, (name, email) in enumerate(pairs)
    ]


def merge_identities(records, overrides=()):
    """identity.merge_identities of a list of CommitRecords."""
    return merge_commits(Commits.from_records(records), overrides)


def brute_force_components(pairs):
    """Connected components on the alias graph via breadth-first search."""
    adj = defaultdict(set)
    nodes = set()
    for name, email in pairs:
        name = normalize_name(name)
        ns = [("n", name)] if name else []
        es = [("e", email)] if email else []
        for node in ns + es:
            nodes.add(node)
        for a in ns:
            for b in es:
                adj[a].add(b)
                adj[b].add(a)
    seen, comps = set(), []
    for start in nodes:
        if start in seen:
            continue
        comp, queue = set(), [start]
        while queue:
            node = queue.pop()
            if node in comp:
                continue
            comp.add(node)
            queue.extend(adj[node] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def oracle_identities(pairs, rules):
    """The identities of commit i = pairs[i] as a set of (names, emails, shas)
    triples, from the module docstring alone: splits first, then connected
    components of the remaining alias graph by breadth-first search, then
    merges, which link the graph nodes their keys name."""
    def matches(key, kind, value):
        return value != "" and value == (normalize_name(key) if kind == "n" else key)

    splits = [r.keys for r in rules if r.kind == "split"]
    groups = defaultdict(lambda: (set(), set(), set()))
    rest = []
    for i, (raw_name, email) in enumerate(pairs):
        name = normalize_name(raw_name)
        rule = next((j for kind, value in (("n", name), ("e", email))
                     for j, keys in enumerate(splits)
                     if any(matches(k, kind, value) for k in keys)), None)
        if rule is None:
            rest.append((i, name, email))
            continue
        names, emails, shas = groups[("s", rule)]
        names.update({name} - {""})
        emails.update({email} - {""})
        shas.add(sha_of(i))
    nodes = {node for _, name, email in rest for node in (("n", name), ("e", email)) if node[1]}
    edges = [(("n", name), ("e", email)) for _, name, email in rest if name and email]
    for rule in rules:
        if rule.kind == "merge":
            named = [node for node in nodes for k in rule.keys if matches(k, *node)]
            edges += [(named[0], node) for node in named[1:]]
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    root = {}
    for start in sorted(nodes):
        if start in root:
            continue
        queue = [start]
        while queue:
            node = queue.pop()
            if node not in root:
                root[node] = start
                queue.extend(adj[node])
    for i, name, email in rest:
        names, emails, shas = groups[root[("n", name) if name else ("e", email)]
                                     if name or email else ("c", i)]
        names.update({name} - {""})
        emails.update({email} - {""})
        shas.add(sha_of(i))
    return {(frozenset(n), frozenset(e), frozenset(s)) for n, e, s in groups.values()}


class TestMerge:
    def test_shared_name_groups(self):
        pairs = [("Alice", "a@x.com"), ("Alice", "alice@y.org"), ("Bob", "b@x.com")]
        idents = merge_identities(records_from_pairs(pairs))
        assert len(idents) == 2
        by_id = {i.id: i for i in idents}
        assert by_id["a@x.com"].emails == {"a@x.com", "alice@y.org"}
        assert by_id["b@x.com"].names == {"Bob"}

    def test_empty_input(self):
        assert merge_identities([]) == []

    def test_chain_with_split(self):
        pairs = [("N1", "a@x.com"), ("N1", "b@y.org"), ("N2", "b@y.org")]
        rules = [OverrideRule(kind="split", keys=("N2",))]
        idents = merge_identities(records_from_pairs(pairs), rules)
        assert len(idents) == 2
        split = next(i for i in idents if "N2" in i.names)
        assert split.rows == [2]
        other = next(i for i in idents if i is not split)
        assert other.rows == [0, 1]
        assert other.emails == {"a@x.com", "b@y.org"}

    def test_merge_override_unions(self):
        pairs = [("Alice", "a@x.com"), ("Bob", "b@x.com")]
        rules = [OverrideRule(kind="merge", keys=("a@x.com", "b@x.com"))]
        idents = merge_identities(records_from_pairs(pairs), rules)
        assert len(idents) == 1
        assert idents[0].emails == {"a@x.com", "b@x.com"}

    def test_conflicting_merge_and_split(self):
        rules = [
            OverrideRule(kind="merge", keys=("a@x.com", "b@x.com")),
            OverrideRule(kind="split", keys=("a@x.com",)),
        ]
        with pytest.raises(OverrideConflictError):
            merge_identities(records_from_pairs([("A", "a@x.com")]), rules)

    def test_unobserved_split_key_warns(self, capsys):
        merge_identities(
            records_from_pairs([("A", "a@x.com")]),
            [OverrideRule(kind="split", keys=("ghost@x.com",))],
        )
        assert capsys.readouterr().err == "split override key 'ghost@x.com' was never observed\n"

    def test_name_whitespace_normalization(self):
        pairs = [("  Alice   B ", "a@x.com"), ("Alice B", "b@y.org")]
        idents = merge_identities(records_from_pairs(pairs))
        assert len(idents) == 1
        assert idents[0].names == {"Alice B"}

    def test_id_is_smallest_email_then_name(self):
        pairs = [("Zed", "z@z.org"), ("Zed", "a@a.org")]
        idents = merge_identities(records_from_pairs(pairs))
        assert idents[0].id == "a@a.org"
        only_name = merge_identities([make_record(author_name="Solo", author_email="")])
        assert only_name[0].id == "Solo"

    def test_split_key_matches_normalized_name(self, capsys):
        pairs = [("Carol", "c@x.com"), ("Carol", "z@y.org"), ("Alice  B", "z@y.org")]
        for key in ("Alice  B", " Alice B", "Alice\tB"):
            idents = merge_identities(records_from_pairs(pairs),
                                      [OverrideRule(kind="split", keys=(key,))])
            assert not capsys.readouterr().err
            by_id = {i.id: i for i in idents}
            assert by_id["z@y.org"].rows == [2]
            assert by_id["z@y.org"].names == {"Alice B"}
            assert by_id["c@x.com"].rows == [0, 1]

    def test_split_sharing_an_address_clashes(self):
        pairs = [("N1", "a@x.com"), ("N2", "a@x.com")] * 3
        records = records_from_pairs(pairs)
        with pytest.raises(IdentityClashError, match="'a@x.com'.*split rule"):
            merge_identities(records, [OverrideRule(kind="split", keys=("N2",))])
        # the suggested fix: list the address in the split rule
        idents = merge_identities(records, [OverrideRule(kind="split", keys=("N2", "a@x.com"))])
        assert [(i.id, len(i.rows)) for i in idents] == [("a@x.com", 6)]

    def test_name_equal_to_an_address_clashes(self):
        records = records_from_pairs([("a@x.com", ""), ("Bob", "a@x.com")])
        with pytest.raises(IdentityClashError, match="`merge a@x.com`"):
            merge_identities(records)
        # the suggested fix: a merge rule naming the id
        idents = merge_identities(records, [OverrideRule(kind="merge", keys=("a@x.com",))])
        assert [(i.id, i.names) for i in idents] == [("a@x.com", {"a@x.com", "Bob"})]

    def test_empty_strings_do_not_link(self):
        pairs = [("A", ""), ("B", "")]
        idents = merge_identities(records_from_pairs(pairs))
        assert len(idents) == 2


@st.composite
def alias_pairs(draw):
    names = [f"N{i}" for i in range(6)]
    emails = [f"e{i}@x" for i in range(6)]
    n = draw(st.integers(min_value=0, max_value=25))
    return [
        (draw(st.sampled_from(names)), draw(st.sampled_from(emails))) for _ in range(n)
    ]


class TestProperties:
    @given(alias_pairs(), st.permutations(range(25)))
    @settings(max_examples=200, deadline=None)
    def test_partition_and_oracle(self, pairs, order):
        # shas out of row order, so that sha order and row order differ
        commits = Commits.from_records([make_record(sha=sha_of(order[i]), author_name=name,
                                                    author_email=email)
                                        for i, (name, email) in enumerate(pairs)])
        idents = merge_commits(commits)
        # partition: every row in exactly one identity, each identity's rows in sha order
        assert sorted(r for i in idents for r in i.rows) == list(range(len(commits)))
        for ident in idents:
            assert shas_of(ident, commits) == sorted(shas_of(ident, commits))
        # key sets equal brute-force connected components
        got = {frozenset(("n",) + (n,) for n in i.names) | frozenset(("e", e) for e in i.emails)
               for i in idents}
        expected = set()
        for comp in brute_force_components(pairs):
            expected.add(frozenset((k, v) for k, v in comp))
        assert {frozenset(c) for c in got} == expected

    @given(alias_pairs())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, pairs):
        idents = merge_identities(records_from_pairs(pairs))
        again_records = []
        counter = 0
        for ident in idents:
            name = min(ident.names) if ident.names else ""
            email = ident.id if "@" in ident.id else ""
            for _ in ident.rows:
                again_records.append(
                    make_record(sha=sha_of(1000 + counter), author_name=name,
                                author_email=email)
                )
                counter += 1
        again = merge_identities(again_records)
        assert sorted(len(i.rows) for i in again) == sorted(len(i.rows) for i in idents)
        assert len(again) == len(idents)


@st.composite
def aliases_and_rules(draw):
    """Alias pairs with empty parts, whitespace runs and a name equal to an
    address, and 0-3 split or merge rules over their keys and a ghost."""
    names = ["", "N1", " N1", "N  2", "N 2", "e1@x"]
    emails = ["", "e1@x", "e2@x", "e3@x"]
    keys = ["N1", "N 2", "N   2", "e1@x", "e2@x", "e3@x", "ghost"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(emails)),
                          max_size=12))
    rules = draw(st.lists(st.builds(
        OverrideRule,
        kind=st.sampled_from(["merge", "split"]),
        keys=st.lists(st.sampled_from(keys), min_size=1, max_size=3).map(tuple),
    ), max_size=3))
    return pairs, rules


class TestOverrideOracle:
    @given(aliases_and_rules())
    @example(([("N1", "e1@x"), ("N 2", "e2@x")],  # a key no alias holds links nothing
              [OverrideRule("merge", ("ghost", "e1@x")), OverrideRule("merge", ("ghost", "N 2"))]))
    @example(([("Dev 0001", "dev0001@example.org"), ("Dev 0002", "dev0002@example.org")],
              [OverrideRule("merge", ("Dev  0001", "dev0002@example.org")),  # both keys match
               OverrideRule("split", ("Dev 0001",))]))                        # the name Dev 0001
    @settings(max_examples=500, deadline=None)
    def test_matches_docstring_oracle(self, case):
        pairs, rules = case
        records = records_from_pairs(pairs)
        merge_keys = {normalize_name(k) for r in rules if r.kind == "merge" for k in r.keys}
        if merge_keys & {normalize_name(k) for r in rules if r.kind == "split" for k in r.keys}:
            with pytest.raises(OverrideConflictError):
                merge_identities(records, rules)
            return
        expected = oracle_identities(pairs, rules)
        ids = [min(e) if e else min(n) if n else min(s) for n, e, s in expected]
        if len(set(ids)) < len(ids):
            with pytest.raises(IdentityClashError):
                merge_identities(records, rules)
            return
        commits = Commits.from_records(records)
        idents = merge_commits(commits, rules)
        assert sorted(r for i in idents for r in i.rows) == list(range(len(commits)))
        assert {(frozenset(i.names), frozenset(i.emails), frozenset(shas_of(i, commits)))
                for i in idents} == expected
        assert sorted(i.id for i in idents) == sorted(ids)


class TestReport:
    def test_sorted_by_count_then_id(self):
        pairs = [("A", "a@x"), ("B", "b@x"), ("B", "b@x"), ("C", "c@x"), ("C", "c@x")]
        idents = merge_identities(records_from_pairs(pairs))
        rows = identity_report(idents)
        assert [r[0] for r in rows] == ["b@x", "c@x", "a@x"]
        assert [r[2] for r in rows] == [2, 2, 1]

    def test_empty(self):
        assert identity_report([]) == []


class TestOverridesFile:
    def test_parse(self):
        text = "# comment\nmerge a@x|b@y\nsplit N2\n\n"
        rules = parse_overrides(io.StringIO(text))
        assert rules == [
            OverrideRule(kind="merge", keys=("a@x", "b@y")),
            OverrideRule(kind="split", keys=("N2",)),
        ]

    def test_bad_kind(self):
        with pytest.raises(SchemaError):
            parse_overrides(io.StringIO("link a|b\n"))

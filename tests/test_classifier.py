"""Unit and property tests for the taxonomy and the classifier.

These test the paper's central definitions, so they are deliberately
exhaustive about sequence semantics.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import UpdateKind, UpdateRecord
from repro.core import classifier as classifier_module
from repro.core.classifier import classify
from repro.core.columns import ColumnClassifier
from repro.core.taxonomy import (
    FIGURE2_CATEGORIES,
    INSTABILITY_CATEGORIES,
    PATHOLOGICAL_CATEGORIES,
    UpdateCategory,
)
from repro.net.prefix import Prefix

P = Prefix.parse
PFX = P("192.42.113.0/24")

ATTRS_A = PathAttributes(as_path=AsPath((701, 3561)), next_hop=1)
ATTRS_B = PathAttributes(as_path=AsPath((1239, 3561)), next_hop=2)
#: Same forwarding tuple as ATTRS_A, different policy attributes.
ATTRS_A_POLICY = PathAttributes(
    as_path=AsPath((701, 3561)), next_hop=1, med=42,
    communities=frozenset({0xFF}),
)


def A(time, attrs=ATTRS_A, peer=1, asn=701, prefix=PFX):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.ANNOUNCE, attrs)


def W(time, peer=1, asn=701, prefix=PFX):
    return UpdateRecord(time, peer, asn, prefix, UpdateKind.WITHDRAW)


def categories(records):
    return [u.category for u in classify(records)]


class TestSequences:
    def test_first_announce_is_new(self):
        assert categories([A(0)]) == [UpdateCategory.NEW_ANNOUNCE]

    def test_first_withdraw_is_wwdup(self):
        """A withdrawal from a peer that never announced the prefix is
        the paper's signature pathology."""
        assert categories([W(0)]) == [UpdateCategory.WWDUP]

    def test_aadup_identical_announce(self):
        cats = categories([A(0), A(1)])
        assert cats == [UpdateCategory.NEW_ANNOUNCE, UpdateCategory.AADUP]

    def test_aadup_policy_change_flagged(self):
        updates = list(classify([A(0), A(1, ATTRS_A_POLICY)]))
        assert updates[1].category is UpdateCategory.AADUP
        assert updates[1].policy_change

    def test_pure_aadup_not_policy_flagged(self):
        updates = list(classify([A(0), A(1)]))
        assert not updates[1].policy_change

    def test_aadiff_different_path(self):
        cats = categories([A(0), A(1, ATTRS_B)])
        assert cats[1] is UpdateCategory.AADIFF

    def test_aadiff_nexthop_only_change(self):
        changed = PathAttributes(as_path=AsPath((701, 3561)), next_hop=9)
        cats = categories([A(0), A(1, changed)])
        assert cats[1] is UpdateCategory.AADIFF

    def test_plain_withdraw_of_reachable_route(self):
        cats = categories([A(0), W(1)])
        assert cats[1] is UpdateCategory.PLAIN_WITHDRAW

    def test_wadup_reannounce_same_route(self):
        cats = categories([A(0), W(1), A(2)])
        assert cats[2] is UpdateCategory.WADUP

    def test_wadiff_reannounce_different_route(self):
        cats = categories([A(0), W(1), A(2, ATTRS_B)])
        assert cats[2] is UpdateCategory.WADIFF

    def test_wwdup_repeated_withdrawals(self):
        cats = categories([A(0), W(1), W(2), W(3)])
        assert cats[1] is UpdateCategory.PLAIN_WITHDRAW
        assert cats[2] is UpdateCategory.WWDUP
        assert cats[3] is UpdateCategory.WWDUP

    def test_wadup_policy_variant_is_wadiff_on_tuple_change_only(self):
        """Re-announcement with the same forwarding tuple but different
        policy attributes is still a WADup per the paper's tuple rule."""
        cats = categories([A(0), W(1), A(2, ATTRS_A_POLICY)])
        assert cats[2] is UpdateCategory.WADUP

    def test_oscillation_sequence(self):
        """The paper's A1, A2, A1 oscillation: AADIFF then AADIFF."""
        cats = categories([A(0), A(1, ATTRS_B), A(2, ATTRS_A)])
        assert cats == [
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.AADIFF,
            UpdateCategory.AADIFF,
        ]

    def test_full_flap_cycle(self):
        """W-A-W-A oscillation of the same route: WADup each time."""
        cats = categories([A(0), W(1), A(2), W(3), A(4)])
        assert cats[2] is UpdateCategory.WADUP
        assert cats[4] is UpdateCategory.WADUP


class TestStateIsolation:
    def test_peers_tracked_independently(self):
        cats = categories([A(0, peer=1), W(1, peer=2)])
        # Peer 2 never announced: its withdrawal is WWDup even though
        # peer 1 has the route up.
        assert cats[1] is UpdateCategory.WWDUP

    def test_prefixes_tracked_independently(self):
        other = P("10.0.0.0/8")
        cats = categories([A(0), A(1, prefix=other), A(2)])
        assert cats == [
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.NEW_ANNOUNCE,
            UpdateCategory.AADUP,
        ]

    def test_state_persists_across_classify_calls(self):
        clf = ColumnClassifier()
        list(classify([A(0)], clf))
        (second,) = list(classify([A(1)], clf))
        assert second.category is UpdateCategory.AADUP

    def test_reset_clears_state(self):
        clf = ColumnClassifier()
        list(classify([A(0)], clf))
        clf.reset()
        (second,) = list(classify([A(1)], clf))
        assert second.category is UpdateCategory.NEW_ANNOUNCE

    def test_reachability_introspection(self):
        clf = ColumnClassifier()
        list(classify([A(0, peer=5)], clf))
        assert clf.is_reachable(5, PFX)
        list(classify([W(1, peer=5)], clf))
        assert not clf.is_reachable(5, PFX)
        assert clf.tracked_routes() == 1


class TestChunkedClassify:
    """``classify`` reads its input in fixed-size chunks and carries
    route state from one chunk to the next."""

    def test_labels_across_chunk_boundaries_match_the_oracle(
        self, monkeypatch
    ):
        from repro.verify.reference import reference_classify

        monkeypatch.setattr(classifier_module, "CHUNK_RECORDS", 4)
        other = P("10.0.0.0/8")
        records = [
            A(0), A(1, prefix=other), A(2, peer=2), A(3, ATTRS_B),
            # chunk 2: re-announce, withdraw and re-announce routes
            # whose state was set up in chunk 1
            A(4, ATTRS_A_POLICY), W(5, prefix=other), W(6, peer=2),
            A(7, prefix=other),
            # chunk 3
            W(8), A(9, ATTRS_B), W(10, prefix=other), W(11, prefix=other),
            # a short last chunk
            A(12, peer=2),
        ]
        assert len(records) > 2 * classifier_module.CHUNK_RECORDS
        got = [
            (u.category.name, u.policy_change) for u in classify(records)
        ]
        assert got == reference_classify(records)
        assert [u.record for u in classify(records)] == records

    def test_first_update_after_at_most_one_chunk(self, monkeypatch):
        monkeypatch.setattr(classifier_module, "CHUNK_RECORDS", 8)
        pulled = []

        def unbounded():
            t = 0
            while True:
                pulled.append(t)
                yield A(float(t)) if t % 2 == 0 else W(float(t))
                t += 1

        updates = classify(unbounded())
        first = next(updates)
        assert first.category is UpdateCategory.NEW_ANNOUNCE
        assert len(pulled) <= classifier_module.CHUNK_RECORDS
        second = next(updates)
        assert second.category is UpdateCategory.PLAIN_WITHDRAW
        assert len(pulled) <= classifier_module.CHUNK_RECORDS


class TestTaxonomySets:
    def test_instability_and_pathology_disjoint(self):
        assert not (INSTABILITY_CATEGORIES & PATHOLOGICAL_CATEGORIES)

    def test_instability_membership(self):
        assert UpdateCategory.WADUP.is_instability
        assert UpdateCategory.AADIFF.is_instability
        assert not UpdateCategory.AADUP.is_instability

    def test_pathology_membership(self):
        assert UpdateCategory.WWDUP.is_pathological
        assert UpdateCategory.AADUP.is_pathological
        assert not UpdateCategory.WADIFF.is_pathological

    def test_uncategorized(self):
        assert UpdateCategory.NEW_ANNOUNCE.is_uncategorized
        assert UpdateCategory.PLAIN_WITHDRAW.is_uncategorized

    def test_figure2_excludes_wwdup(self):
        assert UpdateCategory.WWDUP not in FIGURE2_CATEGORIES

    def test_labels_match_paper(self):
        assert UpdateCategory.AADUP.label == "AA Duplicate"
        assert UpdateCategory.WADIFF.label == "WA Different"


# -- property-based: classifier invariants ---------------------------------

events = st.lists(
    st.tuples(
        st.sampled_from(["A1", "A2", "W"]),
        st.integers(1, 3),  # peer id
    ),
    max_size=40,
)


@settings(max_examples=100)
@given(events)
def test_classifier_invariants(seq):
    """Category must be consistent with a simple reachability model."""
    attrs = {"A1": ATTRS_A, "A2": ATTRS_B}
    records = []
    for i, (op, peer) in enumerate(seq):
        if op == "W":
            records.append(W(float(i), peer=peer))
        else:
            records.append(A(float(i), attrs[op], peer=peer))
    reachable = {}
    announced_ever = set()
    for record, update in zip(records, classify(records)):
        key = (record.peer_id, record.prefix)
        cat = update.category
        if record.kind is UpdateKind.WITHDRAW:
            if reachable.get(key):
                assert cat is UpdateCategory.PLAIN_WITHDRAW
            else:
                assert cat is UpdateCategory.WWDUP
            reachable[key] = False
        else:
            if key not in announced_ever:
                assert cat is UpdateCategory.NEW_ANNOUNCE
            elif reachable.get(key):
                assert cat in (UpdateCategory.AADUP, UpdateCategory.AADIFF)
            else:
                assert cat in (UpdateCategory.WADUP, UpdateCategory.WADIFF)
            reachable[key] = True
            announced_ever.add(key)


@settings(max_examples=50)
@given(events)
def test_every_update_gets_exactly_one_category(seq):
    records = []
    for i, (op, peer) in enumerate(seq):
        if op == "W":
            records.append(W(float(i), peer=peer))
        else:
            records.append(A(float(i), ATTRS_A if op == "A1" else ATTRS_B, peer=peer))
    updates = list(classify(records))
    assert len(updates) == len(records)
    for u in updates:
        assert isinstance(u.category, UpdateCategory)
        # Exactly one of the three super-classes.
        flags = [
            u.category.is_instability,
            u.category.is_pathological,
            u.category.is_uncategorized,
        ]
        assert sum(flags) == 1

"""The differential conformance harness (repro.verify.differential).

Two kinds of test: the real tiers must agree with the reference oracle
over large seeded fuzz campaigns (including the adversarial hard-case
generators), and deliberately broken tiers must be *caught* — with the
failure minimized by ddmin shrink into a counterexample small enough
to read (the acceptance bar is ≤ 10 records).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.detection import ColumnDetector
from repro.core.columns import (
    AttributeTable,
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from repro.verify.differential import (
    columnar_labels,
    run_differential,
    shrink_stream,
    stream_digest,
)
from repro.verify.reference import reference_classify
from repro.verify.streams import (
    ADVERSARIAL_GENERATORS,
    fuzz_stream,
)


def assert_ok(report):
    """Assert a differential report is clean; on failure, write each
    (shrunk) counterexample to $DIFFERENTIAL_ARTIFACT_DIR so CI can
    upload them as artifacts."""
    if report.ok:
        return
    artifact_dir = os.environ.get("DIFFERENTIAL_ARTIFACT_DIR")
    if artifact_dir:
        directory = Path(artifact_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for index, mismatch in enumerate(report.mismatches):
            path = directory / (
                f"counterexample-{mismatch.stream_name}-{index:03d}.txt"
            )
            path.write_text(mismatch.describe() + "\n")
    raise AssertionError(
        "\n".join(m.describe() for m in report.mismatches)
    )


def make_streams(n_fuzz, adversarial_seeds):
    streams = [fuzz_stream(seed) for seed in range(n_fuzz)]
    for name in sorted(ADVERSARIAL_GENERATORS):
        streams.extend(
            ADVERSARIAL_GENERATORS[name](seed)
            for seed in range(adversarial_seeds)
        )
    return streams


class TestRealTiersAgree:
    def test_quick_campaign(self):
        # The always-on smoke slice of the fuzz lane.
        report = run_differential(make_streams(40, 5))
        assert_ok(report)
        assert report.streams == 60
        assert report.records > 4000

    @pytest.mark.fuzz
    def test_thousand_stream_campaign(self):
        # The acceptance bar: >= 1000 seeded streams, adversarial
        # generators included, every batching bit-identical to the
        # oracle.
        report = run_differential(make_streams(840, 40), shrink=False)
        assert report.streams == 1000
        assert_ok(report)

    def test_state_digests_agree_across_tiers(self):
        # One batch and the stream's own cuts carry the same state.
        stream = fuzz_stream(123)
        assert stream.boundaries
        _, whole_state = columnar_labels(stream.records)
        _, cut_state = columnar_labels(stream.records, stream.boundaries)
        assert whole_state == cut_state

    def test_digest_matches_reference(self):
        stream = fuzz_stream(7)
        labels, _ = columnar_labels(stream.records)
        expected = reference_classify(stream.records)
        assert labels == expected
        assert stream_digest(stream.records, labels) == stream_digest(
            stream.records, expected
        )


def _broken_column_labels(records, boundaries, table, carry=True):
    """``columnar_labels`` with an injectable table and carry bug."""
    cuts = sorted({b for b in boundaries if 0 < b < len(records)})
    edges = [0, *cuts, len(records)]
    labels = []
    classifier = ColumnClassifier()
    for lo, hi in zip(edges, edges[1:]):
        if not carry:
            classifier = ColumnClassifier()  # state reset per batch
        batch = RecordColumns.from_records(records[lo:hi], attrs=table)
        codes, policy = classifier.classify(batch)
        labels.extend(
            (CATEGORY_OF_CODE[int(code)].name, bool(flag))
            for code, flag in zip(codes, policy)
        )
    return labels, classifier.state_digest()


class NextHopOnlyTable(AttributeTable):
    """An intern table whose forwarding key drops the ASPATH: the
    in-batch forwarding comparison sees next hops only."""

    __slots__ = ()

    @property
    def fwd_ids(self):
        return np.asarray(
            [self[i].next_hop for i in range(len(self))], dtype=np.int64
        )


def broken_forwarding_tier(records, boundaries=()):
    """A columnar tier with a deliberate off-by-one in the forwarding
    tuple: it compares next hops only and ignores ASPATH changes."""
    return _broken_column_labels(records, boundaries, NextHopOnlyTable())


def broken_carry_tier(records, boundaries=()):
    """A columnar tier that forgets cross-batch state: every batch is
    classified by a fresh classifier."""
    return _broken_column_labels(
        records, boundaries, AttributeTable(), carry=False
    )


class TestBrokenTiersAreCaught:
    def test_off_by_one_caught_with_tiny_counterexample(self):
        report = run_differential(
            make_streams(20, 3), column_tier=broken_forwarding_tier
        )
        assert not report.ok
        found = report.mismatches[0]
        assert found.tier.startswith("columnar")
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10  # acceptance bar
        # The shrunk stream still distinguishes the bug on its own.
        broken, _ = broken_forwarding_tier(found.shrunk)
        assert broken != reference_classify(found.shrunk)
        assert "shrunk counterexample" in found.describe()

    def test_missing_carry_caught_with_tiny_counterexample(self):
        streams = [
            ADVERSARIAL_GENERATORS["cross_batch_carry"](seed)
            for seed in range(3)
        ]
        report = run_differential(streams, column_tier=broken_carry_tier)
        assert not report.ok
        found = report.mismatches[0]
        assert found.tier.startswith("columnar")
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10

    def test_clean_tiers_produce_no_mismatch_on_same_streams(self):
        # The same streams that catch the bugs pass with the real tiers
        # (the harness is sensitive, not trigger-happy).
        report = run_differential(make_streams(20, 3))
        assert report.ok


class TestShrink:
    def test_shrink_is_deterministic_and_minimal(self):
        stream = fuzz_stream(5)

        def failing(subset):
            # Fails iff the subset announces prefix 10.0.0.0/24 at
            # least twice from peer 0 (a stand-in property with a known
            # 2-record minimum).
            hits = [
                r for r in subset
                if r.is_announce and r.prefix.network == (10 << 24)
            ]
            return len(hits) >= 2

        assert failing(stream.records)
        first = shrink_stream(stream.records, failing)
        second = shrink_stream(stream.records, failing)
        assert first == second
        assert len(first) == 2
        assert failing(first)

    def test_shrink_keeps_failure_failing(self):
        stream = fuzz_stream(11)

        def failing(subset):
            return sum(1 for r in subset if r.is_withdraw) >= 3

        shrunk = shrink_stream(stream.records, failing)
        assert failing(shrunk)
        assert len(shrunk) == 3


def test_report_summary_counts():
    report = run_differential([fuzz_stream(1), fuzz_stream(2)])
    assert report.streams == 2
    assert "2 streams" in report.summary()
    assert report.summary().endswith("OK")


# -- the detection differential ---------------------------------------------


def make_detection_streams(n_fuzz, adversarial_seeds):
    """Fuzz + adversarial + detection-tier generators: every stream the
    detection differential is held to."""
    from repro.verify.streams import DETECTION_GENERATORS

    streams = make_streams(n_fuzz, adversarial_seeds)
    for name in sorted(DETECTION_GENERATORS):
        streams.extend(
            DETECTION_GENERATORS[name](seed)
            for seed in range(adversarial_seeds)
        )
    return streams


class TestDetectionTiersAgree:
    def test_quick_campaign(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(20, 3), detection_topology()
        )
        assert_ok(report)
        assert report.streams == 44
        assert report.records > 2000

    @pytest.mark.fuzz
    def test_large_campaign(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(200, 25),
            detection_topology(),
            shrink=False,
        )
        assert report.streams == 400
        assert_ok(report)

    def test_topology_free_detection_also_agrees(self):
        from repro.verify.differential import run_detection_differential

        # With no declared topology the path flags are all zero but the
        # MOAS / origin / sub-prefix machinery still must agree.
        report = run_detection_differential(
            make_detection_streams(10, 2), topology=None
        )
        assert_ok(report)

    def test_detection_generators_exercise_every_flag(self):
        from repro.verify.reference import (
            DETECTION_FLAGS,
            reference_detection_counts,
        )
        from repro.verify.streams import detection_topology

        edges = detection_topology().edges()
        totals = {name: 0 for _, name in DETECTION_FLAGS}
        for stream in make_detection_streams(5, 2):
            for name, count in reference_detection_counts(
                stream.records, edges
            ).items():
                totals[name] += count
        assert all(count > 0 for count in totals.values()), totals


class ForgetfulOrigins(dict):
    """A route → origin map whose lookups always miss."""

    def get(self, key, default=None):
        return default


class LeakyMultisetDetector(ColumnDetector):
    """A columnar detector that never retires a peer's old origin on
    re-announcement — origins accumulate and MOAS over-fires."""

    __slots__ = ()

    def __init__(self, topology=None):
        super().__init__(topology)
        self._route_origin = ForgetfulOrigins()  # the bug


def broken_moas_tier(records, boundaries=(), topology=None):
    """The columnar detection tier with a LeakyMultisetDetector."""
    cuts = sorted({b for b in boundaries if 0 < b < len(records)})
    edges = [0, *cuts, len(records)]
    table = AttributeTable()
    classifier = ColumnClassifier()
    detector = LeakyMultisetDetector(topology)
    flags = []
    for lo, hi in zip(edges, edges[1:]):
        batch = RecordColumns.from_records(records[lo:hi], attrs=table)
        codes, _ = classifier.classify(batch)
        flags.extend(detector.detect(batch, codes).tolist())
    return flags, None


class TestBrokenDetectionTiersAreCaught:
    def test_leaky_multiset_caught_and_shrunk(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(10, 2),
            detection_topology(),
            column_tier=broken_moas_tier,
        )
        assert not report.ok
        found = report.mismatches[0]
        assert found.tier.startswith("det-columnar")
        assert found.shrunk is not None
        assert len(found.shrunk) <= 10  # same acceptance bar

    def test_clean_tiers_pass_the_same_streams(self):
        from repro.verify.differential import run_detection_differential
        from repro.verify.streams import detection_topology

        report = run_detection_differential(
            make_detection_streams(10, 2), detection_topology()
        )
        assert report.ok

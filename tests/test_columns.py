"""Columnar tier equivalence tests.

The dependency-free oracle (:mod:`repro.verify.reference`) is the
reference implementation of the paper's taxonomy; the columnar tier
must reproduce it bit for bit.  These tests assert record-for-record
agreement on randomized mixed streams (including cross-batch state
carryover), lossless conversion, and equality of every columnar
aggregation (the Figure 6–8 inputs) with its oracle.
"""

import itertools
import random

import numpy as np
import pytest

from repro.analysis.distribution import daily_cdf
from repro.analysis.interarrival import (
    histogram_counts,
    histogram_proportions,
    interarrival_columns,
    proportions_from_counts,
)
from repro.analysis.timeseries import bin_records
from repro.bgp.attributes import AsPath, PathAttributes
from repro.collector.record import UpdateKind, UpdateRecord
from repro.core.columns import (
    NO_ATTR,
    AttributeTable,
    ColumnClassifier,
    RecordColumns,
    classify_columns,
    decode_categories,
)
from repro.core.instability import (
    CategoryCounts,
    counts_by_peer_columns,
    counts_by_prefix_as_columns,
    counts_by_prefix_columns,
)
from repro.core.taxonomy import UpdateCategory
from repro.net.prefix import Prefix
from repro.verify.reference import (
    reference_classify,
    reference_counts,
    reference_counts_by_peer,
    reference_counts_by_prefix,
    reference_counts_by_prefix_as,
    reference_interarrival_histogram,
)
from repro.verify.streams import (
    ADVERSARIAL_GENERATORS,
    detection_subprefix_overlap,
    fuzz_stream,
)
from repro.workloads.generator import TraceGenerator

#: A small attribute vocabulary exercising every comparison outcome:
#: two distinct forwarding tuples, plus MED-only variants of each
#: (same forwarding, different full bundle — the policy-change case).
_PATH_A = AsPath((701, 3561))
_PATH_B = AsPath((1239, 3561))
ATTR_POOL = tuple(
    PathAttributes(as_path=path, next_hop=hop, med=med)
    for path, hop in ((_PATH_A, 1), (_PATH_B, 2))
    for med in (None, 10, 20)
)


def random_stream(rng, n, n_peers=3, n_prefixes=5):
    """A mixed announce/withdraw stream over a small route universe,
    dense enough that every taxonomy transition occurs."""
    prefixes = [Prefix((10 << 24) + (i << 8), 24) for i in range(n_prefixes)]
    records = []
    for i in range(n):
        peer = rng.randrange(n_peers)
        prefix = rng.choice(prefixes)
        if rng.random() < 0.55:
            records.append(
                UpdateRecord(
                    float(i), peer + 1, 700 + peer, prefix,
                    UpdateKind.ANNOUNCE, rng.choice(ATTR_POOL),
                )
            )
        else:
            records.append(
                UpdateRecord(
                    float(i), peer + 1, 700 + peer, prefix,
                    UpdateKind.WITHDRAW,
                )
            )
    return records


def assert_matches_reference(batches):
    """Classify ``batches`` on the columnar tier (carrying state
    across batches) and compare every record's category and policy
    flag with the oracle's labels for the concatenated stream."""
    expected = reference_classify(
        [record for batch in batches for record in batch]
    )
    columnar = ColumnClassifier()
    table = AttributeTable()
    got = []
    for batch in batches:
        columns = RecordColumns.from_records(batch, table)
        codes, policy = columnar.classify(columns)
        got.extend(
            (category.name, bool(flag))
            for category, flag in zip(decode_categories(codes), policy)
        )
    assert len(got) == len(expected)
    for i, (exp, act) in enumerate(zip(expected, got)):
        assert act == exp, i


class TestClassifyEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_single_batch(self, seed):
        rng = random.Random(seed)
        assert_matches_reference([random_stream(rng, 600)])

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_cross_batch_carryover(self, seed):
        """Day-by-day classification must equal one continuous stream:
        reachability, ever-announced and last-attribute state all carry
        across batch boundaries."""
        rng = random.Random(100 + seed)
        batches = [
            random_stream(rng, rng.randrange(1, 250)) for _ in range(5)
        ]
        assert_matches_reference(batches)

    def test_tiny_batches(self):
        """One-record batches force every comparison through the carry
        path."""
        rng = random.Random(42)
        stream = random_stream(rng, 60)
        assert_matches_reference([[r] for r in stream])

    def test_empty_batch(self):
        codes, policy = classify_columns(RecordColumns.empty())
        assert len(codes) == 0 and len(policy) == 0

    def test_generated_day_stream(self):
        """The statistical generator's output (the real workload)."""
        generator = TraceGenerator(seed=5)
        records = generator.day_records(3, pair_fraction=0.02)
        assert len(records) > 100
        assert_matches_reference([records])

    def test_state_introspection_matches(self):
        """A route is reachable iff its last record announced it; every
        (peer, prefix) pair seen is tracked."""
        rng = random.Random(7)
        stream = random_stream(rng, 300)
        last_kind = {}
        for record in stream:
            last_kind[(record.peer_id, record.prefix)] = record.kind
        columnar = ColumnClassifier()
        columnar.classify(RecordColumns.from_records(stream))
        assert columnar.tracked_routes() == len(last_kind)
        for (peer_id, prefix), kind in last_kind.items():
            assert columnar.is_reachable(peer_id, prefix) == (
                kind is UpdateKind.ANNOUNCE
            )


class TestConversions:
    def test_roundtrip_lossless(self):
        rng = random.Random(1)
        stream = random_stream(rng, 400)
        columns = RecordColumns.from_records(stream)
        assert columns.to_records() == stream
        assert list(columns) == stream
        assert columns.record(17) == stream[17]
        assert columns.prefix(17) == stream[17].prefix

    def test_withdrawals_use_sentinel(self):
        rng = random.Random(2)
        columns = RecordColumns.from_records(random_stream(rng, 100))
        withdraws = columns.kind == int(UpdateKind.WITHDRAW)
        assert (columns.attr_id[withdraws] == NO_ATTR).all()
        assert (columns.attr_id[~withdraws] < len(columns.attrs)).all()

    def test_concat_remaps_foreign_tables(self):
        rng = random.Random(3)
        a = RecordColumns.from_records(random_stream(rng, 150))
        b = RecordColumns.from_records(random_stream(rng, 150))
        merged = RecordColumns.concat([a, b])
        assert merged.to_records() == a.to_records() + b.to_records()

    def test_select_and_sort(self):
        rng = random.Random(4)
        stream = random_stream(rng, 200)
        columns = RecordColumns.from_records(stream)
        odd = columns.select(np.arange(len(columns)) % 2 == 1)
        assert odd.to_records() == stream[1::2]
        shuffled = columns.select(
            np.asarray(rng.sample(range(len(columns)), len(columns)))
        )
        resorted = shuffled.sorted_by_time()
        assert [r.time for r in resorted] == sorted(r.time for r in stream)

    def test_decode_categories(self):
        assert decode_categories(
            np.array([c.value for c in UpdateCategory])
        ) == list(UpdateCategory)


class TestGeneratorColumns:
    def test_day_columns_equals_day_records(self):
        """Both materializations consume identical RNG draws, so the
        streams match record for record, across consecutive days."""
        g_rec = TraceGenerator(seed=9)
        g_col = TraceGenerator(seed=9)
        table = AttributeTable()
        for day in (20, 21):
            records = g_rec.day_records(day, pair_fraction=0.03)
            columns = g_col.day_columns(day, pair_fraction=0.03, attrs=table)
            assert columns.to_records() == records

    def test_day_columns_shares_attribute_table(self):
        generator = TraceGenerator(seed=9)
        table = AttributeTable()
        a = generator.day_columns(20, pair_fraction=0.03, attrs=table)
        b = generator.day_columns(21, pair_fraction=0.03, attrs=table)
        assert a.attrs is table and b.attrs is table


def _oracle_corpus():
    """(name, records) streams the columnar analyses are held to the
    oracle on: fuzz streams (with exact time ties), the adversarial
    constructions, nested prefixes that share a network address
    (a /16 cover, /20s and /24s), and shuffled copies whose records are
    out of time order (both tiers classify in stream order; the gap
    and count aggregations must not depend on it)."""
    corpus = [
        (f"fuzz{seed}", fuzz_stream(seed, n_records=240).records)
        for seed in range(6)
    ]
    corpus += [
        (name, generator(3).records)
        for name, generator in ADVERSARIAL_GENERATORS.items()
    ]
    corpus += [
        (f"nested{seed}", detection_subprefix_overlap(seed).records)
        for seed in range(2)
    ]
    for name, records in corpus[:3] + corpus[-2:]:
        shuffled = list(records)
        random.Random(name).shuffle(shuffled)
        corpus.append((f"{name}-shuffled", shuffled))
    corpus.append(("mixed", random_stream(random.Random(11), 800)))
    return corpus


ORACLE_CORPUS = _oracle_corpus()


def _classified(records):
    columns = RecordColumns.from_records(records)
    codes, policy = classify_columns(columns)
    return columns, codes, policy


def _pair_keys(per_pair):
    """Columnar ``{(Prefix, asn): n}`` in the oracle's key shape."""
    return {
        (prefix.network, prefix.length, asn): count
        for (prefix, asn), count in per_pair.items()
    }


def _oracle_cdf(per_pair):
    """Figure 7's curve the obvious way: for each distinct pair count
    k, the share of events from pairs with at most k events."""
    counts = list(per_pair.values())
    total = sum(counts)
    thresholds = sorted(set(counts))
    cumulative = [
        sum(c for c in counts if c <= k) / total for k in thresholds
    ]
    return thresholds, cumulative, total, max(counts)


class TestColumnarAnalyses:
    """Every columnar aggregation against :mod:`repro.verify.reference`
    over :data:`ORACLE_CORPUS`."""

    def test_category_counts_from_codes(self):
        for name, records in ORACLE_CORPUS:
            _, codes, policy = _classified(records)
            result = CategoryCounts.from_codes(codes, policy)
            got = dict(
                result.nonzero_dict(), policy_changes=result.policy_changes
            )
            assert got == reference_counts(records), name

    def test_counts_by_peer_columns(self):
        for name, records in ORACLE_CORPUS:
            columns, codes, policy = _classified(records)
            result = counts_by_peer_columns(columns, codes, policy)
            got = {
                asn: dict(
                    counts.nonzero_dict(),
                    policy_changes=counts.policy_changes,
                )
                for asn, counts in result.items()
            }
            assert got == reference_counts_by_peer(records), name

    @pytest.mark.parametrize("category", [None, *UpdateCategory])
    def test_counts_by_prefix_as_columns(self, category):
        name_of = category.name if category is not None else None
        for name, records in ORACLE_CORPUS:
            columns, codes, _ = _classified(records)
            got = counts_by_prefix_as_columns(columns, codes, category)
            expected = reference_counts_by_prefix_as(records, name_of)
            assert _pair_keys(got) == expected, name

    @pytest.mark.parametrize(
        "category", [None, UpdateCategory.AADUP, UpdateCategory.WWDUP]
    )
    def test_counts_by_prefix_columns(self, category):
        name_of = category.name if category is not None else None
        for name, records in ORACLE_CORPUS:
            columns, codes, _ = _classified(records)
            got = {
                f"{prefix.network}/{prefix.length}": count
                for prefix, count in counts_by_prefix_columns(
                    columns, codes, category
                ).items()
            }
            expected = {}
            for (net, plen, _), count in reference_counts_by_prefix_as(
                records, name_of
            ).items():
                key = f"{net}/{plen}"
                expected[key] = expected.get(key, 0) + count
            assert got == expected, name
            if category is None:
                assert got == reference_counts_by_prefix(records), name

    def test_daily_cdf_columns(self):
        for name, records in ORACLE_CORPUS:
            columns, codes, _ = _classified(records)
            for category, by_prefix_only in itertools.product(
                UpdateCategory, (False, True)
            ):
                curve = daily_cdf(
                    (columns, codes), category, 7, by_prefix_only
                )
                per_pair = reference_counts_by_prefix_as(
                    records, category.name
                )
                if by_prefix_only:
                    per_prefix = {}
                    for (net, plen, _), count in per_pair.items():
                        per_prefix[net, plen] = (
                            per_prefix.get((net, plen), 0) + count
                        )
                    per_pair = per_prefix
                if not per_pair:
                    assert curve is None, (name, category)
                    continue
                assert curve.day == 7 and curve.category is category
                assert (
                    curve.thresholds,
                    curve.cumulative,
                    curve.total_events,
                    curve.max_pair_events,
                ) == _oracle_cdf(per_pair), (name, category)

    def test_interarrival_columns(self):
        for name, records in ORACLE_CORPUS:
            columns, codes, _ = _classified(records)
            for category in (None, *UpdateCategory):
                name_of = category.name if category is not None else None
                gaps = interarrival_columns(columns, codes, category)
                expected = reference_interarrival_histogram(records, name_of)
                assert histogram_counts(gaps).tolist() == expected, (
                    name, category,
                )
                assert histogram_proportions(gaps) == (
                    proportions_from_counts(expected)
                )

    def test_category_filter_needs_codes(self):
        """Filtering by category without the codes is a caller error,
        not an empty result."""
        generator = TraceGenerator(seed=5)
        columns = generator.day_columns(3, pair_fraction=0.02)
        codes, _ = classify_columns(columns)
        wwdup = UpdateCategory.WWDUP
        assert counts_by_prefix_as_columns(columns, codes, wwdup)
        for grouping in (
            counts_by_prefix_as_columns,
            counts_by_prefix_columns,
            interarrival_columns,
        ):
            with pytest.raises(ValueError):
                grouping(columns, category=wwdup)
            # Without a category the codes are not needed.
            assert len(grouping(columns)) > 0

    def test_bin_records_columnar(self):
        stream = random_stream(random.Random(11), 800)
        columns = RecordColumns.from_records(stream)
        streaming = bin_records(stream, bin_width=60.0)
        assert (bin_records(columns, bin_width=60.0) == streaming).all()
        times = np.array([r.time for r in stream])
        assert (bin_records(times, bin_width=60.0) == streaming).all()

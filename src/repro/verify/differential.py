"""The differential runner: the columnar tier against the oracle.

:func:`run_differential` pipes a stream through both independent
implementations of the paper's semantics —

1. the **reference oracle** (:mod:`repro.verify.reference`): naive
   dict-of-lists Python, the ground truth;
2. the **columnar tier**
   (:class:`~repro.core.columns.ColumnClassifier`), fed as batches cut
   at several boundary sets (one batch, the stream's own adversarial
   boundaries, a midpoint split) with one shared
   :class:`~repro.core.columns.AttributeTable` across batches —

and asserts they agree on every per-record label, on the category
counts and on the stream digest, and that every cut run carries
forward the same per-route state digest as the one-batch run.  Any
disagreement is minimized with delta-debugging shrink
(:func:`shrink_stream`) into a counterexample small enough to read.

The tier callable is injectable, so a test can hand in a broken
classifier and watch the harness catch and shrink it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.detection import (
    AsRelationships,
    ColumnDetector,
    detection_digest,
)
from ..core.columns import (
    AttributeTable,
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
)
from .reference import (
    DETECTION_FLAGS,
    reference_classify,
    reference_counts,
    reference_detect,
    reference_detection_counts,
    reference_detection_digest,
)
from .streams import FuzzStream

__all__ = [
    "DifferentialMismatch",
    "DifferentialReport",
    "run_differential",
    "run_detection_differential",
    "shrink_stream",
    "stream_digest",
    "columnar_labels",
    "columnar_detection",
]

#: A tier's verdict on a stream: per-record ``(category name, policy)``
#: labels plus the classifier's end-of-stream state digest (None for
#: an injected stand-in that opts out of the state comparison).
Labels = List[Tuple[str, bool]]
TierRun = Tuple[Labels, Optional[str]]
ColumnTier = Callable[[Sequence, Sequence[int]], TierRun]


def stream_digest(records: Sequence, labels: Labels) -> str:
    """SHA-256 over a labeled stream; the same rendering as
    :func:`~repro.verify.reference.reference_digest`, so any tier's
    labels can be digested and compared against the oracle's."""
    digest = hashlib.sha256()
    for record, (category, policy) in zip(records, labels):
        line = (
            f"{record.time!r}|{record.peer_id}|{record.peer_asn}"
            f"|{record.prefix.network}/{record.prefix.length}"
            f"|{'A' if record.is_announce else 'W'}"
            f"|{category}|{int(policy)}\n"
        )
        digest.update(line.encode("ascii"))
    return digest.hexdigest()


def columnar_labels(
    records: Sequence, boundaries: Sequence[int] = ()
) -> TierRun:
    """Run the columnar tier over batches cut at ``boundaries``.

    One AttributeTable is shared by all batches and one
    ColumnClassifier carries state across them — exactly how the
    campaign layer feeds a run day by day.
    """
    classifier = ColumnClassifier()
    labels: Labels = []
    for batch in _cut_batches(records, boundaries):
        codes, policy = classifier.classify(batch)
        labels.extend(
            (CATEGORY_OF_CODE[int(code)].name, bool(flag))
            for code, flag in zip(codes, policy)
        )
    return labels, classifier.state_digest()


def _cut_batches(
    records: Sequence, boundaries: Sequence[int]
) -> List[RecordColumns]:
    """``records`` as columnar batches cut at ``boundaries`` (row
    indices), all interning into one shared AttributeTable."""
    cuts = sorted({b for b in boundaries if 0 < b < len(records)})
    edges = [0, *cuts, len(records)]
    table = AttributeTable()
    return [
        RecordColumns.from_records(records[lo:hi], attrs=table)
        for lo, hi in zip(edges, edges[1:])
    ]


def _batchings(
    n: int, boundaries: Sequence[int]
) -> List[Tuple[str, Tuple[int, ...]]]:
    """The boundary sets a stream is columnar-classified at."""
    batchings: List[Tuple[str, Tuple[int, ...]]] = [("whole", ())]
    cuts = tuple(sorted({b for b in boundaries if 0 < b < n}))
    if cuts:
        batchings.append(("given", cuts))
    if n > 1 and (n // 2,) not in (c for _, c in batchings):
        batchings.append(("midpoint", (n // 2,)))
    return batchings


@dataclass
class DifferentialMismatch:
    """One tier disagreeing with the reference oracle, minimized.

    ``kind`` is ``"label"`` (a per-record category/policy divergence),
    ``"digest"`` (stream digests differ — only possible with a
    rendering bug, since labels already compared equal), ``"counts"``
    (aggregate tallies differ), or ``"state"`` (a cut run ended with
    different carried state than the one-batch run).
    """

    stream_name: str
    seed: int
    tier: str
    kind: str
    index: Optional[int]
    expected: object
    actual: object
    record: Optional[str] = None
    shrunk: Optional[List] = None  # minimized failing record list

    def describe(self) -> str:
        """A human-readable counterexample report (what CI uploads)."""
        lines = [
            f"stream={self.stream_name} seed={self.seed} "
            f"tier={self.tier} kind={self.kind}",
            f"expected: {self.expected!r}",
            f"actual:   {self.actual!r}",
        ]
        if self.index is not None:
            lines.append(f"first divergent record index: {self.index}")
        if self.record is not None:
            lines.append(f"record: {self.record}")
        if self.shrunk is not None:
            lines.append(f"shrunk counterexample ({len(self.shrunk)} records):")
            expected = reference_classify(self.shrunk)
            for position, record in enumerate(self.shrunk):
                lines.append(
                    f"  [{position}] t={record.time!r} "
                    f"peer={record.peer_id} "
                    f"prefix={record.prefix.network}/{record.prefix.length} "
                    f"{'A' if record.is_announce else 'W'} "
                    f"→ {expected[position][0]}"
                )
        return "\n".join(lines)


@dataclass
class DifferentialReport:
    """The outcome of a differential run over many streams."""

    streams: int = 0
    records: int = 0
    mismatches: List[DifferentialMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.mismatches)} MISMATCH(ES)"
        return (
            f"differential: {self.streams} streams, "
            f"{self.records} records — {status}"
        )


def _first_mismatch(
    stream: FuzzStream, column_tier: ColumnTier
) -> Optional[DifferentialMismatch]:
    """Check one stream against the oracle; None when every batching
    agrees with it."""
    records = stream.records
    expected = reference_classify(records)
    expected_counts = reference_counts(records)
    expected_digest = stream_digest(records, expected)

    runs: List[Tuple[str, Labels, Optional[str]]] = []
    for batching_name, cuts in _batchings(len(records), stream.boundaries):
        labels, state = column_tier(records, cuts)
        runs.append((f"columnar[{batching_name}]", labels, state))

    def mismatch(tier, kind, index, exp, act) -> DifferentialMismatch:
        rendered = None
        if index is not None:
            r = records[index]
            rendered = (
                f"t={r.time!r} peer={r.peer_id} "
                f"prefix={r.prefix.network}/{r.prefix.length} "
                f"{'A' if r.is_announce else 'W'}"
            )
        return DifferentialMismatch(
            stream_name=stream.name,
            seed=stream.seed,
            tier=tier,
            kind=kind,
            index=index,
            expected=exp,
            actual=act,
            record=rendered,
        )

    for tier, labels, _ in runs:
        if len(labels) != len(expected):
            return mismatch(
                tier, "label", None, len(expected), len(labels)
            )
        for index, (exp, act) in enumerate(zip(expected, labels)):
            if exp != act:
                return mismatch(tier, "label", index, exp, act)
        counts: Dict[str, int] = {}
        policy_changes = 0
        for category, policy in labels:
            counts[category] = counts.get(category, 0) + 1
            policy_changes += int(policy)
        tier_counts = {name: counts[name] for name in sorted(counts)}
        tier_counts["policy_changes"] = policy_changes
        if tier_counts != expected_counts:
            return mismatch(
                tier, "counts", None, expected_counts, tier_counts
            )
        digest = stream_digest(records, labels)
        if digest != expected_digest:
            return mismatch(tier, "digest", None, expected_digest, digest)

    # Every batching must also carry the same state into a
    # hypothetical next batch as the one-batch run.  Runs without a
    # state digest (an injected stand-in returning None) opt out.
    state_digests = [
        (tier, state) for tier, _, state in runs if state is not None
    ]
    if len(state_digests) >= 2:
        reference_tier, reference_state = state_digests[0]
        for tier, state in state_digests[1:]:
            if state != reference_state:
                return mismatch(
                    f"{tier} vs {reference_tier}",
                    "state", None, reference_state, state,
                )
    return None


def shrink_stream(
    records: Sequence,
    failing: Callable[[List], bool],
) -> List:
    """Delta-debugging (ddmin) minimization of a failing record list.

    ``failing(subset)`` must deterministically return True for the
    full list; the result is a sub-list that still fails and from
    which no single chunk at the final granularity can be removed.
    A final one-by-one pass polishes the result to 1-minimality.
    """
    current = list(records)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[i:i + chunk] for i in range(0, len(current), chunk)
        ]
        reduced = False
        for subset in subsets:
            if len(subset) < len(current) and failing(subset):
                current = subset
                granularity = 2
                reduced = True
                break
        if reduced:
            continue
        for skip in range(len(subsets)):
            complement = [
                record
                for index, subset in enumerate(subsets)
                if index != skip
                for record in subset
            ]
            if len(complement) < len(current) and failing(complement):
                current = complement
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if reduced:
            continue
        if granularity >= len(current):
            break
        granularity = min(len(current), granularity * 2)
    # 1-minimality polish: drop single records while any drop fails.
    index = 0
    while index < len(current) and len(current) > 1:
        candidate = current[:index] + current[index + 1:]
        if failing(candidate):
            current = candidate
        else:
            index += 1
    return current


def _shrink_predicate(column_tier: ColumnTier) -> Callable[[List], bool]:
    """Does any batching disagree with the oracle on this record list?

    Batch boundaries do not survive subsetting, so the shrunk stream
    is re-checked at every possible single cut — exhaustive but cheap
    at counterexample sizes, and it keeps cross-batch bugs failing as
    the list shrinks.
    """

    def failing(subset: List) -> bool:
        cuts = tuple(range(1, len(subset)))
        probe = FuzzStream("shrink", 0, list(subset), list(cuts))
        return _first_mismatch(probe, column_tier) is not None

    return failing


def run_differential(
    streams: Iterable[FuzzStream],
    column_tier: ColumnTier = columnar_labels,
    shrink: bool = True,
    stop_on_first: bool = False,
) -> DifferentialReport:
    """Check every stream against the oracle; see module docstring.

    ``column_tier`` defaults to the real implementation; tests inject
    broken ones to prove the harness catches and minimizes them.  With ``shrink``, each mismatch
    carries a ddmin-minimized counterexample.
    """
    report = DifferentialReport()
    for stream in streams:
        report.streams += 1
        report.records += len(stream.records)
        found = _first_mismatch(stream, column_tier)
        if found is None:
            continue
        if shrink:
            predicate = _shrink_predicate(column_tier)
            if predicate(stream.records):
                found.shrunk = shrink_stream(stream.records, predicate)
        report.mismatches.append(found)
        if stop_on_first:
            break
    return report


# -- the detection differential: adversarial flags vs the oracle ------------

#: A detection tier's verdict: per-record flag bitmasks plus the
#: detector's end-of-stream state digest (None for injected stand-ins
#: that opt out of the state comparison).
Flags = List[int]
DetectionRun = Tuple[Flags, Optional[str]]
ColumnDetectionTier = Callable[
    [Sequence, Sequence[int], Optional[AsRelationships]], DetectionRun
]


def columnar_detection(
    records: Sequence,
    boundaries: Sequence[int] = (),
    topology: Optional[AsRelationships] = None,
) -> DetectionRun:
    """Run the columnar detection tier over batches cut at
    ``boundaries``, with one classifier and one detector carrying
    state across batches."""
    classifier = ColumnClassifier()
    detector = ColumnDetector(topology)
    flags: Flags = []
    for batch in _cut_batches(records, boundaries):
        codes, _ = classifier.classify(batch)
        flags.extend(detector.detect(batch, codes).tolist())
    return flags, detector.state_digest()


def _first_detection_mismatch(
    stream: FuzzStream,
    topology: Optional[AsRelationships],
    column_tier: ColumnDetectionTier,
) -> Optional[DifferentialMismatch]:
    """Check one stream's detection flags against the oracle."""
    records = stream.records
    edges = topology.edges() if topology is not None else None
    expected = reference_detect(records, edges)
    expected_counts = reference_detection_counts(records, edges)
    expected_digest = reference_detection_digest(records, edges)

    runs: List[Tuple[str, Flags, Optional[str]]] = []
    for batching_name, cuts in _batchings(len(records), stream.boundaries):
        flags, state = column_tier(records, cuts, topology)
        runs.append((f"det-columnar[{batching_name}]", flags, state))

    def mismatch(tier, kind, index, exp, act) -> DifferentialMismatch:
        rendered = None
        if index is not None:
            r = records[index]
            rendered = (
                f"t={r.time!r} peer={r.peer_id} "
                f"prefix={r.prefix.network}/{r.prefix.length} "
                f"{'A' if r.is_announce else 'W'}"
            )
        return DifferentialMismatch(
            stream_name=stream.name,
            seed=stream.seed,
            tier=tier,
            kind=kind,
            index=index,
            expected=exp,
            actual=act,
            record=rendered,
        )

    for tier, flags, _ in runs:
        if len(flags) != len(expected):
            return mismatch(tier, "flags", None, len(expected), len(flags))
        for index, (exp, act) in enumerate(zip(expected, flags)):
            if int(exp) != int(act):
                return mismatch(tier, "flags", index, exp, act)
        tier_counts = {
            name: sum(1 for f in flags if int(f) & bit)
            for bit, name in DETECTION_FLAGS
        }
        if tier_counts != expected_counts:
            return mismatch(tier, "counts", None, expected_counts, tier_counts)
        digest = detection_digest(records, flags)
        if digest != expected_digest:
            return mismatch(tier, "digest", None, expected_digest, digest)

    state_digests = [
        (tier, state) for tier, _, state in runs if state is not None
    ]
    if len(state_digests) >= 2:
        reference_tier, reference_state = state_digests[0]
        for tier, state in state_digests[1:]:
            if state != reference_state:
                return mismatch(
                    f"{tier} vs {reference_tier}",
                    "state", None, reference_state, state,
                )
    return None


def _detection_shrink_predicate(
    topology: Optional[AsRelationships],
    column_tier: ColumnDetectionTier,
) -> Callable[[List], bool]:
    """Does any detection batching disagree with the oracle on this
    list?

    As in :func:`_shrink_predicate`, the shrunk stream is re-checked at
    every possible single batch cut so cross-batch detection bugs keep
    failing while the list shrinks.
    """

    def failing(subset: List) -> bool:
        cuts = tuple(range(1, len(subset)))
        probe = FuzzStream("shrink", 0, list(subset), list(cuts))
        return (
            _first_detection_mismatch(probe, topology, column_tier)
            is not None
        )

    return failing


def run_detection_differential(
    streams: Iterable[FuzzStream],
    topology: Optional[AsRelationships] = None,
    column_tier: ColumnDetectionTier = columnar_detection,
    shrink: bool = True,
    stop_on_first: bool = False,
) -> DifferentialReport:
    """The detection analogue of :func:`run_differential`.

    Pipes every stream through
    :class:`~repro.analysis.detection.ColumnDetector` (at several batch
    cuts, one detector carrying state across batches) and the
    dependency-free :func:`~repro.verify.reference.reference_detect`
    oracle, and asserts identical per-record flag bitmasks, per-flag
    counts and detection digests, and that every cut run carries the
    one-batch run's state digest.  Mismatches are ddmin-minimized
    exactly like the classifier differential.
    """
    report = DifferentialReport()
    for stream in streams:
        report.streams += 1
        report.records += len(stream.records)
        found = _first_detection_mismatch(stream, topology, column_tier)
        if found is None:
            continue
        if shrink:
            predicate = _detection_shrink_predicate(topology, column_tier)
            if predicate(stream.records):
                found.shrunk = shrink_stream(stream.records, predicate)
        report.mismatches.append(found)
        if stop_on_first:
            break
    return report

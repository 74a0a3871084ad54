"""Classification of update records into the paper's taxonomy.

:func:`classify` labels a time-ordered stream of
:class:`~repro.collector.record.UpdateRecord` with
:class:`~repro.core.taxonomy.UpdateCategory` values.  The labelling
itself is the columnar tier's
(:class:`~repro.core.columns.ColumnClassifier`), which tracks, for
every ``(peer_id, prefix)`` pair:

- whether the route is currently *reachable* via that peer, and
- the last announced attributes (kept even across withdrawals, so a
  re-announcement can be recognized as a WADup vs a WADiff).

A duplicate is "the receipt of two or more updates with identical
(Prefix, NextHop, ASPATH) tuple information" (§4.1); announcements that
repeat the forwarding tuple but alter other attributes are flagged
``policy_change`` — the paper's *policy fluctuation*.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Tuple

from ..collector.record import UpdateRecord
from ..net.prefix import Prefix
from .columns import (
    CATEGORY_OF_CODE,
    ColumnClassifier,
    RecordColumns,
    route_state_digest,
)
from .taxonomy import UpdateCategory

__all__ = [
    "ClassifiedUpdate",
    "classify",
    "route_state_digest",
]

#: Records :func:`classify` pulls from its input per columnar batch —
#: the bound on how far it reads ahead of what it has yielded.
CHUNK_RECORDS = 65536


@dataclass(frozen=True, slots=True)
class ClassifiedUpdate:
    """A record plus its taxonomy label.

    ``policy_change`` is True for AADUP events whose non-forwarding
    attributes (MED, communities, ...) changed — policy fluctuation
    rather than a pure pathological duplicate.
    """

    record: UpdateRecord
    category: UpdateCategory
    policy_change: bool = False

    # Convenience pass-throughs used heavily by the analyses.
    @property
    def time(self) -> float:
        return self.record.time

    @property
    def prefix(self) -> Prefix:
        return self.record.prefix

    @property
    def peer_asn(self) -> int:
        return self.record.peer_asn

    @property
    def peer_id(self) -> int:
        return self.record.peer_id

    @property
    def prefix_as(self) -> Tuple[Prefix, int]:
        return self.record.prefix_as


def classify(
    records: Iterable[UpdateRecord],
    classifier: Optional[ColumnClassifier] = None,
) -> Iterator[ClassifiedUpdate]:
    """Classify a record stream (assumed time-ordered), lazily.

    The stream is read :data:`CHUNK_RECORDS` records at a time; each
    chunk is labelled as one columnar batch, so memory stays bounded
    however long the stream.  Pass an existing ``classifier`` to
    continue from prior state — e.g. when iterating a
    :class:`~repro.collector.store.DayStore` day by day so
    cross-midnight sequences classify correctly.
    """
    classifier = classifier if classifier is not None else ColumnClassifier()
    source = iter(records)
    while True:
        chunk = list(islice(source, CHUNK_RECORDS))
        if not chunk:
            return
        codes, policy = classifier.classify(RecordColumns.from_records(chunk))
        for record, code, flag in zip(chunk, codes.tolist(), policy.tolist()):
            yield ClassifiedUpdate(record, CATEGORY_OF_CODE[code], flag)

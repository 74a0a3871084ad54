"""Update-log sinks.

A *sink* is anywhere the simulator's route servers write observed
updates.  Two sinks are provided:

- :class:`MemoryLog` — in-process list, the default for tests and
  short simulations.
- :class:`CountingLog` — keeps only aggregate counters (per peer, per
  kind), for simulations where record retention would dominate memory.

Both implement ``append(record)`` / ``extend(records)``.  Archiving a
stream to disk is the codecs' job: :func:`repro.collector.mrt.write_records`
(the house format the golden trace pins) or
:func:`repro.collector.mrt_rfc.write_bgp4mp` (RFC 6396).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List

from .record import UpdateKind, UpdateRecord

__all__ = ["MemoryLog", "CountingLog"]


class MemoryLog:
    """An in-memory update log (list-backed)."""

    def __init__(self) -> None:
        self.records: List[UpdateRecord] = []

    def append(self, record: UpdateRecord) -> None:
        self.records.append(record)

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        self.records.extend(records)

    def __iter__(self) -> Iterator[UpdateRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def sorted_by_time(self) -> List[UpdateRecord]:
        return sorted(self.records, key=lambda r: r.time)

    def clear(self) -> None:
        self.records.clear()


class CountingLog:
    """Aggregate-only sink: per-peer-AS announce/withdraw counters plus
    distinct-prefix tracking.  Enough to produce Table-1-style rows
    without retaining the record stream."""

    def __init__(self) -> None:
        self.announces: Counter = Counter()
        self.withdraws: Counter = Counter()
        self._prefixes: Dict[int, set] = {}
        self.total = 0

    def append(self, record: UpdateRecord) -> None:
        asn = record.peer_asn
        if record.kind is UpdateKind.ANNOUNCE:
            self.announces[asn] += 1
        else:
            self.withdraws[asn] += 1
        self._prefixes.setdefault(asn, set()).add(record.prefix)
        self.total += 1

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        for record in records:
            self.append(record)

    def unique_prefixes(self, asn: int) -> int:
        return len(self._prefixes.get(asn, ()))

    def peer_asns(self) -> List[int]:
        return sorted(set(self.announces) | set(self.withdraws))

    def row(self, asn: int) -> Dict[str, int]:
        """A Table-1 row for one peer AS."""
        return {
            "announce": self.announces.get(asn, 0),
            "withdraw": self.withdraws.get(asn, 0),
            "unique": self.unique_prefixes(asn),
        }

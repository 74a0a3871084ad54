"""Per-day partitioning of update streams.

The paper's fine-grained figures are all *per-day* statistics drawn
over a month (one CDF line per day in Figure 7, one scatter point per
peer per day in Figure 6, one box per bin over days in Figure 8).
:class:`DayStore` partitions a record stream into simulated days and
exposes per-day iteration, which those analyses build on.

Day boundaries come from the simulation calendar: day *n* spans
``[n * SECONDS_PER_DAY, (n+1) * SECONDS_PER_DAY)`` from the epoch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Tuple

from .record import UpdateRecord

__all__ = [
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_WEEK",
    "day_of",
    "DayStore",
]

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


def day_of(time: float) -> int:
    """The simulated day index containing ``time``."""
    return int(time // SECONDS_PER_DAY)


class DayStore:
    """Update records partitioned by simulated day.

    Also tracks *coverage*: which fraction of each day's ten-minute
    bins saw any data.  The paper excludes days with under 80 percent
    collection coverage from Figure 9; :meth:`well_covered_days`
    reproduces that filter (coverage here means the generator/simulator
    actually produced data for the bin — collection outages are modelled
    by the incident machinery marking bins as lost).
    """

    def __init__(self) -> None:
        self._days: Dict[int, List[UpdateRecord]] = defaultdict(list)
        self._lost_bins: Dict[int, set] = defaultdict(set)

    # -- ingestion --------------------------------------------------------

    def add(self, record: UpdateRecord) -> None:
        self._days[day_of(record.time)].append(record)

    def extend(self, records: Iterable[UpdateRecord]) -> None:
        for record in records:
            self.add(record)

    def mark_lost(self, day: int, bin_no: int) -> None:
        """Mark a ten-minute bin of ``day`` as a collection outage."""
        if not 0 <= bin_no < 144:
            raise ValueError(f"bin index {bin_no} out of range")
        self._lost_bins[day].add(bin_no)
        self._days.setdefault(day, [])

    # -- access -------------------------------------------------------------

    def days(self) -> List[int]:
        """The day indices with any data, ascending."""
        return sorted(self._days)

    def records_for(self, day: int) -> List[UpdateRecord]:
        """The records of one day, time-sorted."""
        return sorted(self._days.get(day, []), key=lambda r: r.time)

    def __iter__(self) -> Iterator[Tuple[int, List[UpdateRecord]]]:
        for day in self.days():
            yield day, self.records_for(day)

    def __len__(self) -> int:
        return sum(len(records) for records in self._days.values())

    def coverage(self, day: int) -> float:
        """Fraction of the day's 144 ten-minute bins not marked lost."""
        return 1.0 - len(self._lost_bins.get(day, ())) / 144.0

    def lost_bins(self, day: int) -> List[int]:
        return sorted(self._lost_bins.get(day, ()))

    def well_covered_days(self, threshold: float = 0.8) -> List[int]:
        """Days whose coverage is at least ``threshold`` (paper: 80%)."""
        return [day for day in self.days() if self.coverage(day) >= threshold]

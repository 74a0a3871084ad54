"""Streaming shard aggregation: fold day chunks, never whole shards.

The original runner materialized a shard's full day range as one
:class:`~repro.core.columns.RecordColumns` batch and ran every
aggregate over it — O(shard length) memory, which is exactly what a
270-day horizon cannot afford.  :class:`ShardAccumulator` replaces
that with a fold: each day's batch is classified and absorbed into
the mergeable aggregates, then dropped, so a worker holds at most one
day of records (usually a read-only memmap of its spill chunk).

The fold is *bit-identical* to the whole-shard computation, by
construction rather than by luck:

- classification: :class:`~repro.core.columns.ColumnClassifier`
  carries per-route state across batches, proven equivalent to
  one-batch classification in ``tests/test_columns.py``;
- binned series: bin indices are computed against the *shard* start
  with the same float expression ``floor((t - start) / width)`` the
  whole-shard path used, accumulated into one dense window — same
  floats, same bins;
- Prefix+AS aggregates: one stable grouping sort per day, keyed by
  ``(peer ASN, net, plen)``, feeds all of them.  Within-day gaps are
  adjacent time differences inside a group (per category, over the
  rows with that code, in the same sorted layout); the gap that
  straddles a day boundary is recovered from a per-pair last-event
  carry, so the merged gap multiset equals the whole-shard one
  (batches are time-disjoint and arrive in time order).  Pairs per
  day count group starts plus day changes inside a group, less the
  groups that continue a day the same carry already counted;
  per-prefix counts reduce the group sizes;
- everything else (category tallies, per-peer tables) is a key-union
  integer sum, associative by the same argument the cross-shard merge
  rests on.

``tests/test_campaign.py`` asserts the equivalence digest-for-digest
against a whole-batch reference.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..analysis.interarrival import FIGURE8_BINS, histogram_counts
from ..analysis.timeseries import BinnedSeries
from ..collector.store import SECONDS_PER_DAY
from ..core.columns import ColumnClassifier, RecordColumns, _group_sort
from ..core.instability import CategoryCounts, counts_by_peer_columns
from ..core.taxonomy import FINE_GRAINED_CATEGORIES
from ..net.prefix import Prefix
from .config import CampaignConfig, ShardSpec
from .results import (
    TOTAL,
    PartialResult,
    ShardTimings,
    _merge_count_tables,
)

__all__ = ["ShardAccumulator", "ShardTimings"]

#: Per-pair key for the inter-arrival carry: ``(peer ASN << 32 | net,
#: plen)``, the grouping sort's packed key and prefix length.
PairKey = Tuple[int, int]

#: Injected monotonic clock.  The campaign package reads no wall clock
#: itself (it sits on the golden corpus's digest call graph, DET102);
#: callers that want phase timings pass ``time.perf_counter`` in.
Clock = Callable[[], float]


class ShardAccumulator:
    """Folds one shard's day batches into a :class:`PartialResult`.

    Feed the spec's days in order through :meth:`fold_day`, then take
    :meth:`result`.  State is O(active routes), independent of the
    day count — the whole point of the out-of-core tier.
    """

    __slots__ = (
        "config",
        "spec",
        "records",
        "_classifier",
        "_counts",
        "_bin_counts",
        "_names",
        "_hists",
        "_pair_slot",
        "_last_event",
        "_by_peer",
        "_by_prefix",
        "_pairs_per_day",
        "_clock",
        "timings",
    )

    def __init__(
        self,
        config: CampaignConfig,
        spec: ShardSpec,
        clock: Optional[Clock] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        self.records = 0
        self._clock = clock
        self.timings = ShardTimings()
        self._classifier = ColumnClassifier()
        self._counts = CategoryCounts()
        self._bin_counts = np.zeros(
            (spec.day_hi - spec.day_lo) * config.bins_per_day,
            dtype=np.int64,
        )
        self._names = (TOTAL,) + tuple(
            c.name for c in FINE_GRAINED_CATEGORIES
        )
        self._hists = {
            name: np.zeros(len(FIGURE8_BINS), dtype=np.int64)
            for name in self._names
        }
        # Each pair seen so far owns one column of ``_last_event``: its
        # last event time per histogram (row order of ``_names``), NaN
        # while the pair has no event of that kind yet.
        self._pair_slot: Dict[PairKey, int] = {}
        self._last_event = np.full((len(self._names), 0), np.nan)
        self._by_peer: Dict[int, CategoryCounts] = {}
        #: Events per prefix, keyed ``net << 8 | plen`` until result().
        self._by_prefix: Dict[int, int] = {}
        self._pairs_per_day: Dict[int, int] = {}

    def fold_day(self, day: int, columns: RecordColumns) -> None:
        """Classify and absorb one day's batch (must arrive in day
        order — the classifier and gap carries are sequential)."""
        if not self.spec.day_lo <= day < self.spec.day_hi:
            raise ValueError(
                f"day {day} outside shard range "
                f"[{self.spec.day_lo}, {self.spec.day_hi})"
            )
        clock = self._clock
        started = clock() if clock is not None else 0.0
        codes, policy = self._classifier.classify(columns)
        if clock is not None:
            classified = clock()
            self.timings.classify += classified - started
        self.records += len(columns)
        self._counts = self._counts + CategoryCounts.from_codes(
            codes, policy
        )
        self._fold_bins(columns)
        self._by_peer = _merge_count_tables(
            self._by_peer, counts_by_peer_columns(columns, codes, policy)
        )
        self._fold_pairs(columns.data, codes)
        if clock is not None:
            self.timings.fold += clock() - classified

    def _fold_bins(self, columns: RecordColumns) -> None:
        # The exact whole-shard expression — indices relative to the
        # SHARD start, not the day start, so float rounding at bin
        # edges cannot diverge from the reference computation.
        times = columns.data["time"]
        if times.size == 0:
            return
        start = self.spec.day_lo * SECONDS_PER_DAY
        indices = np.floor(
            (times - start) / self.config.bin_width
        ).astype(int)
        valid = (indices >= 0) & (indices < len(self._bin_counts))
        self._bin_counts += np.bincount(
            indices[valid], minlength=len(self._bin_counts)
        )

    def _fold_pairs(self, data: np.ndarray, codes: np.ndarray) -> None:
        """Fold every Prefix+AS aggregate of one batch from a single
        stable grouping sort keyed by ``(peer ASN, net, plen)``: the
        inter-arrival histograms, pairs per day and events per
        prefix."""
        n = len(data)
        if n == 0:
            return
        time = data["time"]
        if (time[1:] < time[:-1]).any():
            # Gaps are differences of time-ordered rows.  Generated and
            # spilled days are already in time order; anything else is
            # stably put in it first (ties keep batch order).
            by_time = np.argsort(time, kind="stable")
            data, codes = data[by_time], codes[by_time]
            time = data["time"]
            del by_time
        order, new_group, key_sorted, plen_sorted = _group_sort(
            data, "peer_asn"
        )
        # Within a group the sort is stable, so rows stay time-ordered.
        t = np.take(time, order)
        sorted_codes = np.take(codes, order)
        del order
        starts = np.flatnonzero(new_group)
        group_key = key_sorted[starts]
        group_plen = plen_sorted[starts]
        del key_sorted, plen_sorted

        # Events per prefix: the group sizes, summed over peer ASNs.
        sizes = np.diff(np.append(starts, n))
        net = group_key & np.uint64(0xFFFFFFFF)
        prefix_key = (net << np.uint64(8)) | group_plen.astype(np.uint64)
        by_prefix = self._by_prefix
        for key, count in zip(prefix_key.tolist(), sizes.tolist()):
            by_prefix[key] = by_prefix.get(key, 0) + count

        # Each group's carry slot, new pairs taking fresh columns.
        slot_of = self._pair_slot
        slots = np.fromiter(
            (
                slot_of.setdefault(key, len(slot_of))
                for key in zip(group_key.tolist(), group_plen.tolist())
            ),
            dtype=np.int64,
            count=len(starts),
        )
        width = self._last_event.shape[1]
        if len(slot_of) > width:
            grown = np.full((len(self._names), 2 * len(slot_of)), np.nan)
            grown[:, :width] = self._last_event
            self._last_event = grown

        # Pairs per day: a (day, pair) starts at each group start and
        # wherever the day changes inside a group, except where a
        # group's first event falls on the day of the pair's last event
        # in an earlier batch (a day split across batches counts once).
        continued = (
            self._last_event[0, slots] // SECONDS_PER_DAY
            == t[starts] // SECONDS_PER_DAY
        )
        first_day, last_day = (
            time[[0, -1]] // SECONDS_PER_DAY
        ).astype(np.int64).tolist()
        if first_day == last_day:
            # A batch inside one day: one pair per uncontinued group.
            days = [first_day]
            pairs = [len(starts) - int(np.count_nonzero(continued))]
        else:
            day_of = (t // SECONDS_PER_DAY).astype(np.int64)
            new_pair = new_group.copy()
            new_pair[1:] |= day_of[1:] != day_of[:-1]
            new_pair[starts[continued]] = False
            unique_days, counts = np.unique(
                day_of[new_pair], return_counts=True
            )
            days, pairs = unique_days.tolist(), counts.tolist()
            del day_of, new_pair
        for d, count in zip(days, pairs):
            self._pairs_per_day[d] = self._pairs_per_day.get(d, 0) + count

        group = np.cumsum(new_group) - 1
        del new_group
        self._fold_gaps(0, t, group, slots)
        for row, category in enumerate(FINE_GRAINED_CATEGORIES, start=1):
            rows = np.flatnonzero(sorted_codes == category.value)
            if rows.size:
                self._fold_gaps(row, t[rows], group[rows], slots)

    def _fold_gaps(
        self,
        row: int,
        times: np.ndarray,
        group: np.ndarray,
        slots: np.ndarray,
    ) -> None:
        """Fold gaps into histogram ``_names[row]``.

        ``times`` holds one kind of event in grouped layout: ``group``
        is non-decreasing, and times are ordered within a group.
        ``slots`` maps each group to its carry column.  Within-batch
        gaps are adjacent differences inside a group, the same gaps
        :func:`~repro.analysis.interarrival.interarrival_columns` finds;
        each pair's first event adds its boundary gap against the last
        event carried from earlier days."""
        hist = self._hists[self._names[row]]
        same = group[1:] == group[:-1]
        hist += histogram_counts(np.diff(times)[same])
        first = np.flatnonzero(np.concatenate(([True], ~same)))
        last = np.append(first[1:], len(times)) - 1
        pair = slots[group[first]]
        previous = self._last_event[row, pair]
        seen = ~np.isnan(previous)
        hist += histogram_counts(times[first][seen] - previous[seen])
        self._last_event[row, pair] = times[last]

    def result(self) -> PartialResult:
        """The shard's aggregates; call once, after the last day."""
        offset = int(
            self.spec.day_lo * SECONDS_PER_DAY // self.config.bin_width
        )
        # An all-empty shard reproduces the whole-batch form exactly:
        # BinnedSeries.from_records yields a zero-length window when no
        # records exist, a full [day_lo, day_hi) window otherwise.
        counts = (
            self._bin_counts
            if self.records
            else np.zeros(0, dtype=np.int64)
        )
        bins = BinnedSeries(offset, counts, self.config.bin_width)
        return PartialResult(
            records=self.records,
            counts=self._counts,
            bins=bins,
            interarrival=dict(self._hists),
            by_peer=self._by_peer,
            by_prefix={
                Prefix(key >> 8, key & 0xFF): count
                for key, count in self._by_prefix.items()
            },
            pairs_per_day=self._pairs_per_day,
            by_exchange={self.spec.exchange: self._counts},
        )

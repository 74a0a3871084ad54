"""Columnar classify+bin and day materialization on a generated day.

These benchmarks time the columnar tier's classify+bin pass and the
two ways to materialize the same synthetic day — as a
:class:`~repro.core.columns.RecordColumns` batch and as record
objects (statistical repetition via pytest-benchmark).

Run with::

    pytest benchmarks/bench_columns.py --benchmark-only
"""

from __future__ import annotations

import pytest

from repro.analysis.timeseries import bin_records
from repro.core.columns import ColumnClassifier
from repro.core.instability import CategoryCounts
from repro.workloads.generator import TraceGenerator

#: One synthetic day, materialized once per module.
_DAY = 7
_PAIR_FRACTION = 0.2
_SEED = 13


@pytest.fixture(scope="module")
def day_columns():
    return TraceGenerator(seed=_SEED).day_columns(
        _DAY, pair_fraction=_PAIR_FRACTION
    )


def test_columnar_classify_bin(benchmark, day_columns):
    def run():
        codes, policy = ColumnClassifier().classify(day_columns)
        counts = CategoryCounts.from_codes(codes, policy)
        bins = bin_records(day_columns, bin_width=600.0)
        return counts.total + int(bins.sum())

    assert benchmark(run) == 2 * len(day_columns)


def test_materialize_day_records(benchmark):
    generator = TraceGenerator(seed=_SEED)

    def run():
        return len(
            generator.day_records(_DAY, pair_fraction=_PAIR_FRACTION)
        )

    assert benchmark(run) > 0


def test_materialize_day_columns(benchmark):
    generator = TraceGenerator(seed=_SEED)

    def run():
        return len(
            generator.day_columns(_DAY, pair_fraction=_PAIR_FRACTION)
        )

    assert benchmark(run) > 0

"""A fixed reference workload, timed around every measured call.

The benchmark runs on shared virtual machines whose speed moves by up to
1.7x within seconds and drifts for minutes at a time, and the program's
throughput moves with it.  Each repeat therefore times this kernel just
before and just after its measured call, in as many processes as the
call keeps busy, and ``run.py`` scales the repeat's times by
``REFERENCE_S / kernel time``: its figures read as if the machine ran at
the speed at which the kernel takes ``REFERENCE_S``.

The kernel lives here, not in ``src/repro``, so no change to the program
moves it: a regression in the program shows in full in the scaled
figures.  It mixes what the program spends its time on: interpreted
code over small objects, dicts and a heap, and NumPy sorts over
integer columns.  The garbage collector is off while it runs, so the
program's live heap does not change its cost.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import time

import numpy as np

#: The kernel's wall time, in seconds, on an otherwise idle 2-vCPU Xeon
#: (KVM) virtual machine: the unit that scaled times are expressed in.
REFERENCE_S = 0.10


class _Item:
    __slots__ = ("key", "weight", "bucket")

    def __init__(self, key: int, weight: float, bucket: int) -> None:
        self.key = key
        self.weight = weight
        self.bucket = bucket


def kernel() -> int:
    """The reference work; returns a checksum so nothing is skipped."""
    rng = random.Random(7)
    heap, table, acc = [], {}, 0
    for i in range(60000):
        item = _Item(i, rng.random(), (i * 2654435761) & 0xFFF)
        heapq.heappush(heap, (item.weight, i, item))
        table[item.bucket] = table.get(item.bucket, 0) + 1
        if len(heap) > 512:
            acc += heapq.heappop(heap)[2].key ^ item.bucket
        acc += len(f"{i}:{item.bucket}")
    for step in range(1, 9):
        column = (np.arange(50000, dtype=np.int64) * (2654435761 + step)) % (
            1 << 40
        )
        ordered = np.sort(column >> 8)
        acc += int(np.count_nonzero(ordered[1:] != ordered[:-1]))
        acc += int(np.cumsum(ordered & 255)[-1])
    return acc + len(table)


def _timed() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def kernel_seconds(processes: int = 1) -> float:
    """Mean wall time of the kernel run at once in ``processes``
    processes (this one alone when 1, else forked copies that start
    together)."""
    if processes <= 1:
        return _timed()
    go_read, go_write = os.pipe()
    read, write = os.pipe()
    pids = []
    for _ in range(processes):
        pid = os.fork()
        if pid == 0:
            os.close(read)
            os.close(go_write)
            os.read(go_read, 1)
            os.write(write, f"{_timed()!r}\n".encode())
            os._exit(0)
        pids.append(pid)
    os.close(write)
    os.close(go_read)
    os.write(go_write, b"x" * processes)
    os.close(go_write)
    with os.fdopen(read) as fh:
        times = [float(line) for line in fh]
    for pid in pids:
        os.waitpid(pid, 0)
    if len(times) != processes:
        raise RuntimeError(f"{processes - len(times)} kernel process(es) failed")
    return sum(times) / processes

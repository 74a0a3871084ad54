"""One benchmark child process: ``python3 perfbench/child.py '<json>'``.

``run.py`` starts a fresh child for every repeat, so each one's set-up,
CPU time and peak RSS belong to that repeat alone.  The JSON argument
holds ``mode`` plus ``workload``, ``seed``, ``size``, ``spill`` (the
refold's chunk directory) and, for ``trace``, ``spool`` and
``trace_out``.  Modes:

- ``measure``: set up, run the measured call untraced between two
  timings of the calibration kernel (``calibrate.py``), digest;
- ``trace``: the same with every layer wrapped (see ``spans.py``),
  reporting per-layer metrics and writing a Chrome trace;
- ``spill``: campaign_refold's chunk-writing set-up;
- ``pin``: the reference-path digest of a ``(workload, seed)``.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import calibrate
import cases
from spans import Tracer, layer_calls, write_chrome_trace


def _cpu() -> float:
    """CPU seconds of this process plus every child it has waited for
    (the campaign pool's workers are reaped when the pool closes)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _timed(workload, state, size):
    cpu0 = _cpu()
    w0 = time.perf_counter()
    items, output = cases.execute(workload, state, size)
    wall = time.perf_counter() - w0
    return items, output, wall, _cpu() - cpu0


def main(spec: dict) -> dict:
    mode, workload = spec["mode"], spec["workload"]
    seed, size = int(spec["seed"]), spec["size"]
    spill = Path(spec["spill"]) if spec.get("spill") else None
    if mode == "pin":
        return {"digest": cases.oracle_digest(workload, seed, size)}
    if mode == "spill":
        cases.write_spill(seed, size, spill)
        return {}
    if mode == "measure":
        state = cases.prepare(workload, seed, size, spill)
        ready = time.perf_counter()
        processes = cases.busy_processes(workload, size)
        before = calibrate.kernel_seconds(processes)
        items, output, wall, cpu = _timed(workload, state, size)
        after = calibrate.kernel_seconds(processes)
        return {
            "ready": ready, "wall": wall, "cpu": cpu, "items": items,
            "kernel": [before, after],
            "digest": cases.digest(workload, state, output),
        }
    if mode == "trace":
        tracer = Tracer(Path(spec["spool"]))
        tracer.install(cases.targets())
        try:
            if workload == "campaign_refold":
                cases.write_spill(seed, size, spill)
            state = cases.prepare(workload, seed, size, spill)
            tracer.phase = "measure"
            items, output, wall, cpu = _timed(workload, state, size)
            tracer.phase = "after"
        finally:
            unrestored = tracer.uninstall()
        spans = tracer.collect()
        metrics = cases.layer_metrics(spans, os.getpid(), wall)
        if spec.get("trace_out"):
            write_chrome_trace(
                Path(spec["trace_out"]), spans,
                {os.getpid(): f"{workload} seed {seed} (measured process)"},
            )
        return {
            "wall": wall, "cpu": cpu, "items": items,
            "digest": cases.digest(workload, state, output),
            "metrics": metrics, "calls": layer_calls(spans),
            "unrestored": unrestored,
            "spans": len(spans),
        }
    raise ValueError(f"unknown mode {mode!r}")


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

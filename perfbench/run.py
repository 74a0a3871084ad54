"""The repository's benchmark: ``python3 perfbench/run.py``.

    python3 perfbench/run.py --workload campaign --seed 17 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both seeds

Every repeat runs in a fresh child process (``child.py``): its set-up
time, CPU time (parent plus the pool workers it waited for) and peak
RSS (``os.wait4``) belong to that repeat alone.  Repeats continue until
``--seconds`` of measured time have passed (at least three), and every
metric is the median over them.  Times are scaled to a reference
machine speed, measured by a calibration kernel timed just before and
just after each measured call (``calibrate.py``), because the shared
machines this runs on change speed by tens of percent from one minute
to the next; the times as measured are printed and saved as well.
Each repeat's digest is compared with
the pin for its ``(workload, seed)``: ``pins.json``, or else a
reference-path run made before the repeats (see ``cases.oracle_digest``).
A mismatch, an exception or a nonzero exit counts as a failed run.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats, prints the per-layer metrics and writes a
Chrome trace to ``.perfbench/trace/``.  The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the full record goes to ``.perfbench/results/``.  The
exit code is 1 when any run failed (after the results are written) and
2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
LAYERS = json.loads((HERE / "layers.json").read_text())["layers"]

MIN_REPEATS = 3
#: No new repeat starts after this many seconds per (workload, seed)
#: cell, so a run ends well inside three minutes; one child is killed
#: after CHILD_TIMEOUT_S.
BUDGET_S = 120.0
CHILD_TIMEOUT_S = 90.0
#: The reconciliation bar: layer self times plus the named residuals
#: must cover this share of the traced wall time.
COVERAGE_BAR = 0.95


# -- child processes -------------------------------------------------------


def spawn(spec: dict):
    """Run one child; returns ``(result, error, rusage)``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return None, f"child exited with {code}", rusage
    lines = out.decode("utf-8", "replace").strip().splitlines()
    try:
        return json.loads(lines[-1]), None, rusage
    except (IndexError, json.JSONDecodeError):
        return None, "child printed no result", rusage


def _spec(mode, workload, seed, size, **extra) -> dict:
    spill = WORK / "work" / f"{os.getpid()}-spill"
    return dict(
        mode=mode, workload=workload, seed=seed, size=size,
        spill=str(spill), **extra,
    )


def source_digest() -> str:
    """Digest of the program's source; it keys the cache of reference
    digests, so any change to ``src/repro`` computes them afresh."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def pin_for(workload: str, seed: int, size: str):
    """``(pin, source)`` for this ``(workload, seed)``, or ``(None,
    error)`` when the reference run failed.

    Seeds missing from ``pins.json`` get a reference run, cached under
    ``.perfbench/pins/`` by program source; both campaign workloads
    share one pin."""
    if size == "full":
        pins = json.loads((HERE / "pins.json").read_text())["digests"]
        pins = pins[workload]
        key = "*" if workload in cases.SEEDLESS else str(seed)
        if key in pins:
            return pins[key], "pins.json"
    family = "campaign" if workload in cases.CAMPAIGN_WORKLOADS else workload
    cached = (
        WORK / "pins" / source_digest()[:16] / f"{family}-{seed}-{size}"
    )
    if cached.is_file():
        return cached.read_text().strip(), "reference run (cached)"
    result, error, _ = spawn(_spec("pin", workload, seed, size))
    if error:
        return None, f"reference run failed: {error}"
    cached.parent.mkdir(parents=True, exist_ok=True)
    cached.write_text(result["digest"] + "\n")
    return result["digest"], "reference run"


def _gate(outcome: dict, pin) -> dict:
    if "error" not in outcome and outcome["digest"] != pin:
        outcome["error"] = (
            f"digest {outcome['digest'][:16]}… != pin {str(pin)[:16]}…"
        )
    return outcome


def measured_repeat(workload, seed, size, pin) -> dict:
    """One untraced repeat in fresh children; refold's chunk-writing
    set-up runs in a child of its own so its pool does not count
    towards the refold's peak RSS."""
    spec = _spec("measure", workload, seed, size)
    setup = 0.0
    try:
        if workload == "campaign_refold":
            started = time.perf_counter()
            _, error, _ = spawn(dict(spec, mode="spill"))
            setup += time.perf_counter() - started
            if error:
                return {"error": f"set-up: {error}"}
        started = time.perf_counter()
        result, error, rusage = spawn(spec)
    finally:
        shutil.rmtree(spec["spill"], ignore_errors=True)
    if error:
        return {"error": error}
    result["setup"] = setup + result.pop("ready") - started
    result["rss_mib"] = rusage.ru_maxrss / 1024.0
    return _gate(result, pin)


def traced_repeat(workload, seed, size, pin, trace_out) -> dict:
    spool = WORK / "work" / f"{os.getpid()}-spool"
    spec = _spec(
        "trace", workload, seed, size, spool=str(spool),
        trace_out=str(trace_out) if trace_out else None,
    )
    try:
        result, error, _ = spawn(spec)
    finally:
        shutil.rmtree(spec["spill"], ignore_errors=True)
        shutil.rmtree(spool, ignore_errors=True)
    if error:
        return {"error": error}
    _gate(result, pin)
    if "error" not in result:
        if result["unrestored"]:
            result["error"] = f"wrappers left: {result['unrestored']}"
        else:
            problem = layer_checks(
                workload, result["metrics"], result["calls"]
            )
            if problem:
                result["error"] = problem
    return result


def layer_checks(workload, metrics, calls):
    """Why a traced repeat fails reconciliation, or ``None``.

    Besides the coverage bar, every layer ``layers.json`` says moves a
    metric on ``workload`` must have caught calls there, and every
    counter it predicts to be 0 there must read exactly 0.  A wrapper
    that stops catching calls (say, through a reference bound before it
    was installed) fails the first of these.
    """
    if metrics["trace.coverage_frac"] < COVERAGE_BAR:
        return (
            f"layers cover {metrics['trace.coverage_frac']:.3f} of the "
            f"traced wall (< {COVERAGE_BAR})"
        )
    for layer in LAYERS:
        name = layer["layer"]
        for metric, workloads in layer.get("zero", {}).items():
            if workload in workloads and metrics[metric] != 0:
                return f"{metric} is {metrics[metric]}, predicted 0"
        moved = {w for ws in layer["moves"].values() for w in ws}
        caught = sum(
            n for span_layer, n in calls.items()
            if span_layer == name or span_layer.startswith(name + ".")
        )
        if workload in moved and not caught:
            return f"no {name} call was traced"
    return None


# -- statistics ------------------------------------------------------------


def summary(values):
    """Median, quartiles and count of ``values``."""
    values = sorted(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values),
    }


def speed(outcome) -> float:
    """The machine's speed during a repeat, relative to the reference
    speed (see ``calibrate.py``): 0.5 when the kernel ran twice as long
    as ``calibrate.REFERENCE_S``."""
    return calibrate.REFERENCE_S / statistics.mean(outcome["kernel"])


def e2e_summaries(outcomes) -> dict:
    """The end-to-end metrics; times are scaled to the reference speed
    (a repeat at half speed counts half its wall, CPU and set-up time)."""
    ok = [o for o in outcomes if "error" not in o]
    return {
        "items_per_s": summary(
            o["items"] / (o["wall"] * speed(o)) for o in ok
        ),
        "cpu_us_per_item": summary(
            1e6 * o["cpu"] * speed(o) / o["items"] for o in ok
        ),
        "peak_rss_mib": summary(o["rss_mib"] for o in ok),
        "setup_s": summary(o["setup"] * speed(o) for o in ok),
    }


def raw_summaries(outcomes) -> dict:
    """The same times as measured, and the machine speed they saw."""
    ok = [o for o in outcomes if "error" not in o]
    return {
        "items_per_s": summary(o["items"] / o["wall"] for o in ok),
        "cpu_s": summary(o["cpu"] for o in ok),
        "setup_s": summary(o["setup"] for o in ok),
        "machine_speed": summary(speed(o) for o in ok),
    }


def layer_summaries(traced) -> dict:
    ok = [o for o in traced if "error" not in o]
    names = ok[0]["metrics"] if ok else cases.layer_metrics([], 0, 0.0)
    return {
        name: summary(o["metrics"][name] for o in ok) for name in names
    }


# -- the repeat loop -------------------------------------------------------


class Cell:
    """One ``(workload, seed)`` and the repeats made of it so far."""

    def __init__(self, workload, seed, size) -> None:
        self.workload, self.seed, self.size = workload, seed, size
        self.pin, self.pin_source = pin_for(workload, seed, size)
        self.untraced, self.traced = [], []
        self.measured = 0.0

    def wants_more(self, seconds, trace) -> bool:
        if self.pin is None:
            return not self.untraced
        runs = self.untraced + self.traced
        if sum("error" in o for o in runs) >= MIN_REPEATS:
            return False
        done = len(self.traced) if trace else len(self.untraced)
        return done < (2 if trace else MIN_REPEATS) or self.measured < seconds

    def _add(self, runs, repeat) -> None:
        started = time.perf_counter()
        outcome = repeat()
        runs.append(outcome)
        self.measured += outcome.get("wall", time.perf_counter() - started)

    def step(self, trace, trace_out) -> None:
        """One untraced repeat, then a traced one when tracing."""
        if self.pin is None:
            self.untraced.append({"error": self.pin_source})
            return
        args = (self.workload, self.seed, self.size, self.pin)
        self._add(self.untraced, lambda: measured_repeat(*args))
        if trace:
            out = None if self.traced else trace_out
            self._add(self.traced, lambda: traced_repeat(*args, out))

    def record(self, seconds, trace, trace_out) -> dict:
        workload = self.workload
        record = {
            "workload": workload, "seed": self.seed,
            "held_out_seed": cases.HELD_OUT_SEED, "seconds": seconds,
            "trace": trace, "size": self.size, "pin": self.pin,
            "pin_source": self.pin_source, "item": cases.ITEM[workload],
            "reference_kernel_s": calibrate.REFERENCE_S,
        }
        if workload in cases.SEEDLESS:
            record["note"] = (
                f"{workload} makes no random draws; the seed is ignored"
            )
        runs = self.untraced + self.traced
        record["attempted"] = len(runs)
        record["failed"] = sum("error" in o for o in runs)
        record["errors"] = [o["error"] for o in runs if "error" in o]
        record["end_to_end"] = e2e_summaries(self.untraced)
        record["raw"] = raw_summaries(self.untraced)
        record["runs"] = runs
        if trace:
            record["trace_file"] = str(trace_out.relative_to(ROOT))
            layers = layer_summaries(self.traced)
            walls = [o["wall"] for o in self.untraced if "error" not in o]
            traced_walls = [o["wall"] for o in self.traced if "error" not in o]
            overhead = 0.0
            if walls and traced_walls:
                overhead = (
                    statistics.median(traced_walls) / statistics.median(walls)
                    - 1.0
                )
            layers["trace.overhead_frac"] = summary([overhead])
            record["per_layer"] = layers
        return record


def run_cells(cells, seconds, trace=0, size="full") -> list:
    """Repeat every ``(workload, seed)`` cell, one repeat of each in
    turn so machine drift hits them all alike, until each has
    ``seconds`` of measured time (and a floor of repeats), has failed
    ``MIN_REPEATS`` times, or the time budget is spent.  Returns one
    record per cell."""
    deadline = time.perf_counter() + BUDGET_S * len(cells)
    todo = [Cell(workload, seed, size) for workload, seed in cells]
    outs = {
        id(cell): WORK / "trace" / f"{cell.workload}-seed{cell.seed}.json"
        for cell in todo
    }
    while time.perf_counter() < deadline:
        active = [cell for cell in todo if cell.wants_more(seconds, trace)]
        if not active:
            break
        for cell in active:
            cell.step(trace, outs[id(cell)])
    return [cell.record(seconds, trace, outs[id(cell)]) for cell in todo]


def run_workload(workload, seed, seconds, trace, size="full") -> dict:
    return run_cells([(workload, seed)], seconds, trace, size)[0]


def metrics_of(record) -> dict:
    table = record["per_layer"] if record["trace"] else record["end_to_end"]
    return {
        name: {"value": s["median"], "unit": UNITS[name]}
        for name, s in table.items()
    }


def report(record) -> None:
    """Human-readable lines for one workload."""
    print(
        f"perfbench {record['workload']}: seed {record['seed']} "
        f"(held-out seed {record['held_out_seed']}), "
        f"pin {str(record['pin'])[:16]}… from {record['pin_source']}"
    )
    if "note" in record:
        print(f"  note: {record['note']}")
    if record["trace"]:
        rows = [
            (name, s, UNITS[name]) for name, s in record["per_layer"].items()
        ]
    else:
        # Throughput under the name a reader of the campaign or the
        # simulator expects, then the times as measured, before scaling.
        table, raw = record["end_to_end"], record["raw"]
        per_s = f"{record['item']}_per_s"
        rows = [(per_s, table["items_per_s"], "1/s")] + [
            (name, s, UNITS[name])
            for name, s in table.items() if name != "items_per_s"
        ] + [
            (f"{per_s} (as measured)", raw["items_per_s"], "1/s"),
            ("cpu_s (as measured)", raw["cpu_s"], "s"),
            ("setup_s (as measured)", raw["setup_s"], "s"),
            ("machine_speed", raw["machine_speed"], "ratio"),
        ]
    for name, s, unit in rows:
        print(
            f"  {name:34s} {s['median']:>16.6g} {unit:6s} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    rate = record["failed"] / max(1, record["attempted"])
    print(
        f"  {'failure_rate':34s} {rate:>16.6g} ratio  "
        f"({record['failed']} of {record['attempted']} runs)"
    )
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    if record.get("trace_file"):
        print(f"  trace: {record['trace_file']}")


def save(record, name: str) -> Path:
    path = WORK / "results" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=cases.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=cases.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no src/repro under {ROOT}; nothing to measure",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        if args.trace:
            parser.error("--workload all measures untraced runs only")
        seeds = sorted({args.seed, cases.HELD_OUT_SEED})
        cells = [
            (workload, seed) for seed in seeds for workload in cases.WORKLOADS
            if seed == args.seed or workload not in cases.SEEDLESS
        ]
        records = run_cells(cells, args.seconds)
        for record in records:
            report(record)
        path = save(
            {"seeds": seeds, "records": records}, f"all-seed{args.seed}.json"
        )
        metrics = {
            f"{r['workload']}.seed{r['seed']}.{name}": value
            for r in records for name, value in metrics_of(r).items()
        }
    else:
        record = run_workload(
            args.workload, args.seed, args.seconds, args.trace
        )
        report(record)
        path = save(
            record, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        )
        records = [record]
        metrics = metrics_of(record)
    print(f"results: {path.relative_to(ROOT)}")
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

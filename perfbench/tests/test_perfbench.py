"""Tests of the benchmark's own logic (not of the program it measures).

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import cases
import run
from spans import Span, Target, Tracer, coverage, layer_self, self_times

ROOT = Path(__file__).resolve().parents[2]
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())


# -- wrappers --------------------------------------------------------------


def test_wrappers_restore_every_original(tmp_path):
    import repro.campaign.results as results
    import repro.campaign.runner as runner
    import repro.core.spill as spill
    import repro.sim.link as link

    before = {
        "read_chunk": spill.read_chunk,
        "runner.read_chunk": runner.read_chunk,
        "send": link.Link.__dict__["send"],
        "from_payload": results.PartialResult.__dict__["from_payload"],
    }
    tracer = Tracer(tmp_path / "spool")
    tracer.install(cases.targets())
    try:
        # The alias the runner imported is wrapped too, and a wrapped
        # classmethod is still a classmethod.
        assert runner.read_chunk is spill.read_chunk
        assert runner.read_chunk is not before["read_chunk"]
        assert link.Link.send is not before["send"]
        wrapped = results.PartialResult.__dict__["from_payload"]
        assert isinstance(wrapped, classmethod)
        assert wrapped is not before["from_payload"]
    finally:
        left = tracer.uninstall()
    assert left == []
    assert spill.read_chunk is before["read_chunk"]
    assert runner.read_chunk is before["read_chunk"]
    assert link.Link.__dict__["send"] is before["send"]
    assert results.PartialResult.__dict__["from_payload"] is (
        before["from_payload"]
    )


def test_wrapper_records_spans_and_exceptions(tmp_path):
    tracer = Tracer(tmp_path / "spool")
    target = Target("demo", "json", "dumps")
    traced = tracer.wrap(target, lambda x: x * 2)
    failing = tracer.wrap(target, lambda: 1 / 0)
    assert traced(21) == 42
    with pytest.raises(ZeroDivisionError):
        failing()
    assert [s.layer for s in tracer.spans] == ["demo", "demo"]
    assert all(s.parent == -1 and s.wall >= 0 for s in tracer.spans)
    assert tracer._stack == []


# -- reconciliation arithmetic ---------------------------------------------


def _span(sid, parent, layer, w0, w1, pid=1, phase="measure"):
    return Span(sid, parent, pid, layer, layer, phase, w0, w1, 0.0, 0.0, None)


def test_self_times_and_coverage_on_a_synthetic_tree():
    spans = [
        _span(0, -1, "sim.engine", 0.0, 10.0),
        _span(1, 0, "sim.link", 1.0, 4.0),
        _span(2, 1, "bgp.wire", 2.0, 3.0),
        _span(3, 0, "bgp.rib", 5.0, 9.0),
        # A pool worker's span runs at the same time; it has no place
        # in the measured process's wall time.
        _span(0, -1, "workloads.generator", 0.0, 10.0, pid=2),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == pytest.approx(3.0)  # 10 - 3 - 4
    assert own[(1, 1)] == pytest.approx(2.0)  # 3 - 1
    assert own[(1, 2)] == pytest.approx(1.0)
    assert own[(1, 3)] == pytest.approx(4.0)
    assert own[(2, 0)] == pytest.approx(10.0)
    assert layer_self(spans, pid=1) == pytest.approx(
        {"sim.engine": 3.0, "sim.link": 2.0, "bgp.wire": 1.0, "bgp.rib": 4.0}
    )
    assert coverage(spans, pid=1, wall=10.0) == pytest.approx(1.0)
    assert coverage(spans, pid=1, wall=12.5) == pytest.approx(0.8)
    assert coverage(spans, pid=1, wall=0.0) == 0.0


def test_layer_metrics_split_phases_and_workers():
    spans = [
        _span(0, -1, "campaign.runner", 0.0, 4.0),
        _span(1, 0, "campaign.handoff", 3.0, 3.5),
        Span(0, -1, 7, "campaign.shard", "run_shard", "measure",
             0.0, 3.0, 0.0, 2.5, None),
        Span(1, -1, 7, "core.spill.write", "write_chunk", "setup",
             0.0, 1.0, 0.0, 1.0, {"bytes": 100}),
    ]
    metrics = cases.layer_metrics(spans, root_pid=1, wall=4.0)
    assert metrics["campaign.runner.wait_s"] == pytest.approx(3.5)
    assert metrics["campaign.handoff.busy_s"] == pytest.approx(0.5)
    assert metrics["campaign.worker.cpu_s"] == pytest.approx(2.5)
    assert metrics["core.spill.write.bytes"] == 100
    assert metrics["core.spill.read.bytes"] == 0
    assert metrics["trace.coverage_frac"] == pytest.approx(1.0)
    assert metrics["trace.residual_frac"] == pytest.approx(3.5 / 4.0)


def _healthy(workload):
    metrics = dict.fromkeys(cases.layer_metrics([], 0, 0.0), 0)
    metrics["trace.coverage_frac"] = 1.0
    calls = {
        layer["layer"]: 1 for layer in LAYERS["layers"]
        if any(workload in ws for ws in layer["moves"].values())
    }
    return metrics, calls


def test_layer_checks_catch_a_lost_wrapper_and_a_broken_prediction():
    metrics, calls = _healthy("sim_table_dump")
    assert run.layer_checks("sim_table_dump", metrics, calls) is None
    # Span layers below a layer's name ("core.spill.read") count for it.
    metrics, calls = _healthy("campaign_refold")
    calls["core.spill.read"] = calls.pop("core.spill")
    assert run.layer_checks("campaign_refold", metrics, calls) is None

    metrics, calls = _healthy("sim_table_dump")
    del calls["bgp.rib"]
    assert run.layer_checks("sim_table_dump", metrics, calls) == (
        "no bgp.rib call was traced"
    )
    metrics, calls = _healthy("sim_day")
    metrics["bgp.wire.calls"] = 3
    assert "predicted 0" in run.layer_checks("sim_day", metrics, calls)
    metrics["bgp.wire.calls"] = 0
    metrics["trace.coverage_frac"] = 0.9
    assert "cover 0.900" in run.layer_checks("sim_day", metrics, calls)


# -- the correctness gate --------------------------------------------------


def test_injected_digest_mismatch_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    good = run.run_workload("sim_table_dump", 17, 0.0, 0, size="small")
    assert good["attempted"] == run.MIN_REPEATS
    assert good["failed"] == 0

    monkeypatch.setattr(
        run, "pin_for", lambda *args: ("0" * 64, "injected")
    )
    bad = run.run_workload("sim_table_dump", 17, 0.0, 0, size="small")
    assert bad["failed"] == bad["attempted"] == run.MIN_REPEATS
    assert all("digest" in error for error in bad["errors"])
    assert bad["end_to_end"]["items_per_s"]["n"] == 0


def test_a_failing_cell_stops_repeating(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(
        run, "pin_for", lambda *args: (None, "reference run failed: boom")
    )
    record = run.run_workload("sim_day", 5, 3600.0, 0, size="small")
    assert (record["attempted"], record["failed"]) == (1, 1)

    calls = []
    monkeypatch.setattr(run, "pin_for", lambda *args: ("0" * 64, "injected"))
    monkeypatch.setattr(
        run, "measured_repeat",
        lambda *args: calls.append(args) or {"error": "child exited with 1"},
    )
    records = run.run_cells(
        [("sim_day", 5), ("sim_table_dump", 5)], 3600.0, size="small"
    )
    assert [r["failed"] for r in records] == [run.MIN_REPEATS] * 2
    assert len(calls) == 2 * run.MIN_REPEATS


def test_times_are_scaled_to_the_reference_speed():
    ref = run.calibrate.REFERENCE_S
    slow = {
        "items": 100, "wall": 2.0, "cpu": 2.0, "setup": 1.0,
        "rss_mib": 50.0, "kernel": [2 * ref, 2 * ref],
    }
    assert run.speed(slow) == pytest.approx(0.5)
    table = run.e2e_summaries([slow, {"error": "x"}])
    assert table["items_per_s"]["median"] == pytest.approx(100.0)
    assert table["cpu_us_per_item"]["median"] == pytest.approx(1e4)
    assert table["setup_s"]["median"] == pytest.approx(0.5)
    assert table["peak_rss_mib"]["median"] == 50.0
    assert run.raw_summaries([slow])["items_per_s"]["median"] == 50.0


def test_kernel_runs_in_parallel_processes():
    assert run.calibrate.kernel_seconds(2) > 0
    assert run.calibrate.kernel() == run.calibrate.kernel()


def test_quartiles_and_medians():
    s = run.summary([4.0, 1.0, 3.0, 2.0])
    assert s["median"] == 2.5 and s["n"] == 4
    assert (s["q1"], s["q3"]) == (1.25, 3.75)
    assert run.summary([])["n"] == 0


# -- the zero-call predictions ---------------------------------------------


@pytest.fixture(scope="module")
def traced_small(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    saved = run.WORK
    run.WORK = work
    try:
        out = {}
        for workload in cases.WORKLOADS:
            pin, _ = run.pin_for(workload, 17, "small")
            trace_out = work / f"{workload}.json"
            out[workload] = run.traced_repeat(
                workload, 17, "small", pin, trace_out
            )
            out[workload]["trace_out"] = str(trace_out)
        return out
    finally:
        run.WORK = saved


def test_traced_runs_pass_every_check(traced_small):
    for workload, result in traced_small.items():
        assert "error" not in result, (workload, result.get("error"))
        assert result["unrestored"] == []
        assert result["metrics"]["trace.coverage_frac"] >= run.COVERAGE_BAR


def test_zero_call_predictions_hold(traced_small):
    checked = 0
    for layer in LAYERS["layers"]:
        for metric, workloads in layer.get("zero", {}).items():
            for workload in workloads:
                value = traced_small[workload]["metrics"][metric]
                assert value == 0, (metric, workload, value)
                checked += 1
    assert checked >= 4
    # ... and each of those counters does count where the work happens.
    metrics = {w: r["metrics"] for w, r in traced_small.items()}
    assert metrics["campaign"]["workloads.generator.records"] > 0
    assert metrics["campaign_refold"]["core.spill.read.bytes"] > 0
    assert metrics["campaign"]["campaign.handoff.bytes"] > 0
    assert metrics["sim_table_dump"]["bgp.wire.calls"] > 0
    assert metrics["sim_table_dump"]["sim.link.bytes"] > 0
    assert metrics["campaign_refold"]["core.spill.write.bytes"] > 0


def test_chrome_trace_has_a_track_per_pool_worker(traced_small):
    trace = json.loads(Path(traced_small["campaign"]["trace_out"]).read_text())
    events = trace["traceEvents"]
    tracks = {e["pid"] for e in events if e["ph"] == "M"}
    spans = [e for e in events if e["ph"] == "X"]
    assert len(tracks) == 3  # the measured process and its 2 pool workers
    assert {e["pid"] for e in spans} == tracks
    assert all(e["dur"] >= 0 and "cpu_us" in e["args"] for e in spans)


# -- the declared contract -------------------------------------------------


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(cases.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(
        run.e2e_summaries([])
    )
    names = list(cases.layer_metrics([], 0, 0.0)) + ["trace.overhead_frac"]
    assert sorted(m["name"] for m in bench["per_layer"]) == sorted(names)
    mapped = {m for layer in LAYERS["layers"] for m in layer["metrics"]}
    assert mapped == set(names)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""

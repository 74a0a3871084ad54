"""The benchmark's workloads, their pinned digests and the traced layers.

Each workload runs in a fresh child process (see ``child.py``) in three
steps: :func:`prepare` (set-up, untimed by the throughput metrics),
:func:`execute` (the measured call) and :func:`digest` (the output the
correctness gate compares with the pin).  Sizes come from
:data:`SIZES`; the benchmark uses ``"full"`` and its tests ``"small"``.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional

from spans import Target

WORKLOADS = ("campaign", "campaign_refold", "sim_day", "sim_table_dump")
CAMPAIGN_WORKLOADS = ("campaign", "campaign_refold")

#: What one item is when throughput is counted.
ITEM = {
    "campaign": "records",
    "campaign_refold": "records",
    "sim_day": "events",
    "sim_table_dump": "events",
}

#: The default seed, and the held-out seed a later speed claim is
#: re-checked on (never used while tuning a change).
DEFAULT_SEED = 17
HELD_OUT_SEED = 1997

#: sim_table_dump draws no random numbers; its seed is recorded only.
SEEDLESS = ("sim_table_dump",)

SIZES: Dict[str, dict] = {
    "full": {
        "days": 8, "shards": 4, "n_peers": 30, "total_prefixes": 4000,
        "workers": 2, "sim_duration": 3600.0, "smoke": False,
    },
    "small": {
        "days": 2, "shards": 2, "n_peers": 8, "total_prefixes": 240,
        "workers": 2, "sim_duration": None, "smoke": True,
    },
}


def busy_processes(workload: str, size: str) -> int:
    """How many processes the measured call keeps busy at once."""
    return SIZES[size]["workers"] if workload == "campaign" else 1


def campaign_config(seed: int, size: str, out: Optional[str] = None):
    from repro.campaign.config import CampaignConfig

    s = SIZES[size]
    return CampaignConfig(
        days=s["days"], seed=seed, n_peers=s["n_peers"],
        total_prefixes=s["total_prefixes"], shards=s["shards"], out=out,
    )


def day_config(seed: int, size: str):
    from repro.sim.scenarios import day_config as preset

    s = SIZES[size]
    config = preset(smoke=s["smoke"], seed=seed)
    if s["sim_duration"] is not None:
        config = replace(config, duration=s["sim_duration"])
    return config


# -- set-up ----------------------------------------------------------------


def write_spill(seed: int, size: str, spill: Path) -> None:
    """campaign_refold's set-up: a spilling run, then every shard
    manifest removed so a resume must re-read and re-fold every day."""
    from repro.campaign.manifest import CampaignLayout
    from repro.campaign.runner import run_campaign

    shutil.rmtree(spill, ignore_errors=True)
    config = campaign_config(seed, size, out=str(spill))
    run_campaign(config, workers=SIZES[size]["workers"])
    layout = CampaignLayout(spill)
    for spec in config.shard_plan():
        layout.manifest_path(spec).unlink()
    # Write the chunks back now, so that no writeback of them runs
    # during the measured refold.
    os.sync()


def prepare(workload: str, seed: int, size: str, spill: Optional[Path]):
    """Everything a measured run needs, imports included, built before
    the clock starts."""
    if workload in CAMPAIGN_WORKLOADS:
        from repro.campaign.runner import run_campaign

        out = str(spill) if workload == "campaign_refold" else None
        return {"config": campaign_config(seed, size, out), "run": run_campaign}
    if workload == "sim_day":
        from repro.sim.engine import Engine
        from repro.sim.partition import ExchangePartition, InlineChannel

        config = day_config(seed, size)
        engine = Engine()
        partitions = [
            ExchangePartition(config, index, engine)
            for index in range(config.exchanges)
        ]
        channel = InlineChannel(engine, partitions)
        for partition in partitions:
            partition.build(channel)
        return {"config": config, "engine": engine, "partitions": partitions}
    if workload == "sim_table_dump":
        from repro.sim.engine import Engine
        from repro.sim.scenarios import scenario_table_dump

        return {"run": scenario_table_dump, "engine": Engine}
    raise ValueError(f"unknown workload {workload!r}")


# -- the measured call -----------------------------------------------------


def execute(workload: str, state: dict, size: str):
    """Run the workload; returns ``(items, output)``."""
    if workload == "campaign":
        result = state["run"](state["config"], workers=SIZES[size]["workers"])
        return result.records, result
    if workload == "campaign_refold":
        result = state["run"](state["config"], workers=1, resume=True)
        if result.shards_loaded or result.shards_run != len(
            state["config"].shard_plan()
        ):
            raise RuntimeError(
                f"refold ran {result.shards_run} shard(s) and loaded "
                f"{result.shards_loaded}; every shard must re-fold"
            )
        return result.records, result
    if workload == "sim_day":
        engine = state["engine"]
        engine.run_until(state["config"].end_time)
        return engine.events_processed, None
    if workload == "sim_table_dump":
        return state["run"](state["engine"], SIZES[size]["smoke"])
    raise ValueError(f"unknown workload {workload!r}")


def digest(workload: str, state: dict, output) -> str:
    if workload in CAMPAIGN_WORKLOADS:
        return output.partial.digest()
    if workload == "sim_day":
        from repro.sim.partition import combined_digest, partition_digest

        return combined_digest(
            {p.index: partition_digest(p) for p in state["partitions"]}
        )
    return output


def oracle_digest(workload: str, seed: int, size: str) -> str:
    """The pin for a ``(workload, seed)`` absent from ``pins.json``,
    computed by the independent reference path: the in-process
    1-worker, in-memory campaign for both campaign workloads, and the
    heap ``ReferenceEngine`` for the simulator."""
    if workload in CAMPAIGN_WORKLOADS:
        from repro.campaign.runner import run_campaign

        return run_campaign(campaign_config(seed, size)).partial.digest()
    if workload == "sim_day":
        from repro.sim.refengine import ReferenceEngine
        from repro.sim.scenarios import run_exchange_day

        return run_exchange_day(ReferenceEngine, day_config(seed, size))[1]
    if workload == "sim_table_dump":
        from repro.sim.refengine import ReferenceEngine
        from repro.sim.scenarios import scenario_table_dump

        return scenario_table_dump(ReferenceEngine, SIZES[size]["smoke"])[1]
    raise ValueError(f"unknown workload {workload!r}")


# -- traced layers ---------------------------------------------------------


def _file_bytes(args, result, before):
    return {"bytes": os.stat(args[0]).st_size}


def _records_out(args, result, before):
    return {"records": len(result)}


def _records_in(args, result, before):
    return {"records": len(args[1])}


def _handoff(args, result, before):
    return {"bytes": result.nbytes}


def _events(args, result, before):
    return {"events": result}


def _link_bytes_before(args):
    return args[0].bytes_carried


def _link_bytes(args, result, before):
    return {"bytes": args[0].bytes_carried - before}


def targets() -> List[Target]:
    """Every public entry point the traced run wraps, by layer."""
    t = [
        Target("workloads.generator", "repro.workloads.generator",
               "TraceGenerator.day_columns", _records_out),
        Target("core.columns", "repro.core.columns",
               "ColumnClassifier.classify", _records_in),
        Target("campaign.fold", "repro.campaign.fold",
               "ShardAccumulator.fold_day"),
        Target("core.spill.read", "repro.core.spill", "read_chunk",
               _file_bytes),
        Target("core.spill.verify", "repro.core.spill", "verify_chunk"),
        Target("core.spill.write", "repro.core.spill", "write_chunk",
               _file_bytes),
        Target("campaign.handoff", "repro.campaign.handoff",
               "publish_partial", _handoff),
        Target("campaign.handoff", "repro.campaign.handoff",
               "collect_partial"),
        Target("campaign.runner", "repro.campaign.runner", "run_campaign"),
        Target("campaign.shard", "repro.campaign.runner", "run_shard"),
        Target("sim.engine", "repro.sim.engine", "Engine.run_until",
               _events),
        Target("sim.link", "repro.sim.link", "Link.send", _link_bytes,
               _link_bytes_before),
    ]
    t += [
        Target("campaign.manifest", "repro.campaign.manifest",
               f"CampaignLayout.{name}")
        for name in ("write_shard", "write_manifest", "load_shard")
    ]
    t += [
        Target("campaign.results", "repro.campaign.results",
               f"PartialResult.{name}")
        for name in ("__add__", "to_payload", "from_payload")
    ]
    t += [
        Target("bgp.rib", "repro.bgp.rib", f"{cls}.{name}")
        for cls, names in (
            ("LocRib", ("apply_announce", "apply_withdraw", "drop_peer")),
            ("AdjRibIn", ("update", "withdraw", "drop_peer")),
        )
        for name in names
    ]
    t += [
        Target("bgp.wire", "repro.bgp.wire", name)
        for name in ("encode_message_cached", "decode_message_cached",
                     "encode_message", "decode_message")
    ]
    t += [
        Target("bgp.session", "repro.bgp.session", f"PeeringSession.{name}")
        for name in ("on_open", "on_keepalive", "on_update",
                     "on_transport_failure", "on_notification", "poll")
    ]
    return t


# -- per-layer metrics from a traced run -----------------------------------


def layer_metrics(spans, root_pid: int, wall: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    ``wall`` is the traced measured call's wall time in ``root_pid``;
    ``trace.residual_frac`` is the share of it that the named residuals
    (``campaign.runner.wait_s``, ``sim.engine.residual_s``) hold, the
    rest being time the other layers' wrappers caught.
    Everything comes from the measured phase, except the spill-write
    figures: campaign_refold writes its chunks during set-up, the only
    phase that writes any.
    """
    from spans import coverage, self_times

    own = self_times(spans)
    measured = [s for s in spans if s.phase == "measure"]

    def pick(layer, pool=measured, names=None):
        return [
            s for s in pool
            if s.layer == layer and (names is None or s.name in names)
        ]

    def busy(layer, pool=measured, pid=None):
        return sum(
            own[(s.pid, s.sid)] for s in pick(layer, pool)
            if pid is None or s.pid == pid
        )

    def total(layer, key, pool=measured):
        return sum((s.counts or {}).get(key, 0) for s in pick(layer, pool))

    def hit_ratio(cached, inner):
        calls = len(pick("bgp.wire", names={cached}))
        misses = len(pick("bgp.wire", names={inner}))
        return (calls - misses) / calls if calls else 0.0

    workers = [s for s in measured if s.pid != root_pid and s.parent < 0]
    residual = busy("campaign.runner", pid=root_pid) + busy(
        "sim.engine", pid=root_pid
    )
    return {
        "workloads.generator.records": total("workloads.generator", "records"),
        "workloads.generator.busy_s": busy("workloads.generator"),
        "core.columns.classify.records": total("core.columns", "records"),
        "core.columns.classify.busy_s": busy("core.columns"),
        "campaign.fold.self_s": busy("campaign.fold"),
        "core.spill.read.bytes": total("core.spill.read", "bytes"),
        "core.spill.read.busy_s": busy("core.spill.read"),
        "core.spill.verify.busy_s": busy("core.spill.verify"),
        "core.spill.write.bytes": total("core.spill.write", "bytes", spans),
        "core.spill.write.busy_s": busy("core.spill.write", spans),
        "campaign.manifest.busy_s": busy("campaign.manifest"),
        "campaign.handoff.bytes": total("campaign.handoff", "bytes"),
        "campaign.handoff.busy_s": busy("campaign.handoff"),
        "campaign.results.merge_s": busy("campaign.results"),
        "campaign.runner.wait_s": busy("campaign.runner", pid=root_pid),
        "campaign.shard.self_s": busy("campaign.shard"),
        "campaign.worker.cpu_s": sum(s.cpu for s in workers),
        "sim.engine.events": total("sim.engine", "events"),
        "sim.engine.residual_s": busy("sim.engine"),
        "sim.link.send.calls": len(pick("sim.link")),
        "sim.link.send.busy_s": busy("sim.link"),
        "sim.link.bytes": total("sim.link", "bytes"),
        "bgp.rib.calls": len(pick("bgp.rib")),
        "bgp.rib.busy_s": busy("bgp.rib"),
        "bgp.wire.calls": len(pick("bgp.wire")),
        "bgp.wire.encode.hit_ratio": hit_ratio(
            "encode_message_cached", "encode_message"
        ),
        "bgp.wire.decode.hit_ratio": hit_ratio(
            "decode_message_cached", "decode_message"
        ),
        "bgp.wire.busy_s": busy("bgp.wire"),
        "bgp.session.calls": len(pick("bgp.session")),
        "bgp.session.busy_s": busy("bgp.session"),
        "trace.coverage_frac": coverage(measured, root_pid, wall),
        "trace.residual_frac": residual / wall if wall > 0 else 0.0,
    }

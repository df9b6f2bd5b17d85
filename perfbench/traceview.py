"""Per-layer metrics, Chrome trace and layer table from a traced unit.

Reads every ``spans-<pid>.json`` the traced processes wrote (the unit's
program process, its workers, and the traced set-up) and returns the per-layer
metrics of ``BENCHMARK.json``.  Also writes, under the output directory:

- ``<label>.trace.json`` -- Chrome trace-event JSON (opens in Perfetto or
  ``chrome://tracing``), one ``X`` event per recorded span;
- ``<label>.layers.txt`` -- self time and call counts per layer and span.

Attribution is checked on the unit's root thread (the one calling the
program's entry point): the layers' self times plus idle time must cover
at least :data:`MIN_COVERAGE` of its wall time; ``trace.coverage`` reports
the share.
"""

from __future__ import annotations

import glob
import json
import os
import statistics

import checks
import tracer

MIN_COVERAGE = 0.90


def _load(trace_dir: str) -> list[dict]:
    payloads = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as handle:
            payloads.append(json.load(handle))
    return payloads


def _median(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def per_layer(
    trace_dir: str,
    workload: str,
    untraced: checks.UnitOutcome,
    traced: checks.UnitOutcome,
    *,
    out_dir: str,
    label: str,
) -> dict:
    payloads = _load(trace_dir)
    stats: dict[str, list] = {}
    layers = {layer: 0.0 for layer in tracer.LAYERS}
    counters: dict[str, float] = {}
    samples: dict[str, list] = {}
    events: list[dict] = []
    dropped = 0
    root = None
    for payload in payloads:
        for name, (calls, seconds, layer) in payload["stats"].items():
            entry = stats.setdefault(name, [0, 0.0, layer])
            entry[0] += calls
            entry[1] += seconds
        for layer, seconds in payload["layer_self"].items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        for name, value in payload["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for name, values in payload["samples"].items():
            samples.setdefault(name, []).extend(values)
        events.extend(payload["events"])
        dropped += payload["dropped_events"]
        if payload["roots"]:
            root = (payload, payload["roots"][0])
    if root is None:
        raise checks.BenchError("traced unit wrote no root span")
    payload, root_info = root
    wall = root_info["wall_s"]
    on_root = payload["thread_layer_self"].get(root_info["thread"], {})
    unattributed = on_root.get("unattributed", 0.0)
    coverage = 1.0 - unattributed / wall if wall > 0 else 0.0

    def calls(name):
        return float(stats.get(name, [0, 0.0, None])[0])

    def secs(name):
        return float(stats.get(name, [0, 0.0, None])[1])

    fresh = traced.info.get("windows", {}).get("fresh", 0)
    windows = sum(traced.info.get("windows", {}).values())
    attempts = counters.get("exec.shard.attempts", 0.0)
    gets = counters.get("data.store.gets", 0.0)
    elems = counters.get("mx.quantize.elems", 0.0)
    lag = samples.get("exec.dispatch.lag_ms", [])
    primary = {
        "serve-eager": ("serve_stream_s_per_s", True),
        "serve-paced": ("window_latency_p50_ms", False),
        "sweep-grid": ("sweep_cells_per_s", True),
    }[workload]
    if primary[0] == "window_latency_p50_ms":
        base = checks.percentile(untraced.latencies_ms, 50)
        with_trace = checks.percentile(traced.latencies_ms, 50)
        overhead = (with_trace - base) / base
    else:
        base = untraced.figures[primary[0]]
        with_trace = traced.figures[primary[0]]
        overhead = base / with_trace - 1.0
    metrics = {
        "mx.quantize.calls": (calls("mx.quantize"), "count"),
        "mx.quantize.s": (secs("mx.quantize"), "s"),
        "mx.quantize.ns_per_elem": (
            secs("mx.quantize") * 1e9 / elems if elems else 0.0, "ns"
        ),
        "learn.forward.calls": (calls("learn.forward"), "count"),
        "learn.forward.s": (secs("learn.forward"), "s"),
        "learn.train_step.calls": (calls("learn.train_step"), "count"),
        "learn.train_step.s": (secs("learn.train_step"), "s"),
        "learn.pretrain.s": (secs("learn.pretrain"), "s"),
        "data.materialize.calls": (calls("data.materialize"), "count"),
        "data.materialize.s": (secs("data.materialize"), "s"),
        "data.materialize.hit_ratio": (
            1.0 - counters.get("data.store.generated", 0.0) / gets
            if gets else 0.0,
            "ratio",
        ),
        "core.phase.inference.s": (secs("core.phase.inference"), "s"),
        "core.phase.label.s": (secs("core.phase.label"), "s"),
        "core.phase.retrain.s": (secs("core.phase.retrain"), "s"),
        "core.snapshot.encode.s": (secs("core.snapshot.encode"), "s"),
        "core.snapshot.decode.s": (secs("core.snapshot.decode"), "s"),
        "core.snapshot.bytes": (
            counters.get("core.snapshot.bytes", 0.0), "bytes"
        ),
        "core.snapshot.resume_ratio": (
            counters.get("core.snapshot.resumed", 0.0) / fresh
            if fresh else 0.0,
            "ratio",
        ),
        "accelerator.timing.calls": (calls("accelerator.timing"), "count"),
        "accelerator.timing.s": (secs("accelerator.timing"), "s"),
        "exec.shard.calls": (calls("exec.shard"), "count"),
        "exec.shard.s": (secs("exec.shard"), "s"),
        "exec.dispatch.lag_p50_ms": (
            checks.percentile(lag, 50) if lag else 0.0, "ms"
        ),
        "exec.dispatch.lag_p95_ms": (
            checks.percentile(lag, 95) if lag else 0.0, "ms"
        ),
        "exec.transport.overhead_ms": (
            _median(_transport_ms(samples.get("exec.batches", []), events)),
            "ms",
        ),
        "exec.protocol.encode.s": (secs("exec.protocol.encode"), "s"),
        "exec.protocol.decode.s": (secs("exec.protocol.decode"), "s"),
        "exec.protocol.bytes": (
            counters.get("exec.protocol.bytes", 0.0), "bytes"
        ),
        "exec.worker.spawn_s": (
            _median(samples.get("exec.worker.spawn_s", [])), "s"
        ),
        "exec.shard.retry_ratio": (
            counters.get("exec.shard.failures", 0.0) / attempts
            if attempts else 0.0,
            "ratio",
        ),
        "service.journal.records": (
            counters.get("service.journal.records", 0.0), "count"
        ),
        "service.journal.s": (secs("service.journal"), "s"),
        "service.journal.bytes_written": (
            counters.get("service.journal.bytes_written", 0.0), "bytes"
        ),
        "service.journal.bytes_per_window": (
            counters.get("service.journal.bytes_written", 0.0) / windows
            if windows else 0.0,
            "bytes",
        ),
        "service.journal.compactions": (
            counters.get("service.journal.compactions", 0.0), "count"
        ),
        "service.journal.bytes_on_disk": (
            float(traced.info.get("journal_bytes", 0)), "bytes"
        ),
        "service.supervisor.cpu_s": (
            counters.get("service.supervisor.cpu_s", 0.0), "s"
        ),
        "service.windows.fresh": (float(fresh), "count"),
        "service.windows.stale": (
            float(traced.info.get("windows", {}).get("stale", 0)), "count"
        ),
        "service.windows.shed": (
            float(traced.info.get("windows", {}).get("shed", 0)), "count"
        ),
        "service.control.refused": (
            float(traced.info.get("refused", 0)), "count"
        ),
        "sweep.plan.s": (secs("sweep.plan"), "s"),
        "sweep.aggregate.s": (secs("sweep.aggregate"), "s"),
        "sweep.journal.s": (secs("sweep.journal"), "s"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead": (overhead, "ratio"),
        "trace.wall_s": (wall, "s"),
    }
    for layer in tracer.LAYERS:
        metrics[f"layer.{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    _write_outputs(
        out_dir, label, events, dropped, stats, layers, on_root, wall,
        coverage, overhead, samples,
    )
    notes = {
        "dispatch_lag_samples": len(lag),
        "transport_batches": len(samples.get("exec.batches", [])),
        "worker_spawn_samples": len(samples.get("exec.worker.spawn_s", [])),
        "coverage_ok": coverage >= MIN_COVERAGE,
        "dropped_events": dropped,
    }
    return metrics, notes


def _transport_ms(batches: list, events: list) -> list[float]:
    """Per dispatch batch: backend wall minus its busiest worker's compute.

    The busiest worker computes for the whole batch except while a shard
    travels to or from it (spawn or claim, encode, file or pipe, decode),
    so the remainder is the transport's share of the batch.
    """
    shards: dict[str, list] = {}
    for event in events:
        if event["name"] == "exec.shard" and "trace" in event["args"]:
            shards.setdefault(event["args"]["trace"], []).append(event)
    overheads = []
    for start, end, keys in batches:
        busy: dict[int, float] = {}
        for key in keys:
            for event in shards.get(key, []):
                if start * 1e6 <= event["ts"] <= end * 1e6:
                    busy[event["pid"]] = busy.get(event["pid"], 0.0) + (
                        event["dur"] / 1e6
                    )
        if busy:
            overheads.append((end - start - max(busy.values())) * 1e3)
    return overheads


def _write_outputs(
    out_dir, label, events, dropped, stats, layers, on_root, wall,
    coverage, overhead, samples,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    base = min((event["ts"] for event in events), default=0.0)
    for event in events:
        event["ts"] -= base
    trace = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"label": label, "dropped_events": dropped},
    }
    with open(os.path.join(out_dir, f"{label}.trace.json"), "w") as handle:
        json.dump(trace, handle)
    lines = [
        f"{label}: traced unit wall {wall:.3f} s, root-thread coverage "
        f"{coverage:.1%} (layers + idle), tracing overhead {overhead:+.1%}",
        "",
        f"{'layer':<14}{'self s (all)':>14}{'self s (root)':>15}{'calls':>10}",
    ]
    for layer in tracer.LAYERS:
        layer_calls = sum(c for c, _, owner in stats.values() if owner == layer)
        lines.append(
            f"{layer:<14}{layers.get(layer, 0.0):>14.3f}"
            f"{on_root.get(layer, 0.0):>15.3f}{layer_calls:>10d}"
        )
    lines += ["", f"{'span':<28}{'layer':<14}{'calls':>10}{'incl s':>12}"]
    for name, (calls, seconds, layer) in sorted(
        stats.items(), key=lambda item: -item[1][1]
    ):
        lines.append(f"{name:<28}{layer:<14}{calls:>10d}{seconds:>12.3f}")
    for name, values in sorted(samples.items()):
        if not all(isinstance(value, (int, float)) for value in values):
            continue  # structured samples (dispatch batches)
        lines.append(
            f"{name}: n={len(values)} median={_median(values):.3f}"
        )
    with open(os.path.join(out_dir, f"{label}.layers.txt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")

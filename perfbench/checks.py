"""Output checks and per-unit end-to-end figures.

Everything here reads what a unit left behind -- the session journal or
the sweep journal, and the unit's timeline -- after the timed region.

Checks (any mismatch makes the run incorrect):

- sweep-grid: every one of the grid's cells is journaled, and each
  cell's :func:`repro.reference.run_digest` equals its ``fig9`` entry;
- serving: every admitted camera journaled exactly its window count, and
  its final window, when served fresh, carries the ``fig9`` digest (the
  final window of an incremental stream *is* the full-cell result).

A camera whose final window was not served fresh cannot be checked; its
unserved windows count as failed operations instead.
"""

from __future__ import annotations

import json
import os
import statistics

import workloads


class BenchError(Exception):
    """A run that cannot produce a result (exit status 2)."""


def load_reference(root: str) -> dict:
    path = os.path.join(root, "tests", "reference", "digests_float64.json")
    with open(path) as handle:
        reference = json.load(handle)
    return reference["fig9"]


def percentile(values: list, q: int) -> float:
    """The q-th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def _read_journal(path: str) -> list[dict]:
    records = []
    with open(path) as handle:
        next(handle)  # header
        for line in handle:
            records.append(json.loads(line))
    return records


def _window_accuracy(result: dict, start: float, end: float) -> tuple:
    from repro.core.snapshot import decode_array

    times = decode_array(result["times"])
    correct = decode_array(result["correct"])
    mask = (times >= start) & (times < end)
    return int(mask.sum()), int(correct[mask].sum())


class UnitOutcome:
    """What one unit produced: figures, sample lists and check results."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.figures: dict[str, float] = {}
        self.latencies_ms: list[float] = []
        self.info: dict = {}

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "figures": self.figures,
            "info": self.info,
        }


def check_serve(
    reference: dict,
    out_dir: str,
    timeline: dict,
    *,
    speedup: float,
    offered: list[tuple[str, str, str]],
    refused: int,
    start: float,
) -> UnitOutcome:
    """Check and measure one serving unit.

    ``offered`` lists every camera the unit tried to serve; ``refused``
    of them were turned away at admission (their windows all count as
    missed and failed).  ``start`` is the unit's start on the monotonic
    clock (the first scheduled admission for the paced workload).
    """
    from repro.service.pacing import window_count, window_span

    outcome = UnitOutcome()
    records = _read_journal(os.path.join(out_dir, "session.jsonl"))
    streams = {}
    for record in records:
        if record["kind"] == "admit":
            streams[record["stream"]] = {
                "cell": record["cell"],
                "duration_s": record["duration_s"],
                "window_s": record["window_s"],
                "windows": {},
            }
        elif record["kind"] == "window":
            streams[record["stream"]]["windows"][record["index"]] = record
    completions = {}
    for key, index, mode, at in timeline["windows"]:
        completions.setdefault((key, index), at)
    windows_per_camera = window_count(workloads.DURATION_S, workloads.WINDOW_S)
    total_windows = windows_per_camera * (len(streams) + refused)
    outcome.attempted = total_windows
    missed = refused * windows_per_camera
    served_frames = 0.0
    frame_total = 0
    stream_s = 0.0
    last_done = start
    counts = {"fresh": 0, "stale": 0, "shed": 0}
    for key, stream in sorted(streams.items()):
        cell = stream["cell"]
        ref = reference.get(
            workloads.fig9_key(cell["system"], cell["pair"], cell["scenario"])
        )
        windows = stream["windows"]
        duration, window_s = stream["duration_s"], stream["window_s"]
        expected = window_count(duration, window_s)
        if ref is None:
            outcome.mismatches.append(f"{key}: not a fig9 cell")
        if len(windows) != expected or sorted(windows) != list(
            range(expected)
        ):
            outcome.mismatches.append(
                f"{key}: journaled {len(windows)} windows, expected {expected}"
            )
        epoch = timeline["epochs"].get(key)
        for index, record in sorted(windows.items()):
            mode = record["mode"]
            counts[mode] = counts.get(mode, 0) + 1
            begin, end = window_span(index, duration, window_s)
            frames = int(record.get("frames", 0))
            frame_total += frames
            done = completions.get((key, index))
            if done is not None:
                last_done = max(last_done, done)
            if mode == "fresh":
                stream_s += end - begin
                counted, correct = _window_accuracy(record["result"], begin, end)
                served_frames += correct if counted == frames else (
                    correct / counted * frames if counted else 0.0
                )
                arrival = epoch if not speedup else epoch + end / speedup
                latency = done - arrival
                outcome.latencies_ms.append(latency * 1e3)
                if speedup and latency > window_s / speedup:
                    missed += 1
            elif mode == "stale":
                served_frames += float(record.get("accuracy", 0.0)) * frames
                missed += 1
                outcome.failed += 1
            else:
                missed += 1
                outcome.failed += 1
        final = windows.get(expected - 1)
        if final is None or final["mode"] != "fresh":
            missed += expected - len(windows)
            outcome.failed += expected - len(windows)
            continue
        if ref is not None and final.get("digest") != ref["digest"]:
            outcome.mismatches.append(
                f"{key}: final window digest {final.get('digest')} != "
                f"fig9 {ref['digest']}"
            )
    outcome.failed += refused * windows_per_camera
    offered_keys = {
        workloads.fig9_key(*camera) for camera in offered
    }
    served_keys = {
        workloads.fig9_key(s["cell"]["system"], s["cell"]["pair"],
                           s["cell"]["scenario"])
        for s in streams.values()
    }
    if len(served_keys) + refused != len(offered_keys):
        outcome.mismatches.append(
            f"served {len(served_keys)} + refused {refused} cameras, "
            f"offered {len(offered_keys)}"
        )
    wall = (
        timeline["unit"]["end"] - timeline["unit"]["start"]
        if not speedup
        else last_done - start
    )
    outcome.figures = {
        "wall_s": wall,
        "stream_s": stream_s,
        "serve_stream_s_per_s": stream_s / wall,
        "sweep_cells_per_s": len(streams) / wall,
        "served_accuracy": served_frames / frame_total if frame_total else 0.0,
        "window_miss_ratio": missed / total_windows,
        "window_ontime_ratio": 1.0 - missed / total_windows,
    }
    outcome.info = {
        "cameras": len(streams),
        "refused": refused,
        "windows": counts,
        "journal_bytes": os.path.getsize(
            os.path.join(out_dir, "session.jsonl")
        ),
    }
    return outcome


def check_sweep(
    reference: dict, out_dir: str, timeline: dict, cells: list
) -> UnitOutcome:
    """Check and measure one sweep unit against the fig9 digests."""
    from repro.exec.protocol import decode_result
    from repro.reference import run_digest

    outcome = UnitOutcome()
    outcome.attempted = len(cells)
    path = os.path.join(out_dir, "sweep_perfbench_fig9.journal.jsonl")
    results = {}
    for record in _read_journal(path):
        for entry in record.get("entries", []):
            results[entry["key"]] = entry["result"]
    done_at = {key: at for key, at in timeline["sweep_cells"]}
    start = timeline["unit"]["start"]
    frames = 0
    correct = 0
    for system, pair, scenario in cells:
        label = f"{system}/{pair}/{scenario}/s0/{workloads.DURATION_S:g}s"
        key = f"float64|system|{label}|{float(workloads.DURATION_S).hex()}"
        ref = reference[workloads.fig9_key(system, pair, scenario)]
        payload = results.get(key)
        if payload is None:
            outcome.failed += 1
            outcome.mismatches.append(f"{label}: not journaled")
            continue
        result = decode_result(payload)
        digest = run_digest(result)
        if digest != ref["digest"]:
            outcome.mismatches.append(
                f"{label}: digest {digest} != fig9 {ref['digest']}"
            )
        frames += len(result.correct)
        correct += int(result.correct.sum())
        outcome.latencies_ms.append((done_at[key] - start) * 1e3)
    wall = timeline["unit"]["end"] - start
    outcome.figures = {
        "wall_s": wall,
        "stream_s": len(cells) * workloads.DURATION_S,
        "serve_stream_s_per_s": len(cells) * workloads.DURATION_S / wall,
        "sweep_cells_per_s": len(cells) / wall,
        "served_accuracy": correct / frames if frames else 0.0,
        "window_miss_ratio": 0.0,
        "window_ontime_ratio": 1.0,
    }
    outcome.info = {"cells": len(cells), "journaled": len(results)}
    return outcome


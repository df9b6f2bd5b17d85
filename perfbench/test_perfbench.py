"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The output checks must catch a wrong result: one altered expected digest
makes a unit incorrect, both on synthetic journals (fast) and on a real
serve-eager unit (about half a minute).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _result(system: str, scenario: str, pair: str, flip: int = 0):
    from repro.core.results import RunResult

    times = np.arange(0.0, workloads.DURATION_S, 1.0)
    correct = (np.arange(times.size) + flip) % 3 != 0
    return RunResult(
        system=system,
        scenario=scenario,
        pair=pair,
        times=times,
        correct=correct,
        dropped=np.zeros(times.size, dtype=bool),
        phases=(),
        duration_s=workloads.DURATION_S,
        energy_j=1.0,
        average_power_w=1.0,
    )


def _sweep_fixture(tmp_path, cells):
    from repro.exec.protocol import encode_result
    from repro.reference import run_digest

    reference = {}
    entries = []
    for index, (system, pair, scenario) in enumerate(cells):
        result = _result(system, scenario, pair, flip=index)
        label = f"{system}/{pair}/{scenario}/s0/{workloads.DURATION_S:g}s"
        key = f"float64|system|{label}|{float(workloads.DURATION_S).hex()}"
        entries.append({"key": key, "result": encode_result(result)})
        reference[workloads.fig9_key(system, pair, scenario)] = {
            "digest": run_digest(result)
        }
    journal = tmp_path / "sweep_perfbench_fig9.journal.jsonl"
    journal.write_text(
        json.dumps({"kind": "header"}) + "\n"
        + json.dumps({"kind": "shard", "entries": entries}) + "\n"
    )
    timeline = {
        "unit": {"start": 0.0, "end": 2.0},
        "sweep_cells": [[entry["key"], 1.5] for entry in entries],
    }
    return reference, timeline


def test_sweep_check_passes_on_matching_digests(tmp_path):
    cells = workloads.sweep_cells(0)[:4]
    reference, timeline = _sweep_fixture(tmp_path, cells)
    outcome = checks.check_sweep(reference, str(tmp_path), timeline, cells)
    assert outcome.mismatches == []
    assert outcome.attempted == 4 and outcome.failed == 0
    assert outcome.figures["sweep_cells_per_s"] == pytest.approx(2.0)


def test_one_altered_digest_fails_the_sweep_check(tmp_path):
    cells = workloads.sweep_cells(0)[:4]
    reference, timeline = _sweep_fixture(tmp_path, cells)
    reference[workloads.fig9_key(*cells[2])]["digest"] = "0" * 64
    outcome = checks.check_sweep(reference, str(tmp_path), timeline, cells)
    assert len(outcome.mismatches) == 1
    assert cells[2][2] in outcome.mismatches[0]


def test_one_altered_digest_fails_a_real_serve_unit(monkeypatch, tmp_path):
    """A real serve-eager run: correct as is, incorrect once one camera's
    expected digest is altered."""
    import run as bench

    monkeypatch.setattr(workloads, "EAGER_CAMERAS", 2)
    results = {}
    for altered in (False, True):
        job = bench.Run(ROOT, "serve-eager", 5, 1, False)
        try:
            if altered:
                camera = job.job_base["cells"][0]
                job.reference = dict(job.reference)
                job.reference[workloads.fig9_key(*camera)] = {"digest": "f" * 64}
            job.execute()
        finally:
            job.box.close()
        results[altered] = [m for o in job.outcomes for m in o.mismatches]
    assert results[False] == []
    assert len(results[True]) == 1 and "final window digest" in results[True][0]


def test_draws_are_deterministic_and_stratified():
    assert workloads.eager_cameras(3) == workloads.eager_cameras(3)
    assert workloads.paced_sessions(3) == workloads.paced_sessions(3)
    for seed in range(20):
        eager = workloads.eager_cameras(seed)
        assert len(set(eager)) == workloads.EAGER_CAMERAS
        assert {s for _, _, s in eager} == set(workloads.FIG9_SCENARIOS)
        sessions = workloads.paced_sessions(seed)
        assert len(sessions) == workloads.PACED_SESSIONS
        paced = [camera for session in sessions for camera, _ in session]
        assert len(set(paced)) == workloads.PACED_CAMERAS
        pairs = [pair for _, pair, _ in paced]
        assert sorted(pairs.count(p) for p in workloads.FIG9_PAIRS) == [3, 3, 4]
        for session in sessions:
            offsets = [offset for _, offset in session]
            assert offsets == sorted(offsets)
            assert offsets[-1] < workloads.PACED_SPREAD_S
    assert sorted(workloads.sweep_cells(1)) == sorted(workloads.sweep_cells(2))
    assert workloads.sweep_cells(1) != workloads.sweep_cells(2)


def test_self_time_excludes_child_spans(tmp_path):
    recorder = tracer.Recorder(str(tmp_path))
    outer = recorder.begin("outer", "service")
    inner = recorder.begin("inner", "exec")
    time.sleep(0.02)
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.stats["outer"][0] == 1
    assert recorder.stats["outer"][1] >= recorder.stats["inner"][1] >= 0.02
    assert recorder.layer_self["exec"] >= 0.02
    assert recorder.layer_self["service"] < 0.01
    recorder.flush()
    payload = json.loads((tmp_path / f"spans-{os.getpid()}.json").read_text())
    assert {event["name"] for event in payload["events"]} == {"outer", "inner"}


def test_run_fails_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-eager",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "not a checkout" in proc.stderr

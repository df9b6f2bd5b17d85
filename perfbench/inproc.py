"""The benchmark's in-program side: one set-up or one measured unit.

``python perfbench/inproc.py JOB.json`` runs inside the program's own
process (``repro`` imported from the checkout's ``src``) and does one of:

- ``mode: setup`` -- a device's one-time set-up on the cold cache named by
  ``$REPRO_CACHE_DIR``: import the program, pretrain every model pair the
  workload uses (:func:`repro.exec.shard.warm_model_caches`), materialize
  every stream it will read, and start its workers where it has any;
- ``mode: unit`` -- one measured unit of the workload through the public
  entry points: :class:`~repro.service.daemon.FleetService` for the two
  serving workloads (the paced one with its HTTP control plane, driven by
  ``run.py`` as the client) and ``repro sweep`` for the grid.

Every unit records a *timeline* (``job["timeline"]``): when each stream
was admitted and paced (``StreamPacer.epoch``), when each window or cell
was journaled, and the unit's own start and end.  These probes are three
cheap wrappers and run in untraced units too, because the end-to-end
latencies are defined by them.  With ``job["trace_dir"]`` set, the layer
spans of :mod:`tracer` are installed as well (see :func:`install_tracing`).
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import tracer  # noqa: E402  (the benchmark's own module, beside this file)

#: Environment variable naming the trace directory for queue workers
#: started through ``worker_entry.py``.
TRACE_ENV = "PERFBENCH_TRACE_DIR"


def _boot_time_s() -> float:
    return time.clock_gettime(time.CLOCK_BOOTTIME)


def _process_start_s() -> float:
    """This process's start, in CLOCK_BOOTTIME seconds (tick resolution)."""
    with open(f"/proc/{os.getpid()}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[19]) / os.sysconf("SC_CLK_TCK")


# -- timeline probes (every unit) -------------------------------------------


class Timeline:
    """Admission epochs and journal completion times of one unit."""

    def __init__(self) -> None:
        self.epochs: dict[str, float] = {}
        self.cells: dict[str, list] = {}
        self.windows: list[list] = []
        self.sweep_cells: list[list] = []
        self.unit: dict[str, float] = {}
        self._pending: list[tuple[str, object, float]] = []
        self.pacers: dict[tuple, tuple] = {}

    def dump(self, path: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        payload = {
            "epochs": self.epochs,
            "cells": self.cells,
            "windows": self.windows,
            "sweep_cells": self.sweep_cells,
            "unit": self.unit,
            "maxrss_kb": usage.ru_maxrss,
        }
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def install_probes(timeline: Timeline) -> None:
    from repro.exec import scheduler as scheduler_module
    from repro.service import pacing
    from repro.service import session as session_module

    journal_cls = session_module.SessionJournal
    admit = journal_cls.record_admit
    record_window = journal_cls.record_window
    make_pacer = pacing.FrameClock.pacer
    sweep_record = scheduler_module.SweepJournal.record

    def probe_admit(self, key, cell, policy, duration_s, window_s):
        log = admit(self, key, cell, policy, duration_s, window_s)
        timeline._pending.append((key, cell, float(window_s)))
        timeline.cells[key] = [
            cell.system, cell.pair, cell.scenario, cell.seed, duration_s
        ]
        return log

    def probe_pacer(self, *args, **kwargs):
        pacer = make_pacer(self, *args, **kwargs)
        if timeline._pending:
            key, cell, window_s = timeline._pending.pop()
            timeline.epochs[key] = pacer.epoch
            identity = (cell.system, cell.pair, cell.scenario, cell.seed)
            timeline.pacers[identity] = (pacer, window_s)
        return pacer

    def probe_window(self, key, index, mode, **kwargs):
        record = record_window(self, key, index, mode, **kwargs)
        timeline.windows.append([key, int(index), mode, time.monotonic()])
        return record

    def probe_sweep(self, spec, result):
        sweep_record(self, spec, result)
        now = time.monotonic()
        from repro.exec.shard import cell_key

        for cell in spec.cells:
            timeline.sweep_cells.append([cell_key(spec.policy, cell), now])

    journal_cls.record_admit = probe_admit
    journal_cls.record_window = probe_window
    pacing.FrameClock.pacer = probe_pacer
    scheduler_module.SweepJournal.record = probe_sweep


# -- tracing (traced units only) --------------------------------------------


def _nbytes(payload) -> int:
    """Approximate JSON size of a payload (string lengths plus scalars)."""
    if isinstance(payload, str):
        return len(payload) + 2
    if isinstance(payload, dict):
        return sum(len(k) + 4 + _nbytes(v) for k, v in payload.items())
    if isinstance(payload, (list, tuple)):
        return sum(_nbytes(v) + 1 for v in payload)
    return 8


def install_tracing(trace_dir: str, timeline: Timeline | None = None) -> None:
    """Wrap each layer's public calls in spans (see :mod:`tracer`)."""
    import concurrent.futures._base as futures_base
    import queue as queue_module

    def module(name):
        # import_module, not ``import a.b as c``: a package attribute can
        # shadow its submodule (``repro.mx.quantize`` is also a function).
        return importlib.import_module(f"repro.{name}")

    simulator = module("accelerator.simulator")
    snapshot = module("core.snapshot")
    system = module("core.system")
    artifacts = module("data.artifacts")
    stream = module("data.stream")
    backends = module("exec.backends")
    protocol = module("exec.protocol")
    queue_backend = module("exec.queue")
    scheduler = module("exec.scheduler")
    shard = module("exec.shard")
    mlp = module("learn.mlp")
    quantize = module("mx.quantize")
    profiling = module("profiling")
    reference = module("reference")
    daemon = module("service.daemon")
    session = module("service.session")
    aggregate = module("sweep.aggregate")
    plan = module("sweep.plan")
    sweep_run = module("sweep.run")
    sweep_spec = module("sweep.spec")
    from repro.exec.shard import ShardFailure

    tracer.start(trace_dir)
    os.register_at_fork(after_in_child=lambda: _child_recorder(trace_dir))
    atexit.register(lambda: tracer.recorder() and tracer.recorder().flush())

    def rec():
        return tracer.recorder()

    # mx
    tracer.patch_function(
        quantize, "quantize", "mx.quantize", "mx",
        after=lambda t, a, k, r, e, f: rec().count(
            "mx.quantize.elems", float(getattr(a[0], "size", 0))
        ),
    )
    # learn
    tracer.patch_method(mlp.MLPClassifier, "forward", "learn.forward", "learn")
    tracer.patch_method(
        mlp.MLPClassifier, "train_step", "learn.train_step", "learn"
    )

    # data
    def store_after(token, args, kwargs, result, error, frame):
        rec().count("data.store.gets")

    tracer.patch_method(
        stream.ScenarioStream, "generate", "data.generate", "data",
        after=lambda t, a, k, r, e, f: rec().count("data.store.generated"),
    )
    tracer.patch_function(artifacts, "materialize", "data.materialize", "data")
    tracer.patch_method(
        artifacts.ArtifactStore, "get", "data.materialize", "data",
        after=store_after,
    )

    # Phase scopes the program already opens: inference, label, retrain,
    # pretrain, materialize.
    scope_names = {
        profiling.INFERENCE: ("core.phase.inference", "core"),
        profiling.LABEL: ("core.phase.label", "core"),
        profiling.RETRAIN: ("core.phase.retrain", "core"),
        profiling.PRETRAIN: ("learn.pretrain", "learn"),
        profiling.MATERIALIZE: ("data.materialize", "data"),
    }
    original_scope = profiling.scope

    class _SpanScope:
        __slots__ = ("name", "layer", "inner", "frame")

        def __init__(self, name, layer, inner):
            self.name, self.layer, self.inner = name, layer, inner

        def __enter__(self):
            self.frame = rec().begin(self.name, self.layer)
            self.inner.__enter__()
            return self

        def __exit__(self, *exc):
            try:
                return self.inner.__exit__(*exc)
            finally:
                rec().end(self.frame)

    def traced_scope(name):
        inner = original_scope(name)
        target = scope_names.get(name)
        recorder = rec()
        if target is None or recorder is None or recorder.pid != os.getpid():
            return inner
        return _SpanScope(target[0], target[1], inner)

    profiling.scope = traced_scope

    # core: label/retrain steps run their work in the step's commit.
    def wrap_step(method, name):
        def wrapped(self, *args, **kwargs):
            step, outcome = method(self, *args, **kwargs)
            if step is not None and step.commit is not None:
                step = replace(
                    step, commit=tracer.wrap(step.commit, name, "core")
                )
            return step, outcome

        wrapped.__perfbench__ = True
        return wrapped

    system.CLSystemBase.do_label = wrap_step(
        system.CLSystemBase.do_label, "core.phase.label"
    )
    system.CLSystemBase.do_retrain = wrap_step(
        system.CLSystemBase.do_retrain, "core.phase.retrain"
    )
    tracer.patch_method(system.RunExecution, "run_to_end", "core.run", "core")
    tracer.patch_function(
        snapshot, "encode_run_snapshot", "core.snapshot.encode", "core",
        after=lambda t, a, k, r, e, f: rec().count(
            "core.snapshot.bytes", float(_nbytes(r))
        ),
    )

    def decode_after(token, args, kwargs, result, error, frame):
        rec().count("core.snapshot.decodes")
        if error is None:
            rec().count("core.snapshot.resumed")

    tracer.patch_function(
        snapshot, "decode_run_snapshot", "core.snapshot.decode", "core",
        after=decode_after,
    )

    # accelerator
    for method in (
        "forward_latency_s", "inference_throughput", "training_throughput"
    ):
        tracer.patch_method(
            simulator.AcceleratorSimulator, method, "accelerator.timing",
            "accelerator",
        )

    # exec
    def cell_trace(args, kwargs):
        cell = args[0] if args else kwargs.get("cell")
        return shard.cell_key(_policy(), cell)

    def shard_trace(args, kwargs):
        return args[0].key

    def shard_before(args, kwargs):
        recorder = rec()
        if not _IN_UNIT[0] and "exec.worker.spawn_s" not in recorder.samples:
            # From process start to its first shard: the spawn, import
            # and claim a worker pays before it computes anything.
            recorder.sample(
                "exec.worker.spawn_s", _boot_time_s() - _process_start_s()
            )
        return None

    def shard_after(token, args, kwargs, result, error, frame):
        # Pool and queue workers may never run exit handlers; flush now
        # and then so their spans survive.
        if not _IN_UNIT[0] and time.perf_counter() - _LAST_FLUSH[0] > 1.0:
            _LAST_FLUSH[0] = time.perf_counter()
            rec().flush()

    tracer.patch_function(
        shard, "execute_shard", "exec.shard", "exec",
        trace=shard_trace, before=shard_before, after=shard_after,
    )
    for name in ("run_cell", "run_cell_incremental"):
        tracer.patch_function(
            shard, name, "exec.shard", "exec", trace=cell_trace
        )
    tracer.patch_function(shard, "make_shard_specs", "sweep.plan", "sweep")

    def dispatch_before(args, kwargs):
        specs = args[1] if len(args) > 1 else kwargs["specs"]
        now = time.monotonic()
        for spec in specs:
            arrival = _arrival(timeline, spec)
            if arrival is not None:
                rec().sample("exec.dispatch.lag_ms", (now - arrival) * 1e3)
        return None

    tracer.patch_method(
        scheduler.Scheduler, "run", "exec.dispatch", "exec",
        before=dispatch_before,
    )
    tracer.patch_method(
        scheduler.SweepJournal, "record", "sweep.journal", "sweep"
    )

    def backend_before(args, kwargs):
        return time.perf_counter()

    def backend_after(token, args, kwargs, result, error, frame):
        # One dispatch batch: when it was handed to the backend, when the
        # backend returned, and its shard keys -- traceview matches them
        # with the workers' shard spans to split transport from compute.
        recorder = rec()
        specs = args[1] if len(args) > 1 else kwargs["specs"]
        recorder.sample(
            "exec.batches",
            [token, time.perf_counter(), [spec.key for spec in specs]],
        )
        for outcome in result or ():
            recorder.count("exec.shard.attempts")
            if isinstance(outcome, ShardFailure):
                recorder.count("exec.shard.failures")

    for cls in (
        backends.SerialBackend,
        backends.ProcessPoolBackend,
        backends.SubprocessWorkerBackend,
        queue_backend.QueueBackend,
    ):
        tracer.patch_method(
            cls, "run", "exec.backend", "exec",
            before=backend_before, after=backend_after,
        )

    def encoded_size(token, args, kwargs, result, error, frame):
        if isinstance(result, str):
            rec().count("exec.protocol.bytes", float(len(result)))

    def file_size_after(token, args, kwargs, result, error, frame):
        try:
            rec().count(
                "exec.protocol.bytes", float(os.path.getsize(args[0]))
            )
        except (OSError, TypeError):
            pass

    def file_size_before(args, kwargs):
        try:
            return os.path.getsize(args[0])
        except (OSError, TypeError):
            return 0

    def read_after(token, args, kwargs, result, error, frame):
        rec().count("exec.protocol.bytes", float(token))

    for name in dir(protocol):
        if name.startswith("encode_"):
            tracer.patch_function(
                protocol, name, "exec.protocol.encode", "exec",
                after=encoded_size if name == "encode_message" else None,
            )
        elif name.startswith("decode_"):
            tracer.patch_function(
                protocol, name, "exec.protocol.decode", "exec"
            )
    tracer.patch_function(
        protocol, "write_message_file", "exec.protocol.encode", "exec",
        after=file_size_after,
    )
    tracer.patch_function(
        protocol, "read_message_file", "exec.protocol.decode", "exec",
        before=file_size_before, after=read_after,
    )

    # service
    journal_cls = session.SessionJournal
    for name in (
        "record_admit", "record_window", "record_snapshot",
        "record_cluster", "record_degrade", "record_retire", "record_event",
    ):
        tracer.patch_method(
            journal_cls, name, "service.journal", "service",
            after=lambda t, a, k, r, e, f: rec().count(
                "service.journal.records"
            ),
        )

    def append_before(args, kwargs):
        try:
            return os.path.getsize(args[0].path)
        except OSError:
            return 0

    def append_after(token, args, kwargs, result, error, frame):
        try:
            size = os.path.getsize(args[0].path)
        except OSError:
            return
        rec().count("service.journal.bytes_written", float(size - token))

    def compact_after(token, args, kwargs, result, error, frame):
        recorder = rec()
        recorder.count("service.journal.compactions")
        try:
            recorder.count(
                "service.journal.bytes_written",
                float(os.path.getsize(args[0].path)),
            )
        except OSError:
            pass

    tracer.patch_method(
        journal_cls, "_append", "service.journal", "service",
        before=append_before, after=append_after,
    )
    tracer.patch_method(
        journal_cls, "_compact", "service.journal", "service",
        after=compact_after,
    )

    def run_before(args, kwargs):
        return time.thread_time()

    def run_after(token, args, kwargs, result, error, frame):
        rec().count("service.supervisor.cpu_s", time.thread_time() - token)

    tracer.patch_method(
        daemon.FleetService, "run", "service.run", "service",
        before=run_before, after=run_after,
    )
    tracer.patch_method(
        daemon.FleetService, "_publish_snapshot", "service.state", "service"
    )
    tracer.patch_method(
        daemon.FleetService, "command_admit", "service.control", "service"
    )
    tracer.patch_function(reference, "run_digest", "service.digest", "service")

    # sweep
    tracer.patch_function(sweep_spec, "load_spec", "sweep.plan", "sweep")
    tracer.patch_function(plan, "compile_plan", "sweep.plan", "sweep")
    for name in ("aggregate_rows", "cell_row"):
        tracer.patch_function(aggregate, name, "sweep.aggregate", "sweep")
    tracer.patch_function(
        sweep_run, "write_outputs", "sweep.aggregate", "sweep"
    )
    tracer.patch_function(sweep_run, "run_sweep", "sweep.run", "sweep")

    # idle: sleeps and blocking waits, on every thread.
    time.sleep = tracer.wrap(time.sleep, "idle.sleep", "idle")
    futures_base.Future.result = tracer.wrap(
        futures_base.Future.result, "idle.wait", "idle"
    )
    blocking_get = queue_module.Queue.get

    def queue_get(self, block=True, timeout=None):
        if not block:
            return blocking_get(self, False)
        return _traced_get(self, block, timeout)

    _traced_get = tracer.wrap(blocking_get, "idle.wait", "idle")
    queue_get.__perfbench__ = True
    queue_module.Queue.get = queue_get


#: True in the unit's own process (not in its pool or queue workers).
_IN_UNIT = [False]
_LAST_FLUSH = [0.0]


def _child_recorder(trace_dir: str) -> None:
    """A forked pool worker records into its own file."""
    import multiprocessing.util

    _IN_UNIT[0] = False
    recorder = tracer.start(trace_dir)
    multiprocessing.util.Finalize(None, recorder.flush, exitpriority=10)


def _policy() -> str:
    from repro.numeric import active_policy

    return active_policy().name


def _arrival(timeline: Timeline | None, spec) -> float | None:
    """Scheduled arrival of a spec's window (serve) or unit start (sweep)."""
    if timeline is None or not spec.cells:
        return None
    cell = spec.cells[0]
    entry = timeline.pacers.get(
        (cell.system, cell.pair, cell.scenario, cell.seed)
    )
    if entry is None:
        return timeline.unit.get("start")
    pacer, window_s = entry
    end = float(cell.duration_s or 0.0)
    index = max(0, int(round(end / window_s)) - 1)
    return pacer.arrival(min(index, pacer.windows - 1))


# -- the two modes ----------------------------------------------------------


def _cells(job: dict) -> list:
    from repro.exec.shard import SystemCell

    return [
        SystemCell(system, pair, scenario, 0, float(job["duration_s"]))
        for system, pair, scenario in job["cells"]
    ]


def run_setup(job: dict) -> None:
    """One cold set-up (see the module docstring)."""
    import repro.service.daemon  # noqa: F401  (the steady state's imports)
    import repro.sweep  # noqa: F401
    from repro.data.artifacts import materialize
    from repro.data.scenarios import build_scenario
    from repro.exec.shard import warm_model_caches
    from repro.service.pacing import window_count

    cells = _cells(job)
    warm_model_caches(cells)
    window_s = job.get("window_s")
    for scenario in sorted({cell.scenario for cell in cells}):
        duration = float(job["duration_s"])
        ends = [duration]
        if window_s:
            count = window_count(duration, window_s)
            ends = [min((i + 1) * window_s, duration) for i in range(count)]
        for end in ends:
            materialize(build_scenario(scenario, duration_s=end), 0)
    workers = int(job.get("workers", 0))
    if job["workload"] == "serve-paced":
        _spawn_queue_workers(job, workers)
    elif job["workload"] == "sweep-grid":
        _spawn_pool(workers)
    # The cache is a device's durable state: flush it now.  Left to the
    # kernel, hundreds of MB of dirty pages would be written back in the
    # middle of the measured unit and stall its journal's fsyncs.
    os.sync()


def _spawn_queue_workers(job: dict, workers: int) -> None:
    import subprocess

    from repro.exec.backends import _worker_env, default_worker_command
    from repro.exec.queue import QueueLayout

    layout = QueueLayout(job["queue_dir"]).create(30.0, 0.05)
    command = default_worker_command() + ["--queue", str(layout.root), "--drain"]
    procs = [
        subprocess.Popen(command, env=_worker_env()) for _ in range(workers)
    ]
    for proc in procs:
        if proc.wait(timeout=120) != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")


def _spawn_pool(workers: int) -> None:
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(os.getpid) for _ in range(workers)]:
            future.result()


def run_unit(job: dict, timeline: Timeline) -> None:
    """One measured unit of the workload."""
    workload = job["workload"]
    if workload == "sweep-grid":
        from repro.__main__ import main

        argv = [
            "sweep", job["spec_path"], "--backend", job["backend"],
            "--out", job["out_dir"],
        ]
        timeline.unit["start"] = time.monotonic()
        code = main(argv)
        timeline.unit["end"] = time.monotonic()
        if code != 0:
            raise SystemExit(code)
        return
    from repro.service.daemon import FleetService, ServiceConfig

    if workload == "serve-eager":
        config = ServiceConfig(out_dir=job["out_dir"])
        cells = _cells(job)
    else:
        config = ServiceConfig(
            out_dir=job["out_dir"],
            speedup=float(job["speedup"]),
            backend=job["backend"],
            control_port=0,
            stay=True,
        )
        cells = []
    service = FleetService(config, cells)
    timeline.unit["start"] = time.monotonic()
    service.run()
    timeline.unit["end"] = time.monotonic()


def main(argv: list[str]) -> int:
    with open(argv[0]) as handle:
        job = json.load(handle)
    trace_dir = job.get("trace_dir")
    if job["mode"] == "setup":
        if trace_dir:
            install_tracing(trace_dir)
        run_setup(job)
        return 0
    _IN_UNIT[0] = True
    timeline = Timeline()
    install_probes(timeline)
    if trace_dir:
        install_tracing(trace_dir, timeline)
        root = tracer.recorder().begin("unit", "unattributed")
    try:
        run_unit(job, timeline)
    finally:
        if trace_dir:
            recorder = tracer.recorder()
            duration = recorder.end(root)
            recorder.roots.append(
                {"thread": recorder.thread_name(), "wall_s": duration}
            )
            recorder.flush()
        timeline.dump(job["timeline"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

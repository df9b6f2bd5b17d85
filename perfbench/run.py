"""Fleet benchmark: serve-eager, serve-paced and sweep-grid.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-eager --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it carries the run's context (machine,
versions, knobs, seed, sample counts).  The full result set, and for a
traced run a Chrome trace and a per-layer table, are written under
``.perfbench_out/``.  See ``perfbench/README.md`` for what each workload
and metric means.

A run is hermetic: every file it makes lives under a fresh
``.perfbench_tmp/`` directory of the checkout (cache, outputs, queue,
temp files), removed at the end, and every ``REPRO_*`` knob the program
reads is set explicitly to its default.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import traceview  # noqa: E402
import workloads  # noqa: E402

#: Cold set-ups per untraced run; setup_s is their median.
SETUP_REPS = 1

#: Every knob the program reads from the environment, at its default.
#: Empty means "unset": the program then applies its built-in default.
KNOB_DEFAULTS = {
    "REPRO_DTYPE": "float64",
    "REPRO_SHARING": "off",
    "REPRO_BATCH": "off",
    "REPRO_WINDOW_MODE": "incremental",
    "REPRO_LEASE_TTL": "30",
    "REPRO_QUEUE_POLL": "0.05",
    "REPRO_BACKEND": "",
    "REPRO_JOBS": "",
    "REPRO_SHARD_TIMEOUT": "",
    "REPRO_FAULT_PLAN": "",
    "REPRO_EXEC_DIE_TOKEN": "",
    "REPRO_SWEEP_ABORT_AFTER_SHARDS": "",
    "REPRO_WORKER_CMD": "",
}

#: One BLAS thread per program process.  The multi-process workloads
#: run two workers, and numpy's BLAS would start a thread per core in
#: each: on a 2-CPU machine the spin-waiting threads oversubscribe the
#: cores, a unit burns twice the CPU it needs and its wall time follows
#: the host's scheduler (sweep-grid ran 1.5x slower).
#: The MLPs' matrices are too small for BLAS threads to pay off anyway.
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A unit must finish within this many seconds, or the run fails.
UNIT_TIMEOUT_S = 150.0


BenchError = checks.BenchError

# -- environment -------------------------------------------------------------


class Sandbox:
    """The run's private directory tree and child-process environment."""

    def __init__(self, root: str, label: str) -> None:
        self.root = root
        base = os.path.join(root, ".perfbench_tmp")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{label}-", dir=base)
        self.tmp = os.path.join(self.dir, "tmp")
        os.makedirs(self.tmp)
        self.procs: list[subprocess.Popen] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def env(self, cache: str, trace_dir: str | None = None) -> dict:
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith(("REPRO_", "PERFBENCH_"))
        }
        env.update(KNOB_DEFAULTS)
        env.update(BLAS_THREADS)
        env["REPRO_CACHE_DIR"] = cache
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["TMPDIR"] = self.tmp
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
            env["REPRO_WORKER_CMD"] = " ".join(
                shlex.quote(part)
                for part in (sys.executable, os.path.join(HERE, "worker_entry.py"))
            )
        return env

    def spawn(self, argv: list[str], env: dict, log: str) -> subprocess.Popen:
        with open(log, "ab") as handle:
            proc = subprocess.Popen(
                argv,
                env=env,
                cwd=self.root,
                stdin=subprocess.DEVNULL,
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.procs.append(proc)
        return proc

    def close(self) -> None:
        """Kill every process the run started, wait for all, clean up."""
        for proc in self.procs:
            # Each child leads its own session; its pool or queue workers
            # share it, so one group kill stops the whole tree.
            _kill_group(proc.pid)
            proc.wait()
        _wait_sessions({proc.pid for proc in self.procs})
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_sessions(sessions: set[int], timeout_s: float = 30.0) -> None:
    """Wait until no live process belongs to any of ``sessions``."""
    deadline = time.monotonic() + timeout_s
    while sessions and time.monotonic() < deadline:
        alive = False
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) in sessions and fields[0] != "Z":
                alive = True
                _kill_group(int(fields[2]))
        if not alive:
            return
        time.sleep(0.05)


def wait_or_fail(proc: subprocess.Popen, timeout: float, log: str, what: str):
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{what} timed out after {timeout:.0f}s; log: {tail(log)}")
    if code != 0:
        raise BenchError(f"{what} exited with {code}; log: {tail(log)}")


def tail(path: str, lines: int = 15) -> str:
    try:
        with open(path, errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])
    except OSError:
        return "(no log)"


# -- peak RSS of a process tree ---------------------------------------------


class RssSampler:
    """Peak RSS of a process tree: the sum over the program's process and
    each of its workers of that process's own peak (``VmHWM``), sampled
    while they run."""

    def __init__(self, pid: int, interval_s: float = 0.2) -> None:
        self.pid = pid
        self.interval_s = interval_s
        self.peaks_kb: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _tree(self) -> list[int]:
        pids = [self.pid]
        for current in pids:
            try:
                with open(f"/proc/{current}/task/{current}/children") as handle:
                    pids.extend(int(p) for p in handle.read().split())
            except OSError:
                pass
        return pids

    def sample(self) -> None:
        for pid in self._tree():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = int(line.split()[1])
                            self.peaks_kb[pid] = max(
                                self.peaks_kb.get(pid, 0), peak
                            )
                            break
            except (OSError, ValueError, IndexError):
                pass

    def total_kb(self, own_peak_kb: int) -> int:
        """The tree's peak, with the program's own final peak folded in."""
        peaks = dict(self.peaks_kb)
        peaks[self.pid] = max(peaks.get(self.pid, 0), own_peak_kb)
        return sum(peaks.values())

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


# -- one run -----------------------------------------------------------------


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: int,
                 trace: bool) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.box = Sandbox(root, f"{workload}-{seed}")
        self.reference = checks.load_reference(root)
        self.job_base = self._job_base()
        self.setups: list[float] = []
        self.outcomes: list[checks.UnitOutcome] = []
        self.admits: list[dict] = []
        self.trace_notes: dict = {}

    def _job_base(self) -> dict:
        job = {
            "workload": self.workload,
            "duration_s": workloads.DURATION_S,
            "workers": 0,
        }
        if self.workload == "serve-eager":
            job["cells"] = workloads.eager_cameras(self.seed)
            job["window_s"] = workloads.WINDOW_S
        elif self.workload == "serve-paced":
            self.sessions = workloads.paced_sessions(self.seed)
            job["cells"] = [
                camera for session in self.sessions for camera, _ in session
            ]
            job["window_s"] = workloads.WINDOW_S
            job["speedup"] = workloads.PACED_SPEEDUP
            job["backend"] = workloads.PACED_BACKEND
            job["workers"] = workloads.WORKERS
        else:
            job["cells"] = workloads.sweep_cells(self.seed)
            job["backend"] = workloads.SWEEP_BACKEND
            job["workers"] = workloads.WORKERS
            spec_path = self.box.path("fig9.json")
            with open(spec_path, "w") as handle:
                json.dump(workloads.sweep_spec(self.seed), handle)
            job["spec_path"] = spec_path
        return job

    def _write_job(self, name: str, **fields) -> str:
        job = dict(self.job_base, **fields)
        path = self.box.path(f"{name}.job.json")
        with open(path, "w") as handle:
            json.dump(job, handle)
        return path

    def program(self, job_path: str) -> list[str]:
        """Command running one set-up or unit in a fresh program process."""
        return [sys.executable, os.path.join(HERE, "inproc.py"), job_path]

    # -- set-up ---------------------------------------------------------

    def setup(self, index: int, trace_dir: str | None) -> str:
        """One cold set-up; returns its (now warm) cache directory."""
        cache = self.box.path(f"cache{index}")
        job = self._write_job(
            f"setup{index}", mode="setup", trace_dir=trace_dir,
            queue_dir=self.box.path(f"setupqueue{index}"),
        )
        log = self.box.path(f"setup{index}.log")
        started = time.perf_counter()
        proc = self.box.spawn(self.program(job), self.box.env(cache, trace_dir), log)
        wait_or_fail(proc, UNIT_TIMEOUT_S, log, "set-up")
        self.setups.append(time.perf_counter() - started)
        return cache

    # -- units ----------------------------------------------------------

    def unit(
        self, index: int, cache: str, trace_dir: str | None, session=None
    ) -> None:
        """One measured unit; ``session`` is serve-paced's admission list."""
        out = self.box.path(f"out{index}")
        timeline_path = self.box.path(f"timeline{index}.json")
        job = self._write_job(
            f"unit{index}", mode="unit", out_dir=out,
            timeline=timeline_path, trace_dir=trace_dir,
        )
        log = self.box.path(f"unit{index}.log")
        env = self.box.env(cache, trace_dir)
        proc = self.box.spawn(self.program(job), env, log)
        refused = 0
        start = None
        offered = self.job_base["cells"]
        with RssSampler(proc.pid) as sampler:
            if session is not None:
                offered = [camera for camera, _ in session]
                start, refused = self.drive_paced(proc, out, log, session)
            wait_or_fail(proc, UNIT_TIMEOUT_S, log, "unit")
        with open(timeline_path) as handle:
            timeline = json.load(handle)
        peak_kb = sampler.total_kb(timeline["maxrss_kb"])
        if self.workload == "sweep-grid":
            outcome = checks.check_sweep(
                self.reference, out, timeline, self.job_base["cells"]
            )
        else:
            outcome = checks.check_serve(
                self.reference, out, timeline,
                speedup=float(self.job_base.get("speedup", 0.0)),
                offered=[tuple(c) for c in offered],
                refused=refused,
                start=start if start is not None else timeline["unit"]["start"],
            )
        outcome.figures["peak_rss_mb"] = peak_kb / 1024.0
        outcome.info["traced"] = trace_dir is not None
        self.outcomes.append(outcome)
        shutil.rmtree(out, ignore_errors=True)

    def drive_paced(
        self, proc, out: str, log: str, session: list
    ) -> tuple[float, int]:
        """Act as the control-plane client: staggered admits, then drain."""
        port_file = os.path.join(out, "control.port")
        deadline = time.monotonic() + 60.0
        while not os.path.exists(port_file):
            if proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"service did not start; log: {tail(log)}")
            time.sleep(0.02)
        time.sleep(0.05)
        with open(port_file) as handle:
            port = int(handle.read())
        start = time.monotonic() + 0.25
        admitted = []
        refused = 0
        for (system, pair, scenario), offset in sorted(
            session, key=lambda item: item[1]
        ):
            scheduled = start + offset
            while True:
                remaining = scheduled - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(remaining, 0.05))
            sent = time.monotonic()
            status, body = http_json(port, "POST", "/admit", {
                "system": system, "pair": pair, "scenario": scenario,
                "seed": 0, "duration_s": workloads.DURATION_S,
            })
            self.admits.append({
                "camera": [system, pair, scenario],
                "scheduled": scheduled - start,
                "sent": sent - start,
                "late_ms": (sent - scheduled) * 1e3,
                "status": status,
            })
            if status == 503:
                refused += 1
            elif status != 200:
                raise BenchError(f"admit returned {status}: {body}")
            else:
                admitted.append(body["stream"])
        deadline = time.monotonic() + UNIT_TIMEOUT_S
        while time.monotonic() < deadline:
            status, state = http_json(port, "GET", "/state")
            streams = state.get("streams", {})
            if all(streams.get(key, {}).get("retired") for key in admitted):
                break
            # Polling shares the service's interpreter lock; keep it rare.
            time.sleep(1.0)
        else:
            raise BenchError("paced streams did not finish in time")
        http_json(port, "POST", "/drain", {})
        return start, refused

    # -- the whole run --------------------------------------------------

    def execute(self) -> dict:
        if self.trace:
            return self.execute_traced()
        caches = [self.setup(i, None) for i in range(SETUP_REPS)]
        for cache in caches[:-1]:
            shutil.rmtree(cache, ignore_errors=True)
        cache = caches[-1]
        if self.workload == "serve-paced":
            # Every session, whatever --seconds: their windows together
            # are the latency sample.
            for index, session in enumerate(self.sessions):
                self.unit(index, cache, None, session)
            return self.end_to_end()
        spent = 0.0
        index = 0
        while index == 0 or spent < self.seconds:
            started = time.perf_counter()
            self.unit(index, cache, None)
            spent += time.perf_counter() - started
            index += 1
        return self.end_to_end()

    def execute_traced(self) -> dict:
        trace_dir = self.box.path("trace")
        os.makedirs(trace_dir)
        cache = self.setup(0, trace_dir)
        # Twin units on the same inputs (serve-paced: its first session).
        session = self.sessions[0] if self.workload == "serve-paced" else None
        self.unit(0, cache, None, session)
        self.unit(1, cache, trace_dir, session)
        metrics, self.trace_notes = traceview.per_layer(
            trace_dir, self.workload, self.outcomes[0], self.outcomes[1],
            out_dir=os.path.join(self.root, ".perfbench_out"),
            label=f"{self.workload}-seed{self.seed}",
        )
        return metrics

    def end_to_end(self) -> dict:
        def median(name):
            return statistics.median(o.figures[name] for o in self.outcomes)

        latencies = [v for o in self.outcomes for v in o.latencies_ms]
        return {
            "serve_stream_s_per_s": (median("serve_stream_s_per_s"), "1/s"),
            "window_latency_p50_ms": (checks.percentile(latencies, 50), "ms"),
            "window_latency_p95_ms": (checks.percentile(latencies, 95), "ms"),
            "window_ontime_ratio": (median("window_ontime_ratio"), "ratio"),
            "served_accuracy": (median("served_accuracy"), "ratio"),
            "sweep_cells_per_s": (median("sweep_cells_per_s"), "1/s"),
            "setup_s": (statistics.median(self.setups), "s"),
            "peak_rss_mb": (max(o.figures["peak_rss_mb"] for o in self.outcomes), "MB"),
        }


def http_json(port: int, method: str, path: str, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


# -- context -----------------------------------------------------------------


def source_fingerprint(root: str) -> dict:
    """git sha and dirty flag when the checkout is a repository, plus a
    content hash of ``src/`` that identifies the program either way."""
    info = {"git_sha": None, "git_dirty": None}
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            info["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, capture_output=True, text=True, timeout=10,
                check=True,
            ).stdout
            info["git_dirty"] = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    info["src_sha256"] = digest.hexdigest()
    return info


def machine_context(root: str) -> dict:
    probe = (
        "import json, numpy, scipy, io, contextlib\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        "    cfg = numpy.show_config(mode='dicts')\n"
        "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
        "print(json.dumps({'numpy': numpy.__version__, "
        "'scipy': scipy.__version__, 'blas': blas.get('name'), "
        "'blas_version': blas.get('version')}))\n"
    )
    try:
        versions = json.loads(subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError):
        versions = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **versions,
        **source_fingerprint(root),
    }


# -- entry point --------------------------------------------------------------


def check_checkout(root: str) -> None:
    needed = [
        os.path.join(root, "src", "repro", "__init__.py"),
        os.path.join(root, "tests", "reference", "digests_float64.json"),
    ]
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        raise BenchError(
            "not a checkout of the program (missing "
            + ", ".join(os.path.relpath(p, root) for p in missing)
            + "); run from the repository root"
        )


def check_declared(root: str, metrics: dict, trace: bool) -> None:
    """The reported metrics must be exactly those BENCHMARK.json declares."""
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    want = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        raise BenchError(
            "reported metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}, "
            f"unit changes {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}"
        )


def compile_program(root: str) -> None:
    """Byte-compile the program once, so no set-up pays compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(root, "src")],
        check=True, stdout=subprocess.DEVNULL, timeout=300,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        check_checkout(root)
        sys.path.insert(0, os.path.join(root, "src"))
        compile_program(root)
        run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
        try:
            metrics = run.execute()
        finally:
            run.box.close()
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    outcomes = run.outcomes
    try:
        check_declared(root, metrics, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    mismatches = [m for o in outcomes for m in o.mismatches]
    admit_late = [a["late_ms"] for a in run.admits]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_context(root),
        "knobs": dict(KNOB_DEFAULTS, window_s=workloads.WINDOW_S),
        "blas_threads": BLAS_THREADS,
        "speedup": workloads.PACED_SPEEDUP if args.workload == "serve-paced" else 0.0,
        "cameras_or_cells": run.job_base["cells"],
        "units": [o.as_dict() for o in outcomes],
        "setup_s_samples": run.setups,
        "latency_samples": sum(len(o.latencies_ms) for o in outcomes),
        "trace_notes": run.trace_notes,
        "window_miss_ratio": statistics.median(
            o.figures["window_miss_ratio"] for o in outcomes
        ),
        "admits": run.admits,
        "generator_late_ms": {
            "p50": checks.percentile(admit_late, 50) if admit_late else None,
            "max": max(admit_late) if admit_late else None,
        },
        "mismatches": mismatches,
    }
    result = {
        "correct": not mismatches,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{label}.json"), "w") as handle:
        json.dump({"context": context, "result": result}, handle, indent=1)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

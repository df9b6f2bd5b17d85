"""Span recording for the benchmark's traced runs (standard library only).

The program under test carries no instrumentation of its own, so a traced
run wraps the public functions at each layer boundary from the outside:
:func:`patch_function` replaces every reference to a function in the
loaded ``repro`` modules, and :func:`patch_method` a method on its class,
with a wrapper that opens a span around the call.

A span has a name (the metric group, e.g. ``exec.protocol.encode``), a
layer (``mx``, ``learn``, ``data``, ``core``, ``accelerator``, ``exec``,
``service``, ``sweep``, plus ``idle`` for sleeps and blocking waits and
``unattributed`` for the root), a start, an end, a parent (the enclosing
span on the same thread), the process and thread, and a trace id shared by
every span of one window, cell or shard.

Aggregates are exact: every span updates per-name call counts and
inclusive time (outermost calls of a name only, so recursion and nested
wrappers are not double counted) and per-layer self time (duration minus
the time of the child spans it encloses, which are sequential on one
thread).  Individual span events, which only feed the Chrome trace, are
capped per name so hot leaf calls do not flood the file.

Each process writes ``spans-<pid>.json`` into the trace directory when
:meth:`Recorder.flush` runs: at exit, from a multiprocessing finalizer in
forked pool workers (which skip exit handlers), and at most once a second
after a shard in any worker process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

#: Span events kept per name and process for the Chrome trace.
EVENT_CAP = 3000

LAYERS = (
    "mx",
    "learn",
    "data",
    "core",
    "accelerator",
    "exec",
    "service",
    "sweep",
    "idle",
    "unattributed",
)


class Recorder:
    """Per-process span sink; see the module docstring."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        #: name -> [calls, inclusive seconds, layer] (outermost calls only).
        self.stats: dict[str, list] = {}
        #: layer -> self seconds, over every thread of the process.
        self.layer_self: dict[str, float] = {}
        #: (thread name, layer) -> self seconds (root-thread accounting).
        self.thread_layer_self: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.events: list[dict] = []
        self._kept: dict[str, int] = {}
        self.dropped_events = 0
        self.roots: list[dict] = []

    # -- spans -------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = {}
            local.tid = threading.get_ident()
            local.thread = threading.current_thread().name
        return local

    def begin(self, name: str, layer: str, trace: str | None = None) -> list:
        local = self._state()
        stack = local.stack
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if trace is None and parent is not None:
            trace = parent[6]
        local.depth[name] = local.depth.get(name, 0) + 1
        frame = [
            name,
            layer,
            time.perf_counter(),
            0.0,
            span_id,
            parent[4] if parent is not None else None,
            trace,
        ]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> float:
        end = time.perf_counter()
        local = self._local
        stack = local.stack
        # Pop through any frame left open by a generator or an exception
        # that bypassed its own end (never expected, but never fatal).
        while stack and stack[-1] is not frame:
            stack.pop()
        if stack:
            stack.pop()
        name, layer, start, child, span_id, parent_id, trace = frame
        duration = end - start
        self_s = max(0.0, duration - child)
        if stack:
            stack[-1][3] += duration
        depth = local.depth[name] - 1
        local.depth[name] = depth
        with self._lock:
            entry = self.stats.setdefault(name, [0, 0.0, layer])
            if depth == 0:
                entry[0] += 1
                entry[1] += duration
            self.layer_self[layer] = self.layer_self.get(layer, 0.0) + self_s
            per_thread = self.thread_layer_self.setdefault(local.thread, {})
            per_thread[layer] = per_thread.get(layer, 0.0) + self_s
            kept = self._kept.get(name, 0)
            if kept < EVENT_CAP:
                self._kept[name] = kept + 1
                event = {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": duration * 1e6,
                    "pid": self.pid,
                    "tid": local.tid,
                    "args": {"id": span_id, "parent": parent_id},
                }
                if trace is not None:
                    event["args"]["trace"] = trace
                self.events.append(event)
            else:
                self.dropped_events += 1
        return duration

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def thread_name(self) -> str:
        return self._state().thread

    # -- output ------------------------------------------------------------

    def flush(self) -> None:
        """Write this process's aggregates and events (atomic replace)."""
        with self._lock:
            payload = {
                "pid": self.pid,
                "argv": sys.argv[:3],
                "stats": self.stats,
                "layer_self": self.layer_self,
                "thread_layer_self": self.thread_layer_self,
                "counters": self.counters,
                "samples": self.samples,
                "roots": self.roots,
                "dropped_events": self.dropped_events,
                "events": self.events,
            }
            text = json.dumps(payload)
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)


_recorder: Recorder | None = None


def recorder() -> Recorder | None:
    """The process's recorder, or None in untraced processes."""
    return _recorder


def start(out_dir: str) -> Recorder:
    """Create the process-wide recorder (idempotent per process)."""
    global _recorder
    if _recorder is None or _recorder.pid != os.getpid():
        _recorder = Recorder(out_dir)
    return _recorder


# -- wrapping -------------------------------------------------------------


def wrap(fn, name: str, layer: str, *, trace=None, before=None, after=None):
    """A wrapper timing ``fn`` as span ``name`` of ``layer``.

    ``trace(args, kwargs)`` may return the call's trace id;
    ``before(args, kwargs)`` returns a token handed to
    ``after(token, args, kwargs, result, error, frame)``, which records
    counters.  Every hook runs only while a recorder is active.
    """
    if getattr(fn, "__perfbench__", False):
        return fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _recorder
        if rec is None or rec.pid != os.getpid():
            return fn(*args, **kwargs)
        token = before(args, kwargs) if before is not None else None
        frame = rec.begin(
            name, layer, trace(args, kwargs) if trace is not None else None
        )
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            rec.end(frame)
            if after is not None:
                after(token, args, kwargs, None, error, frame)
            raise
        rec.end(frame)
        if after is not None:
            after(token, args, kwargs, result, None, frame)
        return result

    wrapper.__perfbench__ = True
    return wrapper


def _repro_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if module is not None and (key == "repro" or key.startswith("repro."))
    ]


def patch_function(module, attr: str, name: str, layer: str, **hooks) -> None:
    """Wrap ``module.attr`` and every ``repro`` module alias of it."""
    original = getattr(module, attr)
    wrapped = wrap(original, name, layer, **hooks)
    for loaded in _repro_modules():
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)
    setattr(module, attr, wrapped)


def patch_method(cls, attr: str, name: str, layer: str, **hooks) -> None:
    """Wrap a plain method on its class."""
    setattr(cls, attr, wrap(cls.__dict__[attr], name, layer, **hooks))

"""The batching policy: an explicit opt-in for multi-cell batched kernels.

Batching changes *how* the numpy work of co-sharded cells is dispatched
(K same-geometry cells advance per stacked call) without changing a single
output bit -- the batched primitives are verified slice-for-slice identical
to the serial ones.  It still follows the same opt-in discipline as
:mod:`repro.numeric` and :mod:`repro.share.policy`, because an off-path
that is byte-identical to the pre-batching tree is part of the contract:

- :data:`OFF` -- the default.  Every cell runs its own serial phase loop;
  no batching code executes at all.
- :data:`ON` -- the opt-in (``REPRO_BATCH=on``, ``--batch on``).  The shard
  planner groups geometry-compatible cells, and the batched driver
  (:mod:`repro.exec.batched`) runs each group's cells in lockstep lanes,
  stacking identically-shaped forward/train requests into one numpy call.
  Per-cell results are bit-identical to the serial path and pinned in
  ``tests/reference/digests_batched.json``.

The active policy resolves through :data:`BATCH_KNOB` (see
:mod:`repro.knobs`): a :func:`use_batching` override, then
``$REPRO_BATCH``, then :data:`OFF`.

This module also owns the *lane* plumbing the batched driver uses to
intercept model compute: each cell of a batch group runs on its own lane
thread, and ``MLPClassifier.forward`` / ``train_sgd`` consult
:func:`current_lane` at their top.  When no lane is installed (the default
everywhere outside the batched driver) the check is one thread-local read
and the serial code runs unchanged.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass

from repro.knobs import Knob

__all__ = [
    "BATCH_ENV",
    "BATCH_KNOB",
    "BATCH_POLICIES",
    "BatchPolicy",
    "OFF",
    "ON",
    "active_batching",
    "current_lane",
    "lane_scope",
    "resolve_batching",
    "suspend_lane",
    "use_batching",
]


@dataclass(frozen=True)
class BatchPolicy:
    """The batched-execution switch, as one frozen value.

    Attributes:
        name: Canonical name (``"off"`` / ``"on"``) -- the value
            ``REPRO_BATCH`` takes and shard specs carry over the wire.
        enabled: Master switch.  When False no batching code runs and the
            execution path is byte-for-byte the per-cell one.
    """

    name: str
    enabled: bool

    def __str__(self) -> str:
        return self.name


OFF = BatchPolicy(name="off", enabled=False)

ON = BatchPolicy(name="on", enabled=True)

#: Supported policies by canonical name.
BATCH_POLICIES: dict[str, BatchPolicy] = {
    OFF.name: OFF,
    ON.name: ON,
}

#: Accepted spellings (environment values, CLI args).
_ALIASES: dict[str, BatchPolicy] = {
    "off": OFF,
    "0": OFF,
    "no": OFF,
    "none": OFF,
    "false": OFF,
    "on": ON,
    "1": ON,
    "yes": ON,
    "true": ON,
    "batch": ON,
    "batched": ON,
}

#: The batching knob: ``use_batching`` override > ``$REPRO_BATCH`` > off.
BATCH_KNOB = Knob("batching policy", "REPRO_BATCH", _ALIASES, OFF)

BATCH_ENV = BATCH_KNOB.env
resolve_batching = BATCH_KNOB.resolve
active_batching = BATCH_KNOB.active
use_batching = BATCH_KNOB.use


# -- lane plumbing --------------------------------------------------------
#
# A lane is the batched driver's per-cell execution context.  It lives in
# thread-local storage (one lane thread per cell), not a ContextVar: lane
# threads copy the parent's context for policy isolation, and a ContextVar
# set in the copied context would leak into every nested context manager.

_tls = threading.local()


def current_lane():
    """The batch lane intercepting this thread's model compute, if any.

    Returns ``None`` on every thread the batched driver did not start, and
    on lane threads while the conductor is executing a batched round (the
    round's own numpy calls must run the real serial kernels, not
    re-intercept themselves).
    """
    if getattr(_tls, "suspended", False):
        return None
    return getattr(_tls, "lane", None)


@contextmanager
def lane_scope(lane):
    """Install ``lane`` as this thread's interception point."""
    previous = getattr(_tls, "lane", None)
    _tls.lane = lane
    try:
        yield lane
    finally:
        _tls.lane = previous


@contextmanager
def suspend_lane():
    """Run a block with lane interception disabled on this thread."""
    previous = getattr(_tls, "suspended", False)
    _tls.suspended = True
    try:
        yield
    finally:
        _tls.suspended = previous

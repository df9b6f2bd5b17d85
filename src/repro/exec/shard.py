"""Shards: the unit of work every execution backend dispatches.

A *shard* is a group of grid cells sharing one materialized stream -- the
same decomposition :func:`plan_shards` has always produced for the process
pool -- plus the two pieces of parent context a worker cannot inherit
ambiently: the numeric policy name and the artifact-cache root.  Packaging
those into a :class:`ShardSpec` is what makes the unit transport-agnostic:
the same spec runs in-process (:class:`~repro.exec.backends.SerialBackend`),
in a forked pool worker, or JSON-encoded over a pipe to a
``python -m repro worker`` child on another host.

The cell dataclasses (:class:`SystemCell` / :class:`Fig2Cell`) and the
shard planner live here -- :mod:`repro.core.parallel` re-exports them for
compatibility -- because the execution subsystem must not import the
delegation layer that imports it.

Failure is typed: a worker death, a broken pool, or a protocol violation
surfaces as :class:`ShardFailure` naming the shard's cells, never as an
opaque ``BrokenProcessPool`` traceback.  Shard execution is deterministic
(every cell seeds its own RNGs), so retrying a failed shard on another
worker reproduces the original results bit-identically.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro import profiling
from repro.batching import active_batching, resolve_batching, use_batching
from repro.core.results import RunResult
from repro.core.snapshot import (
    decode_run_snapshot,
    encode_run_snapshot,
    stream_prefix_aligned,
)
from repro.core.system import RunExecution
from repro.core.runner import build_fig2_system, build_system, run_on_scenario
from repro.data.scenarios import build_scenario
from repro.errors import ConfigurationError, ExecutionError, SnapshotError
from repro.learn.student import make_student
from repro.learn.teacher import make_teacher
from repro.models.zoo import get_pair
from repro.numeric import active_policy, use_policy
from repro.share.cluster import cluster_cells
from repro.share.policy import active_sharing, resolve_sharing, use_sharing
from repro.share.runtime import (
    ClusterRuntime,
    decode_cluster_state,
    encode_cluster_state,
)

__all__ = [
    "Fig2Cell",
    "ShardFailure",
    "ShardQuarantined",
    "ShardResult",
    "ShardSpec",
    "SystemCell",
    "batch_signature",
    "cell_batch_key",
    "cell_key",
    "cell_label",
    "execute_shard",
    "make_shard_specs",
    "note_shard_observation",
    "observed_cost",
    "plan_shards",
    "reset_observed_costs",
    "run_cell",
    "run_cell_incremental",
    "run_shard_cells",
    "run_spec_cells",
    "stream_signature",
    "warm_model_caches",
]

@dataclass(frozen=True)
class SystemCell:
    """One grid cell: a Figure-9-style system on one scenario.

    Attributes:
        system: System name from :data:`repro.core.runner.SYSTEM_BUILDERS`.
        pair: Model-pair name.
        scenario: Scenario name (Table II).
        seed: Model-init and stream seed.
        duration_s: Stream length override (None = scenario default).
    """

    system: str
    pair: str
    scenario: str
    seed: int = 0
    duration_s: float | None = None


@dataclass(frozen=True)
class Fig2Cell:
    """One Figure-2 cell: frozen student/teacher or idealized Ekya on a GPU.

    Attributes:
        kind: ``"student"``, ``"teacher"``, or ``"ekya"``.
        platform: ``"RTX3090"``, ``"OrinHigh"``, or ``"OrinLow"``.
        pair: Model-pair name.
        scenario: Scenario name.
        seed: Stream seed (model init uses the builder default, matching
            the serial Figure 2 code).
        duration_s: Stream length override.
    """

    kind: str
    platform: str
    pair: str
    scenario: str
    seed: int = 0
    duration_s: float | None = None


CELL_TYPES = (SystemCell, Fig2Cell)


def run_cell(cell) -> RunResult:
    """Execute one cell (runs inside worker processes; must stay pickleable)."""
    if isinstance(cell, SystemCell):
        system = build_system(cell.system, cell.pair, seed=cell.seed)
    elif isinstance(cell, Fig2Cell):
        system = build_fig2_system(cell.kind, cell.platform, cell.pair)
    else:
        raise ConfigurationError(f"unknown grid cell type {type(cell)!r}")
    return run_on_scenario(
        system, cell.scenario, seed=cell.seed, duration_s=cell.duration_s
    )


def _build_cell_system(cell):
    if isinstance(cell, SystemCell):
        return build_system(cell.system, cell.pair, seed=cell.seed)
    if isinstance(cell, Fig2Cell):
        return build_fig2_system(cell.kind, cell.platform, cell.pair)
    raise ConfigurationError(f"unknown grid cell type {type(cell)!r}")


def run_cell_incremental(
    cell, snapshot: dict | None = None, emit_snapshot: bool = False
) -> tuple[RunResult, dict | None]:
    """Execute one cell, optionally resuming from / emitting a snapshot.

    The incremental-window primitive: with a compatible ``snapshot``
    (window ``i``'s encoded safe point), only the stream-seconds past the
    snapshot's clock are simulated; the result is bit-identical to
    :func:`run_cell` over the full prefix.  An *incompatible* snapshot --
    wrong version, policy, cell identity, or an origin not aligned to the
    stream's segment grid -- falls back to a full prefix run: slower,
    never wrong.

    With ``emit_snapshot``, the run's final safe point is returned encoded
    (None when the cell's duration is not segment-aligned, since such a
    prefix is not reproducible in a longer stream).
    """
    system = _build_cell_system(cell)
    if cell.duration_s is None:
        stream = build_scenario(cell.scenario)
    else:
        stream = build_scenario(cell.scenario, duration_s=cell.duration_s)
    policy = active_policy().name
    emit = emit_snapshot and stream_prefix_aligned(stream.duration_s)

    checkpoint = None
    if snapshot is not None:
        try:
            checkpoint = decode_run_snapshot(
                snapshot,
                policy=policy,
                system=system.name,
                scenario=stream.name,
                seed=cell.seed,
                duration_s=stream.duration_s,
            )
        except SnapshotError:
            checkpoint = None
    try:
        execution = RunExecution(
            system, stream, cell.seed, checkpoint=checkpoint, capture=emit
        )
    except SnapshotError:
        # A restore that fails partway may have touched the system's
        # weights/buffer; rebuild it fresh for the prefix fallback.
        system = _build_cell_system(cell)
        execution = RunExecution(system, stream, cell.seed, capture=emit)
    execution.run_to_end()
    result = execution.result()

    payload = None
    final = execution.checkpoint()
    if emit and final is not None:
        payload = encode_run_snapshot(
            final,
            policy=policy,
            system=system.name,
            scenario=stream.name,
            seed=cell.seed,
            origin_duration_s=stream.duration_s,
        )
    return result, payload


def cell_label(cell) -> str:
    """Compact human-readable cell identity (for failure messages)."""
    if isinstance(cell, Fig2Cell):
        name = f"{cell.platform}-{cell.kind}"
    else:
        name = cell.system
    duration = "def" if cell.duration_s is None else f"{cell.duration_s:g}s"
    return f"{name}/{cell.pair}/{cell.scenario}/s{cell.seed}/{duration}"


def cell_key(policy_name: str, cell) -> str:
    """The stable journal/dedup key of one (policy, cell) pair.

    Purely content-derived -- no worker count, shard split, or submission
    order leaks in -- so a resume journal written at ``--jobs 8`` matches
    the same sweep re-run at ``--jobs 1``.  Unlike the human-facing
    :func:`cell_label`, the duration is keyed at full precision
    (``float.hex``): two cells differing past 6 significant digits must
    never collide in a journal or plan fingerprint.
    """
    kind = "fig2" if isinstance(cell, Fig2Cell) else "system"
    duration = (
        "def" if cell.duration_s is None else float(cell.duration_s).hex()
    )
    return f"{policy_name}|{kind}|{cell_label(cell)}|{duration}"


def stream_signature(cell) -> tuple:
    """The (scenario, seed, duration) key identifying a cell's stream.

    Cells sharing a signature consume the same materialized stream, so the
    signature is both the sharding key here and the dedup/cost unit the
    sweep planner (:mod:`repro.sweep.plan`) reports before running a fleet.
    """
    return (cell.scenario, cell.seed, cell.duration_s)


def batch_signature(cell) -> tuple:
    """The geometry key deciding which cells may share a batch group.

    Cells with one signature run the same model pair (hence identical
    weight geometry and stacked-kernel compatibility), so the batched
    planner co-shards them and the lockstep conductor can stack their
    identically-shaped requests.  The signature deliberately ignores
    system, scenario, seed, and duration: grouping is purely a
    performance decision -- the conductor only ever stacks requests whose
    shapes actually agree, so a coarse group can never change results,
    only how often stacking engages.
    """
    if isinstance(cell, Fig2Cell):
        return ("fig2", cell.kind, cell.platform, cell.pair)
    return ("system", cell.pair)


def cell_batch_key(policy_name: str, cell) -> tuple:
    """A cell's full batch-compatibility key, including its policy.

    Cells under different numeric policies must never co-batch (their
    models carry different dtypes); the planner gets this for free --
    shards are planned per policy group -- but the service and tests use
    this key to make the exclusion explicit.
    """
    return (policy_name,) + batch_signature(cell)


# -- observed shard costs (the learned-scheduling seed) --------------------
#
# The scheduler reports each completed shard's wall time back here
# (:func:`note_shard_observation`); the planner's split loop then weighs
# shards by observed per-cell cost instead of cell count.  With no
# observations every cell weighs 1.0 and the split sequence is provably
# the historical one.  Per-process state, deliberately: each sweep's
# parent learns from its own completed shards.

_observed_costs: dict[str, float] = {}


def note_shard_observation(spec: "ShardSpec", wall_s: float | None) -> None:
    """Record a completed shard's wall seconds as per-cell cost weights."""
    if wall_s is None or wall_s <= 0.0 or not spec.cells:
        return
    per_cell = wall_s / len(spec.cells)
    for cell in spec.cells:
        _observed_costs[cell_key(spec.policy, cell)] = per_cell


def observed_cost(key: str) -> float:
    """The learned cost weight of one cell key (1.0 until observed)."""
    return _observed_costs.get(key, 1.0)


def reset_observed_costs() -> None:
    """Forget all observed costs (tests; a fresh sweep learns its own)."""
    _observed_costs.clear()


def _shard_weight(shard: list[tuple[int, object]]) -> float:
    policy = active_policy().name
    return sum(observed_cost(cell_key(policy, cell)) for _, cell in shard)


def plan_shards(
    cells: Sequence, jobs: int
) -> list[list[tuple[int, object]]]:
    """Group (index, cell) pairs into stream-sharing shards.

    Shards are split (largest first) until there is one per worker or
    nothing splittable remains, so small grids with few distinct streams
    still use every core.  Splits interleave (evens/odds) rather than
    halve: grids typically order cells cheap-systems-first within a
    scenario, and contiguous halves would put every expensive system in
    one worker.  Result order is restored from the carried indices, so
    the split pattern never affects output.

    This is exactly the decomposition every backend executes; it is
    public so planners can estimate materialization counts and worker
    balance without running anything.

    Under an enabled sharing policy (:func:`repro.share.active_sharing`)
    the decomposition changes shape: cells group by *cluster* instead of
    stream signature, and clusters are never split -- a cluster's cells
    must co-locate on one shard so label/weight reuse happens in-process.
    The grouping is a pure function of the cell set and the policy, so it
    is identical at every ``jobs`` count.

    Under an enabled batching policy (:func:`repro.batching.active_batching`)
    cells group by :func:`batch_signature` instead of stream signature, so
    geometry-compatible cells land on one shard and the lockstep conductor
    can stack their numpy work; with sharing *also* on, same-geometry
    clusters merge onto one shard (cluster granularity preserved) so
    whole clusters batch against each other.  Either way results are
    bit-identical -- grouping only decides how often stacking engages.

    The split loop weighs shards by observed per-cell cost
    (:func:`note_shard_observation`); unobserved cells weigh 1.0, making
    the default split sequence exactly the historical count-based one.
    """
    sharing = active_sharing()
    batching = active_batching()
    if sharing.enabled:
        assignment = cluster_cells(cells, sharing)
        clustered: dict[str, list[tuple[int, object]]] = {}
        for index, cell in enumerate(cells):
            clustered.setdefault(assignment.cluster_of(cell), []).append(
                (index, cell)
            )
        if not batching.enabled:
            return list(clustered.values())
        merged: dict[tuple, list[tuple[int, object]]] = {}
        for cluster in clustered.values():
            merged.setdefault(batch_signature(cluster[0][1]), []).extend(
                cluster
            )
        return list(merged.values())
    groups: dict[tuple, list[tuple[int, object]]] = {}
    for index, cell in enumerate(cells):
        if batching.enabled:
            groups.setdefault(batch_signature(cell), []).append(
                (index, cell)
            )
        else:
            groups.setdefault(stream_signature(cell), []).append(
                (index, cell)
            )
    shards = list(groups.values())
    target = min(jobs, len(cells))
    while len(shards) < target:
        splittable = [i for i in range(len(shards)) if len(shards[i]) > 1]
        if not splittable:
            break
        largest = max(splittable, key=lambda i: _shard_weight(shards[i]))
        shard = shards.pop(largest)
        shards.extend([shard[::2], shard[1::2]])
    return shards


def warm_model_caches(cells: Iterable) -> None:
    """Pretrain every distinct (pair, seed) once in this process.

    Forked workers inherit the warmed ``lru_cache`` entries for free;
    spawn workers, subprocess workers, and separate invocations hit the
    on-disk cache instead (see :mod:`repro.learn.cache`).  The MX-format
    arguments do not matter here -- pretrained weights are
    precision-independent -- so the default-format constructors suffice.
    """
    seen: set[tuple[str, int]] = set()
    for cell in cells:
        model_seed = cell.seed if isinstance(cell, SystemCell) else 0
        key = (cell.pair, model_seed)
        if key in seen:
            continue
        seen.add(key)
        pair = get_pair(cell.pair)
        make_student(pair.student, seed=model_seed)
        make_teacher(pair.teacher, seed=model_seed)


@dataclass(frozen=True)
class ShardSpec:
    """One dispatchable unit of work, carrying its own execution context.

    Attributes:
        key: Content-derived shard identity (hash over policy + cell
            keys); what failure messages and journals reference.
        cells: The cells to run, in order.
        indices: Each cell's position in the originating grid (restores
            submission order after unordered completion).
        policy: Numeric policy *name* -- explicit because contextvar
            overrides do not survive spawn-started or remote workers.
        profile: Whether the worker should profile its phases and ship
            the snapshot back for the parent to merge.
        cache_root: Artifact-cache root the worker should use, or None
            to let it fall back to its own default (remote hosts).
        snapshot: Encoded run-state snapshot to resume the cell from
            (incremental windows; requires a single-cell shard).  An
            incompatible snapshot degrades to a full prefix run.
        emit_snapshot: Ship the run's final safe point back on the
            result (incremental windows; requires a single-cell shard).
        sharing: Sharing policy *name* -- explicit for the same reason
            ``policy`` is.  ``"off"`` (the default) is the bit-identical
            independent path.
        cluster_state: Encoded cluster weight state to seed the shard's
            runtime from (service windows resuming a cluster's journaled
            learning; requires a single-cell shard).
        emit_cluster_state: Ship the shard's final cluster state back on
            the result (requires a single-cell shard).
        batch: Batching policy *name* -- explicit for the same reason
            ``policy`` is.  ``"off"`` (the default) is the bit-identical
            per-cell path.
        snapshots: Per-cell resume snapshots for a *batched* multi-cell
            shard (the service coalescing K co-windowed streams into one
            shard); aligned with ``cells``, entries may be None.
        emit_snapshots: Per-cell emit flags matching ``snapshots``.
    """

    key: str
    cells: tuple
    indices: tuple[int, ...]
    policy: str
    profile: bool = False
    cache_root: str | None = None
    snapshot: dict | None = None
    emit_snapshot: bool = False
    sharing: str = "off"
    cluster_state: dict | None = None
    emit_cluster_state: bool = False
    batch: str = "off"
    snapshots: tuple | None = None
    emit_snapshots: tuple | None = None


@dataclass(frozen=True)
class ShardResult:
    """A completed shard: per-cell results, profile, and run snapshot.

    ``snapshots`` carries per-cell final snapshots for batched multi-cell
    service shards (aligned with the spec's cells); ``wall_s`` is the
    worker-observed execution wall time, which the scheduler feeds back
    into the planner's cost weights.
    """

    key: str
    results: tuple
    profile: dict | None = None
    snapshot: dict | None = None
    cluster_state: dict | None = None
    snapshots: tuple | None = None
    wall_s: float | None = None


class ShardFailure(ExecutionError):
    """A shard did not complete: worker death, broken pool, bad protocol.

    Raised (after the scheduler's bounded retries) instead of the opaque
    ``BrokenProcessPool``/``EOFError`` the transports produce, and always
    names the cells whose results are missing.

    Attributes:
        shard_key: The failing shard's :attr:`ShardSpec.key`.
        cells: Labels of the cells the shard was carrying.
        worker: Identity of the worker observed failing, if known.
        attempts: How many times the shard was attempted.
        cause: One-line description of the underlying error.
        retriable: Whether another attempt could plausibly succeed.
            Transport faults (worker death, broken pool, protocol
            violations) are; a *cell* raising inside a healthy worker is
            deterministic and is not -- the scheduler surfaces it
            immediately instead of recomputing the same exception.
        cause_exception: The original exception object, when the failure
            happened in-process (the pool transport); the scheduler
            re-raises it so callers see the same exception type at any
            worker count.  Remote transports cannot ship the object, so
            there the typed failure itself (carrying ``cause``) is what
            surfaces.
    """

    def __init__(
        self,
        message: str,
        *,
        shard_key: str = "",
        cells: tuple[str, ...] = (),
        worker: str | None = None,
        attempts: int = 1,
        cause: str | None = None,
        retriable: bool = True,
        cause_exception: BaseException | None = None,
    ) -> None:
        detail = message
        if cells:
            detail += f" [cells: {', '.join(cells)}]"
        if worker:
            detail += f" [worker: {worker}]"
        if attempts > 1:
            detail += f" [attempts: {attempts}]"
        if cause:
            detail += f" [cause: {cause}]"
        super().__init__(detail)
        self.message = message
        self.shard_key = shard_key
        self.cells = cells
        self.worker = worker
        self.attempts = attempts
        self.cause = cause
        self.retriable = retriable
        self.cause_exception = cause_exception

    def with_attempts(self, attempts: int) -> "ShardFailure":
        """A copy reporting the scheduler's final attempt count."""
        return ShardFailure(
            self.message,
            shard_key=self.shard_key,
            cells=self.cells,
            worker=self.worker,
            attempts=attempts,
            cause=self.cause,
            retriable=self.retriable,
            cause_exception=self.cause_exception,
        )


class ShardQuarantined(ShardFailure):
    """A poison shard: it killed enough distinct workers to be quarantined.

    Raised by the :class:`~repro.exec.scheduler.Scheduler` when one shard
    is observed taking down ``quarantine_after`` different workers --
    the signature of an input that reliably destroys whatever executes
    it (a segfaulting corner case, an OOM-sized cell), as opposed to
    workers that happen to be flaky.  Retrying poison converts one bad
    shard into a dead fleet, so the failure is non-retriable by
    construction and names the cells (and the workers taken down) so the
    operator can reproduce the kill in isolation.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs["retriable"] = False
        super().__init__(message, **kwargs)


def shard_key(policy_name: str, cells: Sequence) -> str:
    """Content hash identifying a shard across processes and runs."""
    hasher = hashlib.sha256()
    for cell in cells:
        hasher.update(cell_key(policy_name, cell).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def make_shard_specs(
    cells: Sequence,
    jobs: int,
    policy_name: str,
    *,
    profile: bool = False,
    cache_root: str | None = None,
    sharing: str | None = None,
    batch: str | None = None,
) -> list[ShardSpec]:
    """Plan ``cells`` into :class:`ShardSpec`\\ s for ``jobs`` workers.

    ``sharing`` and ``batch`` default to the ambient policies' names so
    specs carry them explicitly to spawn-started and remote workers,
    exactly like the numeric policy.
    """
    if sharing is None:
        sharing = active_sharing().name
    if batch is None:
        batch = active_batching().name
    specs = []
    for shard in plan_shards(cells, jobs):
        shard_cells = tuple(cell for _, cell in shard)
        specs.append(
            ShardSpec(
                key=shard_key(policy_name, shard_cells),
                cells=shard_cells,
                indices=tuple(index for index, _ in shard),
                policy=policy_name,
                profile=profile,
                cache_root=cache_root,
                sharing=sharing,
                batch=batch,
            )
        )
    return specs


def run_shard_cells(
    cells: Sequence, policy_name: str, profile: bool
) -> tuple[list[RunResult], dict | None]:
    """Execute a shard's cells in order (the worker-side entry point).

    The numeric policy is re-installed explicitly -- a ``use_policy``
    override in the parent is a contextvar and would not survive a
    spawn-started or remote worker -- so shard results are policy-correct
    on any transport.  The first cell materializes (or memmap-opens) the
    shard's stream; the rest hit the artifact store's in-process LRU.
    When ``profile`` is set, the shard runs under its own profiler and
    returns the snapshot alongside the results so the parent can
    aggregate worker phase times (``--profile`` composing with any
    multi-process backend).
    """
    with use_policy(policy_name):
        if not profile:
            return [run_cell(cell) for cell in cells], None
        profiler = profiling.enable()
        try:
            results = [run_cell(cell) for cell in cells]
            return results, profiler.snapshot()
        finally:
            profiling.disable()


def _run_cells_shared(
    spec: ShardSpec, sharing
) -> tuple[list[RunResult], dict | None, dict | None]:
    """Execute a sharing-enabled spec's cells through cluster runtimes.

    Sweep shards carry a whole cluster (the planner co-locates them) and
    run its cells sequentially through one in-process runtime -- labels,
    warm starts, and deltas all shared.  Service shards carry one window
    cell plus the cluster's journaled weight state (``spec.cluster_state``)
    and ship the updated state back on the result.

    With batching also enabled and several clusters on the shard, each
    cluster becomes one lockstep *lane*: its cells still run sequentially
    through their own runtime (preserving the sharing digests' ordering),
    while the clusters' numpy work batches against each other.
    """
    incremental = spec.snapshot is not None or spec.emit_snapshot
    stateful = spec.cluster_state is not None or spec.emit_cluster_state
    if (incremental or stateful) and len(spec.cells) != 1:
        raise ConfigurationError(
            f"incremental shard {spec.key} carries {len(spec.cells)} "
            f"cells; snapshots resume exactly one"
        )
    assignment = cluster_cells(spec.cells, sharing)
    runtimes: dict[str, ClusterRuntime] = {}
    if spec.cluster_state is not None:
        cid = assignment.cluster_of(spec.cells[0])
        runtimes[cid] = decode_cluster_state(spec.cluster_state, sharing)

    clustered: dict[str, list[tuple[int, object]]] = {}
    for position, cell in enumerate(spec.cells):
        clustered.setdefault(assignment.cluster_of(cell), []).append(
            (position, cell)
        )
    batching = resolve_batching(spec.batch)
    if batching.enabled and len(clustered) > 1 and not (
        incremental or stateful
    ):
        from repro.exec.batched import run_lane_jobs

        warm_model_caches(spec.cells)
        for cid in clustered:
            if cid not in runtimes:
                runtimes[cid] = ClusterRuntime(sharing, cid)

        def cluster_job(cid: str, members: list[tuple[int, object]]):
            runtime = runtimes[cid]
            out = []
            for position, cell in members:
                with runtime.activate(cell):
                    out.append((position, run_cell(cell)))
            return out

        lane_results = run_lane_jobs(
            [
                (lambda cid=cid, members=members: cluster_job(cid, members))
                for cid, members in clustered.items()
            ]
        )
        results = [None] * len(spec.cells)
        for lane in lane_results:
            for position, result in lane:
                results[position] = result
        return results, None, None

    results = []
    run_snapshot: dict | None = None
    for cell in spec.cells:
        cid = assignment.cluster_of(cell)
        runtime = runtimes.get(cid)
        if runtime is None:
            runtime = runtimes[cid] = ClusterRuntime(sharing, cid)
        with runtime.activate(cell):
            if incremental:
                result, run_snapshot = run_cell_incremental(
                    cell, spec.snapshot, spec.emit_snapshot
                )
            else:
                result = run_cell(cell)
        results.append(result)
    cluster_state = None
    if stateful:
        only = runtimes[assignment.cluster_of(spec.cells[0])]
        cluster_state = encode_cluster_state(only)
    return results, run_snapshot, cluster_state


def run_spec_cells(
    spec: ShardSpec,
) -> tuple[list[RunResult], dict | None, dict | None, dict | None]:
    """Execute a spec's cells under the ambient policy/profiler.

    Returns ``(results, run_snapshot, snapshots, cluster_state)`` --
    ``run_snapshot`` for the single-cell incremental contract,
    ``snapshots`` (per-cell, aligned with ``spec.cells``) for batched
    multi-cell service shards.  Incremental specs (a resume snapshot
    and/or ``emit_snapshot``) must carry exactly one cell -- a snapshot
    names one run's state -- unless batching supplies the per-cell
    ``spec.snapshots``/``spec.emit_snapshots`` carriers.  Sharing-enabled
    specs route through per-cluster runtimes; the default off-path below
    is byte-for-byte the historical independent execution.
    """
    sharing = resolve_sharing(spec.sharing)
    if sharing.enabled:
        results, run_snapshot, cluster_state = _run_cells_shared(
            spec, sharing
        )
        return results, run_snapshot, None, cluster_state
    batching = resolve_batching(spec.batch)
    if batching.enabled and len(spec.cells) > 1:
        from repro.exec.batched import run_cells_batched

        pairs = run_cells_batched(
            spec.cells,
            snapshots=spec.snapshots,
            emit_snapshots=spec.emit_snapshots,
        )
        results = [result for result, _ in pairs]
        if spec.snapshots is None and spec.emit_snapshots is None:
            return results, None, None, None
        return results, None, tuple(snap for _, snap in pairs), None
    if spec.snapshot is not None or spec.emit_snapshot:
        if len(spec.cells) != 1:
            raise ConfigurationError(
                f"incremental shard {spec.key} carries {len(spec.cells)} "
                f"cells; snapshots resume exactly one"
            )
        result, snapshot = run_cell_incremental(
            spec.cells[0], spec.snapshot, spec.emit_snapshot
        )
        return [result], snapshot, None, None
    return [run_cell(cell) for cell in spec.cells], None, None, None


def execute_shard(
    spec: ShardSpec,
) -> tuple[
    list[RunResult], dict | None, dict | None, tuple | None, dict | None
]:
    """The worker-side entry point for one spec, on any transport.

    Installs the spec's numeric, sharing, and batching policies, runs its
    cells (honouring the incremental snapshot and cluster-state fields),
    and profiles when asked.  Returns ``(results, profile_snapshot,
    run_snapshot, snapshots, cluster_state)``.
    """
    with use_policy(spec.policy), use_sharing(spec.sharing), use_batching(
        spec.batch
    ):
        if not spec.profile:
            results, run_snapshot, snapshots, cluster_state = (
                run_spec_cells(spec)
            )
            return results, None, run_snapshot, snapshots, cluster_state
        profiler = profiling.enable()
        try:
            results, run_snapshot, snapshots, cluster_state = (
                run_spec_cells(spec)
            )
            return (
                results,
                profiler.snapshot(),
                run_snapshot,
                snapshots,
                cluster_state,
            )
        finally:
            profiling.disable()

"""The sharing policy: an explicit opt-in for cross-camera work reuse.

Sharing changes *what work runs* (which teacher labelings and student
retrains actually execute), so unlike the numeric policy it can never be a
silent default: the frozen reference digests were all taken with every cell
independent.  Like :mod:`repro.numeric`, it offers two policies --

- :data:`OFF` -- the default.  Every (scenario, seed) cell is executed
  independently; the path is bit-identical to the frozen reference digests
  (no sharing code runs at all, the hooks see no active runtime).
- :data:`CLUSTER` -- the opt-in (``REPRO_SHARING=cluster``, ``--sharing
  cluster``, or ``sharing = "cluster"`` in a sweep spec's ``[sweep]``
  table).  Streams are fingerprinted and clustered; within a cluster,
  teacher labels are computed once and shared, retrains warm-start from the
  cluster's freshest student weights or substitute a neighbor's per-domain
  weight delta, and diverged deltas are merged DAM-style.  This path
  freezes its *own* digests (``tests/reference/digests_sharing.json``).

The active policy resolves through :data:`SHARING_KNOB` (see
:mod:`repro.knobs`): a :func:`use_sharing` override, then
``$REPRO_SHARING``, then :data:`OFF`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.knobs import Knob

__all__ = [
    "CLUSTER",
    "OFF",
    "SHARING_ENV",
    "SHARING_KNOB",
    "SHARING_POLICIES",
    "SharingPolicy",
    "active_sharing",
    "resolve_sharing",
    "use_sharing",
]


@dataclass(frozen=True)
class SharingPolicy:
    """Every knob of the cross-camera reuse machinery, as one frozen value.

    Attributes:
        name: Canonical name (``"off"`` / ``"cluster"``) -- the value
            ``REPRO_SHARING`` takes and shard specs carry over the wire.
        enabled: Master switch.  When False no sharing code runs and the
            execution path is byte-for-byte the independent one.
        threshold: Maximum fingerprint distance (fraction of mismatching
            domain-schedule segments, in [0, 1]) for two streams to join
            the same cluster.  0 means only identical schedules cluster.
        share_labels: Reuse a cluster neighbor's teacher labels for the
            same (domain, time-slot) instead of running the teacher again.
        warm_start: New cluster members start from the cluster's freshest
            student weights instead of their own pretrain.
        merge: Substitute a neighbor's per-domain weight delta for a
            retrain when one is available, and blend deltas DAM-style when
            two members publish diverging deltas for the same domain.
        merge_alpha: Blend weight of the *newer* delta in a merge.
        digest_namespace: Token namespacing sharing-path artifacts so they
            can never collide with independent-path caches or digests.
    """

    name: str
    enabled: bool
    threshold: float
    share_labels: bool
    warm_start: bool
    merge: bool
    merge_alpha: float
    digest_namespace: str

    def __str__(self) -> str:
        return self.name


OFF = SharingPolicy(
    name="off",
    enabled=False,
    threshold=0.0,
    share_labels=False,
    warm_start=False,
    merge=False,
    merge_alpha=0.5,
    digest_namespace="ind",
)

CLUSTER = SharingPolicy(
    name="cluster",
    enabled=True,
    threshold=0.35,
    share_labels=True,
    warm_start=True,
    merge=True,
    merge_alpha=0.5,
    digest_namespace="shr",
)

#: Supported policies by canonical name.
SHARING_POLICIES: dict[str, SharingPolicy] = {
    OFF.name: OFF,
    CLUSTER.name: CLUSTER,
}

#: Accepted spellings (environment values, CLI args, spec keys).
_ALIASES: dict[str, SharingPolicy] = {
    "off": OFF,
    "0": OFF,
    "no": OFF,
    "none": OFF,
    "false": OFF,
    "independent": OFF,
    "cluster": CLUSTER,
    "on": CLUSTER,
    "1": CLUSTER,
    "yes": CLUSTER,
    "true": CLUSTER,
    "shared": CLUSTER,
}

#: The sharing knob: ``use_sharing`` override > ``$REPRO_SHARING`` > off.
SHARING_KNOB = Knob("sharing policy", "REPRO_SHARING", _ALIASES, OFF)

SHARING_ENV = SHARING_KNOB.env
resolve_sharing = SHARING_KNOB.resolve
active_sharing = SHARING_KNOB.active
use_sharing = SHARING_KNOB.use

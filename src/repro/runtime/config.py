"""Runtime tuning knobs.

Defaults are calibrated so that the simulated system lands in the
paper's measured bands on the default LAN latency profile: an 8-user
synchronization completes "within 0.5 seconds most of the time"
(Figure 5), sync time grows roughly linearly with users at a slope that
keeps 100 users under ~3 seconds (Figure 6), and a full fault recovery
(two stall timeouts) costs more than 12 seconds (Figure 5's outliers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Environment variable consulted for the *default* collection mode.
#: CI runs the whole suite once per mode by exporting it; explicit
#: ``SyncConfig(collection=...)`` always wins over the environment.
COLLECTION_ENV_VAR = "GUESSTIMATE_COLLECTION"

COLLECTION_MODES = ("sequential", "concurrent")


def _default_collection() -> str:
    mode = os.environ.get(COLLECTION_ENV_VAR, "sequential").strip().lower()
    return mode if mode in COLLECTION_MODES else "sequential"


@dataclass(frozen=True)
class SyncConfig:
    """Shape of the synchronization pipeline (stage-1 collection mode,
    operation batching, and round pipelining).

    * ``collection`` — how the master collects pending operations:
      ``"sequential"`` reproduces the paper's token-passing round (the
      master grants ``YourTurn`` to one machine at a time), while
      ``"concurrent"`` broadcasts a single collect signal and every
      participant flushes at once; arrivals are ordered
      deterministically by ``(machine_id, seq)`` so both modes commit
      the identical global sequence.  ``None`` (the default) resolves
      to the ``GUESSTIMATE_COLLECTION`` environment variable, falling
      back to ``"sequential"`` — which is how CI runs the full suite
      across both modes.
    * ``batch_max_ops`` — flushed operations ride in size-capped
      :class:`~repro.runtime.messages.OpBatch` frames instead of one
      message per operation; this caps the entries per frame.
    * ``pipeline_depth`` — maximum synchronization rounds in flight at
      the master: with depth ``d > 1`` the master begins collecting
      round ``k+1`` as soon as round ``k`` enters its apply stage,
      overlapping collection with the previous round's commit+ack
      latency.  Slaves always apply rounds in round-id order, so the
      committed sequence is unaffected.  Depth 1 disables pipelining.
    * ``scheduled_rounds`` — the master pre-announces the next round's
      StartSync (with a ``start_at`` timestamp) during the idle gap, so
      every participant flushes *at* the round boundary instead of one
      network hop after it.  Removes the StartSync hop from the
      critical path.  Concurrent collection only; ignored elsewhere.
    * ``speculative_apply`` — a slave holding a FlushDone from every
      participant self-assembles the authoritative counts and applies
      without waiting for the master's BeginApply, acking with a counts
      fingerprint the master validates (mismatch evicts + restarts the
      speculator).  Removes the BeginApply hop from the critical path.
      Concurrent collection only; ignored elsewhere.
    * ``compact_flush`` — before a flush rides the wire, pending
      operations superseded by a later absorbing operation (see
      :func:`repro.core.shared_object.absorbing`) on the same
      (object, key) from the same issuer are coalesced: only the final
      write is flushed, absorbed completions fire with its commit
      result.
    """

    collection: str | None = None
    batch_max_ops: int = 64
    pipeline_depth: int = 1
    scheduled_rounds: bool = False
    speculative_apply: bool = False
    compact_flush: bool = False

    def __post_init__(self):
        if self.collection is not None and self.collection not in COLLECTION_MODES:
            raise ValueError(
                f"collection must be one of {COLLECTION_MODES}, "
                f"got {self.collection!r}"
            )
        if self.batch_max_ops < 1:
            raise ValueError("batch_max_ops must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")

    @property
    def collection_mode(self) -> str:
        """The effective collection mode (environment-resolved)."""
        if self.collection is not None:
            return self.collection
        return _default_collection()


@dataclass(frozen=True)
class RuntimeConfig:
    """All timing parameters of the runtime, in seconds."""

    #: Idle gap between the end of one synchronization and the start of
    #: the next (the master "periodically initiating" syncs).
    sync_interval: float = 1.0

    #: How long the master waits for an expected signal (FlushDone or
    #: ApplyAck) before resending it.  Two consecutive timeouts trigger
    #: removal + restart, so a full recovery costs a bit over
    #: ``2 * stall_timeout`` — which must exceed the paper's 12 s
    #: outlier threshold.
    stall_timeout: float = 6.5

    #: How long a machine waits for missing operations after BeginApply
    #: before broadcasting a resend request.
    missing_ops_timeout: float = 1.0

    #: CPU cost model, in virtual seconds only.  These give the
    #: flush/update windows and each apply step width on the simulator's
    #: event loop, so the "no issuing inside a window" rule is exercised
    #: and Figures 5-6 have their shape.  The wall-clock schedulers do
    #: not sleep them (``Scheduler.after_cpu``): there a window lasts as
    #: long as its real work.
    flush_cpu_base: float = 0.0005
    flush_cpu_per_op: float = 0.0002
    apply_cpu_base: float = 0.0005
    apply_cpu_per_op: float = 0.0002
    update_cpu_base: float = 0.001
    update_cpu_per_op: float = 0.0002

    #: Upper bound on operations per flush (backpressure guard; the
    #: paper's applications never get near this).
    max_ops_per_flush: int = 10_000

    #: Enable the structured trace log (tests use it; benchmarks turn
    #: it off for speed).
    tracing: bool = False

    #: Guess refresh strategy for ApplyUpdatesFromMesh: True (default)
    #: copies only objects whose committed version advanced plus
    #: objects dirtied by pending-op replays — O(touched state) per
    #: round; False reproduces the paper's literal full copy of the
    #: committed store — O(total state).  Semantics are identical (the
    #: simfuzz refresh oracle and Hypothesis properties assert it);
    #: the flag exists for A/B benchmarking and as an escape hatch.
    delta_refresh: bool = True

    #: Cross-check every delta refresh against a full-copy shadow
    #: rebuild ([P](sc) must equal the refreshed sg) and raise on
    #: divergence.  O(total state) per round — for the simulation
    #: fuzzer and tests, not production.
    refresh_oracle: bool = False

    # -- future-work extensions (paper section 9) ------------------------

    #: Parallelize AddUpdatesToMesh: all machines flush on StartSync
    #: instead of taking serial turns.  The paper proposes exactly this
    #: to scale past ~1000 users ("parallelize the first stage of the
    #: synchronization protocol so that the time taken depends only on
    #: the number of operations and the network delay but not on the
    #: number of users").  Off by default: the paper kept stage 1
    #: serial "purely for ease of monitoring and debugging".
    #: Legacy alias: ``parallel_flush=True`` is equivalent to
    #: ``sync=SyncConfig(collection="concurrent")`` and kept for
    #: backward compatibility; prefer ``sync``.
    parallel_flush: bool = False

    #: Synchronization pipeline shape: stage-1 collection mode
    #: (sequential token passing vs concurrent flush), OpBatch size
    #: cap, and master-side round pipelining depth.
    sync: SyncConfig = field(default_factory=SyncConfig)

    #: Master failover: if no master signal arrives for this long, the
    #: lexicographically-smallest surviving slave promotes itself (the
    #: paper's proposed fix for the single point of failure).  None
    #: disables failover (the paper's actual implementation).
    failover_timeout: float | None = None

    # -- durability (write-ahead log + snapshots + crash recovery) --------

    #: Durability backend: ``off`` (the paper's in-memory implementation,
    #: zero IO), ``memory`` (log + recovery semantics without touching
    #: disk — what simulator crash tests use), or ``disk`` (real WAL and
    #: snapshot files under ``data_dir``).
    durability: str = "off"

    #: Root directory for ``disk`` durability; each machine logs under
    #: ``<data_dir>/<machine_id>/``.
    data_dir: str | None = None

    #: WAL fsync policy: ``always`` (fsync every commit record),
    #: ``interval`` (every ``fsync_interval`` records and on close), or
    #: ``never`` (OS-buffered only; the tail-scan drops whatever a crash
    #: loses).
    fsync_policy: str = "interval"

    #: Records between fsyncs under the ``interval`` policy.
    fsync_interval: int = 8

    #: WAL segment rollover size in bytes.
    wal_segment_bytes: int = 256_000

    #: Committed rounds between snapshots (0 = never snapshot).  Each
    #: snapshot compacts the WAL segments it covers, bounding recovery
    #: replay length.
    snapshot_interval: int = 0

    def flush_cpu(self, n_ops: int) -> float:
        return self.flush_cpu_base + self.flush_cpu_per_op * n_ops

    def apply_cpu(self, n_ops: int) -> float:
        return self.apply_cpu_base + self.apply_cpu_per_op * n_ops

    def update_cpu(self, n_pending: int) -> float:
        return self.update_cpu_base + self.update_cpu_per_op * n_pending

    @property
    def removal_threshold(self) -> float:
        """Time after which a stalled machine gets removed (2 timeouts)."""
        return 2 * self.stall_timeout

    @property
    def collection_mode(self) -> str:
        """The effective stage-1 collection mode.

        ``parallel_flush=True`` (the legacy flag) forces
        ``"concurrent"``; otherwise :class:`SyncConfig` decides
        (explicit value, else the ``GUESSTIMATE_COLLECTION``
        environment default).
        """
        if self.parallel_flush:
            return "concurrent"
        return self.sync.collection_mode

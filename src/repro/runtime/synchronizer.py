"""The three-stage synchronization protocol (paper section 4).

Every node runs a :class:`Synchronizer`; the designated master node
additionally runs a :class:`MasterControl` that initiates rounds,
grants flush turns, watches for stalls and drives recovery.

Stage 1 — **AddUpdatesToMesh**.  Two collection modes
(:class:`~repro.runtime.config.SyncConfig.collection`):

* ``sequential`` — the paper's protocol: the master grants each
  machine its turn (:class:`~repro.runtime.messages.YourTurn`) and
  round latency grows linearly with the participant count;
* ``concurrent`` — the master broadcasts one collect signal
  (``StartSync(parallel=True)``) and every participant flushes at
  once; arrivals are ordered deterministically by
  ``(machine_id, seq)``, so the committed sequence is identical.

In either mode a flush ships the pending list as size-capped
:class:`~repro.runtime.messages.OpBatch` frames (``batch_max_ops``
entries each) followed by a
:class:`~repro.runtime.messages.FlushDone`.  No operations may be
issued inside the flush window.

**Round pipelining** (``SyncConfig.pipeline_depth > 1``): the master
begins collecting round *k+1* while round *k*'s ``BeginApply``/acks
are still in flight, keeping at most ``pipeline_depth`` rounds open.
Every node applies rounds strictly in round-id order (a later round's
consolidated list waits until every earlier known round has been
applied), so pipelining changes latency, never the committed sequence.

Stage 2 — **ApplyUpdatesFromMesh**.  The master broadcasts
:class:`~repro.runtime.messages.BeginApply` with the authoritative
per-machine counts.  Each machine waits for every expected operation,
applies the consolidated list to its committed state in lexicographic
(machineID, opnumber) order, acknowledges, then refreshes the
guesstimated state (copy committed → guess, run completion routines,
re-apply the still-pending list).  No operations may be issued inside
the update window.

Stage 3 — **FlagCompletion**.  Once every acknowledgment is in, the
master broadcasts :class:`~repro.runtime.messages.SyncComplete` and
schedules the next round.

Fault recovery mirrors the paper: a stalled machine first gets its
signal resent (:class:`~repro.runtime.messages.YourTurn` or a unicast
``BeginApply``); if it still does not respond it is removed from the
current synchronization and told to :class:`~repro.runtime.messages.Restart`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.machine import PendingEntry
from repro.core.operations import OpKey, PrimitiveOp
from repro.core.serialization import decode_op, encode_op
from repro.core.shared_object import absorbing_keys
from repro.runtime import messages as msg
from repro.runtime.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.node import GuesstimateNode


def consolidated_order(node: "GuesstimateNode", round_state: "RoundState") -> list[OpKey]:
    """The global apply order: lexicographic (machineID, opnumber).

    Every machine must use this exact order or the committed sequences
    diverge — which is why the simulation fuzzer's self-test mutates
    this one function and asserts the invariant probes catch it.
    """
    assert round_state.counts is not None
    return sorted(
        key for key in round_state.received if key.machine_id in round_state.counts
    )


@dataclass(slots=True)
class RoundState:
    """One node's view of a synchronization round."""

    round_id: int
    order: tuple[str, ...]
    flushed: bool = False
    flush_count: int = 0
    counts: dict[str, int] | None = None
    received: dict[OpKey, dict] = field(default_factory=dict)
    dropped: set[str] = field(default_factory=set)
    applied: bool = False
    done: bool = False
    missing_timer: object | None = None
    #: per-round decode_op memo (resends/replays reuse decoded trees)
    decoded: dict[OpKey, object] = field(default_factory=dict)
    #: armed flush timer for a pre-announced round (scheduled_rounds)
    flush_timer: object | None = None
    #: FlushDone counts observed by this node (speculative_apply input)
    flush_done: dict[str, int] = field(default_factory=dict)
    #: machine -> claimed OpBatch frame total / {seq: ops in frame}.
    #: When every frame of a machine's flush has arrived, its block is
    #: complete even before its FlushDone — only trustworthy while
    #: ``counts`` is None (resends reframe, but are only requested
    #: after BeginApply pins the counts).
    batch_total: dict[str, int] = field(default_factory=dict)
    batch_frames: dict[str, dict[int, int]] = field(default_factory=dict)
    #: a ParticipantRemoved was seen for this round — speculation off
    removals_seen: bool = False
    #: some ops committed against counts self-assembled from FlushDones
    #: rather than from BeginApply; the ApplyAck then carries a
    #: fingerprint the master validates
    speculative: bool = False
    #: machine -> op count of blocks already committed by the streaming
    #: apply (lexicographic machine order; also the ack fingerprint)
    stream_done: dict[str, int] = field(default_factory=dict)
    #: a block's apply-CPU charge is in progress
    stream_busy: bool = False
    #: object ids touched by successful remote ops (remote-update hooks)
    stream_remote_touched: set[str] = field(default_factory=set)

    def received_count_from(self, machine_id: str) -> int:
        return sum(1 for key in self.received if key.machine_id == machine_id)

    def missing(self) -> dict[str, int]:
        """Per-machine number of operations still missing."""
        assert self.counts is not None
        gaps: dict[str, int] = {}
        for machine_id, expected in self.counts.items():
            have = self.received_count_from(machine_id)
            if have < expected:
                gaps[machine_id] = expected - have
        return gaps

    def complete(self) -> bool:
        if self.counts is None:
            return False
        return not self.missing()


class Synchronizer:
    """Per-node protocol logic (both master and slaves run this)."""

    def __init__(self, node: "GuesstimateNode"):
        self.node = node
        self.rounds: dict[int, RoundState] = {}
        self.op_buffer: dict[int, dict[OpKey, dict]] = {}
        self.last_flush: dict[int, dict[OpKey, dict]] = {}
        self.in_flight: dict[OpKey, PendingEntry] = {}
        self.pending_completions: list[tuple[PendingEntry, bool]] = []
        #: committed-store ids touched by applied rounds whose guess
        #: refresh has not run yet — the delta refresh drains this, so
        #: with pipelining round k's refresh also covers round k+1's
        #: already-applied ops (the naive full copy trivially did).
        self.refresh_backlog: set[str] = set()
        # Master-liveness tracking for the failover extension.
        self.last_master_signal: float = node.scheduler.now()
        self.last_order: tuple[str, ...] = ()
        self.last_round_seen: int = 0
        #: highest round id we have seen SyncComplete for — stale
        #: signals for rounds at or below this must not resurrect them
        self.last_done_round: int = 0
        #: set once this node learns it missed a committed round (the
        #: master removed it mid-round, or a SyncComplete arrived for a
        #: round it never applied).  From that moment its committed
        #: prefix has a hole: applying any later round would log a
        #: gapped history to the WAL, which recovery would then announce
        #: as a clean prefix.  All applies stop until restart/reset.
        self.evicted: bool = False
        #: the WAL may hold stream-committed blocks of a round the
        #: cluster committed differently (or not at all).  The durable
        #: log is then no longer a trustworthy prefix of the global
        #: order, so restart must NOT announce a recovered tail — it
        #: takes the full-snapshot Welcome, which rebases the store.
        self.wal_suspect: bool = False

    # -- message dispatch -----------------------------------------------------

    def handle_signal(self, payload: object) -> None:
        """Dispatch one signals-channel message."""
        node = self.node
        if node.state == node.STATE_JOINING:
            # A joining machine is outside every round until the
            # master's Welcome admits it (the paper welcomes between
            # rounds).  Applying round signals on top of recovered
            # state here would race the Welcome the master builds from
            # our announced position and duplicate committed ops.
            if isinstance(payload, (msg.StartSync, msg.BeginApply, msg.SyncComplete)):
                self.last_master_signal = node.scheduler.now()  # master liveness
            if (
                isinstance(payload, msg.Welcome)
                and payload.machine_id == node.machine_id
            ):
                node.load_welcome(payload)
            return
        if isinstance(
            payload,
            (
                msg.StartSync,
                msg.YourTurn,
                msg.BeginApply,
                msg.SyncComplete,
                msg.ParticipantRemoved,
                msg.Welcome,
                msg.Restart,
            ),
        ):
            self.last_master_signal = node.scheduler.now()
            if isinstance(payload, (msg.StartSync, msg.BeginApply, msg.YourTurn)):
                self.last_order = payload.order
                self.last_round_seen = max(self.last_round_seen, payload.round_id)
            elif isinstance(payload, msg.SyncComplete):
                self.last_round_seen = max(self.last_round_seen, payload.round_id)
        if isinstance(payload, msg.StartSync):
            self._on_start_sync(payload)
        elif isinstance(payload, msg.YourTurn):
            if payload.machine_id == node.machine_id:
                self._on_your_turn(payload)
        elif isinstance(payload, msg.FlushDone):
            self._on_flush_done_signal(payload)
        elif isinstance(payload, msg.BeginApply):
            self._on_begin_apply(payload)
        elif isinstance(payload, msg.ResendOpsRequest):
            self._on_resend_request(payload)
        elif isinstance(payload, msg.SyncComplete):
            self._on_sync_complete(payload)
        elif isinstance(payload, msg.ParticipantRemoved):
            self._on_participant_removed(payload)
        elif isinstance(payload, msg.Restart):
            # A Restart that crosses paths with our own in-flight Hello
            # is stale: we already restarted and are waiting for the
            # Welcome, so restarting again would only repeat recovery.
            if (
                payload.machine_id == node.machine_id
                and node.state != node.STATE_JOINING
            ):
                node.restart()
        elif isinstance(payload, msg.Welcome):
            if payload.machine_id == node.machine_id:
                node.load_welcome(payload)

    def handle_op(self, payload: msg.OpMessage | msg.OpBatch) -> None:
        """Dispatch one operations-channel message (single op or batch)."""
        if self.node.state == self.node.STATE_JOINING:
            return  # not in any round until welcomed
        machine_id = sys.intern(payload.machine_id)  # one copy per machine
        if isinstance(payload, msg.OpBatch):
            items = [
                (OpKey(machine_id, op_number), op_payload)
                for op_number, op_payload in payload.ops
            ]
        else:
            items = [(OpKey(machine_id, payload.op_number), payload.payload)]
        if payload.round_id <= self.last_done_round:
            return  # late frames for a round that already completed
        round_state = self.rounds.get(payload.round_id)
        if round_state is None:
            buffered = self.op_buffer.setdefault(payload.round_id, {})
            buffered.update(items)
            return
        if payload.machine_id in round_state.dropped:
            return
        round_state.received.update(items)
        if isinstance(payload, msg.OpBatch):
            round_state.batch_total.setdefault(payload.machine_id, payload.total)
            round_state.batch_frames.setdefault(payload.machine_id, {})[
                payload.seq
            ] = len(payload.ops)
        self._try_apply(round_state)

    # -- stage 1: AddUpdatesToMesh ---------------------------------------------

    def _on_start_sync(self, start: msg.StartSync) -> None:
        if self.node.machine_id not in start.order:
            return
        round_state = self._ensure_round(start.round_id, start.order)
        if not start.parallel or round_state is None or round_state.flushed:
            return
        if start.start_at is not None:
            # Scheduled round (SyncConfig.scheduled_rounds): the master
            # pre-announced this round during the idle inter-round gap,
            # so every participant flushes at the agreed instant instead
            # of on signal receipt — the StartSync hop leaves the
            # round's critical path.  Latest announcement wins if the
            # master re-announces with a different start time.
            if round_state.flush_timer is not None:
                round_state.flush_timer.cancel()  # type: ignore[attr-defined]
            delay = max(0.0, start.start_at - self.node.scheduler.now())
            round_state.flush_timer = self.node.scheduler.call_later(
                delay, lambda: self._scheduled_flush(round_state)
            )
            return
        # Section-9 extension: everyone flushes at once.
        self._flush(round_state)

    def _scheduled_flush(self, round_state: RoundState) -> None:
        round_state.flush_timer = None
        if self.node.state != self.node.STATE_ACTIVE:
            # Crashed or offline before the agreed instant.  A signal-
            # triggered flush could never fire here (a non-active node
            # receives no mesh signals); the local timer must apply the
            # same rule.  The master's stall recovery handles our
            # missing FlushDone.
            return
        if self.rounds.get(round_state.round_id) is not round_state:
            return  # restart/reset dropped the round; the timer is stale
        if round_state.flushed or round_state.done:
            return
        self._flush(round_state)

    def _on_your_turn(self, turn: msg.YourTurn) -> None:
        round_state = self._ensure_round(turn.round_id, turn.order)
        if round_state is None or round_state.done:
            return
        if round_state.flushed:
            # Our FlushDone was probably lost; resend it (recovery path).
            self.node.broadcast_signal(
                msg.FlushDone(turn.round_id, self.node.machine_id, round_state.flush_count)
            )
            return
        self._flush(round_state)

    def _flush(self, round_state: RoundState) -> None:
        node = self.node
        node.enter_window("flush")
        entries = node.model.take_pending()
        if len(entries) > node.config.max_ops_per_flush:  # pragma: no cover
            overflow = entries[node.config.max_ops_per_flush :]
            entries = entries[: node.config.max_ops_per_flush]
            node.model.requeue_pending_front(overflow)
        if node.config.sync.compact_flush and len(entries) > 1:
            entries = self._compact_entries(entries)
        stash = self.last_flush.setdefault(round_state.round_id, {})
        encoded: list[tuple[int, dict]] = []
        profiler = node.profiler
        if profiler.enabled:
            _t0 = profiler.begin()
        for entry in entries:
            payload = encode_op(entry.op)
            stash[entry.key] = payload
            self.in_flight[entry.key] = entry
            round_state.received[entry.key] = payload  # self-delivery
            encoded.append((entry.key.op_number, payload))
        if profiler.enabled:
            profiler.end("encode", _t0)
        batches = self._broadcast_batches(round_state.round_id, encoded)
        round_state.flushed = True
        round_state.flush_count = len(entries)
        # Our own count is known right now — no need to wait for our
        # FlushDone to loop back before our block can stream-commit.
        round_state.flush_done[node.machine_id] = len(entries)
        node.metrics.op_batches_sent += batches
        node.trace(
            Tracer.FLUSH,
            round=round_state.round_id,
            count=len(entries),
            batches=batches,
        )

        def end_flush() -> None:
            node.exit_window("flush")
            node.broadcast_signal(
                msg.FlushDone(round_state.round_id, node.machine_id, round_state.flush_count)
            )

        node.scheduler.after_cpu(node.config.flush_cpu(len(entries)), end_flush)
        self._try_apply(round_state)

    def _broadcast_batches(
        self, round_id: int, encoded: list[tuple[int, dict]]
    ) -> int:
        """Broadcast ``(op_number, payload)`` pairs as OpBatch frames.

        Returns the number of frames sent.  An empty flush sends no
        data frames at all — FlushDone alone carries the zero count.
        """
        if not encoded:
            return 0
        node = self.node
        cap = node.config.sync.batch_max_ops
        chunks = [encoded[i : i + cap] for i in range(0, len(encoded), cap)]
        profiler = node.profiler
        if profiler.enabled:
            _t0 = profiler.begin()
        for seq, chunk in enumerate(chunks):
            node.ops_mesh.broadcast(
                node.machine_id,
                msg.OpBatch(
                    round_id, node.machine_id, seq, len(chunks), tuple(chunk)
                ),
            )
        if profiler.enabled:
            profiler.end("transport", _t0)
        return len(chunks)

    def _compact_entries(self, entries: list[PendingEntry]) -> list[PendingEntry]:
        """Op-log compaction (``SyncConfig.compact_flush``).

        A later pending :class:`PrimitiveOp` *absorbs* an earlier one
        from the same flush when both write the same last-write-wins
        slot — same object, same ``@absorbing`` method, same
        key-argument prefix — and no entry between them touches that
        object.  The absorbed op never rides the round; its completion
        fires with the superseder's commit result.

        Soundness rests on the absorbing law ``B(A(S)) == B(S)``, which
        ``@absorbing`` promises only for valid arguments of *B*, so
        absorption additionally requires the superseder to have
        succeeded at issue time: issue success on the guess implies its
        arguments passed validation, leaving only state-dependent
        failures, which by the law hit A and B identically.  The
        consolidated order is lexicographic (machineID, opnumber), so
        one machine's flush is contiguous in the committed sequence and
        no other machine's op can observe the absorbed intermediate
        write.
        """
        guess = self.node.model.guess
        survivors: list[PendingEntry | None] = []
        slot_of: dict[tuple, int] = {}
        last_touch: dict[str, int] = {}
        compacted = 0
        for entry in entries:
            op = entry.op
            slot = None
            if type(op) is PrimitiveOp and entry.issue_result and guess.has(op.object_id):
                keys = absorbing_keys(type(guess.get(op.object_id)), op.method_name)
                if keys is not None and len(op.args) >= keys:
                    slot = (op.object_id, op.method_name, op.args[:keys])
            if slot is not None:
                prev_index = slot_of.get(slot)
                if prev_index is not None and last_touch.get(op.object_id) == prev_index:
                    previous = survivors[prev_index]
                    assert previous is not None
                    entry.absorbed = previous.absorbed + (previous,)
                    previous.absorbed = ()
                    survivors[prev_index] = None
                    compacted += 1
            index = len(survivors)
            survivors.append(entry)
            if slot is not None:
                slot_of[slot] = index
            for object_id in op.object_ids():
                last_touch[object_id] = index
        if compacted:
            self.node.metrics.ops_compacted += compacted
            self.node.trace(
                Tracer.FLUSH, action="compact", absorbed=compacted
            )
        return [entry for entry in survivors if entry is not None]

    def _on_flush_done_signal(self, done: msg.FlushDone) -> None:
        """Track broadcast FlushDones for the speculative streaming apply.

        With ``SyncConfig.speculative_apply`` a FlushDone tells every
        node how many ops its sender contributed, so the consolidated
        list can be committed *block by block* in lexicographic machine
        order as flushes arrive — without waiting for the master's
        BeginApply, and overlapping apply CPU with the network wait for
        later flushes.  The ApplyAck then carries the per-machine
        counts actually committed as a fingerprint the master validates
        against its authoritative counts.
        """
        if not self.node.config.sync.speculative_apply:
            return
        if done.round_id <= self.last_done_round:
            return
        round_state = self.rounds.get(done.round_id)
        if round_state is None:
            return  # never speculate on a round we saw no StartSync for
        round_state.flush_done[done.machine_id] = done.count
        self._try_apply(round_state)

    # -- stage 2: ApplyUpdatesFromMesh -------------------------------------------

    def _on_begin_apply(self, begin: msg.BeginApply) -> None:
        if self.node.machine_id not in begin.order:
            return
        round_state = self._ensure_round(begin.round_id, begin.order)
        if round_state is None or round_state.done:
            return
        authoritative = dict(begin.counts)
        for dropped in round_state.dropped:
            authoritative.pop(dropped, None)
        if round_state.applied:
            if round_state.speculative:
                # We committed with self-assembled counts; check them
                # against the authoritative ones now that they exist.
                if authoritative != round_state.counts:
                    # Our committed round diverged from the one the
                    # master published.  Same hole-in-the-prefix latch
                    # as a missed commit: stop applying; the master's
                    # fingerprint check triggers our restart.
                    self._latch_evicted(suspect=True)
                    self.node.trace(
                        Tracer.RECOVERY,
                        action="speculation_diverged",
                        round=round_state.round_id,
                    )
                else:
                    # Heal a lost speculative ack: the master resends
                    # BeginApply on a stall, so answer it again.
                    self.node.broadcast_signal(
                        msg.ApplyAck(
                            round_state.round_id,
                            self.node.machine_id,
                            tuple(sorted(round_state.counts.items())),
                        )
                    )
            return
        for machine_id, count in round_state.stream_done.items():
            if authoritative.get(machine_id) != count:
                # A block we already committed is not part of the round
                # the master published: mid-stream divergence, and the
                # committed ops cannot be taken back.  Latch evicted;
                # the master's stall recovery restarts us.
                self._latch_evicted(suspect=True)
                self.node.trace(
                    Tracer.RECOVERY,
                    action="speculation_diverged",
                    round=round_state.round_id,
                )
                return
        round_state.counts = authoritative
        self._try_apply(round_state)
        if not round_state.applied and round_state.missing_timer is None:
            round_state.missing_timer = self.node.scheduler.call_later(
                self.node.config.missing_ops_timeout,
                lambda: self._request_missing(round_state),
            )

    def _request_missing(self, round_state: RoundState) -> None:
        round_state.missing_timer = None
        if round_state.applied or round_state.done:
            return
        have = tuple(
            sorted((key.machine_id, key.op_number) for key in round_state.received)
        )
        self.node.trace(
            Tracer.RECOVERY, action="request_missing", round=round_state.round_id
        )
        self.node.signals_mesh.broadcast(
            self.node.machine_id,
            msg.ResendOpsRequest(round_state.round_id, self.node.machine_id, have),
        )
        # Keep asking until the gap closes or the master removes us.
        round_state.missing_timer = self.node.scheduler.call_later(
            self.node.config.missing_ops_timeout,
            lambda: self._request_missing(round_state),
        )

    def _on_resend_request(self, request: msg.ResendOpsRequest) -> None:
        if request.machine_id == self.node.machine_id:
            return
        # Serve from everything we hold for the round: our own flush
        # stash plus every frame we received.  The requester may be
        # missing ops whose issuer has since crashed or been removed —
        # any surviving holder must be able to close the gap.
        available: dict[OpKey, dict] = {}
        round_state = self.rounds.get(request.round_id)
        if round_state is not None:
            available.update(round_state.received)
        available.update(self.last_flush.get(request.round_id, {}))
        if not available:
            return
        have = {OpKey(machine, number) for machine, number in request.have}
        by_issuer: dict[str, list[tuple[int, dict]]] = {}
        for key, payload in available.items():
            if key not in have:
                by_issuer.setdefault(key.machine_id, []).append(
                    (key.op_number, payload)
                )
        # Resends ride the same batched framing as the original flush;
        # a frame carries one issuer's ops, so group by issuer.
        cap = self.node.config.sync.batch_max_ops
        for issuer in sorted(by_issuer):
            missing = sorted(by_issuer[issuer])
            chunks = [missing[i : i + cap] for i in range(0, len(missing), cap)]
            for seq, chunk in enumerate(chunks):
                self.node.ops_mesh.send(
                    self.node.machine_id,
                    request.machine_id,
                    msg.OpBatch(
                        request.round_id,
                        issuer,
                        seq,
                        len(chunks),
                        tuple(chunk),
                    ),
                )

    def _earlier_round_open(self, round_state: RoundState) -> bool:
        """True while an earlier known round has not been applied yet.

        With pipelining, round *k+1*'s consolidated list can be fully
        collected before round *k* finishes — committing it early would
        reorder C, so apply strictly in round-id order.
        """
        return any(
            round_id < round_state.round_id
            and not (state.applied or state.done)
            for round_id, state in self.rounds.items()
        )

    def _nudge_later_rounds(self, round_id: int) -> None:
        """Re-check rounds blocked behind ``round_id`` (in order)."""
        for later_id in sorted(self.rounds):
            if later_id > round_id:
                self._try_apply(self.rounds[later_id])
                break  # _apply recurses if further rounds are ready

    def _latch_evicted(self, suspect: bool = False) -> None:
        """Stop applying until restart rejoins us.

        ``suspect`` (or any partially streamed round) additionally
        marks the WAL suspect: streamed blocks were logged the moment
        they committed, and the cluster's authoritative round may not
        contain them — or not at those global positions.
        """
        self.evicted = True
        if suspect or any(
            state.stream_done and not state.applied
            for state in self.rounds.values()
        ):
            self.wal_suspect = True

    def _try_apply(self, round_state: RoundState) -> None:
        if self.evicted:
            return  # our committed prefix has a hole; wait for Restart
        if round_state.applied or round_state.done:
            return
        node = self.node
        if (
            node.config.sync.speculative_apply
            and node.config.collection_mode == "concurrent"
        ):
            # All applies for this config run through the streaming
            # engine, whether counts come from FlushDones or BeginApply.
            self._advance_stream(round_state)
            return
        if not round_state.complete():
            return
        if self._earlier_round_open(round_state):
            return
        if round_state.missing_timer is not None:
            round_state.missing_timer.cancel()  # type: ignore[attr-defined]
            round_state.missing_timer = None
        self._apply(round_state)

    # -- speculative streaming apply (SyncConfig.speculative_apply) --------------

    def _stream_expected(self, round_state: RoundState) -> list[str] | None:
        """Machines whose blocks this round commits, in block order.

        Authoritative counts (BeginApply) pin the set exactly; before
        they arrive the set is speculated as the announced order minus
        drop-ops removals — but any removal makes the master's view of
        the round uncertain, so speculation stalls until BeginApply.
        """
        if round_state.counts is not None:
            return sorted(round_state.counts)
        if round_state.removals_seen:
            return None
        return sorted(set(round_state.order) - round_state.dropped)

    def _advance_stream(self, round_state: RoundState) -> None:
        """Commit ready blocks in order; finalize when all are in.

        A machine's block is ready when its op count is known (from
        BeginApply, else its own FlushDone), all its ops have arrived,
        and every lexicographically earlier block has committed.  Each
        block's apply CPU is charged before the next block starts, so
        the CPU cost serializes but overlaps the network wait for later
        flushes — by the time the slowest flush lands, only its own
        block's CPU separates us from the ApplyAck.
        """
        node = self.node
        if node.state == node.STATE_STOPPED:
            return  # crashed mid-stream; recovery rebuilds from the WAL
        while True:
            if round_state.stream_busy or round_state.applied or round_state.done:
                return
            if self._earlier_round_open(round_state):
                return
            expected = self._stream_expected(round_state)
            if expected is None:
                return  # removals poisoned speculation; wait for BeginApply
            remaining = [m for m in expected if m not in round_state.stream_done]
            if not remaining:
                if round_state.counts is not None or not round_state.removals_seen:
                    self._finalize_stream(round_state)
                return
            machine_id = remaining[0]
            if round_state.counts is not None:
                count = round_state.counts.get(machine_id)
                speculated = False
            else:
                count = round_state.flush_done.get(machine_id)
                if count is None and not node.is_master:
                    # FlushDone not here yet, but a complete frame set
                    # is just as good: ``total`` pins the frame count
                    # and the frames carry their op counts.  The master
                    # never takes this shortcut: op frames can outrun
                    # the FlushDone signal, and a block its own
                    # MasterControl has not accepted may be struck from
                    # the round with drop_ops — a slave recovers from
                    # that by eviction + Restart, but nobody can
                    # restart the master.
                    total = round_state.batch_total.get(machine_id)
                    if total is not None:
                        frames = round_state.batch_frames.get(machine_id, {})
                        if len(frames) == total:
                            count = sum(frames.values())
                speculated = True
            if count is None:
                return  # flush not seen yet
            block = sorted(
                key for key in round_state.received if key.machine_id == machine_id
            )
            if len(block) < count:
                return  # ops still in flight (or awaiting a resend)
            self._apply_block(round_state, machine_id, block[:count], speculated)

    def _apply_block(
        self,
        round_state: RoundState,
        machine_id: str,
        block: list[OpKey],
        speculated: bool,
    ) -> None:
        node = self.node
        profiler = node.profiler
        if profiler.enabled:
            _t0 = profiler.begin()
        decoded = []
        object_ids: set[str] = set()
        for key in block:
            entry = self.in_flight.get(key)
            if entry is not None:
                op = entry.op
                node.metrics.decode_cache_hits += 1
            else:
                op = round_state.decoded.get(key)
                if op is None:
                    op = decode_op(round_state.received[key])
                    round_state.decoded[key] = op
                    node.metrics.decode_cache_misses += 1
                else:
                    node.metrics.decode_cache_hits += 1
            decoded.append((key, op))
            object_ids |= op.object_ids()
        logged: list[tuple] = []
        # One clock read per block: C and the WAL must carry the same
        # commit time, or a replica rebuilt from its log and one
        # welcomed from the master's backlog would disagree.
        now = node.scheduler.now()
        with node.read_locks.writing(sorted(object_ids)):
            for key, op in decoded:
                result = op.execute(node.model.committed)
                node.model.record_completed(
                    key.machine_id, key.op_number, op, result, now
                )
                logged.append(
                    (
                        key.machine_id,
                        key.op_number,
                        round_state.received[key],
                        result,
                        now,
                    )
                )
                node.trace(Tracer.COMMIT, key=str(key), ok=result)
                if result and key.machine_id != node.machine_id:
                    round_state.stream_remote_touched |= op.object_ids()
                if key in self.in_flight:
                    entry = self.in_flight.pop(key)
                    entry.executions += 1
                    node.metrics.record_execution(key)
                    self.pending_completions.append((entry, result))
                    if result:
                        node.metrics.ops_committed_ok += 1
                    else:
                        node.metrics.ops_committed_failed += 1
                        if entry.issue_result:
                            node.metrics.conflicts += 1
            node.model.committed.mark_dirty(object_ids)
        # Each block hits the WAL the instant it commits, not at round
        # finalization: the streaming apply spreads commits across
        # (virtual) time, and durable state must replay to exactly the
        # live committed state at every instant — a crash between
        # blocks then recovers the committed prefix it actually holds.
        node.log_committed_round(
            round_state.round_id,
            logged,
            node.completed_offset + node.model.completed_count,
        )
        self.refresh_backlog |= object_ids
        round_state.stream_done[machine_id] = len(block)
        if speculated:
            round_state.speculative = True
            node.metrics.blocks_streamed += 1
        if profiler.enabled:
            profiler.end("apply", _t0)
        if not block:
            return  # empty block: no CPU to charge, keep streaming
        # Charge the block's modelled apply CPU before the next block may
        # start (the base setup cost is charged once, on the first
        # block); only virtual time advances by it.
        cost = node.config.apply_cpu(len(block))
        if len(round_state.stream_done) > 1:
            cost = max(0.0, cost - node.config.apply_cpu(0))
        round_state.stream_busy = True

        def unlock() -> None:
            round_state.stream_busy = False
            if self.rounds.get(round_state.round_id) is not round_state:
                return  # restart/reset dropped the round
            if self.evicted or round_state.applied or round_state.done:
                return
            self._advance_stream(round_state)

        node.scheduler.after_cpu(cost, unlock)

    def _finalize_stream(self, round_state: RoundState) -> None:
        """All blocks committed: log the round, ack, refresh the guess."""
        node = self.node
        if round_state.missing_timer is not None:
            round_state.missing_timer.cancel()  # type: ignore[attr-defined]
            round_state.missing_timer = None
        round_state.counts = dict(round_state.stream_done)
        round_state.applied = True
        # Every block was WAL-logged as it committed (_apply_block);
        # nothing further to persist before the ack.
        if node.signals_mesh.faults.crash_at_commit(
            node.machine_id, round_state.round_id
        ):
            node.trace(
                Tracer.RECOVERY, action="crash_at_commit", round=round_state.round_id
            )
            node.halt()
            return
        ack_counts = (
            tuple(sorted(round_state.stream_done.items()))
            if round_state.speculative
            else None
        )
        node.broadcast_signal(
            msg.ApplyAck(round_state.round_id, node.machine_id, ack_counts)
        )
        remote_touched = round_state.stream_remote_touched
        round_state.stream_remote_touched = set()
        self._update_guess(round_state, remote_touched)
        self._nudge_later_rounds(round_state.round_id)

    def _apply(self, round_state: RoundState) -> None:
        """Apply the consolidated list in lexicographic (machine, number) order."""
        node = self.node
        assert round_state.counts is not None
        profiler = node.profiler
        if profiler.enabled:
            _t0 = profiler.begin()
        keys = consolidated_order(node, round_state)
        object_ids: set[str] = set()
        decoded = []
        for key in keys:
            # Decode cache: our own in-flight ops still hold the
            # original operation tree (operations are immutable data),
            # and the per-round memo covers payloads a resend or replay
            # already decoded — only genuinely new payloads pay decode.
            entry = self.in_flight.get(key)
            if entry is not None:
                op = entry.op
                node.metrics.decode_cache_hits += 1
            else:
                op = round_state.decoded.get(key)
                if op is None:
                    op = decode_op(round_state.received[key])
                    round_state.decoded[key] = op
                    node.metrics.decode_cache_misses += 1
                else:
                    node.metrics.decode_cache_hits += 1
            decoded.append((key, op))
            object_ids |= op.object_ids()
        remote_touched: set[str] = set()
        logged: list[tuple] = []
        now = node.scheduler.now()  # one commit time for C and the WAL
        with node.read_locks.writing(sorted(object_ids)):
            for key, op in decoded:
                result = op.execute(node.model.committed)
                node.model.record_completed(
                    key.machine_id, key.op_number, op, result, now
                )
                logged.append(
                    (
                        key.machine_id,
                        key.op_number,
                        round_state.received[key],
                        result,
                        now,
                    )
                )
                node.trace(Tracer.COMMIT, key=str(key), ok=result)
                if result and key.machine_id != node.machine_id:
                    remote_touched |= op.object_ids()
                if key in self.in_flight:
                    entry = self.in_flight.pop(key)
                    entry.executions += 1
                    node.metrics.record_execution(key)
                    self.pending_completions.append((entry, result))
                    if result:
                        node.metrics.ops_committed_ok += 1
                    else:
                        node.metrics.ops_committed_failed += 1
                        if entry.issue_result:
                            node.metrics.conflicts += 1
            # Version bookkeeping: these are exactly the committed-store
            # ids this round may have mutated — the delta guess-refresh
            # and the version-keyed snapshot cache both key off them.
            node.model.committed.mark_dirty(object_ids)
        self.refresh_backlog |= object_ids
        round_state.applied = True
        if profiler.enabled:
            profiler.end("apply", _t0)
        # Write-ahead ordering: the committed round reaches the durable
        # log before this machine acknowledges it, so an acked round is
        # always recoverable after a crash.
        completed_global = node.completed_offset + node.model.completed_count
        node.log_committed_round(round_state.round_id, logged, completed_global)
        if node.signals_mesh.faults.crash_at_commit(
            node.machine_id, round_state.round_id
        ):
            # Crash-at-commit-point fault: die after the log append,
            # before the ApplyAck — the master will remove us; recovery
            # restarts from snapshot + WAL.
            node.trace(
                Tracer.RECOVERY, action="crash_at_commit", round=round_state.round_id
            )
            node.halt()
            return

        # A speculative commit advertises the counts it used, so the
        # master can validate them against the authoritative ones.
        ack_counts = (
            tuple(sorted(round_state.counts.items()))
            if round_state.speculative
            else None
        )

        def ack_and_update() -> None:
            if node.state == node.STATE_STOPPED:  # crashed before the ack fired
                return
            node.broadcast_signal(
                msg.ApplyAck(round_state.round_id, node.machine_id, ack_counts)
            )
            self._update_guess(round_state, remote_touched)

        node.scheduler.after_cpu(node.config.apply_cpu(len(decoded)), ack_and_update)
        # A pipelined later round may already be fully collected.
        self._nudge_later_rounds(round_state.round_id)

    def _update_guess(
        self,
        round_state: RoundState,
        remote_touched: set[str] = frozenset(),
    ) -> None:
        """Copy committed → guess, run completions, re-apply pending ops.

        The copy is a **delta refresh**: only committed-store ids the
        applied-but-unrefreshed rounds touched (``refresh_backlog`` —
        with pipelining that can cover several rounds at once, exactly
        like the naive copy of the *current* committed store did),
        objects the guess store dirtied replaying pending ops, and
        membership changes are copied — O(touched state) per round
        instead of the paper's literal O(total state) full copy
        (``delta_refresh=False`` restores the latter;
        ``refresh_oracle=True`` cross-checks the delta against a full
        shadow rebuild every round).
        """
        node = self.node
        model = node.model
        touched = self.refresh_backlog
        self.refresh_backlog = set()
        node.enter_window("update")
        profiler = node.profiler
        if profiler.enabled:
            _t0 = profiler.begin()
        if node.config.delta_refresh:
            candidates = model.guess.refresh_candidates(model.committed, touched)
            with node.read_locks.writing(sorted(candidates)):
                copied = model.guess.refresh_delta_from(model.committed, touched)
        else:
            with node.read_locks.writing(model.committed.ids()):
                copied = model.guess.refresh_from(model.committed)
        node.metrics.refresh_rounds += 1
        node.metrics.refresh_objects_copied += copied
        node.metrics.refresh_objects_live += len(model.committed)
        node.trace(Tracer.REFRESH, round=round_state.round_id, copied=copied)
        completions = self.pending_completions
        self.pending_completions = []
        now = node.scheduler.now()
        for entry, result in completions:
            # Ops this entry absorbed during flush compaction complete
            # here too, with the superseder's commit result; they were
            # issued earlier, so their completions fire first.
            for absorbed in entry.absorbed:
                node.metrics.commit_latency_total += now - absorbed.issued_at
                node.metrics.commit_latency_count += 1
                if absorbed.completion is not None:
                    absorbed.completion(result)
                node.trace(Tracer.COMPLETION, key=str(absorbed.key), ok=result)
            node.metrics.commit_latency_total += now - entry.issued_at
            node.metrics.commit_latency_count += 1
            if entry.completion is not None:
                entry.completion(result)
            node.trace(Tracer.COMPLETION, key=str(entry.key), ok=result)
        for entry in node.model.pending:
            entry.op.execute(node.model.guess)  # result deliberately ignored
            node.model.guess.mark_dirty(entry.op.object_ids())
            entry.executions += 1
            node.metrics.record_execution(entry.key)
        if profiler.enabled:
            profiler.end("refresh", _t0)
        if node.config.refresh_oracle and not node.model.check_convergence_invariant():
            from repro.errors import RuntimeFailure

            raise RuntimeFailure(
                f"delta-refresh divergence on {node.machine_id} after round "
                f"{round_state.round_id}: refreshed sg != [P](sc)"
            )
        node.fire_remote_updates(remote_touched)

        def end_update() -> None:
            node.exit_window("update")

        node.scheduler.after_cpu(
            node.config.update_cpu(len(node.model.pending)), end_update
        )

    # -- stage 3 and recovery -------------------------------------------------------

    def _on_sync_complete(self, done: msg.SyncComplete) -> None:
        self.last_done_round = max(self.last_done_round, done.round_id)
        round_state = self.rounds.pop(done.round_id, None)
        missed_commit = round_state is not None and not round_state.applied
        if round_state is not None:
            round_state.done = True
            if round_state.missing_timer is not None:
                round_state.missing_timer.cancel()  # type: ignore[attr-defined]
        self.last_flush.pop(done.round_id, None)
        self.op_buffer.pop(done.round_id, None)
        if missed_commit:
            # The cluster committed a round we never applied (the master
            # can only finish a round after our ApplyAck or our removal,
            # so our ParticipantRemoved must have been lost).  Our
            # committed prefix now has a hole: skipping ahead to later
            # pipelined rounds would durably log a gapped history, so
            # stop applying until the master's Restart rejoins us.
            self._latch_evicted(suspect=bool(round_state.stream_done))
            self.node.trace(
                Tracer.RECOVERY, action="missed_commit", round=done.round_id
            )
            return
        self._nudge_later_rounds(done.round_id)

    def _on_participant_removed(self, removed: msg.ParticipantRemoved) -> None:
        round_state = self.rounds.get(removed.round_id)
        if round_state is None:
            return
        # Any removal means the master's view of the round diverged
        # from the FlushDones we observed: block speculation stalls for
        # this round until the authoritative BeginApply arrives.
        round_state.removals_seen = True
        if (
            removed.drop_ops
            and not round_state.applied
            and removed.machine_id in round_state.stream_done
        ):
            # We already committed a block the cluster is dropping and
            # cannot take it back: latch evicted (the master's
            # fingerprint check or stall recovery restarts us).
            self._latch_evicted(suspect=True)
            self.node.trace(
                Tracer.RECOVERY,
                action="speculation_diverged",
                round=round_state.round_id,
            )
            return
        if removed.machine_id == self.node.machine_id:
            # We were removed while alive (our signals were lost).  The
            # round will commit everywhere without us, leaving a hole in
            # our prefix — applying later pipelined rounds over that
            # hole would durably log a gapped history, so stop applying
            # entirely; the Restart that follows rejoins us cleanly.
            round_state.done = True
            self._latch_evicted()
            self.node.trace(
                Tracer.RECOVERY, action="evicted", round=round_state.round_id
            )
            return
        if removed.drop_ops:
            # Removed before its flush was published: its ops are not
            # part of the round anywhere.
            round_state.dropped.add(removed.machine_id)
            round_state.received = {
                key: payload
                for key, payload in round_state.received.items()
                if key.machine_id != removed.machine_id
            }
            if round_state.counts is not None:
                round_state.counts.pop(removed.machine_id, None)
                self._try_apply(round_state)
        else:
            # Its flush is in the published counts, so its ops stay in
            # the consolidated list on every machine — dropping them
            # locally would diverge from nodes that already applied.
            # The removal only means it will not acknowledge.
            self._try_apply(round_state)

    # -- helpers -----------------------------------------------------------------

    def _ensure_round(self, round_id: int, order: tuple[str, ...]) -> RoundState | None:
        if self.node.machine_id not in order:
            return None
        if round_id <= self.last_done_round:
            # A resent signal arrived after the round's SyncComplete
            # popped it; recreating it would make an empty zombie round
            # that blocks every later round's in-order apply.
            return None
        if round_id not in self.rounds:
            state = RoundState(round_id, order)
            buffered = self.op_buffer.pop(round_id, {})
            state.received.update(buffered)
            self.rounds[round_id] = state
        return self.rounds[round_id]

    def reset(self) -> None:
        """Drop all protocol state (used on restart)."""
        for round_state in self.rounds.values():
            if round_state.missing_timer is not None:
                round_state.missing_timer.cancel()  # type: ignore[attr-defined]
            if round_state.flush_timer is not None:
                round_state.flush_timer.cancel()  # type: ignore[attr-defined]
        self.rounds.clear()
        self.op_buffer.clear()
        self.refresh_backlog.clear()
        self.last_flush.clear()
        self.in_flight.clear()
        self.pending_completions.clear()
        self.evicted = False


class MasterControl:
    """Master-side round management, membership and stall recovery.

    Rounds live in ``inflight`` keyed by round id.  Without pipelining
    (``SyncConfig.pipeline_depth == 1``) at most one round is open at a
    time, reproducing the paper's strictly phased protocol.  With depth
    *d* the master opens collection for round *k+1* as soon as round
    *k* reaches its apply stage, keeping at most *d* rounds in flight;
    at most one round is ever in the flush stage, and rounds always
    finish (``SyncComplete``) in round-id order.
    """

    def __init__(self, node: "GuesstimateNode"):
        self.node = node
        self.participants: list[str] = [node.machine_id]
        self.round_counter = 0
        self.inflight: dict[int, _MasterRound] = {}
        self.join_queue: list[str] = []
        self.awaiting_ack: set[str] = set()
        self.awaiting_restart: set[str] = set()
        #: joiners that announced durable recovered state: id -> global
        #: |C| they already hold (served a backlog Welcome if possible)
        self.recovered_counts: dict[str, int] = {}
        #: id -> (machine_id, op_number) tail key of that recovered
        #: history, cross-checked before a delta Welcome is served
        self.recovered_tails: dict[str, tuple] = {}
        self._progress_seq = 0
        self._next_round_timer: object | None = None
        self._stopped = False
        self._halted = False  # hard stop (crash): no recovery actions either
        self.running = False  # set once start() schedules the first round
        #: pre-announced next round (scheduled_rounds): (id, order, start_at)
        self._announced: tuple[int, tuple[str, ...], float] | None = None
        #: FlushDones that beat the announced round's start (stashed
        #: until start_round materializes the round): id -> {machine: count}
        self._early_flush_done: dict[int, dict[str, int]] = {}
        #: machines whose speculative commit diverged from the published
        #: counts — their durable history is NOT a prefix of the global
        #: order, so their next Welcome must be a full snapshot (which
        #: rebases their log) rather than a backlog extension
        self.tainted: set[str] = set()

    # -- round bookkeeping -----------------------------------------------------------

    @property
    def current(self) -> "_MasterRound | None":
        """The oldest in-flight round (None when the pipeline is idle)."""
        if not self.inflight:
            return None
        return self.inflight[min(self.inflight)]

    @property
    def collecting(self) -> "_MasterRound | None":
        """The round currently in its flush stage, if any (at most one)."""
        for round_ in self.inflight.values():
            if round_.stage == "flush":
                return round_
        return None

    @property
    def pipeline_depth(self) -> int:
        return self.node.config.sync.pipeline_depth

    # -- round lifecycle -----------------------------------------------------------

    def start(self, delay: float | None = None) -> None:
        """Schedule the first (or next) synchronization round."""
        if self._stopped:
            return
        self.running = True
        interval = self.node.config.sync_interval if delay is None else delay
        if self._next_round_timer is not None:
            self._next_round_timer.cancel()  # type: ignore[attr-defined]
        self._next_round_timer = self.node.scheduler.call_later(
            interval, self.start_round
        )
        self._maybe_preannounce(interval)

    def stop(self, hard: bool = False) -> None:
        """Stop initiating rounds.  ``hard`` (crash simulation) also
        silences the watchdog; a graceful stop keeps driving recovery
        for rounds already in flight, including a pre-announced round
        whose participants are already committed to flushing."""
        self._stopped = True
        if hard:
            self._halted = True
        if self._next_round_timer is not None and (hard or self._announced is None):
            self._next_round_timer.cancel()  # type: ignore[attr-defined]

    def _schedule_next_round(self) -> None:
        """Arm the next-round timer if the pipeline has room.

        Joins are only processed on an idle pipeline (the paper
        welcomes between rounds), so while joiners wait the pipeline is
        drained rather than extended.
        """
        if self._stopped or not self.running:
            return
        if self._next_round_timer is not None:
            return
        if self.collecting is not None or len(self.inflight) >= self.pipeline_depth:
            return
        if self.inflight and (self.join_queue or self.awaiting_ack):
            return  # drain so the joiners can be welcomed
        self._next_round_timer = self.node.scheduler.call_later(
            self.node.config.sync_interval, self.start_round
        )
        self._maybe_preannounce(self.node.config.sync_interval)

    def _maybe_preannounce(self, delay: float) -> None:
        """Pre-announce the next round (``SyncConfig.scheduled_rounds``).

        The StartSync for the upcoming round is broadcast *now*, during
        the idle inter-round gap, carrying the instant the round will
        start; every participant (master included, via the synchronous
        self-dispatch) arms a flush timer for that instant.  When the
        master's own round timer fires it reuses the announced id and
        order instead of broadcasting again — the signal's network hop
        rides the gap, not the round.

        Announcing is skipped while membership is in motion: the
        announced order is frozen, so joiners would be left out and the
        paper's welcome-between-rounds rule could not hold.
        """
        config = self.node.config
        if not config.sync.scheduled_rounds or config.collection_mode != "concurrent":
            return
        if self._stopped or self.join_queue or self.awaiting_ack:
            return
        round_id = self.round_counter + 1
        order = tuple(self.participants)
        start_at = self.node.scheduler.now() + delay
        self._announced = (round_id, order, start_at)
        self.node.metrics.rounds_preannounced += 1
        self.node.broadcast_signal(msg.StartSync(round_id, order, True, start_at))

    def start_round(self) -> None:
        self._next_round_timer = None
        announced = self._announced
        self._announced = None
        if self._stopped and announced is None:
            return
        if self.collecting is not None or len(self.inflight) >= self.pipeline_depth:
            return  # raced; the blocking round reschedules as it advances
        if announced is None:
            if not self.inflight:
                self._process_membership()
            if len(self.participants) < 1:  # pragma: no cover - master present
                self.start()
                return
            self.round_counter += 1
            order = tuple(self.participants)
        else:
            # The announced order is frozen — participants flushed (or
            # are flushing) against it.  Membership changes since the
            # announcement wait for the next round; departures are
            # reconciled below via the normal removal path.
            self.round_counter, order, _ = announced
        from repro.runtime.metrics import SyncRecord

        mode = self.node.config.collection_mode
        concurrent = mode == "concurrent"
        round_ = _MasterRound(
            round_id=self.round_counter,
            order=order,
            parallel=concurrent,
            record=SyncRecord(
                round_id=self.round_counter,
                started_at=self.node.scheduler.now(),
                participants=len(order),
                collection=mode,
                pipelined=bool(self.inflight),
            ),
        )
        self.inflight[self.round_counter] = round_
        self.node.trace(Tracer.SYNC_START, round=self.round_counter, users=len(order))
        if announced is None:
            self.node.broadcast_signal(
                msg.StartSync(self.round_counter, order, concurrent)
            )
        if not concurrent:
            self._grant_turn(round_)
        self._arm_watchdog()
        if announced is not None:
            stashed = self._early_flush_done.pop(self.round_counter, None)
            self._early_flush_done.clear()  # anything else is stale
            current = list(self.participants)
            for ghost in order:
                if ghost not in current:
                    self._remove_from_round(round_, ghost)
            if stashed and self.round_counter in self.inflight:
                for machine_id, count in stashed.items():
                    self._on_flush_done(
                        msg.FlushDone(self.round_counter, machine_id, count)
                    )

    def _grant_turn(self, round_: "_MasterRound") -> None:
        """Grant the flush turn to the next machine in order."""
        while round_.turn_index < len(round_.order):
            machine_id = round_.order[round_.turn_index]
            if machine_id in round_.removed:
                round_.turn_index += 1
                continue
            turn = msg.YourTurn(round_.round_id, machine_id, round_.order)
            if machine_id == self.node.machine_id:
                self.node.synchronizer.handle_signal(turn)
            else:
                self.node.signals_mesh.send(self.node.machine_id, machine_id, turn)
            return
        self._begin_apply(round_)

    def _begin_apply(self, round_: "_MasterRound") -> None:
        round_.stage = "apply"
        counts = tuple(sorted(round_.counts.items()))
        round_.record.ops_committed = sum(round_.counts.values())
        self.node.broadcast_signal(
            msg.BeginApply(round_.round_id, round_.order, counts)
        )
        # Speculative acks that raced ahead of our own count assembly
        # were parked; validate them against the counts just published.
        early = round_.early_acks
        round_.early_acks = {}
        for machine_id, ack_counts in early.items():
            self._on_apply_ack(
                msg.ApplyAck(round_.round_id, machine_id, ack_counts)
            )
        self._progress()
        # Pipelining: collection of the next round may overlap this
        # round's apply/ack latency.
        self._schedule_next_round()

    # -- signal handling (master consumes these) -------------------------------------

    def handle_signal(self, payload: object) -> None:
        if isinstance(payload, msg.FlushDone):
            self._on_flush_done(payload)
        elif isinstance(payload, msg.ApplyAck):
            self._on_apply_ack(payload)
        elif isinstance(payload, msg.Hello):
            self._on_hello(payload)
        elif isinstance(payload, msg.WelcomeAck):
            self._on_welcome_ack(payload)
        elif isinstance(payload, msg.Goodbye):
            self._on_goodbye(payload)

    def _on_flush_done(self, done: msg.FlushDone) -> None:
        round_ = self.inflight.get(done.round_id)
        if round_ is None:
            if (
                self._announced is not None
                and done.round_id == self._announced[0]
            ):
                # A flush for the pre-announced round beat our own round
                # timer; keep the count until start_round materializes it.
                self._early_flush_done.setdefault(done.round_id, {})[
                    done.machine_id
                ] = done.count
            return
        if done.machine_id in round_.counts or done.machine_id in round_.removed:
            return
        round_.counts[done.machine_id] = done.count
        self._progress()
        if round_.stage != "flush":
            return
        if round_.parallel:
            expected = set(round_.order) - round_.removed
            if expected <= set(round_.counts):
                self._begin_apply(round_)
        elif (
            round_.turn_index < len(round_.order)
            and round_.order[round_.turn_index] == done.machine_id
        ):
            round_.turn_index += 1
            self._grant_turn(round_)

    def _on_apply_ack(self, ack: msg.ApplyAck) -> None:
        round_ = self.inflight.get(ack.round_id)
        if round_ is None:
            return
        if ack.machine_id in round_.removed:
            return
        if round_.stage == "flush":
            # Only a speculative commit can ack before we publish the
            # counts; park it for validation at _begin_apply.
            round_.early_acks[ack.machine_id] = ack.counts
            return
        if ack.counts is not None and tuple(ack.counts) != tuple(
            sorted(round_.counts.items())
        ):
            # The speculator committed a round composition we did not
            # publish: its durable history diverged from the global
            # order.  Remove it and force a snapshot re-welcome.
            self.node.trace(
                Tracer.RECOVERY,
                action="speculation_mismatch",
                machine=ack.machine_id,
                round=ack.round_id,
            )
            round_.record.removals += 1
            self.tainted.add(ack.machine_id)
            self._remove_machine(ack.machine_id, restart=True)
            return
        round_.acks.add(ack.machine_id)
        self._progress()
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        """Finish every fully-acked round, strictly in round-id order."""
        finished = False
        while self.inflight:
            round_ = self.inflight[min(self.inflight)]
            expected = set(round_.order) - round_.removed
            if round_.stage != "apply" or not expected <= round_.acks:
                break
            round_.record.finished_at = self.node.scheduler.now()
            self.node.metrics_system.sync_records.append(round_.record)
            self.node.trace(
                Tracer.SYNC_DONE,
                round=round_.round_id,
                duration=round(round_.record.duration, 4),
            )
            self.node.broadcast_signal(msg.SyncComplete(round_.round_id))
            del self.inflight[round_.round_id]
            finished = True
        if not finished:
            return
        self._nudge_restarts()
        if (
            (self.awaiting_ack or self.join_queue)
            and not self.inflight
            and self._announced is None
        ):
            # Re-welcome unacked joiners and serve Hellos a pending
            # announcement deferred (their Welcomes must postdate the
            # announced round, which has finished by now).
            self._process_membership()
        self._schedule_next_round()

    # -- membership ---------------------------------------------------------------------

    def _on_hello(self, hello: msg.Hello) -> None:
        self.awaiting_restart.discard(hello.machine_id)
        if hello.recovered_count is not None:
            self.recovered_counts[hello.machine_id] = hello.recovered_count
            if hello.recovered_tail is not None:
                self.recovered_tails[hello.machine_id] = tuple(
                    hello.recovered_tail
                )
            else:
                self.recovered_tails.pop(hello.machine_id, None)
        else:
            self.recovered_counts.pop(hello.machine_id, None)
            self.recovered_tails.pop(hello.machine_id, None)
        if hello.machine_id in self.participants:
            # A standing participant saying Hello has rebooted out from
            # under us (silent crash, quick recovery): its old standing
            # is stale, so fold it back in through the join path.
            self._remove_machine(hello.machine_id, restart=False)
        if hello.machine_id not in self.join_queue:
            self.join_queue.append(hello.machine_id)
        # A join between rounds can be processed immediately — but a
        # pre-announced round counts as in flight: its order is frozen,
        # so a Welcome served now would predate its commits and the
        # joiner would re-enter with a hole in its prefix.
        if not self.inflight and self._announced is None:
            self._process_membership()

    def _on_welcome_ack(self, ack: msg.WelcomeAck) -> None:
        if ack.machine_id not in self.awaiting_ack:
            return
        if self.inflight or self._announced is not None:
            # The ack raced rounds this machine is not part of (a
            # pre-announced round's order is frozen, so it counts too):
            # its Welcome predates their commits, so admitting it now
            # would leave a permanent hole in its committed sequence.
            # Keep it queued; _maybe_finish re-welcomes it with a fresh
            # snapshot once the pipeline drains (loading is idempotent
            # and the joiner catches up on the missed suffix).
            return
        self.awaiting_ack.discard(ack.machine_id)
        self.recovered_counts.pop(ack.machine_id, None)
        self.recovered_tails.pop(ack.machine_id, None)
        # An acked Welcome was a snapshot for tainted machines, which
        # rebases their divergent durable log — the taint is cleared.
        self.tainted.discard(ack.machine_id)
        if ack.machine_id not in self.participants:
            self.participants.append(ack.machine_id)
        self.node.trace(Tracer.MEMBERSHIP, joined=ack.machine_id)

    def _on_goodbye(self, goodbye: msg.Goodbye) -> None:
        if goodbye.machine_id in self.participants:
            self.participants.remove(goodbye.machine_id)
            self.node.trace(Tracer.MEMBERSHIP, left=goodbye.machine_id)
        # Treat a mid-round departure like a stage-appropriate removal
        # in every in-flight round.
        self._remove_machine(goodbye.machine_id, restart=False)

    def _process_membership(self) -> None:
        """Welcome queued joiners (between rounds, as the paper does).

        Machines that never acknowledged a previous Welcome (the
        message may have been lost) are re-welcomed with a fresh
        snapshot — loading it is idempotent on the joiner.
        """
        while self.join_queue:
            self.awaiting_ack.add(self.join_queue.pop(0))
        for machine_id in sorted(self.awaiting_ack):
            welcome = self._build_welcome(machine_id)
            self.node.signals_mesh.send(self.node.machine_id, machine_id, welcome)

    def _build_welcome(self, machine_id: str) -> msg.Welcome:
        """Full-snapshot Welcome, or a committed-op backlog when the
        joiner announced durable recovered state this master can extend
        (its recovered |C| falls inside our held history and its tail
        key matches our entry at that position — a count alone cannot
        prove the recovered history is a prefix of the global order)."""
        node = self.node
        recovered_count = self.recovered_counts.get(machine_id)
        if machine_id in self.tainted:
            # A divergent speculative commit is in its durable log: a
            # backlog Welcome would extend the divergence (a matching
            # tail cannot prove anything about the rounds around the
            # fork).  Only a snapshot, which rebases the log, is safe.
            recovered_count = None
        offset = node.completed_offset
        total = offset + node.model.completed_count
        op_floor = node.model.op_high_water.get(machine_id, 0)
        if recovered_count is not None and not self._tail_matches(
            machine_id, recovered_count, offset
        ):
            # The joiner's recovered history is NOT the global prefix it
            # claims (e.g. it logged pipelined rounds around a hole
            # before crashing).  Serving a backlog would cement the
            # divergence; fall back to the full snapshot, which also
            # rebases its durable log to a clean prefix.
            self.node.trace(
                Tracer.RECOVERY, action="stale_recovery", machine=machine_id
            )
            recovered_count = None
        if recovered_count is not None and offset <= recovered_count <= total:
            backlog = tuple(
                (
                    entry.key.machine_id,
                    entry.key.op_number,
                    encode_op(entry.op),
                    entry.result,
                    entry.committed_at,
                )
                for entry in node.model.completed[recovered_count - offset :]
            )
            return msg.Welcome(
                machine_id=machine_id,
                master_id=node.machine_id,
                snapshot={},
                completed_count=total,
                backlog_from=recovered_count,
                backlog=backlog,
                op_floor=op_floor,
            )
        return msg.Welcome(
            machine_id=machine_id,
            master_id=node.machine_id,
            snapshot=node.model.committed.snapshot_states(),
            completed_count=node.model.completed_count,
            op_floor=op_floor,
        )

    def _tail_matches(
        self, machine_id: str, recovered_count: int, offset: int
    ) -> bool:
        """True when the joiner's announced tail key agrees with our
        completed entry at its claimed position (or no tail to check)."""
        tail = self.recovered_tails.get(machine_id)
        if tail is None:
            return True  # snapshot-only recovery holds no entries
        index = recovered_count - offset - 1
        if index < 0 or index >= self.node.model.completed_count:
            return True  # outside our history; the bounds check decides
        entry = self.node.model.completed[index]
        return (entry.key.machine_id, entry.key.op_number) == tail

    def _nudge_restarts(self) -> None:
        """Re-send Restart to machines that have not re-entered yet."""
        for machine_id in list(self.awaiting_restart):
            if self.node.signals_mesh.is_member(machine_id):
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, msg.Restart(machine_id)
                )

    # -- stall detection and recovery ------------------------------------------------------

    def _progress(self) -> None:
        self._progress_seq += 1
        self._arm_watchdog()

    def _arm_watchdog(self) -> None:
        # A gracefully stopped master keeps watching rounds still in
        # flight (they must drain); a halted (crashed) one goes silent.
        if not self.inflight or self._halted:
            return
        seq = self._progress_seq
        self.node.scheduler.call_later(
            self.node.config.stall_timeout, lambda: self._watchdog(seq)
        )

    def _watchdog(self, seq: int) -> None:
        if self._halted or seq != self._progress_seq or not self.inflight:
            return
        for round_id in sorted(self.inflight):
            round_ = self.inflight.get(round_id)
            if round_ is None:
                continue  # finished while we handled an earlier round
            if round_.stage == "flush":
                if round_.parallel:
                    expected = set(round_.order) - round_.removed
                    for stalled in sorted(expected - set(round_.counts)):
                        if round_.stage != "flush":
                            break  # a removal completed the flush stage
                        self._handle_stall(round_, stalled, stage="flush")
                elif round_.turn_index < len(round_.order):
                    stalled = round_.order[round_.turn_index]
                    self._handle_stall(round_, stalled, stage="flush")
            else:
                expected = set(round_.order) - round_.removed
                for stalled in sorted(expected - round_.acks):
                    if round_id not in self.inflight:
                        break  # the round finished while we were removing
                    self._handle_stall(round_, stalled, stage="apply")
        self._maybe_finish()
        if self.inflight:
            self._progress()  # restart the clock after acting

    def _handle_stall(
        self, round_: "_MasterRound", machine_id: str, stage: str
    ) -> None:
        strikes = round_.strikes.get(machine_id, 0) + 1
        round_.strikes[machine_id] = strikes
        is_self = machine_id == self.node.machine_id
        # The master can never strike out its own machine: a removed
        # node must re-join via Hello, but Hello is a plain broadcast
        # that never reaches this (co-located) MasterControl, so a
        # self-removal wedges the master's node permanently.  Keep
        # resending to ourselves instead.
        resend = strikes == 1 or is_self
        self.node.trace(
            Tracer.RECOVERY,
            action="resend" if resend else "remove",
            machine=machine_id,
            stage=stage,
        )
        if resend:
            round_.record.resends += 1
            if stage == "flush":
                payload: object = msg.YourTurn(
                    round_.round_id, machine_id, round_.order
                )
            else:
                counts = tuple(sorted(round_.counts.items()))
                payload = msg.BeginApply(round_.round_id, round_.order, counts)
            if is_self:
                # Self-addressed mesh sends arrive with delivery latency
                # and can land *after* the round's SyncComplete, out of
                # order with every other self-dispatched signal; keep
                # master-to-self delivery synchronous (as _grant_turn
                # does).
                self.node.synchronizer.handle_signal(payload)
            else:
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, payload
                )
        else:
            round_.record.removals += 1
            self._remove_machine(machine_id, restart=True)

    def _remove_machine(self, machine_id: str, restart: bool) -> None:
        """Remove a machine from the participant list and from *every*
        in-flight round (a removed machine must re-join; it cannot keep
        participating in later pipelined rounds)."""
        if machine_id in self.participants:
            self.participants.remove(machine_id)
        if restart:
            self.awaiting_restart.add(machine_id)
            if self.node.signals_mesh.is_member(machine_id):
                self.node.signals_mesh.send(
                    self.node.machine_id, machine_id, msg.Restart(machine_id)
                )
        for round_id in sorted(self.inflight):
            round_ = self.inflight.get(round_id)
            if round_ is not None:
                self._remove_from_round(round_, machine_id)
        self._maybe_finish()

    def _remove_from_round(
        self, round_: "_MasterRound", machine_id: str
    ) -> None:
        if machine_id in round_.removed or machine_id not in set(round_.order):
            return
        round_.removed.add(machine_id)
        # If our own synchronizer already stream-committed this
        # machine's block (speculative apply), the ops cannot be taken
        # back: they must stay in the round.  That is safe to promise —
        # a committed block means we hold every one of its ops and can
        # serve any resend — whereas dropping it would force the master
        # to evict itself, and nobody can restart the master.
        sync_round = self.node.synchronizer.rounds.get(round_.round_id)
        streamed_here = (
            sync_round is not None and machine_id in sync_round.stream_done
        )
        drop_ops = machine_id not in round_.counts and not streamed_here
        if round_.stage == "flush":
            if streamed_here:
                # Counts are not published yet; pin the committed
                # block's count so BeginApply matches what we applied.
                round_.counts[machine_id] = sync_round.stream_done[machine_id]
            else:
                # The machine's flush (if any) can still be excluded
                # consistently everywhere.
                round_.counts.pop(machine_id, None)
        # After BeginApply the counts are immutable: some machines may
        # already have committed with them, so the removal must not
        # change the round's consolidated list.
        self.node.broadcast_signal(
            msg.ParticipantRemoved(round_.round_id, machine_id, drop_ops)
        )
        if round_.stage == "flush":
            if round_.parallel:
                expected = set(round_.order) - round_.removed
                if expected <= set(round_.counts):
                    self._begin_apply(round_)
            elif (
                round_.turn_index < len(round_.order)
                and round_.order[round_.turn_index] == machine_id
            ):
                round_.turn_index += 1
                self._grant_turn(round_)


@dataclass(slots=True)
class _MasterRound:
    """Master-side bookkeeping for one in-flight round."""

    round_id: int
    order: tuple[str, ...]
    record: object  # SyncRecord (kept loose to avoid a metrics import cycle)
    parallel: bool = False
    stage: str = "flush"
    turn_index: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    acks: set[str] = field(default_factory=set)
    removed: set[str] = field(default_factory=set)
    strikes: dict[str, int] = field(default_factory=dict)
    #: speculative ApplyAcks that arrived before the counts were
    #: published: machine -> advertised counts fingerprint
    early_acks: dict[str, tuple | None] = field(default_factory=dict)

"""Per-machine model state — the (λ, C, sc, P, sg) tuple of section 3.

:class:`MachineModel` is deliberately runtime-free: it owns the two
replica stores, the pending and completed operation sequences, and the
operation counter, but knows nothing about meshes or synchronization.
The synchronizer (:mod:`repro.runtime`) drives it, and the semantics
oracle (:mod:`repro.semantics`) checks it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from sys import intern
from typing import Any, Callable, Iterator

from repro.core.operations import OpKey, SharedOp
from repro.core.store import ObjectStore

#: Completion routines: called with the commit-time boolean result.
CompletionFn = Callable[[bool], None]


@dataclass(slots=True)
class PendingEntry:
    """One entry of the pending sequence P.

    Carries everything needed to commit the operation later: its global
    key, the operation tree, the completion routine (run on the issuing
    machine only), and bookkeeping used by the evaluation (issue-time
    result and virtual timestamps).

    ``absorbed`` holds entries this one superseded during op-log
    compaction (``SyncConfig.compact_flush``): they never ride the
    round, but their completions fire with this entry's commit result.
    """

    key: OpKey
    op: SharedOp
    completion: CompletionFn | None
    issue_result: bool
    issued_at: float
    executions: int = 1  # issue counts as the first execution
    absorbed: tuple = ()


@dataclass(frozen=True, slots=True)
class CompletedEntry:
    """One entry of the completed sequence C (identical on all machines).

    A read-only view built on access from :class:`CompletedLog`'s
    columns; writing to C goes through the log itself.
    """

    key: OpKey
    op: SharedOp
    result: bool
    committed_at: float


class CompletedLog:
    """The completed sequence C, stored column-wise.

    Every replica keeps C for its whole life, so the per-entry cost is
    what it weighs: one pointer per machine id (interned), eight bytes
    per op number and per commit time, one byte per result, and the op
    tree.  Reads behave like a ``list[CompletedEntry]``: index (negative
    too), slice, iteration, ``len`` and ``==`` build entry views on the
    fly.  The runtime appends through :meth:`append` and compares
    histories through :meth:`matches` without building any views.
    """

    __slots__ = ("machines", "numbers", "ops", "results", "committed_at")

    def __init__(self) -> None:
        self.machines: list[str] = []
        self.numbers = array("q")
        self.ops: list[SharedOp] = []
        self.results = bytearray()
        self.committed_at = array("d")

    def append(
        self,
        machine_id: str,
        op_number: int,
        op: SharedOp,
        result: bool,
        committed_at: float,
    ) -> None:
        self.machines.append(intern(machine_id))
        self.numbers.append(op_number)
        self.ops.append(op)
        self.results.append(result)
        self.committed_at.append(committed_at)

    def truncate(self, length: int) -> None:
        """Keep only the first ``length`` entries."""
        del self.machines[length:]
        del self.numbers[length:]
        del self.ops[length:]
        del self.results[length:]
        del self.committed_at[length:]

    def clear(self) -> None:
        self.truncate(0)

    def __len__(self) -> int:
        return len(self.numbers)

    def _entry(self, index: int) -> CompletedEntry:
        return CompletedEntry(
            OpKey(self.machines[index], self.numbers[index]),
            self.ops[index],
            bool(self.results[index]),
            self.committed_at[index],
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._entry(i) for i in range(len(self))[index]]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("completed sequence index out of range")
        return self._entry(index)

    def __iter__(self) -> Iterator[CompletedEntry]:
        return map(self._entry, range(len(self)))

    def matches(self, other: "CompletedLog", start: int = 0) -> bool:
        """True when this log equals ``other[start:]`` by key and result.

        Ops and commit times are not compared: the op follows from the
        key, and each replica stamps its own commit clock.
        """
        if len(self) != max(0, len(other) - start):
            return False
        theirs = (other.results, other.numbers, other.machines)
        if start:
            theirs = tuple(column[start:] for column in theirs)
        return (self.results, self.numbers, self.machines) == theirs

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (CompletedLog, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"CompletedLog({list(self)!r})"


@dataclass
class MachineModel:
    """State of one machine: local state λ, C, sc, P, sg."""

    machine_id: str
    local_state: dict[str, Any] = field(default_factory=dict)
    committed: ObjectStore = field(default_factory=lambda: ObjectStore("committed"))
    guess: ObjectStore = field(default_factory=lambda: ObjectStore("guess"))
    completed: CompletedLog = field(default_factory=CompletedLog)
    pending: list[PendingEntry] = field(default_factory=list)
    _op_counter: int = 0
    #: highest committed op number seen per machine — survives C being
    #: truncated to a suffix, so the master can tell a rejoining machine
    #: the numbering floor it must not reuse (Welcome.op_floor)
    op_high_water: dict[str, int] = field(default_factory=dict, compare=False)
    #: key -> entry index over ``pending`` so lookups are O(1); kept
    #: consistent by enqueue_pending/take_pending/requeue_pending_front
    _pending_index: dict[OpKey, PendingEntry] = field(
        default_factory=dict, compare=False, repr=False
    )

    # -- operation numbering ---------------------------------------------------

    def next_op_key(self) -> OpKey:
        """Mint the next (machineID, operation number) pair."""
        self._op_counter += 1
        return OpKey(self.machine_id, self._op_counter)

    # -- pending queue ---------------------------------------------------------

    def enqueue_pending(self, entry: PendingEntry) -> None:
        self.pending.append(entry)
        self._pending_index[entry.key] = entry

    def take_pending(self) -> list[PendingEntry]:
        """Remove and return all pending entries (the flush step)."""
        taken = self.pending
        self.pending = []
        self._pending_index.clear()
        return taken

    def requeue_pending_front(self, entries: list[PendingEntry]) -> None:
        """Put entries back at the head of P (flush-overflow backpressure)."""
        self.pending = list(entries) + self.pending
        for entry in entries:
            self._pending_index[entry.key] = entry

    def find_pending(self, key: OpKey) -> PendingEntry | None:
        return self._pending_index.get(key)

    # -- completed sequence ------------------------------------------------------

    def record_completed(
        self,
        machine_id: str,
        op_number: int,
        op: SharedOp,
        result: bool,
        committed_at: float,
    ) -> None:
        self.completed.append(machine_id, op_number, op, result, committed_at)
        if op_number > self.op_high_water.get(machine_id, 0):
            self.op_high_water[machine_id] = op_number

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def completed_keys(self) -> list[OpKey]:
        return [entry.key for entry in self.completed]

    # -- invariant checks (used by tests and the model checker) -----------------

    def check_convergence_invariant(self) -> bool:
        """Check the paper's invariant ``[P](sc) = sg``.

        Replays the pending sequence on a scratch copy of the committed
        store and compares against the guesstimated store.  Operation
        results are ignored during replay, exactly like the semantics'
        ``[o]`` notation.
        """
        scratch = ObjectStore("scratch")
        scratch.refresh_from(self.committed)
        for entry in self.pending:
            entry.op.execute(scratch)
        return scratch.state_equal(self.guess)

    def quiesced(self) -> bool:
        """True when no operations are pending on this machine."""
        return not self.pending

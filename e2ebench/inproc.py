"""In-process workloads: every node on one asyncio loop, real 127.0.0.1 TCP.

* ``replicate-8`` — a ``LoopbackCluster`` of 8 nodes (56 TCP links),
  durability off, ``sync_interval`` 0.05.  256 closed-loop slots spread
  round-robin over the machines run the counters mix of
  ``gateway-counters`` (reads through ``api.reading``, writes through
  ``Guesstimate.invoke``).
* ``market-escrow`` — 3 nodes, durability off, ``sync_interval`` 0.05,
  one ``Marketplace`` holding 32 traders and 300 listed items.  32
  closed-loop slots (one per trader) read an offer from a hot set of 48
  items and buy it with an Atomic debit/take_offer/credit, or relist an
  item they own.

A slot's next operation is scheduled as a fresh loop callback when its
previous one commits, as an independent client would; it is due when
that callback starts.
"""

from __future__ import annotations

import random
import time
from time import perf_counter

import tracing
from ledger import (
    BalanceLedger,
    CounterLedger,
    counters_initial_state,
    draw_counter_op,
)
from stats import percentile, ratio, self_peak_rss_mb

WARMUP_S = 1.0
READ_SHARE = 0.2
TRADERS = tuple(f"u{i:02d}" for i in range(32))
ITEMS = tuple(f"i{i:03d}" for i in range(300))
HOT_ITEMS = ITEMS[:48]
FUNDS = 1_000_000
RELIST_SHARE = 0.3
#: offers a trader looks at before giving up for a moment
SCAN_TRIES = 8


class ClosedLoop:
    """Slots that each keep one operation outstanding on one machine."""

    def __init__(self, cluster, object_id: str, slots: int, seed: int):
        self.loop = cluster.aio_loop
        self.object_id = object_id
        machine_ids = cluster.machine_ids()
        self.apis = [cluster.api(machine_ids[s % len(machine_ids)]) for s in range(slots)]
        self.rngs = [random.Random(seed * 100_003 + s) for s in range(slots)]
        self.running = False
        #: one record per operation:
        #: [due, issued, committed, commit result, issue ok, deferred at issue]
        self.ops: list[list] = []
        self.reads: list[tuple[float, float]] = []
        self._watch: list[tuple] = []  # (ticket, record, slot) deferred at issue
        self.outstanding = 0

    def start(self) -> None:
        self.running = True
        for slot in range(len(self.apis)):
            self.loop.call_soon(self.step, slot, None)
        self.loop.call_later(0.01, self._check_deferred)

    def stop(self) -> None:
        self.running = False

    def step(self, slot: int, due: float | None) -> None:
        """Run the slot's next operation; ``due`` is None unless retried."""
        raise NotImplementedError

    def timed_read(self, slot: int, fn):
        started = perf_counter()
        with self.apis[slot].reading(self.object_id) as obj:
            value = fn(obj)
        self.reads.append((started, perf_counter()))
        return value

    def issue(self, slot: int, due: float, method: str, args: list, atomic_with=None,
              on_commit=None) -> None:
        """Invoke one op; its completion makes the slot's next op due."""
        record = [due, 0.0, 0.0, None, True, False]
        self.outstanding += 1

        def completion(ok: bool) -> None:
            record[2] = perf_counter()
            record[3] = ok
            self.outstanding -= 1
            if on_commit is not None:
                on_commit(ok)
            self.loop.call_soon(self.step, slot, None)

        ticket = self.apis[slot].invoke(
            self.object_id, method, *args, completion=completion, atomic_with=atomic_with
        )
        record[1] = perf_counter()
        self.ops.append(record)
        if ticket.status == "rejected":
            self._rejected(record, slot)
        elif ticket.status == "pending":
            record[5] = True
            self._watch.append((ticket, record, slot))

    def _rejected(self, record: list, slot: int) -> None:
        record[4] = False
        self.outstanding -= 1
        self.loop.call_soon(self.step, slot, None)

    def _check_deferred(self) -> None:
        """A deferred issue that fails on the guess never completes."""
        still = []
        for ticket, record, slot in self._watch:
            if ticket.status == "rejected":
                self._rejected(record, slot)
            elif ticket.status == "pending":
                still.append((ticket, record, slot))
        self._watch = still
        self.loop.call_later(0.01, self._check_deferred)


class CountersLoop(ClosedLoop):
    """The counters mix of ``gateway-counters``, as a closed loop."""

    def __init__(self, cluster, object_id: str, slots: int, seed: int):
        super().__init__(cluster, object_id, slots, seed)
        self.ledger = CounterLedger()

    def step(self, slot: int, due: float | None) -> None:
        if not self.running:
            return
        due = perf_counter() if due is None else due
        rng = self.rngs[slot]
        if rng.random() < READ_SHARE:
            self.timed_read(slot, lambda hub: hub.total())
            self.loop.call_soon(self.step, slot, None)
            return
        method, args = draw_counter_op(rng)
        self.issue(
            slot, due, method, args,
            on_commit=lambda ok: self.ledger.record(method, args, ok),
        )


def market_initial_state(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "balances": {user: FUNDS for user in TRADERS},
        "stock": {user: [] for user in TRADERS},
        "offers": {
            item: [TRADERS[i % len(TRADERS)], rng.randint(1, 100)]
            for i, item in enumerate(ITEMS)
        },
        "minted": FUNDS * len(TRADERS),
    }


class MarketLoop(ClosedLoop):
    """Traders buying hot offers atomically and relisting what they own."""

    def __init__(self, cluster, object_id: str, slots: int, seed: int):
        super().__init__(cluster, object_id, slots, seed)
        self.ledger = BalanceLedger({user: FUNDS for user in TRADERS})

    def step(self, slot: int, due: float | None) -> None:
        if not self.running:
            return
        due = perf_counter() if due is None else due
        rng, api, me = self.rngs[slot], self.apis[slot], TRADERS[slot]
        for _ in range(SCAN_TRIES):
            item = rng.choice(HOT_ITEMS)
            offer, mine = self.timed_read(
                slot,
                lambda market: (
                    list(market.offers[item]) if item in market.offers else None,
                    list(market.stock[me]),
                ),
            )
            if mine and (offer is None or offer[0] == me or rng.random() < RELIST_SHARE):
                self.issue(slot, due, "list_item", [me, rng.choice(mine), rng.randint(1, 100)])
                return
            if offer is not None and offer[0] != me:
                break
        else:
            # Nothing to buy or relist right now: look again shortly.
            self.loop.call_later(0.005, self.step, slot, due)
            return
        seller, price = offer
        legs = [
            api.create_operation(self.object_id, "take_offer", item, me, price),
            api.create_operation(self.object_id, "credit", seller, price),
        ]
        self.issue(
            slot, due, "debit", [me, price], atomic_with=legs,
            on_commit=lambda ok: self.ledger.record_purchase(me, seller, price, ok),
        )


def _boot(n_machines: int, cls, init_state: dict, traced: bool):
    """Boot, create the object on the first machine, join it everywhere."""
    from repro.errors import IssueBlockedError
    from repro.runtime.config import RuntimeConfig
    from repro.transport.loopback import LoopbackCluster

    started = perf_counter()
    cluster = LoopbackCluster(n_machines, config=RuntimeConfig(sync_interval=0.05))
    cluster.boot()
    if traced:
        for node in cluster.nodes.values():
            tracing.attach_profiler(node)
    cluster.start(first_sync_delay=0.05)
    machine_ids = cluster.machine_ids()
    refused = 0
    while True:
        try:
            obj = cluster.api(machine_ids[0]).create_instance(cls, init_state)
            break
        except IssueBlockedError as exc:
            refused += 1
            print(f"setup: create_instance refused: {exc} (refusal {refused})")
            cluster.run_for(0.001)
    deadline = perf_counter() + 30.0
    while not all(n.model.committed.has(obj.unique_id) for n in cluster.nodes.values()):
        if perf_counter() > deadline:
            raise RuntimeError("the created object never committed everywhere")
        cluster.run_for(0.002)
    for machine_id in machine_ids[1:]:
        cluster.api(machine_id).join_instance(obj.unique_id)
    return cluster, obj.unique_id, perf_counter() - started, refused


def _check(cluster, loop: ClosedLoop, workload: str) -> list[str]:
    """Correctness at quiescence: invariants, ledger, conservation."""
    from repro.errors import GuesstimateError

    problems = []
    try:
        cluster.run_until_quiesced(max_time=30.0)
        cluster.check_all_invariants()
    except GuesstimateError as exc:
        problems.append(f"invariants: {exc}")
    for machine_id, node in cluster.nodes.items():
        state = node.model.committed.get(loop.object_id)
        if workload == "replicate-8":
            problems.extend(
                f"{machine_id}: {line}"
                for line in loop.ledger.mismatches(state.counters, state.sightings)
            )
            continue
        if sum(state.balances.values()) != state.minted:
            problems.append(
                f"{machine_id}: money not conserved: "
                f"{sum(state.balances.values())} != minted {state.minted}"
            )
        held = sorted([i for items in state.stock.values() for i in items] + list(state.offers))
        if held != sorted(ITEMS):
            problems.append(f"{machine_id}: items not each held exactly once")
        problems.extend(f"{machine_id}: {line}" for line in loop.ledger.mismatches(state.balances))
    return problems


WORKLOADS = {
    # name: (machines, slots, shared class name, loop class)
    "replicate-8": (8, 256, "PresenceCounters", CountersLoop),
    "market-escrow": (3, 32, "Marketplace", MarketLoop),
}


def run(workload: str, work, seed: int, seconds: float, setups: int, traced: bool) -> dict:
    """Boot ``setups`` times (keeping the last), drive, check, tear down."""
    from repro.core.serialization import resolve_shared_type
    import repro.apps  # noqa: F401 - registers the shared types

    n_machines, slots, type_name, loop_class = WORKLOADS[workload]
    cls = resolve_shared_type(type_name)
    init_state = (
        counters_initial_state() if workload == "replicate-8" else market_initial_state(seed)
    )
    recorder = None
    if traced:
        recorder = tracing.SpanRecorder()
        tracing.install(recorder)
    setup_times, refused = [], 0
    for attempt in range(setups):
        cluster, object_id, setup_s, refusals = _boot(n_machines, cls, init_state, traced)
        setup_times.append(setup_s)
        refused += refusals
        if attempt < setups - 1:
            cluster.shutdown()
    try:
        loop = loop_class(cluster, object_id, slots, seed)
        nodes, transports = list(cluster.nodes.values()), list(cluster.transports.values())
        loop.start()
        cluster.run_for(WARMUP_S)
        window_start = perf_counter()
        cpu_start = time.process_time()
        marks = [tracing.snapshot(nodes, transports, recorder)] if traced else []
        cluster.run_for(seconds)
        window = (window_start, perf_counter())
        cpu = time.process_time() - cpu_start
        if traced:
            marks.append(tracing.snapshot(nodes, transports, recorder))
        loop.stop()
        deadline = perf_counter() + 30.0
        while loop.outstanding > 0 and perf_counter() < deadline:
            cluster.run_for(0.02)
        problems = _check(cluster, loop, workload)
        problems.extend(f"scheduler callback raised: {e!r}" for e in cluster.loop.errors)
        rounds = tracing.sync_records(cluster.metrics) if traced else []
    finally:
        cluster.shutdown()

    lo, hi = window
    measured = hi - lo
    in_window = [op for op in loop.ops if lo <= op[0] < hi]
    issued = [op for op in in_window if op[4]]
    committed = [op for op in issued if op[3] is not None]
    conflicts = [op for op in committed if not op[3]]
    commits_in_window = sum(1 for op in loop.ops if op[3] is not None and lo <= op[2] < hi)
    reads = [(t1 - t0) * 1e3 for t0, t1 in loop.reads if lo <= t0 < hi]
    issue_ms = [(op[1] - op[0]) * 1e3 for op in in_window]
    errors = len(issued) - len(committed)
    attempted = len(in_window) + len(reads)
    summary = {
        "committed_in_window": commits_in_window,
        "attempted": attempted,
        "failed": errors,
        "metrics": {
            "committed_ops_s": commits_in_window / measured,
            "commit_ms_p50": percentile([(op[2] - op[0]) * 1e3 for op in committed], 50),
            "commit_ms_p99": percentile([(op[2] - op[0]) * 1e3 for op in committed], 99),
            "cpu_ms_per_op": cpu * 1e3 / max(1, commits_in_window),
            "rss_mb": self_peak_rss_mb(),
            "commit_agree_share": 1.0 - ratio(len(conflicts), len(committed)),
            "ok_share": 1.0 - ratio(errors, attempted),
        },
        "client": {
            "issue_ms_p50": percentile(issue_ms, 50),
            "issue_ms_p99": percentile(issue_ms, 99),
            "read_ms_p50": percentile(reads, 50),
            "read_ms_p99": percentile(reads, 99),
        },
        "samples": {"writes": len(in_window), "commits": len(committed), "reads": len(reads)},
        "health": {
            "lateness_ms_p50": 0.0,
            "lateness_ms_p99": 0.0,
            "behind": 0.0,
            "pending_share": ratio(sum(1 for op in in_window if op[5]), len(in_window)),
        },
        "conflict_share": ratio(len(conflicts), len(committed)),
        "error_share": ratio(errors, attempted),
        "setup_times": setup_times,
        "refused_creates": refused,
        "problems": problems,
    }
    if traced:
        dump = {
            "spans": recorder.columns(),
            "start": marks[0],
            "end": marks[1],
            "rounds": rounds,
        }
        summary["layers"] = tracing.layer_metrics([dump], dump, window, commits_in_window)
        recorder.write(str(work / "spans.tsv"))
    return summary

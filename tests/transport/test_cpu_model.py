"""The runtime's CPU cost model is charged on virtual time only.

``RuntimeConfig``'s ``flush_cpu``/``apply_cpu``/``update_cpu`` costs
give the simulator's issue windows their width.  On a wall clock the
real work already ran inline, so a node must not sleep them: with an
absurd per-op cost a socket round still commits at once, while the
same config on the :class:`~repro.sim.eventloop.EventLoop` stretches
the round's virtual duration by the modelled cost.  The last test pins
one clock read per applied block: the commit time logged to the WAL is
the one C holds.
"""

from __future__ import annotations

import time

from repro.runtime.config import RuntimeConfig
from repro.runtime.system import DistributedSystem
from repro.transport.loopback import LoopbackCluster
from tests.helpers import Counter

#: Modelled apply cost per op, in seconds: a 20-op round would sleep
#: at least 20 s if the cost were charged on the wall clock.
APPLY_CPU_PER_OP = 1.0
OPS_PER_MACHINE = 10
#: Both halves run the same config.  The stall timeout is raised so
#: the virtual run's long apply is not mistaken for a dead machine.
CONFIG = RuntimeConfig(
    sync_interval=0.02, apply_cpu_per_op=APPLY_CPU_PER_OP, stall_timeout=60.0
)


def issue_round(harness) -> list:
    """Create a Counter, join it on both machines, then issue one
    batch of increments from each; returns the tickets."""
    machine_ids = harness.machine_ids()
    counter = harness.api(machine_ids[0]).create_instance(Counter)
    harness.run_until_quiesced()
    tickets = []
    for machine_id in machine_ids:
        api = harness.api(machine_id)
        replica = api.join_instance(counter.unique_id)
        for _ in range(OPS_PER_MACHINE):
            tickets.append(api.invoke(replica, "increment", 1000))
    return tickets


def test_wall_clock_round_does_not_sleep_modelled_cpu():
    cluster = LoopbackCluster(2, config=CONFIG)
    try:
        cluster.boot()
        cluster.start(first_sync_delay=0.02)
        tickets = issue_round(cluster)
        started = time.monotonic()
        cluster.run_until_quiesced(max_time=5.0)
        elapsed = time.monotonic() - started
        assert all(t.status == "committed" and t.commit_result for t in tickets)
        cluster.check_all_invariants()
        assert cluster.loop.errors == []
    finally:
        cluster.shutdown()
    assert elapsed < 5.0


def test_event_loop_round_is_stretched_by_modelled_cpu():
    system = DistributedSystem(n_machines=2, seed=3, config=CONFIG)
    system.start(first_sync_delay=0.02)
    tickets = issue_round(system)
    system.run_until_quiesced()
    assert all(t.status == "committed" and t.commit_result for t in tickets)
    busiest = max(system.metrics.sync_records, key=lambda r: r.ops_committed)
    assert busiest.ops_committed == 2 * OPS_PER_MACHINE
    assert busiest.duration >= APPLY_CPU_PER_OP * busiest.ops_committed


def test_wal_commit_times_equal_completed_sequence():
    """One clock read per applied block: a replica rebuilt from its WAL
    and one welcomed from the master's backlog agree on commit times."""
    config = RuntimeConfig(sync_interval=0.02, durability="memory")
    cluster = LoopbackCluster(2, config=config)
    try:
        cluster.boot()
        cluster.start(first_sync_delay=0.02)
        issue_round(cluster)
        cluster.run_until_quiesced(max_time=15.0)
        for node in cluster.nodes.values():
            recovered = node.storage.recover()
            assert recovered is not None and recovered.base_offset == 0
            logged = [
                entry[4] for commit in recovered.commits for entry in commit.entries
            ]
            assert len(logged) == node.model.completed_count > OPS_PER_MACHINE
            assert logged == list(node.model.completed.committed_at)
    finally:
        cluster.shutdown()

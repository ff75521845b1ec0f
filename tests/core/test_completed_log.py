"""The column-wise completed sequence and the cluster check over it.

:class:`CompletedLog` must read exactly like the ``list[CompletedEntry]``
it replaced, and ``completed_sequences_equal`` — which compares its
columns directly — must still catch every kind of divergent history.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.machine import CompletedEntry, CompletedLog
from repro.core.operations import OpKey, PrimitiveOp
from repro.runtime.system import completed_sequences_equal
from tests.helpers import quick_system, shared_counter

OPS = [PrimitiveOp("c1", "increment", (limit,)) for limit in range(3)]

appends = st.tuples(
    st.just("append"),
    st.sampled_from(["m01", "m02", "m10"]),
    st.integers(0, 2**40),
    st.integers(0, len(OPS) - 1),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
)
commands = st.one_of(
    appends,
    appends,
    appends,
    st.tuples(st.just("clear")),
    st.tuples(st.just("truncate"), st.integers(0, 12)),
    st.tuples(st.just("index"), st.integers(-12, 12)),
    st.tuples(
        st.just("slice"),
        st.none() | st.integers(-12, 12),
        st.none() | st.integers(-12, 12),
        st.none() | st.integers(-3, 3).filter(bool),
    ),
    st.tuples(st.just("iterate")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(commands, max_size=40))
def test_log_reads_like_a_list_of_entries(script):
    log = CompletedLog()
    reference: list[CompletedEntry] = []
    for command in script:
        name = command[0]
        if name == "append":
            _, machine_id, number, op_index, result, at = command
            log.append(machine_id, number, OPS[op_index], result, at)
            reference.append(
                CompletedEntry(OpKey(machine_id, number), OPS[op_index], result, at)
            )
        elif name == "clear":
            log.clear()
            reference.clear()
        elif name == "truncate":
            log.truncate(command[1])
            del reference[command[1] :]
        elif name == "index":
            index = command[1]
            if -len(reference) <= index < len(reference):
                assert log[index] == reference[index]
            else:
                with pytest.raises(IndexError):
                    log[index]
        elif name == "slice":
            window = slice(*command[1:])
            assert log[window] == reference[window]
        else:
            assert list(log) == reference
        assert len(log) == len(reference)
        assert log == reference
    rebuilt = CompletedLog()
    for entry in reference:
        key = entry.key
        rebuilt.append(
            key.machine_id, key.op_number, entry.op, entry.result, entry.committed_at
        )
    assert rebuilt == log


def test_views_are_read_only_and_machine_ids_interned():
    log = CompletedLog()
    log.append("".join(["m", "07"]), 1, OPS[0], True, 0.5)
    with pytest.raises(AttributeError):
        log[0].result = False
    assert log.machines[0] is "m07"  # noqa: F632 - identity is the point


def test_matches_ignores_ops_and_commit_times():
    ours, theirs = CompletedLog(), CompletedLog()
    ours.append("m01", 1, OPS[0], True, 1.0)
    theirs.append("m01", 1, OPS[1], True, 2.0)
    assert ours.matches(theirs)
    assert ours != theirs  # full equality still sees both


# -- completed_sequences_equal against planted divergences ------------------


def history(length: int) -> CompletedLog:
    log = CompletedLog()
    for position in range(length):
        machine_id = ("m01", "m02", "m03")[position % 3]
        log.append(machine_id, position // 3 + 1, OPS[0], position % 4 != 3, 0.0)
    return log


def node(log: CompletedLog, offset: int = 0) -> SimpleNamespace:
    return SimpleNamespace(completed_offset=offset, model=SimpleNamespace(completed=log))


def cluster(length: int = 12, join_at: int = 5) -> list[SimpleNamespace]:
    """Two full-history nodes and a late joiner holding the suffix."""
    joiner = CompletedLog()
    for entry in history(length)[join_at:]:
        joiner.append(
            entry.key.machine_id, entry.key.op_number, entry.op, entry.result, 0.0
        )
    return [node(history(length)), node(history(length)), node(joiner, join_at)]


def wrong_machine(nodes):
    nodes[1].model.completed.machines[4] = "m09"


def wrong_number(nodes):
    nodes[1].model.completed.numbers[0] += 1


def flipped_result(nodes):
    nodes[1].model.completed.results[-1] ^= 1


def tampered_reference(nodes):
    nodes[0].model.completed.results[2] ^= 1


def joiner_flipped_result(nodes):
    nodes[2].model.completed.results[0] ^= 1


def joiner_shifted_offset(nodes):
    nodes[2].completed_offset -= 1


def joiner_swapped_entries(nodes):
    numbers = nodes[2].model.completed.numbers
    machines = nodes[2].model.completed.machines
    numbers[0], numbers[1] = numbers[1], numbers[0]
    machines[0], machines[1] = machines[1], machines[0]


def joiner_missing_tail(nodes):
    completed = nodes[2].model.completed
    completed.truncate(len(completed) - 1)


def full_node_extra_entry(nodes):
    nodes[1].model.completed.append("m04", 1, OPS[0], True, 0.0)


def test_clean_cluster_with_late_joiner_agrees():
    assert completed_sequences_equal(cluster())


@pytest.mark.parametrize(
    "plant",
    [
        wrong_machine,
        wrong_number,
        flipped_result,
        tampered_reference,
        joiner_flipped_result,
        joiner_shifted_offset,
        joiner_swapped_entries,
        joiner_missing_tail,
        full_node_extra_entry,
    ],
)
def test_planted_divergence_is_caught(plant):
    nodes = cluster()
    plant(nodes)
    assert not completed_sequences_equal(nodes)


def test_real_late_joiner_suffix_checked_column_wise():
    system = quick_system(2)
    replicas, _uid = shared_counter(system)
    for _ in range(3):
        system.api("m01").invoke(replicas["m01"], "increment", 100)
    system.run_until_quiesced()
    joiner = system.add_machine()
    system.run_until_quiesced()
    replica = joiner.api.join_instance(replicas["m01"].unique_id)
    joiner.api.invoke(replica, "increment", 100)
    system.api("m02").invoke(replicas["m02"], "increment", 100)
    system.run_until_quiesced()
    assert joiner.completed_offset > 0 and joiner.model.completed_count > 0
    assert system.completed_sequences_equal()
    joiner.model.completed.numbers[-1] += 1
    assert not system.completed_sequences_equal()

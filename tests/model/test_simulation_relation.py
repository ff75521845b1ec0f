"""Runtime-vs-semantics replay checks."""

import random

import pytest

from repro.errors import SimulationError
from repro.model.simulation_relation import replay_check
from tests.helpers import Counter, Register, quick_system, shared_counter


class TestReplayCheck:
    def test_clean_session_passes(self):
        system = quick_system(3)
        replicas, _uid = shared_counter(system)
        for machine_id, replica in replicas.items():
            api = system.api(machine_id)
            api.issue_operation(api.create_operation(replica, "increment", 10))
        system.run_until_quiesced()
        assert replay_check(system) == 4  # create + 3 increments

    def test_conflicted_session_passes(self):
        system = quick_system(3, seed=5)
        apis = system.apis()
        register = apis[0].create_instance(Register)
        system.run_until_quiesced()
        replicas = [api.join_instance(register.unique_id) for api in apis]
        rng = random.Random(9)
        for _ in range(25):
            index = rng.randrange(3)
            api, replica = apis[index], replicas[index]
            api.issue_operation(
                api.create_operation(replica, "set_if", replica.value, rng.randrange(5))
            )
            system.run_for(rng.random() * 0.6)
        system.run_until_quiesced()
        committed = replay_check(system)
        assert committed >= 2

    def test_requires_quiesced_system(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        # Not quiesced: the op is pending.
        with pytest.raises(SimulationError):
            replay_check(system)

    def test_detects_tampered_committed_store(self):
        system = quick_system(2)
        replicas, uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        # Corrupt one machine's committed replica behind the runtime's back.
        system.node("m02").model.committed.get(uid).value = 77
        system.node("m02").model.guess.get(uid).value = 77
        with pytest.raises(SimulationError):
            replay_check(system)

    def test_detects_tampered_history(self):
        system = quick_system(2)
        replicas, _uid = shared_counter(system)
        api = system.api("m01")
        api.issue_operation(api.create_operation(replicas["m01"], "increment", 5))
        system.run_until_quiesced()
        completed = system.node("m02").model.completed
        completed.truncate(len(completed) - 1)
        with pytest.raises(SimulationError):
            replay_check(system)

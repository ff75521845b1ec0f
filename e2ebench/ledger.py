"""Seeded operation mixes and the client-side ledgers that check them.

Every workload draws its operations from a ``random.Random(seed)``, so
one seed always yields the same operation stream.  The ledgers record
what the client was told (an op committed with result True or False)
and predict the committed state from that alone: a successful op's
effect does not depend on where it lands in the global order, so the
final counters and balances are fixed by the set of successful ops.
"""

from __future__ import annotations

import random

HOT_KEYS = tuple(f"k{i:02d}" for i in range(16))
TAGS = tuple(f"t{i:02d}" for i in range(16))
#: every counter starts this high, so no transfer or bump can fail
COUNTER_FLOOR = 1_000_000


def counters_initial_state() -> dict:
    """Initial ``PresenceCounters`` state: 16 hot keys, funded."""
    return {
        "counters": {key: COUNTER_FLOOR for key in HOT_KEYS},
        "present": {},
        "arrivals": 0,
        "sightings": {},
    }


def draw_counter_op(rng: random.Random) -> tuple[str, list]:
    """One write of the counters mix: half bump, a quarter each tally/transfer."""
    pick = rng.random()
    if pick < 0.5:
        return "bump", [rng.choice(HOT_KEYS), rng.randint(1, 5)]
    if pick < 0.75:
        return "tally", [rng.choice(TAGS)]
    src, dst = rng.sample(HOT_KEYS, 2)
    return "transfer", [src, dst, rng.randint(1, 3)]


class CounterLedger:
    """Expected ``PresenceCounters`` state from client-observed commits."""

    def __init__(self):
        initial = counters_initial_state()
        self.counters: dict[str, int] = dict(initial["counters"])
        self.sightings: dict[str, int] = {}

    def record(self, method: str, args: list, committed_ok: bool) -> None:
        if not committed_ok:
            return
        if method == "bump":
            key, amount = args
            self.counters[key] = self.counters.get(key, 0) + amount
        elif method == "tally":
            (tag,) = args
            self.sightings[tag] = self.sightings.get(tag, 0) + 1
        elif method == "transfer":
            src, dst, amount = args
            self.counters[src] -= amount
            self.counters[dst] = self.counters.get(dst, 0) + amount
        else:
            raise ValueError(f"unknown counters op {method!r}")

    def mismatches(self, counters: dict, sightings: dict) -> list[str]:
        """Differences between the ledger and one replica's state."""
        problems = []
        for name, want, got in (
            ("counters", self.counters, counters),
            ("sightings", self.sightings, sightings),
        ):
            for key in sorted(set(want) | set(got)):
                if want.get(key, 0) != got.get(key, 0):
                    problems.append(
                        f"{name}[{key}]: ledger {want.get(key, 0)}, "
                        f"replica {got.get(key, 0)}"
                    )
        return problems


class BalanceLedger:
    """Expected ``Marketplace`` balances from client-observed purchases."""

    def __init__(self, balances: dict[str, int]):
        self.balances = dict(balances)

    def record_purchase(self, buyer: str, seller: str, price: int, ok: bool) -> None:
        if ok:
            self.balances[buyer] -= price
            self.balances[seller] += price

    def mismatches(self, balances: dict) -> list[str]:
        return [
            f"balances[{user}]: ledger {self.balances.get(user, 0)}, "
            f"replica {balances.get(user, 0)}"
            for user in sorted(set(self.balances) | set(balances))
            if self.balances.get(user, 0) != balances.get(user, 0)
        ]

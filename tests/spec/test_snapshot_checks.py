"""One structural snapshot per checked call, and every check still fires.

The contract checker copies the instance fields once before a checked
call (:func:`repro.core.shared_object.structural_copy`) and compares
the live fields against that copy.  These tests plant in-place *nested*
mutations, which only a deep copy can see, and pin the snapshot count.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.marketplace import Marketplace
from repro.core.operations import AtomicOp, CreateObjectOp, OrElseOp, PrimitiveOp
from repro.core.serialization import decode_op, encode_op
from repro.core.shared_object import structural_copy
from repro.errors import ContractViolation
from repro.spec import contracts
from repro.spec.contracts import ensures, modifies


class PlantedMarket(Marketplace):
    """A marketplace with deliberately broken operations."""

    def __init__(self):
        super().__init__()
        self.seen_old_balances: list[int] = []

    @modifies("balances")
    def debit_and_reprice(self, user: str, amount: int) -> bool:
        # BUG on purpose: rewrites an offer's price in place, off-frame.
        item = next(iter(self.offers))
        self.offers[item][1] = 0
        self.balances[user] -= amount
        return True

    @modifies("stock")
    def hoard(self, user: str, item: str) -> bool:
        # BUG on purpose: grows a stock list in place, then reports failure.
        self.stock[user].append(item)
        return False

    @ensures(
        lambda old, self, result, user, amount: self.seen_old_balances.append(
            old["balances"][user]
        )
        is None,
        "records the pre-call purse",
    )
    @modifies("balances", "seen_old_balances")
    def spy_debit(self, user: str, amount: int) -> bool:
        self.balances[user] -= amount
        return True


def _market() -> PlantedMarket:
    market = PlantedMarket()
    for user in ("ann", "bob"):
        market.register(user)
        market.mint(user, 100)
    market.stock_item("ann", "lamp")
    market.list_item("ann", "lamp", 5)
    return market


class TestChecksStillFire:
    def test_nested_off_frame_write_raises_modifies(self):
        market = _market()
        with pytest.raises(ContractViolation, match="modifies.*'offers'"):
            market.debit_and_reprice("bob", 5)

    def test_nested_append_then_false_raises_conformance(self):
        market = _market()
        with pytest.raises(ContractViolation, match="conformance"):
            market.hoard("bob", "vase")

    def test_ensures_sees_the_pre_call_value(self):
        market = _market()
        assert market.spy_debit("bob", 30)
        assert market.spy_debit("bob", 30)
        assert market.seen_old_balances == [100, 70]
        assert market.balances["bob"] == 40


class TestSnapshotCount:
    def test_one_snapshot_per_checked_call(self, monkeypatch):
        calls = []
        original = contracts._snapshot

        def counting(obj):
            calls.append(obj)
            return original(obj)

        monkeypatch.setattr(contracts, "_snapshot", counting)
        market = _market()
        calls.clear()
        assert market.debit("bob", 1)
        assert not market.debit("bob", 10_000)  # returns False: still one
        assert market.credit("ann", 1)
        assert len(calls) == 3

    def test_unchecked_calls_take_no_snapshot(self, monkeypatch):
        market = _market()
        calls = []
        monkeypatch.setattr(contracts, "_snapshot", calls.append)
        previous = contracts.set_checking(False)
        try:
            market.debit("bob", 1)
        finally:
            contracts.set_checking(previous)
        assert calls == []


class Leaf:
    """A custom (non-container) leaf: copied through ``copy.deepcopy``."""

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Leaf) and other.value == self.value

    def __hash__(self):
        return hash(self.value)


_atoms = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5)
)
_trees = st.recursive(
    _atoms | st.builds(Leaf, st.integers()),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4)
    | st.tuples(inner, inner)
    | st.sets(st.integers() | st.text(max_size=3), max_size=4),
    max_leaves=25,
)


def _container_ids(value, out: set[int]) -> set[int]:
    if isinstance(value, (list, dict, set)):
        out.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            _container_ids(key, out)
            _container_ids(item, out)
    elif isinstance(value, (list, tuple, set)):
        for item in value:
            _container_ids(item, out)
    elif isinstance(value, Leaf):
        out.add(id(value))
    return out


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_structural_copy_equals_deepcopy_and_shares_no_container(tree):
    copied = structural_copy(tree)
    assert copied == copy.deepcopy(tree)
    assert not _container_ids(tree, set()) & _container_ids(copied, set())


class TestSlottedOps:
    def _ops(self):
        prim = PrimitiveOp("Marketplace:m01:1", "debit", ("ann", 5))
        return [
            prim,
            AtomicOp([prim, PrimitiveOp("Marketplace:m01:1", "credit", ("bob", 5))]),
            OrElseOp(prim, prim),
            CreateObjectOp("Marketplace:m01:2", Marketplace, {"minted": 0}),
        ]

    def test_ops_reject_stray_attributes(self):
        for op in self._ops():
            assert not hasattr(op, "__dict__")
            with pytest.raises(AttributeError):
                op.stray = 1

    def test_ops_roundtrip_through_the_codec(self):
        for op in self._ops():
            back = decode_op(encode_op(op))
            assert type(back) is type(op)
            assert encode_op(back) == encode_op(op)
            assert back.describe() == op.describe()

    def test_atomic_children_are_a_tuple(self):
        atomic = self._ops()[1]
        assert isinstance(atomic.children, tuple)
        assert isinstance(decode_op(encode_op(atomic)).children, tuple)

"""Spans and counters for the traced run, taken from outside the program.

:func:`install` wraps public entry points of each layer in the
benchmark's own process (or, through ``serve_node.py``, in a daemon's):

=================  ================================================
span               wrapped call
=================  ================================================
gateway.request    ``GatewayServer._route`` (one REST request)
core.issue         ``Guesstimate.invoke``
apps.execute       ``PrimitiveOp.execute`` (includes contract checks)
runtime.signal     signal-mesh handler registered by the node
runtime.op         ops-mesh handler registered by the node
runtime.timer      callbacks the runtime schedules via ``call_later``
transport.send     ``PeerLink.send`` (also counts bytes)
storage.append     ``DurableStore.append_commit``
=================  ================================================

Every wrapped call runs on one event-loop thread and never awaits, so
spans nest properly on a stack: each span records its parent, and a
layer's self time is its spans' duration minus the time their child
spans cover.  Spans stay in memory and are written when the run ends.

Counters come from the runtime's own bookkeeping (``NodeMetrics``,
``TransportStats``, ``StorageStats``, a live ``PhaseProfiler`` per
node and the master's ``SyncRecord`` list) and are read as snapshots
at the start and end of the measured window.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from time import perf_counter

from stats import percentile, ratio

LAYERS = ("gateway", "core", "apps", "runtime", "transport", "storage")


class SpanRecorder:
    """Columnar in-memory span store (name, start, end, parent, id)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ids: list[str] = []
        self._stack: list[int] = []
        #: counts taken at layer boundaries, snapshotted with the node counters
        self.counts = {"ws_frames": 0, "send_bytes": 0}

    def wrap(self, name: str, fn, ident=None):
        """``fn`` recorded as a span; ``ident(args, result)`` names its op/round."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, ids, stack = self.parents, self.ids, self._stack

        def spanned(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ids.append("")
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = perf_counter()
                stack.pop()
                if ident is not None:
                    ids[index] = ident(args, result)

        return spanned

    def write(self, path: str) -> None:
        """Dump every span as a tab-separated line:
        index, name, start, end, parent index, op or round id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    f"{index}\t{name}\t{self.starts[index]:.9f}\t"
                    f"{self.ends[index]:.9f}\t{self.parents[index]}\t"
                    f"{self.ids[index]}\n"
                )

    def columns(self) -> dict:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
        }


def _round_of(args, result) -> str:
    payload = getattr(args[0], "payload", None)
    round_id = getattr(payload, "round_id", None)
    return "" if round_id is None else f"r{round_id}"


def install(recorder: SpanRecorder) -> None:
    """Wrap each layer's entry points; call before any node is built."""
    from repro.core.guesstimate import Guesstimate
    from repro.core.operations import PrimitiveOp
    from repro.gateway import server as gateway_server
    from repro.storage.store import DurableStore
    from repro.transport.netmesh import NetworkMeshPair, PeerLink
    from repro.transport.scheduler import AsyncioScheduler

    gateway_server.GatewayServer._route = recorder.wrap(
        "gateway.request",
        gateway_server.GatewayServer._route,
        lambda args, result: f"{args[1].method} {args[1].path}",
    )
    push = gateway_server._Subscriber.push

    def counted_push(subscriber, event):
        recorder.counts["ws_frames"] += 1
        return push(subscriber, event)

    gateway_server._Subscriber.push = counted_push

    Guesstimate.invoke = recorder.wrap(
        "core.issue",
        Guesstimate.invoke,
        lambda args, result: "" if result is None or result.key is None
        else str(result.key),
    )
    PrimitiveOp.execute = recorder.wrap(
        "apps.execute", PrimitiveOp.execute, lambda args, result: args[0].method_name
    )
    DurableStore.append_commit = recorder.wrap(
        "storage.append",
        DurableStore.append_commit,
        lambda args, result: f"r{args[1].round_id}",
    )
    send = recorder.wrap("transport.send", PeerLink.send)

    def counted_send(link, data):
        recorder.counts["send_bytes"] += len(data)
        return send(link, data)

    PeerLink.send = counted_send

    join = NetworkMeshPair.join

    def spanned_join(pair, node_id, signal_handler, ops_handler):
        return join(
            pair,
            node_id,
            recorder.wrap("runtime.signal", signal_handler, _round_of),
            recorder.wrap("runtime.op", ops_handler, _round_of),
        )

    NetworkMeshPair.join = spanned_join

    call_later = AsyncioScheduler.call_later

    def spanned_call_later(scheduler, delay, callback):
        return call_later(scheduler, delay, recorder.wrap("runtime.timer", callback))

    AsyncioScheduler.call_later = spanned_call_later


def attach_profiler(node) -> None:
    """Give ``node`` its own live ``PhaseProfiler``."""
    from repro.runtime.profiling import PhaseProfiler

    node.profiler = PhaseProfiler()


def snapshot(nodes, transports, recorder: SpanRecorder) -> dict:
    """Counter totals over ``nodes`` and ``transports`` right now."""
    totals = dict.fromkeys(
        (
            "ops_issued",
            "deferred_issues",
            "deferral_delay_total",
            "executions",
            "executed_ops",
            "refresh_copied",
            "refresh_live",
            "decode_hits",
            "decode_misses",
            "wal_bytes",
            "fsyncs",
            "frames_sent",
            "send_failures",
            "apply_s",
            "refresh_s",
            "encode_s",
        ),
        0,
    )
    for node in nodes:
        metrics = node.metrics
        totals["ops_issued"] += metrics.ops_issued
        totals["deferred_issues"] += metrics.deferred_issues
        totals["deferral_delay_total"] += metrics.deferral_delay_total
        totals["executions"] += sum(metrics.executions.values())
        totals["executed_ops"] += len(metrics.executions)
        totals["refresh_copied"] += metrics.refresh_objects_copied
        totals["refresh_live"] += metrics.refresh_objects_live
        totals["decode_hits"] += metrics.decode_cache_hits
        totals["decode_misses"] += metrics.decode_cache_misses
        totals["wal_bytes"] += metrics.storage.bytes_appended
        totals["fsyncs"] += metrics.storage.fsyncs
        seconds = node.profiler.seconds
        totals["apply_s"] += seconds["apply"]
        totals["refresh_s"] += seconds["refresh"]
        totals["encode_s"] += seconds["encode"]
    for transport in transports:
        totals["frames_sent"] += transport.stats.frames_sent
        totals["send_failures"] += transport.stats.send_failures
    totals.update(recorder.counts)
    totals["at"] = perf_counter()
    return totals


def sync_records(metrics_system) -> list[list]:
    """Master round records as ``[started, finished, ops, resends, removals]``.

    Round times come from the loop clock (``time.monotonic``); they are
    shifted onto ``perf_counter`` so they compare with span stamps.
    """
    shift = perf_counter() - time.monotonic()
    return [
        [
            record.started_at + shift,
            record.finished_at + shift,
            record.ops_committed,
            record.resends,
            record.removals,
        ]
        for record in metrics_system.sync_records
    ]


def _covered(
    intervals: list[tuple[float, float]], starts: list[float], start: float, end: float
) -> float:
    """Time of ``[start, end)`` inside the sorted, disjoint ``intervals``."""
    total = 0.0
    index = bisect_right(starts, end) - 1
    while index >= 0 and intervals[index][1] > start:
        lo, hi = intervals[index]
        total += max(0.0, min(end, hi) - max(start, lo))
        index -= 1
    return total


def layer_metrics(
    dumps: list[dict],
    master: dict,
    window: tuple[float, float],
    committed: int,
) -> dict[str, float]:
    """Per-layer figures for the measured window.

    ``dumps`` holds one entry per process hosting nodes, each with the
    span columns and the counter snapshots at window start and end;
    ``master`` is the entry of the process hosting the master, which
    also carries its round records.  ``committed`` is the number of
    operations the client saw commit inside the window; every
    ``*_per_op`` figure divides by it, summed over all replicas.
    """
    lo, hi = window
    durations: dict[str, list[float]] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    delta = {key: 0.0 for key in dumps[0]["start"] if key != "at"}
    for dump in dumps:
        spans = dump["spans"]
        names, starts, ends, parents = (
            spans["names"], spans["starts"], spans["ends"], spans["parents"]
        )
        covered = [0.0] * len(names)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[index] - starts[index]
        for index, name in enumerate(names):
            if not lo <= starts[index] < hi:
                continue
            duration = ends[index] - starts[index]
            durations.setdefault(name, []).append(duration)
            self_time[name.split(".", 1)[0]] += duration - covered[index]
        for key in delta:
            delta[key] += dump["end"][key] - dump["start"][key]

    def us(name: str, q: float) -> float:
        return percentile(durations.get(name, []), q) * 1e6

    rounds = [r for r in master["rounds"] if lo <= r[1] < hi]
    round_ms = [(r[1] - r[0]) * 1e3 for r in rounds]
    round_intervals = sorted((r[0], r[1]) for r in rounds)
    round_starts = [interval[0] for interval in round_intervals]
    spans = master["spans"]
    busy = sum(
        _covered(round_intervals, round_starts, spans["starts"][i], spans["ends"][i])
        for i, name in enumerate(spans["names"])
        if name.startswith("runtime.") and spans["parents"][i] < 0
        and spans["ends"][i] > lo and spans["starts"][i] < hi
    )
    per_op = 1.0 / committed if committed else 0.0

    figures = {
        "gateway.request_us_p50": us("gateway.request", 50),
        "gateway.request_us_p99": us("gateway.request", 99),
        "gateway.ws_frames_per_op": delta["ws_frames"] * per_op,
        "core.issue_us_p50": us("core.issue", 50),
        "core.issue_us_p99": us("core.issue", 99),
        "core.deferred_share": ratio(delta["deferred_issues"], delta["ops_issued"]),
        "core.deferral_ms_mean": ratio(
            delta["deferral_delay_total"] * 1e3, delta["deferred_issues"]
        ),
        "apps.execute_us_p50": us("apps.execute", 50),
        "apps.execute_us_p99": us("apps.execute", 99),
        "apps.executions_per_op": ratio(delta["executions"], delta["executed_ops"]),
        "runtime.round_ms_p50": percentile(round_ms, 50),
        "runtime.round_ms_p99": percentile(round_ms, 99),
        "runtime.ops_per_round": ratio(sum(r[2] for r in rounds), len(rounds)),
        "runtime.round_busy_share": ratio(busy, sum(hi_ - lo_ for lo_, hi_ in round_intervals)),
        "runtime.apply_us_per_op": delta["apply_s"] * 1e6 * per_op,
        "runtime.refresh_us_per_op": delta["refresh_s"] * 1e6 * per_op,
        "runtime.encode_us_per_op": delta["encode_s"] * 1e6 * per_op,
        "runtime.refresh_copy_ratio": ratio(delta["refresh_copied"], delta["refresh_live"]),
        "runtime.decode_cache_hit_ratio": ratio(
            delta["decode_hits"], delta["decode_hits"] + delta["decode_misses"]
        ),
        "runtime.resends": float(sum(r[3] for r in rounds)),
        "runtime.removals": float(sum(r[4] for r in rounds)),
        "transport.frames_per_op": delta["frames_sent"] * per_op,
        "transport.bytes_per_op": delta["send_bytes"] * per_op,
        "transport.send_failures": float(delta["send_failures"]),
        "storage.append_us_p50": us("storage.append", 50),
        "storage.wal_bytes_per_op": delta["wal_bytes"] * per_op,
        "storage.fsyncs_per_op": delta["fsyncs"] * per_op,
    }
    for layer in LAYERS:
        figures[f"{layer}.self_us_per_op"] = self_time[layer] * 1e6 * per_op
    return figures

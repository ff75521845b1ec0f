"""``gateway-counters``: three ``repro.cli serve`` daemons behind HTTP/WS.

Set-up boots three daemon processes with the runtime block of
``examples/cluster/cluster.yaml`` (disk WAL, ``sync_interval`` 0.25,
``stall_timeout`` 2.0), creates one ``PresenceCounters`` through
``POST /instances`` on the master's gateway and joins it on the other
two nodes.  Every daemon runs a gateway so that each can answer
``GET /cluster``; the load goes to the master's only.

Load is an open loop at 200 requests/s over one request connection at
a time: about 80% ``POST /operations`` (bump/tally/transfer on 16 hot
keys) and 20% ``GET /objects/{id}``.  One ``/ws`` connection receives
the ticket events that mark commits.  Each request is timed from the
instant it was due, so a stalled generator shows up as latency and as
lateness.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import socket
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
from ledger import CounterLedger, counters_initial_state, draw_counter_op
from stats import percentile, proc_cpu_seconds, proc_peak_rss_mb, ratio

RATE = 200.0
READ_SHARE = 0.2
WARMUP_S = 1.0
#: a run whose generator ran this late at p99 is flagged as behind
BEHIND_MS = 25.0
REQUEST_TIMEOUT_S = 5.0
#: the generator sleeps until this long before a request is due, then spins
SPIN_S = 0.0011
NODE_IDS = ("n1", "n2", "n3")


def free_ports(count: int) -> list[int]:
    sockets = []
    for _ in range(count):
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
    ports = [sock.getsockname()[1] for sock in sockets]
    for sock in sockets:
        sock.close()
    return ports


def runtime_block(root: Path) -> str:
    """The ``runtime:`` section of the shipped example config, verbatim."""
    lines = (root / "examples" / "cluster" / "cluster.yaml").read_text().splitlines()
    start = lines.index("runtime:")
    block = [lines[start]]
    for line in lines[start + 1:]:
        if line and not line[0].isspace():
            break
        block.append(line)
    return "\n".join(block) + "\n"


async def http(port: int, method: str, path: str, body: dict | None = None):
    """One request on a fresh connection; returns (status, JSON body)."""
    payload = json.dumps(body).encode() if body is not None else b""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1")

    async def exchange():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(head + payload)
            await writer.drain()
            return await reader.read()
        finally:
            writer.close()

    data = await asyncio.wait_for(exchange(), REQUEST_TIMEOUT_S)
    head_bytes, _, body_bytes = data.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    return status, json.loads(body_bytes) if body_bytes else {}


class TicketStream:
    """The ``/ws`` connection: arrival time and result of each ticket event."""

    def __init__(self):
        self.events: dict[str, tuple[float, str, bool]] = {}
        self._task: asyncio.Task | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self, port: int) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(
            (
                f"GET /ws HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
                "Upgrade: websocket\r\nConnection: Upgrade\r\n"
                "Sec-WebSocket-Key: ZTJlYmVuY2gtdGlja2V0cw==\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        response = await reader.readuntil(b"\r\n\r\n")
        if b" 101 " not in response.split(b"\r\n", 1)[0]:
            raise RuntimeError(f"websocket upgrade refused: {response[:80]!r}")
        self._writer = writer
        self._task = asyncio.get_running_loop().create_task(self._read(reader))

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            head = await reader.readexactly(2)
            length = head[1] & 0x7F
            if length == 126:
                (length,) = struct.unpack(">H", await reader.readexactly(2))
            elif length == 127:
                (length,) = struct.unpack(">Q", await reader.readexactly(8))
            payload = await reader.readexactly(length)
            arrived = perf_counter()
            if head[0] & 0x0F != 0x1:
                continue
            event = json.loads(payload)
            if event.get("event") == "ticket":
                self.events[event["ticket"]] = (
                    arrived, event["status"], bool(event["commit_result"])
                )

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except (asyncio.CancelledError, asyncio.IncompleteReadError, OSError):
                pass
        if self._writer is not None:
            self._writer.close()


class DaemonCluster:
    """Three daemon processes, each with its own gateway."""

    def __init__(self, root: Path, work: Path, traced: bool, env: dict):
        self.root = root
        self.work = work
        self.traced = traced
        self.env = env
        ports = free_ports(2 * len(NODE_IDS))
        self.node_ports = dict(zip(NODE_IDS, ports[: len(NODE_IDS)]))
        self.gateway_ports = dict(zip(NODE_IDS, ports[len(NODE_IDS):]))
        self.procs: dict[str, subprocess.Popen] = {}
        self.object_id: str | None = None
        self.refused_creates = 0

    @property
    def master_port(self) -> int:
        return self.gateway_ports["n1"]

    def _config(self, node_id: str) -> Path:
        nodes = "".join(
            f"  - id: {nid}\n    host: 127.0.0.1\n    port: {port}\n"
            + ("    master: true\n" if nid == "n1" else "")
            for nid, port in self.node_ports.items()
        )
        text = (
            f"cluster:\n  name: e2ebench\n  data_dir: {self.work / 'data'}\n"
            f"nodes:\n{nodes}"
            f"gateway:\n  node: {node_id}\n  host: 127.0.0.1\n"
            f"  port: {self.gateway_ports[node_id]}\n"
            + runtime_block(self.root)
        )
        path = self.work / f"cluster-{node_id}.yaml"
        path.write_text(text)
        return path

    def spawn(self) -> None:
        for node_id in NODE_IDS:
            serve_args = [
                "--node-id", node_id,
                "--config", str(self._config(node_id)),
                "--ready-file", str(self.work / f"ready-{node_id}.json"),
            ]
            if self.traced:
                command = [
                    sys.executable, str(self.root / "e2ebench" / "serve_node.py"),
                    "--dump", str(self.work / f"dump-{node_id}.json"), "--",
                    *serve_args,
                ]
            else:
                command = [sys.executable, "-m", "repro.cli", "serve", *serve_args]
            with open(self.work / f"{node_id}.log", "wb") as log:
                self.procs[node_id] = subprocess.Popen(
                    command, cwd=self.root, env=self.env, stdout=log, stderr=log
                )

    async def await_ready(self, timeout: float = 60.0) -> None:
        deadline = perf_counter() + timeout
        waiting = set(NODE_IDS)
        while waiting:
            for node_id in sorted(waiting):
                if self.procs[node_id].poll() is not None:
                    log = (self.work / f"{node_id}.log").read_text(errors="replace")
                    raise RuntimeError(f"daemon {node_id} exited early:\n{log[-1500:]}")
                try:
                    info = json.loads((self.work / f"ready-{node_id}.json").read_text())
                except (OSError, ValueError):
                    continue
                if info.get("state") == "active":
                    waiting.discard(node_id)
            if perf_counter() > deadline:
                raise RuntimeError(f"daemons {sorted(waiting)} never became ready")
            await asyncio.sleep(0.01)

    async def create_and_join(self) -> None:
        """Create the counters object on n1 and join it on n2 and n3.

        A refused create is retried at once and counted: the gateway's
        ``POST /instances`` issues through ``issue_operation``, which
        refuses inside a flush or update window.
        """
        body = {"type": "PresenceCounters", "state": counters_initial_state()}
        for _ in range(100):
            status, reply = await http(self.master_port, "POST", "/instances", body)
            if status == 200:
                self.object_id = reply["id"]
                break
            self.refused_creates += 1
            print(
                f"setup: POST /instances refused with HTTP {status}: "
                f"{reply.get('error', '')} (refusal {self.refused_creates})"
            )
        else:
            raise RuntimeError("POST /instances refused 100 times")
        for node_id in NODE_IDS[1:]:
            path = f"/instances/{self.object_id}/join"
            deadline = perf_counter() + 30.0
            while True:
                status, _ = await http(self.gateway_ports[node_id], "POST", path, {})
                if status == 200:
                    break
                if perf_counter() > deadline:
                    raise RuntimeError(f"{node_id} never saw {self.object_id}")
                await asyncio.sleep(0.01)

    def signal_all(self, signum: int) -> None:
        for proc in self.procs.values():
            proc.send_signal(signum)

    def cpu_seconds(self) -> float:
        return sum(proc_cpu_seconds(proc.pid) for proc in self.procs.values())

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(proc.pid) for proc in self.procs.values())

    def stop(self) -> None:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)


async def _boot(root: Path, work: Path, traced: bool, env: dict) -> tuple[DaemonCluster, float]:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    cluster = DaemonCluster(root, work, traced, env)
    started = perf_counter()
    try:
        cluster.spawn()
        await cluster.await_ready()
        await cluster.create_and_join()
    except BaseException:
        cluster.stop()
        raise
    return cluster, perf_counter() - started


async def _converge(cluster: DaemonCluster, ledger: CounterLedger) -> list[str]:
    """Wait for equal commit counts, then check every replica's state."""
    problems: list[str] = []
    deadline = perf_counter() + 20.0
    while True:
        counts = []
        for node_id in NODE_IDS:
            status, info = await http(cluster.gateway_ports[node_id], "GET", "/cluster")
            counts.append(info.get("committed") if status == 200 else None)
        if None not in counts and len(set(counts)) == 1:
            break
        if perf_counter() > deadline:
            return [f"/cluster commit counts never agreed: {counts}"]
        await asyncio.sleep(0.05)
    for node_id in NODE_IDS:
        status, info = await http(
            cluster.gateway_ports[node_id], "GET", f"/objects/{cluster.object_id}"
        )
        if status != 200:
            problems.append(f"{node_id}: GET /objects answered {status}")
            continue
        state = info["state"]
        problems.extend(
            f"{node_id}: {line}"
            for line in ledger.mismatches(state["counters"], state["sightings"])
        )
    return problems


async def _drive(cluster: DaemonCluster, seed: int, seconds: float, traced: bool) -> dict:
    rng = random.Random(seed)
    ledger = CounterLedger()
    stream = TicketStream()
    await stream.connect(cluster.master_port)
    writes: list[dict] = []
    reads: list[tuple[float, float, bool]] = []
    lateness: list[float] = []
    period = 1.0 / RATE
    begin = perf_counter() + 0.05
    window = (begin + WARMUP_S, begin + WARMUP_S + seconds)
    cpu: list[float] = []

    async def mark_window() -> None:
        for edge, signum in zip(window, (signal.SIGUSR1, signal.SIGUSR2)):
            await asyncio.sleep(max(0.0, edge - perf_counter()))
            cpu.append(cluster.cpu_seconds())
            if traced:
                cluster.signal_all(signum)

    marker = asyncio.get_running_loop().create_task(mark_window())
    for k in range(int((window[1] - begin) * RATE)):
        due = begin + k * period
        wait = due - perf_counter()
        if wait > SPIN_S:
            await asyncio.sleep(wait - SPIN_S)
        while perf_counter() < due:
            pass  # the loop's timers wake up to 1 ms late; spin the rest
        started = perf_counter()
        if window[0] <= due:
            lateness.append(started - due)
        if rng.random() < READ_SHARE:
            try:
                status, _ = await http(
                    cluster.master_port, "GET", f"/objects/{cluster.object_id}"
                )
                ok = status == 200
            except (OSError, asyncio.TimeoutError, ValueError):
                ok = False
            reads.append((due, perf_counter(), ok))
            continue
        method, args = draw_counter_op(rng)
        write = {"due": due, "method": method, "args": args, "ticket": None}
        try:
            status, reply = await http(
                cluster.master_port,
                "POST",
                "/operations",
                {"object": cluster.object_id, "method": method, "args": args},
            )
            write["answered"] = perf_counter()
            if status == 200:
                write["ticket"] = reply["ticket"]
                write["status"] = reply["status"]
        except (OSError, asyncio.TimeoutError, ValueError):
            pass
        writes.append(write)
    await marker

    # Drain: every ticket should see its WS event.
    tickets = [w["ticket"] for w in writes if w["ticket"] is not None]
    deadline = perf_counter() + 20.0
    while any(t not in stream.events for t in tickets) and perf_counter() < deadline:
        await asyncio.sleep(0.05)
    await stream.close()
    for write in writes:
        event = stream.events.get(write["ticket"]) if write["ticket"] else None
        if event is None and write["ticket"] is not None:
            # No WS event: keep the ledger honest from the ticket route,
            # but the op still counts as unresolved.
            status, info = await http(
                cluster.master_port, "GET", f"/tickets/{write['ticket']}"
            )
            if status == 200 and info["status"] == "committed":
                ledger.record(write["method"], write["args"], bool(info["commit_result"]))
        elif event is not None:
            write["event"] = event
            ledger.record(write["method"], write["args"], event[1] == "committed" and event[2])
    return {
        "writes": writes,
        "reads": reads,
        "lateness": lateness,
        "window": window,
        "cpu": cpu,
        "ledger": ledger,
    }


def summarize(drive: dict, seconds: float) -> dict:
    """End-to-end figures and counts from one driven window."""
    lo, hi = drive["window"]
    in_window = [w for w in drive["writes"] if lo <= w["due"] < hi]
    reads = [r for r in drive["reads"] if lo <= r[0] < hi]
    issued = [w for w in in_window if w["ticket"] is not None]
    committed = [w for w in in_window if "event" in w and w["event"][1] == "committed"]
    conflicts = [w for w in committed if not w["event"][2]]
    commits_in_window = sum(
        1
        for w in drive["writes"]
        if "event" in w and w["event"][1] == "committed" and lo <= w["event"][0] < hi
    )
    errors = (len(in_window) - len(committed)) + sum(1 for r in reads if not r[2])
    attempted = len(in_window) + len(reads)
    lateness_ms = [x * 1e3 for x in drive["lateness"]]
    issue_ms = [(w["answered"] - w["due"]) * 1e3 for w in issued]
    read_ms = [(r[1] - r[0]) * 1e3 for r in reads if r[2]]
    return {
        "committed_in_window": commits_in_window,
        "attempted": attempted,
        "failed": errors,
        "metrics": {
            "committed_ops_s": commits_in_window / seconds,
            "commit_ms_p50": percentile([(w["event"][0] - w["due"]) * 1e3 for w in committed], 50),
            "commit_ms_p99": percentile([(w["event"][0] - w["due"]) * 1e3 for w in committed], 99),
            "commit_agree_share": 1.0 - ratio(len(conflicts), len(committed)),
            "ok_share": 1.0 - ratio(errors, attempted),
        },
        "client": {
            "issue_ms_p50": percentile(issue_ms, 50),
            "issue_ms_p99": percentile(issue_ms, 99),
            "read_ms_p50": percentile(read_ms, 50),
            "read_ms_p99": percentile(read_ms, 99),
        },
        "samples": {"writes": len(in_window), "commits": len(committed), "reads": len(reads)},
        "health": {
            "lateness_ms_p50": percentile(lateness_ms, 50),
            "lateness_ms_p99": percentile(lateness_ms, 99),
            "behind": float(percentile(lateness_ms, 99) > BEHIND_MS),
            "pending_share": ratio(
                sum(1 for w in issued if w["status"] == "pending"), len(issued)
            ),
        },
        "conflict_share": ratio(len(conflicts), len(committed)),
        "error_share": ratio(errors, attempted),
    }


def _load_dumps(work: Path) -> tuple[list[dict], dict]:
    dumps, master = [], None
    for node_id in NODE_IDS:
        document = json.loads((work / f"dump-{node_id}.json").read_text())
        if len(document["marks"]) < 2:
            raise RuntimeError(f"{node_id} took {len(document['marks'])} window marks")
        document["start"], document["end"] = document["marks"][0], document["marks"][-1]
        dumps.append(document)
        if node_id == "n1":
            master = document
    return dumps, master


def run(root: Path, work: Path, seed: int, seconds: float, setups: int, traced: bool) -> dict:
    """Boot ``setups`` times (keeping the last), drive, check, tear down."""
    env = {k: v for k, v in os.environ.items() if k != "GUESSTIMATE_COLLECTION"}
    env["PYTHONPATH"] = str(root / "src")

    async def main() -> dict:
        setup_times, refused = [], 0
        cluster = None
        for attempt in range(setups):
            cluster, setup_s = await _boot(root, work / f"setup{attempt}", traced, env)
            setup_times.append(setup_s)
            refused += cluster.refused_creates
            if attempt < setups - 1:
                cluster.stop()
        try:
            drive = await _drive(cluster, seed, seconds, traced)
            problems = await _converge(cluster, drive["ledger"])
            rss = cluster.peak_rss_mb()
        finally:
            cluster.stop()
        summary = summarize(drive, seconds)
        summary["setup_times"] = setup_times
        summary["refused_creates"] = refused
        summary["problems"] = problems
        summary["metrics"]["rss_mb"] = rss
        cpu = drive["cpu"][1] - drive["cpu"][0]
        summary["metrics"]["cpu_ms_per_op"] = cpu * 1e3 / max(1, summary["committed_in_window"])
        if traced:
            dumps, master = _load_dumps(cluster.work)
            summary["layers"] = tracing.layer_metrics(
                dumps, master, drive["window"], summary["committed_in_window"]
            )
        return summary

    return asyncio.run(main())

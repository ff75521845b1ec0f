"""The gateway server: REST routes + WebSocket delta stream.

Attached by the daemon to the same asyncio loop the node runs on, so
every handler executes on the loop thread — the same single-threaded
discipline the rest of the runtime relies on; no locks anywhere.

REST surface (all JSON)::

    GET  /healthz               liveness + node state
    GET  /cluster               node id, role, membership, commit position
    GET  /objects               ids of every visible shared object
    GET  /objects/{id}          type, state and version of one object
    POST /instances             {"type": T, "state": {...}} -> {"id": ...}
    POST /instances/{id}/join   subscribe this node to an object
    POST /operations            {"object", "method", "args"} -> {"ticket"}
    GET  /tickets/{tid}         ticket status: pending/guessed/committed/rejected

Ticket statuses map the :class:`~repro.core.guesstimate.IssueTicket`
lifecycle; ``issued`` is surfaced as ``guessed`` — the operation has
executed on the guesstimated state and awaits global commitment, the
paper's defining intermediate state.

``GET /ws`` upgrades to a WebSocket that streams:

* ``{"event": "delta", "object", "version", "type", "state"}`` whenever
  a shared object's guesstimated state changes version (the PR 4
  versioned-store stamps make change detection O(objects) per poll);
* ``{"event": "removed", "object"}`` when an object disappears;
* ``{"event": "ticket", "ticket", "status", "commit_result"}`` when an
  operation issued through this gateway commits or is rejected.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.serialization import encode_state, resolve_shared_type
from repro.errors import (
    GatewayError,
    GuesstimateError,
    IssueBlockedError,
    SerializationError,
    SharedObjectError,
    UnknownMethodError,
)
from repro.gateway.http import (
    WS_CLOSE,
    WS_PING,
    WS_PONG,
    HttpRequest,
    json_response,
    read_request,
    ws_frame,
    ws_handshake_response,
    ws_read_frame,
    ws_text_frame,
)
from repro.runtime.node import GuesstimateNode

#: a request refused by a flush/update window runs again every
#: _BLOCKED_POLL seconds until the window closes, for up to _BLOCKED_WAIT
_BLOCKED_POLL = 0.005
_BLOCKED_WAIT = 5.0

_STATUS_MAP = {
    "pending": "pending",
    "issued": "guessed",
    "committed": "committed",
    "rejected": "rejected",
}


def _json_object(request: HttpRequest) -> dict:
    """The request body as a JSON *object* (a list or scalar is a
    client error, not a reason to drop the connection)."""
    body = request.json()
    if not isinstance(body, dict):
        raise GatewayError("request body must be a JSON object")
    return body


def _encode_ws_event(event: dict) -> bytes:
    """Serialize one event to a ready-to-write WebSocket text frame.

    Fan-out paths call this once per event and enqueue the same bytes
    to every subscriber, instead of re-running ``json.dumps`` + frame
    assembly per connection.
    """
    return ws_text_frame(json.dumps(event, sort_keys=True))


class _Subscriber:
    """One WebSocket client: an outbound queue + per-object versions."""

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        #: queue of pre-encoded frames (bytes) or raw event dicts
        self.queue: asyncio.Queue = asyncio.Queue()
        self.seen: dict[str, int] = {}  # object id -> last pushed version
        self.closed = False

    def push(self, event: dict | bytes) -> None:
        if not self.closed:
            self.queue.put_nowait(event)


class GatewayServer:
    """HTTP/WebSocket facade over one node's Guesstimate API.

    ``POST /instances`` issues through ``issue_operation``, which
    refuses inside a flush or update window.  Such a request waits for
    the window to close and runs again; only a window that outlasts the
    wait answers 503 with Retry-After.
    """

    def __init__(
        self,
        node: GuesstimateNode,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.05,
    ):
        self.node = node
        self.host = host
        self.port = port  # updated to the bound port by start()
        self.poll_interval = poll_interval
        self.tickets: dict[str, object] = {}
        self._ticket_counter = 0
        self.subscribers: list[_Subscriber] = []
        self._server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.get_running_loop().create_task(self._delta_pump())
        return self.host, self.port

    async def stop(self) -> None:
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        for subscriber in list(self.subscribers):
            subscriber.closed = True
            subscriber.writer.close()
        self.subscribers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await read_request(reader)
            if request is None:
                return
            if request.path == "/ws" and "websocket" in request.headers.get(
                "upgrade", ""
            ).lower():
                await self._serve_websocket(request, reader, writer)
                return
            status, payload = self._route(request)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + _BLOCKED_WAIT
            while status == 503 and loop.time() < deadline:
                # Refused by a flush/update window before anything was
                # issued, so the same request is safe to run again.
                await asyncio.sleep(_BLOCKED_POLL)
                status, payload = self._route(request)
            headers = {"Retry-After": "1"} if status == 503 else None
            writer.write(json_response(status, payload, headers))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except OSError:  # pragma: no cover - already torn down
                pass

    def _route(self, request: HttpRequest) -> tuple[int, dict]:
        try:
            return self._dispatch(request)
        except SharedObjectError as exc:
            return 404, {"error": str(exc)}
        except (GatewayError, SerializationError, UnknownMethodError) as exc:
            return 400, {"error": str(exc)}
        except IssueBlockedError as exc:
            return 503, {"error": str(exc)}
        except GuesstimateError as exc:
            return 500, {"error": str(exc)}
        except (TypeError, ValueError) as exc:
            # A client-shaped failure from inside an operation — e.g. a
            # stale-spec client invoking with the wrong arity or wrong
            # argument types.  The op raised before it was enqueued, so
            # nothing reached the protocol; the client just loses.
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        except Exception as exc:  # noqa: BLE001 - the gateway must answer
            # Whatever happened, a hostile request must never take the
            # daemon's connection handler down without a response.
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _dispatch(self, request: HttpRequest) -> tuple[int, dict]:
        method, path = request.method, request.path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]

        if method == "GET" and path == "/healthz":
            return 200, {
                "ok": True,
                "node": self.node.machine_id,
                "state": self.node.state,
            }
        if method == "GET" and path == "/cluster":
            return 200, self._cluster_info()
        if method == "GET" and path == "/objects":
            return 200, {"objects": self.node.api.available_objects()}
        if method == "GET" and len(parts) == 2 and parts[0] == "objects":
            return 200, self._object_info(parts[1])
        if method == "POST" and path == "/instances":
            return self._create_instance(_json_object(request))
        if (
            method == "POST"
            and len(parts) == 3
            and parts[0] == "instances"
            and parts[2] == "join"
        ):
            obj = self.node.api.join_instance(parts[1])
            return 200, {"id": parts[1], "type": type(obj).__name__}
        if method == "POST" and path == "/operations":
            return self._issue_operation(_json_object(request))
        if method == "GET" and len(parts) == 2 and parts[0] == "tickets":
            return self._ticket_info(parts[1])
        return 404, {"error": f"no route for {method} {path}"}

    # -- route implementations -----------------------------------------------

    def _cluster_info(self) -> dict:
        node = self.node
        master = node.master
        participants = (
            list(master.participants)  # already includes the master itself
            if master is not None
            else list(node.synchronizer.last_order)
        )
        return {
            "node": node.machine_id,
            "state": node.state,
            "is_master": node.is_master,
            "participants": participants,
            "committed": node.completed_offset + node.model.completed_count,
        }

    def _object_info(self, unique_id: str) -> dict:
        store = self.node.model.guess
        if not store.has(unique_id):
            store = self.node.model.committed
        if not store.has(unique_id):
            from repro.errors import UnknownObjectError

            raise UnknownObjectError(unique_id)
        encoded = encode_state(store.get(unique_id))
        return {
            "id": unique_id,
            "type": encoded["type"],
            "state": encoded["state"],
            "version": store.version(unique_id),
        }

    def _create_instance(self, body: dict) -> tuple[int, dict]:
        type_name = body.get("type")
        if not isinstance(type_name, str):
            raise GatewayError("POST /instances needs a string 'type' field")
        cls = resolve_shared_type(type_name)
        init_state = body.get("state")
        obj = self.node.api.create_instance(cls, init_state)
        return 200, {"id": obj.unique_id, "type": type_name}

    def _issue_operation(self, body: dict) -> tuple[int, dict]:
        unique_id = body.get("object")
        method_name = body.get("method")
        if not isinstance(unique_id, str) or not isinstance(method_name, str):
            raise GatewayError(
                "POST /operations needs string 'object' and 'method' fields"
            )
        args = body.get("args", [])
        if not isinstance(args, list):
            raise GatewayError("'args' must be a JSON array")
        self._ticket_counter += 1
        ticket_id = f"t{self._ticket_counter}"

        def completion(result: bool) -> None:
            self._broadcast_event(
                {
                    "event": "ticket",
                    "ticket": ticket_id,
                    "status": "committed",
                    "commit_result": result,
                }
            )

        ticket = self.node.api.invoke(
            unique_id, method_name, *args, completion=completion
        )
        self.tickets[ticket_id] = ticket
        if ticket.status == "rejected":
            self._broadcast_event(
                {
                    "event": "ticket",
                    "ticket": ticket_id,
                    "status": "rejected",
                    "commit_result": False,
                }
            )
        return 200, {"ticket": ticket_id, "status": _STATUS_MAP[ticket.status]}

    def _ticket_info(self, ticket_id: str) -> tuple[int, dict]:
        ticket = self.tickets.get(ticket_id)
        if ticket is None:
            return 404, {"error": f"unknown ticket {ticket_id!r}"}
        return 200, {
            "ticket": ticket_id,
            "status": _STATUS_MAP[ticket.status],
            "commit_result": ticket.commit_result,
            "key": str(ticket.key) if ticket.key is not None else None,
        }

    # -- WebSocket delta stream ----------------------------------------------

    async def _serve_websocket(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        key = request.headers.get("sec-websocket-key")
        if key is None:
            writer.write(json_response(400, {"error": "missing websocket key"}))
            await writer.drain()
            return
        writer.write(ws_handshake_response(key))
        await writer.drain()
        subscriber = _Subscriber(writer)
        self.subscribers.append(subscriber)
        sender = asyncio.get_running_loop().create_task(self._ws_sender(subscriber))
        try:
            while True:
                frame = await ws_read_frame(reader)
                if frame is None or frame[0] == WS_CLOSE:
                    break
                if frame[0] == WS_PING:
                    writer.write(ws_frame(WS_PONG, frame[1]))
                    await writer.drain()
        finally:
            subscriber.closed = True
            if subscriber in self.subscribers:
                self.subscribers.remove(subscriber)
            sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass

    async def _ws_sender(self, subscriber: _Subscriber) -> None:
        while not subscriber.closed:
            event = await subscriber.queue.get()
            data = (
                event
                if isinstance(event, (bytes, bytearray))
                else _encode_ws_event(event)
            )
            try:
                subscriber.writer.write(data)
                await subscriber.writer.drain()
            except (ConnectionError, OSError):
                subscriber.closed = True
                return

    def _broadcast_event(self, event: dict) -> None:
        if not self.subscribers:
            return
        data = _encode_ws_event(event)
        for subscriber in self.subscribers:
            subscriber.push(data)

    async def _delta_pump(self) -> None:
        """Push guess-store changes to every subscriber.

        Polls the versioned store's stamps (cheap integer compares; the
        expensive ``encode_state`` runs only for objects that actually
        changed).  ``self.node.model`` is re-read every scan so the pump
        survives node restarts, which replace the model wholesale.
        """
        while True:
            await asyncio.sleep(self.poll_interval)
            if not self.subscribers:
                continue
            store = self.node.model.guess
            current_ids = set(store.ids())
            # One scan encodes each changed object once — state encode,
            # JSON render and WS framing are all shared; subscribers
            # differ only in *which* cached frames they are behind on.
            frame_cache: dict[tuple[str, int], bytes] = {}
            removed_cache: dict[str, bytes] = {}
            for subscriber in list(self.subscribers):
                for unique_id in sorted(current_ids):
                    version = store.version(unique_id)
                    if subscriber.seen.get(unique_id) == version:
                        continue
                    data = frame_cache.get((unique_id, version))
                    if data is None:
                        encoded = encode_state(store.get(unique_id))
                        data = _encode_ws_event(
                            {
                                "event": "delta",
                                "object": unique_id,
                                "version": version,
                                "type": encoded["type"],
                                "state": encoded["state"],
                            }
                        )
                        frame_cache[(unique_id, version)] = data
                    subscriber.seen[unique_id] = version
                    subscriber.push(data)
                for gone in [u for u in subscriber.seen if u not in current_ids]:
                    del subscriber.seen[gone]
                    data = removed_cache.get(gone)
                    if data is None:
                        data = _encode_ws_event({"event": "removed", "object": gone})
                        removed_cache[gone] = data
                    subscriber.push(data)

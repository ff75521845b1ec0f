"""A small blocking gateway client (urllib + raw-socket WebSocket).

For tests, the cluster quickstart and shell scripting — subprocess
daemons are driven from ordinary synchronous code, so the client is
deliberately not asyncio.  Production clients can use any HTTP or
WebSocket library; the wire surface is plain JSON over HTTP/1.1.
"""

from __future__ import annotations

import base64
import itertools
import json
import socket
import struct
import time
import urllib.error
import urllib.request

from repro.errors import GatewayError
from repro.gateway.http import ws_frame, WS_CLOSE, WS_PING, WS_PONG, WS_TEXT

#: how often a 503 with Retry-After is retried before it is raised
_RETRIES = 3


class GatewayClient:
    """Blocking REST client for one gateway endpoint.

    A 503 with Retry-After (a create refused by a flush window that
    outlasted the gateway's own wait) is retried up to ``_RETRIES`` times.
    """

    def __init__(self, base_url: str, timeout: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, body: dict | None = None) -> dict:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        for attempt in itertools.count():
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                retry_after = exc.headers.get("Retry-After")
                if exc.code == 503 and retry_after and attempt < _RETRIES:
                    time.sleep(float(retry_after))
                    continue
                try:
                    detail = json.loads(exc.read().decode("utf-8")).get("error", "")
                except Exception:  # noqa: BLE001 - best-effort error detail
                    detail = ""
                raise GatewayError(
                    f"{method} {path} failed with HTTP {exc.code}: {detail}"
                ) from None
            except (urllib.error.URLError, TimeoutError, OSError) as exc:
                raise GatewayError(f"{method} {path} unreachable: {exc}") from None

    # -- REST surface --------------------------------------------------------

    def health(self) -> dict:
        return self._request("GET", "/healthz")

    def cluster(self) -> dict:
        return self._request("GET", "/cluster")

    def objects(self) -> list[str]:
        return self._request("GET", "/objects")["objects"]

    def object(self, unique_id: str) -> dict:
        return self._request("GET", f"/objects/{unique_id}")

    def create_instance(self, type_name: str, state: dict | None = None) -> str:
        body: dict = {"type": type_name}
        if state is not None:
            body["state"] = state
        return self._request("POST", "/instances", body)["id"]

    def join_instance(self, unique_id: str) -> dict:
        return self._request("POST", f"/instances/{unique_id}/join", {})

    def invoke(self, unique_id: str, method: str, *args) -> dict:
        return self._request(
            "POST",
            "/operations",
            {"object": unique_id, "method": method, "args": list(args)},
        )

    def ticket(self, ticket_id: str) -> dict:
        return self._request("GET", f"/tickets/{ticket_id}")

    def wait_ticket(
        self, ticket_id: str, timeout: float = 10.0, poll: float = 0.05
    ) -> dict:
        """Poll until the ticket leaves pending/guessed; returns its info."""
        deadline = time.monotonic() + timeout
        while True:
            info = self.ticket(ticket_id)
            if info["status"] in ("committed", "rejected"):
                return info
            if time.monotonic() >= deadline:
                raise GatewayError(
                    f"ticket {ticket_id} still {info['status']!r} after {timeout}s"
                )
            time.sleep(poll)

    def connect_ws(self, timeout: float = 5.0) -> "GatewayWebSocket":
        """Open the delta-stream WebSocket."""
        host, _, port_text = self.base_url.split("//", 1)[1].partition(":")
        return GatewayWebSocket(host, int(port_text), timeout=timeout)


class GatewayWebSocket:
    """Client side of the gateway's ``/ws`` delta stream."""

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        key = base64.b64encode(b"repro-gateway-ws").decode("latin-1")
        handshake = (
            "GET /ws HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n"
            "\r\n"
        ).encode("latin-1")
        self.sock.sendall(handshake)
        response = self._read_until(b"\r\n\r\n")
        if b"101" not in response.split(b"\r\n", 1)[0]:
            raise GatewayError(f"websocket handshake refused: {response[:120]!r}")

    def _read_until(self, marker: bytes) -> bytes:
        data = b""
        while marker not in data:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise GatewayError("connection closed during websocket handshake")
            data += chunk
        return data

    def _read_exactly(self, count: int) -> bytes:
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            if not chunk:
                raise GatewayError("websocket connection closed mid-frame")
            data += chunk
        return data

    def recv_json(self, timeout: float = 5.0) -> dict:
        """Receive the next text frame as JSON (transparently pongs pings)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise GatewayError("timed out waiting for a websocket frame")
            self.sock.settimeout(remaining)
            try:
                head = self._read_exactly(2)
            except socket.timeout:
                raise GatewayError("timed out waiting for a websocket frame") from None
            opcode = head[0] & 0x0F
            length = head[1] & 0x7F
            if length == 126:
                (length,) = struct.unpack(">H", self._read_exactly(2))
            elif length == 127:
                (length,) = struct.unpack(">Q", self._read_exactly(8))
            payload = self._read_exactly(length) if length else b""
            if opcode == WS_TEXT:
                return json.loads(payload.decode("utf-8"))
            if opcode == WS_PING:
                self.sock.sendall(ws_frame(WS_PONG, payload, mask=True))
                continue
            if opcode == WS_CLOSE:
                raise GatewayError("websocket closed by the gateway")
            # Ignore pongs and anything else.

    def close(self) -> None:
        try:
            self.sock.sendall(ws_frame(WS_CLOSE, b"", mask=True))
        except OSError:
            pass
        self.sock.close()

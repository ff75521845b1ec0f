"""The :class:`~repro.sim.scheduler.Scheduler` adapter over asyncio.

The whole runtime — synchronizer state machines, stall timeouts, Hello
retries, workload drivers — is written against the ``Scheduler``
interface.  :class:`AsyncioScheduler` maps it onto an asyncio event
loop, which gives the real transport the same single-threaded execution
discipline the deterministic :class:`~repro.sim.eventloop.EventLoop`
provides: every callback (timer, socket read, gateway request) runs on
the loop thread, so the runtime needs no locks.  The runtime's
modelled CPU costs are not slept here: :meth:`Scheduler.after_cpu`
runs its callback on the next loop turn, because the real work already
ran inline.

Callbacks must only be scheduled from the loop's own thread (asyncio's
``call_later`` is not thread-safe); cross-thread callers marshal
through ``loop.call_soon_threadsafe`` — see
:meth:`repro.transport.loopback.LoopbackCluster.call`.
"""

from __future__ import annotations

import asyncio
import sys
import traceback
from typing import Callable

from repro.sim.scheduler import CancelHandle, Scheduler


class AsyncioScheduler(Scheduler):
    """Wall-clock scheduler backed by an asyncio event loop."""

    def __init__(self, loop: asyncio.AbstractEventLoop):
        self.loop = loop
        #: Exceptions escaped from scheduled callbacks, newest last.
        #: The runtime's callbacks are not supposed to raise; anything
        #: landing here is a bug, surfaced by tests via assert.
        self.errors: list[BaseException] = []

    def now(self) -> float:
        return self.loop.time()

    def call_later(self, delay: float, callback: Callable[[], None]) -> CancelHandle:
        if delay < 0:
            raise ValueError("delay must be >= 0")

        def run() -> None:
            try:
                callback()
            except BaseException as exc:  # noqa: BLE001 - must not kill the loop
                self.errors.append(exc)
                traceback.print_exc(file=sys.stderr)

        handle = self.loop.call_later(delay, run)
        return CancelHandle(handle.cancel)

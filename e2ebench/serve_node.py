"""Traced node daemon: install the benchmark's timers, then ``serve_main``.

Usage (from the repository root)::

    python3 e2ebench/serve_node.py --dump OUT.json -- --node-id n1 --config C.yaml

Everything after ``--`` goes to ``repro.transport.daemon.serve_main``
unchanged.  SIGUSR1 and SIGUSR2 each take a counter snapshot (the load
generator sends them at the start and end of its measured window).
When the daemon stops, the spans, the snapshots and, on the master,
its round records are written to ``OUT.json`` and the raw spans to
``OUT.spans.tsv``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import tracing

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    own, serve_args = argv[:split], argv[split + 1:]
    if len(own) != 2 or own[0] != "--dump" or not serve_args:
        print("usage: serve_node.py --dump OUT.json -- SERVE-ARGS", file=sys.stderr)
        return 2
    dump_path = own[1]

    recorder = tracing.SpanRecorder()
    tracing.install(recorder)
    from repro.transport import daemon as daemon_module

    daemons = []
    start = daemon_module.NodeDaemon.start

    async def traced_start(daemon):
        await start(daemon)
        tracing.attach_profiler(daemon.node)
        daemons.append(daemon)

    daemon_module.NodeDaemon.start = traced_start
    marks: list[dict] = []

    def mark(signum, frame):
        if daemons:
            daemon = daemons[0]
            marks.append(tracing.snapshot([daemon.node], [daemon.transport], recorder))

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGUSR2, mark)
    try:
        return daemon_module.serve_main(serve_args)
    finally:
        document = {"spans": recorder.columns(), "marks": marks, "rounds": []}
        if daemons and daemons[0].node.is_master:
            document["rounds"] = tracing.sync_records(daemons[0].node.metrics_system)
        with open(dump_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        recorder.write(dump_path + ".spans.tsv")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Wall-clock benchmark of the shipped GUESSTIMATE program.

Run from the repository root::

    python3 e2ebench/run.py --workload gateway-counters --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``gateway-counters`` — three ``repro.cli serve`` daemons, driven
  through the HTTP gateway and its WebSocket (``gateway_counters.py``);
* ``replicate-8`` and ``market-escrow`` — nodes in this process on one
  asyncio loop, talking over 127.0.0.1 sockets (``inproc.py``).

``--trace 0`` sets up several times (the median is ``setup_s``), then
measures ``--seconds`` of load and prints every end-to-end metric.
``--trace 1`` runs the same load twice, untraced and then traced
(``tracing.py``; the daemons start through ``serve_node.py``), and
prints every per-layer metric plus the tracing overhead.  Which
end-to-end metric each layer metric should move is in ``README.md``.

The program runs as shipped: runtime contract checks stay on, every
``SyncConfig`` lever keeps its default, and ``GUESSTIMATE_COLLECTION``
is removed from the environment.  Each run checks the committed results
(replica agreement, the client-side ledger, invariants) and exits 1 if
any check fails.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gateway-counters", "replicate-8", "market-escrow")
#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = {"gateway-counters": 3, "replicate-8": 5, "market-escrow": 5}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(key: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in document[key]}


def run_workload(name: str, seed: int, seconds: float, setups: int, traced: bool) -> dict:
    work = ROOT / ".e2ebench-work" / f"{name}-{'traced' if traced else 'plain'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if name == "gateway-counters":
        import gateway_counters

        return gateway_counters.run(ROOT, work, seed, seconds, setups, traced)
    import inproc

    return inproc.run(name, work, seed, seconds, setups, traced)


def report_run(label: str, result: dict) -> None:
    """Human-readable lines for one measured run."""
    print(f"[{label}] setups: " + ", ".join(f"{s:.3f}s" for s in result["setup_times"]))
    print(f"[{label}] refused creates during setup: {result['refused_creates']}")
    print(f"[{label}] samples in window: {result['samples']}")
    for name, value in result["metrics"].items():
        print(f"[{label}] {name} = {value:.6g}")
    for name, value in result["client"].items():
        print(f"[{label}] {name} = {value:.6g} (not gated: see e2ebench/README.md)")
    print(
        f"[{label}] conflict_share = {result['conflict_share']:.4f}  "
        f"error_share = {result['error_share']:.4f}"
    )
    health = result["health"]
    print(
        f"[{label}] generator lateness p50 {health['lateness_ms_p50']:.3f} ms, "
        f"p99 {health['lateness_ms_p99']:.3f} ms; pending share "
        f"{health['pending_share']:.4f}"
    )
    if health["behind"]:
        print(f"[{label}] WARNING: the load generator fell behind its schedule")
    for problem in result["problems"]:
        print(f"[{label}] CHECK FAILED: {problem}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "examples" / "cluster" / "cluster.yaml"
    ).is_file():
        print(f"e2ebench: no GUESSTIMATE source tree under {ROOT}", file=sys.stderr)
        return 2
    os.environ.pop("GUESSTIMATE_COLLECTION", None)
    # Turn SIGTERM into SystemExit so every daemon and socket is torn down.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(ROOT / "src"))
    from repro.runtime.config import RuntimeConfig
    from repro.spec.contracts import checking_enabled

    print(
        f"host: nproc={os.cpu_count()} python={platform.python_version()} "
        f"platform={platform.platform()}"
    )
    print(
        f"program: collection={RuntimeConfig().collection_mode} "
        f"contract_checks={'on' if checking_enabled() else 'off'} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds}"
    )

    from stats import host_cpu_ticks

    steal_before, ticks_before = host_cpu_ticks()
    if not args.trace:
        result = run_workload(
            args.workload, args.seed, args.seconds, SETUPS[args.workload], traced=False
        )
        report_run("untraced", result)
        values = dict(result["metrics"])
        values["setup_s"] = sorted(result["setup_times"])[len(result["setup_times"]) // 2]
        units = declared_metrics("end_to_end")
        runs = [result]
    else:
        plain = run_workload(args.workload, args.seed, args.seconds, 1, traced=False)
        report_run("untraced", plain)
        traced = run_workload(args.workload, args.seed, args.seconds, 1, traced=True)
        report_run("traced", traced)
        values = dict(traced["layers"])
        values["core.refused_creates"] = float(
            plain["refused_creates"] + traced["refused_creates"]
        )
        for key, value in traced["health"].items():
            values[f"load.{key}"] = value
        for key, value in plain["client"].items():
            values[f"client.{key}"] = value
        untraced_rate = plain["metrics"]["committed_ops_s"]
        traced_rate = traced["metrics"]["committed_ops_s"]
        values["trace.committed_ops_s"] = traced_rate
        values["trace.untraced_committed_ops_s"] = untraced_rate
        values["trace.overhead_share"] = (
            (untraced_rate - traced_rate) / untraced_rate if untraced_rate else 0.0
        )
        units = declared_metrics("per_layer")
        runs = [plain, traced]
        for name in sorted(values):
            print(f"[layers] {name} = {values[name]:.6g} {units.get(name, '?')}")

    steal_after, ticks_after = host_cpu_ticks()
    print(
        "host: CPU steal during the run "
        f"{100.0 * (steal_after - steal_before) / max(1, ticks_after - ticks_before):.1f}%"
    )
    if set(values) != set(units):
        raise SystemExit(
            f"e2ebench: metrics {sorted(set(values) ^ set(units))} "
            "differ from BENCHMARK.json"
        )
    correct = all(not run["problems"] for run in runs)
    last = runs[-1]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": last["attempted"],
                "failed": last["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": units[name]} for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

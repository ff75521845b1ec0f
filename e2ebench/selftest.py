"""Self-test of the benchmark itself.

From the repository root::

    python3 e2ebench/selftest.py

1. A short untraced and a short traced run of every workload must exit
   0, report ``correct``, and emit exactly the metrics ``BENCHMARK.json``
   declares.
2. With a planted wrong ledger (the first successful commit left out of
   the client's books) every workload's correctness check must fail.

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gateway_counters  # noqa: E402
import inproc  # noqa: E402
from ledger import BalanceLedger, CounterLedger  # noqa: E402
from run import WORKLOADS  # noqa: E402

SECONDS = 2


def check_short_runs() -> list[str]:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            completed = subprocess.run(
                [
                    sys.executable, str(ROOT / "e2ebench" / "run.py"),
                    "--workload", workload, "--seed", "7",
                    "--seconds", str(SECONDS), "--trace", str(trace),
                ],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} --trace {trace}"
            lines = completed.stdout.strip().splitlines()
            if completed.returncode != 0 or not lines:
                failures.append(f"{label}: exit {completed.returncode}\n{completed.stderr[-800:]}")
                continue
            result = json.loads(lines[-1])
            wanted = {entry["name"] for entry in benchmark[key]}
            if set(result["metrics"]) != wanted:
                failures.append(f"{label}: metrics differ: {sorted(set(result['metrics']) ^ wanted)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"ok: {label} emits all {len(wanted)} metrics", flush=True)
    return failures


def planted(cls, method_name: str):
    """Patch ``cls.method_name`` to drop the first successful commit."""
    original = getattr(cls, method_name)
    dropped = []

    def record(self, *args):
        if not dropped and args[-1]:
            dropped.append(args)
            return None
        return original(self, *args)

    setattr(cls, method_name, record)
    return lambda: setattr(cls, method_name, original)


def check_planted_ledgers(work: Path) -> list[str]:
    failures = []
    cases = [
        ("gateway-counters", CounterLedger, "record"),
        ("replicate-8", CounterLedger, "record"),
        ("market-escrow", BalanceLedger, "record_purchase"),
    ]
    for workload, cls, method_name in cases:
        restore = planted(cls, method_name)
        try:
            if workload == "gateway-counters":
                result = gateway_counters.run(ROOT, work, 7, SECONDS, 1, False)
            else:
                result = inproc.run(workload, work, 7, SECONDS, 1, False)
        finally:
            restore()
        if result["problems"]:
            print(f"ok: {workload} check caught the planted ledger: {result['problems'][0]}")
        else:
            failures.append(f"{workload}: the planted wrong ledger went unnoticed")
    return failures


def main() -> int:
    work = ROOT / ".e2ebench-work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    failures = check_short_runs() + check_planted_ledgers(work)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

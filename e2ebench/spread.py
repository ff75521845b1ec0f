"""Run-to-run spread of the end-to-end metrics, against their bounds.

Runs ``run.py`` once per seed on one workload and prints, per metric,
the median of the runs and the distance between the first and third
quartile as a share of that median (``statistics.quantiles(n=4)``),
next to the metric's bound in ``BENCHMARK.json``.  From the repository
root::

    python3 e2ebench/spread.py --workload replicate-8 --seeds 1-10 --seconds 20

``--out FILE`` also writes every run's metrics as JSON, so two sets of
runs can be compared with ``--compare FILE``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(ROOT / "e2ebench" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(
            f"seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    runs = []
    for seed in seeds_of(args.seeds):
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()),
              flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs))
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None

    worst = 0.0
    print(f"{'metric':22} {'median':>12} {'IQR/median':>11} {'bound':>6}"
          + ("  median shift" if earlier else ""))
    for entry in benchmark["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        values = [run[name] for run in runs]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        if name != "setup_s":
            worst = max(worst, spread / bound)
        line = f"{name:22} {mid:12.5g} {spread:11.4f} {bound:6.2f}"
        if earlier:
            before = statistics.median(run[name] for run in earlier)
            line += f"  {(mid - before) / before if before else 0.0:+.4f}"
        print(line)
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Small statistics helpers shared by every workload of the benchmark."""

from __future__ import annotations

import os


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime and stime are 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def host_cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this VM had
    work; it stretches every latency the benchmark measures.
    """
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(field) for field in handle.readline().split()[1:]]
    return ticks[7], sum(ticks)


def self_peak_rss_mb() -> float:
    return proc_peak_rss_mb(os.getpid())

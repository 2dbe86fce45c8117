"""Arithmetic and host readings shared by every workload.

Nothing here imports the program under test, so the unit tests run
without it.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: A tail percentile needs at least this many samples per run: p90 then
#: has ten samples beyond it.  Fewer samples report the median only.
TAIL_MIN_SAMPLES = 100


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, linear between closest ranks."""
    if len(values) < 2:
        raise ValueError("p90 needs at least two samples")
    return float(statistics.quantiles(values, n=10, method="inclusive")[8])


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median always; p90 only with enough samples for a tail."""
    summary = {"p50": median(values), "count": float(len(values))}
    if len(values) >= TAIL_MIN_SAMPLES:
        summary["p90"] = p90(values)
    return summary


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quartile_spread(values: Sequence[float]) -> dict[str, float]:
    """Median, quartiles and the inter-quartile range as a share of the
    median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": q2,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / q2 if q2 else float("inf"),
    }


def merged_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of closed intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


# ----------------------------------------------------------------------
# I/O counters (/proc/<pid>/io)
# ----------------------------------------------------------------------
def parse_proc_io(text: str) -> dict[str, int]:
    """``/proc/<pid>/io`` as a dict of counters."""
    counters = {}
    for line in text.splitlines():
        name, sep, value = line.partition(":")
        if sep:
            counters[name.strip()] = int(value)
    return counters


def read_wchar() -> int:
    """Bytes this process has handed to write-like system calls."""
    with open("/proc/self/io") as handle:
        return parse_proc_io(handle.read())["wchar"]


def bytes_per_op(deltas: Sequence[int]) -> float:
    """Mean bytes written per operation from per-operation counter deltas."""
    if not deltas:
        return 0.0
    if any(delta < 0 for delta in deltas):
        raise ValueError("an I/O counter went backwards")
    return sum(deltas) / len(deltas)


# ----------------------------------------------------------------------
# Memory and host
# ----------------------------------------------------------------------
def _vm_hwm_kb(pid: int | str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except FileNotFoundError:
        return 0
    return 0


def peak_rss_mb(child_pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus the given live children."""
    kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(pid) for pid in child_pids)
    return kb / 1024.0


def host_metadata(root: Path) -> dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def repeat_summary(results: Sequence[Mapping[str, float]]) -> dict[str, dict]:
    """Per-metric median, quartiles and spread over repeated runs."""
    names = sorted({name for result in results for name in result})
    return {
        name: quartile_spread([result[name] for result in results])
        for name in names
        if all(name in result for result in results)
    }

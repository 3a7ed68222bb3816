"""Per-run environment record: what machine and code a result came from."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# Fields of the aggregate "cpu" line of /proc/stat (proc(5)).
_STAT_FIELDS = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")

# Generator and relay share one CPU. When the generator takes more than this
# share of it, round trips measure the generator more than the relay.
GENERATOR_SATURATED = 0.5


def cpu_times() -> dict[str, int]:
    with open("/proc/stat", encoding="ascii") as fh:
        values = fh.readline().split()[1 : 1 + len(_STAT_FIELDS)]
    return dict(zip(_STAT_FIELDS, map(int, values)))


def steal_frac(before: dict[str, int], after: dict[str, int]) -> float:
    """Share of all CPU time the hypervisor took between two ``cpu_times``."""
    total = sum(after.values()) - sum(before.values())
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def record(root: Path, args: dict, measured: dict, generator_cpu_frac: float | None) -> dict:
    """Machine, code and run facts, plus every figure the run measured."""
    return {
        **args,
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        **measured,
        "generator_saturated": generator_cpu_frac is not None and generator_cpu_frac >= GENERATOR_SATURATED,
    }

"""Shared pieces of the repo benchmark: statistics, outcomes, provenance.

Everything here is pure Python with no dependency on ``repro``, so the
self-tests can exercise it without the package on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for cache dirs, journals, traces and result records.
#: Inside the checkout on purpose: the benchmark writes nowhere else.
WORK = ROOT / ".bench_work"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``.

    The rank is ``ceil(q/100 * n)``, so the result is always one of the
    samples (never an interpolation) and p100 is the maximum.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``."""
    return n - max(math.ceil(q * n / 100.0), 1)


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middles for even counts)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


@dataclass
class Outcome:
    """Operations attempted and failed by one workload run.

    A failed output check counts as a failed operation; ``reasons``
    keeps the first few messages so a failing run explains itself.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        """Count one operation; a false ``condition`` fails it."""
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, 20 - len(self.reasons))])


@dataclass
class WorkloadResult:
    """What one workload hands back to the runner.

    ``metrics`` are the values ``BENCHMARK.json`` names; ``report`` holds
    the workload's own named figures (``name -> (value, unit)``) that the
    runner prints for people, including the per-workload names each
    generic metric stands for.
    """

    metrics: Dict[str, float]
    outcome: Outcome
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)


def peak_rss_mib(which: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` high-water mark in MiB (Linux reports KiB)."""
    return resource.getrusage(which).ru_maxrss / 1024.0


def vm_hwm_mib(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live process, read from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class RssSampler:
    """Highest resident set size seen between ``start`` and ``stop``, in MiB.

    A background thread polls ``/proc/self/statm`` every millisecond.
    ``tracemalloc`` would give exact peaks but slows the slot-loop
    kernels by more than an order of magnitude, so the benchmark
    samples the resident size instead; large NumPy arrays are mapped
    and unmapped whole, so their lifetimes show in it.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.start_mib = 0.0
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @staticmethod
    def resident_mib() -> float:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * _PAGE / 2**20

    def _poll(self) -> None:
        while not self._stop.wait(self.interval):
            self.peak_mib = max(self.peak_mib, self.resident_mib())

    def start(self) -> "RssSampler":
        self.start_mib = self.peak_mib = self.resident_mib()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> float:
        """Stop sampling; returns the growth over the starting size."""
        self._stop.set()
        self._thread.join()
        self.peak_mib = max(self.peak_mib, self.resident_mib())
        return self.peak_mib - self.start_mib


_PAGE = os.sysconf("SC_PAGE_SIZE")


def src_digest() -> str:
    """SHA-256 over ``src/**/*.py``: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> Optional[str]:
    """The checkout's git commit, or None when it is not its own git repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Where and on what a result was measured."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
    }


def load_benchmark(path: Path) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def complete_metrics(
    spec: Dict, workload: str, trace: bool, values: Dict[str, float]
) -> Dict[str, Dict]:
    """The result's ``metrics`` object, in ``BENCHMARK.json`` order.

    Raises ``ValueError`` when the workload is not declared or a declared
    metric is missing or not a finite number: a result must never pass
    by leaving something out.
    """
    if workload not in [w["name"] for w in spec["workloads"]]:
        raise ValueError(f"workload {workload!r} is not declared in BENCHMARK.json")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise ValueError(f"{workload}: result is missing metrics {missing}")
    out: Dict[str, Dict] = {}
    for m in declared:
        value = float(values[m["name"]])
        if not math.isfinite(value):
            raise ValueError(f"{workload}: metric {m['name']} is {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def log(message: str) -> None:
    """Progress for people: stderr, so stdout's last line stays the result."""
    print(message, file=sys.stderr, flush=True)

"""Shared helpers: sample statistics, the metric record and process probes."""

from __future__ import annotations

import ctypes
import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: input variants of each simulation workload; every run simulates all
#: of them, and the committed reference waveforms cover each
NUM_VARIANTS = 4

METHODS = ("er", "erc", "benr")


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


@dataclass
class Report:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit, samples)``;
    ``notes`` are extra human-readable lines printed before the result.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.notes.append(f"FAILED: {reason}")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


#: milliseconds :func:`host_probe_ms` reads on the reference host, a quiet
#: 2-vCPU x86 container; every time a run reports is scaled to that host
REFERENCE_PROBE_MS = 6.0


def host_probe_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes: the host's speed right now.

    The median of three timings, so one preemption does not count.
    """
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value
        timings.append((time.perf_counter() - start) * 1e3)
    return median(timings)


def host_scale(probes_ms: Sequence[float]) -> float:
    """Factor taking one run's seconds to reference-host seconds.

    The host is shared, and its speed drifts by tens of percent between
    runs a minute apart, for the simulator and this probe alike: over five
    runs of each workload the run's median probe tracked its times with
    correlation 0.5-0.9, and dividing by it halved the spread of BENR on
    ``table1_nonlinear`` and of the service's re-runs.  ``probes_ms`` are the run's
    :func:`host_probe_ms` readings, taken between its timed parts.
    """
    return REFERENCE_PROBE_MS / median(probes_ms)


def release_free_memory() -> None:
    """Collect garbage and hand the freed heap back to the system.

    Called before every job, so neither a job's time nor its share of the
    peak RSS depends on what the jobs before it left behind (in what order
    they ran, which the seed picks).
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)  # glibc only
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def blas_threads() -> int:
    """Largest thread count of the OpenBLAS libraries loaded in this process."""
    counts = []
    with open("/proc/self/maps", encoding="ascii", errors="replace") as handle:
        libraries = {line.split()[-1] for line in handle
                     if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts.append(int(getter()))
                break
    return max(counts) if counts else 0

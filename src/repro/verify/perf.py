"""Perf-trajectory tracking: the steps/sec regression gate.

``benchmarks/bench_hotpath.py`` emits one ``BENCH_hotpath.json`` per run;
this module appends each run's cached-mode steps/sec rates to an
append-only JSONL history (``benchmarks/history/hotpath_history.jsonl``)
and gates new runs against the **median** of the tracked history: a run
whose rate falls more than ``threshold`` (default 20%) below the median
of the same (benchmark mode, case, method) series fails.

The median -- not the best or the latest -- is the anchor so that one
lucky run cannot ratchet the bar out of reach and one slow run cannot
lower it.  Histories are machine-local by construction (steps/sec is not
comparable across hosts), which is why the gate only engages once
``min_history`` runs of the same mode exist in the file.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ADAPTIVE_HISTORY_PATH",
    "DEFAULT_HISTORY_PATH",
    "FIG1_HISTORY_PATH",
    "PerfRegression",
    "extract_rates",
    "load_history",
    "record_entry",
    "record_run",
    "tracked_medians",
    "check_perf_regression",
    "run_gate",
]

#: anchored to the checkout (this file lives at src/repro/verify/perf.py;
#: the package runs from source, per README), not the CWD -- every
#: documented entry point (bench_hotpath --history, --perf-check) then
#: appends to the *same* per-checkout history wherever it is invoked
DEFAULT_HISTORY_PATH = (Path(__file__).resolve().parents[3]
                        / "benchmarks" / "history" / "hotpath_history.jsonl")

#: sibling history for the Fig.-1 nnz sweep (fill-in ratios, not rates --
#: it shares the JSONL entry shape so load_history/tracked_medians apply)
FIG1_HISTORY_PATH = (Path(__file__).resolve().parents[3]
                     / "benchmarks" / "history" / "fig1_history.jsonl")

#: sibling history for the cache-aware stepping benchmark (LU-count
#: ratios of ladder runs against the fixed-step baseline)
ADAPTIVE_HISTORY_PATH = (Path(__file__).resolve().parents[3]
                         / "benchmarks" / "history" / "adaptive_history.jsonl")

#: gate only once this many runs of the same mode are on record
DEFAULT_MIN_HISTORY = 3

#: cap on how many most-recent runs enter the median (drift tolerance:
#: a genuinely faster codebase re-anchors after this many runs)
DEFAULT_WINDOW = 20

#: default regression threshold: fail below (1 - 0.20) * median
DEFAULT_THRESHOLD = 0.20


@dataclass
class PerfRegression:
    """One (case, method) series that fell below the gate."""

    case: str
    method: str
    mode: str
    rate: float
    median: float
    threshold: float

    def describe(self) -> str:
        drop = 100.0 * (1.0 - self.rate / self.median)
        return (
            f"{self.case}/{self.method} [{self.mode}]: "
            f"{self.rate:.0f} steps/s is {drop:.1f}% below the tracked "
            f"median {self.median:.0f} (allowed {100.0 * self.threshold:.0f}%)"
        )


def extract_rates(payload: Dict[str, object]) -> Dict[Tuple[str, str], float]:
    """Pull the cached-mode steps/sec of every (case, method) from a
    ``BENCH_hotpath.json`` payload."""
    rates: Dict[Tuple[str, str], float] = {}
    for row in payload.get("results", []):
        cached = row.get("cached", {})
        rate = cached.get("steps_per_second")
        if rate:
            rates[(str(row["case"]), str(row["method"]).lower())] = float(rate)
    return rates


def load_history(history_path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read the JSONL history (missing file = empty history)."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            entries.append(json.loads(line))
    return entries


def record_entry(series: Dict[str, float], mode: str,
                 history_path: Union[str, Path]) -> Dict[str, object]:
    """Append one ``{recorded_at, mode, rates}`` entry to a JSONL history.

    The generic writer behind :func:`record_run`; other benchmarks (the
    Fig.-1 nnz sweep) append their own series through it so every history
    file stays readable by :func:`load_history`/:func:`tracked_medians`.
    """
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "recorded_at": time.time(),
        "mode": mode,
        "rates": {str(key): float(value) for key, value in series.items()},
    }
    with path.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    return entry


def record_run(payload: Dict[str, object],
               history_path: Union[str, Path] = DEFAULT_HISTORY_PATH) -> Dict[str, object]:
    """Append one benchmark run to the history file and return the entry."""
    return record_entry(
        {f"{case}/{method}": rate
         for (case, method), rate in extract_rates(payload).items()},
        mode=str(payload.get("mode", "full")),
        history_path=history_path,
    )


def tracked_medians(history: List[Dict[str, object]], mode: str,
                    window: int = DEFAULT_WINDOW) -> Dict[str, Tuple[float, int]]:
    """Per series key (``case/method``): (median rate, #runs), same mode only."""
    series: Dict[str, List[float]] = {}
    for entry in history:
        if entry.get("mode") != mode:
            continue
        for key, rate in entry.get("rates", {}).items():
            series.setdefault(key, []).append(float(rate))
    return {key: (float(np.median(values[-window:])), len(values))
            for key, values in series.items()}


def check_perf_regression(
    payload: Dict[str, object],
    history_path: Union[str, Path] = DEFAULT_HISTORY_PATH,
    threshold: float = DEFAULT_THRESHOLD,
    min_history: int = DEFAULT_MIN_HISTORY,
    window: int = DEFAULT_WINDOW,
) -> List[PerfRegression]:
    """Gate ``payload`` against the tracked history.

    Returns the list of regressed series (empty = pass).  Series with
    fewer than ``min_history`` recorded runs are skipped: a fresh
    machine or a renamed case must first accumulate a baseline.
    """
    mode = str(payload.get("mode", "full"))
    medians = tracked_medians(load_history(history_path), mode, window=window)
    regressions: List[PerfRegression] = []
    for (case, method), rate in extract_rates(payload).items():
        tracked = medians.get(f"{case}/{method}")
        if tracked is None:
            continue
        median, count = tracked
        if count < min_history or median <= 0.0:
            continue
        if rate < (1.0 - threshold) * median:
            regressions.append(PerfRegression(
                case=case, method=method, mode=mode, rate=rate,
                median=median, threshold=threshold,
            ))
    return regressions


def gate_payload_file(
    input_path: Union[str, Path],
    history_path: Union[str, Path] = DEFAULT_HISTORY_PATH,
    threshold: float = DEFAULT_THRESHOLD,
    min_history: int = DEFAULT_MIN_HISTORY,
    record: bool = True,
) -> Tuple[List[PerfRegression], Optional[Dict[str, object]]]:
    """Convenience used by the CLI: check a payload file, then record it.

    The check runs against the history *before* this run is appended, so
    a regressed run cannot vote itself into its own baseline; the run is
    recorded afterwards either way (an honest history includes the slow
    runs -- the median absorbs them).
    """
    payload = json.loads(Path(input_path).read_text())
    regressions = check_perf_regression(
        payload, history_path, threshold=threshold, min_history=min_history,
    )
    entry = record_run(payload, history_path) if record else None
    return regressions, entry


def run_gate(
    input_path: Union[str, Path],
    history_path: Union[str, Path] = DEFAULT_HISTORY_PATH,
    threshold: float = DEFAULT_THRESHOLD,
    min_history: int = DEFAULT_MIN_HISTORY,
    record: bool = True,
) -> int:
    """Gate + report + record in one call; returns the process exit code.

    The single reporting path behind both documented entry points
    (``bench_hotpath.py --history`` and ``python -m repro.verify
    --perf-check``), so their output and exit-code semantics cannot
    drift apart.
    """
    import sys

    regressions, entry = gate_payload_file(
        input_path, history_path, threshold=threshold,
        min_history=min_history, record=record,
    )
    if entry is not None:
        print(f"recorded {len(entry['rates'])} series into {history_path}")
    if regressions:
        for regression in regressions:
            print(f"PERF REGRESSION: {regression.describe()}", file=sys.stderr)
        return 1
    print(f"perf gate passed (threshold {100.0 * threshold:.0f}% "
          f"below tracked median)")
    return 0

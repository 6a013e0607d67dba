"""Simulation result containers and run statistics.

:class:`RunStatistics` carries exactly the counters the paper's Table I
reports per method -- number of accepted steps, average Newton iterations
per step (BENR), average invert-Krylov dimension per step (ER / ER-C),
LU counts and runtime -- plus a few extra diagnostics (rejections, peak
factor fill-in) used by the ablation benchmarks.

:class:`SimulationResult` records trajectories.  At 100k nodes storing
every state vector is the dominant memory cost (1000 points x 100k
doubles is ~0.8 GB), so ``store_states=False`` switches the container to
O(1) memory: only the observed nodes' scalar series, an
:class:`ObservableSummary` per observed node (running min/max/final,
L2, trapezoidal energy) and the final state survive.  The summaries are
accumulated with one update rule shared by the streaming and the
post-hoc (:meth:`ObservableSummary.from_series`) paths, so both derive
bit-for-bit identical numbers from the same points.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.linalg.krylov import MEVPStats
from repro.linalg.sparse_lu import LUStats

__all__ = ["StepRecord", "RunStatistics", "ObservableSummary", "SimulationResult"]


@dataclass
class StepRecord:
    """Diagnostics of one accepted time step."""

    t: float
    h: float
    rejections: int = 0
    newton_iterations: int = 0
    krylov_dimensions: List[int] = field(default_factory=list)
    error_estimate: float = 0.0

    @property
    def average_krylov_dimension(self) -> float:
        if not self.krylov_dimensions:
            return 0.0
        return float(np.mean(self.krylov_dimensions))


@dataclass
class RunStatistics:
    """Aggregated counters of one transient run (the Table I columns)."""

    method: str = ""
    num_steps: int = 0
    num_rejections: int = 0
    total_newton_iterations: int = 0
    runtime_seconds: float = 0.0
    completed: bool = False
    failure_reason: Optional[str] = None
    lu: LUStats = field(default_factory=LUStats)
    mevp: MEVPStats = field(default_factory=MEVPStats)
    device_evaluations: int = 0
    #: accepted steps whose size sat exactly on a ladder rung
    num_ladder_steps: int = 0
    #: accepted on-rung steps that repeated the previous step's rung
    #: (each one reuses the cached factorization by construction)
    num_ladder_holds: int = 0

    @property
    def average_newton_iterations(self) -> float:
        """``#NR_a`` -- average Newton iterations per accepted step."""
        if self.num_steps == 0:
            return 0.0
        return self.total_newton_iterations / self.num_steps

    @property
    def average_krylov_dimension(self) -> float:
        """``#m_a`` -- average Krylov dimension per MEVP evaluation."""
        return self.mevp.average_dimension

    @property
    def num_lu_factorizations(self) -> int:
        return self.lu.num_factorizations

    @property
    def num_lu_cache_hits(self) -> int:
        """Factorizations avoided by the linearization cache."""
        return self.lu.num_cache_hits

    @property
    def num_lu_orderings(self) -> int:
        """Factorizations that paid for a fresh fill-reducing ordering."""
        return self.lu.num_orderings

    @property
    def num_symbolic_reuses(self) -> int:
        """Numeric refactorizations served by a pattern-matched ordering."""
        return self.lu.num_symbolic_reuses

    @property
    def peak_factor_nnz(self) -> int:
        """Peak ``nnz(L)+nnz(U)`` seen -- the memory proxy for Table I."""
        return self.lu.peak_factor_nnz

    def as_dict(self) -> Dict[str, object]:
        return {
            "method": self.method,
            "#step": self.num_steps,
            "#rejected": self.num_rejections,
            "#NRa": round(self.average_newton_iterations, 2),
            "#ma": round(self.average_krylov_dimension, 2),
            "#LU": self.num_lu_factorizations,
            "#LUhit": self.num_lu_cache_hits,
            "#LUsym": self.num_symbolic_reuses,
            "#ladder": self.num_ladder_steps,
            "#ladderhold": self.num_ladder_holds,
            "RT(s)": self.runtime_seconds,
            "peak_factor_nnz": self.peak_factor_nnz,
            "completed": self.completed,
            "failure": self.failure_reason,
        }


@dataclass
class ObservableSummary:
    """O(1)-memory running summary of one observed waveform.

    The update rule is the *only* way numbers enter this class --
    :meth:`from_series` replays the same rule over a stored waveform --
    so summaries accumulated while streaming (``store_states=False``)
    and summaries derived from a stored trajectory are bit-for-bit
    identical for the same sequence of points.
    """

    num_points: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    final: float = math.nan
    final_time: float = math.nan
    #: running sum of squared samples (discrete L2 accumulator)
    sum_squares: float = 0.0
    #: trapezoidal running integral of ``v(t)^2`` over time ("energy")
    energy: float = 0.0

    def update(self, t: float, value: float) -> None:
        t = float(t)
        value = float(value)
        if self.num_points:
            self.energy += 0.5 * (self.final * self.final + value * value) \
                * (t - self.final_time)
        self.num_points += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.final = value
        self.final_time = t
        self.sum_squares += value * value

    @property
    def l2_norm(self) -> float:
        return math.sqrt(self.sum_squares)

    @classmethod
    def from_series(cls, times: Iterable[float],
                    values: Iterable[float]) -> "ObservableSummary":
        """Replay a stored waveform through the streaming update rule."""
        summary = cls()
        for t, value in zip(times, values):
            summary.update(t, value)
        return summary

    def as_dict(self) -> Dict[str, float]:
        return {
            "num_points": self.num_points,
            "min": self.minimum,
            "max": self.maximum,
            "final": self.final,
            "final_time": self.final_time,
            "l2": self.l2_norm,
            "energy": self.energy,
        }


class SimulationResult:
    """Time points, states and statistics of one transient simulation."""

    def __init__(self, mna, method: str, store_states: bool = True,
                 observe_nodes: Optional[List[str]] = None):
        self._mna = mna
        self.method = method
        self.store_states = store_states
        self.observe_nodes = list(observe_nodes or [])
        self.times: List[float] = []
        self.states: List[np.ndarray] = []
        self.observed: Dict[str, List[float]] = {name: [] for name in self.observe_nodes}
        #: streaming per-observed-node summaries, updated on every point
        self.summaries: Dict[str, ObservableSummary] = {
            name: ObservableSummary() for name in self.observe_nodes}
        self.steps: List[StepRecord] = []
        self.stats = RunStatistics(method=method)
        self._wall_start: Optional[float] = None
        #: last recorded state; the only full vector kept when streaming
        self._final_state: Optional[np.ndarray] = None

    # -- recording ---------------------------------------------------------------------

    def start_clock(self) -> None:
        self._wall_start = time.perf_counter()

    def stop_clock(self) -> None:
        if self._wall_start is not None:
            self.stats.runtime_seconds = time.perf_counter() - self._wall_start

    def record_point(self, t: float, x: np.ndarray) -> None:
        """Record the solution at time ``t`` (including the initial point)."""
        t = float(t)
        self.times.append(t)
        if self.store_states:
            self.states.append(np.array(x, dtype=float, copy=True))
        else:
            if self._final_state is None:
                self._final_state = np.array(x, dtype=float, copy=True)
            else:
                np.copyto(self._final_state, x)
        for name in self.observe_nodes:
            value = self._mna.voltage(x, name)
            self.observed[name].append(value)
            self.summaries[name].update(t, value)

    def record_step(self, record: StepRecord) -> None:
        self.steps.append(record)
        self.stats.num_steps += 1
        self.stats.num_rejections += record.rejections
        self.stats.total_newton_iterations += record.newton_iterations

    # -- access -------------------------------------------------------------------------

    @property
    def mna(self):
        return self._mna

    @property
    def time_array(self) -> np.ndarray:
        return np.asarray(self.times)

    @property
    def state_array(self) -> np.ndarray:
        """All stored states as an ``(num_points, n)`` array."""
        if not self.store_states:
            raise RuntimeError("states were not stored (store_states=False)")
        return np.asarray(self.states)

    @property
    def final_state(self) -> np.ndarray:
        if self.store_states and self.states:
            return self.states[-1]
        if self._final_state is not None:
            return self._final_state
        raise RuntimeError("no stored states available")

    def voltage(self, node: str) -> np.ndarray:
        """Return the waveform of ``node`` over all recorded time points."""
        if node in self.observed and (not self.store_states or self.observed[node]):
            return np.asarray(self.observed[node])
        if not self.store_states:
            raise KeyError(f"node {node!r} was not observed and states were not stored")
        idx = self._mna.node_index(node)
        if idx < 0:
            return np.zeros(len(self.times))
        return self.state_array[:, idx]

    def branch_current(self, element_name: str) -> np.ndarray:
        idx = self._mna.branch_index_by_name(element_name)
        return self.state_array[:, idx]

    def step_sizes(self) -> np.ndarray:
        return np.asarray([s.h for s in self.steps])

    def node_summaries(self) -> Dict[str, Dict[str, float]]:
        """Streaming summaries of every observed node, as plain dicts."""
        return {name: summary.as_dict()
                for name, summary in self.summaries.items()}

    def summary(self) -> Dict[str, object]:
        out = self.stats.as_dict()
        out["t_end_reached"] = self.times[-1] if self.times else None
        out["num_points"] = len(self.times)
        if self.summaries:
            out["observables"] = self.node_summaries()
        return out

    def __repr__(self) -> str:
        return (
            f"SimulationResult(method={self.method!r}, steps={self.stats.num_steps}, "
            f"points={len(self.times)}, completed={self.stats.completed})"
        )

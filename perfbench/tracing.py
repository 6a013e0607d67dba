"""Outside-in span tracing of the simulator's public entry points.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install`
replaces each traced function or method with a timing wrapper at run
time -- on its defining module or class *and* on every already-imported
``repro`` module that rebound it with ``from ... import`` -- so calls
cannot escape the trace through an alias.  :meth:`Tracer.uninstall`
puts the originals back.

A span is ``[layer, start, end, parent, tag]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``tag`` is whatever the caller
set on :attr:`Tracer.tag` (the integration method of the running job).
Spans stay in memory until :meth:`Tracer.dump`.  A span's
self time is its duration minus the time its direct children cover;
because the traced code is single-threaded, children never overlap, so
the self times under a root span add up to the root's duration exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, layer) of every traced entry point; a dotted
#: attribute path names a method on a class of that module
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.simulator", "TransientSimulator.run", "integrators.loop"),
    ("repro.circuit.netlist", "Circuit.build", "circuit.build"),
    ("repro.benchcircuits.testcases", "make_ckt", "benchcircuits.generate"),
    ("repro.benchcircuits.freecpu", "freecpu_like_circuit", "benchcircuits.generate"),
    ("repro.benchcircuits.large_scale", "pdn_multilayer", "benchcircuits.generate"),
    ("repro.benchcircuits.rc_networks", "rc_ladder", "benchcircuits.generate"),
    ("repro.circuit.mna", "MNASystem.evaluate", "circuit.evaluate"),
    ("repro.circuit.mna", "MNASystem.source_vector", "circuit.sources"),
    ("repro.circuit.mna", "MNASystem.source_slope", "circuit.sources"),
    ("repro.analysis.dc", "dc_operating_point", "analysis.dc"),
    ("repro.integrators.newton", "NewtonSolver.solve", "integrators.newton"),
    ("repro.core.results", "SimulationResult.record_point", "core.record"),
    ("repro.linalg.sparse_lu", "factorize", "linalg.factorize"),
    ("repro.linalg.sparse_lu", "SparseLU.solve", "linalg.solve"),
    ("repro.linalg.sparse_lu", "SparseLU.solve_many", "linalg.solve"),
    ("repro.linalg.invert_krylov", "InvertKrylovMEVP.build", "linalg.arnoldi"),
    ("repro.linalg.invert_krylov", "IKSBasis.ensure_converged", "linalg.arnoldi"),
    ("repro.linalg.invert_krylov", "IKSBasis.minimal_converged_dimension",
     "linalg.arnoldi"),
    ("repro.linalg.phi", "expm_dense", "linalg.dense_expm"),
)

#: the layer whose spans are the roots of a transient run
ROOT_LAYER = "integrators.loop"

#: layers that run inside a transient run, reported per method too
RUN_LAYERS = (
    "integrators.loop", "analysis.dc", "integrators.newton", "circuit.evaluate",
    "circuit.sources", "core.record", "linalg.factorize", "linalg.solve",
    "linalg.arnoldi", "linalg.dense_expm",
)


def _solve_flops(args, kwargs) -> float:
    """Computed flops of one triangular solve pair: 2 * nnz(L+U) per column."""
    lu, rhs = args[0], args[1] if len(args) > 1 else kwargs.get("b", kwargs.get("B"))
    columns = rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1
    return 2.0 * lu.nnz_factors * columns


class Tracer:
    """Span recorder plus the run-time patches that feed it."""

    def __init__(self):
        self.spans: List[list] = []
        #: computed flops of every traced triangular solve
        self.solve_flops = 0.0
        self.tag = ""
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counts_flops = layer == "linalg.solve"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, self.tag]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if counts_flops:
                    self.solve_flops += _solve_flops(args, kwargs)

        return traced

    def install(self) -> None:
        """Patch every target and every ``repro`` module alias of it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib

        for module_name, path, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = functools.reduce(getattr, owner_path.split("."), module) \
                if owner_path else module
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._wrap(layer, original))
            if owner_path:
                continue
            # module-level function: rebind every ``from ... import`` alias
            for name, other in list(sys.modules.items()):
                if other is None or other is module or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, alias, self._wrap(layer, original))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Self time of every span (duration minus direct children)."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def summary(self) -> Dict[str, float]:
        """Per-layer calls and self seconds, in total and per tag.

        Keys are ``<layer>.calls``, ``<layer>.self_s`` and
        ``<layer>.self_s.<tag>``; ``trace.wall_s`` is the summed duration
        of the root run spans and ``linalg.solve.flops`` the computed
        flops of the traced solves.
        """
        out: Dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for index, (layer, start, end, parent, tag) in enumerate(self.spans):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += selfs[index]
            out[f"{layer}.self_s.{tag}"] += selfs[index]
            if parent < 0 and layer == ROOT_LAYER:
                out["trace.wall_s"] += end - start
        out["linalg.solve.flops"] = self.solve_flops
        out["trace.spans"] = float(len(self.spans))
        return dict(out)

    def dump(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["layer", "start", "end", "parent", "tag"]) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


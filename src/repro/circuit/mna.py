"""Modified nodal analysis (MNA) assembly.

:class:`MNASystem` turns a :class:`repro.circuit.netlist.Circuit` into the
sparse dynamical system the integrators operate on:

.. math::

    \\frac{d q(x)}{dt} + f(x) = B u(t)

with

* ``x`` -- node voltages followed by the branch currents of voltage
  sources, inductors and VCVS elements;
* ``q(x) = C_lin x + q_nl(x)`` -- charges/fluxes, ``C(x) = dq/dx``;
* ``f(x) = G_lin x + i_nl(x)`` -- static currents, ``G(x) = df/dx``;
* ``B u(t)`` -- the independent-source excitation, with one input column
  per independent source.

The capacitance matrix ``C`` is allowed to be singular (pure algebraic
rows), which is precisely the regime the paper targets: the invert Krylov
subspace method never needs ``C^{-1}``, whereas the standard Krylov
baseline requires a regularization pass
(:mod:`repro.linalg.regularization`).

Compiled evaluation
-------------------
The netlist is compiled once, when the system is built.  Devices are
grouped by class (:meth:`~repro.circuit.devices.base.NonlinearDevice.batch_key`)
and each group becomes one :class:`~repro.circuit.devices.base.DeviceBatch`
holding integer terminal-index arrays and per-instance parameter arrays.
Ground maps to a *sink* index ``n``: kernels read the extended state
``xe = [x, 0]``, and stamps on the sink row or column are discarded.

The kernel contract: a batch declares fixed ``(row, col)`` positions for
its ``G`` and ``C`` values and fixed rows for its ``f`` and ``q`` values,
and its ``evaluate(xe)`` returns value arrays aligned with them (exact
derivatives included).  State-independent capacitances (the MOSFET gate
capacitances) are declared separately and folded into a precomputed
linear base.

From those positions the build derives *fixed* CSC patterns for ``C``
and ``G`` -- the union of the linear stamps and every device position --
plus a slot map from each position to its entry of the pattern.
:meth:`MNASystem.evaluate` then runs one kernel per batch and one
``np.bincount`` per output into the pattern's data array, on top of the
linear base.  Every ``C(x)`` (and every ``G(x)``) shares the same
read-only ``indptr``/``indices`` arrays, which lets the implicit methods
form ``C/h + G`` on a precomputed union pattern
(:meth:`MNASystem.newton_jacobian`) and the symbolic-factorization cache
recognize the pattern by identity.  A fixed pattern may hold explicit
zeros (a level-1 MOSFET in cutoff has ``gm = 0``), so structural counts
use ``count_nonzero()``.  Newton limiting (:meth:`MNASystem.limit_step`)
runs on the same compiled index arrays.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.netlist import Circuit
from repro.circuit.devices.base import DeviceBatch
from repro.circuit.elements import CircuitElement, CouplingCapacitor
from repro.circuit.sources import Waveform

__all__ = ["MNASystem", "EvalResult", "StructureStats"]


@dataclass
class EvalResult:
    """Nonlinear evaluation of the circuit at a state ``x``.

    Attributes
    ----------
    C, G:
        Sparse CSC matrices ``dq/dx`` and ``df/dx`` at ``x``; for circuits
        with devices they sit on the system's fixed patterns (and may hold
        explicit zeros).
    f, q:
        Dense vectors ``f(x)`` and ``q(x)``.
    """

    C: sp.csc_matrix
    G: sp.csc_matrix
    f: np.ndarray
    q: np.ndarray


@dataclass
class StructureStats:
    """Structural statistics used in the paper's Table I and Fig. 1."""

    n: int
    num_nodes: int
    num_branches: int
    num_devices: int
    nnz_C: int
    nnz_G: int
    num_coupling_caps: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "#N": self.n,
            "#Dev": self.num_devices,
            "nnzC": self.nnz_C,
            "nnzG": self.nnz_G,
            "nodes": self.num_nodes,
            "branches": self.num_branches,
            "coupling_caps": self.num_coupling_caps,
        }


class _NodeLookup(dict):
    """``name -> MNASystem.node_index(name)``, memoized (ground aliases included)."""

    def __init__(self, system: "MNASystem", ground: int = -1):
        super().__init__(system._node_index)
        self._system = system
        self._ground = ground

    def __missing__(self, name: str) -> int:
        idx = self._system.node_index(name)
        self[name] = idx if idx >= 0 else self._ground
        return self[name]


class _LinearAssembler:
    """LinearStamper implementation that accumulates COO triplets."""

    def __init__(self, system: "MNASystem"):
        self._system = system
        self.node = _NodeLookup(system).__getitem__
        self.g_rows: List[int] = []
        self.g_cols: List[int] = []
        self.g_vals: List[float] = []
        self.c_rows: List[int] = []
        self.c_cols: List[int] = []
        self.c_vals: List[float] = []
        #: (row, waveform, scale) registrations, grouped into B columns later
        self.inputs: List[Tuple[int, Waveform, float]] = []

    def branch(self, element: CircuitElement) -> int:
        return self._system.branch_index(element)

    def add_G(self, i: int, j: int, value: float) -> None:
        if i < 0 or j < 0 or value == 0.0:
            return
        self.g_rows.append(i)
        self.g_cols.append(j)
        self.g_vals.append(value)

    def add_C(self, i: int, j: int, value: float) -> None:
        if i < 0 or j < 0 or value == 0.0:
            return
        self.c_rows.append(i)
        self.c_cols.append(j)
        self.c_vals.append(value)

    def add_input(self, i: int, waveform: Waveform, scale: float) -> None:
        if i < 0 or scale == 0.0:
            return
        self.inputs.append((i, waveform, scale))


@functools.lru_cache(maxsize=64)
def _empty_csc(shape: Tuple[int, int]) -> sp.csc_matrix:
    """An empty CSC matrix of ``shape``, the prototype of every pattern's matrices."""
    return sp.csc_matrix(shape)


class _Pattern:
    """A fixed CSC sparsity pattern whose matrices all share its index arrays.

    Built from a list of ``(row, col)`` positions, duplicates allowed;
    ``slots[k]`` is the data index of position ``k``, or ``nnz`` (a dump
    slot that :meth:`scatter` drops) when the position lies on the sink
    row or column -- the one just past the shape.
    """

    def __init__(self, shape: Tuple[int, int], rows: np.ndarray, cols: np.ndarray):
        self.shape = shape
        num_rows, num_cols = shape
        # positions on the sink get a key past every real one, hence slot nnz
        keys = np.where((rows < num_rows) & (cols < num_cols), cols * num_rows + rows,
                        num_rows * num_cols)
        ordered = np.sort(keys)
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        first[1:] = ordered[1:] != ordered[:-1]
        unique = ordered[first & (ordered < num_rows * num_cols)]
        self.nnz = len(unique)
        self.slots = np.searchsorted(unique, keys)
        self.cols = unique // num_rows
        self.indices = (unique % num_rows).astype(np.int32)
        self.indptr = np.searchsorted(self.cols, np.arange(num_cols + 1)).astype(np.int32)
        # read-only: a shared pattern must never be sorted or pruned in place
        self.indices.flags.writeable = False
        self.indptr.flags.writeable = False
        template = copy.copy(_empty_csc(shape))
        template.data = np.zeros(self.nnz)
        template.indices, template.indptr = self.indices, self.indptr
        template.has_sorted_indices = True
        template.has_canonical_format = True
        self._template = template

    def scatter(self, slots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum ``values`` into a data array of the pattern by their slots."""
        return np.bincount(slots, weights=values, minlength=self.nnz + 1)[:self.nnz]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """A CSC matrix on this pattern holding ``data``."""
        matrix = copy.copy(self._template)
        matrix.data = data
        return matrix

    def coordinates(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every entry, in data order."""
        return self.indices.astype(np.int64), self.cols


class MNASystem:
    """Sparse modified nodal analysis view of a :class:`Circuit`."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._node_index: Dict[str, int] = {
            name: i for i, name in enumerate(circuit.node_names)
        }
        branch_elements = [el for el in circuit.elements if el.needs_branch_current]
        self._branch_elements = branch_elements
        self._branch_index: Dict[int, int] = {
            id(el): circuit.num_nodes + k for k, el in enumerate(branch_elements)
        }
        self._branch_by_name: Dict[str, int] = {
            el.name: circuit.num_nodes + k for k, el in enumerate(branch_elements)
        }
        self.num_nodes = circuit.num_nodes
        self.num_branches = len(branch_elements)
        self.n = self.num_nodes + self.num_branches
        if self.n == 0:
            raise ValueError(f"circuit {circuit.title!r} has no unknowns")

        self._assemble_linear()

    # -- index resolution -----------------------------------------------------------

    def node_index(self, name: str) -> int:
        """Return the unknown index of node ``name``; -1 for ground."""
        idx = self._node_index.get(name)
        if idx is not None:
            return idx
        if Circuit.is_ground(name):
            return -1
        raise KeyError(f"unknown node {name!r} in circuit {self.circuit.title!r}")

    def branch_index(self, element: CircuitElement) -> int:
        """Return the branch-current unknown index of ``element``."""
        try:
            return self._branch_index[id(element)]
        except KeyError:
            raise KeyError(
                f"element {element.name!r} does not carry a branch current"
            ) from None

    def branch_index_by_name(self, name: str) -> int:
        try:
            return self._branch_by_name[name]
        except KeyError:
            raise KeyError(f"no branch-current unknown for element {name!r}") from None

    # -- linear assembly --------------------------------------------------------------

    def _assemble_linear(self) -> None:
        asm = _LinearAssembler(self)
        for el in self.circuit.elements:
            el.stamp(asm)

        n = self.n
        self._has_nonlinear = bool(self.circuit.devices)
        self._batches: List[DeviceBatch] = []
        if self._has_nonlinear:
            self._compile_devices(asm)
        else:
            self.G_lin = sp.coo_matrix(
                (asm.g_vals, (asm.g_rows, asm.g_cols)), shape=(n, n)
            ).tocsc()
            self.C_lin = sp.coo_matrix(
                (asm.c_vals, (asm.c_rows, asm.c_cols)), shape=(n, n)
            ).tocsc()
            self.G_lin.sum_duplicates()
            self.C_lin.sum_duplicates()

        # Group input registrations into one B column per independent source
        # (identified by its waveform object).
        columns: Dict[int, int] = {}
        self._waveforms: List[Waveform] = []
        b_rows: List[int] = []
        b_cols: List[int] = []
        b_vals: List[float] = []
        for row, waveform, scale in asm.inputs:
            key = id(waveform)
            if key not in columns:
                columns[key] = len(self._waveforms)
                self._waveforms.append(waveform)
            b_rows.append(row)
            b_cols.append(columns[key])
            b_vals.append(scale)
        self.num_inputs = len(self._waveforms)
        b_pattern = _Pattern((n, max(self.num_inputs, 1)), np.array(b_rows, dtype=np.int64),
                             np.array(b_cols, dtype=np.int64))
        self.B = b_pattern.matrix(b_pattern.scatter(b_pattern.slots, np.array(b_vals)))

    def _compile_devices(self, asm: _LinearAssembler) -> None:
        """Compile the devices into batches and the fixed ``C``/``G`` patterns.

        The linear COO goes straight into the patterns: ``G_lin`` and
        ``C_lin`` sit on them (zero where only devices stamp), and the
        base of ``C`` adds the constant device capacitances.
        """
        n = self.n
        sink = n
        index = _NodeLookup(self, ground=sink).__getitem__
        groups: Dict[tuple, list] = {}
        for dev in self.circuit.devices:
            groups.setdefault(dev.batch_key(), []).append(dev)
        self._batches = [type(devs[0]).compile_batch(devs, index, sink)
                         for devs in groups.values()]

        def stacked(name: str) -> np.ndarray:
            return np.concatenate([getattr(batch, name) for batch in self._batches])

        self._f_rows = stacked("f_rows")
        self._q_rows = stacked("q_rows")

        g_lin = len(asm.g_rows)
        self._G = _Pattern(
            (n, n),
            np.concatenate([np.array(asm.g_rows, dtype=np.int64), stacked("g_rows")]),
            np.concatenate([np.array(asm.g_cols, dtype=np.int64), stacked("g_cols")]))
        self._g_slots = self._G.slots[g_lin:]
        self.G_lin = self._G.matrix(self._G.scatter(self._G.slots[:g_lin], np.array(asm.g_vals)))

        const_rows, const_cols, const_vals = (
            np.concatenate(part) for part in zip(*(b.const_c for b in self._batches)))
        const_rows = np.where(const_vals != 0.0, const_rows, sink)  # a zero stamps nothing
        c_lin = len(asm.c_rows)
        c_base = c_lin + len(const_vals)
        self._C = _Pattern(
            (n, n),
            np.concatenate([np.array(asm.c_rows, dtype=np.int64), const_rows,
                            stacked("c_rows")]),
            np.concatenate([np.array(asm.c_cols, dtype=np.int64), const_cols,
                            stacked("c_cols")]))
        base_slots, self._c_slots = self._C.slots[:c_base], self._C.slots[c_base:]
        c_vals = np.concatenate([np.array(asm.c_vals), const_vals])
        self.C_lin = self._C.matrix(self._C.scatter(base_slots[:c_lin], c_vals[:c_lin]))
        self._C_base = self._C.matrix(self._C.scatter(base_slots, c_vals))
        #: the union pattern of ``C/h + G``, built on first use
        self._J: Optional[_Pattern] = None

    # -- excitation -------------------------------------------------------------------

    @property
    def waveforms(self) -> List[Waveform]:
        return list(self._waveforms)

    def input_vector(self, t: float) -> np.ndarray:
        """Return ``u(t)`` (one entry per independent source)."""
        if self.num_inputs == 0:
            return np.zeros(1)
        return np.array([w.value(t) for w in self._waveforms])

    def input_slope(self, t: float) -> np.ndarray:
        """Return ``du/dt`` at time ``t``."""
        if self.num_inputs == 0:
            return np.zeros(1)
        return np.array([w.slope(t) for w in self._waveforms])

    def source_vector(self, t: float) -> np.ndarray:
        """Return the dense RHS excitation ``B u(t)``."""
        return np.asarray(self.B @ self.input_vector(t)).ravel()

    def source_difference(self, t0: float, t1: float) -> np.ndarray:
        """Return ``B (u(t1) - u(t0))`` -- the numerator of Eq. (13)."""
        du = self.input_vector(t1) - self.input_vector(t0)
        return np.asarray(self.B @ du).ravel()

    def source_slope(self, t0: float, t1: float) -> np.ndarray:
        """Return the Eq. (13) excitation slope ``B du/dt`` for ``[t0, t1]``.

        Piecewise-linear waveforms (PWL, PULSE, DC) contribute their exact
        analytic segment slope -- a constant, bit-identical value for every
        step inside one segment, which the ER integrator relies on to
        reuse its slope Krylov basis across steps.  It is evaluated at the
        step *midpoint*: the time loop can land ``t0`` one ulp before a
        breakpoint it has already popped (the step then lies wholly in the
        next segment), so the left edge is the one point of the step whose
        segment classification is unreliable; the midpoint is always a
        half-step away from both boundaries.  Smooth waveforms (SIN, EXP)
        contribute the secant ``(u(t1) - u(t0)) / (t1 - t0)``, the correct
        piecewise-linear model of Eq. (13) over a finite step; the two
        coincide (up to rounding) for PWL inputs because the time loop
        never steps across a breakpoint by more than rounding.
        """
        if self.num_inputs == 0:
            return np.asarray(self.B @ np.zeros(1)).ravel()
        h = t1 - t0
        mid = 0.5 * (t0 + t1)
        du = np.array([
            w.slope(mid) if w.is_piecewise_linear
            else (w.value(t1) - w.value(t0)) / h
            for w in self._waveforms
        ])
        return np.asarray(self.B @ du).ravel()

    def breakpoints(self, t_end: float) -> List[float]:
        """Sorted source breakpoints in ``(0, t_end)`` (see Eq. 13 discussion)."""
        pts: set = set()
        for w in self._waveforms:
            pts.update(w.breakpoints(t_end))
        return sorted(p for p in pts if 0.0 < p < t_end)

    # -- nonlinear evaluation ------------------------------------------------------------

    @property
    def has_nonlinear(self) -> bool:
        return self._has_nonlinear

    def evaluate(self, x: np.ndarray) -> EvalResult:
        """Evaluate ``C(x), G(x), f(x), q(x)`` at the state ``x``."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state vector must have shape ({self.n},), got {x.shape}")

        f = np.asarray(self.G_lin @ x).ravel()
        if not self._has_nonlinear:
            q = np.asarray(self.C_lin @ x).ravel()
            return EvalResult(C=self.C_lin, G=self.G_lin, f=f, q=q)

        xe = np.append(x, 0.0)  # the ground sink
        values = [batch.evaluate(xe) for batch in self._batches]
        if len(values) == 1:
            f_vals, q_vals, g_vals, c_vals = values[0]
        else:
            f_vals, q_vals, g_vals, c_vals = (np.concatenate(part) for part in zip(*values))
        n = self.n
        f += np.bincount(self._f_rows, weights=f_vals, minlength=n + 1)[:n]
        q = np.asarray(self._C_base @ x).ravel()
        q += np.bincount(self._q_rows, weights=q_vals, minlength=n + 1)[:n]
        return EvalResult(
            C=self._C.matrix(self._C_base.data + self._C.scatter(self._c_slots, c_vals)),
            G=self._G.matrix(self.G_lin.data + self._G.scatter(self._g_slots, g_vals)),
            f=f,
            q=q,
        )

    def limit_step(self, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
        """Return ``x_new`` with the devices' Newton limiting applied.

        Batches apply their limiting in the order their device classes
        first appear in the netlist: MOSFET fetlim clamps each gate/drain
        node by the smallest bound of any device on it, diode pnjlim acts
        on the anodes.
        """
        limited = np.array(x_new, dtype=float, copy=True)
        for batch in self._batches:
            batch.limit(limited, x_old)
        return limited

    def newton_jacobian(self, ev: EvalResult, h: float, c_scale: float = 1.0,
                        g_scale: float = 1.0) -> sp.csc_matrix:
        """Return ``(c_scale * C) / h + g_scale * G`` -- an implicit method's Jacobian.

        When ``ev`` sits on the fixed patterns the sum is formed on their
        precomputed union by slot maps, with the same floating-point
        operations as the sparse-matrix expression; otherwise (linear
        circuits, a gshunt-modified ``G``) the expression itself is used.
        """
        C, G = ev.C, ev.G
        if not (self._has_nonlinear and C.indices is self._C.indices
                and G.indices is self._G.indices):
            # unit scales are skipped: each sparse product is a full copy
            c_part = C / h if c_scale == 1.0 else (c_scale * C) / h
            return (c_part + (G if g_scale == 1.0 else g_scale * G)).tocsc()
        if self._J is None:
            c_rows, c_cols = self._C.coordinates()
            g_rows, g_cols = self._G.coordinates()
            self._J = _Pattern((self.n, self.n), np.concatenate([c_rows, g_rows]),
                               np.concatenate([c_cols, g_cols]))
        c_slots, g_slots = self._J.slots[:self._C.nnz], self._J.slots[self._C.nnz:]
        data = np.zeros(self._J.nnz)
        data[c_slots] = C.data * c_scale * (1.0 / h)
        data[g_slots] += G.data * g_scale
        return self._J.matrix(data)

    # -- solution access -----------------------------------------------------------------

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Return the voltage of ``node`` in the solution vector ``x``."""
        idx = self.node_index(node)
        return 0.0 if idx < 0 else float(x[idx])

    def branch_current(self, x: np.ndarray, element_name: str) -> float:
        """Return the branch current of a voltage source / inductor by name."""
        return float(x[self.branch_index_by_name(element_name)])

    def initial_state(self) -> np.ndarray:
        """Return a state vector seeded from the circuit's ``.ic`` entries."""
        x0 = np.zeros(self.n)
        for node, value in self.circuit.initial_conditions.items():
            idx = self.node_index(node)
            if idx >= 0:
                x0[idx] = value
        return x0

    # -- statistics ----------------------------------------------------------------------

    def structure_stats(self, x: Optional[np.ndarray] = None) -> StructureStats:
        """Return the structural counters reported in Table I.

        When ``x`` is given the nonlinear devices are evaluated there so the
        reported ``nnz`` include device Jacobian fill; otherwise the linear
        matrices are reported.  Only true nonzeros count: the fixed
        patterns keep explicit zeros (the device slots of ``G_lin``, ``gm``
        of a MOSFET in cutoff) that are not part of the structure at ``x``.
        """
        if x is None:
            C, G = self.C_lin, self.G_lin
        else:
            ev = self.evaluate(x)
            C, G = ev.C, ev.G
        coupling = sum(
            1 for el in self.circuit.elements if isinstance(el, CouplingCapacitor)
        )
        return StructureStats(
            n=self.n,
            num_nodes=self.num_nodes,
            num_branches=self.num_branches,
            num_devices=self.circuit.num_devices,
            nnz_C=int(C.count_nonzero()),
            nnz_G=int(G.count_nonzero()),
            num_coupling_caps=coupling,
        )

    def __repr__(self) -> str:
        return (
            f"MNASystem(n={self.n}, nodes={self.num_nodes}, branches={self.num_branches}, "
            f"inputs={self.num_inputs}, nonlinear={self._has_nonlinear})"
        )

"""Base classes for nonlinear devices.

A nonlinear device contributes, at an operating point ``x``:

* static (resistive) currents into ``f(x)``;
* the Jacobian of those currents ``df/dx`` into ``G(x)``;
* stored charges into ``q(x)``;
* the Jacobian of those charges ``dq/dx`` into ``C(x)``.

Devices receive a :class:`NonlinearStamper` that resolves node names to
solution entries and accumulates the four kinds of stamps; ground nodes
are silently dropped by the stamper.

Consistency requirement: the stamped Jacobians must be the exact
derivatives of the stamped currents/charges.  Both the Newton-Raphson
loop of the BENR baseline and the nonlinear error estimator of the
exponential Rosenbrock-Euler integrator (Eq. 15 of the paper) rely on
this; the unit tests check it by finite differences.

For evaluation inside a circuit the devices are *compiled*: when
:class:`repro.circuit.mna.MNASystem` is built it groups the devices by
:meth:`NonlinearDevice.batch_key` and asks each group's class for a
:class:`DeviceBatch` (:meth:`NonlinearDevice.compile_batch`), which
evaluates all instances of the group at once.  The built-in diode and
MOSFET provide vectorized numpy kernels; any other device falls back to
:class:`ScalarBatch`, which runs its scalar :meth:`stamp_nonlinear` into
the same fixed slots, so custom devices need nothing beyond the scalar
stamping method.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Protocol, Sequence, Tuple

import numpy as np

__all__ = ["NonlinearStamper", "NonlinearDevice", "DeviceBatch", "ScalarBatch"]

#: maps a node name to its unknown index, with ground mapped to the sink ``n``
NodeIndexer = Callable[[str], int]


class NonlinearStamper(Protocol):
    """Interface handed to devices during a nonlinear evaluation."""

    def voltage(self, node: str) -> float:
        """Return the voltage of ``node`` at the current solution (0 for ground)."""

    def add_current(self, node: str, value: float) -> None:
        """Add ``value`` to the static current ``f`` at ``node`` (current leaving)."""

    def add_jacobian(self, row: str, col: str, value: float) -> None:
        """Add ``value`` to ``G[row, col] = d f_row / d v_col``."""

    def add_charge(self, node: str, value: float) -> None:
        """Add ``value`` to the stored charge ``q`` at ``node``."""

    def add_capacitance(self, row: str, col: str, value: float) -> None:
        """Add ``value`` to ``C[row, col] = d q_row / d v_col``."""


class NonlinearDevice(ABC):
    """Base class for all nonlinear devices."""

    def __init__(self, name: str, nodes: Sequence[str]):
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)

    @abstractmethod
    def stamp_nonlinear(self, st: NonlinearStamper) -> None:
        """Evaluate the device at the stamper's operating point and stamp it."""

    def batch_key(self) -> tuple:
        """Devices with equal keys are compiled into one :class:`DeviceBatch`."""
        return (type(self),)

    @classmethod
    def compile_batch(cls, devices: Sequence["NonlinearDevice"],
                      index: NodeIndexer, sink: int) -> "DeviceBatch":
        """Compile ``devices`` (all sharing one batch key) for evaluation.

        The default runs each device's scalar :meth:`stamp_nonlinear`;
        classes with a vectorized kernel override this.
        """
        return ScalarBatch(devices, index, sink)

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """Limit a controlling voltage update for Newton robustness.

        The default implementation performs no limiting.  Devices with
        exponential characteristics (diodes, MOSFET bulk junctions)
        override this to implement SPICE-style junction limiting, which
        the Newton solver applies between iterations.
        """
        del name, v_old
        return v_new

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class DeviceBatch:
    """Compiled evaluation of a group of devices of one class.

    A batch is built once per :class:`~repro.circuit.mna.MNASystem`.  Its
    terminals are indices into the *extended* state ``xe``: the ``n``
    unknowns followed by one 0-volt entry at index ``sink == n`` that
    stands in for ground.  Kernels gather terminal voltages by plain
    fancy indexing, and whatever they stamp on the sink row or column is
    discarded by the scatter.

    Contract: the position arrays below are fixed at construction and
    :meth:`evaluate` returns value arrays aligned with them, holding the
    exact derivatives of the returned currents and charges.  Positions may
    repeat (their values add up).  Capacitances that do not depend on the
    state go into ``const_c`` instead; the system folds them into its
    linear ``C`` once, and their charges follow as ``C x``.
    """

    #: rows of the currents ``f`` and charges ``q`` returned by evaluate
    f_rows: np.ndarray
    q_rows: np.ndarray
    #: ``(row, col)`` positions of the returned ``G`` and ``C`` values
    g_rows: np.ndarray
    g_cols: np.ndarray
    c_rows: np.ndarray
    c_cols: np.ndarray
    #: ``(rows, cols, values)`` of state-independent capacitances
    const_c: Tuple[np.ndarray, np.ndarray, np.ndarray] = (
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))

    def evaluate(self, xe: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return the ``(f, q, G, C)`` values at the extended state ``xe``."""
        raise NotImplementedError

    def limit(self, x_new: np.ndarray, x_old: np.ndarray) -> None:
        """Apply the devices' Newton limiting to ``x_new`` in place."""


class _SlotStamper:
    """NonlinearStamper writing one device's stamps into its batch slots."""

    def __init__(self, local: Dict[str, int], volts: np.ndarray, f: np.ndarray,
                 q: np.ndarray, g: np.ndarray, c: np.ndarray):
        self._local = local
        self._volts = volts
        self._k = len(volts)
        self._f, self._q, self._g, self._c = f, q, g, c

    def _at(self, node: str) -> int:
        try:
            return self._local[node]
        except KeyError:
            raise KeyError(f"device stamped node {node!r} outside its terminals") from None

    def voltage(self, node: str) -> float:
        return float(self._volts[self._at(node)])

    def add_current(self, node: str, value: float) -> None:
        self._f[self._at(node)] += value

    def add_jacobian(self, row: str, col: str, value: float) -> None:
        self._g[self._at(row) * self._k + self._at(col)] += value

    def add_charge(self, node: str, value: float) -> None:
        self._q[self._at(node)] += value

    def add_capacitance(self, row: str, col: str, value: float) -> None:
        self._c[self._at(row) * self._k + self._at(col)] += value


class ScalarBatch(DeviceBatch):
    """Default kernel: every device's scalar ``stamp_nonlinear`` in a loop.

    Each device owns the full terminal-by-terminal block of ``G`` and
    ``C`` positions, so whatever it stamps lands in a slot known when the
    batch is compiled.
    """

    def __init__(self, devices: Sequence[NonlinearDevice], index: NodeIndexer, sink: int):
        #: per device: local node map, its global terminals and slot offsets
        self._layout: List[Tuple[NonlinearDevice, Dict[str, int], np.ndarray, int, int]] = []
        rows: List[int] = []
        g_rows: List[int] = []
        g_cols: List[int] = []
        #: (device, node name, unknown index) triples for Newton limiting
        self._limited: List[Tuple[NonlinearDevice, str, int]] = []
        for dev in devices:
            names = list(dict.fromkeys(dev.nodes))
            terminals = np.array([index(name) for name in names], dtype=np.int64)
            self._layout.append((dev, {name: k for k, name in enumerate(names)},
                                 terminals, len(rows), len(g_rows)))
            rows.extend(terminals.tolist())
            g_rows.extend(np.repeat(terminals, len(names)).tolist())
            g_cols.extend(np.tile(terminals, len(names)).tolist())
            if type(dev).limit_voltage is not NonlinearDevice.limit_voltage:
                self._limited.extend((dev, node, index(node)) for node in dev.nodes
                                     if index(node) != sink)
        self.f_rows = self.q_rows = np.array(rows, dtype=np.int64)
        self.g_rows = self.c_rows = np.array(g_rows, dtype=np.int64)
        self.g_cols = self.c_cols = np.array(g_cols, dtype=np.int64)

    def evaluate(self, xe):
        f = np.zeros(len(self.f_rows))
        q = np.zeros(len(self.q_rows))
        g = np.zeros(len(self.g_rows))
        c = np.zeros(len(self.c_rows))
        for dev, local, terminals, row, slot in self._layout:
            k = len(terminals)
            dev.stamp_nonlinear(_SlotStamper(
                local, xe[terminals], f[row:row + k], q[row:row + k],
                g[slot:slot + k * k], c[slot:slot + k * k]))
        return f, q, g, c

    def limit(self, x_new, x_old):
        for dev, node, idx in self._limited:
            x_new[idx] = dev.limit_voltage(node, x_new[idx], float(x_old[idx]))


def fd_check_stamps(device: NonlinearDevice, voltages: dict, rel_step: float = 1e-7):
    """Return (analytic_G, numeric_G, analytic_C, numeric_C) as dict-of-dicts.

    Test helper: evaluates ``device`` at ``voltages`` (node name -> volts),
    collects the stamped Jacobians and compares them against central
    finite differences of the stamped currents/charges.  Exposed here so
    both the unit tests and downstream users adding custom devices can
    reuse it.
    """
    from collections import defaultdict

    class _Collector:
        def __init__(self, volts):
            self.volts = dict(volts)
            self.f = defaultdict(float)
            self.q = defaultdict(float)
            self.G = defaultdict(float)
            self.C = defaultdict(float)

        def voltage(self, node):
            return self.volts.get(node, 0.0)

        def add_current(self, node, value):
            self.f[node] += value

        def add_jacobian(self, row, col, value):
            self.G[(row, col)] += value

        def add_charge(self, node, value):
            self.q[node] += value

        def add_capacitance(self, row, col, value):
            self.C[(row, col)] += value

    base = _Collector(voltages)
    device.stamp_nonlinear(base)

    numeric_G = defaultdict(float)
    numeric_C = defaultdict(float)
    for col in device.nodes:
        v0 = voltages.get(col, 0.0)
        h = rel_step * max(1.0, abs(v0))
        plus = _Collector({**voltages, col: v0 + h})
        minus = _Collector({**voltages, col: v0 - h})
        device.stamp_nonlinear(plus)
        device.stamp_nonlinear(minus)
        rows = set(plus.f) | set(minus.f) | set(plus.q) | set(minus.q)
        for row in rows:
            numeric_G[(row, col)] = (plus.f[row] - minus.f[row]) / (2 * h)
            numeric_C[(row, col)] = (plus.q[row] - minus.q[row]) / (2 * h)

    return dict(base.G), dict(numeric_G), dict(base.C), dict(numeric_C)

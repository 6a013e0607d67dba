"""Scalar reference for the compiled device evaluation (test oracle).

:class:`ScalarAssembler` is the per-instance stamper ``MNASystem`` used
before devices were compiled: every device's ``stamp_nonlinear`` resolves
its node names one at a time and the stamps are summed into fresh sparse
matrices.  :func:`scalar_evaluate` and :func:`scalar_limit` reproduce the
old ``MNASystem.evaluate`` and Newton limiting loop on top of it, so the
tests can check the compiled kernels against them.
"""

from __future__ import annotations

from typing import List

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import EvalResult, MNASystem


class ScalarAssembler:
    """NonlinearStamper accumulating every device's stamps one by one."""

    def __init__(self, system: MNASystem, x: np.ndarray):
        self._system = system
        self._x = x
        n = system.n
        self.f = np.zeros(n)
        self.q = np.zeros(n)
        self.g_rows: List[int] = []
        self.g_cols: List[int] = []
        self.g_vals: List[float] = []
        self.c_rows: List[int] = []
        self.c_cols: List[int] = []
        self.c_vals: List[float] = []

    def voltage(self, node: str) -> float:
        idx = self._system.node_index(node)
        return 0.0 if idx < 0 else float(self._x[idx])

    def add_current(self, node: str, value: float) -> None:
        idx = self._system.node_index(node)
        if idx >= 0:
            self.f[idx] += value

    def add_jacobian(self, row: str, col: str, value: float) -> None:
        i = self._system.node_index(row)
        j = self._system.node_index(col)
        if i >= 0 and j >= 0 and value != 0.0:
            self.g_rows.append(i)
            self.g_cols.append(j)
            self.g_vals.append(value)

    def add_charge(self, node: str, value: float) -> None:
        idx = self._system.node_index(node)
        if idx >= 0:
            self.q[idx] += value

    def add_capacitance(self, row: str, col: str, value: float) -> None:
        i = self._system.node_index(row)
        j = self._system.node_index(col)
        if i >= 0 and j >= 0 and value != 0.0:
            self.c_rows.append(i)
            self.c_cols.append(j)
            self.c_vals.append(value)


def scalar_evaluate(mna: MNASystem, x: np.ndarray) -> EvalResult:
    """``C(x), G(x), f(x), q(x)`` stamped device by device."""
    x = np.asarray(x, dtype=float)
    asm = ScalarAssembler(mna, x)
    for dev in mna.circuit.devices:
        dev.stamp_nonlinear(asm)
    n = mna.n
    G_nl = sp.coo_matrix((asm.g_vals, (asm.g_rows, asm.g_cols)), shape=(n, n)).tocsc()
    C_nl = sp.coo_matrix((asm.c_vals, (asm.c_rows, asm.c_cols)), shape=(n, n)).tocsc()
    return EvalResult(
        C=(mna.C_lin + C_nl).tocsc(),
        G=(mna.G_lin + G_nl).tocsc(),
        f=np.asarray(mna.G_lin @ x).ravel() + asm.f,
        q=np.asarray(mna.C_lin @ x).ravel() + asm.q,
    )


def scalar_limit(mna: MNASystem, x_new: np.ndarray, x_old: np.ndarray) -> np.ndarray:
    """Newton limiting applied device by device, node by node."""
    limited = np.array(x_new, dtype=float, copy=True)
    for device in mna.circuit.devices:
        for node in device.nodes:
            idx = mna.node_index(node)
            if idx < 0:
                continue
            limited[idx] = device.limit_voltage(node, limited[idx], float(x_old[idx]))
    return limited

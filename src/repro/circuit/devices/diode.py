"""Junction diode model.

Static current follows the Shockley equation with a series-free ideal
junction; the exponential is linearized above a critical voltage so the
model never overflows and stays C1-continuous (the same device-level
safeguard SPICE uses in combination with junction limiting).

Charge storage combines a depletion (junction) capacitance with standard
forward-bias linearization above ``fc * vj`` and a diffusion charge
``tt * I(v)``; the stamped capacitance is the exact derivative of the
stamped charge.

:class:`DiodeBatch` is the compiled form used inside a circuit: the same
model evaluated for every diode at once with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuit.devices.base import DeviceBatch, NodeIndexer, NonlinearDevice, NonlinearStamper

__all__ = ["DiodeModel", "Diode", "DiodeBatch", "JunctionCharge", "pnjlim"]

#: Boltzmann constant times 300K over the electron charge (thermal voltage).
THERMAL_VOLTAGE = 0.02585


@dataclass
class DiodeModel:
    """Diode .model parameters (SPICE-compatible subset)."""

    name: str = "D"
    #: saturation current [A]
    isat: float = 1e-14
    #: emission coefficient
    n: float = 1.0
    #: transit time (diffusion charge) [s]
    tt: float = 0.0
    #: zero-bias junction capacitance [F]
    cj0: float = 0.0
    #: junction potential [V]
    vj: float = 1.0
    #: grading coefficient
    m: float = 0.5
    #: forward-bias depletion capacitance coefficient
    fc: float = 0.5
    #: minimum parallel conductance for numerical robustness [S]
    gmin: float = 1e-12

    def __post_init__(self):
        if self.isat <= 0:
            raise ValueError("diode saturation current must be positive")
        if self.n <= 0:
            raise ValueError("diode emission coefficient must be positive")
        if not (0.0 < self.fc < 1.0):
            raise ValueError("diode fc must lie in (0, 1)")

    @property
    def vte(self) -> float:
        """Effective thermal voltage ``n * kT/q``."""
        return self.n * THERMAL_VOLTAGE

    @property
    def v_crit(self) -> float:
        """Critical voltage for junction limiting (SPICE pnjlim)."""
        return self.vte * math.log(self.vte / (math.sqrt(2.0) * self.isat))


def pnjlim(v_new: float, v_old: float, vte: float, v_crit: float) -> float:
    """SPICE pnjlim: limit the junction-voltage update ``v_old -> v_new``."""
    if v_new <= v_crit or abs(v_new - v_old) <= 2.0 * vte:
        return v_new
    if v_old > 0.0:
        arg = 1.0 + (v_new - v_old) / vte
        if arg > 0.0:
            return v_old + vte * math.log(arg)
        return v_crit
    return vte * math.log(v_new / vte) if v_new > 0.0 else v_crit


class JunctionCharge:
    """Depletion charge and capacitance of many junctions at once.

    The vectorized form of the depletion branch of
    :meth:`Diode.charge_and_capacitance` (and of the MOSFET bulk-junction
    helper), built from one ``(cj0, vj, m, fc)`` tuple per junction; the
    forward-bias linearization constants are computed once, with the
    scalar model's own expressions.
    """

    def __init__(self, params: Sequence[Tuple[float, float, float, float]]):
        table = [(cj0, vj, m, fc * vj, -m, 1.0 - m, cj0 * vj / (1.0 - m), 0.5 * m / vj,
                  vj / (1.0 - m) * (1.0 - (1.0 - fc) ** (1.0 - m)),
                  (1.0 - fc) ** (1.0 + m), 1.0 - fc * (1.0 + m))
                 for cj0, vj, m, fc in params]
        columns = np.array(table, dtype=float).reshape(-1, 11).T.copy()
        (self.cj0, self.vj, self.m, self.fcv, self.neg_m, self.one_minus_m, self.q_scale,
         self.half_m_vj, self.f1, self.f2, self.f3) = columns

    def charge_and_capacitance(self, v: np.ndarray):
        """Return ``(Q, dQ/dV)`` arrays at the junction voltages ``v``."""
        reverse = v < self.fcv
        arg = 1.0 - v / self.vj
        if reverse.all():  # the common case: skip the forward extension
            return (self.q_scale * (1.0 - arg ** self.one_minus_m),
                    self.cj0 * arg ** self.neg_m)
        arg = np.where(reverse, arg, 1.0)
        q_rev = self.q_scale * (1.0 - arg ** self.one_minus_m)
        c_rev = self.cj0 * arg ** self.neg_m
        dv = v - self.fcv
        q_fwd = self.cj0 * (self.f1 + (self.f3 * dv + self.half_m_vj * dv * dv) / self.f2)
        c_fwd = self.cj0 * (self.f3 + self.m * dv / self.vj) / self.f2
        return np.where(reverse, q_rev, q_fwd), np.where(reverse, c_rev, c_fwd)


class Diode(NonlinearDevice):
    """Two-terminal junction diode between ``anode`` and ``cathode``."""

    #: exponent above which the I-V curve is linearized to avoid overflow
    _EXP_CLIP = 80.0

    def __init__(self, name: str, anode: str, cathode: str, model: DiodeModel | None = None,
                 area: float = 1.0):
        super().__init__(name, (anode, cathode))
        self.model = model if model is not None else DiodeModel()
        if area <= 0:
            raise ValueError(f"Diode {name}: area must be positive")
        self.area = float(area)

    # -- static characteristic -------------------------------------------------

    def current_and_conductance(self, vd: float) -> tuple:
        """Return ``(I, dI/dV)`` of the junction at voltage ``vd``."""
        mdl = self.model
        isat = mdl.isat * self.area
        vte = mdl.vte
        arg = vd / vte
        if arg > self._EXP_CLIP:
            # Linearize beyond the clip point to keep the model finite and C1.
            e = math.exp(self._EXP_CLIP)
            i = isat * (e * (1.0 + (arg - self._EXP_CLIP)) - 1.0)
            g = isat * e / vte
        else:
            e = math.exp(arg)
            i = isat * (e - 1.0)
            g = isat * e / vte
        i += mdl.gmin * vd
        g += mdl.gmin
        return i, g

    # -- charge storage ---------------------------------------------------------

    def charge_and_capacitance(self, vd: float) -> tuple:
        """Return ``(Q, dQ/dV)`` of the junction at voltage ``vd``."""
        mdl = self.model
        cj0 = mdl.cj0 * self.area
        q = 0.0
        c = 0.0
        if cj0 > 0.0:
            fcv = mdl.fc * mdl.vj
            if vd < fcv:
                # depletion region: q = cj0*vj/(1-m) * (1 - (1 - v/vj)^(1-m))
                arg = 1.0 - vd / mdl.vj
                q += cj0 * mdl.vj / (1.0 - mdl.m) * (1.0 - arg ** (1.0 - mdl.m))
                c += cj0 * arg ** (-mdl.m)
            else:
                # forward bias: linearized extension, C1-continuous at fc*vj
                f1 = mdl.vj / (1.0 - mdl.m) * (1.0 - (1.0 - mdl.fc) ** (1.0 - mdl.m))
                f2 = (1.0 - mdl.fc) ** (1.0 + mdl.m)
                f3 = 1.0 - mdl.fc * (1.0 + mdl.m)
                dv = vd - fcv
                q += cj0 * (f1 + (f3 * dv + 0.5 * mdl.m / mdl.vj * dv * dv) / f2)
                c += cj0 * (f3 + mdl.m * dv / mdl.vj) / f2
        if mdl.tt > 0.0:
            i, g = self.current_and_conductance(vd)
            q += mdl.tt * i
            c += mdl.tt * g
        return q, c

    # -- stamping ---------------------------------------------------------------

    def stamp_nonlinear(self, st: NonlinearStamper) -> None:
        a, c = self.nodes
        vd = st.voltage(a) - st.voltage(c)

        i, g = self.current_and_conductance(vd)
        st.add_current(a, i)
        st.add_current(c, -i)
        st.add_jacobian(a, a, g)
        st.add_jacobian(a, c, -g)
        st.add_jacobian(c, a, -g)
        st.add_jacobian(c, c, g)

        q, cap = self.charge_and_capacitance(vd)
        if q != 0.0 or cap != 0.0:
            st.add_charge(a, q)
            st.add_charge(c, -q)
            st.add_capacitance(a, a, cap)
            st.add_capacitance(a, c, -cap)
            st.add_capacitance(c, a, -cap)
            st.add_capacitance(c, c, cap)

    # -- Newton helpers ----------------------------------------------------------

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """SPICE pnjlim junction-voltage limiting for the anode node."""
        if name != self.nodes[0]:
            return v_new
        return pnjlim(v_new, v_old, self.model.vte, self.model.v_crit)

    # -- compiled evaluation -------------------------------------------------------

    @classmethod
    def compile_batch(cls, devices, index, sink):
        return DiodeBatch(devices, index, sink)


class DiodeBatch(DeviceBatch):
    """All diodes of a circuit evaluated as one numpy kernel."""

    def __init__(self, devices: Sequence[Diode], index: NodeIndexer, sink: int):
        self.clip = type(devices[0])._EXP_CLIP
        a = np.array([index(dev.nodes[0]) for dev in devices], dtype=np.int64)
        c = np.array([index(dev.nodes[1]) for dev in devices], dtype=np.int64)
        self.a, self.c = a, c
        models = [(dev.model, dev.area) for dev in devices]
        (self.isat, self.vte, v_crit, self.gmin, self.tt, cj0) = np.array(
            [(mdl.isat * area, mdl.vte, mdl.v_crit, mdl.gmin, mdl.tt, mdl.cj0 * area)
             for mdl, area in models]).T.copy()
        self.has_depletion = cj0 > 0.0
        self.junction = JunctionCharge([(mdl.cj0 * area, mdl.vj, mdl.m, mdl.fc)
                                        for mdl, area in models])

        self.f_rows = self.q_rows = np.concatenate([a, c])
        self.g_rows = np.concatenate([a, a, c, c])
        self.g_cols = np.concatenate([a, c, a, c])
        # diodes without charge storage stamp no C: their slots go to the sink
        stores = self.has_depletion | (self.tt > 0.0)
        self.c_rows = np.where(np.tile(stores, 4), self.g_rows, sink)
        self.c_cols = self.g_cols

        # pnjlim acts on the anode; a node that is the anode of several
        # diodes is limited once per diode in circuit order, so the entries
        # are split into layers holding each node at most once
        layers: List[List[int]] = []
        depth: Dict[int, int] = {}
        for k, anode in enumerate(a.tolist()):
            if anode != sink:
                layer = depth.get(anode, 0)
                depth[anode] = layer + 1
                if layer == len(layers):
                    layers.append([])
                layers[layer].append(k)
        self._limit_layers = [(a[ks], self.vte[ks], v_crit[ks]) for ks in map(np.array, layers)]

    def evaluate(self, xe):
        vd = xe[self.a] - xe[self.c]
        isat, vte, clip = self.isat, self.vte, self.clip
        arg = vd / vte
        e = np.exp(np.minimum(arg, clip))
        # linearized beyond the clip point, exactly as the scalar model
        i = np.where(arg > clip, isat * (e * (1.0 + (arg - clip)) - 1.0), isat * (e - 1.0))
        g = isat * e / vte
        i = i + self.gmin * vd
        g = g + self.gmin
        qj, cj = self.junction.charge_and_capacitance(vd)
        q = np.where(self.has_depletion, qj, 0.0) + self.tt * i
        cap = np.where(self.has_depletion, cj, 0.0) + self.tt * g
        return (np.concatenate([i, -i]), np.concatenate([q, -q]),
                np.concatenate([g, -g, -g, g]), np.concatenate([cap, -cap, -cap, cap]))

    def limit(self, x_new, x_old):
        for nodes, vte, v_crit in self._limit_layers:
            v_new = x_new[nodes]
            v_old = x_old[nodes]
            # the mask is vectorized; the few junctions it selects take the
            # scalar formula, so results equal Diode.limit_voltage bit for bit
            active = np.flatnonzero((v_new > v_crit) & (np.abs(v_new - v_old) > 2.0 * vte))
            for k in active:
                x_new[nodes[k]] = pnjlim(v_new[k], float(v_old[k]), vte[k], v_crit[k])

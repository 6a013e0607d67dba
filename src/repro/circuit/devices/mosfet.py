"""MOSFET models.

Two static models are provided, selected by ``MOSFETModel.level``:

* ``level=1`` -- classic Shichman-Hodges (SPICE Level 1) square-law model
  with channel-length modulation and body effect.  Piecewise defined
  (cutoff / triode / saturation) exactly like the original model.
* ``level=2`` -- a smooth "BSIM-like" single-expression model based on the
  EKV forward/reverse interpolation.  It is C-infinity in the terminal
  voltages, includes subthreshold conduction and channel-length
  modulation, and is the model used by the stiff benchmark circuits
  because its smoothness stresses the nonlinear error estimator rather
  than Newton's region switching.

Charge storage uses constant gate overlap/intrinsic capacitances (cgs,
cgd, cgb) plus nonlinear drain/source-bulk junction depletion
capacitances.  All stamped Jacobians are the exact derivatives of the
stamped currents/charges (validated by finite differences in the tests),
which the exponential integrators rely on.

The paper evaluates devices with BSIM3 via a C/C++ MEX bridge; the
substitution is documented in DESIGN.md -- the integrators only observe
``C(x), G(x), f(x)``, and any smooth, stiff, strongly nonlinear MOSFET
model exercises the same algorithmic paths.

:class:`MOSFETBatch` is the compiled form used inside a circuit: the same
equations evaluated for every MOSFET of one level at once with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.devices.base import DeviceBatch, NodeIndexer, NonlinearDevice, NonlinearStamper
from repro.circuit.devices.diode import JunctionCharge

__all__ = ["MOSFETModel", "MOSFET", "MOSFETBatch"]

THERMAL_VOLTAGE = 0.02585

#: floor of the smooth body-effect clamp in the threshold voltage
_FLOOR = 1e-3


def _smooth_max(x: float, floor: float) -> tuple:
    """Smooth approximation of ``max(x, floor)`` and its derivative."""
    d = x - floor
    s = math.sqrt(d * d + 4.0 * floor * floor)
    val = floor + 0.5 * (d + s)
    dval = 0.5 * (1.0 + d / s)
    return val, dval


def junction_charge_cap(v: float, cj0: float, vj: float, m: float, fc: float) -> tuple:
    """Depletion junction charge and capacitance (shared D/S-bulk helper)."""
    if cj0 <= 0.0:
        return 0.0, 0.0
    fcv = fc * vj
    if v < fcv:
        arg = 1.0 - v / vj
        q = cj0 * vj / (1.0 - m) * (1.0 - arg ** (1.0 - m))
        c = cj0 * arg ** (-m)
    else:
        f1 = vj / (1.0 - m) * (1.0 - (1.0 - fc) ** (1.0 - m))
        f2 = (1.0 - fc) ** (1.0 + m)
        f3 = 1.0 - fc * (1.0 + m)
        dv = v - fcv
        q = cj0 * (f1 + (f3 * dv + 0.5 * m / vj * dv * dv) / f2)
        c = cj0 * (f3 + m * dv / vj) / f2
    return q, c


@dataclass
class MOSFETModel:
    """MOSFET .model parameters (SPICE-compatible subset)."""

    name: str = "NMOS"
    #: "nmos" or "pmos"
    mos_type: str = "nmos"
    #: 1 = Shichman-Hodges, 2 = smooth EKV-style BSIM-like model
    level: int = 1
    #: zero-bias threshold voltage [V] (positive for NMOS enhancement)
    vt0: float = 0.5
    #: transconductance parameter kp = mu * Cox [A/V^2]
    kp: float = 2e-4
    #: channel-length modulation [1/V]
    lam: float = 0.02
    #: body-effect coefficient [sqrt(V)]
    gamma: float = 0.3
    #: surface potential [V]
    phi: float = 0.7
    #: gate-source overlap capacitance per channel width [F/m]
    cgso: float = 1e-10
    #: gate-drain overlap capacitance per channel width [F/m]
    cgdo: float = 1e-10
    #: gate-bulk overlap capacitance per channel length [F/m]
    cgbo: float = 1e-10
    #: gate-oxide capacitance per area [F/m^2]
    cox: float = 3.45e-3
    #: zero-bias bulk junction capacitance per area [F/m^2]
    cj: float = 1e-4
    #: bulk junction potential [V]
    pb: float = 0.8
    #: bulk junction grading coefficient
    mj: float = 0.5
    #: forward-bias depletion capacitance coefficient
    fc: float = 0.5
    #: minimum drain-source conductance [S]
    gmin: float = 1e-12
    #: subthreshold slope factor (level 2)
    nfactor: float = 1.3

    def __post_init__(self):
        mos_type = self.mos_type.lower()
        if mos_type not in ("nmos", "pmos"):
            raise ValueError(f"mos_type must be 'nmos' or 'pmos', got {self.mos_type!r}")
        self.mos_type = mos_type
        if self.level not in (1, 2):
            raise ValueError(f"unsupported MOSFET level {self.level}")
        if self.kp <= 0:
            raise ValueError("kp must be positive")
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    @property
    def polarity(self) -> float:
        """+1 for NMOS, -1 for PMOS."""
        return 1.0 if self.mos_type == "nmos" else -1.0


class MOSFET(NonlinearDevice):
    """Four-terminal MOSFET (drain, gate, source, bulk)."""

    def __init__(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MOSFETModel | None = None,
        w: float = 1e-6,
        l: float = 1e-7,
    ):
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model if model is not None else MOSFETModel()
        if w <= 0 or l <= 0:
            raise ValueError(f"MOSFET {name}: W and L must be positive")
        self.w = float(w)
        self.l = float(l)

    # -- threshold voltage -------------------------------------------------------

    def _threshold(self, vbs: float) -> tuple:
        """Return ``(vth, dvth/dvbs)`` with a smooth body-effect clamp."""
        mdl = self.model
        if mdl.gamma == 0.0:
            return mdl.vt0, 0.0
        s, ds = _smooth_max(mdl.phi - vbs, _FLOOR)
        sq = math.sqrt(s)
        vth = mdl.vt0 + mdl.gamma * (sq - math.sqrt(mdl.phi))
        dvth_dvbs = -mdl.gamma * ds / (2.0 * sq)
        return vth, dvth_dvbs

    # -- static models -----------------------------------------------------------

    def _ids_level1(self, vgs: float, vds: float, vbs: float) -> tuple:
        """Shichman-Hodges model: return ``(ids, gm, gds, gmb)`` for vds >= 0."""
        mdl = self.model
        beta = mdl.kp * self.w / self.l
        vth, dvth = self._threshold(vbs)
        vgst = vgs - vth
        clm = 1.0 + mdl.lam * vds
        if vgst <= 0.0:
            ids, gm, gds = 0.0, 0.0, 0.0
        elif vds < vgst:
            ids = beta * (vgst * vds - 0.5 * vds * vds) * clm
            gm = beta * vds * clm
            gds = beta * (vgst - vds) * clm + beta * (vgst * vds - 0.5 * vds * vds) * mdl.lam
        else:
            ids = 0.5 * beta * vgst * vgst * clm
            gm = beta * vgst * clm
            gds = 0.5 * beta * vgst * vgst * mdl.lam
        gmb = -gm * dvth
        ids += mdl.gmin * vds
        gds += mdl.gmin
        return ids, gm, gds, gmb

    def _ids_level2(self, vgs: float, vds: float, vbs: float) -> tuple:
        """Smooth EKV-style model: return ``(ids, gm, gds, gmb)`` for vds >= 0."""
        mdl = self.model
        beta = mdl.kp * self.w / self.l
        n = mdl.nfactor
        vt = THERMAL_VOLTAGE
        vth, dvth = self._threshold(vbs)
        i0 = 2.0 * n * beta * vt * vt
        clm = 1.0 + mdl.lam * vds

        def half(v_over):
            """softplus^2 interpolation and its derivative w.r.t. v_over."""
            a = v_over / (2.0 * n * vt)
            if a > 40.0:
                sp = a
                sig = 1.0
            elif a < -40.0:
                sp = math.exp(a)
                sig = sp
            else:
                sp = math.log1p(math.exp(a))
                sig = 1.0 / (1.0 + math.exp(-a))
            val = sp * sp
            dval = 2.0 * sp * sig / (2.0 * n * vt)
            return val, dval

        i_f, di_f = half(vgs - vth)
        i_r, di_r = half(vgs - vth - n * vds)

        core = i0 * (i_f - i_r)
        ids = core * clm
        gm = i0 * (di_f - di_r) * clm
        gds = i0 * (n * di_r) * clm + core * mdl.lam
        gmb = i0 * (di_f - di_r) * clm * (-dvth)
        ids += mdl.gmin * vds
        gds += mdl.gmin
        return ids, gm, gds, gmb

    def _ids(self, vgs: float, vds: float, vbs: float) -> tuple:
        if self.model.level == 1:
            return self._ids_level1(vgs, vds, vbs)
        return self._ids_level2(vgs, vds, vbs)

    # -- stamping ----------------------------------------------------------------

    def stamp_nonlinear(self, st: NonlinearStamper) -> None:
        d, g, s, b = self.nodes
        mdl = self.model
        p = mdl.polarity

        vd, vg, vs, vb = (st.voltage(n) for n in (d, g, s, b))

        # Work in forward-normalized space: swap drain/source if the device
        # conducts in reverse, and flip polarity for PMOS.
        if p * (vd - vs) >= 0.0:
            nd, ns = d, s
            vnd, vns = vd, vs
        else:
            nd, ns = s, d
            vnd, vns = vs, vd
        vgs = p * (vg - vns)
        vds = p * (vnd - vns)
        vbs = p * (vb - vns)

        ids, gm, gds, gmb = self._ids(vgs, vds, vbs)

        # Current p*ids flows from nd to ns through the channel.
        i_d = p * ids
        st.add_current(nd, i_d)
        st.add_current(ns, -i_d)

        gss = gm + gds + gmb
        st.add_jacobian(nd, g, gm)
        st.add_jacobian(nd, nd, gds)
        st.add_jacobian(nd, b, gmb)
        st.add_jacobian(nd, ns, -gss)
        st.add_jacobian(ns, g, -gm)
        st.add_jacobian(ns, nd, -gds)
        st.add_jacobian(ns, b, -gmb)
        st.add_jacobian(ns, ns, gss)

        self._stamp_charges(st, vd, vg, vs, vb)

    def _stamp_charges(self, st: NonlinearStamper, vd: float, vg: float,
                       vs: float, vb: float) -> None:
        d, g, s, b = self.nodes
        mdl = self.model
        p = mdl.polarity

        # Gate capacitances: overlap plus a fraction of the intrinsic oxide
        # capacitance split between source and drain (Meyer-style constant
        # partition, 40/40/20).
        c_ox = mdl.cox * self.w * self.l
        cgs_c = mdl.cgso * self.w + 0.4 * c_ox
        cgd_c = mdl.cgdo * self.w + 0.4 * c_ox
        cgb_c = mdl.cgbo * self.l + 0.2 * c_ox

        for (na, nb_, cval) in ((g, s, cgs_c), (g, d, cgd_c), (g, b, cgb_c)):
            va = st.voltage(na)
            vb_ = st.voltage(nb_)
            q = cval * (va - vb_)
            st.add_charge(na, q)
            st.add_charge(nb_, -q)
            st.add_capacitance(na, na, cval)
            st.add_capacitance(na, nb_, -cval)
            st.add_capacitance(nb_, na, -cval)
            st.add_capacitance(nb_, nb_, cval)

        # Drain-bulk and source-bulk junction depletion charge.  The junction
        # is reverse biased when the bulk-to-diffusion voltage (for NMOS) is
        # negative; for PMOS polarity flips.
        cj0 = mdl.cj * self.w * self.l
        if cj0 > 0.0:
            for diff_node, vdiff in ((d, vd), (s, vs)):
                vj_bias = p * (vb - vdiff)
                q, c = junction_charge_cap(vj_bias, cj0, mdl.pb, mdl.mj, mdl.fc)
                # Charge q (in normalized space) sits on the bulk side.
                st.add_charge(b, p * q)
                st.add_charge(diff_node, -p * q)
                st.add_capacitance(b, b, c)
                st.add_capacitance(b, diff_node, -c)
                st.add_capacitance(diff_node, b, -c)
                st.add_capacitance(diff_node, diff_node, c)

    # -- Newton helpers -----------------------------------------------------------

    #: largest Newton update of the gate and drain voltages (fetlim)
    GATE_MAX_STEP = 2.0
    DRAIN_MAX_STEP = 4.0

    def limit_voltage(self, name: str, v_new: float, v_old: float) -> float:
        """Limit gate and drain voltage updates (SPICE-style fetlim)."""
        if name not in (self.nodes[0], self.nodes[1]):
            return v_new
        step = v_new - v_old
        max_step = self.GATE_MAX_STEP if name == self.nodes[1] else self.DRAIN_MAX_STEP
        if abs(step) > max_step:
            return v_old + math.copysign(max_step, step)
        return v_new

    # -- compiled evaluation --------------------------------------------------------

    def batch_key(self) -> tuple:
        return (type(self), self.model.level)

    @classmethod
    def compile_batch(cls, devices, index, sink):
        return MOSFETBatch(devices, index, sink)


class MOSFETBatch(DeviceBatch):
    """All MOSFETs of one model level evaluated as one numpy kernel.

    Reverse conduction swaps drain and source per instance, but the swap
    only permutes values among the fixed ``{d, s} x {d, g, s, b}``
    positions, so the stamp pattern never changes.  Stamps that are
    identically zero for an instance (the bulk column without body
    effect, the junctions without ``cj``) are sent to the sink.
    """

    def __init__(self, devices: Sequence[MOSFET], index: NodeIndexer, sink: int):
        self.level = devices[0].model.level
        gate_step, drain_step = type(devices[0]).GATE_MAX_STEP, type(devices[0]).DRAIN_MAX_STEP
        vt = THERMAL_VOLTAGE
        # one pass over the devices: terminals, per-instance constants (with
        # the scalar model's own expressions), junctions and fetlim bounds;
        # a node limited by several terminals keeps the smallest bound
        table, junctions, bounds = [], [], {}
        for dev in devices:
            mdl, w, l = dev.model, dev.w, dev.l
            d, g, s, b = (index(node) for node in dev.nodes)
            for node, step in ((g, gate_step), (d, drain_step)):
                if node != sink:
                    bounds[node] = min(step, bounds.get(node, math.inf))
            beta = mdl.kp * w / l
            c_ox = mdl.cox * w * l
            cj0 = mdl.cj * w * l
            junctions.append((cj0, mdl.pb, mdl.mj, mdl.fc))
            table.append((
                d, g, s, b, mdl.polarity, beta, mdl.vt0, mdl.gamma, -mdl.gamma, mdl.phi,
                math.sqrt(mdl.phi), mdl.lam, mdl.gmin, mdl.nfactor,
                2.0 * mdl.nfactor * beta * vt * vt, 2.0 * mdl.nfactor * vt, cj0,
                mdl.cgso * w + 0.4 * c_ox, mdl.cgdo * w + 0.4 * c_ox,
                mdl.cgbo * l + 0.2 * c_ox))
        table = np.array(table).T.copy()  # rows contiguous for the kernels
        self.terminals = table[:4].astype(np.int64)
        (self.p, self.beta, self.vt0, self.gamma, self.neg_gamma, self.phi, self.sqrt_phi,
         self.lam, self.gmin, self.n, self.i0, denom, cj0, cgs, cgd, cgb) = table[4:]
        self.p2 = np.concatenate([self.p, self.p])
        self.denom = np.concatenate([denom, denom])
        self.has_junctions = any(junction[0] > 0.0 for junction in junctions)
        self.junction = JunctionCharge(junctions * 2)  # drain junctions, then source
        self._limit_nodes = np.array(sorted(bounds), dtype=np.int64)
        self._limit_steps = np.array([bounds[node] for node in sorted(bounds)])

        # stamp positions as rows of the terminal table (0 = d, 1 = g, 2 = s,
        # 3 = b); ``body`` drops the bulk column without body effect,
        # ``junction`` the junction stamps of instances without cj
        terminals = self.terminals
        body = terminals.copy()
        body[3] = np.where(self.gamma != 0.0, terminals[3], sink)
        junction = np.where(cj0 > 0.0, terminals, sink)
        self.f_rows = terminals[[0, 2]].ravel()
        self.g_rows = terminals[[0, 0, 0, 0, 2, 2, 2, 2]].ravel()
        self.g_cols = body[[1, 0, 3, 2, 1, 0, 3, 2]].ravel()
        # junctions, drain first: charge p*q on the bulk and -p*q on the
        # diffusion, capacitance in the 2x2 bulk/diffusion block
        self.q_rows = junction[[3, 3, 0, 2]].ravel()
        self.c_rows = junction[[3, 3, 3, 3, 0, 2, 0, 2]].ravel()
        self.c_cols = terminals[[3, 3, 0, 2, 3, 3, 0, 2]].ravel()
        self._no_charge = np.zeros(len(self.q_rows))
        self._no_capacitance = np.zeros(len(self.c_rows))

        # gate capacitances are constant (Meyer-style 40/40/20 partition):
        # g-s, g-d and g-b, each a symmetric 2x2 block
        cap = np.concatenate([cgs, cgd, cgb])
        self.const_c = (terminals[[1, 1, 1, 1, 1, 1, 2, 0, 3, 2, 0, 3]].ravel(),
                        terminals[[1, 1, 1, 2, 0, 3, 1, 1, 1, 2, 0, 3]].ravel(),
                        np.concatenate([cap, -cap, -cap, cap]))

    def _threshold(self, vbs):
        """Vectorized :meth:`MOSFET._threshold`.

        No select is needed for ``gamma == 0``: the expressions then give
        ``vt0`` and a zero derivative exactly.
        """
        x = self.phi - vbs - _FLOOR
        root = np.sqrt(x * x + 4.0 * _FLOOR * _FLOOR)
        sq = np.sqrt(_FLOOR + 0.5 * (x + root))
        vth = self.vt0 + self.gamma * (sq - self.sqrt_phi)
        dvth = self.neg_gamma * (0.5 * (1.0 + x / root)) / (2.0 * sq)
        return vth, dvth

    def _ids_level1(self, vgs, vds, vth, dvth):
        beta, lam = self.beta, self.lam
        vgst = vgs - vth
        clm = 1.0 + lam * vds
        on = vgst > 0.0
        triode = on & (vds < vgst)
        square = vgst * vds - 0.5 * vds * vds
        ids = np.where(triode, beta * square * clm, 0.5 * beta * vgst * vgst * clm)
        gm = np.where(triode, beta * vds * clm, beta * vgst * clm)
        gds = np.where(triode, beta * (vgst - vds) * clm + beta * square * lam,
                       0.5 * beta * vgst * vgst * lam)
        ids, gm, gds = (np.where(on, v, 0.0) for v in (ids, gm, gds))
        return ids + self.gmin * vds, gm, gds + self.gmin, -gm * dvth

    def _ids_level2(self, vgs, vds, vth, dvth):
        m = len(vgs)
        over = vgs - vth
        # softplus^2 interpolation of the forward and reverse halves at once;
        # below a = -40, log1p(exp(a)) is exp(a) exactly, and above a = 40
        # the logistic rounds to 1.0, as in the scalar model's branches
        a = np.concatenate([over, over - self.n * vds]) / self.denom
        e = np.exp(np.minimum(a, 40.0))
        sp = np.where(a > 40.0, a, np.log1p(e))
        sig = np.where(a < -40.0, e, 1.0 / (1.0 + np.exp(-np.maximum(a, -40.0))))
        val = sp * sp
        dval = 2.0 * sp * sig / self.denom
        i_f, i_r, di_f, di_r = val[:m], val[m:], dval[:m], dval[m:]

        i0, clm = self.i0, 1.0 + self.lam * vds
        core = i0 * (i_f - i_r)
        gm = i0 * (di_f - di_r) * clm
        gds = i0 * (self.n * di_r) * clm + core * self.lam
        return core * clm + self.gmin * vds, gm, gds + self.gmin, gm * -dvth

    def evaluate(self, xe):
        vd, vg, vs, vb = xe[self.terminals]
        p = self.p
        dvs = vd - vs
        forward = p * dvs >= 0.0
        vns = np.where(forward, vs, vd)
        vgs = p * (vg - vns)
        vds = np.abs(dvs)  # p * (v_nd - v_ns), exactly
        vbs = p * (vb - vns)
        vth, dvth = self._threshold(vbs)
        kernel = self._ids_level1 if self.level == 1 else self._ids_level2
        ids, gm, gds, gmb = kernel(vgs, vds, vth, dvth)

        # the source row of every stamp is the negated drain row
        sign = forward * 2.0 - 1.0
        i_d = sign * (p * ids)
        gss = gm + gds + gmb
        drain = np.concatenate([sign * gm, np.where(forward, gds, gss), sign * gmb,
                                -np.where(forward, gss, gds)])
        f = np.concatenate([i_d, -i_d])
        g = np.concatenate([drain, -drain])

        if not self.has_junctions:
            return f, self._no_charge, g, self._no_capacitance
        qj, cj = self.junction.charge_and_capacitance(
            np.concatenate([p * (vb - vd), p * (vb - vs)]))
        pq = self.p2 * qj
        bulk = np.concatenate([cj, -cj])
        return f, np.concatenate([pq, -pq]), g, np.concatenate([bulk, -bulk])

    def limit(self, x_new, x_old):
        nodes, bound = self._limit_nodes, self._limit_steps
        v_new = x_new[nodes]
        v_old = x_old[nodes]
        step = v_new - v_old
        x_new[nodes] = np.where(np.abs(step) > bound, v_old + np.copysign(bound, step), v_new)

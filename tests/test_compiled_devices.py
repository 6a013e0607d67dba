"""Compiled device evaluation against the scalar per-instance oracle.

``MNASystem`` evaluates every device class as one numpy kernel scattering
into fixed ``C``/``G`` patterns.  These tests check those kernels against
the scalar stamps (``_scalar_oracle``) on random and hand-picked states,
against finite differences, and check the fixed-pattern contract itself.
"""

import numpy as np
import pytest

from _scalar_oracle import scalar_evaluate, scalar_limit
from repro import SimOptions, TransientSimulator
from repro.benchcircuits import testcases
from repro.circuit.devices.base import NonlinearDevice
from repro.circuit.devices.diode import Diode, DiodeModel
from repro.circuit.devices.mosfet import THERMAL_VOLTAGE, MOSFETModel
from repro.circuit.netlist import Circuit
from repro.linalg.sparse_lu import SymbolicCache

RTOL = 1e-12


def assert_matches_oracle(mna, x):
    """Compiled ``C, G, f, q`` equal the scalar stamps to 1e-12 relative."""
    ev = mna.evaluate(x)
    ref = scalar_evaluate(mna, x)
    for name in ("C", "G", "f", "q"):
        got, want = getattr(ev, name), getattr(ref, name)
        if name in ("C", "G"):
            got, want = got.toarray(), want.toarray()
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale, err_msg=name)


def mos_circuit(level=1, gamma=0.3, cj=1e-4, **model_kwargs):
    """NMOS and PMOS in several connections, all nodes free."""
    nmos = MOSFETModel(name="N", mos_type="nmos", level=level, gamma=gamma, cj=cj,
                       **model_kwargs)
    pmos = MOSFETModel(name="P", mos_type="pmos", level=level, gamma=gamma, cj=cj,
                       **model_kwargs)
    ckt = Circuit(f"mos_l{level}")
    for node in ("a", "b", "c", "d", "e"):
        ckt.add_capacitor(f"C{node}", node, "0", 1e-15)
    ckt.add_mosfet("MN1", "a", "b", "c", "0", nmos, w=2e-6, l=1e-7)
    ckt.add_mosfet("MN2", "c", "d", "e", "b", nmos, w=1e-6, l=2e-7)
    ckt.add_mosfet("MN3", "d", "d", "0", "0", nmos)  # diode-connected
    ckt.add_mosfet("MP1", "a", "b", "e", "e", pmos, w=3e-6, l=1e-7)
    ckt.add_mosfet("MP2", "e", "a", "c", "d", pmos)
    return ckt


def random_states(mna, count=25, amplitude=1.5, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-amplitude, amplitude, mna.n) for _ in range(count)]


def with_voltages(mna, **volts):
    x = np.zeros(mna.n)
    for node, value in volts.items():
        x[mna.node_index(node)] = value
    return x


class TestMOSFETKernels:
    @pytest.mark.parametrize("level", [1, 2])
    def test_random_states(self, level):
        mna = mos_circuit(level).build()
        for x in random_states(mna):
            assert_matches_oracle(mna, x)

    @pytest.mark.parametrize("level", [1, 2])
    def test_both_orientations(self, level):
        mna = mos_circuit(level).build()
        forward = with_voltages(mna, a=1.2, b=1.0, c=0.1, d=0.8, e=0.3)
        reverse = with_voltages(mna, a=0.1, b=1.0, c=1.2, d=0.8, e=1.5)
        for x in (forward, reverse):
            assert_matches_oracle(mna, x)

    @pytest.mark.parametrize("vg, vd, region", [(0.2, 1.0, "cutoff"), (1.2, 0.1, "triode"),
                                                 (1.0, 1.2, "saturation")])
    def test_level1_regions(self, vg, vd, region):
        model = MOSFETModel(level=1, vt0=0.5, gamma=0.0)
        ckt = Circuit("regions")
        ckt.add_mosfet("M1", "d", "g", "0", "0", model)
        mna = ckt.build()
        vgst = vg - model.vt0
        assert region == ("cutoff" if vgst <= 0 else "triode" if vd < vgst else "saturation")
        assert_matches_oracle(mna, with_voltages(mna, g=vg, d=vd))

    def test_level2_beyond_softplus_clip(self):
        mna = mos_circuit(2).build()
        # the EKV argument a = v / (2 n vt) passes +-40 at about +-2.7 V
        limit = 40.0 * 2.0 * MOSFETModel().nfactor * THERMAL_VOLTAGE
        high = with_voltages(mna, a=0.5, b=limit + 2.0, c=0.0, d=limit + 2.5, e=0.2)
        low = with_voltages(mna, a=4.0, b=-limit - 2.0, c=0.0, d=-limit - 1.0, e=0.1)
        for x in (high, low):
            assert_matches_oracle(mna, x)
        for x in random_states(mna, amplitude=6.0, seed=3):
            assert_matches_oracle(mna, x)

    @pytest.mark.parametrize("level", [1, 2])
    def test_without_body_effect_or_junctions(self, level):
        mna = mos_circuit(level, gamma=0.0, cj=0.0).build()
        for x in random_states(mna, count=10, seed=1):
            assert_matches_oracle(mna, x)

    def test_junction_forward_bias_branch(self):
        model = MOSFETModel(level=2, cj=1e-3, pb=0.8, fc=0.5)
        ckt = Circuit("forward_junction")
        ckt.add_mosfet("M1", "d", "g", "s", "b", model)
        mna = ckt.build()
        # bulk-to-drain 1.0 V and bulk-to-source 0.2 V straddle fc * pb
        x = with_voltages(mna, d=0.0, g=0.6, s=0.8, b=1.0)
        assert 1.0 - 0.0 >= model.fc * model.pb > 1.0 - 0.8
        assert_matches_oracle(mna, x)


class TestDiodeKernel:
    @pytest.mark.parametrize("tt, cj0", [(0.0, 0.0), (1e-9, 0.0), (0.0, 1e-12),
                                         (1e-9, 1e-12)])
    def test_matches_oracle(self, tt, cj0):
        ckt = Circuit("diodes")
        model = DiodeModel(tt=tt, cj0=cj0)
        ckt.add_diode("D1", "a", "b", model)
        ckt.add_diode("D2", "b", "0", model, area=2.0)
        ckt.add_diode("D3", "0", "a", DiodeModel(n=1.5, tt=tt, cj0=cj0))
        mna = ckt.build()
        clip = Diode._EXP_CLIP * model.vte
        states = random_states(mna, amplitude=1.0)
        states.append(with_voltages(mna, a=clip + 1.0, b=0.0))  # beyond the clip
        states.append(with_voltages(mna, a=0.9, b=0.2))  # forward depletion branch
        for x in states:
            assert_matches_oracle(mna, x)

    def test_no_charge_storage_stamps_no_capacitance(self):
        ckt = Circuit("plain_diode")
        ckt.add_resistor("R1", "a", "0", 1e3)
        ckt.add_diode("D1", "a", "0")
        ev = ckt.build().evaluate(np.array([0.7]))
        assert ev.C.nnz == 0


class CubicConductance(NonlinearDevice):
    """``i = g1 v + g3 v^3`` and ``q = c1 v + c2 v^2``: a custom scalar device."""

    def __init__(self, name, a, b, g1=1e-3, g3=2e-3, c1=1e-15, c2=3e-16):
        super().__init__(name, (a, b))
        self.g1, self.g3, self.c1, self.c2 = g1, g3, c1, c2

    def stamp_nonlinear(self, st):
        a, b = self.nodes
        v = st.voltage(a) - st.voltage(b)
        i = self.g1 * v + self.g3 * v ** 3
        g = self.g1 + 3.0 * self.g3 * v ** 2
        q = self.c1 * v + self.c2 * v ** 2
        c = self.c1 + 2.0 * self.c2 * v
        for node, sign in ((a, 1.0), (b, -1.0)):
            st.add_current(node, sign * i)
            st.add_charge(node, sign * q)
            for col, col_sign in ((a, 1.0), (b, -1.0)):
                st.add_jacobian(node, col, sign * col_sign * g)
                st.add_capacitance(node, col, sign * col_sign * c)

    def limit_voltage(self, name, v_new, v_old):
        return v_old + max(-0.5, min(0.5, v_new - v_old))


class TestDefaultKernel:
    def mixed_circuit(self):
        ckt = mos_circuit(2)
        ckt.add(CubicConductance("X1", "a", "e"))
        ckt.add(CubicConductance("X2", "c", "0", g3=5e-3))
        ckt.add_diode("D1", "b", "d", DiodeModel(cj0=1e-13))
        return ckt

    def test_custom_device_matches_oracle(self):
        mna = self.mixed_circuit().build()
        assert len(mna._batches) == 3  # MOSFETs, the custom class, diodes
        for x in random_states(mna, count=10, seed=2):
            assert_matches_oracle(mna, x)

    def test_custom_limit_voltage_is_applied(self):
        mna = self.mixed_circuit().build()
        rng = np.random.default_rng(4)
        for _ in range(20):
            x_old = rng.uniform(-1.0, 1.0, mna.n)
            x_new = x_old + rng.uniform(-6.0, 6.0, mna.n)
            np.testing.assert_array_equal(mna.limit_step(x_new, x_old),
                                          scalar_limit(mna, x_new, x_old))

    def test_stamp_outside_terminals_is_rejected(self):
        class Stray(CubicConductance):
            def stamp_nonlinear(self, st):
                st.add_current("elsewhere", 1.0)

        ckt = Circuit("stray")
        ckt.add_resistor("R1", "a", "elsewhere", 1.0)
        ckt.add(Stray("X1", "a", "0"))
        mna = ckt.build()
        with pytest.raises(KeyError, match="outside its terminals"):
            mna.evaluate(np.zeros(mna.n))


class TestFixedPattern:
    def circuit(self):
        ckt = mos_circuit(2)
        ckt.add_vsource("V1", "a", "0", 1.0)
        ckt.add_resistor("R1", "a", "b", 1e3)
        ckt.add_diode("D1", "b", "d", DiodeModel(tt=1e-10, cj0=1e-13))
        return ckt

    def test_finite_differences(self):
        mna = self.circuit().build()
        x = with_voltages(mna, a=1.0, b=0.7, c=0.35, d=0.45, e=0.9)
        ev = mna.evaluate(x)
        G, C = ev.G.toarray(), ev.C.toarray()
        for j in range(mna.num_nodes):
            h = 1e-6
            plus, minus = x.copy(), x.copy()
            plus[j] += h
            minus[j] -= h
            ev_p, ev_m = mna.evaluate(plus), mna.evaluate(minus)
            np.testing.assert_allclose((ev_p.f - ev_m.f) / (2 * h), G[:, j],
                                       rtol=1e-5, atol=1e-9 * np.abs(G).max())
            np.testing.assert_allclose((ev_p.q - ev_m.q) / (2 * h), C[:, j],
                                       rtol=1e-5, atol=1e-9 * np.abs(C).max())

    def test_index_arrays_shared_across_states(self):
        mna = self.circuit().build()
        first, *rest = (mna.evaluate(x) for x in random_states(mna, count=5))
        for ev in rest:
            for name in ("C", "G"):
                a, b = getattr(first, name), getattr(ev, name)
                assert a.indptr is b.indptr and a.indices is b.indices
                assert a.data is not b.data
        assert not first.G.indices.flags.writeable
        assert not first.G.indptr.flags.writeable

    @pytest.mark.parametrize("c_scale, g_scale", [(1.0, 1.0), (1.0, 0.5), (1.5, 1.0)])
    def test_newton_jacobian_matches_sparse_expression(self, c_scale, g_scale):
        mna = self.circuit().build()
        h = 3e-12
        jacobians = []
        for x in random_states(mna, count=3, seed=5):
            ev = mna.evaluate(x)
            J = mna.newton_jacobian(ev, h, c_scale=c_scale, g_scale=g_scale)
            want = ((c_scale * ev.C) / h + g_scale * ev.G).toarray()
            np.testing.assert_array_equal(J.toarray(), want)
            jacobians.append(J)
        assert all(J.indices is jacobians[0].indices for J in jacobians)

    def test_newton_jacobian_of_linear_circuit(self):
        ckt = Circuit("rc")
        ckt.add_resistor("R1", "a", "0", 1e3)
        ckt.add_capacitor("C1", "a", "0", 1e-12)
        mna = ckt.build()
        ev = mna.evaluate(np.array([0.5]))
        J = mna.newton_jacobian(ev, 1e-9)
        np.testing.assert_array_equal(J.toarray(), (ev.C / 1e-9 + ev.G).toarray())

    def test_structure_stats_counts_true_nonzeros(self):
        """A level-1 NMOS in cutoff leaves explicit zeros in the pattern."""
        ckt = Circuit("nmos_cutoff")
        ckt.add_vsource("VDD", "vdd", "0", 1.2)
        ckt.add_vsource("VG", "g", "0", 0.2)
        ckt.add_resistor("RD", "vdd", "d", 1e4)
        ckt.add_capacitor("CL", "d", "0", 1e-15)
        ckt.add_mosfet("M1", "d", "g", "0", "0", MOSFETModel(level=1, vt0=0.5))
        mna = ckt.build()
        x = with_voltages(mna, vdd=1.2, g=0.2, d=1.2)
        stats = mna.structure_stats(x)
        # the numbers the scalar assembly reported before compilation
        assert (stats.nnz_C, stats.nnz_G) == (4, 8)
        assert mna.evaluate(x).G.nnz > stats.nnz_G  # gm = 0 kept as a slot
        assert (mna.structure_stats().nnz_C, mna.structure_stats().nnz_G) == (1, 8)


class TestNewtonLimiting:
    def test_equals_scalar_loop_on_shared_node(self):
        """Node "x" is the gate of M1, the drain of M2 and a diode anode."""
        model = MOSFETModel(level=2)
        ckt = Circuit("shared_node")
        ckt.add_mosfet("M1", "y", "x", "0", "0", model)
        ckt.add_mosfet("M2", "x", "y", "z", "0", model)
        ckt.add_mosfet("M3", "z", "z", "0", "0", model)
        ckt.add_diode("D1", "x", "z")
        ckt.add_diode("D2", "x", "0", DiodeModel(n=2.0))
        ckt.add_diode("D3", "y", "x")
        mna = ckt.build()
        rng = np.random.default_rng(7)
        limited_any = False
        for _ in range(200):
            x_old = rng.uniform(-1.0, 2.0, mna.n)
            x_new = x_old + rng.uniform(-8.0, 8.0, mna.n) * rng.integers(0, 2, mna.n)
            got = mna.limit_step(x_new, x_old)
            np.testing.assert_array_equal(got, scalar_limit(mna, x_new, x_old))
            limited_any |= not np.array_equal(got, x_new)
        assert limited_any


class TestSymbolicIdentityFastPath:
    OPTIONS = dict(store_states=False, t_stop=0.1e-9, h_init=5e-12, err_budget=1e-3,
                   lte_reltol=5e-3, lte_abstol=1e-5)

    @pytest.mark.parametrize("method, counts", [
        # (factorizations, orderings, symbolic reuses) of the scalar assembly
        ("er", (68, 10, 58)),
        ("benr", (304, 10, 294)),
    ])
    def test_accounting_unchanged_on_ckt1(self, method, counts, monkeypatch):
        hashed = []
        original = SymbolicCache.pattern_key
        monkeypatch.setattr(SymbolicCache, "pattern_key",
                            staticmethod(lambda m: hashed.append(1) or original(m)))
        mna = testcases.make_ckt("ckt1", scale=0.25).circuit.build()
        result = TransientSimulator(mna, method=method,
                                    options=SimOptions(**self.OPTIONS)).run()
        lu = result.stats.lu
        assert lu.num_orderings + lu.num_symbolic_reuses == lu.num_factorizations
        assert (lu.num_factorizations, lu.num_orderings, lu.num_symbolic_reuses) == counts
        # one fixed pattern: hashed once, then recognized by identity
        assert len(hashed) == 1

    def test_writeable_patterns_are_always_hashed(self):
        import scipy.sparse as sp

        cache = SymbolicCache()
        A = sp.identity(4, format="csc")
        cache.key(A)
        A.indices[:] = [1, 0, 3, 2]  # mutated in place: must not be trusted
        assert cache.key(A) == SymbolicCache.pattern_key(A)

"""Round-trip tests for the options serialization layer."""

import pytest

from repro.core.options import DCOptions, NewtonOptions, SimOptions
from repro.core.simulator import TransientSimulator
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL


class TestNewtonOptions:
    def test_round_trip(self):
        options = NewtonOptions(max_iterations=17, abstol=1e-8, damping=0.7)
        data = options.to_dict()
        assert data["max_iterations"] == 17
        assert NewtonOptions.from_dict(data) == options

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            NewtonOptions.from_dict({"damping": 2.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="dampng"):
            NewtonOptions.from_dict({"dampng": 0.5})


class TestDCOptions:
    def test_round_trip_with_nested_newton(self):
        options = DCOptions(
            newton=NewtonOptions(max_iterations=9),
            gmin_steps=[1e-3, 1e-6, 0.0],
            use_initial_conditions=True,
        )
        restored = DCOptions.from_dict(options.to_dict())
        assert restored == options
        assert isinstance(restored.newton, NewtonOptions)

    def test_lists_are_copied(self):
        options = DCOptions()
        data = options.to_dict()
        data["gmin_steps"].append(123.0)
        assert 123.0 not in options.gmin_steps
        restored = DCOptions.from_dict(data)
        data["gmin_steps"].append(456.0)
        assert 456.0 not in restored.gmin_steps


class TestSimOptions:
    def test_round_trip_defaults(self):
        options = SimOptions()
        assert SimOptions.from_dict(options.to_dict()) == options

    def test_round_trip_nested_and_derived(self):
        options = SimOptions(
            t_stop=2e-9,
            h_init=1e-12,
            correction=True,
            gamma=0.05,
            observe_nodes=["out", "mid"],
            newton=NewtonOptions(abstol=1e-9),
            dc=DCOptions(newton=NewtonOptions(max_iterations=7)),
            max_factor_nnz=1234,
        )
        data = options.to_dict()
        assert data["newton"]["abstol"] == 1e-9
        assert data["dc"]["newton"]["max_iterations"] == 7
        restored = SimOptions.from_dict(data)
        assert restored == options
        # derived accessors still work after the round trip
        assert restored.resolved_h_init() == 1e-12
        assert restored.span == pytest.approx(2e-9)

    def test_from_dict_partial(self):
        restored = SimOptions.from_dict({"t_stop": 5e-9, "newton": {"reltol": 1e-4}})
        assert restored.t_stop == 5e-9
        assert restored.newton.reltol == 1e-4
        assert restored.err_budget == SimOptions().err_budget

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            SimOptions.from_dict({"alpha": 1.5})

    def test_unknown_key_rejected(self):
        # after the typo, the LU-reuse knobs that were removed: option
        # files and job contexts that still carry them must fail loudly
        for key in ("no_such_option", "bypass_tol", "h_bypass_tol",
                    "h_bypass_refine_tol", "h_bypass_max_refinements",
                    "lu_cache_entries", "step_ladder_ratio"):
            with pytest.raises(ValueError, match=key):
                SimOptions.from_dict({key: 1})

    def test_correction_normalization_survives_round_trip(self):
        """The er-c method flips ``correction`` on; the serialized form of
        the normalized options must rebuild into the same behaviour."""
        ckt = Circuit("rc")
        ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
        ckt.add_resistor("R1", "in", "out", 1000.0)
        ckt.add_capacitor("C1", "out", "0", 1e-12)

        sim = TransientSimulator(ckt, method="er-c", options=SimOptions(t_stop=1e-9))
        assert sim.options.correction is True
        data = sim.options.to_dict()
        assert data["correction"] is True

        # plain ER with a stale correction flag gets normalized back off
        sim2 = TransientSimulator(ckt, method="er", options=SimOptions.from_dict(data))
        assert sim2.options.correction is False

"""Regression tests: ``run()`` must reuse the DC result cached by ``run_dc()``."""

import numpy as np
import pytest

import repro.core.simulator as simulator_module
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator


def rc_circuit():
    ckt = Circuit("rc")
    ckt.add_vsource("Vin", "in", "0", PWL([(0.0, 0.0), (0.1e-9, 1.0)]))
    ckt.add_resistor("R1", "in", "out", 1000.0)
    ckt.add_capacitor("C1", "out", "0", 1e-12)
    return ckt


def _counting_dc(monkeypatch):
    calls = []
    original = simulator_module.dc_operating_point

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulator_module, "dc_operating_point", counted)
    return calls


def test_run_after_run_dc_solves_dc_once(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    dc = sim.run_dc()
    assert len(calls) == 1
    result = sim.run()
    assert result.stats.completed
    assert len(calls) == 1, "run() recomputed the DC point despite the cache"
    assert sim.dc_result is dc


def test_run_without_cache_solves_dc_once_and_caches(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="benr", options=SimOptions(t_stop=1e-9))
    sim.run()
    assert len(calls) == 1
    assert sim.dc_result is not None
    # a second transient run on the same simulator reuses the cached point too
    sim.run()
    assert len(calls) == 1


def test_explicit_x0_skips_dc_entirely(monkeypatch):
    calls = _counting_dc(monkeypatch)
    sim = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    result = sim.run(x0=np.zeros(sim.mna.n))
    assert result.stats.completed
    assert calls == []


@pytest.mark.parametrize("step_ladder", ["off", "geometric"])
def test_dc_lu_work_attributed_regardless_of_call_order(step_ladder):
    """#LU and #LUsym (Table I) must depend neither on whether run_dc()
    warmed the cache nor on earlier run() calls of the same simulator."""
    options = SimOptions(t_stop=1e-9, step_ladder=step_ladder)
    sim_plain = TransientSimulator(rc_circuit(), method="benr", options=options)
    plain = sim_plain.run()

    sim_warm = TransientSimulator(rc_circuit(), method="benr", options=options)
    sim_warm.run_dc()
    warm = sim_warm.run()
    again = sim_warm.run()

    for result in (warm, again):
        assert result.stats.num_lu_factorizations == plain.stats.num_lu_factorizations
        assert result.stats.num_lu_orderings == plain.stats.num_lu_orderings
        assert result.stats.num_symbolic_reuses == plain.stats.num_symbolic_reuses
    assert warm.stats.peak_factor_nnz == plain.stats.peak_factor_nnz


def test_cached_and_uncached_runs_agree(monkeypatch):
    sim_cached = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    sim_cached.run_dc()
    cached = sim_cached.run()

    sim_plain = TransientSimulator(rc_circuit(), method="er", options=SimOptions(t_stop=1e-9))
    plain = sim_plain.run()

    assert cached.stats.num_steps == plain.stats.num_steps
    np.testing.assert_allclose(cached.voltage("out"), plain.voltage("out"))

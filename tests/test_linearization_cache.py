"""Tests for the cross-step linearization/LU cache (repro.core.workspace).

The cache's contract has three parts, each locked in here:

* **exactness** -- linear and nonlinear circuits produce bit-identical
  ``SimulationResult`` states with the cache on vs off (the cache changes
  *work*, never *results*);
* **honest counters** -- ``#LU`` keeps counting real factorizations only,
  reuses land in ``num_reused``;
* **one reuse rule** -- only an unchanged matrix on a linear circuit is
  served from the cache; nonlinear circuits factorize every request.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.benchcircuits.inverter_chain import inverter_chain
from repro.benchcircuits.rc_networks import rc_mesh
from repro.circuit.netlist import Circuit
from repro.circuit.sources import PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.core.workspace import LinearizationCache
from repro.linalg.sparse_lu import LUStats


def linear_circuit():
    """Small coupled RC mesh driven by a PWL ramp (nonzero Eq. 13 slope)."""
    return rc_mesh(rows=4, cols=4, coupling_fraction=0.5,
                   drive=PWL([(0.0, 0.0), (1e-9, 1.0)]))


def run(circuit, method, cached, **overrides):
    kwargs = dict(t_stop=1e-9, h_init=2e-12)
    kwargs.update(overrides)
    options = SimOptions(
        cache_linearization=cached, reuse_segment_slope=cached, **kwargs
    )
    return TransientSimulator(circuit, method=method, options=options).run()


class TestLinearExactness:
    @pytest.mark.parametrize("method", ["er", "er-c", "benr", "trap", "gear2"])
    def test_states_bit_identical_cache_on_vs_off(self, method):
        ckt = linear_circuit()
        r_off = run(ckt, method, cached=False)
        r_on = run(ckt, method, cached=True)
        assert r_off.stats.completed and r_on.stats.completed
        assert r_off.times == r_on.times
        np.testing.assert_array_equal(r_off.state_array, r_on.state_array)

    def test_er_lu_counters_distinguish_hits_from_factorizations(self):
        r_on = run(linear_circuit(), "er", cached=True)
        stats = r_on.stats.lu
        # one real factorization of G for the whole transient; the DC
        # Newton solve contributes the only other one
        assert r_on.stats.num_lu_factorizations <= 2
        assert stats.num_reused == r_on.stats.num_steps - 1
        assert r_on.stats.num_lu_cache_hits == stats.num_reused
        assert r_on.summary()["#LUhit"] == stats.num_reused

    def test_er_cache_off_factorizes_every_step(self):
        r_off = run(linear_circuit(), "er", cached=False)
        assert r_off.stats.num_lu_factorizations >= r_off.stats.num_steps
        assert r_off.stats.lu.num_reused == 0

    def test_er_segment_slope_basis_reused(self):
        """One PWL ramp segment: the slope basis is built once, reused for
        every further step, and counted in the MEVP statistics."""
        r_on = run(linear_circuit(), "er", cached=True)
        assert r_on.stats.mevp.num_basis_reuses == r_on.stats.num_steps - 1
        r_off = run(linear_circuit(), "er", cached=False)
        assert r_off.stats.mevp.num_basis_reuses == 0


class TestNonlinearExactness:
    @pytest.mark.parametrize("method", ["benr", "er"])
    def test_states_bit_identical_without_bypass(self, method):
        """Nonlinear circuits: the cache never reuses a factorization of a
        moving linearization, so results are bit-identical."""
        ckt = inverter_chain(2)
        kwargs = dict(t_stop=0.5e-9, err_budget=5e-4)
        r_off = run(ckt, method, cached=False, **kwargs)
        r_on = run(ckt, method, cached=True, **kwargs)
        assert r_off.stats.completed and r_on.stats.completed
        assert r_off.times == r_on.times
        np.testing.assert_array_equal(r_off.state_array, r_on.state_array)
        assert r_on.stats.lu.num_reused == 0


class TestCachePrimitives:
    def _mna(self, linear=True):
        ckt = linear_circuit() if linear else inverter_chain(1)
        return ckt.build()

    def test_disabled_cache_never_stores(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions(cache_linearization=False))
        stats = LUStats()
        lu1 = cache.lu(("G",), mna.G_lin, stats=stats)
        lu2 = cache.lu(("G",), mna.G_lin, stats=stats)
        assert lu1 is not lu2
        assert stats.num_factorizations == 2
        assert stats.num_reused == 0

    def test_linear_cache_reuses_and_rebinds_stats(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        first = LUStats()
        lu1 = cache.lu(("G",), mna.G_lin, stats=first)
        second = LUStats()
        lu2 = cache.lu(("G",), mna.G_lin, stats=second)
        assert lu1 is lu2
        assert first.num_factorizations == 1
        assert second.num_factorizations == 0
        assert second.num_reused == 1
        # solves after the reuse are charged to the reusing run's stats
        lu2.solve(np.ones(mna.n))
        assert second.num_solves == 1 and first.num_solves == 0

    def test_matrix_memoized_only_on_linear_fast_path(self):
        linear = LinearizationCache(self._mna(linear=True), SimOptions())
        calls = []

        def builder():
            calls.append(1)
            return sp.identity(3, format="csc")

        m1 = linear.matrix(("k",), builder)
        m2 = linear.matrix(("k",), builder)
        assert m1 is m2 and len(calls) == 1

        nonlinear = LinearizationCache(self._mna(linear=False), SimOptions())
        nonlinear.matrix(("k",), builder)
        nonlinear.matrix(("k",), builder)
        assert len(calls) == 3

    def test_lu_store_is_bounded(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        for i in range(3 * LinearizationCache.MAX_ENTRIES):
            cache.lu(("h", float(i)), mna.G_lin)
        assert len(cache._lus) <= LinearizationCache.MAX_ENTRIES

    def test_evaluate_matches_direct_evaluation(self):
        mna = self._mna()
        options = SimOptions(gshunt=1e-9)
        cache = LinearizationCache(mna, options)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(mna.n)
        ev = cache.evaluate(x)
        direct = mna.evaluate(x)
        identity = sp.identity(mna.n, format="csc")
        np.testing.assert_array_equal(ev.f, direct.f + options.gshunt * x)
        np.testing.assert_array_equal(ev.q, direct.q)
        expected_G = (direct.G + options.gshunt * identity).tocsc()
        assert (ev.G != expected_G).nnz == 0

    def test_invalidate_clears_entries(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        cache.lu(("G",), mna.G_lin)
        cache.matrix(("k",), lambda: mna.C_lin)
        cache.evaluate(np.zeros(mna.n))
        cache.invalidate()
        assert not cache._lus and not cache._matrices
        stats = LUStats()
        cache.lu(("G",), mna.G_lin, stats=stats)
        assert stats.num_factorizations == 1 and stats.num_reused == 0


class TestMultiRungMemoization:
    """Per-rung LU memoization: the LRU keyed by ``("method", h)`` keeps
    one factorization per ladder rung so oscillating controllers rehit."""

    def _mna(self):
        return linear_circuit().build()

    def test_capacity_is_max_entries(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        for i in range(2 * LinearizationCache.MAX_ENTRIES):
            cache.lu(("benr", float(i + 1)), mna.G_lin)
        assert len(cache._lus) == LinearizationCache.MAX_ENTRIES

    def test_rehit_after_oscillation_across_rungs(self):
        """grow / shrink / grow between two rungs: after the first visit
        to each rung every further request is a counted reuse."""
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        stats = LUStats()
        h_lo, h_hi = 2e-12, 4e-12
        for h in (h_lo, h_hi, h_lo, h_hi, h_lo):
            cache.lu(("benr", h), mna.G_lin, stats=stats)
        assert stats.num_factorizations == 2
        assert stats.num_reused == 3

    def test_eviction_is_least_recently_used(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        cache.MAX_ENTRIES = 2
        stats = LUStats()
        cache.lu(("benr", 1.0), mna.G_lin, stats=stats)
        cache.lu(("benr", 2.0), mna.G_lin, stats=stats)
        cache.lu(("benr", 1.0), mna.G_lin, stats=stats)  # refresh rung 1
        cache.lu(("benr", 3.0), mna.G_lin, stats=stats)  # evicts rung 2
        assert stats.num_factorizations == 3
        cache.lu(("benr", 1.0), mna.G_lin, stats=stats)  # still cached
        assert stats.num_reused == 2
        cache.lu(("benr", 2.0), mna.G_lin, stats=stats)  # was evicted
        assert stats.num_factorizations == 4

    def test_invalidate_clears_every_rung(self):
        mna = self._mna()
        cache = LinearizationCache(mna, SimOptions())
        for h in (1.0, 2.0, 3.0):
            cache.lu(("benr", h), mna.G_lin)
        cache.invalidate()
        assert not cache._lus
        stats = LUStats()
        for h in (1.0, 2.0, 3.0):
            cache.lu(("benr", h), mna.G_lin, stats=stats)
        assert stats.num_factorizations == 3 and stats.num_reused == 0

    @pytest.mark.parametrize("method", ["benr", "trap", "gear2"])
    def test_small_capacity_is_bit_identical(self, method):
        """The cache capacity changes work, never results: a 2-entry cache
        (heavy eviction) reproduces the default run bit-for-bit."""
        ckt = linear_circuit()
        r_default = run(ckt, method, cached=True)
        options = SimOptions(t_stop=1e-9, h_init=2e-12)
        sim = TransientSimulator(ckt, method=method, options=options)
        sim.integrator.cache.MAX_ENTRIES = 2
        r_small = sim.run()
        assert r_default.times == r_small.times
        np.testing.assert_array_equal(r_default.state_array,
                                      r_small.state_array)

    def test_default_knobs_do_not_touch_new_counters(self):
        result = run(linear_circuit(), "benr", cached=True)
        assert result.stats.num_ladder_steps == 0
        assert result.stats.num_ladder_holds == 0


class TestMultipleRuns:
    def test_second_run_repeats_first_run(self):
        """Every run() starts from an empty cache: a persistent simulator's
        second run reports the first run's LU counters and states."""
        options = SimOptions(t_stop=1e-9, h_init=2e-12)
        sim = TransientSimulator(linear_circuit(), method="er", options=options)
        r1 = sim.run()
        r2 = sim.run()
        np.testing.assert_array_equal(r1.state_array, r2.state_array)
        for key in ("num_factorizations", "num_reused", "num_solves",
                    "num_orderings", "num_symbolic_reuses"):
            assert getattr(r2.stats.lu, key) == getattr(r1.stats.lu, key), key

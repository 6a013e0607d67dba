"""Tests for the geometric step-size ladder (repro.integrators.ladder).

The ladder's contract:

* **grid arithmetic** -- proposals are rounded *down* onto the geometric
  grid ``h_ref * ratio**k`` (never loosening the controller's LTE
  certificate), climbs are capped at one rung per accepted step and the
  grid is clipped to the run's ``[h_min, h_max]`` window;
* **breakpoint resilience** -- a breakpoint-shortened (off-grid) step
  leaves the active rung untouched, so the run loop snaps the next step
  back onto the pre-breakpoint rung instead of compounding from the
  truncated size;
* **run-level savings** -- with the ladder on, a breakpoint-dense PWL
  run visits only a handful of distinct step sizes, so the LU count
  collapses while trajectories stay inside the verification band.
"""

import numpy as np
import pytest

from repro.benchcircuits.rc_networks import rc_mesh
from repro.circuit.sources import PWL
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.integrators.ladder import GeometricLadder
from repro.verify.oracles import DEFAULT_METHOD_BANDS


class TestGridArithmetic:
    def make(self, h_ref=2e-12, ratio=2.0, h_min=1e-13, h_max=3.2e-11):
        return GeometricLadder(h_ref, ratio, h_min, h_max)

    def test_rung_values_and_rung_of(self):
        ladder = self.make()
        assert ladder.rung_value(0) == pytest.approx(2e-12)
        assert ladder.rung_value(3) == pytest.approx(1.6e-11)
        assert ladder.rung_of(ladder.rung_value(2)) == 2
        assert ladder.rung_of(3e-12) is None
        assert ladder.rung_of(-1.0) is None

    def test_quantize_floors_onto_grid(self):
        ladder = self.make()
        for proposal in (2.1e-12, 3.9e-12, 7e-12, 1.59e-11):
            h = ladder.quantize(proposal)
            assert h <= proposal
            assert ladder.rung_of(h) is not None

    def test_quantize_climb_capped_at_one_rung(self):
        ladder = self.make()
        ladder.observe(ladder.rung_value(1))
        assert ladder.active_rung == 1
        # controller wants to quadruple: the ladder grants one rung only
        assert ladder.quantize(4.0 * ladder.rung_value(1)) == pytest.approx(
            ladder.rung_value(2))

    def test_quantize_clamped_to_window(self):
        ladder = self.make()
        assert ladder.quantize(1e-9) == pytest.approx(ladder.rung_value(4))
        assert ladder.rung_value(4) <= ladder.h_max
        low = ladder.quantize(1e-14)
        assert low >= ladder.h_min

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            GeometricLadder(-1.0, 2.0, 1e-13, 1e-11)
        with pytest.raises(ValueError):
            GeometricLadder(2e-12, 1.0, 1e-13, 1e-11)

    def test_snap_retry_floors_and_preserves_guards(self):
        ladder = self.make()
        snapped = ladder.snap_retry(3e-12)
        assert snapped == pytest.approx(2e-12)
        assert snapped <= 3e-12
        # below the lowest in-window rung: returned unchanged so the
        # caller's h_min give-up logic fires exactly as without a ladder
        tiny = 0.5 * ladder.rung_value(ladder._k_lo)
        assert ladder.snap_retry(tiny) == tiny

    def test_observe_ignores_off_grid_steps(self):
        ladder = self.make()
        assert ladder.observe(ladder.rung_value(2)) == 2
        assert ladder.active_rung == 2
        # a breakpoint landing (off-grid) must not move the active rung
        assert ladder.observe(2.7e-12) is None
        assert ladder.active_rung == 2
        assert ladder.active_value == pytest.approx(ladder.rung_value(2))


class TestOptionValidation:
    def test_step_ladder_knobs_validated(self):
        with pytest.raises(ValueError):
            SimOptions(step_ladder="linear")


def staircase(t_stop, num_edges=10, edge=4e-12):
    """PWL staircase: every edge is a breakpoint the run must land on."""
    points = [(0.0, 0.0)]
    dt = t_stop / (num_edges + 1)
    for k in range(1, num_edges + 1):
        points.append((k * dt, points[-1][1]))
        points.append((k * dt + edge, k / num_edges))
    return PWL(points)


def run_mesh(method, **overrides):
    kwargs = dict(t_stop=1e-9, h_init=2e-12, h_max=3.2e-11, store_states=True)
    kwargs.update(overrides)
    circuit = rc_mesh(rows=4, cols=4, coupling_fraction=0.5,
                      drive=staircase(kwargs["t_stop"]))
    sim = TransientSimulator(circuit, method=method,
                            options=SimOptions(**kwargs))
    sim.run_dc()
    result = sim.run()
    assert result.stats.completed, result.stats.failure_reason
    return result


class TestLadderRuns:
    @pytest.mark.parametrize("method", ["benr", "trap", "gear2"])
    def test_breakpoints_do_not_knock_run_off_the_ladder(self, method):
        """Regression: breakpoint landings produce off-grid steps, but the
        controller must resume from the active rung instead of compounding
        continuous proposals from the truncated step size."""
        result = run_mesh(method, step_ladder="geometric")
        ladder = GeometricLadder(2e-12, 2.0, 1e-18, 3.2e-11)
        step_sizes = [record.h for record in result.steps]
        on_grid = [h for h in step_sizes if ladder.rung_of(h) is not None]
        off_grid = len(step_sizes) - len(on_grid)
        # the staircase has 20 breakpoints (2 per edge); only breakpoint
        # landings may be off-grid, everything else stays on rungs
        assert off_grid <= 21
        assert result.stats.num_ladder_steps == len(on_grid)
        assert result.stats.num_ladder_holds > 0
        # a continuous controller invents a distinct h almost every step;
        # on the ladder the distinct-step count (= the set of Jacobians
        # worth factorizing) collapses to the visited rungs
        adaptive = run_mesh(method)
        adaptive_distinct = len({record.h for record in adaptive.steps})
        assert len(set(on_grid)) < 0.5 * adaptive_distinct

    def test_ladder_collapses_lu_count(self):
        adaptive = run_mesh("benr")
        laddered = run_mesh("benr", step_ladder="geometric")
        assert (laddered.stats.lu.num_factorizations
                < 0.5 * adaptive.stats.lu.num_factorizations)

    def test_ladder_trajectory_stays_in_band(self):
        adaptive = run_mesh("benr")
        laddered = run_mesh("benr", step_ladder="geometric")
        grid = np.union1d(adaptive.time_array, laddered.time_array)
        band = 2.0 * DEFAULT_METHOD_BANDS["benr"]
        for col in range(adaptive.state_array.shape[1]):
            a = np.interp(grid, adaptive.time_array,
                          adaptive.state_array[:, col])
            b = np.interp(grid, laddered.time_array,
                          laddered.state_array[:, col])
            assert float(np.max(np.abs(a - b))) <= band

    def test_defaults_leave_trajectories_bit_identical(self):
        """The ladder at its default reproduces the plain adaptive run
        bit-for-bit -- the mechanism is strictly opt-in."""
        baseline = run_mesh("benr")
        explicit = run_mesh("benr", step_ladder="off")
        assert baseline.times == explicit.times
        np.testing.assert_array_equal(baseline.state_array,
                                      explicit.state_array)
        assert baseline.stats.num_ladder_steps == 0

    def test_er_unaffected_by_ladder_jacobian_reuse(self):
        """ER factorizes only G: the ladder must not change its LU count
        (it only quantizes the step sequence)."""
        result = run_mesh("er", step_ladder="geometric")
        assert result.stats.lu.num_factorizations <= 2

"""Property-based round-trip tests for options and scenario hashing.

Requires ``hypothesis`` (skipped when absent -- the runtime stack stays
numpy/scipy-only).  Two families of properties:

* ``to_dict``/``from_dict`` of the option dataclasses round-trips exactly
  for *every* valid field combination, not just the defaults the
  example-based tests cover;
* the campaign scenario hash is a pure function of scenario *content* --
  invariant under dict insertion order and presentation metadata (name,
  tags), sensitive to everything else.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.campaign.scenario import (  # noqa: E402
    CircuitSpec,
    Scenario,
    scenario_hash,
)
from repro.core.options import DCOptions, NewtonOptions, SimOptions  # noqa: E402

COMMON = settings(max_examples=40,
                  suppress_health_check=[HealthCheck.too_slow], deadline=None)

#: strictly positive, finite, JSON-exact floats
positive_floats = st.floats(min_value=1e-15, max_value=1e3,
                            allow_nan=False, allow_infinity=False)


newton_options = st.builds(
    NewtonOptions,
    max_iterations=st.integers(min_value=1, max_value=500),
    abstol=positive_floats,
    reltol=positive_floats,
    residual_tol=positive_floats,
    damping=st.floats(min_value=1e-6, max_value=1.0,
                      allow_nan=False, exclude_min=False),
    apply_limiting=st.booleans(),
)

dc_options = st.builds(
    DCOptions,
    newton=newton_options,
    gmin_steps=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False), max_size=8),
    source_steps=st.lists(st.floats(min_value=0.01, max_value=1.0,
                                    allow_nan=False), max_size=8),
    use_initial_conditions=st.booleans(),
)


@st.composite
def sim_options(draw):
    t_start = draw(st.floats(min_value=0.0, max_value=1e-9, allow_nan=False))
    span = draw(st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False))
    return SimOptions(
        t_start=t_start,
        t_stop=t_start + span,
        h_init=draw(st.one_of(st.none(), st.floats(min_value=1e-15,
                                                   max_value=1e-9,
                                                   allow_nan=False))),
        err_budget=draw(positive_floats),
        mevp_tol=draw(positive_floats),
        krylov_max_dim=draw(st.integers(min_value=2, max_value=300)),
        correction=draw(st.booleans()),
        gamma=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        alpha=draw(st.floats(min_value=1e-3, max_value=0.999, allow_nan=False)),
        beta=draw(st.floats(min_value=1.0, max_value=16.0, allow_nan=False)),
        newton=draw(newton_options),
        gshunt=draw(st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)),
        max_factor_nnz=draw(st.one_of(st.none(),
                                      st.integers(min_value=1, max_value=10**9))),
        cache_linearization=draw(st.booleans()),
        reuse_segment_slope=draw(st.booleans()),
        store_states=draw(st.booleans()),
        observe_nodes=draw(st.lists(st.text(min_size=1, max_size=8),
                                    max_size=4)),
        dc=draw(dc_options),
    )


class TestOptionsRoundTrip:
    @COMMON
    @given(options=newton_options)
    def test_newton_options(self, options):
        assert NewtonOptions.from_dict(options.to_dict()) == options

    @COMMON
    @given(options=dc_options)
    def test_dc_options(self, options):
        assert DCOptions.from_dict(options.to_dict()) == options

    @COMMON
    @given(options=sim_options())
    def test_sim_options(self, options):
        rebuilt = SimOptions.from_dict(options.to_dict())
        assert rebuilt == options
        # and the dict form itself is stable under a second round trip
        assert rebuilt.to_dict() == options.to_dict()


#: JSON-representable scenario parameter values
param_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.text(max_size=12),
    st.booleans(),
)
param_dicts = st.dictionaries(st.text(min_size=1, max_size=10),
                              param_values, max_size=6)


def shuffled_copy(data, rnd):
    items = list(data.items())
    rnd.shuffle(items)
    return dict(items)


class TestScenarioHashStability:
    @COMMON
    @given(params=param_dicts, options=param_dicts, rnd=st.randoms())
    def test_hash_ignores_dict_insertion_order(self, params, options, rnd):
        a = Scenario(name="a", circuit=CircuitSpec("rc_ladder", params=params),
                     method="er", options=options)
        b = Scenario(name="a",
                     circuit=CircuitSpec("rc_ladder",
                                         params=shuffled_copy(params, rnd)),
                     method="er", options=shuffled_copy(options, rnd))
        assert scenario_hash(a) == scenario_hash(b)

    @COMMON
    @given(params=param_dicts,
           name_a=st.text(max_size=8), name_b=st.text(max_size=8),
           tags=param_dicts)
    def test_hash_ignores_name_and_tags(self, params, name_a, name_b, tags):
        spec = CircuitSpec("rc_ladder", params=params)
        a = Scenario(name=name_a, circuit=spec, method="er")
        b = Scenario(name=name_b, circuit=spec, method="er", tags=tags)
        assert scenario_hash(a) == scenario_hash(b)

    @COMMON
    @given(params=param_dicts)
    def test_hash_depends_on_method_and_params(self, params):
        spec = CircuitSpec("rc_ladder", params=params)
        base = Scenario(name="x", circuit=spec, method="er")
        other_method = Scenario(name="x", circuit=spec, method="benr")
        assert scenario_hash(base) != scenario_hash(other_method)
        changed = dict(params)
        # tuple sentinel: the params strategy never generates tuples, so
        # this is guaranteed to change the content
        changed["__extra__"] = ("sentinel",)
        other_params = Scenario(
            name="x", circuit=CircuitSpec("rc_ladder", params=changed),
            method="er")
        assert scenario_hash(base) != scenario_hash(other_params)

    @COMMON
    @given(params=param_dicts, options=param_dicts)
    def test_hash_survives_dict_round_trip(self, params, options):
        """A scenario serialized and reloaded hashes identically -- the
        property the golden store depends on across processes/runs."""
        scenario = Scenario(name="x",
                            circuit=CircuitSpec("rc_ladder", params=params),
                            method="trap", options=options,
                            observe=["n1"], seed=7)
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert scenario_hash(rebuilt) == scenario_hash(scenario)

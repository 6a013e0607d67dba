"""ER / ER-C against an exact reference on small linear PWL-driven circuits.

The reference (:mod:`_exact_reference`) propagates the index-1 reduced
MNA system exactly with a dense matrix exponential per source segment;
it shares no code with the integrators or the Krylov stack.  It is
itself checked against the closed-form first-order oracles first.
"""

import numpy as np
import pytest

from _exact_reference import exact_linear_pwl_states
from repro.benchcircuits.registry import build_circuit
from repro.core.options import SimOptions
from repro.core.simulator import TransientSimulator
from repro.verify.circuits import driven_family
from repro.verify.matrix import MATRIX_FAMILIES
from repro.verify.oracles import get_oracle

#: horizon of the smoke verify matrix
T_STOP = 0.25e-9


def node_error(mna, result) -> float:
    """Worst node-voltage deviation of ``result`` from the exact reference."""
    exact = exact_linear_pwl_states(mna, result.time_array)
    nodes = slice(0, mna.num_nodes)
    return float(np.max(np.abs(result.state_array[:, nodes] - exact[:, nodes])))


@pytest.mark.parametrize("name", ["rc_ramp", "rc_pulse", "rc_step", "rl_ramp"])
def test_reference_matches_closed_form(name):
    oracle = get_oracle(name)
    mna = build_circuit(oracle.circuit.factory, **oracle.circuit.params).build()
    times = np.linspace(0.0, oracle.t_stop, 41)
    exact = exact_linear_pwl_states(mna, times)[:, mna.node_index(oracle.node)]
    np.testing.assert_allclose(exact, oracle.reference(times), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("method", ["er", "er-c"])
@pytest.mark.parametrize("source", ["ramp", "pulse"])
@pytest.mark.parametrize("family", ["rc_ladder", "rc_mesh", "coupled_lines"])
def test_er_matches_exact_reference(family, source, method):
    """Default tolerances, the smoke matrix's sizes and step bounds."""
    config = MATRIX_FAMILIES[family]
    mna = driven_family(family=family, source=source, t_stop=T_STOP,
                        **config["smoke"]).build()
    options = SimOptions(t_stop=T_STOP, h_init=config["h_init"],
                         h_max=config["h_max"], store_states=True)
    result = TransientSimulator(mna, method=method, options=options).run()
    assert result.stats.completed
    assert node_error(mna, result) <= 1e-4


def test_er_on_ringing_rlc_line():
    """The full-size RLC line of the verify matrix: the Eq. 22 residual of
    one ER step once dipped below tolerance at a single Krylov dimension
    while the MEVP there was 2.5e-3 off, leaving ER 2e-3 V off the exact
    solution; the sweep now confirms such an abrupt verdict."""
    t_stop = 0.5e-9
    config = MATRIX_FAMILIES["rlc_line"]
    mna = driven_family(family="rlc_line", source="ramp", t_stop=t_stop,
                        **config["full"]).build()
    options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                         h_max=config["h_max"], store_states=True)
    result = TransientSimulator(mna, method="er", options=options).run()
    assert result.stats.completed
    assert node_error(mna, result) <= 1e-4


def test_er_tiny_steps_on_picosecond_mesh():
    """Steps far below the mesh's time constants with a tight MEVP
    tolerance: Arnoldi directions of ~1e-3 of ``||Av||`` are genuine.
    Treating them as a happy breakdown (an absolute threshold on an
    operator of norm ~1e-11) left ER 1.4e-3 V off the exact solution."""
    t_stop = 0.05e-9
    config = MATRIX_FAMILIES["rc_mesh"]
    mna = driven_family(family="rc_mesh", source="pulse", t_stop=t_stop,
                        **config["smoke"]).build()
    options = SimOptions(t_stop=t_stop, h_init=config["h_init"],
                         h_max=3.125e-14, mevp_tol=1e-13, store_states=True)
    result = TransientSimulator(mna, method="er", options=options).run()
    assert result.stats.completed
    assert node_error(mna, result) <= 1e-8

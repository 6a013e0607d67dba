"""Exact transient reference for small linear circuits with PWL sources.

Shares no code with the integrators or the Krylov stack: it reads only
the assembled MNA matrices ``C``, ``G``, ``B`` and the source waveforms,
and propagates the circuit densely with :func:`scipy.linalg.expm`.

The MNA system ``C x' + G x = b(t)`` is reduced to an ODE by eliminating
the algebraic unknowns (index-1 Schur complement): ``d`` are the unknowns
that ``C`` touches, ``a`` the rest (voltage-source nodes and branch
currents), so

    x_a  = G_aa^{-1} (b_a - G_ad x_d)
    x_d' = M x_d + N b(t),   M = -C_dd^{-1} S,  N = C_dd^{-1} [I, -G_da G_aa^{-1}]

with the Schur complement ``S = G_dd - G_da G_aa^{-1} G_ad``.  Inside one
source segment ``b`` is linear in time, so the augmented matrix
``[[M, N s, N b_k], [0, 0, 1], [0, 0, 0]]`` carries the exact solution in
one matrix exponential.  The state is chained across source breakpoints
only; every sample is one propagation from the last breakpoint before it,
so rounding does not accumulate over the samples.
"""

from __future__ import annotations

import bisect

import numpy as np
import scipy.linalg as sla


def exact_linear_pwl_states(mna, times) -> np.ndarray:
    """Return the exact states ``(len(times), n)`` of a linear PWL-driven circuit.

    The run starts from the DC operating point at ``t = 0``.
    """
    if mna.has_nonlinear:
        raise ValueError("the exact reference covers linear circuits only")
    if not all(w.is_piecewise_linear for w in mna.waveforms):
        raise ValueError("the exact reference needs piecewise-linear sources")
    times = np.asarray(times, dtype=float)
    C = mna.C_lin.toarray()
    G = mna.G_lin.toarray()
    n = mna.n
    touched = (np.abs(C).sum(axis=0) + np.abs(C).sum(axis=1)) > 0.0
    d = np.flatnonzero(touched)
    a = np.flatnonzero(~touched)
    nd = d.size

    G_aa_inv = np.linalg.inv(G[np.ix_(a, a)]) if a.size else np.zeros((0, 0))
    G_da, G_ad = G[np.ix_(d, a)], G[np.ix_(a, d)]
    schur = G[np.ix_(d, d)] - G_da @ G_aa_inv @ G_ad
    C_dd_inv = np.linalg.inv(C[np.ix_(d, d)])
    M = -C_dd_inv @ schur
    N = C_dd_inv @ np.hstack([np.eye(nd), -G_da @ G_aa_inv])

    def reduced_input(b):
        return N @ np.concatenate([b[d], b[a]])

    def full_state(x_d, b):
        x = np.empty(n)
        x[d] = x_d
        x[a] = G_aa_inv @ (b[a] - G_ad @ x_d)
        return x

    t_end = float(times.max())
    knots = sorted({0.0, t_end, *mna.breakpoints(t_end)})
    inputs = [mna.source_vector(t) for t in knots]

    def propagate(x_d, k, tau):
        """Exact state ``tau`` after knot ``k`` from ``x_d(knots[k])``."""
        if tau == 0.0:
            return x_d
        span = knots[k + 1] - knots[k]
        slope = (inputs[k + 1] - inputs[k]) / span
        aug = np.zeros((nd + 2, nd + 2))
        aug[:nd, :nd] = M
        aug[:nd, nd] = reduced_input(slope)
        aug[:nd, nd + 1] = reduced_input(inputs[k])
        aug[nd, nd + 1] = 1.0
        z0 = np.concatenate([x_d, [0.0, 1.0]])
        return (sla.expm(tau * aug) @ z0)[:nd]

    x0 = np.linalg.solve(G, inputs[0])
    at_knot = [x0[d]]
    for k in range(len(knots) - 1):
        at_knot.append(propagate(at_knot[k], k, knots[k + 1] - knots[k]))

    states = np.empty((times.size, n))
    for i, t in enumerate(times):
        k = min(bisect.bisect_right(knots, t) - 1, len(knots) - 2)
        x_d = propagate(at_knot[k], k, t - knots[k])
        states[i] = full_state(x_d, mna.source_vector(t))
    return states

"""Gear's second-order method (BDF2) with Newton-Raphson.

The third low-order implicit scheme of Sec. II-A.  Variable-step BDF2
coefficients are used: with the step ratio ``rho = h_k / h_{k-1}``,

.. math::

    \\dot q(t_{k+1}) \\approx \\frac{1}{h_k}\\Big(
        \\frac{1+2\\rho}{1+\\rho} q_{k+1}
        - (1+\\rho) q_k
        + \\frac{\\rho^2}{1+\\rho} q_{k-1}\\Big),

which reduces to the familiar ``(3 q_{k+1} - 4 q_k + q_{k-1}) / (2h)``
for constant steps.  The first step of a run falls back to backward Euler.
The Jacobian is ``a0 * C/h + G`` -- again a combined matrix that embeds
both ``C`` and the step size, re-factorized on every Newton iteration and
every step-size change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.integrators.newton import NewtonSolver

__all__ = ["Gear2NR"]


class Gear2NR(Integrator):
    """Variable-step BDF2 + Newton-Raphson."""

    name = "Gear2"
    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 2.0

    def __init__(self, mna, options=None):
        super().__init__(mna, options)
        self._x_prev: Optional[np.ndarray] = None
        self._q_prev: Optional[np.ndarray] = None
        self._h_prev: Optional[float] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._x_prev = None
        self._q_prev = None
        self._h_prev = None

    def _solve_implicit(self, x_guess, q_k, q_prev, t_new, h, h_prev):
        bu_new = self.source(t_new)
        if q_prev is None:
            # first step: backward Euler coefficients
            a0, a1, a2 = 1.0, -1.0, 0.0
            q_prev = np.zeros_like(q_k)
        else:
            rho = h / h_prev
            a0 = (1.0 + 2.0 * rho) / (1.0 + rho)
            a1 = -(1.0 + rho)
            a2 = rho * rho / (1.0 + rho)
        history = (a1 * q_k + a2 * q_prev) / h
        jac_key = ("gear2", h, a0)

        def residual_jacobian(y):
            ev = self.evaluate(y)
            self.stats.device_evaluations += 1
            residual = a0 * ev.q / h + history + ev.f - bu_new
            jacobian = self.cache.matrix(
                jac_key, lambda: self.mna.newton_jacobian(ev, h, c_scale=a0))
            return residual, jacobian

        solver = NewtonSolver(
            self.mna, self.options.newton, lu_stats=self.stats.lu,
            max_factor_nnz=self.options.max_factor_nnz,
            factorizer=self.cached_factorizer(jac_key),
        )
        return solver.solve(x_guess, residual_jacobian, label="a0*C/h+G")

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()
        ev_k = self.evaluate(x)
        self.stats.device_evaluations += 1

        rejections = 0
        newton_total = 0
        h_try = h
        while True:
            if self._x_prev is not None and self._h_prev:
                predictor = x + h_try * (x - self._x_prev) / self._h_prev
            else:
                predictor = np.array(x, copy=True)

            newton = self._solve_implicit(
                predictor, ev_k.q, self._q_prev, t + h_try, h_try, self._h_prev
            )
            newton_total += newton.iterations
            if not newton.converged:
                rejections += 1
                h_try = self.snap_retry(h_try * opts.alpha)
                if h_try < h_min or rejections > opts.max_rejections:
                    raise ConvergenceError(
                        f"Gear2 Newton iteration failed to converge at t={t:g}"
                    )
                continue

            x_new = newton.x
            if self._x_prev is None:
                error_ratio = 0.0
            else:
                error_ratio = self.weighted_norm(
                    x_new - predictor, x_new, opts.lte_abstol, opts.lte_reltol
                )
            if error_ratio <= 1.0:
                break
            rejections += 1
            if rejections > opts.max_rejections:
                raise ConvergenceError(
                    f"Gear2 step control rejected the step {opts.max_rejections} times at t={t:g}"
                )
            factor = max(self.MIN_FACTOR, self.SAFETY * error_ratio ** (-1.0 / 3.0))
            h_try = self.snap_retry(max(h_try * factor, h_min))

        if error_ratio > 0.0:
            factor = min(self.MAX_FACTOR,
                         max(self.MIN_FACTOR, self.SAFETY * error_ratio ** (-1.0 / 3.0)))
        else:
            factor = self.MAX_FACTOR
        h_next = h_try * factor

        self._x_prev = np.array(x, copy=True)
        self._q_prev = np.array(ev_k.q, copy=True)
        self._h_prev = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            newton_iterations=newton_total, error_estimate=float(error_ratio),
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)

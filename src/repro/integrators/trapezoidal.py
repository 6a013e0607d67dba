"""Trapezoidal rule with Newton-Raphson (TRNR).

The second classic implicit companion mentioned in Sec. II-A of the paper.
One step solves

.. math::

    \\frac{q(x_{k+1}) - q(x_k)}{h} +
    \\tfrac12\\big(f(x_{k+1}) + f(x_k)\\big) =
    \\tfrac12\\big(B u(t_{k+1}) + B u(t_k)\\big)

with the Jacobian ``C/h + G/2`` -- the same structural cost as BENR (the
combined matrix embeds both ``C`` and the step size).  Step control uses
the predictor-corrector difference with the third-order exponent.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.integrators.newton import NewtonSolver

__all__ = ["TrapezoidalNR"]


class TrapezoidalNR(Integrator):
    """Trapezoidal rule + Newton-Raphson with adaptive stepping."""

    name = "TRNR"
    SAFETY = 0.9
    MIN_FACTOR = 0.2
    MAX_FACTOR = 2.0

    def __init__(self, mna, options=None):
        super().__init__(mna, options)
        self._x_prev: Optional[np.ndarray] = None
        self._h_prev: Optional[float] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._x_prev = None
        self._h_prev = None

    def _solve_implicit(self, x_guess, q_k, f_k, bu_k, t_new, h):
        bu_new = self.source(t_new)
        rhs_const = 0.5 * (bu_new + bu_k) - 0.5 * f_k
        jac_key = ("tr", h)

        def residual_jacobian(y):
            ev = self.evaluate(y)
            self.stats.device_evaluations += 1
            residual = (ev.q - q_k) / h + 0.5 * ev.f - rhs_const
            jacobian = self.cache.matrix(
                jac_key, lambda: self.mna.newton_jacobian(ev, h, g_scale=0.5))
            return residual, jacobian

        solver = NewtonSolver(
            self.mna, self.options.newton, lu_stats=self.stats.lu,
            max_factor_nnz=self.options.max_factor_nnz,
            factorizer=self.cached_factorizer(jac_key),
        )
        return solver.solve(x_guess, residual_jacobian, label="C/h+G/2")

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()
        ev_k = self.evaluate(x)
        self.stats.device_evaluations += 1
        bu_k = self.source(t)

        rejections = 0
        newton_total = 0
        h_try = h
        while True:
            if self._x_prev is not None and self._h_prev:
                predictor = x + h_try * (x - self._x_prev) / self._h_prev
            else:
                predictor = np.array(x, copy=True)

            newton = self._solve_implicit(predictor, ev_k.q, ev_k.f, bu_k, t + h_try, h_try)
            newton_total += newton.iterations
            if not newton.converged:
                rejections += 1
                h_try = self.snap_retry(h_try * opts.alpha)
                if h_try < h_min or rejections > opts.max_rejections:
                    raise ConvergenceError(
                        f"TRNR Newton iteration failed to converge at t={t:g}"
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
                    f"TRNR step control rejected the step {opts.max_rejections} times at t={t:g}"
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
        self._h_prev = h_try

        record = StepRecord(
            t=t + h_try, h=h_try, rejections=rejections,
            newton_iterations=newton_total, error_estimate=float(error_ratio),
        )
        return StepOutcome(x=x_new, h_used=h_try, h_next=h_next, record=record)

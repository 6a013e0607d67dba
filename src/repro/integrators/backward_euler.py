"""Backward Euler with Newton-Raphson (BENR) -- the paper's baseline.

One accepted step solves the implicit system (paper Eq. 2)

.. math::

    \\frac{q(x_{k+1}) - q(x_k)}{h_k} + f(x_{k+1}) = B u(t_{k+1})

by Newton-Raphson, where every iteration LU-factorizes the combination
``C(x)/h + G(x)`` (Eq. 3).  This is exactly the cost structure the paper
argues against for strongly coupled post-layout circuits:

* at least one factorization of ``C/h + G`` per Newton iteration, so two or
  more per step;
* the step size ``h`` is baked into the factored matrix, so every step-size
  change (local truncation error control) forces a refactorization;
* the fill-in of ``C/h + G`` is driven by the coupling pattern of ``C``.

Local truncation error is controlled with the classic divided-difference
estimate of ``x''`` and the standard asymptotic step controller.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.results import StepRecord
from repro.integrators.base import ConvergenceError, Integrator, StepOutcome
from repro.integrators.newton import NewtonSolver

__all__ = ["BackwardEulerNR"]


class BackwardEulerNR(Integrator):
    """Backward Euler + Newton-Raphson with LTE-based adaptive stepping."""

    name = "BENR"
    #: safety factor of the asymptotic step controller
    SAFETY = 0.9
    #: bounds on the per-step growth/shrink ratio
    MIN_FACTOR = 0.2
    MAX_FACTOR = 2.0

    def __init__(self, mna, options=None):
        super().__init__(mna, options)
        self._x_prev: Optional[np.ndarray] = None
        self._h_prev: Optional[float] = None

    def prepare(self, x0: np.ndarray, t0: float) -> None:
        self._x_prev = None
        self._h_prev = None

    # -- one implicit solve -----------------------------------------------------------

    def _solve_implicit(self, x_guess: np.ndarray, q_k: np.ndarray, t_new: float,
                        h: float):
        """Newton-solve the BE system for the state at ``t_new = t + h``."""
        bu = self.source(t_new)
        jac_key = ("benr", h)

        def residual_jacobian(y):
            ev = self.evaluate(y)
            self.stats.device_evaluations += 1
            residual = (ev.q - q_k) / h + ev.f - bu
            # linear circuits: the C/h + G combination is a constant of h,
            # assembled (and factorized) once per distinct step size
            jacobian = self.cache.matrix(jac_key, lambda: self.mna.newton_jacobian(ev, h))
            return residual, jacobian

        solver = NewtonSolver(
            self.mna, self.options.newton, lu_stats=self.stats.lu,
            max_factor_nnz=self.options.max_factor_nnz,
            factorizer=self.cached_factorizer(jac_key),
        )
        return solver.solve(x_guess, residual_jacobian, label="C/h+G")

    # -- LTE estimate --------------------------------------------------------------------

    def _lte_ratio(self, x_old: np.ndarray, x_new: np.ndarray, h: float) -> float:
        """Weighted LTE of backward Euler: ``(h^2/2) x''`` by divided differences.

        Returns the error measured in units of the tolerance (<= 1 accepts).
        On the very first step there is no history and the step is accepted.
        """
        if self._x_prev is None or self._h_prev is None:
            return 0.0
        dxdt_new = (x_new - x_old) / h
        dxdt_old = (x_old - self._x_prev) / self._h_prev
        second_derivative = 2.0 * (dxdt_new - dxdt_old) / (h + self._h_prev)
        lte = 0.5 * h * h * second_derivative
        return self.weighted_norm(lte, x_new, self.options.lte_abstol, self.options.lte_reltol)

    # -- the step ----------------------------------------------------------------------------

    def advance(self, x: np.ndarray, t: float, h: float) -> StepOutcome:
        opts = self.options
        h_min = opts.resolved_h_min()
        q_k = self.evaluate(x).q
        self.stats.device_evaluations += 1

        rejections = 0
        newton_total = 0
        h_try = h
        while True:
            # predictor: linear extrapolation when history exists
            if self._x_prev is not None and self._h_prev:
                guess = x + h_try * (x - self._x_prev) / self._h_prev
            else:
                guess = np.array(x, copy=True)

            newton = self._solve_implicit(guess, q_k, t + h_try, h_try)
            newton_total += newton.iterations

            if not newton.converged:
                rejections += 1
                h_try = self.snap_retry(h_try * opts.alpha)
                if h_try < h_min or rejections > opts.max_rejections:
                    raise ConvergenceError(
                        f"BENR Newton iteration failed to converge at t={t:g} "
                        f"(h reduced to {h_try:g})"
                    )
                continue

            x_new = newton.x
            error_ratio = self._lte_ratio(x, x_new, h_try)
            if error_ratio <= 1.0:
                break

            rejections += 1
            if rejections > opts.max_rejections:
                raise ConvergenceError(
                    f"BENR LTE control rejected the step {opts.max_rejections} times at t={t:g}"
                )
            factor = max(self.MIN_FACTOR,
                         self.SAFETY * error_ratio ** -0.5)
            h_try = self.snap_retry(max(h_try * factor, h_min))

        # next-step suggestion from the asymptotic controller
        if error_ratio > 0.0:
            factor = min(self.MAX_FACTOR,
                         max(self.MIN_FACTOR, self.SAFETY * error_ratio ** -0.5))
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

"""Geometric step-size ladder for cache-aware adaptive stepping.

The implicit methods bake the step size into their factored Jacobian
``a C/h + b G``, so every ``h`` the controller invents costs one LU.  A
continuous asymptotic controller invents a *new* ``h`` on almost every
step -- the factor ``safety * err**-p`` practically never lands on a value
seen before -- which is why adaptive BENR/TR runs pay near-worst-case LU
counts even with the linearization cache in place.

:class:`GeometricLadder` fixes this by quantizing proposed step sizes onto
the grid ``h_ref * ratio**k``.  The controller keeps making its continuous
proposals; the ladder rounds each one *down* to the nearest rung and caps
climbing at one rung per accepted step.  Rounding down never loosens the
LTE bound the controller just certified, and the one-rung climb cap means
a run visits only ``O(log(h_max / h_init))`` distinct step sizes -- each
of which the :class:`~repro.core.workspace.LinearizationCache` LRU keeps
factored, so oscillating controllers (grow, reject, shrink, grow again)
rehit instead of refactorizing.
"""

from __future__ import annotations

import math
from typing import Optional

__all__ = ["GeometricLadder", "LADDER_RATIO"]

#: ratio between adjacent rungs of a run's ladder; 2 matches the classic
#: halve/double controller, so quantization costs at most one halving
LADDER_RATIO = 2.0

#: relative slack when deciding whether a value sits on a rung; covers the
#: float noise of ``h_ref * ratio**k`` round-trips without ever merging two
#: adjacent rungs (ratios are > 1 by construction)
_REL_EPS = 1e-9


class GeometricLadder:
    """Quantize step-size proposals onto the grid ``h_ref * ratio**k``.

    The ladder is anchored at the run's initial step (``k = 0``) and spans
    the rungs that fall inside ``[h_min, h_max]``.  It tracks the last rung
    an accepted step actually used (the *active* rung) so the run loop can
    restore it after a breakpoint-shortened step and so climbs stay capped
    at one rung per step.
    """

    def __init__(self, h_ref: float, ratio: float, h_min: float, h_max: float):
        if h_ref <= 0.0:
            raise ValueError("ladder h_ref must be positive")
        if ratio <= 1.0:
            raise ValueError("ladder ratio must be greater than 1")
        self.h_ref = float(h_ref)
        self.ratio = float(ratio)
        self.h_min = float(h_min)
        self.h_max = float(h_max)
        self._log_ratio = math.log(self.ratio)
        #: index of the rung the last on-rung accepted step used
        self._active: Optional[int] = None
        # usable rung index window inside [h_min, h_max]; the anchor rung 0
        # always qualifies because run() resolves h_init into that interval
        self._k_hi = self._floor_index(self.h_max)
        k_lo = self._floor_index(self.h_min)
        if self.rung_value(k_lo) < self.h_min * (1.0 - _REL_EPS):
            k_lo += 1
        self._k_lo = min(k_lo, 0)

    # -- grid arithmetic ---------------------------------------------------------------

    def rung_value(self, k: int) -> float:
        """Step size of rung ``k`` (rung 0 is the anchor ``h_ref``)."""
        return self.h_ref * self.ratio ** k

    def _floor_index(self, h: float) -> int:
        """Largest ``k`` with ``rung_value(k) <= h`` (up to float slack)."""
        k = math.floor(math.log(h / self.h_ref) / self._log_ratio + _REL_EPS)
        while self.rung_value(k + 1) <= h * (1.0 + _REL_EPS):
            k += 1
        while self.rung_value(k) > h * (1.0 + _REL_EPS):
            k -= 1
        return k

    def rung_of(self, h: float) -> Optional[int]:
        """The rung index ``h`` sits on, or None when it is off-grid."""
        if h <= 0.0:
            return None
        k = round(math.log(h / self.h_ref) / self._log_ratio)
        if abs(self.rung_value(k) - h) <= _REL_EPS * h:
            return k
        return None

    # -- controller hooks --------------------------------------------------------------

    @property
    def active_rung(self) -> Optional[int]:
        return self._active

    @property
    def active_value(self) -> Optional[float]:
        """Step size of the active rung, or None before any on-rung step."""
        return None if self._active is None else self.rung_value(self._active)

    def quantize(self, h_proposed: float) -> float:
        """Round a proposal down onto the grid, climbing at most one rung.

        Rounding down keeps the controller's accuracy certificate valid;
        the climb cap keeps the set of visited rungs (and therefore the
        set of factorized Jacobians) small and monotone between events.
        """
        if h_proposed <= 0.0:
            return h_proposed
        k = self._floor_index(min(h_proposed, self.h_max))
        if self._active is not None:
            k = min(k, self._active + 1)
        k = max(self._k_lo, min(k, self._k_hi))
        return self.rung_value(k)

    def snap_retry(self, h_try: float) -> float:
        """Round a rejection-shrunk retry down onto the grid.

        Returns ``h_try`` unchanged when no rung fits below it inside the
        ladder window, so the caller's ``h_min`` / give-up guards behave
        exactly as without the ladder.
        """
        if h_try <= 0.0:
            return h_try
        k = self._floor_index(h_try)
        if k < self._k_lo or k > self._k_hi:
            return h_try
        return self.rung_value(k)

    def observe(self, h_used: float) -> Optional[int]:
        """Record an accepted step; returns its rung when it was on-grid.

        Off-grid steps (breakpoint landings, ``h_min`` emergencies) leave
        the active rung untouched -- that is what lets the run loop resume
        the pre-breakpoint step size instead of compounding from the
        truncated one.
        """
        rung = self.rung_of(h_used)
        if rung is not None and self._k_lo <= rung <= self._k_hi:
            self._active = rung
            return rung
        return None

"""Simulation option containers.

All tunable parameters of the framework live in three small dataclasses so
every integrator, the DC solver and the benchmark harness share the same
vocabulary.  Defaults follow the values quoted in the paper where it gives
them (``epsilon = 1e-7`` for the MEVP convergence criterion, ``alpha = 1/2``
and ``beta = 2`` for step shrinking/growing, ``gamma = 0.1`` for the
correction term) and standard SPICE practice elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

__all__ = ["NewtonOptions", "DCOptions", "SimOptions"]


def _dataclass_to_dict(obj) -> Dict[str, object]:
    """Serialize a (possibly nested) options dataclass into plain builtins."""
    out: Dict[str, object] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if hasattr(value, "to_dict"):
            out[f.name] = value.to_dict()
        elif isinstance(value, list):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _dataclass_from_dict(cls, data: Dict[str, object], nested: Dict[str, type]):
    """Reconstruct ``cls`` from :func:`_dataclass_to_dict` output.

    Unknown keys raise so that typos in serialized option files fail loudly
    instead of silently falling back to defaults.  Nested fields accept
    either an already-built options object or its dict form.
    """
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__}.from_dict expects a dict, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(sorted(map(str, unknown)))}"
        )
    kwargs: Dict[str, object] = {}
    for key, value in data.items():
        if key in nested and isinstance(value, dict):
            kwargs[key] = nested[key].from_dict(value)
        elif isinstance(value, list):
            kwargs[key] = list(value)
        else:
            kwargs[key] = value
    return cls(**kwargs)


@dataclass
class NewtonOptions:
    """Newton-Raphson controls used by BENR / TR / Gear and the DC solver."""

    #: maximum iterations per solve
    max_iterations: int = 50
    #: absolute convergence tolerance on the voltage update [V]
    abstol: float = 1e-6
    #: relative convergence tolerance on the voltage update
    reltol: float = 1e-3
    #: absolute tolerance on the residual (KCL) [A]
    residual_tol: float = 1e-9
    #: damping factor applied to the Newton update when it diverges
    damping: float = 1.0
    #: apply the devices' junction/FET limiting between iterations
    apply_limiting: bool = True

    def validate(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("Newton max_iterations must be at least 1")
        if self.abstol <= 0 or self.reltol <= 0 or self.residual_tol <= 0:
            raise ValueError("Newton tolerances must be positive")
        if not (0.0 < self.damping <= 1.0):
            raise ValueError("Newton damping must lie in (0, 1]")

    def to_dict(self) -> Dict[str, object]:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NewtonOptions":
        options = _dataclass_from_dict(cls, data, nested={})
        options.validate()
        return options


@dataclass
class DCOptions:
    """DC operating point controls."""

    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: gmin stepping ladder (S); used when the plain Newton solve fails
    gmin_steps: List[float] = field(
        default_factory=lambda: [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-12, 0.0]
    )
    #: source stepping ladder (scaling of all excitations), used as a final fallback
    source_steps: List[float] = field(
        default_factory=lambda: [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
    )
    #: skip the DC solve and start from the circuit's ``.ic`` vector
    use_initial_conditions: bool = False

    def to_dict(self) -> Dict[str, object]:
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DCOptions":
        return _dataclass_from_dict(cls, data, nested={"newton": NewtonOptions})


@dataclass
class SimOptions:
    """Transient simulation controls shared by every integration method."""

    #: simulation end time [s]
    t_stop: float = 1e-9
    #: simulation start time [s]
    t_start: float = 0.0
    #: initial step size [s]; defaults to (t_stop - t_start) / 1000
    h_init: Optional[float] = None
    #: smallest step the controller may take [s]
    h_min: Optional[float] = None
    #: largest step the controller may take [s]
    h_max: Optional[float] = None

    # -- exponential integrator controls (Algorithm 2) -----------------------------
    #: error budget ``Err`` of the nonlinear local error estimator (Eq. 15/24)
    err_budget: float = 1e-4
    #: MEVP convergence criterion ``epsilon`` of Algorithm 1
    mevp_tol: float = 1e-7
    #: maximum invert-Krylov subspace dimension
    krylov_max_dim: int = 100
    #: enable the Eq. 16-17 correction term (the ER-C method)
    correction: bool = False
    #: correction-term coefficient ``gamma``
    gamma: float = 0.1
    #: step-shrink factor ``alpha`` applied on rejection
    alpha: float = 0.5
    #: step-growth factor ``beta`` applied after easy steps
    beta: float = 2.0
    #: grow the step when a step needed fewer rejections than this
    grow_when_rejections_below: int = 1
    #: additionally require the error estimate to be below this fraction of
    #: the budget before growing (damps the grow/reject oscillation of the
    #: plain Algorithm 2 controller; set to 1.0 to disable)
    grow_error_fraction: float = 0.25
    #: maximum rejections per step before giving up
    max_rejections: int = 25

    # -- implicit (BENR / TR / Gear) controls ------------------------------------------
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    #: local truncation error tolerances for the low-order controllers
    lte_abstol: float = 1e-6
    lte_reltol: float = 1e-3

    # -- shared numerical safeguards ------------------------------------------------------
    #: uniform shunt conductance to ground added to G (0 disables)
    gshunt: float = 0.0
    #: LU fill-in budget emulating a memory limit (None disables)
    max_factor_nnz: Optional[int] = None

    # -- hot-path caching (repro.core.workspace) ---------------------------------------
    #: reuse constant linearizations and LU factorizations across steps; on
    #: linear circuits this is the "factorize once per run" fast path and
    #: produces bit-identical trajectories (False restores the per-step
    #: re-assembly/re-factorization behaviour)
    cache_linearization: bool = True
    #: ER only: reuse the slope (phi_2) Krylov basis across steps inside
    #: one PWL source segment -- the slope vector is constant there (the
    #: Eq. 14 remark); requires the linearization cache on a linear circuit
    reuse_segment_slope: bool = True
    #: reuse the fill-reducing column ordering across factorizations with
    #: an identical sparsity pattern (symbolic analysis runs once per
    #: pattern, numeric refactorizations are bit-identical to fresh
    #: factorizations); independent of ``cache_linearization``
    reuse_symbolic: bool = True

    # -- cache-aware adaptive stepping (default off; trajectories are
    # -- bit-identical to the plain controller when it is off)
    #: step-controller quantization mode: ``"off"`` keeps the continuous
    #: controller; ``"geometric"`` rounds every proposed step down onto the
    #: grid ``h_ref * 2**k`` anchored at the resolved initial step, so
    #: consecutive steps share one cached ``LU(C/h + G)``
    step_ladder: str = "off"

    # -- output ------------------------------------------------------------------------------
    #: store the full state trajectory (False keeps only observed nodes)
    store_states: bool = True
    #: node names recorded even when ``store_states`` is False
    observe_nodes: List[str] = field(default_factory=list)

    # -- DC ------------------------------------------------------------------------------------
    dc: DCOptions = field(default_factory=DCOptions)

    def __post_init__(self):
        self.validate()

    # -- helpers -----------------------------------------------------------------------

    def validate(self) -> None:
        if self.t_stop <= self.t_start:
            raise ValueError("t_stop must be greater than t_start")
        if self.h_init is not None and self.h_init <= 0:
            raise ValueError("h_init must be positive")
        if self.err_budget <= 0 or self.mevp_tol <= 0:
            raise ValueError("error budgets must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.beta < 1.0:
            raise ValueError("beta must be at least 1")
        if self.krylov_max_dim < 2:
            raise ValueError("krylov_max_dim must be at least 2")
        if self.step_ladder not in ("off", "geometric"):
            raise ValueError("step_ladder must be 'off' or 'geometric'")
        self.newton.validate()

    @property
    def span(self) -> float:
        return self.t_stop - self.t_start

    def resolved_h_init(self) -> float:
        return self.h_init if self.h_init is not None else self.span / 1000.0

    def resolved_h_min(self) -> float:
        return self.h_min if self.h_min is not None else self.span * 1e-12

    def resolved_h_max(self) -> float:
        return self.h_max if self.h_max is not None else self.span / 10.0

    def with_updates(self, **kwargs) -> "SimOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- serialization ----------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Serialize (recursively) into JSON/pickle-friendly builtins.

        ``SimOptions.from_dict(options.to_dict())`` round-trips exactly;
        the campaign scenario layer ships options between processes in this
        form.
        """
        return _dataclass_to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimOptions":
        """Rebuild from :meth:`to_dict` output (validating on construction)."""
        return _dataclass_from_dict(
            cls, data, nested={"newton": NewtonOptions, "dc": DCOptions}
        )

"""Cross-step linearization and LU caching -- the hot-path workspace.

The paper's flagship benchmarks (RC meshes, power grids, coupled
interconnect) are *linear* circuits: ``C``, ``G`` and therefore ``LU(G)``
(and, for the implicit baselines, ``LU(C/h + G)`` at a fixed ``h``) are
constant for the whole transient.  The integrators nevertheless used to
re-assemble and re-factorize on every step, which buried the method
comparison under redundant work.  :class:`LinearizationCache` removes it
with a *linear fast path*: when ``mna.has_nonlinear`` is False the cache
hands out the assembled matrices (with the optional ``gshunt`` applied
exactly once) and reuses one :class:`~repro.linalg.sparse_lu.SparseLU`
per matrix key across all steps.  Shifted systems such as ``C/h + G`` are
keyed by their scalar coefficients, so a factorization is reused until
the step size actually changes.  Results are bit-identical to the
uncached path: the cached objects carry exactly the floats the per-step
assembly would have produced.

There is exactly one reuse rule: a factorization is reused when, on a
linear circuit, the matrix requested under a key is unchanged (the same
object or bit-identical values).  Every other request -- any nonlinear
circuit, any new key, any changed matrix -- is a real factorization.  A
step-size change therefore costs one LU for the implicit methods; keeping
the controller on a few step sizes (``SimOptions.step_ladder``) is how
adaptive runs rehit the per-key LRU instead.  Reuses land in
``LUStats.num_reused`` while ``num_factorizations`` keeps counting only
real numerical work, so the Table-I ``#LU`` column is unchanged in
meaning and the cache's effect is visible in the statistics rather than
hidden by them.

Below the value-keyed LU cache sits a *pattern*-keyed
:class:`~repro.linalg.sparse_lu.SymbolicCache`
(``SimOptions.reuse_symbolic``): when a factorization cannot be avoided
but the sparsity pattern was seen before, the fill-reducing ordering is
reused and only the numeric phase runs.  Such refactorizations stay in
``num_factorizations`` (they are real work) and are additionally tallied
in ``num_symbolic_reuses``; fresh analyses count in ``num_orderings``,
with ``num_factorizations == num_orderings + num_symbolic_reuses``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.circuit.mna import EvalResult, MNASystem
from repro.core.options import SimOptions
from repro.linalg.sparse_lu import LUStats, SparseLU, SymbolicCache, factorize

__all__ = ["LinearizationCache"]

#: cache keys are a tag plus the scalars that parameterize the matrix
CacheKey = Tuple[object, ...]


def _same_values(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    """True when two sparse matrices hold bit-identical values."""
    if a is b:
        return True
    if a.shape != b.shape or a.nnz != b.nnz:
        return False
    a = a.tocsc()
    b = b.tocsc()
    return (
        np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


class LinearizationCache:
    """Per-integrator cache of linearizations and LU factorizations."""

    #: cap on distinct cached (matrix, LU) entries; adaptive step-size
    #: controllers cycle through a handful of ``h`` values at a time, and
    #: eight keeps every rung an oscillating controller revisits
    MAX_ENTRIES = 8

    def __init__(self, mna: MNASystem, options: Optional[SimOptions] = None):
        self.mna = mna
        options = options if options is not None else SimOptions()
        self.enabled = bool(options.cache_linearization)
        self.gshunt = float(options.gshunt)
        #: pattern-keyed symbolic-factorization reuse; orthogonal to the
        #: value-keyed LU cache above it (a fresh factorization with a
        #: reused ordering is still a real, counted factorization)
        self.symbolic: Optional[SymbolicCache] = (
            SymbolicCache() if options.reuse_symbolic else None)
        self._identity = sp.identity(mna.n, format="csc")
        self._shunted_G: Optional[sp.csc_matrix] = None
        self._matrices: "OrderedDict[CacheKey, sp.spmatrix]" = OrderedDict()
        self._lus: "OrderedDict[CacheKey, Tuple[sp.spmatrix, SparseLU]]" = OrderedDict()

    # -- mode ---------------------------------------------------------------------------

    @property
    def reuse_exact(self) -> bool:
        """Linear circuit with the cache enabled: matrices are run constants."""
        return self.enabled and not self.mna.has_nonlinear

    def invalidate(self) -> None:
        """Drop every cached matrix, factorization and symbolic ordering."""
        self._shunted_G = None
        self._matrices.clear()
        self._lus.clear()
        if self.symbolic is not None:
            self.symbolic.clear()

    def _put(self, store: "OrderedDict", key: CacheKey, value) -> None:
        """Insert as most-recent and evict least-recent past the capacity."""
        store[key] = value
        store.move_to_end(key)
        while len(store) > self.MAX_ENTRIES:
            store.popitem(last=False)

    # -- linearization ------------------------------------------------------------------

    def evaluate(self, x: np.ndarray) -> EvalResult:
        """Evaluate the circuit at ``x`` with the optional gshunt applied.

        On the linear fast path the constant ``C`` and ``G`` (gshunt
        included) are assembled once and only the state-dependent vectors
        ``f = G x`` and ``q = C x`` are recomputed -- with exactly the
        arithmetic of the uncached path, so trajectories are bit-identical.
        """
        mna = self.mna
        gshunt = self.gshunt
        if self.reuse_exact:
            x = np.asarray(x, dtype=float)
            if x.shape != (mna.n,):
                raise ValueError(
                    f"state vector must have shape ({mna.n},), got {x.shape}"
                )
            f = np.asarray(mna.G_lin @ x).ravel()
            q = np.asarray(mna.C_lin @ x).ravel()
            if gshunt:
                if self._shunted_G is None:
                    self._shunted_G = (mna.G_lin + gshunt * self._identity).tocsc()
                return EvalResult(C=mna.C_lin, G=self._shunted_G,
                                  f=f + gshunt * x, q=q)
            return EvalResult(C=mna.C_lin, G=mna.G_lin, f=f, q=q)

        ev = mna.evaluate(x)
        if gshunt:
            ev = EvalResult(
                C=ev.C,
                G=(ev.G + gshunt * self._identity).tocsc(),
                f=ev.f + gshunt * x,
                q=ev.q,
            )
        return ev

    # -- assembled-matrix memoization ------------------------------------------------------

    def matrix(self, key: CacheKey, builder: Callable[[], sp.spmatrix]) -> sp.spmatrix:
        """Memoize ``builder()`` under ``key`` on the linear fast path.

        For nonlinear circuits the builder runs every call (its value
        depends on the current state); for linear circuits the assembled
        combination (e.g. ``C/h + G``) is a constant of the key.
        """
        if not self.reuse_exact:
            return builder()
        cached = self._matrices.get(key)
        if cached is None:
            cached = builder()
            self._put(self._matrices, key, cached)
        else:
            self._matrices.move_to_end(key)
        return cached

    # -- factorization reuse ----------------------------------------------------------------

    def lu(
        self,
        key: CacheKey,
        matrix: sp.spmatrix,
        stats: Optional[LUStats] = None,
        max_factor_nnz: Optional[int] = None,
        label: str = "",
    ) -> SparseLU:
        """Return an LU of ``matrix``, reusing the cached factors when valid.

        On the linear fast path, the factorization stored under ``key`` is
        reused when ``matrix`` is unchanged (object identity or
        bit-identical values); the reuse is counted in
        ``stats.num_reused``.  Every other request is a real factorization,
        cached for later reuse on the linear fast path only.
        """
        if self.reuse_exact:
            entry = self._lus.get(key)
            if entry is not None:
                stored, lu = entry
                if _same_values(matrix, stored):
                    self._lus.move_to_end(key)
                    lu.rebind_stats(stats)
                    if stats is not None:
                        stats.num_reused += 1
                    return lu

        lu = factorize(matrix, stats=stats,
                       max_factor_nnz=max_factor_nnz, label=label,
                       symbolic=self.symbolic)
        if self.reuse_exact:
            self._put(self._lus, key, (matrix, lu))
        return lu

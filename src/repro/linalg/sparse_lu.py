"""Instrumented sparse LU factorization.

The central claim of the paper is a *cost model*: BENR pays for repeated
LU factorizations of ``(C/h + G)`` whose factors fill in badly when ``C``
carries post-layout coupling, while the exponential framework only ever
factorizes ``G`` (once per accepted step, reusable across step-size
changes).  To make that cost model observable and testable, every
factorization in this code base goes through :func:`factorize`, which

* counts factorizations and triangular solves,
* records the fill-in (``nnz(L) + nnz(U)``) of every factor,
* accumulates wall-clock time spent factorizing and solving,
* optionally enforces a fill-in budget (``max_factor_nnz``) that emulates
  the 32 GB memory limit which makes BENR fail on the paper's ckt6-ckt8
  ("Out of Memory" rows in Table I).
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LUStats",
    "SparseLU",
    "SymbolicCache",
    "FactorizationBudgetExceeded",
    "factorize",
]


class FactorizationBudgetExceeded(RuntimeError):
    """Raised when an LU factor exceeds the configured fill-in budget.

    This models the paper's "Out of Memory" failure mode of BENR on the
    strongly coupled test cases ckt6-ckt8 in a deterministic, portable way.
    """

    def __init__(self, nnz_factors: int, budget: int, label: str = ""):
        what = f" while factorizing {label}" if label else ""
        super().__init__(
            f"LU factor fill-in {nnz_factors} exceeds budget {budget}{what}"
        )
        self.nnz_factors = nnz_factors
        self.budget = budget
        self.label = label


@dataclass
class LUStats:
    """Counters accumulated across all LU operations of one simulation run.

    ``num_factorizations`` counts *real* factorizations only.  Reuses of a
    cached factor (see :mod:`repro.core.workspace`) are tallied separately
    so the Table-I ``#LU`` column stays an honest measure of the numerical
    work performed: ``num_reused`` counts exact reuses (the matrix is
    bit-identical, e.g. the constant ``G`` of a linear circuit).
    """

    num_factorizations: int = 0
    num_solves: int = 0
    factor_time: float = 0.0
    solve_time: float = 0.0
    #: fill-in nnz(L)+nnz(U) of each factorization, in order
    factor_nnz: List[int] = field(default_factory=list)
    #: cache hits on an unchanged matrix (no numerical work skipped silently)
    num_reused: int = 0
    #: factorizations that computed a fresh fill-reducing ordering
    num_orderings: int = 0
    #: numeric refactorizations that reused a pattern-matched ordering
    num_symbolic_reuses: int = 0

    @property
    def peak_factor_nnz(self) -> int:
        return max(self.factor_nnz) if self.factor_nnz else 0

    @property
    def total_factor_nnz(self) -> int:
        return sum(self.factor_nnz)

    @property
    def num_cache_hits(self) -> int:
        """Total factorizations avoided through reuse (``num_reused``)."""
        return self.num_reused

    def merge(self, other: "LUStats") -> None:
        """Accumulate counters from another stats object in place."""
        self.num_factorizations += other.num_factorizations
        self.num_solves += other.num_solves
        self.factor_time += other.factor_time
        self.solve_time += other.solve_time
        self.factor_nnz.extend(other.factor_nnz)
        self.num_reused += other.num_reused
        self.num_orderings += other.num_orderings
        self.num_symbolic_reuses += other.num_symbolic_reuses

    def as_dict(self) -> dict:
        return {
            "num_factorizations": self.num_factorizations,
            "num_solves": self.num_solves,
            "factor_time": self.factor_time,
            "solve_time": self.solve_time,
            "peak_factor_nnz": self.peak_factor_nnz,
            "total_factor_nnz": self.total_factor_nnz,
            "num_reused": self.num_reused,
            "num_orderings": self.num_orderings,
            "num_symbolic_reuses": self.num_symbolic_reuses,
        }


#: a symbolic-cache key: (shape, nnz, digest of the index structure)
PatternKey = Tuple[Tuple[int, int], int, str]


class SymbolicCache:
    """Pattern-keyed reuse of fill-reducing column orderings.

    SuperLU's COLAMD ordering depends only on the sparsity *pattern* of the
    matrix, yet :func:`scipy.sparse.linalg.splu` recomputes it from scratch
    on every call.  For the implicit methods this is pure waste: every
    ``C/h + G`` Jacobian of a transient shares one pattern, and a step-size
    change re-analyzes a structure that has not moved.  This cache remembers
    the column permutation of the first factorization per pattern; later
    same-pattern matrices are pre-permuted with it and factorized under
    ``permc_spec="NATURAL"``, which skips the ordering phase while producing
    **bit-identical** factors (COLAMD is deterministic in the pattern, so
    pre-applying its permutation and ordering "naturally" is the same
    computation SuperLU would have done).

    Reuses are tallied in ``LUStats.num_symbolic_reuses`` and fresh analyses
    in ``num_orderings``; the accounting invariant
    ``num_factorizations == num_orderings + num_symbolic_reuses`` is checked
    by the verify matrix.
    """

    #: distinct sparsity patterns remembered (one per matrix family is typical)
    MAX_ENTRIES = 8

    def __init__(self, max_entries: int = MAX_ENTRIES):
        self.max_entries = int(max_entries)
        #: pattern key -> inverse column permutation (``inv[perm_c] = 0..n-1``)
        self._orderings: "OrderedDict[PatternKey, np.ndarray]" = OrderedDict()
        #: ``(indptr, indices, key)`` of the last keyed read-only pattern
        self._last: Optional[Tuple[np.ndarray, np.ndarray, PatternKey]] = None

    @staticmethod
    def pattern_key(matrix: sp.csc_matrix) -> PatternKey:
        """Hash the CSC index structure (values excluded) into a cache key."""
        digest = hashlib.blake2b(digest_size=16)
        digest.update(matrix.indptr.tobytes())
        digest.update(matrix.indices.tobytes())
        return (matrix.shape, int(matrix.nnz), digest.hexdigest())

    def key(self, matrix: sp.csc_matrix) -> PatternKey:
        """:meth:`pattern_key`, skipping the hash for the last pattern seen.

        Matrices on one fixed pattern (``MNASystem`` evaluations and
        Newton Jacobians) share read-only ``indptr``/``indices`` arrays.
        Arrays flagged read-only are taken not to change, so their identity
        alone identifies the pattern; writeable ones are always hashed.
        """
        indptr, indices = matrix.indptr, matrix.indices
        last = self._last
        if last is not None and indptr is last[0] and indices is last[1]:
            return last[2]
        key = self.pattern_key(matrix)
        if not (indptr.flags.writeable or indices.flags.writeable):
            self._last = (indptr, indices, key)
        return key

    def lookup(self, key: PatternKey) -> Optional[np.ndarray]:
        """Return the stored inverse column order for ``key``, if any."""
        order = self._orderings.get(key)
        if order is not None:
            self._orderings.move_to_end(key)
        return order

    def store(self, key: PatternKey, perm_c: np.ndarray) -> None:
        """Remember the ordering a fresh factorization just computed."""
        inverse = np.empty_like(perm_c)
        inverse[perm_c] = np.arange(len(perm_c))
        self._orderings[key] = inverse
        self._orderings.move_to_end(key)
        while len(self._orderings) > self.max_entries:
            self._orderings.popitem(last=False)

    def clear(self) -> None:
        self._orderings.clear()

    def __len__(self) -> int:
        return len(self._orderings)


class SparseLU:
    """A factored sparse matrix with instrumented solves.

    When the factorization reused a cached symbolic ordering the factors
    are those of the *column-permuted* matrix; ``column_order`` carries the
    applied permutation and solves transparently un-permute, so callers see
    exactly the solution of the original system.
    """

    def __init__(self, lu: spla.SuperLU, stats: Optional[LUStats], label: str = "",
                 column_order: Optional[np.ndarray] = None):
        self._lu = lu
        self._stats = stats
        self.label = label
        #: SuperLU's own count of stored factor entries (supernodal storage,
        #: a few percent above the mathematical nnz(L)+nnz(U)).  Reading it
        #: is free; materializing ``lu.L``/``lu.U`` for the exact split
        #: costs O(fill) memory per factorization, which at 100k nodes is
        #: a gigabyte-scale transient -- so the split is lazy below.
        self._nnz_factors = int(lu.nnz)
        self._nnz_L: Optional[int] = None
        self._nnz_U: Optional[int] = None
        #: inverse column permutation applied before factorization (symbolic
        #: reuse), or None for a plain factorization
        self.column_order = column_order
        #: True when this factorization skipped the ordering phase
        self.reused_symbolic = column_order is not None

    @property
    def nnz_factors(self) -> int:
        """Stored non-zeros of the L and U factors (the Fig. 1 quantity).

        This is SuperLU's storage count, which includes supernodal padding;
        it is what the factorization actually allocates, and it is identical
        between a fresh ordering and a symbolic-reuse refactorization of the
        same pattern.
        """
        return self._nnz_factors

    @property
    def nnz_L(self) -> int:
        """Exact non-zeros of L; materializes the factor on first access."""
        if self._nnz_L is None:
            self._nnz_L = int(self._lu.L.nnz)
        return self._nnz_L

    @property
    def nnz_U(self) -> int:
        """Exact non-zeros of U; materializes the factor on first access."""
        if self._nnz_U is None:
            self._nnz_U = int(self._lu.U.nnz)
        return self._nnz_U

    @property
    def shape(self) -> tuple:
        return self._lu.shape

    def rebind_stats(self, stats: Optional[LUStats]) -> None:
        """Attribute future solves to ``stats``.

        A factorization cached across steps (or runs) must charge its
        triangular solves to the statistics of the run that *uses* it, not
        the run that created it; the cache layer rebinds on every reuse.
        """
        self._stats = stats

    def _unpermute(self, y: np.ndarray) -> np.ndarray:
        """Map the permuted-system solution back to original column order."""
        if self.column_order is None:
            return y
        x = np.empty_like(y)
        x[self.column_order] = y
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` using the stored factors."""
        start = time.perf_counter()
        x = self._unpermute(self._lu.solve(np.asarray(b, dtype=float)))
        if self._stats is not None:
            self._stats.num_solves += 1
            self._stats.solve_time += time.perf_counter() - start
        return x

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides stacked as columns."""
        start = time.perf_counter()
        x = self._unpermute(self._lu.solve(np.asarray(B, dtype=float)))
        if self._stats is not None:
            self._stats.num_solves += B.shape[1] if B.ndim == 2 else 1
            self._stats.solve_time += time.perf_counter() - start
        return x

    def __repr__(self) -> str:
        return f"SparseLU(shape={self.shape}, nnz_factors={self.nnz_factors}, label={self.label!r})"


def factorize(
    matrix: sp.spmatrix,
    stats: Optional[LUStats] = None,
    max_factor_nnz: Optional[int] = None,
    label: str = "",
    symbolic: Optional[SymbolicCache] = None,
) -> SparseLU:
    """LU-factorize a sparse matrix with instrumentation.

    Parameters
    ----------
    matrix:
        Square sparse matrix.
    stats:
        Optional :class:`LUStats` accumulator owned by the simulation run.
    max_factor_nnz:
        If given, raise :class:`FactorizationBudgetExceeded` when
        ``nnz(L) + nnz(U)`` exceeds this budget (the "Out of Memory"
        emulation used by the Table I benchmark harness).
    label:
        Human-readable tag (e.g. ``"G"`` or ``"C/h+G"``) used in error
        messages and reports.
    symbolic:
        Optional :class:`SymbolicCache`.  When the matrix's sparsity
        pattern is already known to the cache, the fill-reducing ordering
        is reused and only the numeric phase runs (bit-identical factors
        and solutions); otherwise the ordering computed here is stored for
        future same-pattern matrices.  Every call still counts as a real
        factorization in ``stats.num_factorizations``.
    """
    matrix = matrix.tocsc()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"cannot LU-factorize non-square matrix of shape {matrix.shape}")

    start = time.perf_counter()
    column_order = None
    pattern = None
    if symbolic is not None:
        pattern = symbolic.key(matrix)
        column_order = symbolic.lookup(pattern)
    try:
        if column_order is not None:
            lu = spla.splu(matrix[:, column_order].tocsc(), permc_spec="NATURAL")
        else:
            lu = spla.splu(matrix)
    except RuntimeError as exc:  # singular matrix
        raise np.linalg.LinAlgError(
            f"sparse LU factorization failed for {label or 'matrix'}: {exc}"
        ) from exc
    elapsed = time.perf_counter() - start

    if column_order is None and symbolic is not None:
        symbolic.store(pattern, lu.perm_c)
    wrapped = SparseLU(lu, stats, label=label, column_order=column_order)
    if stats is not None:
        stats.num_factorizations += 1
        stats.factor_time += elapsed
        stats.factor_nnz.append(wrapped.nnz_factors)
        if column_order is not None:
            stats.num_symbolic_reuses += 1
        else:
            stats.num_orderings += 1
    if max_factor_nnz is not None and wrapped.nnz_factors > max_factor_nnz:
        raise FactorizationBudgetExceeded(wrapped.nnz_factors, max_factor_nnz, label=label)
    return wrapped

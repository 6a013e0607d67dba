"""Unit tests for the instrumented LU wrapper (repro.linalg.sparse_lu)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg.sparse_lu import (
    FactorizationBudgetExceeded,
    LUStats,
    SymbolicCache,
    factorize,
)


def spd_matrix(n=20, seed=0):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.2, random_state=np.random.RandomState(seed)).tocsc()
    return (A + A.T + n * sp.identity(n)).tocsc()


class TestFactorizeSolve:
    def test_solve_matches_dense(self):
        A = spd_matrix()
        lu = factorize(A)
        b = np.arange(A.shape[0], dtype=float)
        x = lu.solve(b)
        np.testing.assert_allclose(A @ x, b, atol=1e-10)

    def test_solve_many(self):
        A = spd_matrix()
        lu = factorize(A)
        B = np.random.default_rng(1).standard_normal((A.shape[0], 3))
        X = lu.solve_many(B)
        np.testing.assert_allclose(A @ X, B, atol=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            factorize(sp.random(4, 5, density=0.5).tocsc())

    def test_singular_matrix_raises_linalgerror(self):
        A = sp.csc_matrix((5, 5))
        with pytest.raises(np.linalg.LinAlgError):
            factorize(A)

    def test_nnz_factors_positive(self):
        lu = factorize(spd_matrix())
        n = spd_matrix().shape[0]
        assert lu.nnz_factors >= n
        # the storage count includes supernodal padding, so it dominates
        # the exact (lazily materialized) per-factor split
        assert n <= lu.nnz_L + lu.nnz_U
        assert lu.nnz_factors >= max(lu.nnz_L, lu.nnz_U)


class TestStats:
    def test_counters_accumulate(self):
        stats = LUStats()
        A = spd_matrix()
        lu = factorize(A, stats=stats)
        lu.solve(np.ones(A.shape[0]))
        lu.solve(np.ones(A.shape[0]))
        factorize(A, stats=stats)
        assert stats.num_factorizations == 2
        assert stats.num_solves == 2
        assert len(stats.factor_nnz) == 2
        assert stats.peak_factor_nnz == max(stats.factor_nnz)
        assert stats.total_factor_nnz == sum(stats.factor_nnz)
        assert stats.factor_time >= 0.0

    def test_merge(self):
        a, b = LUStats(), LUStats()
        factorize(spd_matrix(), stats=a)
        factorize(spd_matrix(), stats=b)
        a.merge(b)
        assert a.num_factorizations == 2
        assert len(a.factor_nnz) == 2

    def test_as_dict_keys(self):
        stats = LUStats()
        factorize(spd_matrix(), stats=stats)
        d = stats.as_dict()
        assert set(d) == {
            "num_factorizations", "num_solves", "factor_time", "solve_time",
            "peak_factor_nnz", "total_factor_nnz", "num_reused",
            "num_orderings", "num_symbolic_reuses",
        }

    def test_empty_stats(self):
        stats = LUStats()
        assert stats.peak_factor_nnz == 0
        assert stats.total_factor_nnz == 0


class TestSymbolicCache:
    """Pattern-keyed ordering reuse must be invisible numerically."""

    def test_reuse_produces_bit_identical_factors_and_solutions(self):
        A = spd_matrix(40, seed=3)
        # same pattern, different values: scale the non-zeros
        B = A.copy()
        B.data = B.data * 1.7 + 0.1

        cache = SymbolicCache()
        stats = LUStats()
        lu_fresh_b = factorize(B, stats=stats)           # reference, no cache
        lu_a = factorize(A, stats=stats, symbolic=cache)  # analyzes + stores
        lu_b = factorize(B, stats=stats, symbolic=cache)  # reuses the ordering

        assert not lu_a.reused_symbolic
        assert lu_b.reused_symbolic
        # identical fill: pre-permuting with COLAMD's own permutation and
        # ordering "naturally" is the same computation SuperLU would run
        assert lu_b.nnz_factors == lu_fresh_b.nnz_factors

        b = np.arange(A.shape[0], dtype=float)
        np.testing.assert_array_equal(lu_b.solve(b), lu_fresh_b.solve(b))
        rhs = np.random.default_rng(7).standard_normal((A.shape[0], 3))
        np.testing.assert_array_equal(lu_b.solve_many(rhs),
                                      lu_fresh_b.solve_many(rhs))

    def test_accounting_counters(self):
        cache = SymbolicCache()
        stats = LUStats()
        A = spd_matrix(25, seed=4)
        for _ in range(4):
            factorize(A, stats=stats, symbolic=cache)
        assert stats.num_factorizations == 4
        assert stats.num_orderings == 1
        assert stats.num_symbolic_reuses == 3
        assert stats.num_factorizations == \
            stats.num_orderings + stats.num_symbolic_reuses

    def test_different_pattern_misses(self):
        cache = SymbolicCache()
        stats = LUStats()
        factorize(spd_matrix(25, seed=4), stats=stats, symbolic=cache)
        factorize(spd_matrix(25, seed=5), stats=stats, symbolic=cache)
        assert stats.num_orderings == 2
        assert stats.num_symbolic_reuses == 0
        assert len(cache) == 2

    def test_lru_eviction_bounds_the_cache(self):
        cache = SymbolicCache(max_entries=2)
        stats = LUStats()
        matrices = [spd_matrix(20, seed=s) for s in range(3)]
        for A in matrices:
            factorize(A, stats=stats, symbolic=cache)
        assert len(cache) == 2
        # the oldest pattern was evicted: factorizing it again re-analyzes
        factorize(matrices[0], stats=stats, symbolic=cache)
        assert stats.num_orderings == 4
        assert stats.num_symbolic_reuses == 0

    def test_clear(self):
        cache = SymbolicCache()
        factorize(spd_matrix(20), symbolic=cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestBudget:
    def test_budget_exceeded_raises(self):
        A = spd_matrix(50, seed=2)
        with pytest.raises(FactorizationBudgetExceeded) as info:
            factorize(A, max_factor_nnz=10, label="C/h+G")
        assert info.value.budget == 10
        assert info.value.nnz_factors > 10
        assert "C/h+G" in str(info.value)

    def test_budget_not_exceeded_passes(self):
        A = spd_matrix(10)
        lu = factorize(A, max_factor_nnz=10_000)
        assert lu.nnz_factors <= 10_000

    def test_stats_still_recorded_when_budget_exceeded(self):
        stats = LUStats()
        with pytest.raises(FactorizationBudgetExceeded):
            factorize(spd_matrix(50, seed=2), stats=stats, max_factor_nnz=10)
        assert stats.num_factorizations == 1

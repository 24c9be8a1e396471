import pytest

from linsep import bounds as bd
from linsep.errors import NotCovered, ShapeMismatch, Unsupported


def P(K, N, N_r, K_c):
    return bd.Params(K=K, N=N, N_r=N_r, K_c=K_c)


def test_params_validation():
    with pytest.raises(ShapeMismatch):
        P(6, 3, 4, 1)
    with pytest.raises(ShapeMismatch):
        P(6, 3, 2, 7)


def test_binom_convention():
    assert bd.binom(-1, 0) == 0
    assert bd.binom(3, -1) == 0
    assert bd.binom(2, 3) == 0
    assert bd.binom(5, 2) == 10


# ---------------------------------------------------------------------------
# Frozen examples
# ---------------------------------------------------------------------------


def test_converse_examples():
    assert bd.converse_cost(P(6, 3, 2, 4)) == 4
    for n in (3, 4, 5):
        for n_r in range(1, n + 1):
            for k_c in range(1, n_r + 1):
                assert bd.converse_cost(P(n, n, n_r, k_c)) == n_r
    assert bd.converse_cost(P(12, 4, 3, 3)) == 6
    with pytest.raises(Unsupported):
        bd.converse_cost(P(7, 3, 2, 2))


def test_achievable_examples():
    assert bd.achievable_cost(P(9, 3, 2, 2)) == 4
    assert bd.achievable_cost(P(3, 3, 2, 3)) == 3
    assert bd.achievable_cost(P(6, 3, 2, 4)) == 4
    with pytest.raises(Unsupported):
        bd.achievable_cost(P(7, 3, 2, 2))


def test_achievable_general_hand_evaluated():
    assert bd.achievable_cost_general(P(7, 3, 2, 2)) == 4
    assert bd.achievable_cost_general(P(7, 3, 2, 5)) == 6
    assert bd.achievable_cost_general(P(7, 3, 2, 7)) == 7
    # Delegates on divisible K.
    assert bd.achievable_cost_general(P(6, 3, 2, 4)) == 4


def test_optimality_examples():
    v = bd.optimality_class(P(3, 3, 2, 2))
    assert (v.converse, v.achievable, v.status) == (2, 2, bd.OPTIMAL)
    v = bd.optimality_class(P(12, 4, 3, 3))
    assert (v.converse, v.achievable, v.status) == (6, 9, bd.CYCLIC_OPTIMAL)
    for K, N, k_c in ((6, 3, 1), (6, 3, 5), (12, 4, 7)):
        v = bd.optimality_class(P(K, N, 1, k_c))
        assert v.status == bd.OPTIMAL and v.achievable == k_c
    v = bd.optimality_class(P(7, 3, 2, 5))
    assert v.status == bd.OPEN and v.converse == 5 and v.achievable == 6


def test_corollary_piecewise_values():
    assert bd.edge_threshold_cost(P(9, 3, 2, 4)) == 6  # K_c in (K/N : 2K/N] -> 2K/N
    assert bd.edge_threshold_cost(P(9, 3, 3, 5)) == 9  # N_r=N, K_c in (K/N : K] -> K
    assert bd.edge_threshold_cost(P(9, 3, 1, 7)) == 7
    with pytest.raises(NotCovered):
        bd.edge_threshold_cost(P(12, 4, 3, 2))
    with pytest.raises(Unsupported, match="closed forms stated only for N dividing K"):
        bd.edge_threshold_cost(P(7, 3, 2, 2))


def test_computation_costs_examples():
    assert bd.computation_costs(P(6, 3, 2, 1)) == (4, 4)
    m_min, m_1 = bd.computation_costs(P(3, 6, 4, 1))
    assert m_1 == 2 and m_min == 2
    assert bd.computation_costs(P(12, 4, 3, 1)) == (6, 6)
    # a=1, b=1, r=3: M_min = 3 + ceil(3/4) = 4 and M_1 = 3 + ceil(3/4) = 4.
    assert bd.computation_costs(P(5, 4, 2, 1)) == (4, 4)


def test_computation_costs_m1_can_exceed_minimum():
    # K=5, N=3, N_r=2: a=1, b=2, r=2 -> M_min = 2 + ceil(4/3) = 4,
    # M_1 = 2 + ceil(2/floor(3/2)) = 4; pick a case with a real gap:
    # K=7, N=5, N_r=2: a=1, b=2, r=4 -> M_min = 4 + ceil(8/5) = 6,
    # M_1 = 4 + ceil(4/2) = 6; and K=9, N=7, N_r=2: r=6, a=1, b=2:
    # M_min = 6 + ceil(12/7) = 8, M_1 = 6 + ceil(6/3) = 8.
    # Gap example: K=4, N=3, N_r=3: r=1, a=1, b=1 -> M_min = 1+1 = 2, M_1 = 1+1 = 2.
    # Exhaustively confirm M_1 >= M_min on a grid instead of hand-picking.
    found_gap = False
    for n in range(2, 9):
        for k in range(1, 3 * n + 1):
            for n_r in range(1, n + 1):
                p = P(k, n, n_r, 1)
                m_min, m_1 = bd.computation_costs(p)
                assert m_1 >= m_min
                found_gap = found_gap or m_1 > m_min
    assert found_gap


# ---------------------------------------------------------------------------
# Grid invariants
# ---------------------------------------------------------------------------


def grid_points(n_max=8):
    for n in range(2, n_max + 1):
        for k in (n, 2 * n, 3 * n):
            for n_r in range(1, n + 1):
                for k_c in range(1, k + 1):
                    yield P(k, n, n_r, k_c)


def test_converse_never_exceeds_achievable():
    for p in grid_points():
        assert bd.converse_cost(p) <= bd.achievable_cost(p)


def test_equality_in_every_claimed_optimal_regime():
    from math import ceil

    for p in grid_points():
        v = bd.optimality_class(p)
        # optimal exactly when the bounds meet
        assert (v.status == bd.OPTIMAL) == (v.converse == v.achievable)
        # the three closed-form regimes always land in the optimal class
        threshold = ceil(p.K / bd.binom(p.N, p.N - p.N_r + 1))
        if p.K == p.N or p.K_c <= threshold or p.K_c >= (p.K // p.N) * p.N_r:
            assert v.status == bd.OPTIMAL


def test_small_worker_counts_always_optimal():
    # Every point with N <= 3 or N_r in {1, 2, N} has a proven exact cost.
    for p in grid_points(n_max=3):
        assert bd.optimality_class(p).status == bd.OPTIMAL


def test_corollary_matches_achievable_where_defined():
    for p in grid_points():
        if p.N_r in (1, 2, p.N):
            assert bd.edge_threshold_cost(p) == bd.achievable_cost(p)


def test_achievable_monotone_in_k_c_and_above_cutset():
    for n in range(2, 9):
        for k in (n, 2 * n, 3 * n):
            for n_r in range(1, n + 1):
                costs = [bd.achievable_cost(P(k, n, n_r, kc)) for kc in range(1, k + 1)]
                assert all(x <= y for x, y in zip(costs, costs[1:]))
                assert all(c >= kc for kc, c in enumerate(costs, start=1))

"""Closed-form communication-cost bounds and optimality classification.

All costs are exact integers (the formulas are integral in every covered
regime); no floating point is used anywhere.  Binomials follow the convention
C(x, y) = 0 when x < 0, y < 0, or x < y.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, floor

from .errors import NotCovered, ShapeMismatch, Unsupported

OPTIMAL = "optimal"
CYCLIC_OPTIMAL = "cyclic-optimal"
OPEN = "open"


def binom(x: int, y: int) -> int:
    if x < 0 or y < 0 or x < y:
        return 0
    return comb(x, y)


@dataclass(frozen=True)
class Params:
    """Problem size: K datasets, N workers, any-N_r recovery, K_c combinations."""

    K: int
    N: int
    N_r: int
    K_c: int

    def __post_init__(self):
        if self.K < 1 or self.N < 1:
            raise ShapeMismatch("K and N must be positive")
        if not (1 <= self.N_r <= self.N):
            raise ShapeMismatch(f"need 1 <= N_r <= N, got N_r={self.N_r}, N={self.N}")
        if not (1 <= self.K_c <= self.K):
            raise ShapeMismatch(f"need 1 <= K_c <= K, got K_c={self.K_c}, K={self.K}")

    @property
    def a(self) -> int:
        return self.K // self.N

    @property
    def b(self) -> int:
        return self.K % self.N

    @property
    def divisible(self) -> bool:
        return self.b == 0


@dataclass(frozen=True)
class CostVerdict:
    converse: int
    achievable: int
    status: str

    def __post_init__(self):
        assert self.converse <= self.achievable


def _threshold(p: Params) -> int:
    # Largest K_c for which N_r * K_c is a converse bound.
    return ceil(p.K / binom(p.N, p.N - p.N_r + 1))


def converse_cost(p: Params) -> int:
    """Lower bound on the communication cost (stated for N | K)."""
    if not p.divisible:
        raise Unsupported("converse is stated only for N dividing K")
    t = _threshold(p)
    if p.K_c <= t:
        return p.N_r * p.K_c
    return max(p.N_r * t, p.K_c)


def achievable_cost(p: Params) -> int:
    """Cost achieved by the cyclic-assignment scheme (N | K)."""
    if not p.divisible:
        raise Unsupported("use achievable_cost_general when N does not divide K")
    return achievable_cost_general(p)


def achievable_cost_general(p: Params) -> int:
    """Cost achieved by the virtual-slot extension for any K, N.

    With N | K both roundings of K/N equal K/N: the cyclic scheme's cost.
    """
    lo, hi = floor(p.K / p.N), ceil(p.K / p.N)
    if p.K_c <= lo:
        return p.N_r * p.K_c
    if p.K_c <= hi * p.N_r:
        return hi * p.N_r
    return p.K_c


def optimality_class(p: Params) -> CostVerdict:
    """Converse, achievable cost, and whether they provably meet.

    ``optimal``: the scheme meets the converse (K = N, or K_c at most the
    converse threshold, or K_c at least (K/N)N_r).  ``cyclic-optimal``: the
    scheme is optimal among cyclic assignments but the general gap is open.
    Non-dividing K is classified ``open`` with only the cut-set converse.
    """
    if not p.divisible:
        return CostVerdict(
            converse=p.K_c, achievable=achievable_cost_general(p), status=OPEN
        )
    ach = achievable_cost(p)
    con = converse_cost(p)
    # The three closed-form optimal regimes (K = N, K_c at most the converse
    # threshold, K_c at least (K/N)N_r) all force con == ach; the bounds can
    # also meet incidentally (e.g. every point with N <= 3), and the scheme
    # is equally optimal there.
    if con == ach:
        return CostVerdict(converse=con, achievable=ach, status=OPTIMAL)
    return CostVerdict(converse=con, achievable=ach, status=CYCLIC_OPTIMAL)


def edge_threshold_cost(p: Params) -> int:
    """Exact minimum cost for N_r in {1, 2, N} (N | K)."""
    if not p.divisible:
        raise Unsupported("closed forms stated only for N dividing K")
    per = p.K // p.N
    if p.N_r == 1:
        return p.K_c
    if p.N_r == 2:
        if p.K_c <= per:
            return 2 * p.K_c
        if p.K_c <= 2 * per:
            return 2 * per
        return p.K_c
    if p.N_r == p.N:
        if p.K_c <= per:
            return p.N * p.K_c
        return p.K
    raise NotCovered(f"N_r={p.N_r} not in {{1, 2, N}}")


def computation_costs(p: Params) -> tuple[int, int]:
    """(M_min, M_1): minimum datasets per worker, and the cyclic-friendly cost.

    M_min = a(N-N_r+1) + ceil((b/N)(N-N_r+1)); M_1 replaces the second term by
    ceil((N-N_r+1)/floor(N/b)) and equals M_min when b = 0.  M_1 may exceed
    M_min; callers that care should compare the two.
    """
    r = p.N - p.N_r + 1
    m_min = p.a * r + ceil(p.b * r / p.N)
    if p.b == 0:
        return m_min, m_min
    m_1 = p.a * r + ceil(r / floor(p.N / p.b))
    return m_min, m_1

"""Dataset-to-worker assignments.

Dataset and worker indices are 1-based.  The cyclic rule, which the general
assignment applies on its effective slots and the builder on the columns a
worker misses, is stated once, by ``cyclic_holds``: worker n holds dataset k
exactly when (k - n) mod N <= N - N_r, so dataset k goes to the N - N_r + 1
workers k, k - 1, ..., k - N + N_r, counted mod N in [1..N].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil, comb, floor

import numpy as np

from .errors import ShapeMismatch, UnsupportedGroupedParams, UseGeneralAssignment

CYCLIC = "cyclic"
GENERAL_VIRTUAL = "general-virtual"
GROUPED = "grouped"


def cyclic_holds(K: int, N: int, N_r: int) -> np.ndarray:
    """The cyclic rule as an (N, K) mask: entry [n - 1, k - 1] is whether
    worker n holds dataset k, that is, whether (k - n) mod N <= N - N_r."""
    return (np.arange(K) - np.arange(N)[:, None]) % N <= N - N_r


def _sets(held: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The Z sets of an (N, K) holding mask: each row's 1-based true columns."""
    return tuple(tuple(k for k, h in enumerate(row, 1) if h) for row in held.tolist())


def _check_threshold(N: int, N_r: int) -> None:
    if not (1 <= N_r <= N):
        raise ShapeMismatch(f"need 1 <= N_r <= N, got N_r={N_r}, N={N}")


@dataclass(frozen=True)
class Assignment:
    """Per-worker dataset index sets plus replication metadata.

    ``z[n-1]`` is the sorted tuple of dataset indices assigned to worker n.
    For the general (virtual-slot) kind, ``effective_k`` is the padded slot
    count N*ceil(K/N) and ``slot_of_dataset[k-1]`` is the effective slot
    holding real dataset k.
    """

    K: int
    N: int
    N_r: int
    kind: str
    z: tuple[tuple[int, ...], ...]
    effective_k: int = 0
    slot_of_dataset: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_threshold(self.N, self.N_r)
        if len(self.z) != self.N:
            raise ShapeMismatch("one dataset set per worker required")


@dataclass(frozen=True)
class GroupedAssignment(Assignment):
    """Assignment partitioned into groups H_T, one per 2-subset T of workers."""

    groups: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = field(default=())


def cyclic_assignment(K: int, N: int, N_r: int) -> Assignment:
    """The cyclic assignment of ``cyclic_holds``, for N dividing K."""
    _check_threshold(N, N_r)
    if K % N != 0:
        raise UseGeneralAssignment(f"N={N} does not divide K={K}")
    return Assignment(K=K, N=N, N_r=N_r, kind=CYCLIC, z=_sets(cyclic_holds(K, N, N_r)))


def allocate_real_slots(N: int, b: int) -> tuple[int, ...]:
    """Slots (within [1..N]) for b real datasets among N cyclic slots.

    Decomposes N-b into b parts p_1 <= ... <= p_b, each floor((N-b)/b) or
    ceil((N-b)/b), with the first alpha = b*ceil((N-b)/b) - (N-b) parts equal
    to the floor; real slot j is 1 + (j-1) + p_1 + ... + p_{j-1}.  Consecutive
    real slots are then at least floor(N/b) apart.
    """
    if not (1 <= b < N):
        raise ShapeMismatch(f"need 1 <= b < N, got b={b}, N={N}")
    rem = N - b
    alpha = b * ceil(rem / b) - rem
    parts = [floor(rem / b)] * alpha + [ceil(rem / b)] * (b - alpha)
    slots = []
    pos = 1
    for j in range(b):
        slots.append(pos)
        pos += 1 + parts[j]
    return tuple(slots)


def general_assignment(K: int, N: int, N_r: int) -> Assignment:
    """Assignment for K = aN + b with b >= 1, via N - b virtual slots.

    Datasets [1..aN] follow the plain cyclic rule.  The trailing b datasets
    are placed on slots chosen by ``allocate_real_slots`` inside one extra
    cyclic block of N effective slots, which caps the number of trailing real
    datasets per worker at ceil((N-N_r+1)/floor(N/b)).  Each dataset is held
    as the cyclic rule holds its slot.
    """
    _check_threshold(N, N_r)
    b = K % N
    if b == 0:
        return cyclic_assignment(K, N, N_r)
    a = K // N
    k_eff = (a + 1) * N
    tail_slots = allocate_real_slots(N, b)
    slot_of = tuple(range(1, a * N + 1)) + tuple(a * N + s for s in tail_slots)
    held = cyclic_holds(k_eff, N, N_r)[:, np.array(slot_of) - 1]
    return Assignment(
        K=K,
        N=N,
        N_r=N_r,
        kind=GENERAL_VIRTUAL,
        z=_sets(held),
        effective_k=k_eff,
        slot_of_dataset=slot_of,
    )


def grouped_assignment(K: int, N: int, N_r: int) -> GroupedAssignment:
    """Partition datasets into (N choose 2) groups, one per 2-subset of workers.

    Supported only for N - N_r + 1 == 2 with (N choose 2) dividing K; the
    2-subsets are enumerated in lexicographic order and dataset indices fill
    the groups consecutively.
    """
    _check_threshold(N, N_r)
    if N - N_r + 1 != 2:
        raise UnsupportedGroupedParams(
            f"grouped assignment needs N - N_r + 1 == 2, got N={N}, N_r={N_r}"
        )
    n_groups = comb(N, 2)
    if K % n_groups != 0:
        raise UnsupportedGroupedParams(f"{n_groups} groups do not divide K={K}")
    size = K // n_groups
    groups = []
    nxt = 1
    for t in combinations(range(1, N + 1), 2):
        groups.append((t, tuple(range(nxt, nxt + size))))
        nxt += size
    z = []
    for n in range(1, N + 1):
        mine: list[int] = []
        for t, members in groups:
            if n in t:
                mine.extend(members)
        z.append(tuple(sorted(mine)))
    return GroupedAssignment(
        K=K, N=N, N_r=N_r, kind=GROUPED, z=tuple(z), groups=tuple(groups)
    )

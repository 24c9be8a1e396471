from math import ceil, comb, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import replication, unique_group, validate_replication, workers_holding
from linsep import assignment as asg
from linsep.errors import ShapeMismatch, UnsupportedGroupedParams, UseGeneralAssignment


# ---------------------------------------------------------------------------
# Cyclic assignment
# ---------------------------------------------------------------------------


def test_cyclic_6_3_2_table():
    a = asg.cyclic_assignment(6, 3, 2)
    assert a.z == ((1, 2, 4, 5), (2, 3, 5, 6), (1, 3, 4, 6))


def test_cyclic_single_dataset_per_worker_when_no_stragglers_tolerated():
    a = asg.cyclic_assignment(3, 3, 3)
    assert a.z == ((1,), (2,), (3,))


def test_cyclic_4_workers_two_straggler_table():
    # Classic 4-worker table with 3 datasets per worker: tolerates 2 stragglers.
    a = asg.cyclic_assignment(4, 4, 2)
    assert a.z == ((1, 2, 3), (2, 3, 4), (1, 3, 4), (1, 2, 4))


def test_cyclic_minimal_load_per_worker():
    a = asg.cyclic_assignment(4, 4, 3)
    assert a.z == ((1, 2), (2, 3), (3, 4), (1, 4))
    for zn in a.z:
        assert len(zn) == (4 // 4) * (4 - 3 + 1)


def test_cyclic_rejects_non_dividing_K():
    with pytest.raises(UseGeneralAssignment):
        asg.cyclic_assignment(7, 3, 2)


def test_a_threshold_outside_1_to_N_or_a_wrong_set_count_is_refused():
    for n_r in (0, 4):
        with pytest.raises(ShapeMismatch, match=f"need 1 <= N_r <= N, got N_r={n_r}, N=3"):
            asg.cyclic_assignment(6, 3, n_r)
    with pytest.raises(ShapeMismatch, match="one dataset set per worker required"):
        asg.Assignment(K=3, N=3, N_r=2, kind=asg.CYCLIC, z=((1, 2), (2, 3)))


def mod1(b, a):
    """The paper's modulo into [1..a]: mod1(b, a) == a whenever a divides b."""
    return (b - 1) % a + 1


def assert_paper_rule(K, N, N_r):
    """The placement is the paper's formula: the cyclic rule puts slot s on
    workers mod1(s, N), ..., mod1(s - N + N_r, N), and the assignment puts
    dataset k where its slot is, which is slot k when N divides K."""
    def workers(s):
        return {mod1(s - i, N) for i in range(N - N_r + 1)}

    mask = asg.cyclic_holds(K, N, N_r)
    assert mask.shape == (N, K)
    for s in range(1, K + 1):
        assert {n for n in range(1, N + 1) if mask[n - 1, s - 1]} == workers(s)
    a = asg.general_assignment(K, N, N_r)
    slots = a.slot_of_dataset or range(1, K + 1)
    for k, s in enumerate(slots, start=1):
        assert set(workers_holding(a, k)) == workers(s)
    assert sum(len(zn) for zn in a.z) == K * (N - N_r + 1)
    if K % N == 0:
        assert a.kind == asg.CYCLIC
        assert all(len(zn) == (K // N) * (N - N_r + 1) for zn in a.z)


@pytest.mark.parametrize("K,N,N_r", [(6, 3, 2), (12, 4, 3), (12, 6, 4), (8, 4, 1), (10, 5, 5)])
def test_cyclic_holder_identity_and_total_load(K, N, N_r):
    assert_paper_rule(K, N, N_r)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.integers(1, 5 * n), st.just(n), st.integers(1, n))
))
def test_every_placement_up_to_12_workers_is_the_papers_formula(point):
    # K/N <= 5; a K that N does not divide runs on virtual slots.
    assert_paper_rule(*point)


# ---------------------------------------------------------------------------
# General K via virtual slots
# ---------------------------------------------------------------------------


def test_allocate_real_slots_hand_evaluated():
    # N=7, b=3: N-b=4 splits as (1,1,2) with alpha=2, so slots 1, 3, 5.
    assert asg.allocate_real_slots(7, 3) == (1, 3, 5)
    for b in (0, 3):
        with pytest.raises(ShapeMismatch, match=f"need 1 <= b < N, got b={b}, N=3"):
            asg.allocate_real_slots(3, b)
    # N=6, b=3: parts (1,1,1), slots 1, 3, 5.
    assert asg.allocate_real_slots(6, 3) == (1, 3, 5)


def test_general_3_6_4_real_slots_and_loads():
    a = asg.general_assignment(3, 6, 4)
    assert a.kind == asg.GENERAL_VIRTUAL
    assert a.slot_of_dataset == (1, 3, 5)
    assert a.effective_k == 6
    for zn in a.z:
        assert len(zn) <= 2  # ceil((N-N_r+1)/floor(N/b)) = ceil(3/2)
    rep = validate_replication(a)
    assert rep.violations == ()


def test_general_delegates_when_divisible():
    assert asg.general_assignment(6, 3, 2) == asg.cyclic_assignment(6, 3, 2)


def test_real_slot_gaps():
    for n in range(3, 12):
        for b in range(1, n):
            slots = asg.allocate_real_slots(n, b)
            assert len(slots) == b and slots[0] == 1 and slots[-1] <= n
            gaps = [t - s for s, t in zip(slots, slots[1:])]
            assert all(g >= floor((n - b) / b) + 1 for g in gaps)


@pytest.mark.parametrize("K,N,N_r", [(7, 3, 2), (3, 6, 4), (11, 4, 2), (5, 4, 3), (13, 5, 4)])
def test_general_trailing_real_count_bound(K, N, N_r):
    a = asg.general_assignment(K, N, N_r)
    b = K % N
    a_full = K // N
    bound = a_full * (N - N_r + 1) + ceil((N - N_r + 1) / floor(N / b))
    for zn in a.z:
        assert len(zn) <= bound
    assert validate_replication(a).violations == ()


# ---------------------------------------------------------------------------
# Grouped assignment
# ---------------------------------------------------------------------------


def test_grouped_12_4_3_groups_and_loads():
    g = asg.grouped_assignment(12, 4, 3)
    assert dict(g.groups) == {
        (1, 2): (1, 2),
        (1, 3): (3, 4),
        (1, 4): (5, 6),
        (2, 3): (7, 8),
        (2, 4): (9, 10),
        (3, 4): (11, 12),
    }
    assert g.z[0] == (1, 2, 3, 4, 5, 6)
    assert all(len(zn) == 6 for zn in g.z)
    for k in range(1, 13):
        assert replication(g, k) == 2


def test_grouped_singleton_groups():
    g = asg.grouped_assignment(6, 4, 3)
    assert all(len(members) == 1 for _, members in g.groups)
    assert all(len(zn) == 3 for zn in g.z)
    assert validate_replication(g).violations == ()


def test_grouped_rejects_unsupported_shapes():
    with pytest.raises(UnsupportedGroupedParams):
        asg.grouped_assignment(12, 4, 2)  # N - N_r + 1 = 3
    with pytest.raises(UnsupportedGroupedParams):
        asg.grouped_assignment(10, 4, 3)  # 6 groups don't divide 10


# ---------------------------------------------------------------------------
# Unique groups and replication checks
# ---------------------------------------------------------------------------


def test_unique_group_cyclic():
    a = asg.cyclic_assignment(6, 3, 2)
    assert unique_group(a, (1, 2)) == (2, 5)
    assert unique_group(a, (1, 3)) == (1, 4)
    assert unique_group(a, (2, 3)) == (3, 6)


def test_unique_group_grouped():
    g = asg.grouped_assignment(12, 4, 3)
    assert unique_group(g, (3, 4)) == (11, 12)


def test_unique_group_requires_right_cardinality():
    a = asg.cyclic_assignment(6, 3, 2)
    with pytest.raises(ShapeMismatch):
        unique_group(a, (1, 2, 3))


def test_validate_replication_cyclic_ok():
    rep = validate_replication(asg.cyclic_assignment(6, 3, 2))
    assert rep.violations == ()
    assert rep.storage_ok is True
    assert rep.ok


def test_validate_replication_flags_dropped_dataset():
    base = asg.cyclic_assignment(6, 3, 2)
    z = list(base.z)
    z[2] = tuple(k for k in z[2] if k != 1)  # drop dataset 1 from worker 3
    broken = asg.Assignment(K=6, N=3, N_r=2, kind="cyclic", z=tuple(z))
    rep = validate_replication(broken)
    assert rep.violations == (1,)
    assert not rep.ok


@pytest.mark.parametrize("N", range(2, 9))
def test_storage_constraint_enumeration(N):
    for n_r in range(1, N + 1):
        for mult in (1, 2):
            a = asg.cyclic_assignment(mult * N, N, n_r)
            rep = validate_replication(a)
            assert rep.storage_ok is True


def test_grouped_sum_of_loads():
    g = asg.grouped_assignment(12, 4, 3)
    assert sum(len(zn) for zn in g.z) == 12 * 2

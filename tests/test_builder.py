from collections import Counter
from itertools import combinations
from math import comb, gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grouped_by_tag, in_row_span, not_assigned, reconstruction_stack, ref_rank
from linsep import builder as bl
from linsep import field as fl
from linsep.assignment import cyclic_assignment, general_assignment, grouped_assignment
from linsep.errors import (
    BadMessageLength,
    GroupedSolveFailed,
    ShapeMismatch,
    UnsupportedGroupedParams,
)

FQ = fl.Field()
Q = FQ.q

# Fixed 4x6 demand used by the worked 3-worker, 2-responder example.
DEMAND_4x6 = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5, 6],
    [1, 0, 2, 3, 5, 4],
    [1, 2, 1, 4, 4, 0],
]

# Fixed 3x12 demand used by the worked grouped example.
DEMAND_3x12 = [
    [1] * 12,
    list(range(1, 13)),
    [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10],
]


def fe(num: int, den: int = 1) -> int:
    """num/den as a canonical field element."""
    return num * pow(den, Q - 2, Q) % Q


def middle_4x6():
    return bl.build_scheme(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2)
    )


def assert_code_orthogonal(s):
    """In every sub-problem, every worker's code rows annihilate the padded
    demand columns it misses on the cyclic assignment of the stack's width."""
    a = cyclic_assignment(s.padded.shape[2], s.params.N, s.params.N_r)
    for padded, code in zip(s.padded, s.code):
        for n in range(1, a.N + 1):
            missing = padded[:, [c - 1 for c in not_assigned(a, n)]]
            prod = fl.mat_mul(fl.FMatrix(FQ, code[n - 1]), fl.FMatrix(FQ, missing))
            assert not prod.array.any()


# ---------------------------------------------------------------------------
# Middle regime
# ---------------------------------------------------------------------------


def test_middle_worker1_span_contains_known_vectors():
    s = middle_4x6()
    rows = s.code[0, 0].tolist()
    for vec in ([-6, 1, 0, 3], [0, -2, 3, 0]):
        assert in_row_span([x % Q for x in vec], rows, Q)
    # and in message coefficients: (-6,1,0,3) F = (-2,2,0,10,11,0)
    msg = s.encoder(1).to_lists()
    target = [x % Q for x in (-2, 2, 0, 10, 11, 0)]
    assert in_row_span(target, msg, Q)


def test_middle_three_worker_k_equals_n_code_row():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    row = s.encoder(1).to_lists()[0]
    # single row proportional to (2, 1, 0)
    assert s.encoder(1).rows == 1
    assert row[2] == 0 and row[0] == 2 * row[1] % Q != 0


def test_middle_orthogonality_and_computability():
    for seed in range(5):
        for k, n, n_r, k_c in ((6, 3, 2, 4), (6, 3, 2, 2), (8, 4, 3, 5), (12, 4, 2, 3)):
            a = cyclic_assignment(k, n, n_r)
            f_mat = bl.random_demand(k_c, k, FQ, seed=fl.derive_seed(seed, k, n, n_r, k_c))
            s = bl.build_scheme(f_mat, a, padding_seed=seed)
            assert_code_orthogonal(s)
            assert s.code.shape == (1, n, k // n, k // n * n_r)
            for worker in range(1, n + 1):
                held = set(a.z[worker - 1])
                for row in s.encoder(worker).to_lists():
                    support = {i + 1 for i, x in enumerate(row) if x}
                    assert support <= held


def test_middle_row_count_and_padding():
    s = middle_4x6()
    assert s.code.shape == (1, 3, 2, 4)
    assert s.padding_rows == 0
    f_small = bl.demand_from_rows(FQ, DEMAND_4x6[:2])
    s2 = bl.build_scheme(f_small, cyclic_assignment(6, 3, 2), padding_seed=1)
    assert s2.padding_rows == 2 and s2.padded.shape == (1, 4, 6)
    assert s2.padded[0, :2].tolist() == DEMAND_4x6[:2]


def test_middle_identity_code_when_single_responder_suffices():
    # N_r = 1: every worker holds everything and sends unit task rows.
    f_mat = bl.random_demand(2, 6, FQ, seed=3)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 1))
    for rows in s.code[0]:
        assert fl.FMatrix(FQ, rows) == fl.identity(2, FQ)


def test_middle_single_column_support_when_all_must_respond():
    # K = N, N_r = N, K_c = 1: each worker's combination touches only its own
    # message.
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 3), padding_seed=2)
    for worker in (1, 2, 3):
        row = s.encoder(worker).to_lists()[0]
        support = {i + 1 for i, x in enumerate(row) if x}
        assert support == {worker}


def test_k_c_outside_the_middle_range_builds_small_or_large():
    a = cyclic_assignment(6, 3, 2)  # K/N = 2, t = 4
    regimes = [
        bl.build_scheme(bl.random_demand(k_c, 6, FQ, 0), a).regime for k_c in range(1, 7)
    ]
    assert regimes == ["small", "middle", "middle", "middle", "large", "large"]


def test_middle_flags_degenerate_demand():
    # Demand with a zero column block: null spaces get too big.
    rows = [[0, 0, 1, 1, 0, 0], [0, 0, 2, 5, 0, 0], [0, 0, 3, 1, 0, 0], [0, 0, 1, 9, 0, 0]]
    s = bl.build_scheme(bl.demand_from_rows(FQ, rows), cyclic_assignment(6, 3, 2))
    assert s.degenerate


# ---------------------------------------------------------------------------
# Small regime
# ---------------------------------------------------------------------------


def test_small_aggregated_message_weights():
    f_mat = bl.demand_from_rows(FQ, [[1] * 9, list(range(1, 10))])
    a = cyclic_assignment(9, 3, 2)
    s = bl.build_scheme(f_mat, a, padding_seed=0)
    # Sub-problem j's row carries demand row j's weights on every group
    # a worker holds: second combination, first group W_1 + 4 W_4 + 7 W_7;
    # first combination, second group W_2 + W_5 + W_8.
    for j, group, weights in ((1, (1, 4, 7), (1, 4, 7)), (0, (2, 5, 8), (1, 1, 1))):
        holders = [n for n in (1, 2, 3) if set(group) <= set(a.z[n - 1])]
        assert len(holders) == 2
        for n in holders:
            row = s.encoder(n).array[j, [k - 1 for k in group]]
            assert row[0] and row.tolist() == [row[0] * x % Q for x in weights]
    # two one-row sub-problems, each the all-ones row over one padding row
    assert s.padded.shape == (2, 2, 3) and s.padding_rows == 1
    assert (s.padded[:, 0] == 1).all() and s.code.shape == (2, 3, 1, 2)


def test_small_single_row_all_ones_is_identity_aggregation():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1]])
    # K = N means the aggregates are the messages themselves; K_c must stay
    # below K/N so use K = 2N with per-group pairs instead.
    f_mat = bl.demand_from_rows(FQ, [[1] * 6])
    a = cyclic_assignment(6, 3, 2)
    s = bl.build_scheme(f_mat, a, padding_seed=0)
    # weight 1 on both messages of every aggregate: W_n and W_{n+3}
    for n in (1, 2, 3):
        row = s.encoder(n).array[0]
        assert row[:3].tolist() == row[3:].tolist()
        assert {k + 1 for k in np.flatnonzero(row)} == set(a.z[n - 1])


def test_small_range_ends_below_k_over_n():
    a = cyclic_assignment(9, 3, 2)  # K/N = 3
    regimes = [
        bl.build_scheme(bl.random_demand(k_c, 9, FQ, 0), a).regime for k_c in (2, 3)
    ]
    assert regimes == ["small", "middle"]


# ---------------------------------------------------------------------------
# Large regime
# ---------------------------------------------------------------------------


def test_large_split_counts_and_subdemands():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    assert s.mds.split_count == 2 and s.mds.code_length == 3
    assert s.mds.subsets == ((1, 2), (1, 3), (2, 3))
    assert s.padded[2].tolist() == [[1, 2, 3], [1, 4, 9]]  # subset {2, 3}
    assert s.padding_rows == 0 and s.code.shape == (3, 3, 1, 2)
    assert s.params.L == 2  # default: one symbol per sub-message


def test_large_reconstruction_stacks_invertible():
    f_mat = bl.random_demand(5, 6, FQ, seed=8)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    assert s.mds.split_count == comb(4, 3) and s.mds.code_length == comb(5, 4)
    for j in range(1, 6):
        stack = reconstruction_stack(s.mds, j, FQ)
        assert fl.rank(stack) == s.mds.split_count


def test_any_m_generator_vectors_independent():
    f_mat = bl.random_demand(6, 6, FQ, seed=9)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    m = s.mds.split_count
    vectors = s.mds.generator_rows(np.arange(1, s.mds.code_length + 1), FQ)
    for chosen in combinations(range(s.mds.code_length), m):
        assert fl.rank(fl.FMatrix(FQ, vectors[list(chosen)])) == m


@st.composite
def _large_points(draw):
    """(K, N, N_r, K_c) with 1 <= t < K_c <= 40, t = (K/N) N_r."""
    k_c = draw(st.integers(2, 40))
    t = draw(st.integers(1, k_c - 1))
    n_r = draw(st.sampled_from([d for d in range(1, t + 1) if t % d == 0]))
    per = t // n_r
    n = max(n_r, -(-k_c // per))
    return per * n, n, n_r, k_c


@settings(max_examples=150, deadline=None)
@given(_large_points())
def test_cyclic_design_is_regular_at_cost_k_c(point):
    k, n, n_r, k_c = point
    s = bl.build_auto(bl.random_demand(k_c, k, FQ, k_c), n, n_r)
    t, m, design = k // n * n_r, s.mds.split_count, s.mds.subsets
    g = gcd(k_c, t)
    assert s.regime == "large" and design == bl.cyclic_design(k_c, t)
    assert len(design) == k_c // g and len(set(design)) == len(design)
    assert all(len(w) == t and set(w) <= set(range(1, k_c + 1)) for w in design)
    assert Counter(j for w in design for j in w) == {j: t // g for j in range(1, k_c + 1)}
    assert len(design) * t == k_c * m and m == t // g
    assert bl.expected_cost(s) == k_c
    assert comb(k_c - 1, t - 1) % (t // g) == 0  # every old -L stays valid


def test_cyclic_design_is_the_complete_design_at_k_c_t_plus_1():
    for t in range(1, 9):
        assert bl.cyclic_design(t + 1, t) == tuple(combinations(range(1, t + 2), t))
    assert bl.cyclic_design(6, 4) == ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6))


def test_explicit_three_symbol_code_is_valid():
    # The classic (3, 2) choice: symbols W_1, W_2, W_1 + W_2.
    vectors = [[1, 0], [0, 1], [1, 1]]
    for pair in combinations(vectors, 2):
        assert ref_rank(list(pair), Q) == 2


def test_large_boundary_and_message_length_errors():
    a = cyclic_assignment(3, 3, 2)
    # K_c == (K/N)N_r is the last middle point
    assert bl.build_scheme(bl.random_demand(2, 3, FQ, 0), a).regime == "middle"
    # 0, -2 and -8 are multiples of the split count 2; only L >= 1 rules them out.
    for length in (3, 0, -2, -8):
        with pytest.raises(BadMessageLength):
            bl.build_scheme(bl.random_demand(3, 3, FQ, 0), a, l_symbols=length)


def test_a_demand_of_the_wrong_shape_is_refused():
    with pytest.raises(ShapeMismatch, match="need 1 <= K_c <= K, got 3 x 2 demand"):
        bl.DemandMatrix(fl.FMatrix(FQ, np.ones((3, 2), dtype=np.int64)))
    with pytest.raises(ShapeMismatch, match="demand width disagrees with the assignment"):
        bl.build_scheme(bl.random_demand(2, 6, FQ, 0), cyclic_assignment(9, 3, 2))


def test_boundary_point_routes_to_middle():
    # K_c = K = N with N_r = N sits on the regime boundary: split count
    # would be C(N-1, N-1) = 1, and the dispatcher keeps it in the middle
    # regime outright.
    f_mat = bl.random_demand(3, 3, FQ, seed=4)
    s = bl.build_auto(f_mat, 3, 3)
    assert s.regime == "middle"
    assert comb(f_mat.k_c - 1, 3 - 1) == 1 and comb(f_mat.k_c, 3) == 1


# ---------------------------------------------------------------------------
# Grouped scheme
# ---------------------------------------------------------------------------


def grouped_example():
    return bl.build_grouped(
        bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3)
    )


def test_grouped_null_vectors_match_worked_example():
    s = grouped_example()
    expected = {
        (1, 2): (-2, 1, 1),
        (1, 3): (-6, 1, 1),
        (1, 4): (-28, 4, 1),
        (2, 3): (6, -1, 1),
        (2, 4): (-54, 5, 1),
        (3, 4): (50, -5, 1),
    }
    by_tag = grouped_by_tag(s)
    assert list(by_tag) == list(expected)  # the arrays run in lex tag order
    for tag, vec in expected.items():
        assert by_tag[tag][0] == [x % Q for x in vec]


def test_grouped_pair_combination_coefficients():
    s = grouped_example()
    assert s.grouped.combined[0].tolist() == [0, 0, 4, 4, 11, 8, 6, 8, 16, 12, 14, 20]


def test_grouped_propagated_coefficients_match_worked_example():
    s = grouped_example()
    # worker 1 rows: tags (2,3), (2,4), (3,4)
    r = s.grouped.rows[0].tolist()
    assert [r[0][4], r[0][5]] == [fe(54), fe(44)]      # x1, x2
    assert [r[1][2], r[1][3]] == [fe(32), fe(28)]      # x3, x4
    assert [r[2][0], r[2][1]] == [fe(-42), fe(-40)]    # x5, x6
    # worker 2 rows: tags (1,3), (1,4), (3,4)
    r = s.grouped.rows[1].tolist()
    assert [r[1][6], r[1][7]] == [fe(-11), fe(-29, 2)]   # x7, x8
    assert [r[0][8], r[0][9]] == [fe(-89, 10), fe(-7)]   # x9, x10
    assert [r[2][0], r[2][1]] == [fe(88), fe(80)]        # x11, x12
    # worker 3 rows: tags (1,2), (1,4), (2,4)
    r = s.grouped.rows[2].tolist()
    assert [r[0][10], r[0][11]] == [fe(6), fe(192, 25)]  # x13, x14
    assert [r[1][6], r[1][7]] == [fe(12), fe(41, 2)]     # x15, x16
    assert [r[2][2], r[2][3]] == [fe(-68), fe(-60)]      # x17, x18
    # worker 4 rows: tags (1,2), (1,3), (2,3)
    r = s.grouped.rows[3].tolist()
    assert [r[0][10], r[0][11]] == [fe(8), fe(308, 25)]  # x19, x20
    assert [r[1][8], r[1][9]] == [fe(418, 20), fe(15)]   # x21, x22
    assert [r[2][4], r[2][5]] == [fe(-45), fe(-40)]      # x23, x24


def test_grouped_rank_and_pair_sums():
    s = grouped_example()
    assert s.grouped.relations[0].tolist() == [1, 1]  # worker 1: row 3 = row 1 + row 2
    for n in range(1, 5):
        rows = s.grouped.rows[n - 1]
        assert fl.rank(fl.FMatrix(FQ, rows)) == 2
        assert fl.rank(fl.FMatrix(FQ, rows[:2])) == 2
        a, b = s.grouped.relations[n - 1].tolist()
        assert ((a * rows[0] + b * rows[1]) % Q == rows[2]).all()
        for row in rows.tolist():
            assert {i + 1 for i, x in enumerate(row) if x} <= set(s.assignment.z[n - 1])
    # every pair's two shares add to the combination of the complement
    combined = grouped_by_tag(s)
    for s1, s2 in combinations((1, 2, 3, 4), 2):
        tag = tuple(x for x in (1, 2, 3, 4) if x not in (s1, s2))
        row1 = grouped_by_tag(s, s1)[tag][0]
        row2 = grouped_by_tag(s, s2)[tag][0]
        assert [(x + y) % Q for x, y in zip(row1, row2)] == combined[tag][1]


def test_grouped_rejects_wrong_shapes():
    g = grouped_assignment(12, 4, 3)
    with pytest.raises(UnsupportedGroupedParams):
        bl.build_grouped(bl.random_demand(4, 12, FQ, 0), g)  # K_c != K/N
    with pytest.raises(UnsupportedGroupedParams, match="needs K_c = K/N, got 2"):
        bl.build_grouped(bl.random_demand(2, 6, FQ, 0), grouped_assignment(6, 4, 3))
    # K/N = 4.5: its floor 4 is not K_c.
    with pytest.raises(UnsupportedGroupedParams, match="needs K_c = K/N, got 4"):
        bl.build_grouped(bl.random_demand(4, 18, FQ, 0), grouped_assignment(18, 4, 3))
    with pytest.raises(UnsupportedGroupedParams, match="groups of K_c - 1 datasets, got 4"):
        bl.build_grouped(bl.random_demand(6, 24, FQ, 0), grouped_assignment(24, 4, 3))
    with pytest.raises(UnsupportedGroupedParams, match="built for 4 workers, N_r=3"):
        bl.build_grouped(bl.random_demand(2, 6, FQ, 0), grouped_assignment(6, 3, 2))


def test_every_group_block_has_a_left_null_vector():
    """Each group's demand block is K_c x (K_c - 1), so its nullity is at
    least 1 for any demand; a built scheme's u_T annihilates it."""
    g = grouped_assignment(12, 4, 3)
    demands = [bl.demand_from_rows(FQ, DEMAND_3x12), bl.demand_from_rows(FQ, [[0] * 12] * 3)]
    demands += [bl.random_demand(3, 12, f, seed) for f in (FQ, fl.Field(7)) for seed in range(10)]
    for demand in demands:
        arr, q = demand.matrix.array, demand.field.q
        blocks = [arr[:, [k - 1 for k in members]] for _, members in g.groups]
        assert all(b.shape == (3, 2) and 3 - ref_rank(b.tolist(), q) >= 1 for b in blocks)
        try:
            nulls = bl.build_grouped(demand, g).grouped.null_vectors
        except GroupedSolveFailed:
            continue
        for u, b in zip(nulls, blocks):
            assert u.any() and not (u @ b % q).any()


def test_grouped_success_rate_over_random_demands():
    ok = 0
    for seed in range(20):
        try:
            bl.build_grouped(
                bl.random_demand(3, 12, FQ, fl.derive_seed(seed, "grouped-rate")),
                grouped_assignment(12, 4, 3),
            )
            ok += 1
        except GroupedSolveFailed:
            pass
    assert ok == 20  # empirical: generic demands always propagate at this modulus


def test_grouped_failures_at_small_q_name_their_step():
    # The demands of the grouped digest in test_byte_identity, at q = 7.
    outcomes = Counter()
    for seed in range(40):
        demand = bl.random_demand(3, 12, fl.Field(7), fl.derive_seed(seed, "grouped-digest"))
        try:
            bl.build_grouped(demand, grouped_assignment(12, 4, 3))
            outcomes["built"] += 1
        except GroupedSolveFailed as exc:
            outcomes[str(exc)] += 1
    assert outcomes == {
        "built": 14,
        "worker 2: rank system is singular": 9,
        "worker 2: zero combination weight": 16,
        "worker 3: zero combination weight": 1,
    }


# ---------------------------------------------------------------------------
# General K (virtual slots)
# ---------------------------------------------------------------------------


def test_general_scheme_shapes_and_orthogonality():
    f_mat = bl.random_demand(5, 7, FQ, seed=12)
    a = general_assignment(7, 3, 2)
    s = bl.build_scheme(f_mat, a, padding_seed=3, virtual_seed=4)
    assert s.regime == "middle" and s.effective_demand is not None
    assert s.assignment.effective_k == 9
    eff = s.effective_demand
    # real columns embed the original demand
    for k, slot in enumerate(s.assignment.slot_of_dataset, start=1):
        assert list(eff.array[:, slot - 1]) == list(f_mat.matrix.array[:, k - 1])
    assert_code_orthogonal(s)


@pytest.mark.parametrize("k,n_r,k_c,regime,subproblems", [
    (9, 2, 2, "small", 2),
    (6, 2, 4, "middle", 1),
    (6, 2, 5, "large", 5),
    (7, 2, 1, "small", 1),
    (7, 2, 5, "middle", 1),
    (7, 2, 7, "large", 7),
])
def test_code_annihilates_the_missed_columns_in_every_regime(k, n_r, k_c, regime, subproblems):
    # K = 7 on N = 3 workers runs on 9 effective slots.
    s = bl.build_auto(bl.random_demand(k_c, k, FQ, seed=k), 3, n_r, padding_seed=1, virtual_seed=2)
    assert (s.regime, len(s.padded)) == (regime, subproblems)
    assert (s.effective_demand is not None) == (k % 3 != 0)
    assert_code_orthogonal(s)


def test_general_real_slot_placement_3_6_4():
    f_mat = bl.random_demand(3, 3, FQ, seed=13)
    s = bl.build_auto(f_mat, 6, 4, padding_seed=1, virtual_seed=1)
    assert s.assignment.slot_of_dataset == (1, 3, 5)
    assert all(len(zn) <= 2 for zn in s.assignment.z)


# ---------------------------------------------------------------------------
# Adversarial fixtures
# ---------------------------------------------------------------------------


def test_fixture_zero_pattern():
    base = cyclic_assignment(4, 4, 3)
    fx = bl.adversarial_fixture(4, 4, 3, (1, 2, 4), seed=6)
    arr = fx.matrix.array
    for i, worker in enumerate((1, 2, 4)):
        missing = set(not_assigned(base, worker))
        for col in range(1, 5):
            if col in missing:
                assert arr[i, col - 1] == 0
            else:
                assert arr[i, col - 1] != 0


def test_fixture_identity_code_for_designated_responders():
    for n in (3, 4, 5):
        resp = tuple(range(1, n))
        fx = bl.adversarial_fixture(n, n, n - 1, resp, seed=7)
        s = bl.build_scheme(fx, cyclic_assignment(n, n, n - 1))
        stack = fl.FMatrix(FQ, np.vstack([s.code[0, w - 1] for w in resp]))
        assert stack == fl.identity(n - 1, FQ)


def test_fixture_block_diagonal_for_double_size():
    fx = bl.adversarial_fixture(8, 4, 3, (1, 2, 3), seed=8)
    arr = fx.matrix.array
    assert arr.shape == (6, 8)
    assert not arr[:3, 4:].any() and not arr[3:, :4].any()


def test_fixture_rejects_bad_arguments():
    with pytest.raises(ShapeMismatch):
        bl.adversarial_fixture(7, 3, 2, (1, 2), seed=0)
    with pytest.raises(ShapeMismatch):
        bl.adversarial_fixture(6, 3, 2, (1, 1), seed=0)

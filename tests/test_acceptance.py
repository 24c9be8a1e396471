"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line once all of its
assertions hold (run with ``pytest tests/test_acceptance.py -v -s``).  All
equality checks are exact over the prime field; no tolerances anywhere.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest

from conftest import in_row_span, not_assigned, reconstruction_stack, ref_matmul
from linsep import bounds as bd
from linsep import builder as bl
from linsep import codec as cd
from linsep import field as fl
from linsep import harness as hn
from linsep.assignment import cyclic_assignment, general_assignment, grouped_assignment

FQ = fl.Field()
Q = FQ.q
assert Q == 2**31 - 1

DEMAND_4x6 = [
    [1, 1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5, 6],
    [1, 0, 2, 3, 5, 4],
    [1, 2, 1, 4, 4, 0],
]
DEMAND_2x9 = [[1] * 9, list(range(1, 10))]
DEMAND_3x3 = [[1, 1, 1], [1, 2, 3], [1, 4, 9]]
DEMAND_3x12 = [
    [1] * 12,
    list(range(1, 13)),
    [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10],
]


def fe(num, den=1):
    return num * pow(den, Q - 2, Q) % Q


def _decode_all_subsets(scheme, demand, w):
    """Decode every responder subset; returns the common cost, asserting
    success and exact agreement with the direct product."""
    want = fl.mat_mul(demand.matrix, w.w)
    costs = set()
    for a_set in combinations(range(1, scheme.params.N + 1), scheme.params.N_r):
        rep = cd.decode(scheme, [cd.encode_worker(scheme, n, w) for n in a_set])
        assert rep.success, (a_set, rep.detail)
        assert rep.recovered == want
        costs.add(rep.cost)
    assert len(costs) == 1
    return costs.pop()


def _pass(ident, message):
    print(f"\nACCEPTANCE {ident}: PASS - {message}")


# -- criterion 1: worked-example reproduction -------------------------------


def test_acceptance_1_worked_examples():
    # (K, N, N_r, K_c) = (6, 3, 2, 4): two null-space rows per worker.
    demand = bl.demand_from_rows(FQ, DEMAND_4x6)
    scheme = bl.build_scheme(demand, cyclic_assignment(6, 3, 2))
    w = cd.random_messages(6, 4, FQ, seed=101)
    assert _decode_all_subsets(scheme, demand, w) == 4
    rows = scheme.code[0, 0].tolist()
    for vec in ([-6, 1, 0, 3], [0, -2, 3, 0]):
        assert in_row_span([x % Q for x in vec], rows, Q)

    # (9, 3, 2, 2): aggregated messages; combination 2 folds group 1 as
    # W_1 + 4 W_4 + 7 W_7, so a worker holding group 1 sends a nonzero
    # multiple of it in its row of sub-problem 2.
    demand = bl.demand_from_rows(FQ, DEMAND_2x9)
    a = cyclic_assignment(9, 3, 2)
    scheme = bl.build_scheme(demand, a, padding_seed=7)
    holders = [n for n in (1, 2, 3) if {1, 4, 7} <= set(a.z[n - 1])]
    assert holders == [1, 3]
    for n in holders:
        c, *rest = scheme.encoder(n).array[1, [0, 3, 6]].tolist()
        assert c and rest == [4 * c % Q, 7 * c % Q]
    w = cd.random_messages(9, 2, FQ, seed=102)
    assert _decode_all_subsets(scheme, demand, w) == 4

    # (3, 3, 2, 3): split messages; every reconstruction stack invertible.
    demand = bl.demand_from_rows(FQ, DEMAND_3x3)
    scheme = bl.build_scheme(demand, cyclic_assignment(3, 3, 2))
    for j in (1, 2, 3):
        stack = reconstruction_stack(scheme.windows, j, FQ)
        fl.inverse(stack)  # raises if singular
    w = cd.random_messages(3, 4, FQ, seed=103)
    assert _decode_all_subsets(scheme, demand, w) == 3

    # (12, 4, 3, 3): grouped scheme beats the cyclic one, 6 versus 9.
    demand = bl.demand_from_rows(FQ, DEMAND_3x12)
    scheme = bl.build_grouped(demand, grouped_assignment(12, 4, 3))
    u12 = scheme.grouped.combined[0].tolist()
    assert u12 == [0, 0, 4, 4, 11, 8, 6, 8, 16, 12, 14, 20]
    w1, w2 = scheme.grouped.rows[:2].tolist()
    assert [w1[2][0], w1[2][1]] == [fe(-42), fe(-40)]  # x5, x6
    assert [w2[2][0], w2[2][1]] == [fe(88), fe(80)]    # x11, x12
    w = cd.random_messages(12, 2, FQ, seed=104)
    assert _decode_all_subsets(scheme, demand, w) == 6
    cyclic_scheme = bl.build_scheme(demand, cyclic_assignment(12, 4, 3), padding_seed=5)
    assert _decode_all_subsets(cyclic_scheme, demand, w) == 9

    _pass(1, "all four worked examples reproduced exactly")


# -- criterion 2: bound formulas over the full grid -------------------------


def test_acceptance_2_bound_grid():
    mismatches = 0
    for n in range(2, 7):
        for k in (n, 2 * n, 3 * n):
            for n_r in range(1, n + 1):
                for k_c in range(1, k + 1):
                    p = bd.Params(K=k, N=n, N_r=n_r, K_c=k_c)
                    con = bd.converse_cost(p)
                    ach = bd.achievable_cost(p)
                    if con > ach:
                        mismatches += 1
                    threshold = ceil(k / bd.binom(n, n - n_r + 1))
                    in_closed_form = (
                        k == n or k_c <= threshold or k_c >= (k // n) * n_r
                    )
                    if in_closed_form and con != ach:
                        mismatches += 1
                    if n_r in (1, 2, n) and bd.edge_threshold_cost(p) != ach:
                        mismatches += 1
    assert mismatches == 0
    _pass(2, "bound grid N=2..6 exact: converse <= achievable, closed forms met")


# -- criterion 3: empirical decodability ------------------------------------


@pytest.mark.slow
def test_acceptance_3_empirical_decodability():
    # 50 uniform demands per grid point at q = 2^31 - 1, every responder
    # subset checked exactly.  Schemes with more than 16 coded sub-problems
    # are verified on a seeded sample of 16 (their count, K_c/gcd(K_c, t)
    # windows, reaches 17 on this grid).
    started = time.time()
    failures = []
    for n in range(2, 7):
        for k in (n, 2 * n, 3 * n):
            for n_r in range(1, n + 1):
                for k_c in range(1, k + 1):
                    for trial in range(50):
                        seed = fl.derive_seed(2024, n, k, n_r, k_c, trial)
                        demand = bl.random_demand(k_c, k, FQ, seed)
                        scheme = bl.build_auto(
                            demand, n, n_r, padding_seed=fl.derive_seed(seed, "pad")
                        )
                        bad = cd.verify_decodability(
                            scheme, subproblem_cap=16, seed=seed
                        )
                        if bad:
                            failures.append((n, k, n_r, k_c, trial, seed, bad))
    elapsed = time.time() - started
    assert not failures, failures[:5]
    assert elapsed < 300, f"decodability sweep took {elapsed:.0f}s"
    _pass(3, f"27000 random schemes, zero decode failures ({elapsed:.0f}s)")


# -- criterion 4: structured demand fixtures --------------------------------


def test_acceptance_4_structured_fixtures():
    for n in (3, 4, 5):
        resp = tuple(range(1, n))  # N_r = n - 1 designated responders
        fixture = bl.adversarial_fixture(n, n, n - 1, resp, seed=11)
        scheme = bl.build_scheme(fixture, cyclic_assignment(n, n, n - 1))
        stack = fl.FMatrix(FQ, scheme.code[0, [w - 1 for w in resp]].reshape(n - 1, -1))
        assert stack == fl.identity(n - 1, FQ)
    for n, n_r in ((3, 2), (4, 3)):
        fixture = bl.adversarial_fixture(2 * n, n, n_r, tuple(range(1, n_r + 1)), seed=12)
        arr = fixture.matrix.array
        assert not arr[:n_r, n:].any() and not arr[n_r:, :n].any()
        scheme = bl.build_scheme(fixture, cyclic_assignment(2 * n, n, n_r))
        assert cd.verify_decodability(scheme) == []
    _pass(4, "zero-pattern fixtures give unit stacks; block-diagonal decodable")


# -- criterion 5: non-generic demand and full-recovery fallback -------------


def test_acceptance_5_bad_demand_fallback():
    demand = bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]])
    a = cyclic_assignment(3, 3, 2)
    scheme = bl.build_scheme(demand, a)
    assert cd.verify_decodability(scheme) == [(1, 3)]
    fallback = cd.fallback_full_recovery(demand, a, 2, seed=13)
    assert cd.verify_decodability(fallback) == []
    w = cd.random_messages(3, 2, FQ, seed=105)
    assert _decode_all_subsets(fallback, demand, w) == 3
    _pass(5, "verifier isolates {1,3}; fallback recovers everywhere at cost 3")


# -- criterion 6: extra combinations at no extra cost ------------------------


def test_acceptance_6_extra_combinations_free():
    for n in (3, 4, 5):
        for n_r in range(1, n + 1):
            report = hn.kc_for_free_check(n, n_r, trials=3, seed=14)
            assert report["ok"], report
            for k_c, cost in report["costs"].items():
                assert cost == (n_r if k_c <= n_r else k_c)
    _pass(6, "cost flat at N_r through K_c = N_r, jumps to K_c after")


# -- criterion 7: worker counts that do not divide the data ------------------


def test_acceptance_7_general_worker_counts():
    a = general_assignment(3, 6, 4)
    assert a.slot_of_dataset == (1, 3, 5)
    assert all(len(zn) <= 2 for zn in a.z)

    for k_c, want_cost in ((2, 4), (5, 6), (7, 7)):
        for trial in range(20):
            seed = fl.derive_seed(15, k_c, trial)
            cfg = hn.TrialConfig(
                k=7, n=3, n_r=2, k_c=k_c,
                demand_seed=seed,
                message_seed=fl.derive_seed(seed, "m"),
                padding_seed=fl.derive_seed(seed, "p"),
            )
            result = hn.run_trial(cfg)
            assert result.all_ok, (k_c, trial, result.failure_seeds)
            assert result.measured_cost == want_cost
    _pass(7, "virtual-slot placement and end-to-end costs 4/6/7 at (7,3,2)")


# -- criterion 8: always-on property suites ----------------------------------


def _random_point(rng_seed):
    # Deterministic assortment of parameter points across all regimes,
    # including worker counts that do not divide the data.
    stream = fl.ElementStream(FQ.q, fl.derive_seed(rng_seed, "points"))

    def pick(options):
        return options[stream.take(1)[0] % len(options)]

    n = pick((2, 3, 4))
    k = pick((n, 2 * n, 3 * n, 2 * n + 1, n + 1))
    n_r = pick(tuple(range(1, n + 1)))
    k_c = pick(tuple(range(1, k + 1)))
    return k, n, n_r, k_c


def test_acceptance_8_property_suites():
    # (a) exact orthogonality of every built code row, (b) decode equals the
    # schoolbook product for 200 randomized (scheme, messages, subset)
    # triples, (c) byte-identical replay of serialized trial results.
    checked_orthogonality = 0
    for trial in range(200):
        k, n, n_r, k_c = _random_point(trial)
        seed = fl.derive_seed(16, trial)
        demand = bl.random_demand(k_c, k, FQ, seed)
        scheme = bl.build_auto(demand, n, n_r, padding_seed=fl.derive_seed(seed, "p"))
        l = scheme.params.L or 1 + trial % 3
        w = cd.random_messages(k, l, FQ, fl.derive_seed(seed, "w"))
        a_set = cd.responder_subsets(n, n_r, 1, seed=seed)[0]
        rep = cd.decode(scheme, [cd.encode_worker(scheme, x, w) for x in a_set])
        assert rep.success, (k, n, n_r, k_c, a_set)
        oracle = ref_matmul(demand.matrix.to_lists(), w.w.to_lists(), Q)
        assert rep.recovered.to_lists() == oracle

        if scheme.regime == "middle":
            base = (
                cyclic_assignment(scheme.assignment.effective_k, n, n_r)
                if scheme.effective_demand is not None else scheme.assignment
            )
            for n, rows in enumerate(scheme.code[0], 1):
                missing = scheme.padded[0][:, [c - 1 for c in not_assigned(base, n)]]
                assert not fl.mat_mul(fl.FMatrix(FQ, rows), fl.FMatrix(FQ, missing)).array.any()
                checked_orthogonality += 1
    assert checked_orthogonality > 100

    cfg = hn.TrialConfig(k=6, n=3, n_r=2, k_c=4, l=2, demand_seed=17, message_seed=18)
    assert hn.run_trial(cfg).to_json() == hn.run_trial(cfg).to_json()
    _pass(8, "200 randomized round trips match the schoolbook oracle")

import pytest

from conftest import zero_messages
from linsep import builder as bl
from linsep import codec as cd
from linsep import field as fl
from linsep import harness as hn
from linsep.errors import ShapeMismatch
from test_builder import DEMAND_4x6

FQ = fl.Field()


def test_run_trial_worked_4x6_instance():
    cfg = hn.TrialConfig(k=6, n=3, n_r=2, k_c=4, l=3, demand_seed=1, message_seed=2)
    demand = bl.demand_from_rows(FQ, DEMAND_4x6)
    result = hn.run_trial(cfg, demand=demand)
    assert result.regime == "middle"
    assert len(result.subsets) == 3
    assert all(result.successes) and all(result.matches)
    assert result.measured_cost == 4 and result.formula_cost == 4
    assert result.cost_match and result.all_ok
    assert result.failure_seeds == ()


def test_run_trial_encodes_each_responder_once(monkeypatch):
    calls, encode = [], hn.encode_worker

    def counted(scheme, n, w):
        calls.append(n)
        return encode(scheme, n, w)

    monkeypatch.setattr(hn, "encode_worker", counted)
    result = hn.run_trial(hn.TrialConfig(k=8, n=4, n_r=3, k_c=3, demand_seed=1, message_seed=2))
    assert len(result.subsets) == 4 and result.all_ok
    assert sorted(calls) == [1, 2, 3, 4]


def test_a_trial_solves_its_decode_maps_once(monkeypatch):
    """Every responder set's decode map comes from one solve, beside the
    build's own solves, wherever the sets fit one batch."""
    calls, solve = [], fl._solve_batch

    def counted(a, q):
        calls.append(a.shape)
        return solve(a, q)

    monkeypatch.setattr(fl, "_solve_batch", counted)
    cfg = hn.TrialConfig(k=8, n=4, n_r=2, k_c=3, demand_seed=1, message_seed=2)
    demand = bl.random_demand(3, 8, FQ, fl.derive_seed(cfg.demand_seed, "demand"))
    hn._build_for(cfg, demand)
    built = len(calls)
    del calls[:]
    result = hn.run_trial(cfg)
    assert result.regime == "middle" and len(result.subsets) == 6 and result.all_ok
    assert len(calls) == built + 1


def test_run_trial_single_combination_costs_threshold():
    cfg = hn.TrialConfig(k=3, n=3, n_r=2, k_c=1, l=2, demand_seed=3, message_seed=4)
    result = hn.run_trial(cfg)
    assert result.measured_cost == 2 and result.all_ok


def test_run_trial_zero_messages_recover_zero():
    demand = bl.demand_from_rows(FQ, DEMAND_4x6)
    zeros = zero_messages(6, 2, FQ)
    scheme = bl.build_auto(demand, 3, 2)
    answers = {n: cd.encode_worker(scheme, n, zeros) for n in (1, 2, 3)}
    for a_set in cd.responder_subsets(3, 2):
        rep = cd.decode(scheme, [answers[n] for n in a_set])
        assert rep.success and not rep.recovered.array.any()


def test_run_trial_demand_shape_guard():
    cfg = hn.TrialConfig(k=6, n=3, n_r=2, k_c=4)
    with pytest.raises(ShapeMismatch):
        hn.run_trial(cfg, demand=bl.random_demand(2, 6, FQ, 1))


def test_run_trial_refuses_an_unknown_scheme_kind():
    with pytest.raises(ShapeMismatch, match="unknown scheme kind 'ring'"):
        hn.run_trial(hn.TrialConfig(6, 3, 2, 2, scheme_kind="ring"))


def test_replay_determinism_byte_for_byte():
    cfg = hn.TrialConfig(k=9, n=3, n_r=2, k_c=2, l=2, demand_seed=7, message_seed=8)
    assert hn.run_trial(cfg).to_json() == hn.run_trial(cfg).to_json()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_empty_grid_and_zero_trials():
    assert hn.sweep([], 5, seed=1) == []
    assert hn.sweep([hn.GridPoint(6, 3, 2, 4)], 0, seed=1) == []


def test_sweep_deterministic_and_matching():
    grid = [hn.GridPoint(k=3, n=3, n_r=2, k_c=kc) for kc in (1, 2, 3)]
    one = hn.sweep(grid, 3, seed=5)
    two = hn.sweep(grid, 3, seed=5)
    assert one == two
    for row in one:
        assert row["failures"] == 0
        assert row["measured_cost"] == str(row["formula_cost"])


def test_sweep_reports_grouped_against_cyclic():
    grid = [
        hn.GridPoint(k=12, n=4, n_r=3, k_c=3, scheme_kind=hn.AUTO),
        hn.GridPoint(k=12, n=4, n_r=3, k_c=3, scheme_kind=hn.GROUPED_KIND),
    ]
    rows = hn.sweep(grid, 2, seed=6)
    cyclic_row, grouped_row = rows
    assert cyclic_row["measured_cost"] == "9" and cyclic_row["formula_cost"] == 9
    assert grouped_row["measured_cost"] == "6" and grouped_row["formula_cost"] == 6
    assert cyclic_row["converse"] == grouped_row["converse"] == 6
    assert cyclic_row["failures"] == grouped_row["failures"] == 0
    assert cyclic_row["status"] == "cyclic-optimal"


def test_expected_cost_per_regime():
    from linsep.assignment import cyclic_assignment, grouped_assignment
    from test_builder import DEMAND_3x12

    f_mat = bl.random_demand(4, 6, FQ, 1)
    assert bl.expected_cost(bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))) == 4
    f_mat = bl.random_demand(2, 9, FQ, 2)
    assert bl.expected_cost(bl.build_scheme(f_mat, cyclic_assignment(9, 3, 2))) == 4
    f_mat = bl.random_demand(3, 3, FQ, 3)
    assert bl.expected_cost(bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))) == 3
    f_mat = bl.demand_from_rows(FQ, DEMAND_3x12)
    assert bl.expected_cost(bl.build_grouped(f_mat, grouped_assignment(12, 4, 3))) == 6


def test_sweep_three_worker_grid_matches_formulas():
    grid = [
        hn.GridPoint(k=k, n=3, n_r=2, k_c=kc)
        for k in (3, 6, 9)
        for kc in range(1, k + 1)
    ]
    rows = hn.sweep(grid, 10, seed=11)
    assert sum(r["failures"] for r in rows) == 0
    for row in rows:
        assert row["measured_cost"] == str(row["formula_cost"])


def test_sweep_two_responder_costs_follow_piecewise_form():
    from linsep import bounds as bd

    grid = [hn.GridPoint(k=6, n=3, n_r=2, k_c=kc) for kc in range(1, 7)]
    rows = hn.sweep(grid, 2, seed=12)
    for row in rows:
        p = bd.Params(K=6, N=3, N_r=2, K_c=row["K_c"])
        assert row["measured_cost"] == str(bd.edge_threshold_cost(p))


def test_sweep_on_trial_collector():
    grid = [hn.GridPoint(k=3, n=3, n_r=2, k_c=1)]
    seen = []
    hn.sweep(grid, 3, seed=13, on_trial=seen.append)
    assert len(seen) == 3 and all(r.all_ok for r in seen)


def test_kc_for_free_check_windows():
    rep = hn.kc_for_free_check(3, 2, trials=2, seed=7)
    assert rep["ok"] and rep["costs"] == {1: 2, 2: 2, 3: 3}
    rep = hn.kc_for_free_check(4, 3, trials=2, seed=8)
    assert rep["ok"] and rep["costs"] == {1: 3, 2: 3, 3: 3, 4: 4}
    rep = hn.kc_for_free_check(3, 3, trials=1, seed=9)
    assert rep["ok"] and rep["costs"] == {1: 3, 2: 3, 3: 3}
    assert not hn.kc_for_free_check(3, 2, trials=0, seed=7)["ok"]

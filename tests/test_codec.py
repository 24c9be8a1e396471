from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import (
    _null_space_columns,
    _rank_raw,
    _rref,
    grouped_by_tag,
    indices_containing,
    not_assigned,
    ref_decode,
    ref_encode,
    ref_matmul,
    zero_messages,
)
from linsep import builder as bl
from linsep import codec as cd
from linsep import field as fl
from linsep.assignment import cyclic_assignment, grouped_assignment
from linsep.errors import (
    GroupedSolveFailed,
    LinsepError,
    RankDeficientDemand,
    ShapeMismatch,
    SingularMatrix,
    WrongResponderCount,
)
from test_builder import DEMAND_3x12, DEMAND_4x6
from test_byte_identity import seeded_builds
from test_serialize import sample_schemes

FQ = fl.Field()
Q = FQ.q


def oracle(demand: bl.DemandMatrix, w: cd.MessageBlock):
    return fl.FMatrix(FQ, ref_matmul(demand.matrix.to_lists(), w.w.to_lists(), Q))


def all_subsets(scheme):
    return combinations(range(1, scheme.params.N + 1), scheme.params.N_r)


def decode_everywhere(scheme, demand, w):
    want = oracle(demand, w)
    costs = set()
    for a_set in all_subsets(scheme):
        answers = [cd.encode_worker(scheme, n, w) for n in a_set]
        rep = cd.decode(scheme, answers)
        assert rep.success, (a_set, rep.detail)
        assert rep.recovered == want
        costs.add(rep.cost)
    return costs


# ---------------------------------------------------------------------------
# Encoding basics
# ---------------------------------------------------------------------------


def test_encode_zero_messages_gives_zero_answers():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    w = zero_messages(6, 4, FQ)
    for n in (1, 2, 3):
        assert not cd.encode_worker(s, n, w).x.array.any()


def test_encode_symbol_count_middle():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    w = cd.random_messages(6, 5, FQ, 1)
    ans = cd.encode_worker(s, 1, w)
    assert ans.t_n == (6 // 3) * 5


def test_encode_shape_errors():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    with pytest.raises(ShapeMismatch):
        cd.encode_worker(s, 1, cd.random_messages(5, 2, FQ, 0))
    with pytest.raises(ShapeMismatch):
        cd.encode_worker(s, 4, cd.random_messages(6, 2, FQ, 0))
    with pytest.raises(ShapeMismatch):
        cd.encode_worker(s, 1, cd.MessageBlock(fl.random_matrix(6, 2, fl.Field(101), 0)))


def test_encode_large_rejects_bad_length():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    with pytest.raises(ShapeMismatch):
        cd.encode_worker(s, 1, cd.random_messages(3, 3, FQ, 0))  # 3 % 2 != 0


def _outcome(encode, scheme, n, w):
    """Answer rows as lists, or the type of the error encoding raised."""
    try:
        x = encode(scheme, n, w)
    except LinsepError as exc:
        return type(exc)
    return x if isinstance(x, list) else x.x.to_lists()


def _reference_schemes():
    """Every scheme kind: the serialize samples and the small-q grids."""
    yield from (s for _, s in sample_schemes())
    f7 = fl.Field(7)
    for k, n, n_r, k_c in Q7_POINTS + WIDE_LARGE_POINTS + ((7, 4, 2, 6),):
        for seed in range(2):
            demand = bl.random_demand(k_c, k, f7, fl.derive_seed(seed, "encode", k, k_c))
            try:
                yield bl.build_auto(demand, n, n_r, padding_seed=seed, virtual_seed=seed)
            except ShapeMismatch:
                pass


def test_encode_matches_the_per_subproblem_reference():
    """One product by E_n gives the answer of the per-sub-problem encode.

    Also where encoding fails: a worker outside the scheme, a wrong K or
    field, a length the split count does not divide, and L = 0.
    """
    kinds = set()
    for i, s in enumerate(_reference_schemes()):
        p, m = s.params, s.split_count
        f = fl.Field(p.q)
        kinds.add((s.regime, s.effective_demand is not None, s.recombine is not None))
        for l in (m, 3 * m):
            w = cd.random_messages(p.K, l, f, i)
            for n in range(1, p.N + 1):
                want = ref_encode(s, n, w)
                assert _outcome(cd.encode_worker, s, n, w) == want, (p, n, l)
                assert len(want) == s.rows_sent
        bad = [
            (0, cd.random_messages(p.K, m, f, 0)),
            (p.N + 1, cd.random_messages(p.K, m, f, 0)),
            (1, cd.random_messages(p.K + 1, m, f, 0)),
            (1, cd.MessageBlock(fl.random_matrix(p.K, m, fl.Field(11 if p.q == 7 else 7), 0))),
            (1, zero_messages(p.K, 0, f)),
        ]
        if m > 1:
            bad.append((1, cd.random_messages(p.K, m + 1, f, 0)))
        for n, w in bad:
            assert _outcome(cd.encode_worker, s, n, w) == _outcome(ref_encode, s, n, w)
    assert {r for r, _, _ in kinds} == {"small", "middle", "large", "grouped"}
    assert ("large", True, False) in kinds and ("large", False, True) in kinds


@pytest.mark.parametrize("name,scheme", list(sample_schemes()))
def test_encoder_rejects_workers_outside_the_scheme(name, scheme):
    n_workers = scheme.params.N
    for n in (0, n_workers + 1):
        with pytest.raises(ShapeMismatch, match=f"no worker {n} in a {n_workers}-worker"):
            scheme.encoder(n)
    assert scheme.encoder(n_workers).rows == scheme.rows_sent


def _constraint_schemes():
    yield "small", bl.build_scheme(
        bl.random_demand(2, 9, FQ, seed=6), cyclic_assignment(9, 3, 2), padding_seed=1
    )
    yield "middle", bl.build_scheme(
        bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2)
    )
    yield "large", bl.build_scheme(bl.random_demand(5, 6, FQ, 8), cyclic_assignment(6, 3, 2))
    for k_c in (1, 3, 6):  # virtual small, middle and large at K=7, N=4
        yield f"virtual_kc{k_c}", bl.build_auto(
            bl.random_demand(k_c, 7, FQ, k_c), 4, 2, padding_seed=1, virtual_seed=2
        )
    yield "grouped", bl.build_grouped(
        bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3)
    )
    yield "fallback", cd.fallback_full_recovery(
        bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]]), cyclic_assignment(3, 3, 2), 2
    )


@pytest.mark.parametrize(
    "scheme", [pytest.param(s, id=name) for name, s in _constraint_schemes()]
)
def test_encoder_reads_only_the_workers_datasets(scheme):
    """The paper's computation constraint: worker n's answer uses only Z_n.

    E_n is zero on every column of a dataset outside Z_n, and redrawing the
    messages outside Z_n leaves the answer unchanged.
    """
    p, m = scheme.params, scheme.split_count
    w = cd.random_messages(p.K, 2 * m, FQ, 5)
    for n in range(1, p.N + 1):
        held = scheme.assignment.z[n - 1]
        outside = [k - 1 for k in range(1, p.K + 1) if k not in held]
        e_n = scheme.encoder(n).array.reshape(-1, m, p.K)
        assert e_n[:, :, [k - 1 for k in held]].any()
        assert not e_n[:, :, outside].any()
        redrawn = w.w.array.copy()
        redrawn[outside] = cd.random_messages(p.K, 2 * m, FQ, 100 + n).w.array[outside]
        answer = cd.encode_worker(scheme, n, cd.MessageBlock(fl.FMatrix(FQ, redrawn)))
        assert answer == cd.encode_worker(scheme, n, w)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def test_decode_three_worker_two_combination_instance():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    w = cd.MessageBlock(fl.from_rows(FQ, [[1], [2], [3]]))
    # worker 1's single transmitted symbol is its message row applied to W
    row = s.encoder(1).to_lists()[0]
    x1 = cd.encode_worker(s, 1, w)
    assert x1.x.to_lists() == [[sum(c * m for c, m in zip(row, (1, 2, 3))) % Q]]
    rep = cd.decode(s, [x1, cd.encode_worker(s, 2, w)])
    assert rep.success and rep.recovered.to_lists() == [[6], [14]]
    assert decode_everywhere(s, f_mat, w) == {Fraction(2)}


def test_decode_worked_4x6_instance_everywhere():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    w = cd.random_messages(6, 3, FQ, 21)
    assert decode_everywhere(s, f_mat, w) == {Fraction(4)}


def test_decode_requires_exactly_n_r_distinct_answers():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    w = cd.random_messages(6, 2, FQ, 3)
    a1 = cd.encode_worker(s, 1, w)
    a2 = cd.encode_worker(s, 2, w)
    with pytest.raises(WrongResponderCount):
        cd.decode(s, [a1])
    with pytest.raises(WrongResponderCount):
        cd.decode(s, [a1, a1])
    with pytest.raises(WrongResponderCount):
        cd.decode(s, [a1, a2, cd.encode_worker(s, 3, w)])


def test_decode_subsets_rejects_a_set_it_cannot_decode_typed():
    """A set naming a worker with no answer, a repeated worker or too few
    workers raises a typed error, wherever it stands among good sets."""
    s = bl.build_scheme(bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2))
    w = cd.random_messages(6, 2, FQ, 3)
    answers = [cd.encode_worker(s, n, w) for n in (1, 2)]
    assert cd.decode_subsets(s, answers, [(2, 1)]) == [cd.decode(s, answers)]
    assert cd.decode_subsets(s, answers, []) == []
    bad = [
        ((1, 3), ShapeMismatch),
        ((1, 4), ShapeMismatch),
        ((1, 1), WrongResponderCount),
        ((1,), WrongResponderCount),
        ((1, 2, 3), WrongResponderCount),
    ]
    for a_set, error in bad:
        for subsets in ([a_set], [(1, 2), a_set]):
            with pytest.raises(error):
                cd.decode_subsets(s, answers, subsets)
    with pytest.raises(WrongResponderCount):
        cd.decode_subsets(s, answers + answers[:1], [(1, 2)])


def _over_field_7(a):
    return cd.WorkerAnswer(a.worker, fl.FMatrix(fl.Field(7), a.x.array % 7))


def _one_column_more(a):
    return cd.WorkerAnswer(a.worker, fl.FMatrix(FQ, np.hstack([a.x.array, a.x.array[:, :1]])))


def _one_row_fewer(a):
    return cd.WorkerAnswer(a.worker, fl.FMatrix(a.x.field, a.x.array[:-1]))


def _from_worker_7(a):
    return cd.WorkerAnswer(7, a.x)


@pytest.mark.parametrize("edit,match", [
    (_over_field_7, "is over another field"),
    (_one_column_more, "not 2 x 2"),
    (_one_row_fewer, "not 2 x 2"),
    (_from_worker_7, "answer from a worker outside the scheme"),
], ids=["field", "columns", "rows", "worker"])
def test_decode_rejects_an_answer_of_another_field_or_shape(edit, match):
    schemes = [
        bl.build_auto(bl.random_demand(4, 6, FQ, 0), 3, 2),
        bl.build_grouped(bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3)),
    ]
    for s in schemes:
        w = cd.random_messages(s.params.K, 2, FQ, 1)
        answers = [cd.encode_worker(s, n, w) for n in range(1, s.params.N_r + 1)]
        assert cd.decode(s, answers).success
        with pytest.raises(ShapeMismatch, match=match):
            cd.decode(s, answers[:-1] + [edit(answers[-1])])


def test_decode_of_answers_with_no_symbols_is_refused():
    # A middle scheme fixes no L, so a K x 0 block encodes to 2 x 0 answers.
    s = bl.build_scheme(bl.demand_from_rows(FQ, DEMAND_4x6), cyclic_assignment(6, 3, 2))
    w = cd.MessageBlock(fl.FMatrix(FQ, np.zeros((6, 0), dtype=np.int64)))
    answers = [cd.encode_worker(s, n, w) for n in (1, 2)]
    assert answers[0].x.rows == 2 and answers[0].x.cols == 0
    with pytest.raises(ShapeMismatch, match="answers carry no symbols"):
        cd.decode(s, answers)


def test_decode_reports_straggler_independence():
    f_mat = bl.random_demand(4, 8, FQ, seed=5)
    s = bl.build_scheme(f_mat, cyclic_assignment(8, 4, 3), padding_seed=2)
    w = cd.random_messages(8, 3, FQ, 9)
    outputs = set()
    for a_set in all_subsets(s):
        rep = cd.decode(s, [cd.encode_worker(s, n, w) for n in a_set])
        assert rep.success
        outputs.add(rep.recovered)
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# Cost audit per regime
# ---------------------------------------------------------------------------


def test_cost_matches_formula_per_regime():
    w_seed = 31
    # middle: (K/N) N_r
    f_mat = bl.random_demand(4, 6, FQ, seed=1)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    assert decode_everywhere(s, f_mat, cd.random_messages(6, 2, FQ, w_seed)) == {Fraction(4)}
    # small: K_c N_r
    f_mat = bl.random_demand(2, 9, FQ, seed=2)
    s = bl.build_scheme(f_mat, cyclic_assignment(9, 3, 2))
    assert decode_everywhere(s, f_mat, cd.random_messages(9, 2, FQ, w_seed)) == {Fraction(4)}
    # large: K_c
    f_mat = bl.random_demand(3, 3, FQ, seed=3)
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    assert decode_everywhere(s, f_mat, cd.random_messages(3, 4, FQ, w_seed)) == {Fraction(3)}
    # grouped: 2 N_r
    f_mat = bl.demand_from_rows(FQ, DEMAND_3x12)
    s = bl.build_grouped(f_mat, grouped_assignment(12, 4, 3))
    assert decode_everywhere(s, f_mat, cd.random_messages(12, 2, FQ, w_seed)) == {Fraction(6)}


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verify_worked_4x6_instance_clean():
    f_mat = bl.demand_from_rows(FQ, DEMAND_4x6)
    s = bl.build_scheme(f_mat, cyclic_assignment(6, 3, 2))
    assert cd.verify_decodability(s) == []


def test_verify_flags_known_bad_demand():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]])
    s = bl.build_scheme(f_mat, cyclic_assignment(3, 3, 2))
    assert cd.verify_decodability(s) == [(1, 3)]
    w = cd.random_messages(3, 1, FQ, 4)
    rep = cd.decode(s, [cd.encode_worker(s, n, w) for n in (1, 3)])
    assert not rep.success and rep.recovered is None
    for good in ((1, 2), (2, 3)):
        rep = cd.decode(s, [cd.encode_worker(s, n, w) for n in good])
        assert rep.success and rep.recovered == oracle(f_mat, w)


def test_verify_sample_mode_deterministic():
    f_mat = bl.random_demand(4, 8, FQ, seed=5)
    s = bl.build_scheme(f_mat, cyclic_assignment(8, 4, 3), padding_seed=2)
    one = cd.verify_decodability(s, sample_count=3, seed=11)
    two = cd.verify_decodability(s, sample_count=3, seed=11)
    assert one == two == []


def test_verify_exhaustive_cap(monkeypatch):
    f_mat = bl.random_demand(4, 8, FQ, seed=5)
    s = bl.build_scheme(f_mat, cyclic_assignment(8, 4, 3), padding_seed=2)
    monkeypatch.setattr(cd, "_SUBSET_CAP", 3)  # 4 responder subsets
    with pytest.raises(ShapeMismatch):
        cd.verify_decodability(s)


def test_verify_rejects_sub_problem_caps_below_one():
    scheme = _large_scheme()
    assert len(scheme.code) > 1
    for cap in (0, -2):
        with pytest.raises(ShapeMismatch):
            cd.verify_decodability(scheme, subproblem_cap=cap)
    assert cd.verify_decodability(scheme, subproblem_cap=1) == []


def test_responder_subsets_rejects_sample_counts_below_one():
    for count in (0, -3):
        with pytest.raises(ShapeMismatch):
            cd.responder_subsets(3, 2, count)


def _scalar_verify(scheme, sample_count=None, seed=0, subproblem_cap=200):
    """The per-subset loop verification ran before it was batched.

    Every sub-problem's code rows are rebuilt with one scalar null-space call
    per worker (and checked against the built ones), and every responder
    stack is ranked on its own with ``_rank_raw``; both are the scalar
    reference kernels of ``conftest``.
    """
    subsets = cd.responder_subsets(scheme.params.N, scheme.params.N_r, sample_count, seed)
    q, p = scheme.params.q, scheme.params
    total = len(scheme.padded)
    indices = range(total)
    if scheme.mds is not None and total > subproblem_cap:
        indices = cd._sample_distinct(
            total, subproblem_cap, fl.derive_seed(seed, "large-subproblems")
        )
    # A small scheme's sub-problems run on N aggregates, one per class k mod N.
    if scheme.regime == "small":
        a = cyclic_assignment(p.N, p.N, p.N_r)
    else:
        a = (
            cyclic_assignment(scheme.assignment.effective_k, p.N, p.N_r)
            if scheme.effective_demand is not None else scheme.assignment
        )
    per = a.K // a.N
    failing = set()
    for i in indices:
        rows_by_worker = []
        for n in range(1, p.N + 1):
            cols = [c - 1 for c in not_assigned(a, n)]
            basis = _null_space_columns(scheme.padded[i][:, cols].T, q)[:per]
            assert [v.tolist() for v in basis] == scheme.code[i, n - 1].tolist()
            rows_by_worker.append(np.array(basis))
        for a_set in subsets:
            if a_set in failing:
                continue
            stack = np.concatenate([rows_by_worker[n - 1] for n in a_set])
            if _rank_raw(stack, q) != stack.shape[0]:
                failing.add(a_set)
    return sorted(failing)


# (K, N, N_r, K_c) at q = 7: small, middle and large, with and without
# virtual slots, and N_r = 1, where a worker misses no dataset.
Q7_POINTS = (
    (9, 3, 2, 2), (12, 4, 3, 2), (6, 3, 2, 3), (7, 3, 2, 4), (8, 4, 3, 4),
    (6, 3, 1, 2), (6, 3, 2, 5), (5, 3, 2, 5),
)


def test_batched_verify_matches_the_scalar_loop():
    f7 = fl.Field(7)
    failing_regimes = set()
    for k, n, n_r, k_c in Q7_POINTS:
        for seed in range(10):
            demand = bl.random_demand(k_c, k, f7, seed)
            scheme = bl.build_auto(demand, n, n_r, padding_seed=seed)
            for kwargs in (
                {},
                {"subproblem_cap": 3, "seed": seed},
                {"sample_count": 2, "seed": seed},
            ):
                got = cd.verify_decodability(scheme, **kwargs)
                assert got == _scalar_verify(scheme, **kwargs), (k, n, n_r, k_c, seed)
                if got:
                    failing_regimes.add(scheme.regime)
    assert failing_regimes == {"small", "middle", "large"}
    # The acceptance-5 demand: only {1, 3} fails.
    s = bl.build_scheme(
        bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]]), cyclic_assignment(3, 3, 2)
    )
    assert cd.verify_decodability(s) == _scalar_verify(s) == [(1, 3)]
    for count in (1, 2, 3):
        kwargs = {"sample_count": count, "seed": 5}
        assert cd.verify_decodability(s, **kwargs) == _scalar_verify(s, **kwargs)


def test_verify_blocks_stay_within_the_chunk_budget(monkeypatch):
    """A small chunk budget splits verification into many blocks of subsets.

    Each batched rank call holds whole subsets, and more than one subset
    only while they fit the budget; the failing subsets do not change.
    """
    f7 = fl.Field(7)
    schemes = [
        bl.build_auto(bl.random_demand(k_c, k, f7, seed), n, n_r, padding_seed=seed)
        for k, n, n_r, k_c in ((8, 8, 4, 3), (12, 4, 3, 2), (8, 4, 2, 5))
        for seed in range(4)
    ]
    schemes.append(bl.build_grouped(
        bl.demand_from_rows(
            FQ, [[1] * 12, list(range(1, 13)), [1, 0, 3, 2, 8, 4, 1, 2, 9, 4, 5, 10]]
        ),
        grouped_assignment(12, 4, 3),
    ))
    expected = [cd.verify_decodability(s) for s in schemes]
    assert any(expected)
    shapes = []
    rank_batch = fl._rank_batch

    def recording(a, q):
        shapes.append(a.shape)
        return rank_batch(a, q)

    budget = 64
    monkeypatch.setattr(fl, "_BATCH_ELEMENTS", budget)
    monkeypatch.setattr(fl, "_rank_batch", recording)
    for s, want in zip(schemes, expected):
        shapes.clear()
        assert cd.verify_decodability(s) == want
        per_subset = 1 if s.grouped else len(s.code)
        assert sum(b for b, _, _ in shapes) == per_subset * len(
            cd.responder_subsets(s.params.N, s.params.N_r)
        )
        for b, rows, cols in shapes:
            assert b % per_subset == 0
            assert b == per_subset or b * rows * cols <= budget


def _ref_inverse(a, q):
    """Inverse of a square array by the scalar reference RREF."""
    n = a.shape[0]
    red, pivots = _rref(np.hstack([a, np.eye(n, dtype=np.int64)]), q)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrix(f"{n}x{n} matrix is singular")
    return red[:, n:].tolist()


def _scalar_subproblems(scheme, answers, q):
    """One inverse per sub-problem, then one per MDS component."""
    parts = []
    offset = 0
    rows = scheme.code.shape[2]
    for i, (padded, code) in enumerate(zip(scheme.padded, scheme.code)):
        # a small sub-problem wants one row, a large window all of its rows
        k_c = 1 if scheme.regime == "small" else min(scheme.params.K_c, len(padded))
        stack = np.vstack([code[a.worker - 1] for a in answers])
        try:
            inv = _ref_inverse(stack, q)
        except SingularMatrix:
            raise SingularMatrix(
                f"sub-problem {i + 1}: stacked code rows are singular"
            ) from None
        x = np.vstack([a.x.array[offset : offset + rows] for a in answers])
        parts.append(ref_matmul(inv, x.tolist(), q)[:k_c])
        offset += rows
    if scheme.mds is None:
        return [row for part in parts for row in part]
    mds = scheme.mds
    out = []
    for j in range(1, scheme.params.K_c + 1):
        idxs = indices_containing(mds, j)
        h_j = [parts[i - 1][mds.subsets[i - 1].index(j)] for i in idxs]
        stack = np.array([[pow(i, e, q) for e in range(mds.split_count)] for i in idxs])
        try:
            inv = _ref_inverse(stack, q)
        except SingularMatrix:
            raise SingularMatrix(
                f"component {j}: reconstruction stack is singular"
            ) from None
        out.append([x for row in ref_matmul(inv, h_j, q) for x in row])
    return out


def _scalar_grouped(scheme, answers, q):
    """One inverse of the stacked null vectors of the responder pairs."""
    n_all = range(1, scheme.params.N + 1)
    combos, nulls = [], []
    for pair in combinations([a.worker for a in answers], 2):
        tag = tuple(x for x in n_all if x not in pair)
        acc = [0] * answers[0].x.cols
        for n in pair:
            x_n = next(a.x for a in answers if a.worker == n).to_lists()
            part = ref_matmul([grouped_by_tag(scheme, n)[tag][1]], x_n, q)[0]
            acc = [(u + v) % q for u, v in zip(acc, part)]
        combos.append(acc)
        nulls.append(grouped_by_tag(scheme)[tag][0])
    try:
        inv = _ref_inverse(np.array(nulls), q)
    except SingularMatrix:
        raise SingularMatrix("sub-problem 1: stacked code rows are singular") from None
    return ref_matmul(inv, combos, q)


def _scalar_decode(scheme, answers):
    """(success, recovered rows, detail) of decode as a loop of scalar solves.

    The loop decode ran before its solves were batched, on the scalar
    reference RREF of ``conftest``.
    """
    answers = sorted(answers, key=lambda a: a.worker)
    solve = _scalar_grouped if scheme.grouped is not None else _scalar_subproblems
    try:
        return True, solve(scheme, answers, scheme.params.q), None
    except SingularMatrix as exc:
        return False, None, str(exc)


def test_batched_decode_matches_the_scalar_loop(monkeypatch):
    f7 = fl.Field(7)
    cases = []
    for k, n, n_r, k_c in Q7_POINTS:
        for seed in range(8):
            demand = bl.random_demand(k_c, k, f7, seed)
            cases.append(bl.build_auto(demand, n, n_r, padding_seed=seed))
    cases.append(bl.build_grouped(
        bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3)
    ))
    for seed in range(20):
        try:
            cases.append(bl.build_grouped(
                bl.random_demand(3, 12, f7, seed), grouped_assignment(12, 4, 3)
            ))
        except GroupedSolveFailed:
            pass
    # Either budget: one chunk per batched solve, or many across each one;
    # emptying the decoding caches makes each budget compute the maps.  One
    # decode_subsets call over every responder set gives each set's decode;
    # at budget 64 its sets span several blocks.
    for budget in (fl._BATCH_ELEMENTS, 64):
        monkeypatch.setattr(fl, "_BATCH_ELEMENTS", budget)
        cd._responder_maps.cache_clear()
        cd._reconstruction_map.cache_clear()
        details = set()
        for i, scheme in enumerate(cases):
            p = scheme.params
            w = cd.random_messages(p.K, p.L or 2, fl.Field(p.q), i)
            answers = {n: cd.encode_worker(scheme, n, w) for n in range(1, p.N + 1)}
            subsets = list(all_subsets(scheme))
            batched = cd.decode_subsets(scheme, list(answers.values())[::-1], subsets)
            assert len(batched) == len(subsets)
            for a_set, batch_rep in zip(subsets, batched):
                given = [answers[n] for n in a_set]
                rep = cd.decode(scheme, given)
                got = (rep.success, rep.recovered and rep.recovered.to_lists(), rep.detail)
                assert got == _scalar_decode(scheme, given), (p, a_set)
                assert batch_rep == rep, (p, a_set)
                details.add((scheme.grouped is not None, rep.detail))
        assert (False, "sub-problem 2: stacked code rows are singular") in details
        assert (True, "sub-problem 1: stacked code rows are singular") in details


@pytest.mark.parametrize("q", [7, 11, 101, 2**31 - 1])
def test_decode_matches_the_reference_solve_on_a_miss_and_a_hit(q):
    """Decoding by cached maps gives the reference decode's report.

    The first decode of each responder set computes its map, a cache miss,
    and a repeat, with the answers in another order, reuses it; both return
    the same report as solving beside the answers, singular sets included.
    """
    f = fl.Field(q)
    kinds, failed = set(), 0
    for i, (label, scheme) in enumerate(seeded_builds(q)):
        if isinstance(scheme, LinsepError):
            continue
        p = scheme.params
        kinds.add((scheme.regime, scheme.effective_demand is not None, scheme.recombine is not None))
        w = cd.random_messages(p.K, p.L or 2, f, i)
        answers = {n: cd.encode_worker(scheme, n, w) for n in range(1, p.N + 1)}
        for a_set in all_subsets(scheme):
            given = [answers[n] for n in a_set]
            want = ref_decode(scheme, given)
            info = cd._responder_maps.cache_info()
            assert cd.decode(scheme, given) == want, (label, a_set)
            assert cd._responder_maps.cache_info().misses == info.misses + 1
            assert cd.decode(scheme, given[::-1]) == want, (label, a_set)
            assert cd._responder_maps.cache_info().hits == info.hits + 1
            failed += not want.success
    assert {r for r, _, _ in kinds} == {"small", "middle", "large", "grouped"}
    assert ("middle", True, False) in kinds and ("large", True, False) in kinds
    assert ("large", False, True) in kinds
    assert failed or q > 11


def _large_scheme():
    return bl.build_scheme(bl.random_demand(5, 6, FQ, 8), cyclic_assignment(6, 3, 2))


def _grouped_scheme():
    return bl.build_grouped(bl.demand_from_rows(FQ, DEMAND_3x12), grouped_assignment(12, 4, 3))


def test_a_repeated_responder_set_solves_nothing(monkeypatch):
    """The second decode of a (scheme, responders) pair reuses its maps,
    a singular set's failure detail included."""
    calls, solve = [], fl._solve_batch

    def counted(a, q):
        calls.append(a.shape)
        return solve(a, q)

    monkeypatch.setattr(fl, "_solve_batch", counted)
    f7 = fl.Field(7)
    singular = None
    for seed in range(20):
        scheme = bl.build_auto(bl.random_demand(4, 8, f7, seed), 4, 3, padding_seed=seed)
        failing = cd.verify_decodability(scheme)
        if failing:
            singular = scheme, failing[0]
            break
    assert singular is not None
    cases = ((_large_scheme(), (1, 2), True), (_grouped_scheme(), (1, 3, 4), True),
             (*singular, False))
    for scheme, a_set, success in cases:
        w = cd.random_messages(scheme.params.K, scheme.params.L or 2, scheme.demand.field, 3)
        answers = [cd.encode_worker(scheme, n, w) for n in a_set]
        del calls[:]
        first = cd.decode(scheme, answers)
        assert calls and first.success == success and (first.detail is None) == success
        del calls[:]
        assert cd.decode(scheme, answers) == first
        assert calls == []


def test_a_repeated_worker_reuses_its_encoder(monkeypatch):
    """The second encode of a (scheme, worker) pair builds no E_n, answers
    as before, and the cached datasets and cut E_n are read-only."""
    calls, encoder = [], bl.Scheme.encoder

    def counted(self, n):
        calls.append(n)
        return encoder(self, n)

    monkeypatch.setattr(bl.Scheme, "encoder", counted)
    scheme = _large_scheme()
    w = cd.random_messages(6, scheme.params.L, FQ, 5)
    info = cd._held_encoder.cache_info()
    first = cd.encode_worker(scheme, 2, w)
    assert calls == [2] and cd._held_encoder.cache_info().misses == info.misses + 1
    assert cd.encode_worker(scheme, 2, w) == first
    assert calls == [2] and cd._held_encoder.cache_info().hits == info.hits + 1
    assert first.x.to_lists() == ref_encode(scheme, 2, w)
    for array in cd._held_encoder(scheme, 2):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def _block(scheme, seed):
    return cd.random_messages(scheme.params.K, scheme.params.L or 2, FQ, seed)


def _served(scheme, w):
    """Every worker's encoder, N_r answers to block w, and their decode."""
    p = scheme.params
    answers = [cd.encode_worker(scheme, n, w) for n in range(1, p.N_r + 1)]
    return [scheme.encoder(n) for n in range(1, p.N + 1)], answers, cd.decode(scheme, answers)


def test_serving_a_block_copies_and_reduces_nothing_again(monkeypatch):
    """Encode and decode wrap what the kernels reduced: from a cold cache
    or a warm one, they build no FMatrix from outside data."""
    served = [(name, scheme, _block(scheme, 6)) for name, scheme in sample_schemes()]
    for cache in (cd._held_encoder, cd._responder_maps, cd._reconstruction_map):
        cache.cache_clear()
    calls, as_array = [], fl._as_array
    monkeypatch.setattr(fl, "_as_array", lambda *args: calls.append(args) or as_array(*args))
    for name, scheme, w in served + served:
        *_, report = _served(scheme, w)
        assert report.success and calls == [], name


def test_kernel_output_is_reduced_read_only_int64():
    """Products, inverses, encoders, answers and decoded blocks of every
    scheme kind, the large regime and the fallback's recombination too."""
    outputs = []
    for _, scheme in sample_schemes():
        encoders, answers, report = _served(scheme, _block(scheme, 7))
        outputs += [*encoders, *(a.x for a in answers), report.recovered]
    a = fl.random_matrix(5, 5, FQ, seed=3)
    tall, wide = fl.random_matrix(40, 30, FQ, seed=4), fl.random_matrix(30, 20, FQ, seed=5)
    outputs += [fl.mat_mul(a, a), fl.mat_mul(tall, wide), fl.inverse(a)]  # int64, float
    for m in outputs:
        assert m.array.dtype == np.int64 and m.array.ndim == 2
        assert ((m.array >= 0) & (m.array < Q)).all()
        assert not m.array.flags.writeable
        with pytest.raises(ValueError):
            m.array[0, 0] = 1


def test_the_decoding_cache_stays_at_its_bound():
    scheme = bl.build_scheme(bl.random_demand(2, 8, FQ, 1), cyclic_assignment(8, 8, 4))
    subsets = list(all_subsets(scheme))
    assert len(subsets) > cd._DECODE_CACHE
    w = cd.random_messages(8, 2, FQ, 2)
    answers = {n: cd.encode_worker(scheme, n, w) for n in range(1, 9)}
    for a_set in subsets:
        assert cd.decode(scheme, [answers[n] for n in a_set]).success
    assert cd._responder_maps.cache_info().currsize == cd._DECODE_CACHE


def test_cached_decoding_maps_are_read_only():
    scheme, grouped = _large_scheme(), _grouped_scheme()
    w = cd.random_messages(6, scheme.params.L, FQ, 4)
    assert cd.decode(scheme, [cd.encode_worker(scheme, n, w) for n in (1, 3)]).success
    d_a, (detail,) = cd._responder_maps(scheme, ((1, 3),))
    at, inv = cd._reconstruction_map(scheme)
    assert detail is None
    w = cd.random_messages(12, 2, FQ, 4)
    assert cd.decode(grouped, [cd.encode_worker(grouped, n, w) for n in (1, 2, 4)]).success
    grouped_d_a, (detail,) = cd._responder_maps(grouped, ((1, 2, 4),))
    assert detail is None
    for array in (d_a, at, inv, grouped_d_a):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def _assert_reconstruction_map_inverts(scheme):
    """Each demand row's nodes are m distinct windows in 1..S, and the map's
    inverse times their Vandermonde stack, built by ``pow``, is I_m."""
    q, m, s = scheme.params.q, scheme.split_count, scheme.mds.code_length
    at, inv = cd._reconstruction_map(scheme)
    nodes = at // len(scheme.mds.subsets[0]) + 1
    assert nodes.shape == (scheme.params.K_c, m) and s < q
    for j, row in enumerate(nodes.tolist()):
        assert len(set(row)) == m and all(1 <= x <= s for x in row)
        assert all(j + 1 in scheme.mds.subsets[x - 1] for x in row)
        stack = [[pow(x, e, q) for e in range(m)] for x in row]
        assert ref_matmul(inv[j].tolist(), stack, q) == np.eye(m, dtype=int).tolist()


def test_the_reconstruction_map_inverts_on_every_large_point_of_the_sweep():
    """Every large point of the acceptance-3 grid, one demand each."""
    points = [
        (k, n, n_r, k_c)
        for n in range(2, 7) for k in (n, 2 * n, 3 * n)
        for n_r in range(1, n + 1) for k_c in range(1, k + 1)
        if k_c > k // n * n_r
    ]
    assert len(points) == 210
    for k, n, n_r, k_c in points:
        scheme = bl.build_auto(bl.random_demand(k_c, k, FQ, k * k_c), n, n_r)
        assert scheme.regime == "large"
        _assert_reconstruction_map_inverts(scheme)


def test_the_reconstruction_map_inverts_with_q_minus_1_windows():
    # (6, 6, 5, 6): t = 5 and gcd(6, 5) = 1, so S = 6 windows at q = 7.
    scheme = bl.build_auto(bl.random_demand(6, 6, fl.Field(7), 3), 6, 5)
    assert scheme.mds.code_length == 6 == scheme.params.q - 1
    _assert_reconstruction_map_inverts(scheme)


# Large points with K_c >= t + 2, where the coded design is not every t-subset.
WIDE_LARGE_POINTS = ((6, 3, 1, 4), (6, 3, 2, 6), (8, 4, 2, 7))


@pytest.mark.parametrize("q", [7, 11, 101])
def test_small_moduli_never_return_a_wrong_value(q):
    """At small q a build either fails typed or decodes exactly where verified.

    Every responder subset decodes exactly when ``verify_decodability`` does
    not list it, and a successful decode is the demand times the messages;
    the grouped scheme included.
    """
    f = fl.Field(q)
    built = []
    for k, n, n_r, k_c in Q7_POINTS + WIDE_LARGE_POINTS:
        for seed in range(4):
            demand = bl.random_demand(k_c, k, f, fl.derive_seed(seed, "small-q", q))
            try:
                scheme = bl.build_auto(demand, n, n_r, padding_seed=seed, virtual_seed=seed)
            except ShapeMismatch:
                continue
            built.append((seed, demand, scheme))
    # The grouped (12, 4, 3, 3) point; its construction can fail typed at small q.
    for seed in range(6):
        demand = bl.random_demand(3, 12, f, fl.derive_seed(seed, "small-q-grouped", q))
        try:
            built.append((seed, demand, bl.build_grouped(demand, grouped_assignment(12, 4, 3))))
        except GroupedSolveFailed:
            continue
    assert any(scheme.grouped is None for _, _, scheme in built)
    assert any(scheme.grouped is not None for _, _, scheme in built)
    for seed, demand, scheme in built:
        p = scheme.params
        failing = set(cd.verify_decodability(scheme))
        w = cd.random_messages(p.K, p.L or 2, f, seed)
        want = ref_matmul(demand.matrix.to_lists(), w.w.to_lists(), q)
        answers = {m: cd.encode_worker(scheme, m, w) for m in range(1, p.N + 1)}
        for a_set in all_subsets(scheme):
            rep = cd.decode(scheme, [answers[m] for m in a_set])
            assert rep.success == (a_set not in failing), (p, seed, a_set)
            if rep.success:
                assert rep.recovered.to_lists() == want, (p, seed, a_set)


def test_unrank_combination_is_lexicographic():
    from math import comb

    n, r = 7, 3
    expect = list(combinations(range(1, n + 1), r))
    got = [cd._unrank_combination(n, r, i) for i in range(comb(n, r))]
    assert got == expect


# ---------------------------------------------------------------------------
# Full-recovery fallback
# ---------------------------------------------------------------------------


def test_fallback_cost_and_recovery():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]])
    a = cyclic_assignment(3, 3, 2)
    s = cd.fallback_full_recovery(f_mat, a, 2, seed=4)
    assert cd.verify_decodability(s) == []
    w = cd.random_messages(3, 2, FQ, 16)
    assert decode_everywhere(s, f_mat, w) == {Fraction(3)}


@pytest.mark.parametrize("k", [3, 6])
def test_fallback_at_n_r_equal_n(k):
    # N_r = N makes t = K, so the K x K full-recovery demand is a middle
    # scheme with no padding, not a large one.
    f_mat = bl.random_demand(2, k, FQ, seed=k)
    s = cd.fallback_full_recovery(f_mat, cyclic_assignment(k, 3, 3), 2, seed=5)
    assert s.regime == "middle" and s.padding_rows == 0 and s.recombine is not None
    assert cd.verify_decodability(s) == []
    assert bl.expected_cost(s) == k
    w = cd.random_messages(k, 2, FQ, 17)
    assert decode_everywhere(s, f_mat, w) == {Fraction(k)}


def test_fallback_delegates_when_demand_is_square():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [1, 2, 3], [1, 4, 9]])
    a = cyclic_assignment(3, 3, 2)
    from linsep import serialize

    via_fallback = cd.fallback_full_recovery(f_mat, a, 2, seed=0)
    direct = bl.build_scheme(f_mat, a, l_symbols=2)
    assert serialize.dumps(via_fallback) == serialize.dumps(direct)


def test_fallback_rejects_rank_deficient_demand():
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [2, 2, 2]])
    with pytest.raises(RankDeficientDemand):
        cd.fallback_full_recovery(f_mat, cyclic_assignment(3, 3, 2), 2)


def test_fallback_gives_up_typed_when_no_attempt_is_left(monkeypatch):
    monkeypatch.setattr(cd, "_FALLBACK_ATTEMPTS", 0)
    f_mat = bl.demand_from_rows(FQ, [[1, 1, 1], [2, 1, 1]])
    with pytest.raises(LinsepError, match="no decodable full-recovery demand found"):
        cd.fallback_full_recovery(f_mat, cyclic_assignment(3, 3, 2), 2, seed=4)


# ---------------------------------------------------------------------------
# Round trips across regimes, random subsets and messages
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "k,n,n_r,k_c",
    [
        (6, 3, 2, 4),   # middle
        (9, 3, 2, 2),   # small
        (4, 4, 3, 4),   # large
        (12, 4, 2, 6),  # middle, wider
        (7, 3, 2, 5),   # general, middle
        (5, 2, 2, 3),   # general, N=2
    ],
)
def test_round_trip_random_instances(k, n, n_r, k_c):
    for seed in range(3):
        f_mat = bl.random_demand(k_c, k, FQ, fl.derive_seed(seed, "rt", k, k_c))
        s = bl.build_auto(f_mat, n, n_r, padding_seed=seed, virtual_seed=seed)
        l = s.params.L or 2
        w = cd.random_messages(k, l, FQ, fl.derive_seed(seed, "w"))
        assert cd.verify_decodability(s) == []
        decode_everywhere(s, f_mat, w)

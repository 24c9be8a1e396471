"""Construction of per-worker coding schemes.

Three regimes cover a demand of K_c combinations when N divides K, with
per = K/N rows of message data per worker and t = per * N_r recoverable
combinations:

* ``small``  (K_c < per): the demand splits into K_c independent one-row
  sub-problems over per-worker aggregated messages.
* ``middle`` (per <= K_c <= t): the demand is padded with uniform rows up to
  t, and each worker sends the canonical left-null-space rows of the demand
  columns it cannot compute.
* ``large``  (K_c > t): every message is split into m sub-messages, expanded
  into C(K_c, t) erasure-coded symbols, and one middle sub-problem is solved
  per symbol index.

All three are ordered lists of middle sub-problems, which ``Scheme`` exposes
as one view: ``subproblem(i)`` and the message block its code rows multiply,
``subproblem_input(i, w)``.  A middle scheme is its own single sub-problem on
the messages; a small scheme has one per demand row, on that row's
aggregates; a large scheme has one per coded symbol, on that symbol's block,
built lazily.  ``build_cyclic_family`` is the one place that picks the regime.

When N does not divide K, the demand is embedded into N*ceil(K/N) effective
slots (the extra slots carry all-zero messages) and the same machinery runs
on the effective problem.

A non-cyclic "grouped" construction exists for the N=4, N_r=3, K_c=K/N=3
family, where it halves the cyclic scheme's communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from itertools import combinations
from math import comb

import numpy as np

from . import field as fl
from .assignment import (
    CYCLIC,
    GENERAL_VIRTUAL,
    Assignment,
    GroupedAssignment,
    cyclic_assignment,
    general_assignment,
)
from .errors import (
    BadMessageLength,
    GroupedSolveFailed,
    ShapeMismatch,
    UnsupportedGroupedParams,
)
from .field import (
    DEFAULT_MODULUS,
    Field,
    FMatrix,
    FVector,
    derive_seed,
    ff_inv,
    left_null_space,
    mat_mul,
    random_matrix,
    vectors_as_matrix,
)

SMALL, MIDDLE, LARGE, GROUPED_REGIME = "small", "middle", "large", "grouped"


@dataclass(frozen=True)
class DemandMatrix:
    """The K_c x K coefficient matrix defining what the master wants."""

    matrix: FMatrix

    def __post_init__(self):
        if not (1 <= self.k_c <= self.k):
            raise ShapeMismatch(
                f"need 1 <= K_c <= K, got {self.k_c} x {self.k} demand"
            )

    @property
    def k_c(self) -> int:
        return self.matrix.rows

    @property
    def k(self) -> int:
        return self.matrix.cols

    @property
    def field(self) -> Field:
        return self.matrix.field


def demand_from_rows(f: Field, rows) -> DemandMatrix:
    return DemandMatrix(fl.from_rows(f, rows))


def random_demand(k_c: int, k: int, f: Field, seed: int) -> DemandMatrix:
    return DemandMatrix(random_matrix(k_c, k, f, seed))


def pad_demand(f_mat: DemandMatrix, target_rows: int, seed: int) -> DemandMatrix:
    """Append uniform i.i.d. rows below the demand until it has target_rows."""
    if target_rows < f_mat.k_c:
        raise ShapeMismatch("cannot pad to fewer rows than the demand has")
    if target_rows == f_mat.k_c:
        return f_mat
    extra = random_matrix(target_rows - f_mat.k_c, f_mat.k, f_mat.field, seed)
    return DemandMatrix(fl.row_stack([f_mat.matrix, extra]))


@dataclass(frozen=True)
class SchemeParams:
    K: int
    N: int
    N_r: int
    K_c: int
    q: int
    L: int | None = None  # fixed only where the construction splits messages


@dataclass(frozen=True)
class WorkerCode:
    """One worker's code rows, in task coefficients and message coefficients."""

    worker: int
    task_rows: FMatrix
    message_rows: FMatrix


@dataclass(frozen=True)
class VirtualLayout:
    """Embedding of K real datasets into N*ceil(K/N) effective slots."""

    effective_k: int
    slot_of_dataset: tuple[int, ...]
    effective_demand: FMatrix  # K_c x effective_k; virtual columns are random
    effective_assignment: Assignment


@dataclass(frozen=True)
class MDSDescriptor:
    """Erasure code used to split messages in the large regime.

    Generator vectors are rows of the Vandermonde matrix on points 1..code
    length, so any ``split_count`` of them are linearly independent; they are
    generated on demand because the code length grows combinatorially.
    """

    split_count: int  # m: sub-messages per message
    code_length: int  # number of coded symbols / sub-problems
    subsets: tuple[tuple[int, ...], ...]  # lex-ordered t-subsets of [1..K_c]

    def vector(self, index: int, f: Field) -> FVector:
        """Generator vector for the 1-based lex index of a subset."""
        x = index % f.q
        if x == 0:
            raise ShapeMismatch("code length must stay below the field modulus")
        row = [pow(x, e, f.q) for e in range(self.split_count)]
        return FVector(f, row)

    def indices_containing(self, j: int) -> tuple[int, ...]:
        return tuple(
            i for i, s in enumerate(self.subsets, start=1) if j in s
        )

    def reconstruction_stack(self, j: int, f: Field) -> FMatrix:
        """m x m stack of generator vectors of all subsets containing j."""
        vecs = [self.vector(i, f) for i in self.indices_containing(j)]
        return vectors_as_matrix(vecs, f, self.split_count)

    def symbols(self, w: FMatrix, index: int) -> FMatrix:
        """Coded symbol block W_{., S} of a 1-based subset index.

        One row per message and L/m columns: the generator vector of S mixes
        the m sub-messages of every message.
        """
        m = self.split_count
        if w.cols == 0 or w.cols % m:
            raise ShapeMismatch(f"message length {w.cols} not divisible by {m}")
        lm = w.cols // m
        subs = w.array.reshape(w.rows, m, lm)
        flat = FMatrix(w.field, subs.transpose(1, 0, 2).reshape(m, w.rows * lm))
        vec = self.vector(index, w.field)
        mixed = mat_mul(FMatrix(w.field, vec.array.reshape(1, -1)), flat)
        return FMatrix(w.field, mixed.array.reshape(w.rows, lm))


@dataclass(frozen=True)
class GroupedWorker:
    worker: int
    pair_tags: tuple[tuple[int, ...], ...]  # complements T, lex order
    rows: FMatrix  # 3 x K message rows, one per tag
    relation: tuple[int, int]  # rows[2] == a*rows[0] + b*rows[1]

    @property
    def sent_rows(self) -> FMatrix:
        return self.rows.take_rows([0, 1])

    def expansion(self, tag: tuple[int, ...]) -> tuple[int, int]:
        """Coefficients of row ``tag`` over the two transmitted rows."""
        i = self.pair_tags.index(tag)
        return ((1, 0), (0, 1), self.relation)[i]


@dataclass(frozen=True)
class GroupedCode:
    tags: tuple[tuple[int, ...], ...]  # all 2-subsets T, lex order
    null_vectors: tuple[FVector, ...]  # task-space u_T per tag
    combined_rows: FMatrix  # message-space U_T per tag (len(tags) x K)
    workers: tuple[GroupedWorker, ...]

    def null_vector(self, tag: tuple[int, ...]) -> FVector:
        return self.null_vectors[self.tags.index(tag)]


@dataclass(frozen=True)
class Scheme:
    """A built coding scheme; frozen once constructed.

    ``_large_cache`` memoizes the large regime's lazily built sub-problems.
    """

    regime: str
    params: SchemeParams
    assignment: Assignment
    demand: DemandMatrix  # original demand over real datasets
    padded: FMatrix | None = None  # middle: [demand; padding] (t x width)
    padding_rows: int = 0
    workers: tuple[WorkerCode, ...] = ()
    subschemes: tuple["Scheme", ...] = ()  # small: one middle scheme per row
    aggregators: tuple[FMatrix, ...] = ()  # small: per-row N x width weights
    mds: MDSDescriptor | None = None
    grouped: GroupedCode | None = None
    virtual: VirtualLayout | None = None
    recombine: FMatrix | None = None  # fallback: rows -> original demand
    degenerate: bool = False
    _large_cache: dict = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def message_width(self) -> int:
        """Number of message rows the code operates on (effective slots)."""
        return self.virtual.effective_k if self.virtual else self.params.K

    @property
    def rows_per_worker(self) -> int:
        return self.message_width // self.params.N

    @property
    def split_count(self) -> int:
        """Sub-messages per message: the MDS split count, else 1."""
        return self.mds.split_count if self.mds else 1

    @property
    def subproblem_count(self) -> int:
        """Number of middle sub-problems; a middle scheme is its own one."""
        if self.mds is not None:
            return self.mds.code_length
        return len(self.subschemes) or 1

    def subproblem(self, i: int) -> "Scheme":
        """Middle sub-problem i (0-based) of a cyclic-family scheme."""
        if self.mds is not None:
            return self.subscheme(i + 1)
        return self.subschemes[i] if self.subschemes else self

    def subproblem_input(self, i: int, w_eff: FMatrix) -> FMatrix:
        """Message rows that the code rows of sub-problem i multiply."""
        if self.mds is not None:
            return self.mds.symbols(w_eff, i + 1)
        return mat_mul(self.aggregators[i], w_eff) if self.aggregators else w_eff

    @property
    def rows_sent(self) -> int:
        """Rows one worker sends per message block, over all sub-problems.

        Derived from the parameters alone, so no sub-problem is built.  A
        small-regime sub-problem runs on N aggregates: one row per worker.
        """
        if self.grouped is not None:
            return self.grouped.workers[0].sent_rows.rows
        return self.subproblem_count * (1 if self.subschemes else self.rows_per_worker)

    def subscheme(self, index: int) -> "Scheme":
        """Large regime: the middle scheme of the 1-based subset index."""
        if self.regime != LARGE:
            raise ShapeMismatch("subscheme() applies to the large regime only")
        if index not in self._large_cache:
            subset = self.mds.subsets[index - 1]
            source = self.virtual.effective_demand if self.virtual else self.demand.matrix
            sub_demand = DemandMatrix(source.take_rows([j - 1 for j in subset]))
            base = (
                self.virtual.effective_assignment if self.virtual else self.assignment
            )
            self._large_cache[index] = build_middle(sub_demand, base)
        return self._large_cache[index]


def regime_for(k_c: int, per: int, n_r: int) -> str:
    if k_c < per:
        return SMALL
    if k_c <= per * n_r:
        return MIDDLE
    return LARGE


def expected_cost(scheme: Scheme) -> int:
    """Communication cost the construction is designed to hit.

    N_r answers of ``rows_sent`` rows, each row 1/m of a message long.
    """
    return scheme.rows_sent * scheme.params.N_r // scheme.split_count


# ---------------------------------------------------------------------------
# Middle regime
# ---------------------------------------------------------------------------


def _unit_rows(t: int, count: int, f: Field) -> list[FVector]:
    eye = np.eye(t, dtype=np.int64)
    return [FVector(f, eye[i]) for i in range(count)]


def _null_code(
    padded: FMatrix, zbar: tuple[tuple[int, ...], ...], rows_per_worker: int
) -> tuple[tuple[WorkerCode, ...], bool]:
    f = padded.field
    t = padded.rows
    workers = []
    degenerate = False
    for n, cols in enumerate(zbar, start=1):
        sub = padded.take_columns([c - 1 for c in cols])
        basis = left_null_space(sub) if cols else _unit_rows(t, t, f)
        if len(basis) != rows_per_worker:
            degenerate = True
        chosen = basis[:rows_per_worker]
        assert len(chosen) == rows_per_worker, "null space smaller than guaranteed"
        task = vectors_as_matrix(chosen, f, t)
        workers.append(WorkerCode(n, task, mat_mul(task, padded)))
    return tuple(workers), degenerate


def build_middle(
    f_mat: DemandMatrix, a: Assignment, *, padding_seed: int = 0
) -> Scheme:
    """Null-space scheme for per <= K_c <= per * N_r on a cyclic assignment."""
    if a.kind != CYCLIC:
        raise ShapeMismatch("middle regime is built on a cyclic assignment")
    if f_mat.k != a.K:
        raise ShapeMismatch("demand width disagrees with the assignment")
    per = a.K // a.N
    t = per * a.N_r
    if not (per <= f_mat.k_c <= t):
        raise ShapeMismatch(
            f"middle regime needs {per} <= K_c <= {t}, got K_c={f_mat.k_c}"
        )
    padded = pad_demand(f_mat, t, derive_seed(padding_seed, "padding"))
    zbar = tuple(a.not_assigned(n) for n in range(1, a.N + 1))
    workers, degenerate = _null_code(padded.matrix, zbar, per)
    return Scheme(
        regime=MIDDLE,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f_mat.field.q),
        assignment=a,
        demand=f_mat,
        padded=padded.matrix,
        padding_rows=t - f_mat.k_c,
        workers=workers,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Small regime
# ---------------------------------------------------------------------------


def _aggregator(f_mat: DemandMatrix, row: int, n_workers: int) -> FMatrix:
    """Weights folding the K messages into N per-worker aggregates.

    Aggregate n collects the demand-row coefficients of messages n, n+N,
    n+2N, ...; it is computable by exactly the workers holding those
    messages, which coincide under the cyclic assignment.
    """
    k = f_mat.k
    arr = np.zeros((n_workers, k), dtype=np.int64)
    coeffs = f_mat.matrix.array[row - 1]
    for col in range(k):
        arr[col % n_workers, col] = coeffs[col]
    return FMatrix(f_mat.field, arr)


def build_small(
    f_mat: DemandMatrix, a: Assignment, *, padding_seed: int = 0
) -> Scheme:
    """One-combination sub-problems over aggregated messages (K_c < K/N)."""
    if a.kind != CYCLIC:
        raise ShapeMismatch("small regime is built on a cyclic assignment")
    per = a.K // a.N
    if not (1 <= f_mat.k_c < per):
        raise ShapeMismatch(f"small regime needs K_c < {per}, got {f_mat.k_c}")
    f = f_mat.field
    sub_assignment = cyclic_assignment(a.N, a.N, a.N_r)
    ones = demand_from_rows(f, [[1] * a.N])
    subschemes = []
    aggregators = []
    for j in range(1, f_mat.k_c + 1):
        subschemes.append(
            build_middle(
                ones, sub_assignment, padding_seed=derive_seed(padding_seed, "sub", j)
            )
        )
        aggregators.append(_aggregator(f_mat, j, a.N))
    return Scheme(
        regime=SMALL,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f.q),
        assignment=a,
        demand=f_mat,
        workers=(),
        subschemes=tuple(subschemes),
        aggregators=tuple(aggregators),
        degenerate=any(s.degenerate for s in subschemes),
    )


# ---------------------------------------------------------------------------
# Large regime
# ---------------------------------------------------------------------------


def build_large(
    f_mat: DemandMatrix, a: Assignment, l_symbols: int | None = None
) -> Scheme:
    """Erasure-coded message splitting for K_c > (K/N) * N_r."""
    if a.kind != CYCLIC:
        raise ShapeMismatch("large regime is built on a cyclic assignment")
    per = a.K // a.N
    t = per * a.N_r
    if not (t < f_mat.k_c <= f_mat.k):
        raise ShapeMismatch(f"large regime needs K_c > {t}, got {f_mat.k_c}")
    m = comb(f_mat.k_c - 1, t - 1)
    code_length = comb(f_mat.k_c, t)
    if l_symbols is None:
        l_symbols = m
    if l_symbols % m != 0:
        raise BadMessageLength(f"L={l_symbols} not divisible by split count {m}")
    if code_length >= f_mat.field.q:
        raise ShapeMismatch("code length must stay below the field modulus")
    mds = MDSDescriptor(
        split_count=m,
        code_length=code_length,
        subsets=tuple(combinations(range(1, f_mat.k_c + 1), t)),
    )
    return Scheme(
        regime=LARGE,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f_mat.field.q, L=l_symbols),
        assignment=a,
        demand=f_mat,
        mds=mds,
    )


# ---------------------------------------------------------------------------
# General K (virtual slots)
# ---------------------------------------------------------------------------


def _effective_demand(f_mat: DemandMatrix, a: Assignment, virtual_seed: int) -> FMatrix:
    """Embed the demand into effective slots; virtual columns drawn uniformly.

    Virtual messages are all-zero, so the recovered combinations do not
    depend on the virtual coefficients; drawing them uniformly keeps every
    column sub-matrix generic, which the null-space construction needs.
    """
    f = f_mat.field
    arr = np.zeros((f_mat.k_c, a.effective_k), dtype=np.int64)
    for k, slot in enumerate(a.slot_of_dataset, start=1):
        arr[:, slot - 1] = f_mat.matrix.array[:, k - 1]
    virtual_slots = sorted(set(range(1, a.effective_k + 1)) - set(a.slot_of_dataset))
    if virtual_slots:
        fill = random_matrix(
            f_mat.k_c, len(virtual_slots), f, derive_seed(virtual_seed, "virtual")
        )
        for i, slot in enumerate(virtual_slots):
            arr[:, slot - 1] = fill.array[:, i]
    return FMatrix(f, arr)


def build_general(
    f_mat: DemandMatrix,
    a: Assignment,
    *,
    l_symbols: int | None = None,
    padding_seed: int = 0,
    virtual_seed: int = 0,
) -> Scheme:
    """Run the divisible-K construction on the effective (padded-slot) problem."""
    if a.kind != GENERAL_VIRTUAL:
        raise ShapeMismatch("build_general expects a general-virtual assignment")
    if f_mat.k != a.K:
        raise ShapeMismatch("demand width disagrees with the assignment")
    eff_assignment = cyclic_assignment(a.effective_k, a.N, a.N_r)
    eff_demand = DemandMatrix(_effective_demand(f_mat, a, virtual_seed))
    built = build_cyclic_family(
        eff_demand, eff_assignment, l_symbols=l_symbols, padding_seed=padding_seed
    )
    layout = VirtualLayout(
        effective_k=a.effective_k,
        slot_of_dataset=a.slot_of_dataset,
        effective_demand=eff_demand.matrix,
        effective_assignment=eff_assignment,
    )
    return replace(
        built,
        params=replace(built.params, K=a.K),
        assignment=a,
        demand=f_mat,
        virtual=layout,
    )


def build_cyclic_family(
    f_mat: DemandMatrix,
    a: Assignment,
    *,
    l_symbols: int | None = None,
    padding_seed: int = 0,
    virtual_seed: int = 0,
) -> Scheme:
    """Build on a cyclic or general-virtual assignment; K_c picks the regime."""
    if a.kind == GENERAL_VIRTUAL:
        return build_general(f_mat, a, l_symbols=l_symbols, padding_seed=padding_seed,
                             virtual_seed=virtual_seed)
    regime = regime_for(f_mat.k_c, a.K // a.N, a.N_r)
    if regime == SMALL:
        return build_small(f_mat, a, padding_seed=padding_seed)
    if regime == MIDDLE:
        return build_middle(f_mat, a, padding_seed=padding_seed)
    return build_large(f_mat, a, l_symbols)


def build_auto(
    f_mat: DemandMatrix,
    n_workers: int,
    n_recover: int,
    *,
    l_symbols: int | None = None,
    padding_seed: int = 0,
    virtual_seed: int = 0,
) -> Scheme:
    """Pick the assignment and regime for the given demand.

    The general assignment is the cyclic one whenever N divides K.
    """
    a = general_assignment(f_mat.k, n_workers, n_recover)
    return build_cyclic_family(f_mat, a, l_symbols=l_symbols, padding_seed=padding_seed,
                               virtual_seed=virtual_seed)


# ---------------------------------------------------------------------------
# Grouped (non-cyclic) scheme
# ---------------------------------------------------------------------------


def _lex_pair_tags(n: int, n_workers: int) -> tuple[tuple[int, ...], ...]:
    others = [x for x in range(1, n_workers + 1) if x != n]
    return tuple(combinations(others, 2))


def build_grouped(f_mat: DemandMatrix, g: GroupedAssignment) -> Scheme:
    """Pairwise-cooperative scheme on the grouped assignment.

    For every 2-subset T of workers the construction fixes one null vector of
    the demand columns in group H_T; any surviving pair S jointly transmits
    the combination of the complement pair.  Free coefficients on shared
    groups are propagated worker by worker so that each worker's three
    partial sums have rank 2, and only two rows are actually sent.
    """
    if g.N != 4 or g.N_r != 3:
        raise UnsupportedGroupedParams("grouped scheme is built for 4 workers, N_r=3")
    k, k_c = f_mat.k, f_mat.k_c
    if k != g.K or k_c != k // g.N:
        raise UnsupportedGroupedParams(f"grouped scheme needs K_c = K/N, got {k_c}")
    group_size = k // comb(g.N, 2)
    if group_size != k_c - 1:
        raise UnsupportedGroupedParams(
            f"grouped scheme needs groups of K_c - 1 datasets, got {group_size}"
        )
    f = f_mat.field
    q = f.q
    tags = tuple(combinations(range(1, g.N + 1), 2))

    null_vectors = []
    combined = {}
    for t in tags:
        cols = [c - 1 for c in g.group_of(t)]
        basis = left_null_space(f_mat.matrix.take_columns(cols))
        if not basis:
            raise GroupedSolveFailed(f"demand columns of group {t} have full rank")
        null_vectors.append(basis[0])
        u_row = FMatrix(f, basis[0].array.reshape(1, -1))
        combined[t] = [int(x) for x in mat_mul(u_row, f_mat.matrix).array[0]]

    # rows[(n, t)][k] is worker n's coefficient on message k+1 in its share of
    # the pair combination for complement t; None marks a free coefficient on
    # the group shared with the partner worker.
    rows: dict[tuple[int, tuple[int, ...]], list] = {}
    for n in range(1, g.N + 1):
        others = [x for x in range(1, g.N + 1) if x != n]
        for t in _lex_pair_tags(n, g.N):
            partner = next(x for x in others if x not in t)
            row: list = [0] * k
            for j in others:
                grp = g.group_of(tuple(sorted((n, j))))
                for kk in grp:
                    row[kk - 1] = None if j == partner else combined[t][kk - 1]
            rows[(n, t)] = row

    def pin_partner(n: int, t: tuple[int, ...]) -> None:
        partner = next(
            x for x in range(1, g.N + 1) if x != n and x not in t
        )
        for kk in g.group_of(tuple(sorted((n, partner)))):
            if rows[(partner, t)][kk - 1] is None:
                rows[(partner, t)][kk - 1] = (
                    combined[t][kk - 1] - rows[(n, t)][kk - 1]
                ) % q

    relations: dict[int, tuple[int, int]] = {}

    # Worker 1: impose row3 = row1 + row2; every column has exactly one free
    # coefficient, so the relation fixes all six of them.
    t1, t2, t3 = _lex_pair_tags(1, g.N)
    r1, r2, r3 = rows[(1, t1)], rows[(1, t2)], rows[(1, t3)]
    for kk in g.z[0]:
        c = kk - 1
        if r1[c] is None:
            r1[c] = (r3[c] - r2[c]) % q
        elif r2[c] is None:
            r2[c] = (r3[c] - r1[c]) % q
        else:
            r3[c] = (r1[c] + r2[c]) % q
    relations[1] = (1, 1)
    for t in (t1, t2, t3):
        pin_partner(1, t)

    # Workers 2..4: the lex-last row is fully pinned by worker 1's groups;
    # force rank 2 by expressing it over the first two rows.
    for n in range(2, g.N + 1):
        ts = _lex_pair_tags(n, g.N)
        rn = [rows[(n, t)] for t in ts]
        known = [
            c
            for c in (kk - 1 for kk in g.z[n - 1])
            if all(r[c] is not None for r in rn)
        ]
        if len(known) < 2:
            raise GroupedSolveFailed(f"worker {n} has no solvable rank relation")
        c1, c2 = known[:2]
        det = (rn[0][c1] * rn[1][c2] - rn[0][c2] * rn[1][c1]) % q
        if det == 0:
            raise GroupedSolveFailed(f"worker {n}: rank system is singular")
        inv = ff_inv(det, f)
        coef_a = (rn[2][c1] * rn[1][c2] - rn[2][c2] * rn[1][c1]) * inv % q
        coef_b = (rn[0][c1] * rn[2][c2] - rn[0][c2] * rn[2][c1]) * inv % q
        for kk in g.z[n - 1]:
            c = kk - 1
            if rn[2][c] is None:
                raise GroupedSolveFailed(f"worker {n}: reference row not pinned")
            if rn[0][c] is None:
                if coef_a == 0:
                    raise GroupedSolveFailed(f"worker {n}: zero combination weight")
                rn[0][c] = (rn[2][c] - coef_b * rn[1][c]) * ff_inv(coef_a, f) % q
            elif rn[1][c] is None:
                if coef_b == 0:
                    raise GroupedSolveFailed(f"worker {n}: zero combination weight")
                rn[1][c] = (rn[2][c] - coef_a * rn[0][c]) * ff_inv(coef_b, f) % q
        relations[n] = (int(coef_a), int(coef_b))
        for t in ts:
            pin_partner(n, t)

    # Every pairing constraint must close exactly.
    for s in tags:
        t = tuple(x for x in range(1, g.N + 1) if x not in s)
        for c in range(k):
            total = (rows[(s[0], t)][c] + rows[(s[1], t)][c]) % q
            if total != combined[t][c]:
                raise GroupedSolveFailed(
                    f"pair {s} cannot jointly form the combination of {t}"
                )

    workers = []
    for n in range(1, g.N + 1):
        ts = _lex_pair_tags(n, g.N)
        mat = fl.from_rows(f, [rows[(n, t)] for t in ts])
        if fl.rank(mat) != 2 or fl.rank(mat.take_rows([0, 1])) != 2:
            raise GroupedSolveFailed(f"worker {n}: transmissions do not have rank 2")
        workers.append(
            GroupedWorker(worker=n, pair_tags=ts, rows=mat, relation=relations[n])
        )

    code = GroupedCode(
        tags=tags,
        null_vectors=tuple(null_vectors),
        combined_rows=fl.from_rows(f, [combined[t] for t in tags]),
        workers=tuple(workers),
    )
    return Scheme(
        regime=GROUPED_REGIME,
        params=SchemeParams(g.K, g.N, g.N_r, k_c, q),
        assignment=g,
        demand=f_mat,
        grouped=code,
    )


# ---------------------------------------------------------------------------
# Adversarial demand fixtures
# ---------------------------------------------------------------------------


def adversarial_fixture(
    K: int,
    N: int,
    N_r: int,
    responding_set: tuple[int, ...],
    seed: int,
    f: Field | None = None,
) -> DemandMatrix:
    """Structured demand whose code for ``responding_set`` is a unit stack.

    Block-diagonal with K/N blocks of N_r x N; inside each block, row i is
    zero exactly on the datasets its designated responder does not hold (a
    run of N_r - 1 adjacent columns) and uniform nonzero elsewhere.  The
    designated responders' code rows are then exactly unit vectors.
    """
    f = f or Field(DEFAULT_MODULUS)
    if K % N != 0:
        raise ShapeMismatch("fixture needs N to divide K")
    resp = tuple(sorted(set(responding_set)))
    if len(resp) != N_r or not all(1 <= n <= N for n in resp):
        raise ShapeMismatch(f"responding set must be N_r={N_r} distinct workers")
    blocks = K // N
    base = cyclic_assignment(N, N, N_r)
    stream = fl.ElementStream(f, derive_seed(seed, "fixture"))
    arr = np.zeros((blocks * N_r, K), dtype=np.int64)
    for blk in range(blocks):
        for i, worker in enumerate(resp):
            missing = set(base.not_assigned(worker))
            row = blk * N_r + i
            for col in range(1, N + 1):
                if col not in missing:
                    arr[row, blk * N + col - 1] = stream.nonzero(1)[0]
    return DemandMatrix(FMatrix(f, arr))

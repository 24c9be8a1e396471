"""Construction of per-worker coding schemes.

Three regimes cover a demand of K_c combinations when N divides K, with
per = K/N rows of message data per worker and t = per * N_r recoverable
combinations:

* ``small``  (K_c < per): the demand splits into K_c independent one-row
  sub-problems over per-worker aggregated messages.
* ``middle`` (per <= K_c <= t): the demand is padded with uniform rows up to
  t, and each worker sends the canonical left-null-space rows of the demand
  columns it cannot compute.
* ``large``  (K_c > t): every message is split into m sub-messages and
  expanded into erasure-coded symbols, one per window of the design: the
  K_c/g cyclic windows of t consecutive demand rows, g = gcd(K_c, t), so
  every row lies in m = t/g windows.  One middle sub-problem is solved per
  window.

All three are S middle sub-problems, and a ``Scheme`` holds them as two
read-only arrays: ``padded``, the ``(S, t, width)`` stack of each
sub-problem's demand over its padding rows, and ``code``, the
``(S, N, per, t)`` stack of every worker's canonical null rows.  A middle
scheme is one sub-problem on the messages; a small scheme has one per demand
row, an all-ones row on that row's aggregates; a large scheme has one per
window, on that window's coded symbol block.  ``_null_code`` fills ``code``
from one batched elimination over all workers of all sub-problems.
``Scheme.encoder(n)`` folds worker n's rows of every sub-problem into one
encoding matrix E_n over the split messages, built on demand, so every
scheme kind encodes as one product.

When N does not divide K, the demand is embedded into N*ceil(K/N) effective
slots (the extra slots carry all-zero messages) and the same machinery runs
on the effective problem.

A non-cyclic "grouped" construction exists for the N=4, N_r=3, K_c=K/N=3
family, where it halves the cyclic scheme's communication cost.

``build_scheme`` is the one construction: the assignment's kind picks the
construction and K_c the regime, and every public builder goes through it.
A scheme is a deterministic function of its demand, its assignment and its
random inputs (the padding rows of each middle sub-problem and the
virtual-slot coefficients), which come from one ``_Draws`` source: drawn from
seeds, or the ones a scheme file stores.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import combinations
from math import comb, gcd
from typing import Sequence

import numpy as np

from . import field as fl
from .assignment import (
    CYCLIC,
    GENERAL_VIRTUAL,
    GROUPED,
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


@dataclass(frozen=True)
class SchemeParams:
    K: int
    N: int
    N_r: int
    K_c: int
    q: int
    L: int | None = None  # fixed only where the construction splits messages


@dataclass(frozen=True)
class VirtualLayout:
    """Embedding of K real datasets into N*ceil(K/N) effective slots."""

    effective_k: int
    slot_of_dataset: tuple[int, ...]
    effective_demand: FMatrix  # K_c x effective_k; virtual columns are random


@dataclass(frozen=True)
class MDSDescriptor:
    """Erasure code used to split messages in the large regime.

    Generator vectors are rows of the Vandermonde matrix on points 1..code
    length, so any ``split_count`` of them are linearly independent, and are
    generated on demand.  Window i's coded symbol block mixes the
    ``split_count`` sub-messages of every message by vector i; the encoder
    scales the window's code rows by it instead of forming the block.  Every
    demand row lies in exactly ``split_count`` of the ``subsets``, which is
    all that rebuilding the row from its symbols needs.
    """

    split_count: int  # m: sub-messages per message
    subsets: tuple[tuple[int, ...], ...]  # lex-ordered t-subsets of [1..K_c]

    @property
    def code_length(self) -> int:
        """Number of coded symbols, one sub-problem each."""
        return len(self.subsets)

    def generator_rows(
        self, indices, f: Field, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Generator vectors of an array of 1-based lex indices, as one array.

        Entry ``e`` of index x's row is x^e mod q, built column by column as
        running products, each below (q-1)^2.  The rows are written into
        ``out`` (shape ``indices.shape + (m,)``) when it is given.
        """
        x = np.asarray(indices, dtype=np.int64) % f.q
        if not x.all():
            raise ShapeMismatch("code length must stay below the field modulus")
        if out is None:
            out = np.empty(x.shape + (self.split_count,), dtype=np.int64)
        out[..., 0] = 1
        for e in range(1, self.split_count):
            out[..., e] = out[..., e - 1] * x % f.q
        return out


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


@dataclass(frozen=True, eq=False)
class Scheme:
    """A built coding scheme; frozen once constructed, with every sub-problem.

    Not comparable: ``padded`` and ``code`` are arrays.  Sub-problem s's
    demand is its first ``t - padding_rows`` rows of ``padded[s]``, and
    ``code[s, n - 1]`` holds worker n's rows in it, in task coefficients.
    """

    regime: str
    params: SchemeParams
    assignment: Assignment
    demand: DemandMatrix  # original demand over real datasets
    padded: np.ndarray | None = None  # (S, t, width), read-only; None: grouped
    code: np.ndarray | None = None  # (S, N, per, t), read-only; None: grouped
    padding_rows: int = 0  # per sub-problem
    mds: MDSDescriptor | None = None
    grouped: GroupedCode | None = None
    virtual: VirtualLayout | None = None
    recombine: FMatrix | None = None  # fallback: rows -> original demand
    degenerate: bool = False

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

    def encoder(self, n: int) -> FMatrix:
        """Worker n's encoding matrix E_n; its answer is E_n times the split messages.

        Rows are the rows worker n sends, sub-problem by sub-problem.
        Columns are (sub-message e, real dataset k), e-major, with m =
        ``split_count`` sub-messages per message.  Built on demand: one
        batched product gives worker n's rows M_{s,n} = code[s, n-1] padded[s]
        of every sub-problem, then elementwise products only.  A small
        scheme's row j weights M_{j,n}[k mod N] by demand row j's coefficient
        on k (the effective demand's, with virtual slots), since aggregate
        k mod N collects message k with that weight; a large scheme's block
        (s, e) is v_s[e] M_{s,n}; virtual slots, whose messages are zero, lose
        their columns.
        """
        if self.grouped is not None:
            return self.grouped.workers[n - 1].sent_rows
        f = self.demand.field
        rows = fl._mul_batch(self.code[:, n - 1], self.padded, f.q)
        if self.regime == SMALL:
            demand = self.virtual.effective_demand if self.virtual else self.demand.matrix
            coef = demand.array
            spread = np.arange(coef.shape[1]) % self.params.N
            rows = rows[:, :, spread] * coef[:, None, :] % f.q
        s, per, width = rows.shape
        if self.mds is not None:
            v = self.mds.generator_rows(np.arange(1, s + 1), f)
            rows = v[:, None, :, None] * rows[:, :, None, :] % f.q
        rows = rows.reshape(s * per, self.split_count, width)
        if self.virtual is not None:
            rows = rows[:, :, np.array(self.virtual.slot_of_dataset) - 1]
        return FMatrix(f, rows.reshape(s * per, -1))

    @property
    def rows_sent(self) -> int:
        """Rows one worker sends per message block, over all sub-problems."""
        return 2 if self.code is None else self.code.shape[0] * self.code.shape[2]


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
# Random inputs and the one construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Draws:
    """The random inputs of one construction.

    ``padding(j, ...)`` gives the rows appended below the demand of middle
    sub-problem j (0 for a middle scheme, 1..K_c for the small regime's), or
    None when it needs none; ``virtual(...)`` gives the virtual-slot
    coefficients.  Both are drawn from the seeds, as the public builders
    always have, unless ``stored_padding`` (rows by j) and
    ``stored_effective`` (the effective demand) hold those of a scheme file.
    """

    padding_seed: int = 0
    virtual_seed: int = 0
    stored_padding: dict[int, FMatrix | None] | None = None
    stored_effective: FMatrix | None = None

    def padding(self, j: int, rows: int, width: int, f: Field) -> FMatrix | None:
        if self.stored_padding is not None:
            return self.stored_padding[j]
        if rows == 0:
            return None
        seed = derive_seed(self.padding_seed, "sub", j) if j else self.padding_seed
        return random_matrix(rows, width, f, derive_seed(seed, "padding"))

    def virtual(self, k_c: int, slots: Sequence[int], f: Field) -> FMatrix:
        if self.stored_effective is not None:
            return self.stored_effective.take_columns([s - 1 for s in slots])
        return random_matrix(k_c, len(slots), f, derive_seed(self.virtual_seed, "virtual"))


def build_scheme(
    f_mat: DemandMatrix,
    a: Assignment,
    *,
    l_symbols: int | None = None,
    padding_seed: int = 0,
    virtual_seed: int = 0,
    _draws: _Draws | None = None,
) -> Scheme:
    """Build on any assignment: its kind picks the construction, K_c the regime.

    A grouped assignment gets the grouped scheme; a general-virtual one runs
    the cyclic construction on its effective slots.  The random inputs are
    drawn from the two seeds, unless the scheme loader passes the ones a file
    stores as ``_draws``.
    """
    if f_mat.k != a.K:
        raise ShapeMismatch("demand width disagrees with the assignment")
    draws = _draws or _Draws(padding_seed, virtual_seed)
    if a.kind == GROUPED:
        return build_grouped(f_mat, a)
    if a.kind == GENERAL_VIRTUAL:
        eff_assignment = cyclic_assignment(a.effective_k, a.N, a.N_r)
        eff_demand = _effective_demand(f_mat, a, draws)
        built = build_scheme(
            DemandMatrix(eff_demand), eff_assignment, l_symbols=l_symbols, _draws=draws
        )
        layout = VirtualLayout(
            effective_k=a.effective_k,
            slot_of_dataset=a.slot_of_dataset,
            effective_demand=eff_demand,
        )
        return replace(
            built,
            params=replace(built.params, K=a.K),
            assignment=a,
            demand=f_mat,
            virtual=layout,
        )
    per = a.K // a.N
    regime = regime_for(f_mat.k_c, per, a.N_r)
    if regime == SMALL:
        return _small(f_mat, a, draws)
    if regime == MIDDLE:
        return _middle(f_mat, a, draws)
    return _large(f_mat, a, l_symbols)


def _require_cyclic_regime(f_mat: DemandMatrix, a: Assignment, regime: str) -> None:
    """Raise unless ``build_scheme`` builds ``regime`` for this demand on ``a``."""
    if a.kind != CYCLIC:
        raise ShapeMismatch(f"{regime} regime is built on a cyclic assignment")
    per = a.K // a.N
    if regime_for(f_mat.k_c, per, a.N_r) != regime:
        raise ShapeMismatch(
            f"K_c={f_mat.k_c} is outside the {regime} regime at K/N={per}, N_r={a.N_r}"
        )


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
    return build_scheme(f_mat, a, l_symbols=l_symbols, padding_seed=padding_seed,
                        virtual_seed=virtual_seed)


# ---------------------------------------------------------------------------
# Middle regime
# ---------------------------------------------------------------------------


def _padded(demand: np.ndarray, paddings: Sequence[FMatrix | None]) -> np.ndarray:
    """Read-only ``(S, t, width)`` stack of the demand over each padding (None: none)."""
    padded = np.stack(
        [demand if p is None else np.vstack([demand, p.array]) for p in paddings]
    )
    padded.setflags(write=False)
    return padded


def _null_code(padded: np.ndarray, a: Assignment, f: Field) -> tuple[np.ndarray, bool]:
    """Code rows of every padded demand of a stack, and whether any is degenerate.

    Worker n's rows ``code[s, n - 1]`` are the first K/N canonical left null
    vectors of the columns of ``padded[s]`` it misses on the cyclic ``a``;
    every worker misses the same number, so all null spaces of the
    ``(S, t, width)`` stack come from one batched elimination.  The stack is
    degenerate where some null space is larger than K/N.
    """
    s, t, _ = padded.shape
    per = a.K // a.N
    if t != per * a.N_r:
        raise ShapeMismatch(f"padded demand has {t} rows, not {per * a.N_r}")
    cols = np.array([a.not_assigned(n) for n in range(1, a.N + 1)], dtype=np.intp)
    cols = cols.reshape(a.N, -1) - 1
    blocks = padded[:, :, cols].transpose(0, 2, 1, 3).reshape(s * a.N, t, cols.shape[1])
    bases = fl._left_null_batch(blocks, f.q)
    assert all(len(b) >= per for b in bases), "null space smaller than guaranteed"
    code = np.stack([b[:per] for b in bases]).reshape(s, a.N, per, t)
    code.setflags(write=False)
    return code, any(len(b) != per for b in bases)


def build_middle(
    f_mat: DemandMatrix, a: Assignment, *, padding_seed: int = 0
) -> Scheme:
    """Null-space scheme for per <= K_c <= per * N_r on a cyclic assignment."""
    _require_cyclic_regime(f_mat, a, MIDDLE)
    return build_scheme(f_mat, a, padding_seed=padding_seed)


def _middle(f_mat: DemandMatrix, a: Assignment, draws: _Draws) -> Scheme:
    """The one sub-problem: the demand over uniform rows up to t = K/N * N_r."""
    f = f_mat.field
    padding = draws.padding(0, a.K // a.N * a.N_r - f_mat.k_c, a.K, f)
    padded = _padded(f_mat.matrix.array, [padding])
    code, degenerate = _null_code(padded, a, f)
    return Scheme(
        regime=MIDDLE,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f.q),
        assignment=a,
        demand=f_mat,
        padded=padded,
        code=code,
        padding_rows=padded.shape[1] - f_mat.k_c,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Small regime
# ---------------------------------------------------------------------------


def build_small(
    f_mat: DemandMatrix, a: Assignment, *, padding_seed: int = 0
) -> Scheme:
    """One-combination sub-problems over aggregated messages (K_c < K/N)."""
    _require_cyclic_regime(f_mat, a, SMALL)
    return build_scheme(f_mat, a, padding_seed=padding_seed)


def _small(f_mat: DemandMatrix, a: Assignment, draws: _Draws) -> Scheme:
    """Demand row j is sub-problem j: the all-ones row on N aggregates.

    Aggregate n collects row j's terms on messages n, n+N, n+2N, ..., so it
    is computable by exactly the workers holding those messages, which
    coincide under the cyclic assignment; the sub-problems therefore run on
    the cyclic assignment of N datasets.
    """
    f = f_mat.field
    padded = _padded(
        np.ones((1, a.N), dtype=np.int64),
        [draws.padding(j, a.N_r - 1, a.N, f) for j in range(1, f_mat.k_c + 1)],
    )
    code, degenerate = _null_code(padded, cyclic_assignment(a.N, a.N, a.N_r), f)
    return Scheme(
        regime=SMALL,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f.q),
        assignment=a,
        demand=f_mat,
        padded=padded,
        code=code,
        padding_rows=a.N_r - 1,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Large regime
# ---------------------------------------------------------------------------


def cyclic_design(k_c: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The K_c/g cyclic windows of t consecutive rows of [1..K_c], g = gcd(K_c, t).

    Window s holds rows s+1, ..., s+t (mod K_c), for s = 0, g, 2g, ...; each
    row lies in t/g of them.  Windows are sorted and listed in lex order, so
    at K_c = t + 1 they are every t-subset, in ``combinations`` order.
    """
    return tuple(sorted(
        tuple(sorted((s + i) % k_c + 1 for i in range(t)))
        for s in range(0, k_c, gcd(k_c, t))
    ))


def build_large(
    f_mat: DemandMatrix, a: Assignment, l_symbols: int | None = None
) -> Scheme:
    """Erasure-coded message splitting for K_c > (K/N) * N_r."""
    _require_cyclic_regime(f_mat, a, LARGE)
    return build_scheme(f_mat, a, l_symbols=l_symbols)


def _large(f_mat: DemandMatrix, a: Assignment, l_symbols: int | None) -> Scheme:
    t = a.K // a.N * a.N_r
    design = cyclic_design(f_mat.k_c, t)
    m = t * len(design) // f_mat.k_c  # rows per window times windows, per row
    l_symbols = m if l_symbols is None else operator.index(l_symbols)
    if l_symbols % m != 0:
        raise BadMessageLength(f"L={l_symbols} not divisible by split count {m}")
    if len(design) >= f_mat.field.q:
        raise ShapeMismatch("code length must stay below the field modulus")
    # A window of t demand rows needs no padding.
    padded = f_mat.matrix.array[np.array(design) - 1]
    padded.setflags(write=False)
    code, _ = _null_code(padded, a, f_mat.field)  # not reported yet: ROADMAP item 5
    return Scheme(
        regime=LARGE,
        params=SchemeParams(a.K, a.N, a.N_r, f_mat.k_c, f_mat.field.q, L=l_symbols),
        assignment=a,
        demand=f_mat,
        padded=padded,
        code=code,
        mds=MDSDescriptor(split_count=m, subsets=design),
    )


# ---------------------------------------------------------------------------
# General K (virtual slots)
# ---------------------------------------------------------------------------


def _effective_demand(f_mat: DemandMatrix, a: Assignment, draws: _Draws) -> FMatrix:
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
    fill = draws.virtual(f_mat.k_c, virtual_slots, f)
    for i, slot in enumerate(virtual_slots):
        arr[:, slot - 1] = fill.array[:, i]
    return FMatrix(f, arr)


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

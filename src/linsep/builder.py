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
from one batched elimination over all workers of all sub-problems; it
gathers each worker's missed columns from the cyclic rule's mask,
``assignment.cyclic_holds``, over the stack's width (K, the effective slots,
or the small regime's N aggregates), so no assignment is rebuilt for it.
``Scheme.encoder(n)`` folds worker n's rows of every sub-problem into one
encoding matrix E_n over the split messages, built on demand, so every
scheme kind encodes as one product.

When N does not divide K, the demand is embedded into N*ceil(K/N) effective
slots (the extra slots carry all-zero messages) and the same machinery runs
on the effective problem: ``Scheme.effective_demand`` holds the embedded
demand, and the assignment the slot of every dataset.

A non-cyclic "grouped" construction exists for the N=4, N_r=3, K_c=K/N=3
family, where it halves the cyclic scheme's communication cost; its scheme
holds ``GroupedCode``, four read-only arrays built with the same batched
kernels.

``build_scheme`` is the one entry: a grouped assignment gets
``build_grouped``, and every other scheme is built by ``_cyclic``, the one
cyclic-family construction, whose regime picks the ``padded`` stack it
codes.  A scheme is a deterministic function of its demand, its assignment
and its random inputs (the padding rows of each middle sub-problem and the
virtual-slot coefficients), which come from one ``_Draws`` source: drawn from
seeds, or the ones a scheme file stores.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd
from typing import Sequence

import numpy as np

from . import field as fl
from .assignment import (
    GENERAL_VIRTUAL,
    GROUPED,
    Assignment,
    GroupedAssignment,
    cyclic_holds,
    general_assignment,
)
from .errors import (
    BadMessageLength,
    GroupedSolveFailed,
    ShapeMismatch,
    UnsupportedGroupedParams,
)
from .field import Field, FMatrix, derive_seed, random_matrix

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

    def generator_rows(self, indices, f: Field) -> np.ndarray:
        """Generator vectors of an array of 1-based lex indices, as one array.

        Entry ``e`` of index x's row is x^e mod q, built column by column as
        running products, each below (q-1)^2.
        """
        x = np.asarray(indices, dtype=np.int64) % f.q
        out = np.empty(x.shape + (self.split_count,), dtype=np.int64)
        out[..., 0] = 1
        for e in range(1, self.split_count):
            out[..., e] = out[..., e - 1] * x % f.q
        return out


@dataclass(frozen=True, eq=False)
class GroupedCode:
    """The grouped scheme's read-only arrays, by tag in ``grouped_tags`` order.

    ``null_vectors[i]`` is u_T of tag i and ``combined[i]`` is U_T = u_T F;
    ``rows[n - 1]`` holds worker n's shares in the order of
    ``grouped_tags(N, n)``, and it sends rows 0 and 1, as row 2 is
    ``relations[n - 1]`` = (a, b) times them.
    """

    null_vectors: np.ndarray  # (6, K_c)
    combined: np.ndarray  # (6, K)
    rows: np.ndarray  # (N, 3, K)
    relations: np.ndarray  # (N, 2)


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
    # K_c x effective_k, on the assignment's effective slots; None: no virtual slots
    effective_demand: FMatrix | None = None
    recombine: FMatrix | None = None  # fallback: rows -> original demand
    degenerate: bool = False

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
        if not (1 <= n <= self.params.N):
            raise ShapeMismatch(f"no worker {n} in a {self.params.N}-worker scheme")
        f = self.demand.field
        if self.grouped is not None:
            return FMatrix._of(f, self.grouped.rows[n - 1, :2])
        rows = fl._mul_batch(self.code[:, n - 1], self.padded, f.q)
        if self.regime == SMALL:
            demand = self.effective_demand
            coef = (self.demand.matrix if demand is None else demand).array
            spread = np.arange(coef.shape[1]) % self.params.N
            rows = rows[:, :, spread] * coef[:, None, :] % f.q
        s, per, width = rows.shape
        if self.mds is not None:
            v = self.mds.generator_rows(np.arange(1, s + 1), f)
            rows = v[:, None, :, None] * rows[:, :, None, :] % f.q
        rows = rows.reshape(s * per, self.split_count, width)
        if self.effective_demand is not None:
            rows = rows[:, :, np.array(self.assignment.slot_of_dataset) - 1]
        return FMatrix._of(f, rows.reshape(s * per, -1))

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
    coefficients, an array on the effective demand's 0-based columns
    ``cols``.  Both are drawn from the seeds unless ``stored_padding`` (rows
    by j) and ``stored_effective`` (the effective demand) hold those of a
    scheme file.
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

    def virtual(self, k_c: int, cols: Sequence[int], f: Field) -> np.ndarray:
        if self.stored_effective is not None:
            return self.stored_effective.array[:, cols]
        seed = derive_seed(self.virtual_seed, "virtual")
        return random_matrix(k_c, len(cols), f, seed).array


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

    A grouped assignment gets the grouped scheme; any other the cyclic-family
    one.  The random inputs are drawn from the two seeds, unless the scheme
    loader passes the ones a file stores as ``_draws``.
    """
    if f_mat.k != a.K:
        raise ShapeMismatch("demand width disagrees with the assignment")
    if a.kind == GROUPED:
        return build_grouped(f_mat, a)
    return _cyclic(f_mat, a, _draws or _Draws(padding_seed, virtual_seed), l_symbols)


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
# The cyclic family
# ---------------------------------------------------------------------------


def _padded(demand: np.ndarray, paddings: Sequence[FMatrix | None]) -> np.ndarray:
    """Read-only ``(S, t, width)`` stack of the demand over each padding (None: none)."""
    padded = np.stack(
        [demand if p is None else np.vstack([demand, p.array]) for p in paddings]
    )
    padded.setflags(write=False)
    return padded


def _null_code(padded: np.ndarray, n: int, n_r: int, q: int) -> tuple[np.ndarray, bool]:
    """Code rows of every padded demand of a stack, and whether any is degenerate.

    With per = width/n, worker w's rows ``code[s, w - 1]`` are the first per
    canonical left null vectors of the columns of ``padded[s]`` it misses
    under the cyclic rule on ``width`` columns.  The gather index is row by
    row the false columns of ``cyclic_holds``, in increasing order; every
    worker misses the same number, so all null spaces of the
    ``(S, t, width)`` stack come from one batched elimination.  The stack is
    degenerate where some null space is larger than per.
    """
    s, t, width = padded.shape
    per = width // n
    if t != per * n_r:
        raise ShapeMismatch(f"padded demand has {t} rows, not {per * n_r}")
    cols = np.nonzero(~cyclic_holds(width, n, n_r))[1].reshape(n, -1)
    blocks = padded[:, :, cols].transpose(0, 2, 1, 3).reshape(s * n, t, cols.shape[1])
    code, nullity = fl._left_null_batch(blocks, q, per)
    assert (nullity >= per).all(), "null space smaller than guaranteed"
    code = code.reshape(s, n, per, t)
    code.setflags(write=False)
    return code, bool((nullity != per).any())


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


def _cyclic(
    f_mat: DemandMatrix, a: Assignment, draws: _Draws, l_symbols: int | None
) -> Scheme:
    """The cyclic-family scheme: one stack of middle sub-problems, by regime.

    A general-virtual demand is first embedded into the effective slots.
    The code always runs on the cyclic rule over the stack's width columns.
    With per = width/N and t = per * N_r, the regime picks the stack:

    * small: demand row j is sub-problem j, the all-ones row on N aggregates
      over N_r - 1 padding rows.  Aggregate n collects row j's terms on
      messages n, n+N, n+2N, ..., so it is computable by exactly the workers
      holding those messages, which coincide under the cyclic rule; the
      code therefore runs on the cyclic rule over N columns.
    * middle: the one sub-problem, the demand over t - K_c padding rows.
    * large: one sub-problem per cyclic window of t demand rows, which needs
      no padding; every message splits into m sub-messages, and L must be a
      positive multiple of m.
    """
    f, k_c = f_mat.field, f_mat.k_c
    demand, effective = f_mat.matrix.array, None
    if a.kind == GENERAL_VIRTUAL:
        effective = _effective_demand(f_mat, a, draws)
        demand = effective.array
    per = demand.shape[1] // a.N
    t = per * a.N_r
    regime, mds, length = regime_for(k_c, per, a.N_r), None, None
    if regime == SMALL:
        pad = a.N_r - 1
        paddings = [draws.padding(j, pad, a.N, f) for j in range(1, k_c + 1)]
        padded = _padded(np.ones((1, a.N), dtype=np.int64), paddings)
    elif regime == MIDDLE:
        pad = t - k_c
        padded = _padded(demand, [draws.padding(0, pad, demand.shape[1], f)])
    else:
        pad, design = 0, cyclic_design(k_c, t)
        m = t * len(design) // k_c  # rows per window times windows, per row
        length = m if l_symbols is None else operator.index(l_symbols)
        if length < 1:
            raise BadMessageLength(f"L={length} must be at least 1")
        if length % m != 0:
            raise BadMessageLength(f"L={length} not divisible by split count {m}")
        if len(design) >= f.q:
            raise ShapeMismatch("code length must stay below the field modulus")
        padded = demand[np.array(design) - 1]
        padded.setflags(write=False)
        mds = MDSDescriptor(split_count=m, subsets=design)
    code, degenerate = _null_code(padded, a.N, a.N_r, f.q)
    return Scheme(
        regime=regime,
        params=SchemeParams(a.K, a.N, a.N_r, k_c, f.q, L=length),
        assignment=a,
        demand=f_mat,
        padded=padded,
        code=code,
        padding_rows=pad,
        mds=mds,
        effective_demand=effective,
        degenerate=degenerate,
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
    arr = np.zeros((f_mat.k_c, a.effective_k), dtype=np.int64)
    real = [slot - 1 for slot in a.slot_of_dataset]
    virtual = sorted(set(range(a.effective_k)) - set(real))
    arr[:, real] = f_mat.matrix.array
    arr[:, virtual] = draws.virtual(f_mat.k_c, virtual, f_mat.field)
    return FMatrix._of(f_mat.field, arr)


# ---------------------------------------------------------------------------
# Grouped (non-cyclic) scheme
# ---------------------------------------------------------------------------


def grouped_tags(n_workers: int, without: int = 0) -> list[tuple[int, int]]:
    """The 2-subsets T of workers in lex order; only those without ``without``.

    Worker n's shares of the grouped scheme follow ``grouped_tags(N, n)``.
    """
    return [t for t in combinations(range(1, n_workers + 1), 2) if without not in t]


def build_grouped(f_mat: DemandMatrix, g: GroupedAssignment) -> Scheme:
    """Pairwise-cooperative scheme on the grouped assignment.

    For every 2-subset T of workers the construction fixes one null vector
    u_T of the demand columns in group H_T; any surviving pair S jointly
    transmits U_T = u_T F for its complement T.  Worker n's share of T
    equals U_T on the groups it alone holds within S = {n, p} and is free on
    H_S, which it splits with its partner p.  Worker by worker, a relation
    row 3 = a row 1 + b row 2 is fixed (a = b = 1 for worker 1; for worker n
    solved on H_{1,n}, all of whose entries worker 1 pins), the worker's free
    entries follow from it, and each partner's share of T is pinned to U_T
    minus the worker's.  The three shares then have rank 2, and only the
    first two are sent.
    """
    if g.N != 4 or g.N_r != 3:
        raise UnsupportedGroupedParams("grouped scheme is built for 4 workers, N_r=3")
    k, k_c = f_mat.k, f_mat.k_c
    if k != g.K or k_c * g.N != k:
        raise UnsupportedGroupedParams(f"grouped scheme needs K_c = K/N, got {k_c}")
    group_size = k // comb(g.N, 2)
    if group_size != k_c - 1:
        raise UnsupportedGroupedParams(
            f"grouped scheme needs groups of K_c - 1 datasets, got {group_size}"
        )
    q, demand = f_mat.field.q, f_mat.matrix.array
    tags = grouped_tags(g.N)
    cols = np.array([members for _, members in g.groups]) - 1  # H_T, by tag
    # A group's block is K_c x (K_c - 1), so it always has a left null vector.
    nulls = fl._left_null_batch(demand[:, cols].transpose(1, 0, 2), q, 1)[0]
    nulls = nulls.reshape(len(tags), k_c)
    combined = fl._mul_batch(nulls, demand, q)

    # Share r of worker i + 1 is of tag mine[i, r].  Lex order puts each
    # tag's complement, the pair of the worker and its partner, at the
    # mirrored index comp[i, r]; the partner holds the tag in share back[i, r].
    idx = np.arange(g.N)[:, None]
    mine = np.array([[tags.index(t) for t in grouped_tags(g.N, n + 1)] for n in range(g.N)])
    comp = len(tags) - 1 - mine
    partner = np.array(tags)[comp].sum(axis=2) - idx - 2  # 0-based, like idx
    back = (mine[partner] == mine[:, :, None]).argmax(axis=2)
    shared = cols[comp]  # (N, 3, K_c - 1): the group each share splits
    r = np.arange(3)[:, None]  # share index
    free = np.zeros((g.N, 3, k), dtype=bool)
    free[idx[:, :, None], r, shared] = True
    held = np.zeros((g.N, k), dtype=bool)
    held[idx, np.array(g.z) - 1] = True
    rows = np.where(held[:, None] & ~free, combined[mine], 0)

    relations = np.ones((g.N, 2), dtype=np.int64)
    for i in range(g.N):
        if i:  # solved on H_{1,i+1}, the group of tag i - 1
            x, ok = fl._solve_batch(rows[i][:, cols[i - 1]].T[None], q)
            if not ok[0]:
                raise GroupedSolveFailed(f"worker {i + 1}: rank system is singular")
            relations[i] = x[0, :, 0]
        w = np.append(relations[i], q - 1)  # w . rows[i] = 0 in every column
        if (free[i].any(axis=1) & (w == 0)).any():
            raise GroupedSolveFailed(f"worker {i + 1}: zero combination weight")
        inv = fl._inv_vec(w, q)[:, None]
        fill = -(w[:, None] * rows[i] % q).sum(axis=0) % q * inv % q
        rows[i] = np.where(free[i], fill, rows[i])
        free[i] = False
        at = (partner[i, :, None], back[i, :, None], shared[i])
        rows[at] = (combined[mine[i, :, None], shared[i]] - rows[i, r, shared[i]]) % q
        free[at] = False

    apart = (rows + rows[partner, back]) % q != combined[mine]
    if apart.any():
        i, j = np.argwhere(apart.any(axis=2))[0]
        raise GroupedSolveFailed(
            f"pair {tags[comp[i, j]]} cannot jointly form the combination of "
            f"{tags[mine[i, j]]}"
        )
    short = (fl._rank_batch(rows, q) != 2) | (fl._rank_batch(rows[:, :2], q) != 2)
    if short.any():
        raise GroupedSolveFailed(
            f"worker {short.argmax() + 1}: transmissions do not have rank 2"
        )
    for a in (nulls, combined, rows, relations):
        a.setflags(write=False)
    return Scheme(
        regime=GROUPED_REGIME,
        params=SchemeParams(g.K, g.N, g.N_r, k_c, q),
        assignment=g,
        demand=f_mat,
        grouped=GroupedCode(nulls, combined, rows, relations),
    )


# ---------------------------------------------------------------------------
# Adversarial demand fixtures
# ---------------------------------------------------------------------------


def adversarial_fixture(
    K: int, N: int, N_r: int, responding_set: tuple[int, ...], seed: int
) -> DemandMatrix:
    """Structured demand whose code for ``responding_set`` is a unit stack.

    Block-diagonal over the default field, with K/N blocks of N_r x N; inside
    each block, row i is zero exactly on the datasets its designated
    responder does not hold (a run of N_r - 1 adjacent columns) and uniform
    nonzero elsewhere.  The designated responders' code rows are then exactly
    unit vectors.
    """
    if K % N != 0:
        raise ShapeMismatch("fixture needs N to divide K")
    resp = tuple(sorted(set(responding_set)))
    if len(resp) != N_r or not all(1 <= n <= N for n in resp):
        raise ShapeMismatch(f"responding set must be N_r={N_r} distinct workers")
    held = cyclic_holds(N, N, N_r)[np.array(resp) - 1]
    held = np.kron(np.eye(K // N, dtype=bool), held)  # block-diagonal, (K/N)N_r x K
    f = Field()
    stream = fl.ElementStream(f.q, derive_seed(seed, "fixture"))
    arr = np.zeros(held.shape, dtype=np.int64)
    arr[held] = stream.nonzero(int(held.sum()))  # in row-major order
    return DemandMatrix(FMatrix(f, arr))

"""Shared test helpers: slow pure-Python oracles kept independent of the library.

``_rref``, ``_rank_raw`` and ``_null_space_columns`` are the scalar numpy
kernels the library ran before its one batched elimination; the batched
kernels are tested against them.  ``ref_encode`` is the per-sub-problem
encode the library ran before every answer became one product by the
worker's encoding matrix.  ``ref_decode`` is the decode the library ran
before it cached a decoding map per responder set: it solved the responders'
systems beside their answers, block by block.  ``indices_containing`` and
``reconstruction_stack`` name the windows that rebuild a large scheme's
demand row and their Vandermonde stack.  ``grouped_by_tag`` reads a grouped
scheme's arrays by tag.  ``left_null_space``, ``zero_messages``,
``workers_holding``, ``not_assigned``, ``replication``, ``unique_group`` and
``validate_replication`` are helpers the tests call and the library does
not; ``workers_holding`` and ``not_assigned`` read an assignment's Z sets,
so they are oracles for the library's ``cyclic_holds`` mask.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from linsep import codec as cd
from linsep import field as fl
from linsep.assignment import CYCLIC
from linsep.builder import grouped_tags
from linsep.errors import ShapeMismatch
from linsep.field import FMatrix


def left_null_space(m):
    """Rows of the canonical basis of {u : u M = 0}, from the batched kernel.

    One vector per free column of the RREF of M^T, in increasing order, with
    that coordinate 1, the other free ones 0 and the pivot coordinates
    solved from the RREF: a deterministic function of M.
    """
    basis, nullity = fl._left_null_batch(m.array[None], m.field.q, m.rows)
    return basis[0, : nullity[0]].tolist()


def zero_messages(k, l, f):
    """The K x L all-zero message block."""
    return cd.MessageBlock(FMatrix(f, np.zeros((k, l), dtype=np.int64)))


def workers_holding(a, k):
    """The workers whose dataset set Z_n holds dataset k, in increasing order."""
    return tuple(n for n in range(1, a.N + 1) if k in a.z[n - 1])


def not_assigned(a, n):
    """The datasets outside worker n's set Z_n, in increasing order."""
    held = set(a.z[n - 1])
    return tuple(k for k in range(1, a.K + 1) if k not in held)


def replication(a, k):
    """How many workers hold dataset k."""
    return len(workers_holding(a, k))


def unique_group(a, s):
    """G_S: datasets assigned to exactly the workers in S (|S| = N - N_r + 1)."""
    s_set = frozenset(s)
    if len(s_set) != a.N - a.N_r + 1:
        raise ShapeMismatch(
            f"|S| must be N - N_r + 1 = {a.N - a.N_r + 1}, got {len(s_set)}"
        )
    return tuple(
        k for k in range(1, a.K + 1) if frozenset(workers_holding(a, k)) == s_set
    )


@dataclass(frozen=True)
class ReplicationReport:
    violations: tuple  # datasets replicated fewer than N - N_r + 1 times
    storage_ok: bool | None  # per-worker unique-group sums (cyclic kind only)

    @property
    def ok(self):
        return not self.violations and self.storage_ok is not False


def validate_replication(a):
    """Check the minimum-replication rule, plus unique-group sums when cyclic.

    Every dataset must sit on at least N - N_r + 1 workers.  For cyclic
    assignments the unique groups G_S additionally satisfy, for every worker n,
    sum over S containing n of |G_S| == (K/N)(N - N_r + 1).
    """
    need = a.N - a.N_r + 1
    violations = tuple(k for k in range(1, a.K + 1) if replication(a, k) < need)
    storage_ok = None
    if a.kind == CYCLIC:
        per_worker = {n: 0 for n in range(1, a.N + 1)}
        for s in combinations(range(1, a.N + 1), need):
            size = len(unique_group(a, s))
            for n in s:
                per_worker[n] += size
        want = (a.K // a.N) * need
        storage_ok = all(v == want for v in per_worker.values())
    return ReplicationReport(violations=violations, storage_ok=storage_ok)


def ref_matmul(a, b, q):
    """Schoolbook modular matrix product on Python ints (reference oracle)."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    assert all(len(r) == inner for r in a)
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for k in range(inner):
                acc += a[i][k] * b[k][j]
            out[i][j] = acc % q
    return out


def grouped_by_tag(scheme, n=None):
    """A grouped scheme's rows by tag T, the 2-subsets of workers in lex order.

    With ``n``, worker n's share rows and their coefficients over its two
    sent rows, keyed by the tags without n; else the null vectors and the
    combined rows.
    """
    workers = range(1, scheme.params.N + 1)
    code = scheme.grouped
    if n is None:
        tags = list(combinations(workers, 2))
        return dict(zip(tags, zip(code.null_vectors.tolist(), code.combined.tolist())))
    tags = list(combinations([x for x in workers if x != n], 2))
    coef = ([1, 0], [0, 1], code.relations[n - 1].tolist())
    return dict(zip(tags, zip(code.rows[n - 1].tolist(), coef)))


def ref_encode(scheme, n, w):
    """Worker n's answer rows, one sub-problem at a time, on Python ints.

    Virtual slots carry zero messages; a grouped worker sends its two rows
    of the messages; worker n's rows of sub-problem s are its code rows times
    the padded demand; a small sub-problem's rows multiply its aggregates, and
    a large window's rows multiply its coded symbol block, which mixes the m
    sub-messages of every message by the window's Vandermonde row.
    """
    p = scheme.params
    if not 1 <= n <= p.N:
        raise ShapeMismatch(f"no worker {n}")
    if w.k != p.K or w.w.field.q != p.q:
        raise ShapeMismatch("message block does not fit the scheme")
    q, msgs = p.q, w.w.to_lists()
    if scheme.effective_demand is not None:
        eff = [[0] * w.l for _ in range(scheme.assignment.effective_k)]
        for row, slot in zip(msgs, scheme.assignment.slot_of_dataset):
            eff[slot - 1] = row
        msgs = eff
    if scheme.grouped is not None:
        return ref_matmul(scheme.grouped.rows[n - 1, :2].tolist(), msgs, q)
    if scheme.regime == "small":
        # Aggregator i (N x K): row r holds demand row i's weights on the
        # messages k = r mod N, and zeros elsewhere.
        demand = (
            scheme.demand.matrix if scheme.effective_demand is None else scheme.effective_demand
        )
        aggregators = [
            [[c if k % p.N == r else 0 for k, c in enumerate(row)] for r in range(p.N)]
            for row in demand.to_lists()
        ]
    out = []
    for i, (padded, code) in enumerate(zip(scheme.padded, scheme.code)):
        if scheme.mds is not None:
            m = scheme.mds.split_count
            if w.l == 0 or w.l % m:
                raise ShapeMismatch(f"message length {w.l} not divisible by {m}")
            lm = w.l // m
            v = [pow(i + 1, e, q) for e in range(m)]
            block = [
                [sum(v[e] * row[e * lm + c] for e in range(m)) % q for c in range(lm)]
                for row in msgs
            ]
        elif scheme.regime == "small":
            block = ref_matmul(aggregators[i], msgs, q)
        else:
            block = msgs
        message_rows = ref_matmul(code[n - 1].tolist(), padded.tolist(), q)
        out.extend(ref_matmul(message_rows, block, q))
    return out


def _ref_answer_rows(scheme, answers):
    """What the responders' ``_systems`` map to, ``(S, t, symbols)``.

    Sub-problem s takes each responder's answer rows of s, in responder
    order.  A grouped pair's row is the sum of the pair's shares of its
    complement's combination: a responder's three shares are its two sent
    rows and their combination by its relation.
    """
    if scheme.grouped is None:
        s, _, per, _ = scheme.code.shape
        return np.concatenate([a.x.array.reshape(s, per, -1) for a in answers], axis=1)
    q, relations = scheme.params.q, scheme.grouped.relations
    shares = {}
    for a in answers:
        third = (relations[a.worker - 1, :, None] * a.x.array % q).sum(axis=0) % q
        shares[a.worker] = np.vstack([a.x.array, third])
    sums = []
    for pair in combinations(shares, 2):
        tag = tuple(x for x in range(1, scheme.params.N + 1) if x not in pair)
        rows = [shares[n][grouped_tags(scheme.params.N, n).index(tag)] for n in pair]
        sums.append(sum(rows) % q)
    return np.array(sums)[None]


def ref_decode(scheme, answers):
    """``decode``'s report, by batched solves beside the answer rows.

    One solve of the responders' ``_systems`` beside their answer rows, with
    a grouped scheme's pair sums formed block by block, keeps each
    sub-problem's demand rows; the large regime then solves, per
    demand row, the Vandermonde rows of the m windows holding it beside the
    row's symbols in them.  The answers are N_r from distinct workers.
    """
    answers = sorted(answers, key=lambda a: a.worker)
    responders = tuple(a.worker for a in answers)
    f, q = scheme.demand.field, scheme.params.q
    l_total = answers[0].x.cols * scheme.split_count
    if l_total == 0:
        raise ShapeMismatch("answers carry no symbols")
    cost = Fraction(sum(a.t_n for a in answers), l_total)
    aug = np.concatenate(
        [cd._systems(scheme, [responders])[0], _ref_answer_rows(scheme, answers)], axis=2
    )
    x, ok = fl._solve_batch(aug, q)
    if not ok.all():
        detail = f"sub-problem {ok.argmin() + 1}: stacked code rows are singular"
        return cd.DecodeReport(responders, False, None, cost, detail)
    raw = x[:, : x.shape[1] - scheme.padding_rows]
    if scheme.mds is not None:
        holders = [[] for _ in range(scheme.params.K_c)]  # row j: (window, position)
        for i, subset in enumerate(scheme.mds.subsets):
            for pos, j in enumerate(subset):
                holders[j - 1].append((i, pos))
        at = np.array(holders)
        gen = scheme.mds.generator_rows(at[:, :, 0] + 1, f)
        aug = np.concatenate([gen, raw[at[:, :, 0], at[:, :, 1]]], axis=2)
        x, ok = fl._solve_batch(aug, q)
        if not ok.all():
            detail = f"component {ok.argmin() + 1}: reconstruction stack is singular"
            return cd.DecodeReport(responders, False, None, cost, detail)
        raw = x
    raw = FMatrix(f, raw.reshape(-1, l_total))
    if scheme.recombine is not None:
        raw = fl.mat_mul(scheme.recombine, raw)
    return cd.DecodeReport(responders, True, raw, cost)


def indices_containing(mds, j):
    """1-based indices of the large regime's windows that hold demand row j."""
    return tuple(i for i, s in enumerate(mds.subsets, start=1) if j in s)


def reconstruction_stack(mds, j, f):
    """m x m stack of the generator vectors of every window holding row j."""
    return FMatrix(f, mds.generator_rows(indices_containing(mds, j), f))


def ref_rank(rows, q):
    """Rank over F_q by fraction-free elimination on Python ints."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] % q), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [x * inv % q for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c] % q:
                f = m[i][c]
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r


def in_row_span(vec, rows, q):
    """Membership of vec in the F_q row span of rows."""
    base = [list(r) for r in rows]
    return ref_rank(base + [list(vec)], q) == ref_rank(base, q)


def as_array(m):
    return np.asarray(m.array if hasattr(m, "array") else m)


def _rref(a: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form in-place on a copy; returns (rref, pivot cols).

    Pivots are chosen left to right, first nonzero row from the top, pivot
    entries normalized to 1 and eliminated above and below, so the result is
    the unique RREF of the row space.
    """
    a = a % q
    m, n = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        inv = pow(int(a[r, c]), -1, q)
        a[r] = (a[r] * inv) % q
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % q
        pivots.append(c)
        r += 1
    return a, pivots


def _rank_raw(a: np.ndarray, q: int) -> int:
    """Rank by forward elimination only; multiplies by the pivot instead of
    normalizing, so no modular inverses are needed."""
    a = a % q
    m, n = a.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        below = a[r + 1 :, c]
        rows_nz = np.nonzero(below)[0]
        if rows_nz.size:
            piv = int(a[r, c])
            block = a[r + 1 :][rows_nz]
            a[r + 1 :][rows_nz] = (block * piv - np.outer(below[rows_nz], a[r])) % q
        r += 1
        if r == m:
            break
    return r


def _null_space_columns(a: np.ndarray, q: int) -> list[np.ndarray]:
    """Canonical basis of the right null space {x : a x = 0}.

    One basis vector per free column, in increasing column order, with the
    free coordinate set to 1 (one-hot) and pivot coordinates solved from the
    RREF.  This is a deterministic function of the matrix.
    """
    m, n = a.shape
    red, pivots = _rref(a, q)
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(red[i, f])) % q
        basis.append(v)
    return basis

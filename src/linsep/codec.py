"""Worker-side encoding, master-side decoding, and decodability verification.

Every cyclic-family scheme is handled as the ordered list of middle
sub-problems that ``Scheme.subproblem`` exposes.  A worker's answer stacks,
sub-problem by sub-problem, its code rows times that sub-problem's message
input, so sub-problem i owns answer rows [off_i, off_i + rows_i).  Decoding
works in task-coefficient space: per sub-problem the master stacks the
responders' code rows, inverts the stack, and keeps the first K_c rows of
that sub-problem's demand (dropping padding).  Only the large regime adds a
step, rebuilding every demand row from the MDS-coded symbols; the grouped
scheme has its own pairwise decoder.  The simulation harness cross-checks
the result against a direct message-space multiplication, so the two paths
stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from . import field as fl
from .assignment import Assignment
from .builder import DemandMatrix, MDSDescriptor, Scheme, build_large
from .errors import (
    LinsepError,
    RankDeficientDemand,
    ShapeMismatch,
    SingularMatrix,
    WrongResponderCount,
)
from .field import (
    ElementStream,
    Field,
    FMatrix,
    derive_seed,
    inverse,
    mat_mul,
    random_matrix,
    rank,
    row_stack,
)


@dataclass(frozen=True)
class MessageBlock:
    """The K x L block of message symbols, one row per message."""

    w: FMatrix

    @property
    def k(self) -> int:
        return self.w.rows

    @property
    def l(self) -> int:
        return self.w.cols


def random_messages(k: int, l: int, f: Field, seed: int) -> MessageBlock:
    return MessageBlock(random_matrix(k, l, f, seed))


def zero_messages(k: int, l: int, f: Field) -> MessageBlock:
    return MessageBlock(fl.zeros(k, l, f))


@dataclass(frozen=True)
class WorkerAnswer:
    worker: int
    x: FMatrix  # transmitted combinations; columns are symbols

    @property
    def t_n(self) -> int:
        """Total transmitted symbols."""
        return self.x.rows * self.x.cols


@dataclass(frozen=True)
class DecodeReport:
    responders: tuple[int, ...]
    success: bool
    recovered: FMatrix | None
    cost: Fraction
    detail: str | None = None


def _effective_messages(scheme: Scheme, w: MessageBlock) -> FMatrix:
    """Messages in the scheme's working space; virtual slots carry zeros."""
    if w.k != scheme.params.K:
        raise ShapeMismatch(
            f"message block has {w.k} rows, scheme expects {scheme.params.K}"
        )
    if w.w.field.q != scheme.params.q:
        raise ShapeMismatch("message block field disagrees with the scheme")
    if scheme.virtual is None:
        return w.w
    arr = np.zeros((scheme.virtual.effective_k, w.l), dtype=np.int64)
    for k, slot in enumerate(scheme.virtual.slot_of_dataset, start=1):
        arr[slot - 1] = w.w.array[k - 1]
    return FMatrix(w.w.field, arr)


def encode_worker(scheme: Scheme, n: int, w: MessageBlock) -> WorkerAnswer:
    """Compute worker n's transmission for the given message block."""
    if not (1 <= n <= scheme.params.N):
        raise ShapeMismatch(f"no worker {n} in a {scheme.params.N}-worker scheme")
    w_eff = _effective_messages(scheme, w)
    if scheme.grouped is not None:
        return WorkerAnswer(n, mat_mul(scheme.grouped.workers[n - 1].sent_rows, w_eff))
    rows = [
        mat_mul(
            scheme.subproblem(i).workers[n - 1].message_rows,
            scheme.subproblem_input(i, w_eff),
        )
        for i in range(scheme.subproblem_count)
    ]
    return WorkerAnswer(n, row_stack(rows))


def _check_answers(scheme: Scheme, answers) -> list[WorkerAnswer]:
    if len(answers) != scheme.params.N_r:
        raise WrongResponderCount(
            f"need exactly {scheme.params.N_r} answers, got {len(answers)}"
        )
    ids = [a.worker for a in answers]
    if len(set(ids)) != len(ids):
        raise WrongResponderCount("answers must come from distinct workers")
    if not all(1 <= i <= scheme.params.N for i in ids):
        raise ShapeMismatch("answer from a worker outside the scheme")
    return sorted(answers, key=lambda a: a.worker)


def _decode_subproblems(scheme: Scheme, answers, f: Field) -> FMatrix:
    """Recovered rows of every middle sub-problem, in sub-problem order."""
    parts = []
    offset = 0
    for i in range(scheme.subproblem_count):
        sub = scheme.subproblem(i)
        rows = sub.rows_per_worker
        stack = row_stack([sub.workers[a.worker - 1].task_rows for a in answers])
        try:
            inv = inverse(stack)
        except SingularMatrix:
            raise SingularMatrix(
                f"sub-problem {i + 1}: stacked code rows are singular"
            ) from None
        x = FMatrix(f, np.vstack([a.x.array[offset : offset + rows] for a in answers]))
        parts.append(mat_mul(inv, x).array[: sub.demand.k_c])
        offset += rows
    if scheme.mds is None:
        return FMatrix(f, np.vstack(parts))
    return _mds_reconstruct(scheme.mds, parts, scheme.params.K_c, f)


def _mds_reconstruct(mds: MDSDescriptor, parts, k_c: int, f: Field) -> FMatrix:
    """Large regime: rebuild demand row j from the coded symbols containing j.

    ``parts[i]`` holds the demand rows of subset i + 1, in subset order.
    """
    out_rows = []
    for j in range(1, k_c + 1):
        idxs = mds.indices_containing(j)
        h_j = FMatrix(f, [parts[i - 1][mds.subsets[i - 1].index(j)] for i in idxs])
        try:
            segments = mat_mul(inverse(mds.reconstruction_stack(j, f)), h_j)
        except SingularMatrix:
            raise SingularMatrix(
                f"component {j}: reconstruction stack is singular"
            ) from None
        out_rows.append(FMatrix(f, segments.array.reshape(1, -1)))
    return row_stack(out_rows)


def _decode_grouped(scheme: Scheme, answers, f: Field) -> FMatrix:
    """Each responder pair jointly sends the combination of its complement pair."""
    code = scheme.grouped
    n_all = range(1, scheme.params.N + 1)
    combo_rows = []
    null_stack = []
    for pair in combinations([a.worker for a in answers], 2):
        tag = tuple(x for x in n_all if x not in pair)
        acc = None
        for n in pair:
            gw = code.workers[n - 1]
            e1, e2 = gw.expansion(tag)
            x_n = next(a.x for a in answers if a.worker == n)
            coeffs = fl.from_rows(x_n.field, [[e1, e2]])
            part = mat_mul(coeffs, x_n)
            acc = part if acc is None else FMatrix(
                x_n.field, (acc.array + part.array) % x_n.field.q
            )
        combo_rows.append(acc)
        null_stack.append(code.null_vector(tag))
    v = fl.vectors_as_matrix(null_stack, f, scheme.demand.k_c)
    try:
        inv = inverse(v)
    except SingularMatrix:
        raise SingularMatrix("pair combinations are linearly dependent") from None
    return mat_mul(inv, row_stack(combo_rows))


def decode(
    scheme: Scheme, answers, demand: DemandMatrix | None = None
) -> DecodeReport:
    """Recover the requested combinations from exactly N_r worker answers."""
    if demand is not None and demand != scheme.demand:
        raise ShapeMismatch("supplied demand disagrees with the scheme's demand")
    answers = _check_answers(scheme, answers)
    responders = tuple(a.worker for a in answers)
    f = fl.Field(scheme.params.q)
    l_total = answers[0].x.cols * scheme.split_count
    if l_total == 0:
        raise ShapeMismatch("answers carry no symbols")
    cost = Fraction(sum(a.t_n for a in answers), l_total)
    try:
        if scheme.grouped is not None:
            raw = _decode_grouped(scheme, answers, f)
        else:
            raw = _decode_subproblems(scheme, answers, f)
    except SingularMatrix as exc:
        return DecodeReport(responders, False, None, cost, str(exc))
    if scheme.recombine is not None:
        raw = mat_mul(scheme.recombine, raw)
    return DecodeReport(responders, True, raw, cost)


# ---------------------------------------------------------------------------
# Decodability verification
# ---------------------------------------------------------------------------


def _unrank_combination(n: int, r: int, index: int) -> tuple[int, ...]:
    """Lexicographic unranking of r-subsets of [1..n]."""
    out = []
    x = 1
    for slot in range(r, 0, -1):
        while comb(n - x, slot - 1) <= index:
            index -= comb(n - x, slot - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _sample_distinct(total: int, count: int, stream: ElementStream) -> list[int]:
    # Uniform distinct indices in [0, total); fine for count << total.
    seen: set[int] = set()
    limit = (1 << 64) - ((1 << 64) % total)
    while len(seen) < count:
        r = stream._next64()
        if r < limit:
            seen.add(r % total)
    return sorted(seen)


def responder_subsets(
    n: int, n_r: int, mode: str = "exhaustive", sample_count: int | None = None,
    seed: int = 0, subset_cap: int = 10**6,
) -> list[tuple[int, ...]]:
    total = comb(n, n_r)
    if mode == "exhaustive":
        if total > subset_cap:
            raise ShapeMismatch(
                f"{total} responder subsets exceed the exhaustive cap {subset_cap}"
            )
        return list(combinations(range(1, n + 1), n_r))
    if mode == "sample":
        count = min(sample_count or 1, total)
        stream = ElementStream(fl.Field(fl.DEFAULT_MODULUS), derive_seed(seed, "subsets"))
        return [_unrank_combination(n, n_r, i) for i in _sample_distinct(total, count, stream)]
    raise ShapeMismatch(f"unknown verification mode {mode!r}")


def verify_decodability(
    scheme: Scheme,
    mode: str = "exhaustive",
    sample_count: int | None = None,
    seed: int = 0,
    subset_cap: int = 10**6,
    subproblem_cap: int = 200,
) -> list[tuple[int, ...]]:
    """Responder subsets whose stacked code rows are not invertible.

    Exhaustive over responder subsets (or a seeded sample of ``sample_count``
    of them).  Large-regime schemes with more than ``subproblem_cap`` coded
    sub-problems are checked on a deterministic seeded sample of sub-problems,
    since their count grows combinatorially in K_c.  The returned list is
    sorted, regardless of evaluation order.
    """
    subsets = responder_subsets(
        scheme.params.N, scheme.params.N_r, mode, sample_count, seed, subset_cap
    )
    f = fl.Field(scheme.params.q)
    failing: set[tuple[int, ...]] = set()
    if scheme.grouped is not None:
        n_all = range(1, scheme.params.N + 1)
        for a_set in subsets:
            vecs = [
                scheme.grouped.null_vector(tuple(x for x in n_all if x not in pair))
                for pair in combinations(a_set, 2)
            ]
            v = fl.vectors_as_matrix(vecs, f, scheme.demand.k_c)
            if v.rows != v.cols or rank(v) != v.rows:
                failing.add(tuple(a_set))
        return sorted(failing)
    total = scheme.subproblem_count
    indices = range(total)
    if scheme.mds is not None and total > subproblem_cap:
        stream = ElementStream(f, derive_seed(seed, "large-subproblems"))
        indices = _sample_distinct(total, subproblem_cap, stream)
    for i in indices:
        rows_by_worker = [w.task_rows.array for w in scheme.subproblem(i).workers]
        for a_set in subsets:
            if a_set in failing:
                continue
            stack = np.concatenate([rows_by_worker[n - 1] for n in a_set])
            if fl._rank_raw(stack, f.q) != stack.shape[0]:
                failing.add(tuple(a_set))
    return sorted(failing)


# ---------------------------------------------------------------------------
# Full-recovery fallback
# ---------------------------------------------------------------------------


def fallback_full_recovery(
    f_mat: DemandMatrix,
    a: Assignment,
    l_symbols: int | None = None,
    *,
    seed: int = 0,
    max_attempts: int = 16,
) -> Scheme:
    """Scheme that recovers every message individually, then any K_c demand.

    Used when a specific demand matrix defeats the null-space construction:
    the master instead requests K generic independent combinations (a fresh
    seeded full-rank K x K demand, verified decodable), inverts them to get
    all messages, and applies the original demand afterwards.  Communication
    cost is K.
    """
    k, k_c = f_mat.k, f_mat.k_c
    if rank(f_mat.matrix) != k_c:
        raise RankDeficientDemand("fallback needs a full-row-rank demand")
    if k_c == k:
        return build_large(f_mat, a, l_symbols)
    f = f_mat.field
    for attempt in range(max_attempts):
        g = random_matrix(k, k, f, derive_seed(seed, "full-recovery", attempt))
        if rank(g) != k:
            continue
        scheme = replace(
            build_large(DemandMatrix(g), a, l_symbols),
            recombine=mat_mul(f_mat.matrix, inverse(g)),
        )
        if not verify_decodability(scheme):
            return scheme
    raise LinsepError("no decodable full-recovery demand found; widen the search")

"""Worker-side encoding, master-side decoding, and decodability verification.

A worker's answer is one product: its encoding matrix ``Scheme.encoder(n)``
times the message block split into m sub-messages, whatever the scheme kind,
with both cut to the datasets Z_n it holds.  Its rows go sub-problem by
sub-problem, per rows each.  Decoding and verification share one system per
responder set, built by ``_systems`` in task-coefficient space: per
sub-problem the responders' rows of ``Scheme.code``, or for the grouped
scheme the null vectors of the complements of the responder pairs.
Verification ranks those systems.  Decoding is linear in the answers: it
multiplies them by the demand rows of the systems' inverses, a map cached
per scheme and responder set, and in the large regime by a per-scheme map
that rebuilds every demand row from the MDS-coded symbols.  The simulation
harness cross-checks the result by a direct message-space product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import field as fl
from .assignment import Assignment
from .builder import DemandMatrix, Scheme, build_scheme, grouped_tags
from .errors import LinsepError, RankDeficientDemand, ShapeMismatch, WrongResponderCount
from .field import (
    ElementStream, Field, FMatrix, derive_seed, inverse, mat_mul, random_matrix, rank,
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


def encode_worker(scheme: Scheme, n: int, w: MessageBlock) -> WorkerAnswer:
    """Compute worker n's transmission: E_n times the split message block.

    The K x L block is split e-major into m = ``split_count`` sub-messages,
    an (m K) x (L/m) block whose row e K + k is sub-message e of message k.
    E_n is zero outside the columns (e, k in Z_n), so only those are read.
    """
    k, m = scheme.params.K, scheme.split_count
    if not (1 <= n <= scheme.params.N):
        raise ShapeMismatch(f"no worker {n} in a {scheme.params.N}-worker scheme")
    if w.k != k:
        raise ShapeMismatch(f"message block has {w.k} rows, scheme expects {k}")
    if w.w.field.q != scheme.params.q:
        raise ShapeMismatch("message block field disagrees with the scheme")
    # A scheme that fixes L codes symbols, and a symbol needs a column.
    if w.l % m or (w.l == 0 and scheme.params.L is not None):
        raise ShapeMismatch(f"message length {w.l} not divisible by {m}")
    lm = w.l // m
    held = np.array(scheme.assignment.z[n - 1], dtype=np.intp) - 1
    width = m * len(held)
    split = w.w.array[held].reshape(len(held), m, lm).swapaxes(0, 1).reshape(width, lm)
    e_n = scheme.encoder(n).array.reshape(-1, m, k)[:, :, held].reshape(-1, width)
    return WorkerAnswer(n, FMatrix(w.w.field, fl._mul_batch(e_n, split, w.w.field.q)))


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
    rows = scheme.rows_sent
    for a in answers:
        if a.x.field.q != scheme.params.q:
            raise ShapeMismatch(f"answer of worker {a.worker} is over another field")
        if a.x.rows != rows or a.x.cols != answers[0].x.cols:
            raise ShapeMismatch(
                f"answer of worker {a.worker} is {a.x.rows} x {a.x.cols}, "
                f"not {rows} x {answers[0].x.cols}"
            )
    return sorted(answers, key=lambda a: a.worker)


def _complement(scheme: Scheme, pair) -> tuple[int, ...]:
    return tuple(x for x in range(1, scheme.params.N + 1) if x not in pair)


def _systems(scheme: Scheme, subsets, sampled=None) -> np.ndarray:
    """Task-space system of every responder subset, a ``(B, S, t, t)`` stack.

    Responders A decode exactly when all S of their systems are invertible.
    Sub-problem s of a cyclic-family scheme stacks the responders' code rows
    ``code[s, A]``; ``sampled`` picks the sub-problems gathered (default all).
    The grouped scheme has one system of t = K_c rows: the null vectors of
    the complements of A's pairs, in pair order, since each responder pair
    jointly sends the combination of its complement pair.
    """
    if scheme.grouped is not None:
        tags = grouped_tags(scheme.params.N)
        at = [
            [tags.index(_complement(scheme, pair)) for pair in combinations(a_set, 2)]
            for a_set in subsets
        ]
        return scheme.grouped.null_vectors[np.array(at)][:, None]
    code = scheme.code
    sub = np.arange(len(code)) if sampled is None else np.asarray(sampled)
    rows = code[sub[:, None], np.array(subsets)[:, None, :] - 1]
    b, s, n_r, per, t = rows.shape
    return rows.reshape(b, s, n_r * per, t)


def _answer_rows(scheme: Scheme, answers) -> np.ndarray:
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
        tag = _complement(scheme, pair)
        rows = [shares[n][grouped_tags(scheme.params.N, n).index(tag)] for n in pair]
        sums.append(sum(rows) % q)
    return np.array(sums)[None]


_DECODE_CACHE = 64  # maps kept; a served (6, 4) scheme decodes from 15 sets


def _inverses(stack: np.ndarray, q: int, failure: str):
    """Read-only inverses of a ``(B, t, t)`` stack, by one solve against I_t,
    and None or ``failure`` naming the first singular matrix."""
    eye = np.broadcast_to(np.eye(stack.shape[1], dtype=np.int64), stack.shape)
    inv, ok = fl._solve_batch(np.concatenate([stack, eye], axis=2), q)
    inv.setflags(write=False)
    return inv, None if ok.all() else failure.format(ok.argmin() + 1)


@lru_cache(maxsize=_DECODE_CACHE)
def _responder_map(scheme: Scheme, responders: tuple[int, ...]):
    """D_A by sub-problem, ``(S, t - padding_rows, t)``, and None or why not.

    Sub-problem s's rows are the demand rows of the inverse of the
    responders' system s of ``_systems``, so they map ``_answer_rows`` to it.
    """
    failure = "sub-problem {}: stacked code rows are singular"
    inv, detail = _inverses(_systems(scheme, [responders])[0], scheme.params.q, failure)
    return inv[:, : inv.shape[1] - scheme.padding_rows], detail


@lru_cache(maxsize=_DECODE_CACHE)
def _reconstruction_map(scheme: Scheme):
    """Large regime: each demand row's windows and their inverse Vandermonde.

    Row j's m sub-messages are ``inv[j]`` times its rows in the m windows
    holding it, at flat (window, position) indices ``at[j]``, in any order.
    Returns ``at``, ``inv``, and None or why not.
    """
    failure = "component {}: reconstruction stack is singular"
    windows = np.array(scheme.mds.subsets)
    at = np.argsort(windows, axis=None).reshape(scheme.params.K_c, -1)
    at.setflags(write=False)
    vandermonde = scheme.mds.generator_rows(at // windows.shape[1] + 1, scheme.demand.field)
    return (at, *_inverses(vandermonde, scheme.params.q, failure))


def decode(scheme: Scheme, answers) -> DecodeReport:
    """Recover the requested combinations from exactly N_r worker answers."""
    answers = _check_answers(scheme, answers)
    responders = tuple(a.worker for a in answers)
    f, q = scheme.demand.field, scheme.params.q
    l_total = answers[0].x.cols * scheme.split_count
    if l_total == 0:
        raise ShapeMismatch("answers carry no symbols")
    cost = Fraction(sum(a.t_n for a in answers), l_total)
    d_a, detail = _responder_map(scheme, responders)
    if detail is None and scheme.mds is not None:
        at, inv, detail = _reconstruction_map(scheme)
    if detail is not None:
        return DecodeReport(responders, False, None, cost, detail)
    parts = fl._mul_batch(d_a, _answer_rows(scheme, answers), q)
    if scheme.mds is not None:
        parts = fl._mul_batch(inv, parts.reshape(-1, parts.shape[2])[at], q)
    raw = FMatrix(f, parts.reshape(-1, l_total))
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
        if sample_count is not None and sample_count < 1:
            raise ShapeMismatch(f"sample count must be at least 1, got {sample_count}")
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
    """Responder subsets with a system of ``_systems`` that is not invertible.

    Exhaustive over responder subsets (or a seeded sample of ``sample_count``
    of them).  Large-regime schemes with more than ``subproblem_cap`` coded
    sub-problems (one per window of the design, K_c/gcd(K_c, t) of them) are
    checked on a deterministic seeded sample of sub-problems.  The stacks go
    through the batched rank a block of subsets at a time, each block's
    stacks within ``field._BATCH_ELEMENTS`` entries (or one subset's).  The
    returned list is sorted, as the subsets are.
    """
    subsets = responder_subsets(
        scheme.params.N, scheme.params.N_r, mode, sample_count, seed, subset_cap
    )
    q = scheme.params.q
    sampled = None
    if scheme.mds is not None and len(scheme.code) > subproblem_cap:
        stream = ElementStream(scheme.demand.field, derive_seed(seed, "large-subproblems"))
        sampled = _sample_distinct(len(scheme.code), subproblem_cap, stream)
    _, s, t, _ = _systems(scheme, subsets[:1], sampled).shape
    step = max(1, fl._BATCH_ELEMENTS // (s * t * t))
    failing = []
    for lo in range(0, len(subsets), step):
        block = subsets[lo : lo + step]
        ranks = fl._rank_batch(_systems(scheme, block, sampled).reshape(-1, t, t), q)
        ok = (ranks.reshape(len(block), s) == t).all(axis=1)
        failing.extend(a_set for a_set, good in zip(block, ok) if not good)
    return failing


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
    cost is K: the K x K demand builds a large scheme, or a middle one with
    no padding where N_r = N makes t = K (on virtual slots that middle
    scheme's cost is t, the effective slot count).
    """
    k, k_c = f_mat.k, f_mat.k_c
    if rank(f_mat.matrix) != k_c:
        raise RankDeficientDemand("fallback needs a full-row-rank demand")
    if k_c == k:
        return build_scheme(f_mat, a, l_symbols=l_symbols)
    f = f_mat.field
    for attempt in range(max_attempts):
        g = random_matrix(k, k, f, derive_seed(seed, "full-recovery", attempt))
        if rank(g) != k:
            continue
        scheme = replace(
            build_scheme(DemandMatrix(g), a, l_symbols=l_symbols),
            recombine=mat_mul(f_mat.matrix, inverse(g)),
        )
        if not verify_decodability(scheme):
            return scheme
    raise LinsepError("no decodable full-recovery demand found; widen the search")

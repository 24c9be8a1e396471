"""Worker-side encoding, master-side decoding, and decodability verification.

A worker's answer is one product: its encoding matrix ``Scheme.encoder(n)``
times the message block split into m sub-messages, whatever the scheme kind,
with both cut to the datasets Z_n it holds; the cut E_n is cached per
scheme and worker.  Its rows go sub-problem by sub-problem, per rows each.
Decoding and verification share one system per responder set, built by
``_systems`` in task-coefficient space: per sub-problem the responders'
rows of ``Scheme.code``, or for the grouped scheme the null vectors of the
complements of the responder pairs.
Verification ranks those systems.  Decoding is linear in the answers: it
multiplies them by the demand rows of the systems' inverses (for the grouped
scheme, times the sums of each responder pair's shares), and in the large
regime by a per-scheme map that rebuilds every demand row from the
MDS-coded symbols.  That map exists for every scheme the builder returns,
so a decode fails only on a singular responder system.  Both go over a
batch axis of responder sets:
``decode_subsets`` takes many sets a block at a time, inverts every system
of a block with ``field``'s batched inverse, a map cached per scheme and
block of sets, and multiplies all the block's answers in one product;
``decode`` is its batch of one, checked and decoded by the same code.
Verification ranks its systems in blocks of the same size, and samples
subsets and sub-problems by one seeded sampler.  The simulation harness
decodes every responder set of a trial in one call and cross-checks each
result by a direct message-space product.
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
    held, e_n = _held_encoder(scheme, n)  # raises for a worker outside 1..N
    if w.k != k:
        raise ShapeMismatch(f"message block has {w.k} rows, scheme expects {k}")
    if w.w.field.q != scheme.params.q:
        raise ShapeMismatch("message block field disagrees with the scheme")
    # A scheme that fixes L codes symbols, and a symbol needs a column.
    if w.l % m or (w.l == 0 and scheme.params.L is not None):
        raise ShapeMismatch(f"message length {w.l} not divisible by {m}")
    lm = w.l // m
    split = w.w.array[held].reshape(len(held), m, lm).swapaxes(0, 1).reshape(e_n.shape[1], lm)
    return WorkerAnswer(n, FMatrix._of(w.w.field, fl._mul_batch(e_n, split, w.w.field.q)))


_ENCODE_CACHE = 64  # cut encoders kept; a served (18, 6, 4, 14) scheme has 6 workers


@lru_cache(maxsize=_ENCODE_CACHE)
def _held_encoder(scheme: Scheme, n: int):
    """Worker n's datasets Z_n, 0-based, and E_n cut to their columns.

    Both are read-only.  The cut E_n is ``(rows, m |Z_n|)``, its columns
    (e, k in Z_n) e-major; E_n is zero in every other column.
    """
    e_n = scheme.encoder(n).array
    held = np.array(scheme.assignment.z[n - 1], dtype=np.intp) - 1
    m, k = scheme.split_count, scheme.params.K
    e_n = e_n.reshape(-1, m, k)[:, :, held].reshape(-1, m * len(held))
    held.setflags(write=False)
    e_n.setflags(write=False)
    return held, e_n


def _answers_by_worker(scheme: Scheme, answers) -> dict[int, WorkerAnswer]:
    """The answers by worker: from distinct workers of the scheme, each of
    ``rows_sent`` rows over the scheme's field, all of one width."""
    by_worker: dict[int, WorkerAnswer] = {}
    for a in answers:
        if a.worker in by_worker:
            raise WrongResponderCount("answers must come from distinct workers")
        if not 1 <= a.worker <= scheme.params.N:
            raise ShapeMismatch("answer from a worker outside the scheme")
        by_worker[a.worker] = a
    rows = scheme.rows_sent
    cols = next((a.x.cols for a in by_worker.values()), 0)
    for a in by_worker.values():
        if a.x.field.q != scheme.params.q:
            raise ShapeMismatch(f"answer of worker {a.worker} is over another field")
        if a.x.rows != rows or a.x.cols != cols:
            raise ShapeMismatch(
                f"answer of worker {a.worker} is {a.x.rows} x {a.x.cols}, "
                f"not {rows} x {cols}"
            )
    return by_worker


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


def _blocks(scheme: Scheme, subsets, sampled=None) -> list:
    """``subsets`` in consecutive blocks whose ``_systems`` each fit in
    ``field._BATCH_ELEMENTS`` entries, or hold one subset."""
    if scheme.grouped is not None:
        s, t = 1, scheme.grouped.null_vectors.shape[1]
    else:
        s, t = len(scheme.code if sampled is None else sampled), scheme.code.shape[3]
    step = max(1, fl._BATCH_ELEMENTS // (s * t * t))
    return [subsets[lo : lo + step] for lo in range(0, len(subsets), step)]


# Maps kept, each for one block of responder sets, keyed by the tuple of its
# sets; a served (6, 4) scheme decodes from 15 sets, one set per call.
_DECODE_CACHE = 64


def _pair_sums(scheme: Scheme, responders: tuple[int, ...]) -> np.ndarray:
    """Grouped scheme: the pair sums as weights on the responders' sent rows.

    Row i of the ``(C(N_r, 2), 2 N_r)`` result sums the shares that pair i
    of ``responders``, in pair order, holds of its complement's combination.
    A responder's shares 0 and 1 are its two sent rows, and share 2 is their
    combination by its relation (a, b).
    """
    n, relations = scheme.params.N, scheme.grouped.relations
    shares = np.concatenate([np.broadcast_to(np.eye(2, dtype=np.int64), (n, 2, 2)),
                             relations[:, None]], axis=1)  # (N, 3, 2)
    out = np.zeros((comb(len(responders), 2), 2 * len(responders)), dtype=np.int64)
    for i, pair in enumerate(combinations(range(len(responders)), 2)):
        tag = _complement(scheme, [responders[j] for j in pair])
        for j in pair:
            share = grouped_tags(n, responders[j]).index(tag)
            out[i, 2 * j : 2 * j + 2] = shares[responders[j] - 1, share]
    return out


@lru_cache(maxsize=_DECODE_CACHE)
def _responder_maps(scheme: Scheme, subsets: tuple[tuple[int, ...], ...]):
    """D_A of every responder set A of ``subsets``, and per set None or why not.

    The maps are sub-problem-major, ``(S, B, t - padding_rows, rows)``: D_A
    at sub-problem s maps A's answer rows of s, in responder order, to the
    demand rows of s.  They are the demand rows of the inverses of A's
    systems of ``_systems``, all B sets' inverted in one solve, times A's
    ``_pair_sums`` for the grouped scheme.  Read-only.
    """
    q = scheme.params.q
    systems = _systems(scheme, subsets)
    b, s, t, _ = systems.shape
    inv, ok = fl._inverse_batch(systems.reshape(b * s, t, t), q)
    d_a = inv.reshape(b, s, t, t)[:, :, : t - scheme.padding_rows].swapaxes(0, 1)
    if scheme.grouped is not None:
        d_a = fl._mul_batch(d_a, np.stack([_pair_sums(scheme, a) for a in subsets]), q)
    d_a.setflags(write=False)
    details = tuple(
        None if good.all() else f"sub-problem {good.argmin() + 1}: stacked code rows are singular"
        for good in ok.reshape(b, s)
    )
    return d_a, details


@lru_cache(maxsize=_DECODE_CACHE)
def _reconstruction_map(scheme: Scheme):
    """Large regime: each demand row's windows and their inverse Vandermonde.

    Row j's m sub-messages are ``inv[j]`` times its rows in the m windows
    holding it, at flat (window, position) indices ``at[j]``, in any order.
    Returns ``at`` and ``inv``.  Every stack is invertible: its nodes are the
    numbers of m distinct windows, distinct in 1..S, and the builder keeps
    S below q.
    """
    windows = np.array(scheme.mds.subsets)
    at = np.argsort(windows, axis=None).reshape(scheme.params.K_c, -1)
    at.setflags(write=False)
    vandermonde = scheme.mds.generator_rows(at // windows.shape[1] + 1, scheme.demand.field)
    return at, fl._inverse_batch(vandermonde, scheme.params.q)[0]


def decode(scheme: Scheme, answers) -> DecodeReport:
    """Recover the requested combinations from exactly N_r worker answers:
    ``decode_subsets`` of the one set that answered."""
    return decode_subsets(scheme, answers, [[a.worker for a in answers]])[0]


def decode_subsets(scheme: Scheme, answers, subsets) -> list[DecodeReport]:
    """Decode from each responder set of ``subsets``, one report per set.

    ``answers`` holds the answer of every worker the sets name, in any
    order.  The sets go through in blocks, sized as ``verify_decodability``
    sizes its blocks, so that temporaries stay a fixed size for any number
    of sets.  Per block, one gather stacks the sets' answer rows
    sub-problem-major, one product multiplies them by the block's
    ``_responder_maps``, and in the large regime one more rebuilds the
    demand rows from the coded symbols, and for the fallback one more
    recombines them.
    """
    n_r = scheme.params.N_r
    subsets = [tuple(sorted(a_set)) for a_set in subsets]
    for a_set in subsets:
        if len(a_set) != n_r:
            raise WrongResponderCount(f"need exactly {n_r} answers, got {len(a_set)}")
        if len(set(a_set)) != n_r:
            raise WrongResponderCount("answers must come from distinct workers")
    by_worker = _answers_by_worker(scheme, answers)
    missing = {n for a_set in subsets for n in a_set} - by_worker.keys()
    if missing:
        raise ShapeMismatch(f"no answer from worker {min(missing)}")
    if not subsets:
        return []
    f, q = scheme.demand.field, scheme.params.q
    first = by_worker[subsets[0][0]]
    cols = first.x.cols
    l_total = cols * scheme.split_count
    if l_total == 0:
        raise ShapeMismatch("answers carry no symbols")
    cost = Fraction(n_r * first.t_n, l_total)  # every answer has one shape
    if scheme.mds is not None:
        at, inv = _reconstruction_map(scheme)
    reports = []
    for block in _blocks(scheme, subsets):
        d_a, details = _responder_maps(scheme, tuple(block))
        s, b = d_a.shape[:2]
        rows = [by_worker[n].x.array.reshape(s, -1, cols) for a_set in block for n in a_set]
        # Stacked as a temporary: held through the reconstruction, it cost ~8 % a block.
        parts = fl._mul_batch(d_a, np.concatenate(rows, axis=1).reshape(s, b, -1, cols), q)
        parts = parts.swapaxes(0, 1)
        if scheme.mds is not None:
            parts = fl._mul_batch(inv, parts.reshape(b, -1, cols)[:, at], q)
        parts = parts.reshape(b, -1, l_total)
        if scheme.recombine is not None:
            parts = fl._mul_batch(scheme.recombine.array, parts, q)
        for a_set, detail, raw in zip(block, details, parts):
            recovered = None if detail else FMatrix._of(f, raw)
            reports.append(DecodeReport(a_set, detail is None, recovered, cost, detail))
    return reports


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


def _sample_distinct(total: int, count: int, seed: int) -> list[int]:
    """``count`` uniform distinct indices in [0, total), sorted, drawn from a
    seeded stream mod ``total``; fine for count << total."""
    stream = ElementStream(total, seed)
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(stream.take(1)[0])
    return sorted(seen)


_SUBSET_CAP = 10**6  # responder subsets an exhaustive list may enumerate


def responder_subsets(
    n: int, n_r: int, sample_count: int | None = None, seed: int = 0
) -> list[tuple[int, ...]]:
    """Every N_r-subset of the N workers, or a seeded sample of ``sample_count``."""
    total = comb(n, n_r)
    if sample_count is None:
        if total > _SUBSET_CAP:
            raise ShapeMismatch(
                f"{total} responder subsets exceed the exhaustive cap {_SUBSET_CAP}"
            )
        return list(combinations(range(1, n + 1), n_r))
    if sample_count < 1:
        raise ShapeMismatch(f"sample count must be at least 1, got {sample_count}")
    indices = _sample_distinct(total, min(sample_count, total), derive_seed(seed, "subsets"))
    return [_unrank_combination(n, n_r, i) for i in indices]


def verify_decodability(
    scheme: Scheme,
    sample_count: int | None = None,
    seed: int = 0,
    subproblem_cap: int = 200,
) -> list[tuple[int, ...]]:
    """Responder subsets with a system of ``_systems`` that is not invertible.

    Exhaustive over responder subsets, at most ``_SUBSET_CAP`` of them, or
    a seeded sample of ``sample_count`` of them.  Large-regime schemes with
    more than ``subproblem_cap`` coded sub-problems (one per window of the
    design, K_c/gcd(K_c, t) of them) are checked on a deterministic seeded
    sample of sub-problems.  The stacks go through the batched rank a block
    of subsets at a time, each block's stacks within
    ``field._BATCH_ELEMENTS`` entries (or one subset's).  The returned list
    is sorted, as the subsets are.
    """
    if subproblem_cap < 1:
        raise ShapeMismatch(f"sub-problem cap must be at least 1, got {subproblem_cap}")
    subsets = responder_subsets(scheme.params.N, scheme.params.N_r, sample_count, seed)
    q = scheme.params.q
    sampled = None
    if scheme.mds is not None and len(scheme.code) > subproblem_cap:
        sampled = _sample_distinct(
            len(scheme.code), subproblem_cap, derive_seed(seed, "large-subproblems")
        )
    failing = []
    for block in _blocks(scheme, subsets, sampled):
        systems = _systems(scheme, block, sampled)
        b, s, t, _ = systems.shape
        ok = (fl._rank_batch(systems.reshape(-1, t, t), q).reshape(b, s) == t).all(axis=1)
        failing.extend(a_set for a_set, good in zip(block, ok) if not good)
    return failing


# ---------------------------------------------------------------------------
# Full-recovery fallback
# ---------------------------------------------------------------------------


_FALLBACK_ATTEMPTS = 16  # seeded K x K demands tried before giving up


def fallback_full_recovery(
    f_mat: DemandMatrix,
    a: Assignment,
    l_symbols: int | None = None,
    *,
    seed: int = 0,
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
    for attempt in range(_FALLBACK_ATTEMPTS):
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

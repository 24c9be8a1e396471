"""Exact dense linear algebra over a prime field F_q.

Matrices are stored as immutable numpy ``int64`` arrays with every entry
reduced into ``[0, q)``.  All reductions happen eagerly, so an elementwise
product never exceeds ``(q-1)**2`` and stays inside 64-bit arithmetic; the
field constructor rejects moduli too large for that to hold.

Every matrix product is one kernel, ``_mul_batch``.  It splits the left
operand into 16-bit limbs, so a limb product sums terms below
``2**16 * q``.  Small products sum them in int64.  Products of at least
``_FLOAT_MIN_WORK`` multiply-adds per matrix run on float64 BLAS, over
inner slices short enough, by ``_float_inner(q)``, that every sum stays an
integer below ``2**53`` and so is exact.  Either way the limb products are
combined and reduced in int64; no product is ever rounded.  A kernel's
output is already reduced, so the library wraps it with ``FMatrix._of``
as it is; the public ``FMatrix`` constructor copies and reduces its data.

One elimination, ``_eliminate``, serves every rank, RREF, null space and
solve.  It runs over a ``(B, m, n)`` stack, and its pivot per matrix is the
first nonzero row at or below that matrix's current row.  It first takes
every diagonal entry as the pivot, the whole stack at once with no search:
over a large field a matrix's leading minors are almost never 0, and where
the diagonal stays nonzero it is the pivot the search would pick, so the
result is the same bit for bit.  Only the matrices whose diagonal meets a
zero are restored and searched column by column.  It eliminates
fraction-free: a row update is ``row * pivot - factor * pivot_row`` with
both operands in ``[0, q)``, so each product is at most ``(q-1)**2`` and
their difference lies strictly between ``-(q-1)**2`` and ``(q-1)**2``,
inside int64 for every ``q <= _MAX_MODULUS``; the result is reduced before
the next column.  The RREF normalizes pivot rows once, at the end, with
inverses from a vectorized Fermat power whose products are again below
``(q-1)**2``.  One walk, ``_by_chunk``, cuts every stack into chunks of at
most ``_BATCH_ELEMENTS`` entries, so temporaries stay a fixed size whatever
B is.  The batched kernels return arrays of fixed shape: ranks, solutions
with invertibility flags, inverses, and the first ``count`` null vectors
with the nullities.  ``rank`` and ``inverse`` are their one-matrix calls;
the scalar kernels they replaced are kept in ``tests/conftest.py`` as the
reference the batched ones are tested against.

Convention: raw matrix row/column indices are 0-based (numpy style).
Dataset and worker indices in the rest of the library are 1-based and are
converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import BadModulus, ShapeMismatch, SingularMatrix

DEFAULT_MODULUS = 2**31 - 1  # Mersenne prime; failure probabilities ~ poly/q

# Largest modulus for which (q-1)^2 fits in a signed 64-bit integer.
_MAX_MODULUS = 3037000499

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """A prime field F_q with q > 2."""

    q: int = DEFAULT_MODULUS

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q <= 2:
            raise BadModulus(f"modulus must be an integer > 2, got {self.q}")
        if self.q > _MAX_MODULUS:
            raise BadModulus(f"modulus {self.q} too large for exact int64 arithmetic")
        if not is_prime(self.q):
            raise BadModulus(f"modulus {self.q} is not prime")

    def __repr__(self) -> str:
        return f"Field({self.q})"


# ---------------------------------------------------------------------------
# Deterministic RNG: splitmix64.
#
# The generator is the standard splitmix64 sequence: the state advances by the
# 64-bit golden-ratio constant and each output is the finalizer
#   z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
#   z ^= z >> 27; z *= 0x94D049BB133111EB;
#   z ^= z >> 31;
# Residues are drawn by rejection sampling so they are exactly uniform on
# [0, q), for a field modulus q or for a count q of indices to sample from.
# Any implementation of splitmix64 reproduces the streams.
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *parts: int | str) -> int:
    """Fold labels into a seed to get an independent, reproducible stream.

    Strings are hashed with 64-bit FNV-1a before folding; integers are folded
    directly.  Purely arithmetic, so identical across platforms and runs.
    """
    state = _mix64(seed & _MASK64)
    for part in parts:
        if isinstance(part, str):
            h = 0xCBF29CE484222325
            for b in part.encode("utf-8"):
                h = ((h ^ b) * 0x100000001B3) & _MASK64
            part = h
        state = _mix64((state + _GOLDEN + (part & _MASK64)) & _MASK64)
    return state


class ElementStream:
    """Stream of uniform residues mod ``q`` from a splitmix64 seed."""

    def __init__(self, q: int, seed: int):
        self.q = q
        self._state = seed & _MASK64
        # Largest multiple of q below 2^64; draws at or above it are rejected.
        self._limit = (1 << 64) - ((1 << 64) % q)

    def take(self, count: int) -> list[int]:
        out = []
        while len(out) < count:
            self._state = (self._state + _GOLDEN) & _MASK64
            r = _mix64(self._state)
            if r < self._limit:
                out.append(r % self.q)
        return out

    def nonzero(self, count: int) -> list[int]:
        """Uniform elements of [1, q)."""
        out = []
        while len(out) < count:
            for x in self.take(count - len(out)):
                if x != 0:
                    out.append(x)
        return out


# ---------------------------------------------------------------------------
# Matrices and vectors
# ---------------------------------------------------------------------------


def _as_array(field: Field, data, ndim: int) -> np.ndarray:
    a = np.array(data, dtype=np.int64)
    if a.ndim != ndim:
        raise ShapeMismatch(f"expected {ndim}-dimensional data, got shape {a.shape}")
    a %= field.q
    a.setflags(write=False)
    return a


class FMatrix:
    """Immutable dense matrix over F_q."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, data):
        self.field = field
        self._a = _as_array(field, data, 2)

    @classmethod
    def _of(cls, field: Field, reduced: np.ndarray) -> "FMatrix":
        """Wrap kernel output or a read-only scheme array: reduced 2-D int64
        that nothing else writes.  Made read-only; no copy, check or ``%``."""
        m = cls.__new__(cls)
        m.field = field
        reduced.setflags(write=False)
        m._a = reduced
        return m

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self._a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FMatrix)
            and self.field == other.field
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.field.q, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FMatrix({self.rows}x{self.cols} mod {self.field.q})"


def from_rows(field: Field, rows: Iterable[Iterable[int]]) -> FMatrix:
    """Build a matrix from integer rows; negatives map to q - |x|."""
    return FMatrix(field, [list(r) for r in rows])


def identity(n: int, field: Field) -> FMatrix:
    return FMatrix(field, np.eye(n, dtype=np.int64))


def mat_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact modular matrix product, for any inner dimension."""
    if a.field != b.field:
        raise ShapeMismatch("operands live in different fields")
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return FMatrix._of(a.field, _mul_batch(a.array, b.array, a.field.q))


# Products of at least this many multiply-adds per matrix (rows x cols x
# inner) run on float64 BLAS; smaller ones are faster in int64.
_FLOAT_MIN_WORK = 4096


def _float_inner(q: int) -> int:
    """Longest inner slice whose float64 limb products are exact at modulus q.

    A limb product sums terms of at most ``(2^16 - 1)(q - 1)``.  While
    ``inner * (2^16 - 1) * (q - 1) < 2^53`` every partial sum, in whatever
    order or blocking BLAS adds them, is an integer below 2^53 and so exact
    in float64: 64 terms at q = 2^31 - 1, 45 at ``_MAX_MODULUS``.
    """
    return (2**53 - 1) // (0xFFFF * (q - 1))


def _mul_batch(left: np.ndarray, right: np.ndarray, q: int) -> np.ndarray:
    """``mat_mul`` on reduced arrays, broadcast over leading stack axes.

    The left operand is split into 16-bit limbs, ``a >> 16`` and
    ``a & 0xFFFF``; each limb times the right operand is an exact integer
    product, and the two combine as ``((hi % q) << 16) + lo`` mod q.  A
    product of fewer than ``_FLOAT_MIN_WORK`` multiply-adds per matrix runs
    in int64 in one piece: its inner dimension is below ``_FLOAT_MIN_WORK``
    (or its output is empty), so a limb sum stays below ``2**60``.  A larger
    one runs both limbs as one float64 BLAS product over inner slices of at
    most ``_float_inner(q)`` terms, which keeps it exact, and adds the
    reduced products of consecutive slices.
    """
    rows, inner = left.shape[-2:]
    if rows * right.shape[-1] * inner < _FLOAT_MIN_WORK:
        return (((left >> 16) @ right % q << 16) + (left & 0xFFFF) @ right) % q
    step = _float_inner(q)
    out = None
    for lo in range(0, inner, step):
        a = left[..., lo : lo + step]
        limbs = np.concatenate([a >> 16, a & 0xFFFF], axis=-2).astype(np.float64)
        both = (limbs @ right[..., lo : lo + step, :].astype(np.float64)).astype(np.int64)
        part = ((both[..., :rows, :] % q << 16) + both[..., rows:, :]) % q
        out = part if out is None else (out + part) % q
    return out


def rank(m: FMatrix) -> int:
    """Row rank over F_q."""
    return int(_rank_batch(m.array[None], m.field.q)[0])


def inverse(m: FMatrix) -> FMatrix:
    """Matrix inverse; raises SingularMatrix when rank < n."""
    if m.rows != m.cols:
        raise ShapeMismatch("only square matrices have inverses")
    inv, ok = _inverse_batch(m.array[None], m.field.q)
    if not ok[0]:
        raise SingularMatrix(f"{m.rows}x{m.rows} matrix has rank {rank(m)}")
    return FMatrix._of(m.field, inv[0])


# ---------------------------------------------------------------------------
# Batched kernels over (B, m, n) stacks
# ---------------------------------------------------------------------------

# Entries per chunk of a batched call; bounds every temporary of the kernels.
_BATCH_ELEMENTS = 8192


def _by_chunk(a: np.ndarray, q: int, step: Callable) -> tuple[np.ndarray, ...]:
    """``step`` on reduced copies of consecutive slices of the stack, each in
    budget; each of the arrays it returns is joined along B."""
    b, m, n = a.shape
    size = max(1, _BATCH_ELEMENTS // max(1, m * n))
    parts = [step(a[lo : lo + size] % q) for lo in range(0, b, size)]
    return tuple(np.concatenate(out) for out in zip(*parts))


def _eliminate(a: np.ndarray, q: int) -> np.ndarray:
    """Fraction-free elimination of a reduced stack in place; pivot columns.

    Per matrix and column, the pivot is the first nonzero row at or below
    the matrix's current row, swapped up to it.  Every other row becomes
    ``row * pivot - factor * pivot row``.  Returns the ``(B, m)`` pivot
    columns, -1 past each matrix's rank.

    The whole stack first takes the diagonal entry as the pivot of each
    column ``c < min(m, n)``: no mask, search, swap or gather.  A nonzero
    ``a[c, c]`` is the pivot the search picks, and after ``min(m, n)``
    pivots a matrix has no row or no column left, so a matrix whose
    diagonal never meets a zero gets the search's pivots and rows, bit for
    bit.  Only the matrices that meet one are restored and run through
    ``_search_pivots``; over a large field they are rare.
    """
    b, m, n = a.shape
    k = min(m, n)
    src = a.copy()
    for c in range(k):
        prow = a[:, c].copy()
        update = a[:, :, c, None] * prow[:, None, :]
        a *= prow[:, c, None, None]
        a -= update
        a %= q
        a[:, c] = prow
    pivots = np.full((b, m), -1, dtype=np.intp)
    pivots[:, :k] = np.arange(k)
    # Column 0 of every row but row 0 is 0 from the first step on, so each
    # later step only multiplies a[0, 0] by its diagonal pivot: a[0, 0] ends
    # as the product of all k of them, nonzero exactly when each one is.
    # A matrix whose diagonal met a zero then holds garbage; it is restored.
    fail = np.flatnonzero(a[:, 0, 0] == 0) if k else []
    if len(fail):
        sub = src[fail]
        pivots[fail] = _search_pivots(sub, q)
        a[fail] = sub
    return pivots


def _search_pivots(a: np.ndarray, q: int) -> np.ndarray:
    """``_eliminate`` with a pivot search in every column, for the matrices
    whose diagonal meets a zero."""
    b, m, n = a.shape
    pivots = np.full((b, m), -1, dtype=np.intp)
    r = np.zeros(b, dtype=np.intp)  # each matrix's current row
    rows = np.arange(m)
    for c in range(n):
        cand = (a[:, :, c] != 0) & (rows >= r[:, None])
        idx = np.flatnonzero(cand.any(axis=1))
        if idx.size == 0:
            continue
        rr = r[idx]
        p = cand[idx].argmax(axis=1)
        sub = a[idx]
        k = np.arange(idx.size)
        prow = sub[k, p]
        sub[k, p] = sub[k, rr]
        sub[k, rr] = prow
        hit = rows != rr[:, None]
        factor = np.where(hit, sub[:, :, c], 0)
        scale = np.where(hit, prow[:, c, None], 1)
        a[idx] = (sub * scale[:, :, None] - factor[:, :, None] * prow[:, None, :]) % q
        pivots[idx, rr] = c
        r[idx] += 1
        if r.min() == m:
            break
    return pivots


def _inv_vec(x: np.ndarray, q: int) -> np.ndarray:
    """Elementwise inverse of nonzero reduced entries: x^(q-2) by squaring."""
    out = np.ones_like(x)
    base = x.copy()
    e = q - 2
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    return out


def _rank_batch(a: np.ndarray, q: int) -> np.ndarray:
    """Ranks of every matrix of a ``(B, m, n)`` stack."""
    return _by_chunk(a, q, lambda c: ((_eliminate(c, q) >= 0).sum(axis=1),))[0]


def _rref_chunk(c: np.ndarray, q: int) -> np.ndarray:
    """RREF of a reduced chunk in place; its pivot columns, -1 padded."""
    piv = _eliminate(c, q)
    lead = np.ones(piv.shape, dtype=np.int64)
    bb, ii = np.nonzero(piv >= 0)
    lead[bb, ii] = c[bb, ii, piv[bb, ii]]
    c *= _inv_vec(lead, q)[:, :, None]
    c %= q
    return piv


def _solve_batch(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Solve every square system ``[A | b]`` of a ``(B, n, n + c)`` stack.

    Returns the ``(B, n, c)`` solutions of ``A x = b`` and the ``(B,)`` flags
    of which ``A`` are invertible; a solution is meaningless where its flag
    is False.  Each chunk goes to RREF: ``A`` is invertible exactly when the
    pivots are ``0..n-1``, and then the last ``c`` columns are ``x``.
    """
    n = a.shape[1]

    def step(c):
        ok = (_rref_chunk(c, q) == np.arange(n)).all(axis=1)
        return c[:, :, n:], ok

    return _by_chunk(a, q, step)


def _inverse_batch(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only inverses of a ``(B, n, n)`` stack, by one solve against I_n,
    and the ``(B,)`` flags of which matrices are invertible."""
    eye = np.broadcast_to(np.eye(a.shape[1], dtype=np.int64), a.shape)
    inv, ok = _solve_batch(np.concatenate([a, eye], axis=2), q)
    inv.setflags(write=False)
    return inv, ok


def _left_null_batch(a: np.ndarray, q: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """First ``count`` canonical left null vectors of every matrix of a
    ``(B, m, n)`` stack, ``(B, count, m)``, and the ``(B,)`` nullities.

    The canonical basis of ``{u : u M_b = 0}`` has one row per free column
    of the RREF of ``M_b^T``, in increasing order: that coordinate 1, the
    other free ones 0, the pivot coordinates solved from the RREF.  Rows
    past a matrix's nullity are meaningless.
    """
    m = a.shape[1]

    def step(red):
        piv = _rref_chunk(red, q)
        b = red.shape[0]
        basis = np.broadcast_to(np.eye(m, dtype=np.int64), (b, m, m)).copy()
        bb, ii = np.nonzero(piv >= 0)
        basis[bb, :, piv[bb, ii]] = (-red[bb, ii, :]) % q
        free = np.ones((b, m), dtype=bool)
        free[bb, piv[bb, ii]] = False
        first = np.argsort(~free, axis=1, kind="stable")[:, :count]
        return basis[np.arange(b)[:, None], first], free.sum(axis=1)

    return _by_chunk(a.transpose(0, 2, 1), q, step)


def random_matrix(rows: int, cols: int, field: Field, seed: int) -> FMatrix:
    """Uniform i.i.d. matrix over F_q; deterministic for a fixed seed."""
    if rows < 1 or cols < 1:
        raise ShapeMismatch("random_matrix requires rows, cols >= 1")
    stream = ElementStream(field.q, seed)
    data = np.array(stream.take(rows * cols), dtype=np.int64).reshape(rows, cols)
    return FMatrix(field, data)

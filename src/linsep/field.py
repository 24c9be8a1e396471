"""Exact dense linear algebra over a prime field F_q.

Matrices are stored as immutable numpy ``int64`` arrays with every entry
reduced into ``[0, q)``.  All reductions happen eagerly, so intermediate
products never exceed ``(q-1)**2`` and stay inside 64-bit arithmetic; the
field constructor rejects moduli too large for that to hold.

Convention: raw matrix row/column indices are 0-based (numpy style).
Dataset and worker indices in the rest of the library are 1-based and are
converted at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BadModulus, InversionOfZero, ShapeMismatch, SingularMatrix

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


def ff_inv(x: int, field: Field) -> int:
    """Multiplicative inverse of x in F_q.  Raises InversionOfZero on x == 0."""
    x = x % field.q
    if x == 0:
        raise InversionOfZero("0 has no multiplicative inverse")
    return pow(x, field.q - 2, field.q)


# ---------------------------------------------------------------------------
# Deterministic RNG: splitmix64.
#
# The generator is the standard splitmix64 sequence: the state advances by the
# 64-bit golden-ratio constant and each output is the finalizer
#   z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
#   z ^= z >> 27; z *= 0x94D049BB133111EB;
#   z ^= z >> 31;
# Field elements are drawn by rejection sampling so they are exactly uniform
# on [0, q).  Any implementation of splitmix64 reproduces the streams.
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
    """Stream of uniform field elements from a splitmix64 seed."""

    def __init__(self, field: Field, seed: int):
        self.field = field
        self._state = seed & _MASK64
        # Largest multiple of q below 2^64; draws at or above it are rejected.
        self._limit = (1 << 64) - ((1 << 64) % field.q)

    def _next64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def take(self, count: int) -> list[int]:
        q = self.field.q
        out = []
        while len(out) < count:
            r = self._next64()
            if r < self._limit:
                out.append(r % q)
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


class FVector:
    """Immutable vector over F_q."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, data):
        self.field = field
        self._a = _as_array(field, data, 1)

    @property
    def array(self) -> np.ndarray:
        return self._a

    def __len__(self) -> int:
        return self._a.shape[0]

    def __getitem__(self, i: int) -> int:
        return int(self._a[i])

    def to_list(self) -> list[int]:
        return [int(x) for x in self._a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FVector)
            and self.field == other.field
            and self._a.shape == other._a.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self):
        return hash((self.field.q, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FVector({self.to_list()} mod {self.field.q})"


class FMatrix:
    """Immutable dense matrix over F_q."""

    __slots__ = ("field", "_a")

    def __init__(self, field: Field, data):
        self.field = field
        self._a = _as_array(field, data, 2)

    @property
    def array(self) -> np.ndarray:
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def take_columns(self, cols: Sequence[int]) -> "FMatrix":
        return FMatrix(self.field, self._a[:, list(cols)])

    def take_rows(self, rows: Sequence[int]) -> "FMatrix":
        return FMatrix(self.field, self._a[list(rows), :])

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


def zeros(rows: int, cols: int, field: Field) -> FMatrix:
    return FMatrix(field, np.zeros((rows, cols), dtype=np.int64))


def row_stack(mats: Sequence[FMatrix]) -> FMatrix:
    if not mats:
        raise ShapeMismatch("cannot stack an empty list of matrices")
    field = mats[0].field
    for m in mats:
        if m.field != field or m.cols != mats[0].cols:
            raise ShapeMismatch("row_stack operands disagree on field or width")
    return FMatrix(field, np.vstack([m.array for m in mats]))


def vectors_as_matrix(vecs: Sequence[FVector], field: Field, width: int) -> FMatrix:
    if not vecs:
        return zeros(0, width, field)
    return FMatrix(field, np.vstack([v.array for v in vecs]))


def mat_mul(a: FMatrix, b: FMatrix) -> FMatrix:
    """Exact modular matrix product.

    Splits the left operand into 16-bit halves so int64 accumulation cannot
    overflow for inner dimensions up to 32768.
    """
    if a.field != b.field:
        raise ShapeMismatch("operands live in different fields")
    if a.cols != b.rows:
        raise ShapeMismatch(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    if a.cols > 32768:
        raise ShapeMismatch("inner dimension too large for exact accumulation")
    q = a.field.q
    left, right = a.array, b.array
    hi = left >> 16
    lo = left & 0xFFFF
    prod = ((hi @ right) % q << 16) + (lo @ right)
    return FMatrix(a.field, prod % q)


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


def rank(m: FMatrix) -> int:
    """Row rank over F_q."""
    if m.rows == 0 or m.cols == 0:
        return 0
    return _rank_raw(m.array, m.field.q)


def rref(m: FMatrix) -> tuple[FMatrix, tuple[int, ...]]:
    a, pivots = _rref(m.array, m.field.q)
    return FMatrix(m.field, a), tuple(pivots)


def inverse(m: FMatrix) -> FMatrix:
    """Matrix inverse; raises SingularMatrix when rank < n."""
    if m.rows != m.cols:
        raise ShapeMismatch("only square matrices have inverses")
    n = m.rows
    q = m.field.q
    aug = np.hstack([m.array, np.eye(n, dtype=np.int64)])
    red, pivots = _rref(aug, q)
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrix(f"{n}x{n} matrix has rank {len([p for p in pivots if p < n])}")
    return FMatrix(m.field, red[:, n:])


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


def left_null_space(m: FMatrix) -> list[FVector]:
    """Canonical basis of {u : u M = 0}, one vector per free row of M^T."""
    cols = _null_space_columns(m.array.T, m.field.q)
    return [FVector(m.field, v) for v in cols]


def random_matrix(rows: int, cols: int, field: Field, seed: int) -> FMatrix:
    """Uniform i.i.d. matrix over F_q; deterministic for a fixed seed."""
    if rows < 1 or cols < 1:
        raise ShapeMismatch("random_matrix requires rows, cols >= 1")
    stream = ElementStream(field, seed)
    data = np.array(stream.take(rows * cols), dtype=np.int64).reshape(rows, cols)
    return FMatrix(field, data)


def random_invertible(n: int, field: Field, seed: int, max_tries: int = 64) -> FMatrix:
    """First full-rank n x n matrix along the derived seed sequence."""
    for attempt in range(max_tries):
        m = random_matrix(n, n, field, derive_seed(seed, "invertible", attempt))
        if rank(m) == n:
            return m
    raise SingularMatrix(f"no invertible {n}x{n} matrix after {max_tries} draws")

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _null_space_columns,
    _rank_raw,
    _rref,
    in_row_span,
    left_null_space,
    ref_matmul,
    ref_rank,
)
from linsep import field as fl
from linsep.errors import ShapeMismatch, SingularMatrix

F7 = fl.Field(7)
FQ = fl.Field()  # default 2**31 - 1
# The largest prime the field accepts: (q-1)^2 only just fits in int64.
Q_MAX = next(p for p in range(fl._MAX_MODULUS, 2, -1) if fl.is_prime(p))


def zeros(rows, cols, f):
    return fl.FMatrix(f, np.zeros((rows, cols), dtype=np.int64))


# ---------------------------------------------------------------------------
# Field construction and elementwise inverse
# ---------------------------------------------------------------------------


def test_field_rejects_non_prime_and_tiny_moduli():
    for bad in (0, 1, 2, 4, 9, 2**31 - 2):
        with pytest.raises(ValueError):
            fl.Field(bad)


def test_default_modulus_is_prime():
    assert fl.is_prime(fl.DEFAULT_MODULUS)
    assert FQ.q == 2**31 - 1


def test_is_prime_rejects_numbers_below_2_and_composites_past_the_trial_division():
    # 1763 = 41 * 43 has no factor among the bases, so the witness loop
    # decides it; 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7.
    for n in (0, 1, 1763, 3215031751):
        assert not fl.is_prime(n), n
    assert fl.is_prime(41) and fl.is_prime(3037000493)


def fermat(x, q):
    return [[pow(int(v), q - 2, q) for v in row] for row in np.atleast_2d(x)]


def test_ff_inv_examples():
    # The field inverse is ``_inv_vec``, elementwise over any shape.
    assert fl._inv_vec(np.array([1, 2, 3, 6]), 7).tolist() == [1, 4, 5, 6]
    assert fl._inv_vec(np.array([[2], [3]]), 7).tolist() == [[4], [5]]


@pytest.mark.parametrize("q", [3, 7, 101, 9973])
def test_ff_inv_exhaustive_small_fields(q):
    x = np.arange(1, q, dtype=np.int64)
    inv = fl._inv_vec(x, q)
    assert inv.tolist() == fermat(x, q)[0]
    assert (inv * x % q == 1).all()


def test_ff_inv_sampled_large_field():
    for q in (FQ.q, Q_MAX):
        x = np.array(fl.ElementStream(q, 7).nonzero(200)).reshape(20, 10)
        x[0, :2] = 1, q - 1
        inv = fl._inv_vec(x, q)
        assert inv.tolist() == fermat(x, q)
        assert (inv * x % q == 1).all()


# ---------------------------------------------------------------------------
# Null space, rank, inverse: frozen examples
# ---------------------------------------------------------------------------

# Columns 3 and 6 of the 4x6 demand matrix used throughout the test suite
# (entries taken from the printed matrix, not any printed sub-matrix).
SUBMATRIX_36 = [[1, 1], [3, 6], [2, 4], [1, 0]]


def test_left_null_space_of_identity_is_empty():
    assert left_null_space(fl.identity(2, F7)) == []


def test_left_null_space_known_span():
    m = fl.from_rows(FQ, SUBMATRIX_36)
    basis = left_null_space(m)
    assert len(basis) == 2
    q = FQ.q
    for known in ([-6, 1, 0, 3], [0, -2, 3, 0]):
        assert in_row_span([x % q for x in known], basis, q)


def test_left_null_space_of_zero_matrix_spans_everything():
    basis = left_null_space(zeros(3, 2, F7))
    assert len(basis) == 3
    assert ref_rank(basis, 7) == 3


def test_left_null_space_orthogonality_exact():
    m = fl.from_rows(FQ, SUBMATRIX_36)
    for v in left_null_space(m):
        prod = fl.mat_mul(fl.FMatrix(FQ, [v]), m)
        assert prod.array.tolist() == [[0, 0]]


def test_public_matrices_copy_and_reduce_their_data():
    data = np.array([[-1, 8], [3, 13]])
    m = fl.FMatrix(F7, data)
    data[0, 0] = 5
    assert m.to_lists() == [[6, 1], [3, 6]]
    assert m.array.dtype == np.int64 and not m.array.flags.writeable
    assert fl.FMatrix(F7, m.array).array is not m.array
    with pytest.raises(ShapeMismatch):
        fl.FMatrix(F7, [1, 2])


def test_rank_examples():
    assert fl.rank(fl.identity(4, FQ)) == 4
    q = FQ.q
    assert fl.rank(fl.from_rows(FQ, [[1, q - 1], [1, q - 1]])) == 1
    assert fl.rank(zeros(2, 3, FQ)) == 0
    assert fl.rank(zeros(0, 3, FQ)) == 0 and fl.rank(zeros(3, 0, FQ)) == 0


def test_inverse_examples():
    ident = fl.identity(3, F7)
    assert fl.inverse(ident) == ident
    # Stacked code rows of two responding workers in the 4x6 instance.
    c = fl.from_rows(FQ, [[-6, 1, 0, 3], [0, -2, 3, 0], [0, -1, 0, 1], [-1, -2, 3, 0]])
    inv = fl.inverse(c)
    assert fl.mat_mul(inv, c) == fl.identity(4, FQ)
    assert fl.mat_mul(c, inv) == fl.identity(4, FQ)
    with pytest.raises(SingularMatrix):
        fl.inverse(fl.from_rows(F7, [[1, 1], [1, 1]]))
    with pytest.raises(ShapeMismatch, match="only square matrices have inverses"):
        fl.inverse(fl.from_rows(F7, [[1, 1, 1], [1, 2, 3]]))


def test_mat_mul_rejects_operands_of_another_field_or_shape():
    a = fl.from_rows(F7, [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch, match="operands live in different fields"):
        fl.mat_mul(a, fl.from_rows(FQ, [[1, 2], [3, 4]]))
    with pytest.raises(ShapeMismatch, match="cannot multiply 2x2 by 3x1"):
        fl.mat_mul(a, fl.from_rows(F7, [[1], [2], [3]]))


def test_canonical_null_basis_is_stable():
    m = fl.random_matrix(6, 3, FQ, seed=42)
    first = left_null_space(m)
    second = left_null_space(m)
    assert first == second


# ---------------------------------------------------------------------------
# Randomized invariants
# ---------------------------------------------------------------------------

small_matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(0, 100), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_rank_nullity_and_orthogonality(rows):
    f = fl.Field(101)
    m = fl.from_rows(f, rows)
    basis = left_null_space(m)
    assert fl.rank(m) + len(basis) == m.rows
    assert fl.rank(m) == ref_rank(rows, 101)
    for v in basis:
        prod = fl.mat_mul(fl.FMatrix(f, [v]), m)
        assert not prod.array.any()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
def test_matmul_matches_reference(seed, a, b, c):
    left = fl.random_matrix(a, b, FQ, fl.derive_seed(seed, "l"))
    right = fl.random_matrix(b, c, FQ, fl.derive_seed(seed, "r"))
    got = fl.mat_mul(left, right)
    assert got.to_lists() == ref_matmul(left.to_lists(), right.to_lists(), FQ.q)


def test_matmul_near_modulus_magnitudes():
    q = FQ.q
    left = fl.from_rows(FQ, [[q - 1, q - 2], [q - 3, q - 1]])
    right = fl.from_rows(FQ, [[q - 1, q - 5], [q - 4, q - 1]])
    assert fl.mat_mul(left, right).to_lists() == ref_matmul(
        left.to_lists(), right.to_lists(), q
    )


def test_inverse_round_trip_random():
    m = fl.random_matrix(5, 5, FQ, seed=3)
    assert fl.rank(m) == 5
    assert fl.mat_mul(m, fl.inverse(m)) == fl.identity(5, FQ)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------


def test_random_matrix_deterministic_and_shaped():
    a = fl.random_matrix(2, 3, FQ, seed=123)
    b = fl.random_matrix(2, 3, FQ, seed=123)
    assert a == b
    assert (a.rows, a.cols) == (2, 3)
    assert fl.random_matrix(2, 3, FQ, seed=124) != a
    with pytest.raises(ShapeMismatch):
        fl.random_matrix(0, 3, FQ, seed=1)


def test_random_matrix_mean_close_to_uniform():
    draws = fl.random_matrix(500, 200, FQ, seed=2024)  # 1e5 entries
    mean = float(np.mean(draws.array))
    expected = (FQ.q - 1) / 2
    assert abs(mean - expected) < 0.01 * expected


def test_element_stream_uniform_small_field():
    # Chi-square against uniform on a small field: 7 bins, 7000 draws.
    stream = fl.ElementStream(F7.q, 99)
    draws = stream.take(7000)
    counts = np.bincount(draws, minlength=7)
    expected = 1000.0
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 30.0  # df=6; far beyond any sane quantile signals a bug


def test_derive_seed_separates_streams():
    s = 77
    assert fl.derive_seed(s, "demand") != fl.derive_seed(s, "padding")
    assert fl.derive_seed(s, 1) != fl.derive_seed(s, 2)
    assert fl.derive_seed(s, "x", 1) == fl.derive_seed(s, "x", 1)


# ---------------------------------------------------------------------------
# Batched kernels against the scalar ones
# ---------------------------------------------------------------------------

BATCH_MODULI = (7, 11, 101, 2**31 - 1, Q_MAX)


@st.composite
def deficient_stacks(draw):
    """(q, stack): a (B, m, n) stack, some of whose matrices lose rank.

    Entries lean towards 0, 1 and q - 1 so that products reach (q-1)^2; a
    drawn set of matrices gets a repeated (scaled) row or a zero column.
    """
    q = draw(st.sampled_from(BATCH_MODULI))
    b, m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    flat = draw(st.lists(entry, min_size=b * m * n, max_size=b * m * n))
    a = np.array(flat, dtype=np.int64).reshape(b, m, n)
    for j in draw(st.lists(st.integers(0, b - 1), max_size=b)):
        if m > 1 and draw(st.booleans()):
            src, dst = draw(st.permutations(range(m)))[:2]
            a[j, dst] = a[j, src] * draw(st.integers(0, q - 1)) % q
        else:
            a[j, :, draw(st.integers(0, n - 1))] = 0
    return q, a


def assert_batched_matches_scalar(q, a):
    ranks = fl._rank_batch(a, q)
    red = a % q
    piv = fl._rref_chunk(red, q)
    nulls, nullity = fl._left_null_batch(a, q, a.shape[1])
    # The leading square slice of every matrix, beside a drawn right-hand side.
    k = min(a.shape[1:])
    f = fl.Field(q)
    rhs = fl.random_matrix(len(a) * k, 2, f, fl.derive_seed(int(a.sum()), "rhs"))
    rhs = rhs.array.reshape(len(a), k, 2)
    x, ok = fl._solve_batch(np.concatenate([a[:, :k, :k], rhs], axis=2), q)
    assert len(ranks) == len(red) == len(piv) == len(ok) == len(a)
    assert nulls.shape == (len(a), a.shape[1], a.shape[1]) and nullity.shape == (len(a),)
    for j, mat in enumerate(a):
        assert ranks[j] == _rank_raw(mat, q) == ref_rank(mat.tolist(), q)
        want_red, want_piv = _rref(mat, q)
        assert red[j].tolist() == want_red.tolist()
        assert piv[j][piv[j] >= 0].tolist() == want_piv
        want = _null_space_columns(mat.T, q)
        assert nullity[j] == len(want)
        assert nulls[j, : nullity[j]].tolist() == [v.tolist() for v in want]
        square = mat[:k, :k].tolist()
        assert ok[j] == (ref_rank(square, q) == k)
        if ok[j]:
            assert ref_matmul(square, x[j].tolist(), q) == rhs[j].tolist()


@settings(max_examples=150, deadline=None)
@given(deficient_stacks())
def test_batched_kernels_match_scalar_kernels(case):
    assert_batched_matches_scalar(*case)


@pytest.mark.parametrize("q", BATCH_MODULI)
def test_batched_kernels_single_matrix_stack(q):
    a = fl.random_matrix(5, 7, fl.Field(q), seed=q).array
    deficient = a.copy()
    deficient[3] = deficient[1]
    assert_batched_matches_scalar(q, a[None])
    assert_batched_matches_scalar(q, deficient[None])
    assert_batched_matches_scalar(q, np.zeros((1, 3, 4), dtype=np.int64))


@pytest.mark.parametrize("q", (7, Q_MAX))
def test_batched_kernels_across_chunks(q):
    # More entries than one chunk holds, generic and deficient matrices
    # interleaved, so that chunks split a mix of both.
    b = 2 * fl._BATCH_ELEMENTS // 36 + 5
    a = fl.random_matrix(b * 6, 6, fl.Field(q), seed=3).array.reshape(b, 6, 6).copy()
    a[::3, 5] = a[::3, 0]
    a[1::4, :, 2] = 0
    assert_batched_matches_scalar(q, a)


def _scaled(base, q, seed, count):
    """``count`` copies of ``base`` with rows and columns scaled by drawn
    nonzero factors: the rank and the zero pattern of every minor kept."""
    base = np.array(base, dtype=np.int64) % q
    m, n = base.shape
    stream = fl.ElementStream(q, seed)
    rows = np.array(stream.nonzero(count * m), dtype=np.int64).reshape(count, m, 1)
    cols = np.array(stream.nonzero(count * n), dtype=np.int64).reshape(count, 1, n)
    return base * rows % q * cols % q


def _random_stack(q, seed, b, m, n):
    return fl.random_matrix(b * m, n, fl.Field(q), seed).array.reshape(b, m, n).copy()


def _diagonal_fails(mat, q):
    """Whether the diagonal pass meets a zero: some leading principal minor
    of order up to min(m, n) is 0."""
    return any(ref_rank(mat[:c, :c].tolist(), q) < c for c in range(1, min(mat.shape) + 1))


def _fallback_stack(kind, q):
    if kind == "zero_corner":
        a = _random_stack(q, 1, 3, 4, 4)
        a[:, 0, 0] = 0
    elif kind == "zero_after_update":
        # Full rank, yet the (2, 2) entry is 0 once row 1 has lost row 0.
        base = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        a = _scaled(base, q, 2, 3)
        assert all(ref_rank(m.tolist(), q) == 4 for m in a)
    elif kind == "row_swap":
        # Column 1's pivot is in row 2; the last diagonal entry ends nonzero.
        a = _scaled([[1, 0, 0], [0, 0, 1], [0, 1, 0]], q, 8, 3)
    elif kind == "rank_deficient":
        a = _random_stack(q, 3, 3, 5, 5)
        a[:, 3] = a[:, 1] * 3 % q
    elif kind == "tall":
        a = _random_stack(q, 4, 3, 6, 3)
        a[:, :, 1] = 0
    elif kind == "wide":
        # The leading 3 x 3 block is singular, the matrix has full row rank.
        base = [[1, 0, 1, 0, 2, 5], [0, 1, 1, 0, 3, 1], [1, 1, 2, 1, 0, 4]]
        a = _scaled(base, q, 5, 3)
    else:  # "mixed": matrices that pass beside ones that fail, in one chunk
        a = _random_stack(q, 6, 8, 4, 5)
        a[1::2, 0, 0] = 0
    return a


@pytest.mark.parametrize("q", BATCH_MODULI)
@pytest.mark.parametrize(
    "kind",
    ["zero_corner", "zero_after_update", "row_swap", "rank_deficient", "tall", "wide", "mixed"],
)
def test_pivot_search_runs_only_where_the_diagonal_fails(monkeypatch, q, kind):
    a = _fallback_stack(kind, q)
    search, searched = fl._search_pivots, []

    def spy(sub, q):
        searched.extend(sub.tolist())
        return search(sub, q)

    monkeypatch.setattr(fl, "_search_pivots", spy)
    fl._eliminate(a % q, q)
    failing = [mat.tolist() for mat in a if _diagonal_fails(mat, q)]
    assert failing and searched == failing
    if kind == "mixed" and q > 101:
        assert len(failing) == len(a) // 2
    assert_batched_matches_scalar(q, a)


@pytest.mark.parametrize("q", (7, 2**31 - 1))
def test_each_matrix_is_reduced_as_its_own_batch_of_one(q):
    # Past one chunk, with matrices whose diagonal fails in every chunk: a
    # matrix's pivots and rows do not depend on its chunk-mates.
    b, m, n = 3 * fl._BATCH_ELEMENTS // 20 + 7, 4, 5
    a = _random_stack(q, 7, b, m, n)
    a[::3, 0, 0] = 0
    a[1::5, 2] = a[1::5, 1]
    size = fl._BATCH_ELEMENTS // (m * n)
    assert b > 2 * size and all(a[lo : lo + size, 0, 0].min() == 0 for lo in range(0, b, size))

    def step(c):
        return fl._rref_chunk(c, q), c

    piv, red = fl._by_chunk(a, q, step)
    for j in range(b):
        one_piv, one_red = step(a[j : j + 1] % q)
        assert piv[j].tolist() == one_piv[0].tolist()
        assert red[j].tolist() == one_red[0].tolist()


@pytest.mark.parametrize("fill", ["top", "random"])
def test_matmul_has_no_inner_dimension_cap(fill):
    # 40 000 inner terms: hundreds of exact float slices of the split product.
    q, inner = Q_MAX, 40_000
    f = fl.Field(q)
    if fill == "top":
        a, b = np.full((2, inner), q - 1), np.full((inner, 2), q - 1)
    else:
        a = fl.random_matrix(2, inner, f, seed=1).array
        b = fl.random_matrix(inner, 2, f, seed=2).array
    got = fl.mat_mul(fl.FMatrix(f, a), fl.FMatrix(f, b))
    assert got.to_lists() == ref_matmul(a.tolist(), b.tolist(), q)


# ---------------------------------------------------------------------------
# The float64 limb path of the product kernel
# ---------------------------------------------------------------------------

EDGE_MODULI = (7, 101, 2**31 - 1, Q_MAX)


def test_float_slice_is_the_longest_exact_one():
    assert fl._float_inner(2**31 - 1) == 64 and fl._float_inner(Q_MAX) == 45
    for q in EDGE_MODULI:
        n = fl._float_inner(q)
        assert n * 0xFFFF * (q - 1) < 2**53 <= (n + 1) * 0xFFFF * (q - 1)


def _edge_operands(q, fill, inner, side, stack):
    if fill == "top":
        return np.full(stack + (side, inner), q - 1), np.full(stack + (inner, side), q - 1)
    # Odd limb-product terms with an odd sum: past the float bound that sum
    # is not a float64, so a slice one term too long would round it.
    a = np.full(stack + (side, inner), ((q - 1) >> 16 << 16) - 1)
    b = np.full(stack + (inner, side), q - 2)
    if inner % 2 == 0:
        b[..., -1, :] = q - 1
    return a, b


@pytest.mark.parametrize("stack", [(), (3,)], ids=["2d", "stacked"])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize(
    "q, fill",
    [(q, "top") for q in EDGE_MODULI] + [(2**31 - 1, "odd"), (Q_MAX, "odd")],
)
def test_float_products_are_exact_at_the_longest_slice(q, fill, extra, stack):
    # The longest inner dimension one float product takes, and one more,
    # capped at 32 768 terms where the float slice is longer (q = 7, 101).
    inner = min(32768, fl._float_inner(q)) + extra
    side = int(np.sqrt(fl._FLOAT_MIN_WORK // inner)) + 1
    assert side * side * inner >= fl._FLOAT_MIN_WORK  # the float path
    a, b = _edge_operands(q, fill, inner, side, stack)
    got = fl._mul_batch(a, b, q)
    assert got.shape == stack + (side, side)
    for i in np.ndindex(stack):
        assert got[i].tolist() == ref_matmul(a[i].tolist(), b[i].tolist(), q)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(EDGE_MODULI), st.sampled_from([(), (2,)]),
    st.integers(1, 12), st.integers(1, 100), st.integers(1, 12),
    st.booleans(), st.integers(0, 2**32),
)
def test_products_across_the_float_threshold(q, stack, rows, inner, cols, top, seed):
    # rows * cols * inner from 1 to 14 400 straddles _FLOAT_MIN_WORK, and
    # inner straddles the float slice at q = 2^31 - 1 and Q_MAX.
    rng = np.random.default_rng(seed)
    low = q - 1 - q // 8 if top else 0
    a = rng.integers(low, q, stack + (rows, inner))
    b = rng.integers(low, q, stack + (inner, cols))
    got = fl._mul_batch(a, b, q)
    for i in np.ndindex(stack):
        assert got[i].tolist() == ref_matmul(a[i].tolist(), b[i].tolist(), q)

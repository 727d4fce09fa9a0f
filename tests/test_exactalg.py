"""Rank/kernel arithmetic and the snake-lemma checker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistforms import exactalg
from twistforms.exactalg import WORD_MODULUS_MAX, ExactMatrix, residue_dtype, snake_check
from twistforms.forms import contraction_matrix


def gf(rows, q=101):
    return ExactMatrix.from_rows(rows, q=q)


def qq(rows):
    return ExactMatrix.from_rows(rows, q=None)


def test_rank_identity_and_zero():
    assert ExactMatrix.identity(2, q=101).rank() == 2
    assert ExactMatrix.zeros(3, 5, q=101).rank() == 0
    assert ExactMatrix.zeros(3, 5, q=None).rank() == 0


def test_rank_euler_contraction_112():
    m = contraction_matrix(1, 1, 2, q=None)
    assert m.shape == (3, 4)
    assert m.rank() == 3


def test_kernel_of_identity_is_empty():
    k = ExactMatrix.identity(4, q=101).kernel_basis()
    assert k.shape == (4, 0)


def test_kernel_of_zero_map_is_everything():
    k = ExactMatrix.zeros(2, 3, q=None).kernel_basis()
    assert k.shape == (3, 3)
    assert k.rank() == 3


def test_kernel_of_contraction_112_is_the_invariant_form():
    # Basis order: x0 dx0, x1 dx0, x0 dx1, x1 dx1; kernel is x1 dx0 - x0 dx1
    # up to scale.
    m = contraction_matrix(1, 1, 2, q=None)
    k = m.kernel_basis()
    assert k.shape == (4, 1)
    col = [k.entry(i, 0) for i in range(4)]
    assert col[0] == col[3] == 0
    assert col[1] == -col[2] != 0
    assert (m @ k).is_zero()


def test_rational_kernel_columns_are_canonical_integers():
    m = qq([[2, 4, 6], [1, 2, 3]])
    k = m.kernel_basis()
    assert k.shape == (3, 2)
    assert (m @ k).is_zero()
    for j in range(2):
        col = [k.entry(i, j) for i in range(3)]
        assert all(isinstance(c, int) for c in col)
        lead = next(c for c in col if c != 0)
        assert lead > 0


def test_solve_consistent_and_inconsistent():
    a = qq([[1, 0], [0, 1], [1, 1]])
    rhs = qq([[1], [2], [3]])
    x = a.solve(rhs)
    assert x is not None and a @ x == rhs
    bad = qq([[1], [2], [4]])
    assert a.solve(bad) is None


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1]], q=100)


small_int = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, q):
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    data = draw(
        st.lists(
            st.lists(small_int, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix.from_rows(data, q=q)


@settings(max_examples=60, deadline=None)
@given(matrices(q=101))
def test_rank_equals_transpose_rank_gf(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices(q=None))
def test_rank_equals_transpose_rank_rational(m):
    assert m.rank() == m.transpose().rank()


@settings(max_examples=60, deadline=None)
@given(matrices(q=None))
def test_kernel_annihilated_and_independent(m):
    k = m.kernel_basis()
    assert k.cols == m.cols - m.rank()
    assert (m @ k).is_zero()
    assert k.rank() == k.cols


@settings(max_examples=40, deadline=None)
@given(matrices(q=None))
def test_rational_rank_bounds_modular_rank(m):
    r = m.rank()
    for q in (101, 1009, 65537):
        mq = ExactMatrix.from_rows(m.row_list(), q=q)
        assert mq.rank() <= r


# One prime just above the int64-safe bound, one below 2^63, one above it.
# Minors of a 5x5 matrix with entries in [-9, 9] are below (9*sqrt(5))^5 < 4e6
# in size, far under each prime, so the rank mod q must equal the rank over Q.
LARGE_PRIMES = (4294967311, 2**61 - 1, 2**89 - 1)


@settings(max_examples=40, deadline=None)
@given(matrices(q=None))
def test_large_prime_ranks_equal_rational_ranks(m):
    r = m.rank()
    for q in LARGE_PRIMES:
        mq = ExactMatrix.from_rows(m.row_list(), q=q)
        assert mq.rank() == r
        k = mq.kernel_basis()
        assert k.cols == m.cols - r
        assert (mq @ k).is_zero()


def test_large_prime_storage_and_singular_matrix():
    assert residue_dtype(2**31 - 1) is np.int64
    assert residue_dtype(WORD_MODULUS_MAX) is np.int64
    assert residue_dtype(WORD_MODULUS_MAX + 1) is object
    # Residue products overflowed int64 here and this matrix got rank 2.
    assert gf([[-1, -2], [-2, -4]], q=2**61 - 1).rank() == 1


# -- the word-size product engine and its eliminations -------------------------

# 94906249 is the largest prime with (q-1)^2 <= 2^53-1, so only inner
# dimension 1 takes float64 there and larger ones take int64; 94906297 is
# the first prime never on float64; 4294967311 and 2^61-1 take Python integers.
PRODUCT_PRIMES = (2, 101, 94906249, 94906297, 2**31 - 1, 4294967311, 2**61 - 1)


def test_product_prime_tiers():
    assert (94906249 - 1) ** 2 <= exactalg._FLOAT_EXACT < 2 * (94906249 - 1) ** 2
    assert (94906297 - 1) ** 2 > exactalg._FLOAT_EXACT
    # 2^31-1 is stored in int64, but products with inner dimension >= 3
    # take the object tier and are cast back.
    assert (2**31 - 1) ** 2 * 3 >= 2**63 and residue_dtype(2**31 - 1) is np.int64


@st.composite
def product_pairs(draw):
    q = draw(st.sampled_from(PRODUCT_PRIMES))
    m, k, n = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    # Residues near q-1 make the largest products and partial sums.
    entry = st.one_of(st.integers(0, q - 1), st.integers(max(0, q - 3), q - 1))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return q, (m, k, a), (k, n, b)


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_product_equals_object_oracle(case):
    q, (m, k, a), (_, n, b) = case
    prod = ExactMatrix(m, k, a, q=q) @ ExactMatrix(k, n, b, q=q)
    oracle = (np.array(a, dtype=object).reshape(m, k) @ np.array(b, dtype=object).reshape(k, n)) % q
    assert prod.shape == (m, n)
    assert prod._a.dtype == residue_dtype(q)
    assert prod.row_list() == [[int(x) for x in row] for row in oracle]


def test_product_past_the_float_bound():
    # 7 * (q-2)^2 is odd and above 2^53, where float64 rounds the sum
    # (to a residue of 29).
    q = 94906249
    a = ExactMatrix.from_rows([[q - 2] * 7], q=q)
    b = ExactMatrix.from_rows([[q - 2]] * 7, q=q)
    assert (a @ b).entry(0, 0) == 7 * (q - 2) ** 2 % q == 28


def test_product_with_empty_inner_dimension():
    for q in PRODUCT_PRIMES:
        prod = ExactMatrix.zeros(3, 0, q=q) @ ExactMatrix.zeros(0, 2, q=q)
        assert prod.shape == (3, 2) and prod.is_zero()
        assert prod._a.dtype == residue_dtype(q)


def _whole_row_rref(m):
    """Row reduction that updates whole rows: the reference for the column-range update."""
    q, a = m.q, m._a.copy()
    pivots, r = [], 0
    for c in range(a.shape[1]):
        if r == a.shape[0]:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), q - 2, q) % q
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % q
        pivots.append(c)
        r += 1
    return a, pivots


def _loop_kernel(m):
    """Kernel basis built by the per-column, per-pivot loop."""
    rr, pivots = _whole_row_rref(m)
    free = [c for c in range(m.cols) if c not in set(pivots)]
    ker = np.zeros((m.cols, len(free)), dtype=residue_dtype(m.q))
    for k, f in enumerate(free):
        ker[f, k] = 1
        for j, pc in enumerate(pivots):
            ker[pc, k] = (-int(rr[j, f])) % m.q
    return ker


@settings(max_examples=60, deadline=None)
@given(matrices(q=None), st.sampled_from((2, 101, 2**61 - 1)))
def test_rref_and_kernel_match_reference_loops(m, q):
    mq = ExactMatrix.from_rows(m.row_list(), q=q)
    rr, pivots = mq._rref()
    ref_rr, ref_pivots = _whole_row_rref(mq)
    assert pivots == ref_pivots
    assert np.array_equal(rr, ref_rr)
    ker = mq.kernel_basis()
    assert ker._a.dtype == residue_dtype(q)
    assert np.array_equal(ker._a, _loop_kernel(mq))


@settings(max_examples=40, deadline=None)
@given(matrices(q=None), st.sampled_from((101, 2**61 - 1, None)))
def test_rank_same_before_and_after_rref_cache(m, q):
    fresh = ExactMatrix.from_rows(m.row_list(), q=q)
    cached = ExactMatrix.from_rows(m.row_list(), q=q)
    cached._rref()
    r = fresh.rank()
    assert cached.rank() == r == fresh.rank()
    assert fresh._rref() is not None and fresh.rank() == r


def test_bareiss_updates_rows_with_zero_pivot_entry():
    # Row 2 has a zero in the first pivot column; skipping its update
    # desynchronizes the exact division and once underreported this rank.
    m = qq([[3, 3, -2], [0, -2, -1], [-2, 0, 2]])
    assert m.rank() == 3
    assert m.kernel_basis().shape == (3, 0)


def test_elimination_deterministic():
    data = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a = gf(data)
    b = gf(data)
    assert a.kernel_basis() == b.kernel_basis()
    assert a.rank() == b.rank()


# -- snake lemma ------------------------------------------------------------


def rows_k_k2_k(q=None):
    i = ExactMatrix.from_rows([[1], [0]], q=q)
    p = ExactMatrix.from_rows([[0, 1]], q=q)
    return i, p


def test_snake_isomorphism_case():
    i, p = rows_k_k2_k()
    one = ExactMatrix.identity(1)
    two = ExactMatrix.identity(2)
    ledger = snake_check(i, p, i, p, one, two, one)
    assert ledger.exact
    assert (
        ledger.ker1,
        ledger.ker2,
        ledger.ker3,
        ledger.coker1,
        ledger.coker2,
        ledger.coker3,
    ) == (0, 0, 0, 0, 0, 0)


def test_snake_worked_example():
    i, p = rows_k_k2_k()
    f1 = ExactMatrix.zeros(1, 1)
    f2 = ExactMatrix.from_rows([[0, 0], [0, 1]])
    f3 = ExactMatrix.identity(1)
    ledger = snake_check(i, p, i, p, f1, f2, f3)
    assert ledger.exact
    assert (
        ledger.ker1,
        ledger.ker2,
        ledger.ker3,
        ledger.coker1,
        ledger.coker2,
        ledger.coker3,
    ) == (1, 1, 0, 1, 1, 0)
    assert ledger.alternating_sum() == 0


def test_snake_rejects_noncommuting_square():
    i, p = rows_k_k2_k()
    f1 = ExactMatrix.zeros(1, 1)
    f2 = ExactMatrix.identity(2)
    f3 = ExactMatrix.identity(1)
    with pytest.raises(ValueError, match="left square"):
        snake_check(i, p, i, p, f1, f2, f3)


def test_snake_rejects_non_exact_row():
    i = ExactMatrix.from_rows([[1], [0]])
    not_surjective = ExactMatrix.zeros(1, 2)
    one = ExactMatrix.identity(1)
    two = ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="quotient not surjective"):
        snake_check(i, not_surjective, i, not_surjective, one, two, one)

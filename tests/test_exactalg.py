"""Rank/kernel arithmetic and the snake-lemma checker."""

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twistforms import exactalg
from twistforms.exactalg import (
    _CERT_PRIME as CERT_PRIME,
    WORD_MODULUS_MAX,
    ExactMatrix,
    is_prime,
    residue_dtype,
    snake_check,
)
from twistforms.forms import contraction_matrix


def row_list(m):
    """Entries of an ExactMatrix as a list of row lists (Python ints over
    GF(q), ints and Fractions over Q)."""
    return m._a.tolist()


def from_rows(rows, q=None):
    """The matrix with the given rows, through the checking constructor."""
    rows = [list(r) for r in rows]
    return ExactMatrix(len(rows), len(rows[0]) if rows else 0, rows, q=q)


def zeros(rows, cols, q=None):
    """The zero matrix, through the checking constructor."""
    return ExactMatrix(rows, cols, np.zeros((rows, cols), dtype=residue_dtype(q)), q=q)


def gf(rows, q=101):
    return from_rows(rows, q=q)


def qq(rows):
    return from_rows(rows, q=None)


def test_rank_identity_and_zero():
    assert ExactMatrix.identity(2, q=101).rank() == 2
    assert zeros(3, 5, q=101).rank() == 0
    assert zeros(3, 5, q=None).rank() == 0


def test_rank_euler_contraction_112():
    m = contraction_matrix(1, 1, 2, q=None)
    assert m.shape == (3, 4)
    assert m.rank() == 3


def test_kernel_of_identity_is_empty():
    k = ExactMatrix.identity(4, q=101).kernel_basis()
    assert k.shape == (4, 0)


def test_kernel_of_zero_map_is_everything():
    k = zeros(2, 3, q=None).kernel_basis()
    assert k.shape == (3, 3)
    assert k.rank() == 3


def test_kernel_of_contraction_112_is_the_invariant_form():
    # Basis order: x0 dx0, x1 dx0, x0 dx1, x1 dx1; kernel is x1 dx0 - x0 dx1
    # up to scale.
    m = contraction_matrix(1, 1, 2, q=None)
    k = m.kernel_basis()
    assert k.shape == (4, 1)
    col = [row[0] for row in row_list(k)]
    assert col[0] == col[3] == 0
    assert col[1] == -col[2] != 0
    assert (m @ k).is_zero()


def test_rational_kernel_columns_are_canonical_integers():
    m = qq([[2, 4, 6], [1, 2, 3]])
    k = m.kernel_basis()
    assert k.shape == (3, 2)
    assert (m @ k).is_zero()
    # Column 0 is the pivot column; column j of the kernel is positive on
    # the free column 1 + j and 0 on the other one.
    for j in range(2):
        col = [row[j] for row in row_list(k)]
        assert all(isinstance(c, int) for c in col)
        assert col[1 + j] > 0 and col[2 - j] == 0


def test_solve_consistent_and_inconsistent():
    a = qq([[1, 0], [0, 1], [1, 1]])
    rhs = qq([[1], [2], [3]])
    x = a.solve(rhs)
    assert x is not None and a @ x == rhs
    bad = qq([[1], [2], [4]])
    assert a.solve(bad) is None


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError):
        from_rows([[1]], q=100)


@pytest.mark.parametrize("q", [None, 101, 2**61 - 1])
def test_constructor_rejects_data_of_another_shape(q):
    for rows, cols, data in (
        (1, 4, [[1, 2], [3, 4]]),
        (2, 2, [[1, 2], [3]]),
        (2, 2, [[1, 2]]),
        (1, 2, [1, 2]),
        (2, 0, []),
    ):
        with pytest.raises(ValueError, match="do not form a %dx%d matrix" % (rows, cols)):
            ExactMatrix(rows, cols, data, q=q)
    # An empty row list has no row length to check: it fits any 0-row shape.
    assert ExactMatrix(0, 3, [], q=q).shape == (0, 3)


@pytest.mark.parametrize("q", [101, 2**61 - 1, None])
@pytest.mark.parametrize(
    "entry",
    [1.5, 2.0, float("nan"), "3", None, Fraction(3, 1), "1/3", 1j],
)
def test_constructor_refuses_entries_that_are_not_integers(q, entry):
    # A float was truncated and a string parsed before, over GF(q) and Q
    # alike; over Q a complex number escaped as a bare TypeError.
    if q is None and isinstance(entry, Fraction):
        # Over Q a Fraction is exact, and stored canonically.
        assert _typed(row_list(ExactMatrix(1, 2, [[entry, 2]], q=q))) == [[(int, 3), (int, 2)]]
        return
    field = "Q" if q is None else "GF(%d)" % q
    kinds = "integers or Fractions" if q is None else "integers"
    message = "entries over %s must be %s, got %r" % (field, kinds, entry)
    with pytest.raises(ValueError, match=re.escape(message)):
        ExactMatrix(1, 2, [[entry, 2]], q=q)


def test_rational_constructor_takes_python_and_numpy_integers_and_fractions():
    # A numpy float was stored as an int, and a numpy integer as it came.
    with pytest.raises(ValueError, match=re.escape("got %r" % np.float64(2.0))):
        ExactMatrix(1, 2, [[np.float64(2.0), 1]], q=None)
    m = ExactMatrix(1, 4, [[np.int64(2), np.uint64(2**64 - 1), Fraction(6, 4), True]], q=None)
    assert _typed(row_list(m)) == [[(int, 2), (int, 2**64 - 1), (Fraction, Fraction(3, 2)), (int, 1)]]
    ints = ExactMatrix(2, 2, np.array([[1, -2], [3, 4]], dtype=np.int8), q=None)
    assert _typed(row_list(ints)) == [[(int, 1), (int, -2)], [(int, 3), (int, 4)]]


@pytest.mark.parametrize("q", [101, 2**61 - 1])
def test_constructor_reduces_integers_past_int64(q):
    # 2^70 escaped as an OverflowError before; its residue is defined.
    m = ExactMatrix(2, 2, [[2**70, 1], [-(2**70), np.int64(-1)]], q=q)
    assert row_list(m) == [[2**70 % q, 1], [-(2**70) % q, q - 1]]
    assert m._a.dtype == residue_dtype(q)
    assert all(type(x) is int for x in m._a.ravel().tolist())


@pytest.mark.parametrize("q", [101, 2**61 - 1, None])
def test_constructor_reads_lists_as_python_integers(q):
    # numpy read an int in [2^63, 2^64) beside a negative one as a float,
    # which GF(q) then refused.
    for big in (2**63, 2**64 - 1):
        m = ExactMatrix(1, 2, [[big, -1]], q=q)
        want = [big, -1] if q is None else [big % q, q - 1]
        assert _typed(row_list(m)) == _typed([want])
        assert m._a.dtype == residue_dtype(q)


@pytest.mark.parametrize("q", [101, 2**61 - 1])
def test_constructor_reduces_numpy_integer_arrays(q):
    big = np.array([[2**64 - 1, 5]], dtype=np.uint64)
    assert row_list(ExactMatrix(1, 2, big, q=q)) == [[(2**64 - 1) % q, 5]]
    small = np.array([[-3, 1]], dtype=np.int8)
    assert row_list(ExactMatrix(1, 2, small, q=q)) == [[q - 3, 1]]
    assert row_list(ExactMatrix(1, 2, np.array([[True, False]]), q=q)) == [[1, 0]]
    # An empty float array has no entry to refuse.
    assert ExactMatrix(2, 0, np.zeros((2, 0)), q=q).shape == (2, 0)


# The least strong pseudoprime to the bases 2..37 (OEIS A014233).
PSEUDOPRIME_2_TO_37 = 318665857834031151167461


def test_is_prime_rejects_strong_pseudoprime_to_bases_2_to_37():
    assert PSEUDOPRIME_2_TO_37 == 399165290221 * 798330580441
    assert not is_prime(PSEUDOPRIME_2_TO_37)
    with pytest.raises(ValueError, match="not prime"):
        from_rows([[1]], q=PSEUDOPRIME_2_TO_37)
    assert [x for x in range(50) if is_prime(x)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]
    assert all(is_prime(q) for q in (CERT_PRIME, 2**61 - 1, 2**89 - 1))
    assert not any(is_prime(q) for q in (41 * 43, WORD_MODULUS_MAX, 2**67 - 1))


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
    return from_rows(data, q=q)


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
        mq = from_rows(row_list(m), q=q)
        assert mq.rank() <= r


# -- the rational engine --------------------------------------------------------

rational_entry = st.one_of(
    small_int,
    st.builds(Fraction, small_int, st.integers(min_value=1, max_value=6)),
    # Multiples of the certifying prime vanish modulo it.
    st.sampled_from((CERT_PRIME, -2 * CERT_PRIME, Fraction(CERT_PRIME, 3))),
)


@st.composite
def rational_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    data = draw(
        st.lists(
            st.lists(rational_entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return ExactMatrix(rows, cols, data, q=None)


def _bareiss_rank(m):
    """Rank by fraction-free elimination of the row-wise integer matrix:
    the reference for the certified rank."""
    rows = []
    for row in row_list(m):
        den = lcm(*(Fraction(x).denominator for x in row)) if row else 1
        rows.append([int(x * den) for x in row])
    prev, r = 1, 0
    for c in range(m.cols):
        if r == m.rows:
            break
        for i in range(r, m.rows):
            if rows[i][c] != 0:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m.rows):
            fi = rows[i][c]
            rows[i] = [(piv * rows[i][j] - fi * rows[r][j]) // prev for j in range(m.cols)]
        prev = piv
        r += 1
    return r


def _dense_rref(m):
    """Fraction RREF that normalises and updates whole rows: the reference
    for the sparse update."""
    canon = exactalg._canon_rational
    a = row_list(m)
    pivots, r = [], 0
    for c in range(m.cols):
        if r == m.rows:
            break
        for i in range(r, m.rows):
            if a[i][c] != 0:
                break
        else:
            continue
        a[r], a[i] = a[i], a[r]
        piv = a[r][c]
        if piv != 1:
            a[r] = [canon(Fraction(x) / piv) for x in a[r]]
        for i in range(m.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [canon(a[i][j] - f * a[r][j]) for j in range(m.cols)]
        pivots.append(c)
        r += 1
    return a, pivots


def _fraction_kernel(m):
    """Kernel rows built column by column through Fractions from the dense RREF."""
    rr, pivots = _dense_rref(m)
    cols = []
    for f in [c for c in range(m.cols) if c not in pivots]:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for j, pc in enumerate(pivots):
            v[pc] = -Fraction(rr[j][f])
        den = lcm(*(x.denominator for x in v))
        w = [int(x * den) for x in v]
        g = 0
        for x in w:
            g = gcd(g, x)
        cols.append([x // g for x in w])
    return [[col[i] for col in cols] for i in range(m.cols)]


def _typed(rows):
    """Entries with their types, so that 2 and Fraction(2) differ."""
    return [[(type(x), x) for x in row] for row in rows]


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_certified_rank_equals_bareiss_rank(m):
    assert m.rank() == _bareiss_rank(m)


@settings(max_examples=60, deadline=None)
# Small integer matrices too: scaled by their pivots, their rows are updated
# to whole Fractions, which must be stored as ints.  So are the examples: an
# integer matrix of rank 2, and one where every pivot updates every row.
@given(st.one_of(rational_matrices(), matrices(q=None)))
@example(qq([[2, 1, 3, 0], [0, 1, 1, 2], [2, 3, 5, 4]]))
@example(qq([[1, Fraction(1, 2), Fraction(3, 2), 0], [0, 1, 1, 2], [1, 1, Fraction(5, 2), 3]]))
def test_rational_rref_and_kernel_match_dense_reference(m):
    ref_rr, ref_pivots = _dense_rref(m)
    # The routed RREF, and the sparse engine on its own.
    for rr, pivots in (
        ExactMatrix(m.rows, m.cols, row_list(m))._rref(),
        exactalg._echelon_sparse(m._a, None),
    ):
        assert pivots == ref_pivots
        assert _typed(rr) == _typed(ref_rr)
    assert _typed(row_list(m.kernel_basis())) == _typed(_fraction_kernel(m))


@settings(max_examples=40, deadline=None)
@given(rational_matrices())
def test_rational_product_matches_entry_sums(m):
    for a, b in ((m, m.transpose()), (m.transpose(), m)):
        ra, rb = row_list(a), row_list(b)
        ref = [
            [exactalg._canon_rational(sum(ra[i][k] * rb[k][j] for k in range(a.cols)))
             for j in range(b.cols)]
            for i in range(a.rows)
        ]
        assert _typed(row_list(a @ b)) == _typed(ref)


def test_rational_rank_examples():
    P = CERT_PRIME
    h = Fraction(1, 2)
    for rows, r in [
        ([[h, Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]], 2),
        ([[h, Fraction(1, 3)], [3 * h, 1]], 1),
        # Full rank over Q but singular modulo the certifying prime.
        ([[P, 0], [0, 1]], 2),
        ([[Fraction(P, 3), 1], [0, 1]], 2),
        ([[1, 1], [1, 1 + P]], 2),
        ([[P, 2 * P, 0]], 1),
        ([[1, 2], [P + 1, 2 * P + 2]], 1),
    ]:
        m = qq(rows)
        assert m.rank() == r == m.transpose().rank()


big_int = st.integers(min_value=-(2**70), max_value=2**70)


@st.composite
def planted_integer_matrices(draw):
    """Int-only rational matrices L @ R of rank at most k: small L, and R
    with entries up to 2^70, so most entries are beyond 2^63."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=0, max_value=4))
    left = draw(st.lists(st.lists(small_int, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(big_int, min_size=cols, max_size=cols), min_size=k, max_size=k))
    data = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] or [0] * cols for row in left]
    return qq(data)


P63 = CERT_PRIME * 2**64  # beyond 2^63, and 0 modulo the certifying prime


@settings(max_examples=60, deadline=None)
@given(planted_integer_matrices())
@example(qq([[P63, 0], [0, 1]]))
@example(qq([[1, 1], [1, 1 + P63]]))
@example(qq([[P63, 2 * P63, 0], [2**64, 2**65, 1]]))
@example(qq([[2**64 + 1, 3], [2 * (2**64 + 1), 6], [P63, 1]]))
def test_integer_rational_ranks_match_bareiss(m):
    # An int-only matrix is reduced as it is, with no row scan; its rank,
    # certified or by the Bareiss fallback, is the reference's.
    assert exactalg._integer_rows(m._a) is m._a
    assert m.rank() == _bareiss_rank(m) == m.transpose().rank()


def test_integer_rows_scale_only_the_rows_that_hold_a_fraction(monkeypatch):
    lcms = []
    monkeypatch.setattr(exactalg, "lcm", lambda *xs: lcms.append(xs) or lcm(*xs))
    big = 2**70 + 1
    m = qq([[1, big, 3], [Fraction(1, 2), 1, Fraction(1, 3)], [0, 0, 0], [Fraction(-2, 3), 4, 5]])
    before = m._a.copy()
    out = exactalg._integer_rows(m._a)
    assert out.tolist() == [[1, big, 3], [3, 6, 2], [0, 0, 0], [-2, 12, 15]]
    assert all(type(x) is int for x in out.flat)
    assert out[0, 1] is m._a[0, 1] and _same_array(m._a, before)
    # Only the two rows that hold a Fraction take an lcm, of their own
    # denominators.
    assert sorted(lcms) == [(2, 3), (3,)]


@st.composite
def prefix_rank_cases(draw):
    """(matrix, counts): a 0..12 x 0..12 matrix over GF(2), GF(101),
    GF(2^61 - 1) or Q, each row new, a copy of an earlier one or zero, and
    sorted row counts.  Over Q the entries are small ints, Fractions, or
    multiples of ``P63`` beside small ints, whose prefixes can fall short
    of full rank modulo the certifying prime."""
    q = draw(st.sampled_from((2, 101, 2**61 - 1, None)))
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    if q is not None:
        entry = st.integers(0, q - 1)
    else:
        entry = draw(st.sampled_from((
            small_int, rational_entry, st.sampled_from((0, 1, -2, P63, -P63, 2 * P63, P63 + 1))
        )))
    rows = []
    for i in range(m):
        kind = draw(st.sampled_from(("new", "new", "copy", "zero")))
        if kind == "copy" and rows:
            rows.append(rows[draw(st.integers(0, i - 1))])
        elif kind == "zero":
            rows.append([0] * n)
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    counts = sorted(draw(st.lists(st.integers(0, m), max_size=5)))
    return ExactMatrix(m, n, rows, q=q), counts


def _rank_of_first(m, k):
    """The rank of the first k rows of m, by a reference elimination."""
    first = ExactMatrix._wrap(m._a[:k], m.q)
    return _bareiss_rank(first) if m.q is None else len(_whole_row_rref(first)[1])


@settings(max_examples=150, deadline=None)
@given(prefix_rank_cases())
# Full rank over Q, but the first row vanishes modulo the certifying prime.
@example((qq([[P63, 0], [0, 1]]), [1, 2]))
@example((qq([[1, 2, 3], [2, 4, 6], [0, 0, 1]]), [0, 1, 2, 3]))
def test_prefix_ranks_equal_ranks_of_the_first_rows(case):
    m, counts = case
    assert m._prefix_ranks(counts) == [_rank_of_first(m, k) for k in counts]
    assert m._prefix_ranks([m.rows]) == [m.rank()]


def test_full_rank_mod_cert_prime_skips_bareiss(monkeypatch):
    def fail(self, rows):
        raise AssertionError("Bareiss ran on a certified rank")

    monkeypatch.setattr(ExactMatrix, "_rank_bareiss", fail)
    assert qq([[1, Fraction(1, 2), 3], [4, 5, Fraction(-6, 7)]]).rank() == 2
    assert qq([[1, 2], [3, 4], [5, 6]]).rank() == 2
    with pytest.raises(AssertionError, match="Bareiss"):
        qq([[1, 2], [2, 4]]).rank()


# One prime just above the int64-safe bound, one below 2^63, one above it
# (2^80 - 65, the largest prime below 2^80: above 2^63 and below the bound
# where primality stops being proven).  Minors of a 5x5 matrix with entries
# in [-9, 9] are below (9*sqrt(5))^5 < 4e6 in size, far under each prime, so
# the rank mod q must equal the rank over Q.
LARGE_PRIMES = (4294967311, 2**61 - 1, 2**80 - 65)


@settings(max_examples=40, deadline=None)
@given(matrices(q=None))
def test_large_prime_ranks_equal_rational_ranks(m):
    r = m.rank()
    for q in LARGE_PRIMES:
        mq = from_rows(row_list(m), q=q)
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
# dimension 1 takes float64 there and larger ones take Python integers;
# 94906297 is the first prime never on float64; so are 2^31-1 and CERT_PRIME,
# the largest word-size prime, whose residues are int64; 4294967311 and
# 2^61-1 are past word size, with Python integers as residues too.
PRODUCT_PRIMES = (
    2, 101, 94906249, 94906297, 2**31 - 1, CERT_PRIME, 4294967311, 2**61 - 1
)


def test_product_prime_tiers():
    assert (94906249 - 1) ** 2 <= exactalg._FLOAT_EXACT < 2 * (94906249 - 1) ** 2
    assert (94906297 - 1) ** 2 > exactalg._FLOAT_EXACT
    assert is_prime(CERT_PRIME) and not any(
        is_prime(q) for q in range(CERT_PRIME + 1, WORD_MODULUS_MAX + 1)
    )
    assert residue_dtype(2**31 - 1) is residue_dtype(CERT_PRIME) is np.int64


def test_word_size_product_past_float64_on_python_integers():
    # A dense product of entries q-1 at the largest word-size prime: every
    # term is (q-1)^2, near 2^63, and the exact sum is k (q-1)^2.
    q, k = CERT_PRIME, 4096
    a = ExactMatrix._wrap(np.full((1, k), q - 1, dtype=np.int64), q)
    b = ExactMatrix._wrap(np.full((k, 1), q - 1, dtype=np.int64), q)
    out = a @ b
    assert row_list(out) == [[k * (q - 1) ** 2 % q]]
    assert out._a.dtype == np.int64


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
    assert row_list(prod) == [[int(x) for x in row] for row in oracle]


def test_product_past_the_float_bound():
    # 7 * (q-2)^2 is odd and above 2^53, where float64 rounds the sum
    # (to a residue of 29).
    q = 94906249
    a = from_rows([[q - 2] * 7], q=q)
    b = from_rows([[q - 2]] * 7, q=q)
    assert row_list(a @ b) == [[7 * (q - 2) ** 2 % q]] == [[28]]


def test_product_with_empty_inner_dimension():
    for q in PRODUCT_PRIMES:
        prod = zeros(3, 0, q=q) @ zeros(0, 2, q=q)
        assert prod.shape == (3, 2) and prod.is_zero()
        assert prod._a.dtype == residue_dtype(q)
    prod = zeros(3, 0) @ zeros(0, 2)
    assert row_list(prod) == [[0, 0]] * 3


# -- sparse products: the join on both operands' nonzeros ----------------------

# Word-size primes from GF(2) to CERT_PRIME, where a term product of two
# residues comes closest to 2^63; 2^61-1, past word size, with Python
# integers as residues; and the rationals (None).
JOIN_FIELDS = (2, 3, 101, 16777213, 2**31 - 1, CERT_PRIME, 2**61 - 1, None)


@st.composite
def sparse_products(draw):
    """(q, a, b): arrays of m x k and k x n, each 0..24, of dtype
    ``residue_dtype(q)``: reduced residues over GF(q), canonical rationals
    over Q (integers, some past 2^63, or for half the draws also Fractions).
    Each operand is nonzero at a drawn share of its entries (0 to 0.1, or
    0.5 for a dense one), on values that are q - 1 (over Q, +-2^70) half the
    time, and has one row and one column emptied."""
    q = draw(st.sampled_from(JOIN_FIELDS))
    fractions = q is None and draw(st.booleans())
    m, k, n = (draw(st.integers(0, 24)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def value():
        if q is not None:
            return q - 1 if rng.random() < 0.5 else int(rng.integers(1, q))
        x = 2**70 if rng.random() < 0.5 else int(rng.integers(1, 10**6))
        x *= int(rng.choice((-1, 1)))
        return exactalg._canon_rational(Fraction(x, int(rng.integers(1, 7)))) if fractions else x

    def operand(shape):
        share = draw(st.sampled_from((0.0, 0.03, 0.1, 0.5)))
        x = np.zeros(shape, dtype=residue_dtype(q))
        for i, j in zip(*np.nonzero(rng.random(shape) < share)):
            x[i, j] = value()
        if x.size:
            x[draw(st.integers(0, shape[0] - 1))] = 0
            x[:, draw(st.integers(0, shape[1] - 1))] = 0
        return x

    return q, operand((m, k)), operand((k, n))


def _is_sparse(a):
    return np.count_nonzero(a) <= exactalg._SPARSE_DENSITY * a.size


def _record_joins(monkeypatch):
    """Patch the sparse product to log each call."""
    joins, join = [], exactalg._sparse_mulmod
    monkeypatch.setattr(exactalg, "_sparse_mulmod", lambda *args: joins.append(1) or join(*args))
    return joins


@settings(max_examples=400, deadline=None)
@given(sparse_products())
# Two terms of (q - 1)^2 each: near 2^63 unreduced.
@example((CERT_PRIME, np.full((1, 2), CERT_PRIME - 1), np.full((2, 1), CERT_PRIME - 1)))
# Eight terms of q - 1 at 2^61 - 1: their sum is past 2^63, and past q.
@example((2**61 - 1, np.array([[2**61 - 2] * 8], dtype=object), np.ones((8, 1), dtype=object)))
# Fraction terms whose products and sums are integers, and canonical as ints.
@example((None, np.array([[Fraction(1, 2), Fraction(-1, 2)]]), np.array([[2, 0], [2, 4]], dtype=object)))
@example((101, np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64)))
@example((None, np.zeros((3, 0), dtype=object), np.zeros((0, 2), dtype=object)))
@example((2, np.zeros((0, 4), dtype=np.int64), np.eye(4, dtype=np.int64)))
def test_sparse_product_equals_dense_tiers(case):
    q, a, b = case
    want = exactalg._mulmod(a, b, q)
    got = exactalg._sparse_mulmod(a, a.nonzero(), b, b.nonzero(), q)
    assert got.dtype == want.dtype == residue_dtype(q)
    assert np.array_equal(got, want)
    if q is not None:
        assert _typed(got.tolist()) == _typed(want.tolist())
    # The product joins exactly when both operands are sparse, and over Q
    # its entries are canonical, as the constructor makes them.
    with pytest.MonkeyPatch.context() as mp:
        joins = _record_joins(mp)
        prod = ExactMatrix._wrap(a, q) @ ExactMatrix._wrap(b, q)
    assert bool(joins) == (_is_sparse(a) and _is_sparse(b))
    canonical = ExactMatrix(len(a), b.shape[1], want, q=q)
    assert prod._a.dtype == residue_dtype(q)
    assert _typed(row_list(prod)) == _typed(row_list(canonical))


# -- exact integer products (rational matrices with integer entries) -----------


def _object_array(rows, shape):
    return np.array(rows, dtype=object).reshape(shape)


@st.composite
def integer_pairs(draw):
    m, k, n = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    # Magnitudes on both sides of max|A| * max|B| * k <= 2^53 - 1, where a
    # float64 product would stop being exact; products over Q take none.
    bound = draw(st.sampled_from((1, 1000, 2**26, 2**26 + 1, 2**40, 2**70)))
    entry = st.one_of(st.integers(-bound, bound), st.sampled_from((-bound, bound)))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))
    return _object_array(a, (m, k)), _object_array(b, (k, n))


# max|A| = max|B| = 2^26: a sum exact in float64 at k = 1, not at k = 2.
@example((_object_array([[2**26]], (1, 1)), _object_array([[-(2**26)]], (1, 1))))
@example((_object_array([[2**26, 2**26]], (1, 2)), _object_array([[2**26], [2**26]], (2, 1))))
# The bound met with equality: 2^53 - 1 = 6361 * 69431 * 20394401.
@example((_object_array([[6361 * 69431]], (1, 1)), _object_array([[20394401]], (1, 1))))
# 2^52 + (2^26 + 1)^2 is odd and above 2^53, where float64 rounds the sum.
@example(
    (_object_array([[2**26, 2**26 + 1]], (1, 2)), _object_array([[2**26], [2**26 + 1]], (2, 1)))
)
# A zero operand: the other one is too large for float64 at all.
@example((_object_array([[2**1100]], (1, 1)), _object_array([[0]], (1, 1))))
@settings(max_examples=200, deadline=None)
@given(integer_pairs())
def test_integer_product_equals_object_product(case):
    a, b = case
    prod = exactalg._mulmod(a, b, None)
    oracle = [[sum(a[i, t] * b[t, j] for t in range(a.shape[1])) for j in range(b.shape[1])]
              for i in range(a.shape[0])]
    assert prod.shape == (a.shape[0], b.shape[1]) and prod.dtype == object
    assert _typed(prod.tolist()) == _typed(oracle)


@st.composite
def mixed_rational_pairs(draw):
    m, k, n = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    big = st.integers(-(2**40), 2**40)
    ints = st.one_of(small_int, big)
    a = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=m, max_size=m))
    b = draw(st.lists(st.lists(rational_entry, min_size=n, max_size=n), min_size=k, max_size=k))
    left, right = ExactMatrix(m, k, a), ExactMatrix(k, n, b)
    return (left, right) if draw(st.booleans()) else (right.transpose(), left.transpose())


@settings(max_examples=100, deadline=None)
@given(mixed_rational_pairs())
def test_rational_products_are_canonical_on_both_paths(case):
    # An operand with a Fraction takes the constructor's canonicalisation;
    # integer operands take the integer product.  Both give canonical
    # entries equal to a Fraction product.
    a, b = case
    ra, rb = row_list(a), row_list(b)
    ref = [
        [sum((Fraction(ra[i][t]) * Fraction(rb[t][j]) for t in range(a.cols)), Fraction(0))
         for j in range(b.cols)]
        for i in range(a.rows)
    ]
    canon = [[x.numerator if x.denominator == 1 else x for x in row] for row in ref]
    assert _typed(row_list(a @ b)) == _typed(canon)
    ints = ExactMatrix(a.rows, a.cols, [[int(x) for x in row] for row in ra])
    assert _typed(row_list(ints @ ints.transpose())) == _typed(
        [[sum(int(x) * int(y) for x, y in zip(r, s)) for s in ra] for r in ra]
    )


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
    mq = from_rows(row_list(m), q=q)
    rr, pivots = mq._rref()
    ref_rr, ref_pivots = _whole_row_rref(mq)
    assert pivots == ref_pivots
    assert np.array_equal(rr, ref_rr)
    ker = mq.kernel_basis()
    assert ker._a.dtype == residue_dtype(q)
    assert np.array_equal(ker._a, _loop_kernel(mq))


@settings(max_examples=40, deadline=None)
@given(matrices(q=None), st.sampled_from((101, 2**61 - 1, None)))
def test_rank_same_before_and_after_rref(m, q):
    fresh = from_rows(row_list(m), q=q)
    reduced = from_rows(row_list(m), q=q)
    reduced._rref()
    r = fresh.rank()
    assert reduced.rank() == r == fresh.rank()
    assert fresh._rref() is not None and fresh.rank() == r


def test_bareiss_updates_rows_with_zero_pivot_entry():
    # Row 2 has a zero in the first pivot column; skipping its update
    # desynchronizes the exact division and once underreported this rank.
    m = qq([[3, 3, -2], [0, -2, -1], [-2, 0, 2]])
    assert m.rank() == 3
    assert m._rank_bareiss(exactalg._integer_rows(m._a).tolist()) == 3
    assert m.kernel_basis().shape == (3, 0)


# -- sparse and dense elimination paths ----------------------------------------

# 2 and 101; 2^31-1 and the largest word-size prime, whose residues
# multiply to near 2^63 in int64; and 2^61-1, in object dtype.
ELIM_PRIMES = (2, 101, 2**31 - 1, CERT_PRIME, 2**61 - 1)


@st.composite
def residue_arrays(draw):
    """A reduced residue array of 0..12 x 0..12, from all-zero to full, with
    entries near q-1 among them."""
    q = draw(st.sampled_from(ELIM_PRIMES))
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    a = np.zeros((m, n), dtype=residue_dtype(q))
    if m and n:
        entry = st.one_of(st.integers(1, q - 1), st.integers(max(1, q - 3), q - 1))
        cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(cell, max_size=m * n)):
            a[i, j] = draw(entry)
    return q, a


def _same_array(x, ref):
    return x.dtype == ref.dtype and x.shape == ref.shape and x.tolist() == ref.tolist()


@settings(max_examples=200, deadline=None)
@given(residue_arrays())
def test_elimination_paths_match_per_pivot_reference(case):
    q, a = case
    m = ExactMatrix._wrap(a, q)
    ref_rr, ref_pivots = _whole_row_rref(m)
    # The routed RREF, and the sparse engine on its own.
    for rr, pivots in (m._rref_mod(), exactalg._echelon_sparse(a, q)):
        assert pivots == ref_pivots
        assert _same_array(rr, ref_rr)
    # Forward-only elimination finds the same pivots: the routed rank
    # elimination, and panels of 1, 2, 3 and 32 columns and one panel as
    # wide as the matrix.
    widths = (1, 2, 3, 32, max(1, a.shape[1]))
    for pivots in (m._rref_mod(full=False), *(exactalg._echelon_dense(a, q, b) for b in widths)):
        assert pivots == ref_pivots
    assert ExactMatrix._wrap(a, q).rank() == len(ref_pivots)


def test_rank_takes_forward_elimination(monkeypatch):
    calls = []
    rref_mod = ExactMatrix._rref_mod
    monkeypatch.setattr(
        ExactMatrix, "_rref_mod", lambda self, **kw: calls.append(kw) or rref_mod(self, **kw)
    )
    m = gf([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert m.rank() == 2
    assert qq([[1, Fraction(1, 2)], [3, 4]]).rank() == 2
    assert calls == [{"full": False}, {"full": False}]


def test_fill_heavy_matrix_matches_reference():
    # A random 60x60 matrix at exactly 10% density over GF(101): its rank is
    # peeled first, and its RREF fills in on sparse rows.
    q, rng = 101, np.random.default_rng(0)
    a = np.zeros(3600, dtype=np.int64)
    a[rng.choice(3600, size=360, replace=False)] = rng.integers(1, q, size=360)
    a = a.reshape(60, 60)
    nnz = np.count_nonzero(a)
    assert nnz <= exactalg._SPARSE_DENSITY * a.size
    m = ExactMatrix._wrap(a, q)
    rr, pivots = m._rref_mod()
    ref_rr, ref_pivots = _whole_row_rref(m)
    assert pivots == ref_pivots and _same_array(rr, ref_rr)
    assert m.rank() == len(ref_pivots)


# -- ranks by peeling -------------------------------------------------------------

peel_value = st.sampled_from((1, -1, 2, 3, -7, 100, CERT_PRIME, 2 * CERT_PRIME, 2**64 + 1))


@st.composite
def peel_cases(draw):
    """(rows, cols, [(i, j, value, denominator)]): a matrix with at most
    ``_SPARSE_DENSITY`` nonzeros, so ``rank`` peels it, with planted lines
    numbered as they are planted and then permuted:

    * a dense core, rank deficient when its last row repeats its first;
    * a row hit by several singleton columns, and a column hit by several
      singleton rows;
    * a staircase, each row on two adjacent columns, that peels over
      several steps;
    * a few random entries anywhere, then zero rows and columns until the
      density bound holds (no entries and no padding is an empty shape).
    """
    cells = {}
    k, l = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    core = [[draw(peel_value) for _ in range(l)] for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        core[-1] = core[0]
    cells.update(((i, j), v) for i, row in enumerate(core) for j, v in enumerate(row))
    r, c = k, l
    s = draw(st.integers(0, 3))
    cells.update(((r, c + t), draw(peel_value)) for t in range(s))
    r, c = r + (s > 0), c + s
    s = draw(st.integers(0, 3))
    cells.update(((r + t, c), draw(peel_value)) for t in range(s))
    r, c = r + s, c + (s > 0)
    s = draw(st.integers(0, 5))
    for t in range(s):
        cells[r + t, c + t] = draw(peel_value)
        cells[r + t, c + t + 1] = draw(peel_value)
    r, c = r + s, c + s + (s > 0)
    m, n = r + draw(st.integers(0, 6)), c + draw(st.integers(0, 6))
    if m and n:
        for _ in range(draw(st.integers(0, 4))):
            cells[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))] = draw(peel_value)
    while len(cells) > exactalg._SPARSE_DENSITY * m * n:
        m, n = (m + 1, n) if m <= n else (m, n + 1)
    pr, pc = draw(st.permutations(range(m))), draw(st.permutations(range(n)))
    den = st.sampled_from((1, 1, 2, 3))
    return m, n, [(pr[i], pc[j], v, draw(den)) for (i, j), v in sorted(cells.items())]


def _peel_matrix(case, q):
    """The case over GF(q) (each value reduced, 1 where it vanishes, so the
    planted pattern holds) or over Q (each value over its denominator)."""
    m, n, entries = case
    a = np.zeros((m, n), dtype=object)
    for i, j, v, den in entries:
        a[i, j] = Fraction(v, den) if q is None else v % q or 1
    return ExactMatrix(m, n, a, q=q)


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1, 2**61 - 1, None])
@settings(max_examples=80, deadline=None)
@given(peel_cases())
# Two singleton columns on one row: rank 1, counted once.
@example((3, 10, [(0, 0, 1, 1), (0, 1, 1, 1)]))
# A 2x2 core of rank 1 that no singleton reaches.
@example((5, 10, [(0, 0, 1, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)]))
# A core of full rank over Q that vanishes modulo the certifying prime.
@example((5, 10, [(0, 0, CERT_PRIME, 1), (0, 1, CERT_PRIME, 1), (1, 0, CERT_PRIME, 1),
                  (1, 1, 2 * CERT_PRIME, 1)]))
# A staircase next to a 2x2 core.
@example((6, 14, [(0, 0, 1, 1), (0, 1, 2, 1), (1, 1, 3, 1), (1, 2, 1, 1), (2, 3, 1, 1),
                  (2, 4, 1, 1), (3, 3, 1, 1), (3, 4, -1, 1)]))
# A square matrix whose core is left after an odd number of steps.
@example((8, 8, [(0, 0, 1, 1), (0, 2, 1, 1), (1, 0, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (2, 3, 1, 1)]))
@example((0, 4, []))
@example((3, 0, []))
def test_peeled_rank_equals_whole_matrix_elimination(q, case):
    m = _peel_matrix(case, q)
    assert np.count_nonzero(m._a) <= exactalg._SPARSE_DENSITY * m._a.size
    if q is None:
        want = _bareiss_rank(m)
    else:
        want = len(exactalg._echelon_dense(m._a, q, max(1, m.cols)))
    assert m.rank() == want


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1, 2**61 - 1, CERT_PRIME])
def test_modular_inverse_equals_fermat(q):
    # Eliminations and point normalisation invert by pow(x, -1, q).
    xs = {1, 2 % q or 1, q - 1, (q + 1) // 2, q // 3 or 1, 12345 % q or 1}
    for x in xs:
        assert pow(x, -1, q) == pow(x, q - 2, q)
        assert x * pow(x, -1, q) % q == 1


def _record_paths(monkeypatch):
    """Patch both eliminations to log their path: "sparse", or the dense
    panel width."""
    taken = []
    sparse, dense = exactalg._echelon_sparse, exactalg._echelon_dense

    def count_sparse(a, q):
        taken.append("sparse")
        return sparse(a, q)

    def count_dense(a, q, b):
        taken.append(b)
        return dense(a, q, b)

    monkeypatch.setattr(exactalg, "_echelon_sparse", count_sparse)
    monkeypatch.setattr(exactalg, "_echelon_dense", count_dense)
    return taken


def test_display_maps_take_the_sparse_path_and_evaluations_the_dense(monkeypatch):
    from twistforms.maxrank import eval_matrix, random_points

    taken = _record_paths(monkeypatch)
    contraction = contraction_matrix(4, 2, 5, q=101)
    ev = eval_matrix(3, 0, 4, random_points(3, 35, q=101, seed=1))
    taken.clear()
    contraction.kernel_basis()
    assert taken == ["sparse"]
    taken.clear()
    assert ev.rank() == ev.cols
    # Every rank passes the panel width; with 35 <= 2 * _PANEL columns
    # this one is eliminated forward in one panel.
    assert taken == [32]
    # A sparse rank eliminates only what the peel leaves: nothing for the
    # sparse maps of a display, and for this contraction a 265 x 310 core,
    # by panels.
    from twistforms.display import build_display

    maps = build_display(4, 1, 0, 101).maps
    sparse = [f for f in maps.values() if _is_sparse(f._a)]
    assert len(sparse) >= 4
    taken.clear()
    for f in sparse:
        f.rank()
    assert contraction_matrix(4, 2, 5, q=101).rank() == 224
    assert taken == [32]
    # Products of display maps join their nonzeros on every field; a
    # product with a dense evaluation matrix takes the dense tiers.
    joins = _record_joins(monkeypatch)
    for q in (2, 101, 2**61 - 1, None):
        maps = build_display(4, 1, 1, q).maps
        squares = (
            (maps["free_incl"], maps["left_top"]),
            (maps["wedge"], maps["left_bottom"]),
            (maps["to_hyperplane"], maps["free_incl"]),
            (maps["drop"], maps["to_hyperplane"]),
        )
        for f, g in squares:
            joins.clear()
            assert f @ g == ExactMatrix._wrap(exactalg._mulmod(f._a, g._a, q), q)
            assert joins == [1], q
    joins.clear()
    square = ExactMatrix._wrap(ev._a[: ev.cols], 101)
    assert not _is_sparse(square._a)
    assert square @ square == ExactMatrix._wrap(exactalg._mulmod(square._a, square._a, 101), 101)
    assert joins == []


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1, 2**61 - 1, None])
def test_display_maps_hand_over_their_patterns(q):
    from twistforms.display import build_display

    for n in range(1, 6):
        for p in range(n):
            for t in range(-2, 3):
                for name, f in build_display(n, p, t, q).maps.items():
                    # Read before any product or rank, as the map was built.
                    handed = f._nz
                    where = "%s of (%d, %d, %d)" % (name, n, p, t)
                    if _is_sparse(f._a):
                        assert all(map(np.array_equal, handed, f._a.nonzero())), where
                        assert all(x.dtype == np.int64 for x in handed), where
                    else:
                        assert handed == (), where
                    want = ExactMatrix._wrap(f._a, q)._prefix_ranks([f.rows])[0]
                    assert f.rank() == want, where


# -- blocked rank elimination ---------------------------------------------------


@st.composite
def planted_arrays(draw):
    """A reduced residue array of 0..40 x 0..40 whose rank is planted: the
    product of an m x r and an r x n factor, with entries 0, q-1 or random,
    then some columns zeroed (possibly a whole panel) or copied from others."""
    q = draw(st.sampled_from((101, 16777213) + ELIM_PRIMES))
    # Half the arrays fill a 32-column panel with pivots.
    lo = 32 if draw(st.booleans()) else 0
    m, n = draw(st.integers(lo, 40)), draw(st.integers(lo, 40))
    r = draw(st.one_of(st.just(min(m, n)), st.integers(0, min(m, n))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = residue_dtype(q)

    def factor(shape):
        pick = rng.integers(0, 3, shape)
        x = np.array((rng.random(shape) * q).astype(np.int64).tolist(), dtype=dt)
        x = x.reshape(shape)
        x[pick == 0] = 0
        x[pick == 1] = q - 1
        return x % q

    a = exactalg._mulmod(factor((m, r)), factor((r, n)), q)
    if n and draw(st.booleans()):
        start = draw(st.integers(0, n - 1))
        a[:, start : start + draw(st.integers(0, 34))] = 0
        column = st.integers(0, n - 1)
        for dst, src in draw(st.lists(st.tuples(column, column), max_size=4)):
            a[:, dst] = a[:, src]
    return q, a


def _dense_example(q):
    """A 40 x 40 array, about half of it q - 1 and the rest random: at 40
    pivots it fills a 32-column panel, with large multipliers throughout."""
    rng = np.random.default_rng(q % 1000)
    a = (rng.random((40, 40)) * q).astype(np.int64)
    a[rng.random((40, 40)) < 0.5] = q - 1
    return q, a


def _deficient_example(q):
    """A 160 x 180 array, about half of it q - 1 and the rest random, of rank
    at most 120: 40 of its columns copy others, and 40 of its rows."""
    rng = np.random.default_rng(q % 1000)
    a = (rng.random((160, 180)) * q).astype(np.int64)
    a[rng.random((160, 180)) < 0.5] = q - 1
    a[:, 100:140] = a[:, :40]
    a[120:] = a[:40]
    return q, a


def _window_miss_example(q):
    """A 160 x 48 array whose columns vanish on the first 2 * _PANEL rows
    and on every third row, random below: the rows of its transpose vanish
    on the first window of a panel, whether that is its first 2 * _PANEL
    columns or every third (s = ceil(160 / 64) = 3), so they are eliminated
    on later windows."""
    rng = np.random.default_rng(q)
    a = rng.integers(0, q, (160, 48))
    a[: 2 * exactalg._PANEL] = 0
    a[::3] = 0
    return q, a


def _zero_panel_example():
    """A 70 x 100 array whose columns 0..31 and 64..95 are zero: the first
    panel of its transpose (rows 0..31) is zero, and so are rows 64..95,
    which the forward elimination after the second panel meets."""
    rng = np.random.default_rng(7)
    a = rng.integers(0, 101, (70, 100))
    a[:, :32] = a[:, 64:96] = 0
    return 101, a


@settings(max_examples=200, deadline=None)
@given(planted_arrays(), st.sampled_from((32, 1, 2, 3, None)))
@example(_dense_example(101), 32)
@example(_deficient_example(16777213), 32)
@example(_window_miss_example(2), 32)
@example(_window_miss_example(3), 32)
@example(_window_miss_example(3), 3)
@example(_zero_panel_example(), 32)
@example(_dense_example(16777213), 32)
@example(_dense_example(2**31 - 1), 32)
@example(_dense_example(CERT_PRIME), 32)
@example(_dense_example(CERT_PRIME), None)
def test_blocked_elimination_matches_per_pivot_reference(case, b):
    q, a = case
    b = b or max(1, a.shape[1])  # None: one panel, the per-pivot loop
    before = a.copy()
    assert exactalg._echelon_dense(a, q, b) == _whole_row_rref(ExactMatrix._wrap(a, q))[1]
    # The elimination works on copies of its panels.
    assert _same_array(a, before)


def test_large_dense_ranks_take_the_blocked_path(monkeypatch):
    from twistforms.maxrank import eval_matrix, random_points

    taken = _record_paths(monkeypatch)
    # The panels each rank eliminates (their rows of the transpose), and the
    # window transforms applied to them.
    panels, transforms = [], []
    panel_pivots, mulmod = exactalg._panel_pivots, exactalg._mulmod

    def counted_panel(p, q):
        panels.append(len(p))
        return panel_pivots(p, q)

    def counted_mulmod(a, b, q):
        transforms.append(len(a))
        return mulmod(a, b, q)

    monkeypatch.setattr(exactalg, "_panel_pivots", counted_panel)
    monkeypatch.setattr(exactalg, "_mulmod", counted_mulmod)

    def path(m):
        taken.clear()
        panels.clear()
        transforms.clear()
        m.rank()
        return taken, len(panels)

    rng = np.random.default_rng(3)

    def rank_one(rows, cols, q):
        u = rng.integers(1, min(q, 2**62), rows).tolist()
        v = rng.integers(1, min(q, 2**62), cols).tolist()
        return from_rows([[x * y for y in v] for x in u], q=q)

    ev = eval_matrix(3, 0, 7, random_points(3, 105, q=101, seed=1))
    assert ev.shape == (315, 315) and path(ev) == ([32], 8) and set(panels) == {32}
    assert path(rank_one(128, 200, 101)) == ([32], 3)
    # Small matrices take panels too on the float64 tier, and so does a
    # sparse matrix's peeled core.
    assert path(rank_one(127, 200, 101)) == ([32], 3)
    assert path(ExactMatrix._wrap(rng.integers(0, 101, (90, 84)), 101)) == ([32], 1)
    assert path(contraction_matrix(4, 2, 5, q=101)) == ([32], 8)
    # At q = 101 a rank-one matrix applies one window transform, in its first
    # panel.  Past the float64 tier the panel width is passed, and
    # _echelon_dense spans the matrix with one panel, eliminated forward:
    # no panel is Gauss-Jordan reduced and no transform is applied.
    assert path(rank_one(128, 128, 101)) == ([32], 3) and transforms == [32]
    assert path(rank_one(128, 128, 2**31 - 1)) == ([32], 0) and transforms == []
    assert path(rank_one(128, 128, 2**61 - 1)) == ([32], 0) and transforms == []
    # A transpose with at most 2 * _PANEL positions (columns) is one panel
    # too, on any field: a window would span it.
    assert path(ExactMatrix._wrap(rng.integers(0, 101, (200, 64)), 101)) == ([32], 0)
    assert path(ExactMatrix._wrap(rng.integers(0, 101, (64, 200)), 101)) == ([32], 1)
    # A full RREF, dense or not, takes the sparse engine, to the same RREF.
    taken.clear()
    m = ExactMatrix._wrap(ev._a[:12, :15].copy(), 101)
    rr, pivots = m._rref()
    assert taken == ["sparse"]
    ref_rr, ref_pivots = _whole_row_rref(m)
    assert pivots == ref_pivots and _same_array(rr, ref_rr)


def _assert_canonical_storage(m):
    """A rational matrix is stored as a read-only 2-D object array of ints
    and Fractions whose denominator is not 1."""
    a = m._a
    assert isinstance(a, np.ndarray) and a.dtype == object and a.shape == m.shape
    assert not a.flags.writeable
    for x in a.ravel():
        assert type(x) is int or (type(x) is Fraction and x.denominator != 1), x


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_canonical_wraps_equal_constructed_matrices(m):
    from twistforms.maxrank import eval_matrix, random_points

    rows = row_list(m)
    gram = m @ m.transpose()
    sol = m.solve(gram)  # consistent: m.transpose() is one solution
    ker = m.kernel_basis()
    ev = eval_matrix(2, 0, 2, random_points(2, 3, q=None, seed=len(rows)))
    for x, ref in (
        (m.transpose(), ExactMatrix(m.cols, m.rows, [[r[j] for r in rows] for j in range(m.cols)])),
        (m.augment(m), ExactMatrix(m.rows, 2 * m.cols, [r + r for r in rows])),
        (gram, from_rows([[sum(map(mul, r, v)) for v in rows] for r in rows])),
        (sol, ExactMatrix(sol.rows, sol.cols, row_list(sol))),
        (ker, ExactMatrix(ker.rows, ker.cols, row_list(ker))),
        (zeros(m.rows, m.cols), ExactMatrix(m.rows, m.cols, [[0] * m.cols] * m.rows)),
        (ExactMatrix.identity(m.rows), from_rows(np.eye(m.rows, dtype=int).tolist())),
        (ev, ExactMatrix(ev.rows, ev.cols, row_list(ev))),
    ):
        _assert_canonical_storage(x)
        _assert_canonical_storage(ref)
        assert x == ref and x.shape == ref.shape
        assert _typed(row_list(x)) == _typed(row_list(ref))
    assert m @ sol == gram
    for n, p, d in ((1, 1, 2), (2, 1, 3), (3, 2, 2), (2, 3, 3)):
        c = contraction_matrix(n, p, d, q=None)
        ref = ExactMatrix(c.rows, c.cols, row_list(c))
        _assert_canonical_storage(c)
        assert c == ref and c.shape == ref.shape


def test_elimination_deterministic():
    data = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    a = gf(data)
    b = gf(data)
    assert a.kernel_basis() == b.kernel_basis()
    assert a.rank() == b.rank()


# -- snake lemma ------------------------------------------------------------


def rows_k_k2_k(q=None):
    i = from_rows([[1], [0]], q=q)
    p = from_rows([[0, 1]], q=q)
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
    f1 = zeros(1, 1)
    f2 = from_rows([[0, 0], [0, 1]])
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
    # The six-term sequence is exact, so its alternating sum vanishes.
    k1, k2, k3 = ledger.ker1, ledger.ker2, ledger.ker3
    assert k1 - k2 + k3 - ledger.coker1 + ledger.coker2 - ledger.coker3 == 0


def test_snake_rejects_noncommuting_square():
    i, p = rows_k_k2_k()
    f1 = zeros(1, 1)
    f2 = ExactMatrix.identity(2)
    f3 = ExactMatrix.identity(1)
    with pytest.raises(ValueError, match="left square"):
        snake_check(i, p, i, p, f1, f2, f3)


def test_snake_rejects_non_exact_row():
    i = from_rows([[1], [0]])
    not_surjective = zeros(1, 2)
    one = ExactMatrix.identity(1)
    two = ExactMatrix.identity(2)
    with pytest.raises(ValueError, match="quotient not surjective"):
        snake_check(i, not_surjective, i, not_surjective, one, two, one)

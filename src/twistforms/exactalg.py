"""Exact dense linear algebra over prime fields GF(q) and the rationals.

Matrices are immutable after construction, and each is one numpy array:
over GF(q) of reduced residues, int64 up to ``WORD_MODULUS_MAX`` and Python
integers (object dtype) above it; over Q of canonical entries (ints, and
Fractions whose denominator is not 1; object dtype).  Pivot columns are always
taken left to right and every elimination result is deterministic across
platforms and thread schedules.

A matrix finds its nonzero pattern (the rows and columns of its nonzero
entries, row-major) at most once, and only when it is sparse, with at most
``_SPARSE_DENSITY`` nonzeros: one count decides, a sparse matrix is then
scanned once and a dense one is marked dense, and either is kept.  A map
built from its nonzeros, as the display maps of ``forms`` are, is handed
its pattern and never scanned.

A word-size GF(q) product of two sparse matrices, m x k by k x n, is a
join on their patterns when (q - 1) * k <= 2^53 - 1, a row-by-row product
as in Gustavson ("Two fast algorithms for sparse matrices", ACM TOMS
1978): each nonzero a[i, j] meets the nonzeros of row j of b, each term
product is reduced mod q (below 2^63, since q <= ``WORD_MODULUS_MAX``), and
one float64 ``np.bincount`` sums the terms of each entry.  An entry sums at
most k terms below q, so the sums are exact, and one integer remainder
reduces them.  The work is the number of terms, not m * k * n.

Every other product over GF(q) takes one of three tiers, each exact:

* float64 BLAS, when (q - 1)^2 * k <= 2^53 - 1: every partial sum is then
  an integer that float64 holds exactly (Dumas, Giorgi and Pernet, "Dense
  linear algebra over word-size prime fields: the FFLAS and FFPACK
  packages", ACM TOMS 2008), so the product is cast to int64 exactly and
  one integer remainder reduces it.  At q = 101 this holds up to k = 9.0e11.
* float64 BLAS on 16-bit limbs, when q <= ``WORD_MODULUS_MAX`` and
  k <= 2^20: each residue is split as hi * 2^16 + lo, so hi < 46341 and
  lo < 2^16, and the hi*hi, hi*lo + lo*hi and lo*lo products keep every
  partial sum below 2^53; the three are reduced and recombined in int64.
* Python integers (object dtype) otherwise.

Eliminations have two engines, one job each:

* The RREF (for kernels and solves, over either field: ``_rref_mod`` and
  ``_rref_rational``) is Gauss-Jordan on Python dict rows, with a column
  -> rows index and the sparsest candidate row as pivot (sparse
  elimination over finite fields as in LaMacchia and Odlyzko, CRYPTO
  1990); each new entry is reduced mod q or, over Q, made canonical.  Its
  inputs are sparse display maps and small matrices, on which it is as
  fast as the dense engine or faster; a large dense RREF would be slow,
  and none is taken.
* A rank over GF(q) (``_rref_mod(full=False)``) needs only the pivot
  columns, and gets nothing else: it eliminates below each pivot and
  never above it, as numpy arrays, by right-looking blocked elimination
  (as in FFLAS-FFPACK, Dumas, Giorgi and Pernet 2008; Jeannerod, Pernet
  and Storjohann, J. Symbolic Comput. 2013), and writes no echelon form.
  Each panel of columns is copied out, reduced, and eliminated one pivot
  at a time on that copy, and the rows below are updated by one product
  per panel, the Schur complement A22 - L21 U12 with U12 = L11^-1 A12.
  That product is taken in float64, cast to int64 and never reduced:
  both factors are reduced residues, so it is exact when (q - 1)^2 * b <=
  2^53 - 1 for a panel width b, and each pivot moves an entry by at most
  (q - 1)^2, so the trailing entries stay in int64 while min(rows, cols) *
  (q - 1)^2 < 2^62 (delayed reduction as in FFLAS-FFPACK, carried across
  panels; each panel is reduced when it is copied out).
  ``_echelon_dense`` takes panels only under both bounds.  Panels are
  ``_PANEL`` (32) columns wide when the smaller side is at least
  ``_BLOCKED_MIN`` (128) and q is on the float64 product tier for an inner
  dimension of 32 (q <= 16777213); otherwise one panel spans the matrix,
  which is the per-pivot loop.  On a 2-core x86_64 VM (Python 3.11, numpy
  2.4, OpenBLAS, one BLAS thread) the two widths tie on random half-dense
  square matrices over GF(101) up to about 128; on a 315 x 315 point
  evaluation panels take the rank in about 12 ms against 28 ms (medians
  of 15 interleaved runs).

The RREF and its pivot columns are unique, so kernels and solutions do not
depend on the order in which the sparse engine picks its pivot rows, and
both engines find the same pivot columns.

A rank of a sparse matrix (at most ``_SPARSE_DENSITY`` nonzeros, over
either field) is peeled on its kept pattern before any elimination, by
the first step of structured Gaussian elimination (LaMacchia and Odlyzko
1990): every column with one nonzero adds 1 to the rank and deletes that
nonzero's row, every row with one nonzero does the same for its column,
and the two steps repeat until neither deletes anything.  Only the core that is left is
eliminated, by the dense engine; no sparse rank of the display up to
n = 5 leaves one.

A rational product of two matrices with only integer entries, such as
section bases, display maps and point evaluations, is an exact integer
product: through float64 BLAS, cast back to integers with no reduction,
when max|A| * max|B| * k <= 2^53 - 1 (the argument of the first tier above,
with no modulus), and as one object-dtype numpy product otherwise.  A
product with a Fraction entry is one object-dtype product whose entries are
then canonicalised.

The rank of a rational matrix is certified modulo the word prime
``_CERT_PRIME``: clearing the denominators of each row gives an integer
matrix of the same rank (a matrix of ints, as section bases, display maps
and point evaluations are, is one already, and is reduced by one numpy
remainder, with no lcm per row), and a minor that is nonzero modulo a
prime is nonzero over Z, so a rank modulo that prime equal to
min(rows, cols) is the rank over Q.  Only when it falls short does
fraction-free (Bareiss 1968) elimination decide the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

__all__ = [
    "WORD_MODULUS_MAX",
    "ExactMatrix",
    "SnakeLedger",
    "is_prime",
    "residue_dtype",
    "snake_check",
]

#: Largest modulus whose residues multiply without overflow in int64: for
#: q <= WORD_MODULUS_MAX every product of two residues is below 2^63.
WORD_MODULUS_MAX = isqrt(2**63 - 1)

#: The prime that certifies rational ranks: the largest prime up to
#: ``WORD_MODULUS_MAX``, so its eliminations run in int64.
_CERT_PRIME = 3037000493

#: The first 13 primes: as Miller-Rabin bases they decide primality of
#: every q < _MR_BOUND (OEIS A014233).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: 1287836182261 * 2575672364521, the least strong pseudoprime to every base
#: in _MR_BASES: from here on a True from is_prime is not a proof.
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def is_prime(q: int) -> bool:
    """Miller-Rabin to the bases 2..41: a proof for every q < _MR_BOUND
    (about 3.3e24), and only a probable-prime test from the bound on, which
    _MR_BOUND itself passes.  _check_modulus refuses those moduli.
    Memoized: a run checks the same few moduli many times."""
    if q < 2:
        return False
    for sp in _MR_BASES:
        if q % sp == 0:
            return q == sp
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _check_modulus(q) -> None:
    """Raise ValueError unless q is None (the rationals) or a proven prime,
    one below _MR_BOUND: from the bound on is_prime proves nothing, so q is
    refused there with its own message.  Each public entry point that takes
    q checks it once; the private paths it calls take q as checked."""
    if q is None:
        return
    if q >= _MR_BOUND:
        raise ValueError(
            "modulus %d is not proven prime: primality is proven only below %d" % (q, _MR_BOUND)
        )
    if not is_prime(q):
        raise ValueError("modulus %r is not prime" % (q,))


def _exact_entries(entries, q: int | None) -> list:
    """``entries`` as Python ints and, over Q, Fractions; ValueError at the
    first that is not a Python or numpy integer or, over Q, a Fraction:
    only those are exact (a float, a string or a complex number is not)."""
    exact = (int, np.integer) if q else (int, np.integer, Fraction)
    out = []
    for x in entries:
        if not isinstance(x, exact):
            kinds = "GF(%d) must be integers" % q if q else "Q must be integers or Fractions"
            raise ValueError("entries over %s, got %r" % (kinds, x))
        out.append(x if isinstance(x, Fraction) else int(x))
    return out


def residue_dtype(q: int | None):
    """numpy dtype that holds residues mod q and their pairwise products
    exactly; object (Python ints and Fractions) for the rationals, q None."""
    return np.int64 if q is not None and q <= WORD_MODULUS_MAX else object


#: Every integer up to this bound is exact in float64.
_FLOAT_EXACT = 2**53 - 1

#: Largest inner dimension of the limb tier: k * 2 * 46340 * (2^16 - 1),
#: the largest partial sum of the hi*lo + lo*hi product, stays below 2^53.
_LIMB_INNER_MAX = 2**20


def _canon_rational(x) -> Fraction | int:
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _reduce(x, q: int):
    """x %= q, in place, for an integer array: numpy's floor division by a
    scalar divides by a precomputed reciprocal, and is several times faster
    than its remainder."""
    t = x // q
    t *= q
    x -= t


def _float_mod(x, q: int):
    """x mod q, as int64, of a float64 array of nonnegative integers below
    2^53: the cast is exact, and ``_reduce`` is much cheaper than fmod."""
    out = x.astype(np.int64)
    _reduce(out, q)
    return out


def _max_abs(a) -> int:
    return max(map(abs, a.flat), default=0)


def _mulmod(a, b, q: int | None):
    """(a @ b) mod q of two reduced residue arrays, as a reduced array of
    dtype ``residue_dtype(q)``; with q None, the exact product of two object
    arrays of Python ints, as one.  The tier is chosen as in the module
    docstring.  ``ExactMatrix.__matmul__`` joins two sparse word-size
    operands by ``_sparse_mulmod`` instead, and calls this for the rest."""
    (m, k), n = a.shape, b.shape[1]
    if k == 0:
        return np.zeros((m, n), dtype=residue_dtype(q))
    if q is None:
        # A zero operand counts as 1, so the other one also converts exactly.
        if max(_max_abs(a), 1) * max(_max_abs(b), 1) * k <= _FLOAT_EXACT:
            prod = a.astype(np.float64) @ b.astype(np.float64)
            return prod.astype(np.int64).astype(object)
        return a @ b
    if (q - 1) ** 2 * k <= _FLOAT_EXACT:
        return _float_mod(a.astype(np.float64) @ b.astype(np.float64), q)
    if q <= WORD_MODULUS_MAX and k <= _LIMB_INNER_MAX:
        ahi, alo = (a >> 16).astype(np.float64), (a & 0xFFFF).astype(np.float64)
        bhi, blo = (b >> 16).astype(np.float64), (b & 0xFFFF).astype(np.float64)
        mid = ahi @ blo
        mid += alo @ bhi
        # (q - 1) * (2^32 mod q) <= 2^62 for every word-size q, and the
        # other two terms are below 2^48 and 2^32, so the sum fits int64.
        out = _float_mod(ahi @ bhi, q) * ((1 << 32) % q)
        out += _float_mod(mid, q) << 16
        out += _float_mod(alo @ blo, q)
        _reduce(out, q)
        return out
    prod = (a.astype(object) @ b.astype(object)) % q
    return prod.astype(residue_dtype(q))


def _sparse_mulmod(a, a_nz, b, b_nz, q: int):
    """(a @ b) mod q, as int64, of two reduced residue arrays for a
    word-size q, from their nonzero patterns (``ExactMatrix._pattern``),
    when (q - 1) * k <= 2^53 - 1 for the inner dimension k.

    A row-by-row product (Gustavson, ACM TOMS 1978) as one join: each
    nonzero a[i, j] meets the nonzeros of row j of b, each term product is
    reduced mod q (below 2^63, as q <= ``WORD_MODULUS_MAX``), and the terms
    are summed per output entry by one float64 ``np.bincount``.  An entry
    sums at most k reduced terms, so every partial sum is an integer below
    2^53 and exact, and one integer remainder reduces the sums.
    """
    (m, k), n = a.shape, b.shape[1]
    (ai, aj), (bi, bj) = a_nz, b_nz
    # Row j of b is its nonzeros start[j] .. start[j] + length[j] - 1.
    length = np.bincount(bi, minlength=k)
    start = np.cumsum(length) - length
    # Term t pairs a's nonzero s = src[t] with b's nonzero at[t], the
    # (t - first[s])-th of row aj[s].
    count = length[aj]
    first = np.cumsum(count) - count
    src = np.repeat(np.arange(ai.size), count)
    at = np.arange(src.size) + (start[aj] - first)[src]
    terms = a[ai, aj][src] * b[bi, bj][at]
    _reduce(terms, q)
    sums = np.bincount(ai[src] * n + bj[at], terms, m * n)
    return _float_mod(sums.reshape(m, n), q)


#: Ranks of matrices, over either field, with at most this share of nonzero
#: entries are peeled before any elimination, and word-size GF(q) products
#: of two such matrices are joined on their nonzeros.
_SPARSE_DENSITY = 0.1

#: Panel width of the dense elimination, and the smaller side from which a
#: matrix takes it (when q is on ``_mulmod``'s float64 tier for an inner
#: dimension of ``_PANEL``, q <= 16777213, so that a Schur complement of
#: reduced factors is exact in float64; otherwise one panel spans the
#: matrix): below 128 it gains nothing.
_PANEL = 32
_BLOCKED_MIN = 128


def _echelon_dense(a, q: int, b: int):
    """Pivot columns of the reduced residue array ``a``, by forward
    elimination of a copy in panels of ``b`` columns, for ranks: the first
    nonzero entry of each column, top to bottom, is the pivot.  With ``b``
    at least the column count this is the per-pivot loop.

    Each panel is copied out of the rows left, reduced, and eliminated one
    pivot at a time, swapping only the copy's rows and a permutation; every
    eliminated entry keeps its multiplier, so the copy holds P A = L U
    restricted to the panel.  One gather then permutes the trailing
    columns: their k pivot rows give U12 = L11^-1 A12 (one product), and
    the other rows become the Schur complement A22 - L21 U12, one float64
    product, cast to int64 and never reduced.  Its factors are reduced
    residues, so it is exact when (q - 1)^2 * b <= 2^53 - 1, and each pivot
    moves an entry by at most (q - 1)^2, so no entry leaves int64 while
    min(rows, cols) * (q - 1)^2 < 2^62; otherwise one panel spans the
    matrix.  No echelon form is written: a rank reads only the pivots.
    """
    m, n = a.shape
    if (q - 1) ** 2 * b > _FLOAT_EXACT or min(m, n) * (q - 1) ** 2 >= 2**62:
        b = n
    b = max(1, b)
    # Reduction is delayed: an entry takes up to ``lag`` updates, each
    # subtracting less than q^2, before it must be reduced to stay in int64.
    lag = max(1, 2**62 // q**2)
    rest = a  # the rows left, from the panel's first column on
    pivots = []
    for c0 in range(0, n, b):
        if len(pivots) == m:
            break
        w = min(b, n - c0)
        panel = rest[:, :w].copy()
        if c0:
            _reduce(panel, q)
        perm = list(range(len(panel)))
        piv = []
        k = 0
        for c in range(w):
            if k == len(panel):
                break
            # With ``lag`` 1 the block below and right of the last pivot was
            # reduced right after it (and the panel starts reduced), so the
            # next column and pivot row, which lie inside it, are reduced.
            col = panel[k:, c]
            if lag > 1:
                col %= q
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            i = k + int(nz[0])
            if i != k:
                panel[[k, i]] = panel[[i, k]]
                perm[k], perm[i] = perm[i], perm[k]
            inv = pow(int(panel[k, c]), -1, q)
            u = panel[k, c + 1 :]
            if lag > 1:
                u %= q
            u *= inv
            u %= q
            # Column c keeps the multipliers of the rows below: L21 and L11.
            below = panel[k + 1 :, c + 1 :]
            below -= panel[k + 1 :, c, None] * u
            piv.append(c)
            k += 1
            if k % lag == 0:
                _reduce(below, q)
        pivots += [c0 + c for c in piv]
        if k and c0 + w < n:
            low = panel[:, piv]  # [L11; L21], with the pivots on L11's diagonal
            trail = rest[perm, w:]
            a12 = trail[:k]
            _reduce(a12, q)
            u12 = _mulmod(_lower_inverse(low[:k], q), a12, q)
            rest = trail[k:]
            rest -= (low[k:].astype(np.float64) @ u12.astype(np.float64)).astype(np.int64)
        else:
            rest = rest[:, w:]
    return pivots


def _lower_inverse(low, q: int):
    """L^-1 mod q of the lower triangle of the k x k reduced residue array
    ``low`` (its upper part is ignored), by forward substitution on the
    identity, for q on the float64 product tier at k: each row is reduced
    before it is scaled by the inverse of its diagonal entry, so no product
    leaves int64."""
    k = len(low)
    x = np.zeros((k, k), dtype=np.int64)
    for t in range(k):
        row = -(low[t, :t] @ x[:t]) % q
        row[t] = 1
        x[t] = row * pow(int(low[t, t]), -1, q) % q
    return x


def _echelon_sparse(a, q: int | None):
    """(RREF, pivot columns) of ``a``, reduced residues over GF(q) or
    canonical rationals over Q (q None), by Gauss-Jordan elimination on
    dict rows, for kernels and solves.

    Pivot columns go left to right, and each pivot is the candidate row
    (one not yet a pivot, nonzero in the column) with the fewest nonzeros,
    the lowest index breaking ties; a column -> rows index finds every
    other row to eliminate, above the pivot or below.  The RREF and its
    pivot columns do not depend on which rows are pivots.  The pivot row
    is scaled by pow(pivot, -1, q), or over Q by the canonical 1 / pivot
    (an int for a pivot of -1, so integer rows stay ints), and every new
    entry is reduced mod q, or made canonical over Q.
    """
    m, n = a.shape
    canon = _canon_rational if q is None else q.__rmod__  # x -> x % q
    rows = [{} for _ in range(m)]
    where = [set() for _ in range(n)]  # column -> rows nonzero in it
    flat = np.flatnonzero(a != 0)
    ii, jj = np.divmod(flat, n)
    for i, j, v in zip(ii.tolist(), jj.tolist(), a.ravel()[flat].tolist()):
        rows[i][j] = v
        where[j].add(i)
    used = [False] * m
    order, pivots = [], []
    for c in range(n):
        if len(order) == m:
            break
        cands = [i for i in where[c] if not used[i]]
        if not cands:
            continue
        p = min(cands, key=lambda i: (len(rows[i]), i))
        used[p] = True
        prow = rows[p]
        inv = canon(Fraction(1, prow[c])) if q is None else pow(prow[c], -1, q)
        if inv != 1:
            for j in prow:
                prow[j] = canon(prow[j] * inv)
        for i in list(where[c]):
            if i == p:
                continue
            row = rows[i]
            f = row[c]
            for j, v in prow.items():
                old = row.get(j)
                if old is None:
                    row[j] = canon(-f * v)
                    where[j].add(i)
                else:
                    x = canon(old - f * v)
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        where[j].discard(i)
        order.append(p)
        pivots.append(c)
    out = np.zeros((m, n), dtype=a.dtype)
    ri, ci, vals = [], [], []
    for k, p in enumerate(order):
        ri += [k] * len(rows[p])
        ci += rows[p].keys()
        vals += rows[p].values()
    out[ri, ci] = vals
    return out, pivots


def _peel(a, i, j):
    """(r, core): the first step of structured Gaussian elimination
    (LaMacchia and Odlyzko, CRYPTO 1990) on the nonzero pattern of ``a``,
    its rows ``i`` and columns ``j``, with rank a = r + rank core.

    A column with one nonzero, c * e_i, puts e_i in the column space, so
    rank a = 1 + the rank of ``a`` without row i and that column; row i is
    deleted once however many such columns hit it, as the others become
    zero with it.  Rows with one nonzero are the same on the transpose.
    The two steps alternate until neither deletes anything; the core is
    what is left of ``a`` on the rows and columns that still hold nonzeros.
    """
    m, n = a.shape
    # Each step peels lines along x (columns, then rows) and deletes the
    # crossing lines along y that they hit; x and y swap after every step.
    x, y, t = j, i, 0
    r, idle = 0, 0
    while idle < 2 and x.size:
        hit = np.zeros((m, n)[t % 2], dtype=bool)
        hit[y[np.bincount(x)[x] == 1]] = True
        k = int(np.count_nonzero(hit))
        r += k
        idle = 0 if k else idle + 1
        keep = ~hit[y]
        x, y, t = y[keep], x[keep], t + 1
    if not x.size:
        return r, a[:0, :0]
    rows, cols = (x, y) if t % 2 else (y, x)
    return r, a[np.ix_(np.unique(rows), np.unique(cols))]


class ExactMatrix:
    """Dense matrix over GF(q) (``q`` a prime) or the rationals (``q=None``),
    stored as one read-only 2-D numpy array of dtype ``residue_dtype(q)``:
    reduced residues over GF(q), canonical entries (ints, and Fractions
    whose denominator is not 1) over Q.  The constructor takes Python and
    numpy integers, of any size, reduced mod q over GF(q), and over Q also
    Fractions; any other entry (a float, a string, nan, a complex number)
    is a ValueError."""

    __slots__ = ("rows", "cols", "q", "_a", "_rank", "_nz")

    def __init__(self, rows, cols, data, q=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.q = q
        self._rank = self._nz = None  # cached rank and nonzero pattern
        _check_modulus(q)
        try:
            a = np.asarray(data, dtype=object if q is None else None)
        except ValueError:  # ragged rows
            a = None
        if a is not None and a.shape == (0,) and self.rows == 0:
            a = a.reshape(self.shape)  # no rows, so no row length to check
        if a is None or a.shape != self.shape:
            raise ValueError("data do not form a %dx%d matrix" % self.shape)
        if q is not None and a.dtype.kind in "biu" and a.dtype != np.uint64:
            a = a.astype(residue_dtype(q), copy=False) % q
        else:
            # Rationals, Python ints or uint64 past int64, or entries to refuse.
            canon = _canon_rational if q is None else q.__rmod__  # x -> x % q
            entries = map(canon, _exact_entries(a.ravel().tolist(), q))
            a = np.array(list(entries), dtype=residue_dtype(q)).reshape(self.shape)
        a.setflags(write=False)
        self._a = a

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _wrap(cls, a, q, nz=None):
        """Wrap a 2-D array already in storage form (reduced residues of
        dtype ``residue_dtype(q)``, or canonical rationals in an object
        array): no checks, no copy.  ``nz``, when given, is the nonzero
        pattern of ``a`` as ``_pattern`` would find it, and is kept in
        place of that scan, under the same density test."""
        m = cls.__new__(cls)
        m.rows, m.cols = a.shape
        m.q = q
        m._rank = None
        m._nz = nz if nz is None or nz[0].size <= _SPARSE_DENSITY * a.size else ()
        a.setflags(write=False)
        m._a = a
        return m

    @classmethod
    def identity(cls, n, q=None):
        return cls(n, n, np.eye(n, dtype=residue_dtype(q)), q=q)

    # -- basic access --------------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.q != other.q or self.shape != other.shape:
            return False
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash((self.q, self.rows, self.cols))

    def is_zero(self):
        return not self._a.any()

    def _pattern(self):
        """(rows, cols) of the nonzero entries, in row-major order, when
        they are at most ``_SPARSE_DENSITY`` of the entries; None for a
        denser matrix.  Found once, by one count and, for a sparse matrix,
        one scan, and kept: ``_nz`` is None until then and () once the
        matrix is found dense."""
        if self._nz is None:
            a = self._a
            if np.count_nonzero(a) > _SPARSE_DENSITY * a.size:
                self._nz = ()
            else:
                # numpy finds the nonzeros of a boolean array several times faster.
                self._nz = np.divmod(np.flatnonzero(a.astype(bool)), self.cols)
        return self._nz or None

    def __repr__(self):
        tag = "Q" if self.q is None else "GF(%d)" % self.q
        return "ExactMatrix(%dx%d over %s)" % (self.rows, self.cols, tag)

    # -- arithmetic ----------------------------------------------------------

    def transpose(self):
        return ExactMatrix._wrap(self._a.T, self.q)

    def __matmul__(self, other):
        if self.q != other.q:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        if self.q is None:
            # Products of canonical rationals with a Fraction in them take
            # the constructor's canonicalisation; integer ones need none.
            types = set(map(type, self._a.flat)) | set(map(type, other._a.flat))
            if not types <= {int}:
                return ExactMatrix(self.rows, other.cols, self._a @ other._a)
        elif self.q <= WORD_MODULUS_MAX and (self.q - 1) * self.cols <= _FLOAT_EXACT:
            nz = self._pattern()
            other_nz = other._pattern() if nz else None
            if other_nz:
                out = _sparse_mulmod(self._a, nz, other._a, other_nz, self.q)
                return ExactMatrix._wrap(out, self.q)
        return ExactMatrix._wrap(_mulmod(self._a, other._a, self.q), self.q)

    def augment(self, other):
        """Horizontal concatenation [self | other]."""
        if self.q != other.q or self.rows != other.rows:
            raise ValueError("shape/field mismatch in augment")
        return ExactMatrix._wrap(np.hstack([self._a, other._a]), self.q)

    # -- elimination ---------------------------------------------------------

    def _rref(self):
        """Fully reduced row echelon form and pivot columns."""
        return self._rref_mod() if self.q is not None else self._rref_rational()

    def _rref_mod(self, full=True):
        """Every GF(q) elimination: (RREF, pivot columns) on sparse rows
        (``_echelon_sparse``), or with ``full=False`` (for ranks) the pivot
        columns alone, by panels (``_echelon_dense``): ``_PANEL`` columns
        wide for large matrices, else one panel as wide as the matrix.
        ``_echelon_dense`` itself falls back to one panel when q is too
        large for an exact float64 Schur complement.
        """
        a, q = self._a, self.q
        if full:
            return _echelon_sparse(a, q)
        wide = min(a.shape) >= _BLOCKED_MIN
        return _echelon_dense(a, q, _PANEL if wide else max(1, a.shape[1]))

    def _rref_rational(self):
        """(RREF, pivot columns) over Q, by ``_echelon_sparse``: a method of
        its own because ``perfbench/tracer.py`` counts eliminations by name."""
        return _echelon_sparse(self._a, None)

    def rank(self) -> int:
        """Rank over the matrix's field.

        A matrix with at most ``_SPARSE_DENSITY`` nonzeros is first peeled
        (``_peel``) on the pattern ``_pattern`` keeps, so a display map is
        not scanned again: its singleton columns and rows are counted and
        deleted, exactly over every field, and only the core that is left is
        eliminated.  A denser matrix pays one count, once.  GF(q) takes the dense engine's forward elimination
        (below the pivots only), never an RREF.  Over Q the rank modulo
        ``_CERT_PRIME`` of the row-wise integer matrix is taken first, the
        same way; when it is min(rows, cols) it is the rational rank, and
        otherwise fraction-free (Bareiss) elimination of its rows computes
        the rank exactly.
        """
        if self._rank is None:
            a, r = self._a, 0
            nz = self._pattern()
            if nz is not None:
                r, a = _peel(a, *nz)
            if a.size:
                r += ExactMatrix._wrap(a, self.q)._eliminated_rank()
            self._rank = r
        return self._rank

    def _eliminated_rank(self) -> int:
        """Rank by elimination alone, not cached (``rank``'s last step)."""
        if self.q is not None:
            return len(self._rref_mod(full=False))
        a = self._integer_matrix()
        r = len(_mod_cert_prime(a)._rref_mod(full=False))
        return r if r == min(self.shape) else self._rank_bareiss(a.tolist())

    def _integer_matrix(self):
        """An object array of Python ints with the rank of this rational
        matrix: its own array when every entry is an int, otherwise each
        row times the lcm of its denominators."""
        if set(map(type, self._a.flat)) <= {int}:
            return self._a
        rows = []
        for row in self._a.tolist():
            den = lcm(*(x.denominator for x in row if type(x) is Fraction))
            rows.append(row if den == 1 else [int(x * den) for x in row])
        return np.array(rows, dtype=object).reshape(self.shape)

    def _rank_bareiss(self, rows) -> int:
        """Rank of the integer rows (of ``_integer_matrix``), which it overwrites."""
        m, n = self.rows, self.cols
        prev = 1
        r = 0
        for c in range(n):
            if r == m:
                break
            for i in range(r, m):
                if rows[i][c] != 0:
                    break
            else:
                continue
            if i != r:
                rows[r], rows[i] = rows[i], rows[r]
            piv = rows[r][c]
            # Every row below must be updated, zero pivot-column entry or
            # not, so the exact division by the previous pivot stays exact.
            for i in range(r + 1, m):
                fi = rows[i][c]
                rows[i] = [
                    (piv * rows[i][j] - fi * rows[r][j]) // prev for j in range(n)
                ]
            prev = piv
            r += 1
        return r

    def kernel_basis(self) -> "ExactMatrix":
        """Basis of the right kernel, one basis vector per column.

        Column count is ``cols - rank``.  Rational kernels are rescaled to
        coprime integer columns with positive leading entry, so the result
        is canonical for either field.
        """
        rr, pivots = self._rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        ker = np.zeros((self.cols, len(free)), dtype=rr.dtype)
        ker[free, range(len(free))] = 1
        ker[pivots] = -rr[: len(pivots), free]
        if self.q is not None:
            ker %= self.q
        else:
            for w in ker.T:
                # Scaled by the lcm of its denominators the column is already
                # primitive: every prime power of the lcm divides one
                # denominator fully, and that entry's numerator is prime to it.
                den = lcm(*(x.denominator for x in w if type(x) is Fraction))
                if den != 1:
                    w[:] = [int(x * den) for x in w]
                if next((x for x in w if x != 0), 1) < 0:
                    w[:] = -w
        return ExactMatrix._wrap(ker, self.q)

    def solve(self, rhs: "ExactMatrix"):
        """One solution X of self @ X = rhs, or None if inconsistent.

        Free variables are set to zero, so the solution is deterministic.
        """
        if self.q != rhs.q or self.rows != rhs.rows:
            raise ValueError("shape/field mismatch in solve")
        aug = self.augment(rhs)
        rr, pivots = aug._rref()
        if any(p >= self.cols for p in pivots):
            return None
        x = np.zeros((self.cols, rhs.cols), dtype=rr.dtype)
        x[pivots] = rr[: len(pivots), self.cols :]
        return ExactMatrix._wrap(x, self.q)


def _mod_cert_prime(a) -> ExactMatrix:
    """An object array of Python ints (from ``ExactMatrix._integer_matrix``,
    or of an integer matrix) reduced modulo ``_CERT_PRIME`` by one numpy
    remainder, as a matrix over that field."""
    return ExactMatrix._wrap((a % _CERT_PRIME).astype(np.int64), _CERT_PRIME)


# -- snake lemma ------------------------------------------------------------


@dataclass(frozen=True)
class SnakeLedger:
    """Kernel/cokernel dimensions of the three vertical maps plus the
    exactness verdict for the induced six-term sequence."""

    ker1: int
    ker2: int
    ker3: int
    coker1: int
    coker2: int
    coker3: int
    exact: bool


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def snake_check(i_x, q_x, i_y, q_y, f1, f2, f3) -> SnakeLedger:
    """Verify the snake lemma for two short exact rows and three verticals.

    The rows are 0 -> X1 -i_x-> X2 -q_x-> X3 -> 0 and likewise for Y; the
    verticals are f1: X1->Y1, f2: X2->Y2, f3: X3->Y3.  Rejects inputs that
    are not short exact or whose squares do not commute, naming the failing
    condition.  Exactness of the six-term kernel/cokernel sequence is
    certified through rank identities on lifted representatives; the
    connecting map is never materialized.
    """
    _require(q_x.cols == i_x.rows, "top row: shape mismatch between inclusion and quotient")
    _require(q_y.cols == i_y.rows, "bottom row: shape mismatch between inclusion and quotient")
    _require(
        f1.cols == i_x.cols and f1.rows == i_y.cols, "f1 does not match the row end terms"
    )
    _require(
        f2.cols == i_x.rows and f2.rows == i_y.rows, "f2 does not match the row middle terms"
    )
    _require(
        f3.cols == q_x.rows and f3.rows == q_y.rows, "f3 does not match the row end terms"
    )

    _require(i_x.rank() == i_x.cols, "top row: inclusion not injective")
    _require(q_x.rank() == q_x.rows, "top row: quotient not surjective")
    _require((q_x @ i_x).is_zero(), "top row: quotient composed with inclusion nonzero")
    _require(i_x.rank() + q_x.rank() == i_x.rows, "top row: not exact at the middle term")
    _require(i_y.rank() == i_y.cols, "bottom row: inclusion not injective")
    _require(q_y.rank() == q_y.rows, "bottom row: quotient not surjective")
    _require((q_y @ i_y).is_zero(), "bottom row: quotient composed with inclusion nonzero")
    _require(i_y.rank() + q_y.rank() == i_y.rows, "bottom row: not exact at the middle term")

    _require(f2 @ i_x == i_y @ f1, "left square does not commute")
    f3_qx = f3 @ q_x
    _require(f3_qx == q_y @ f2, "right square does not commute")

    r1, r2, r3 = f1.rank(), f2.rank(), f3.rank()
    k1, k2, k3 = f1.cols - r1, f2.cols - r2, f3.cols - r3
    c1, c2, c3 = f1.rows - r1, f2.rows - r2, f3.rows - r3

    # Exactness at ker(f2): the image of ker(f1) fills ker(f2) \cap ker(q_x).
    ker2 = f2.kernel_basis()
    im_in_ker3 = (q_x @ ker2).rank()
    ok_k2 = (k2 - im_in_ker3) == k1

    # Image of the connecting map: lift ker(f3) through q_x, push by f2,
    # pull back through i_y, measure modulo im(f1).
    lifted = f3_qx.kernel_basis()
    pushed = f2 @ lifted
    pulled = i_y.solve(pushed)
    _require(pulled is not None, "pushforward of lifted kernel escapes the bottom inclusion")
    im_delta = pulled.augment(f1).rank() - r1

    ok_k3 = (k3 - im_delta) == im_in_ker3

    # Induced maps on cokernels, via ranks of augmented matrices.
    im_c1_in_c2 = i_y.augment(f2).rank() - r2
    im_c2_in_c3 = q_y.augment(f3).rank() - r3
    ok_c1 = im_delta == c1 - im_c1_in_c2
    ok_c2 = (c2 - im_c2_in_c3) == im_c1_in_c2
    ok_c3 = im_c2_in_c3 == c3

    return SnakeLedger(k1, k2, k3, c1, c2, c3, ok_k2 and ok_k3 and ok_c1 and ok_c2 and ok_c3)

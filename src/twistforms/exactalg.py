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

A product of two sparse matrices, m x k by k x n, over either field, is a
join on their patterns, a row-by-row product as in Gustavson ("Two fast
algorithms for sparse matrices", ACM TOMS 1978): each nonzero a[i, j]
meets the nonzeros of row j of b, and one ``np.add.at`` sums the term
products of each entry in the operands' own dtype, over GF(q) reduced mod
q before and after (``_sparse_mulmod``).  The work is the number of terms,
not m * k * n.  Every other product takes one of two exact tiers:

* float64 BLAS over GF(q), when (q - 1)^2 * k <= 2^53 - 1: every partial
  sum is then an integer that float64 holds exactly (Dumas, Giorgi and
  Pernet, "Dense linear algebra over word-size prime fields: the FFLAS
  and FFPACK packages", ACM TOMS 2008), so the product is cast to int64
  exactly and one integer remainder reduces it.  At q = 101 this holds up
  to k = 9.0e11.
* Python objects otherwise, and always over Q.  A large dense product is
  slow there (200 x 200 takes about 0.4 s over Q, of integers below 1000,
  and 0.65 s at q = 2^31 - 1, on a 2-core x86_64 VM), but no verdict makes
  one: its products are sparse joins or a few dozen rows and columns.

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
  columns, the row rank profile of the transpose T, and gets nothing else,
  by blocked elimination on numpy arrays (as in FFLAS-FFPACK, Dumas,
  Giorgi and Pernet 2008; Jeannerod, Pernet and Storjohann, J. Symbolic
  Comput. 2013), with no permutation and no echelon form.  T is taken in
  panels of ``_PANEL`` (32) rows, each Gauss-Jordan eliminated on its own
  by windows of at most 64 columns and one product per window, and the
  rows below take each panel by one product, the Schur complement.  Every
  factor is reduced, so both products are exact in float64 when (q - 1)^2
  * 32 <= 2^53 - 1 (q <= 16777213); the Schur complement is never reduced
  (delayed reduction as in FFLAS-FFPACK) and stays in int64 while
  min(rows, cols) * (q - 1)^2 < 2^62.  The rest of T once at most 32 rows
  or 64 columns are left, and all of it past either bound, is one panel
  eliminated forward.  On a 2-core x86_64 VM (Python 3.11, numpy 2.4,
  OpenBLAS, one BLAS thread) the rank of a 315 x 315 point evaluation over
  GF(101) takes about 6.5 ms, against 9.5 ms for the column panels with a
  triangular inverse that this replaced (medians of 21 interleaved runs).

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

A rational product with a Fraction among the entries it reads (the
gathered nonzeros of a join, every entry of a dense product) has its
entries canonicalised by the constructor; a product of integers needs none.

Every rank is a prefix rank, of the first k rows for any k (a rank
profile, as in Jeannerod, Pernet and Storjohann 2013): the pivot columns
of the transpose are the rows independent of the rows before them, so the
first k rows have rank the number of pivots below k.  Over Q the ranks are
certified modulo the word prime ``_CERT_PRIME``: clearing the denominators
of each row (``_integer_rows``; a matrix of ints, as section bases, display
maps and point evaluations are, is reduced as it is) keeps the rank of every
prefix, and a minor that is nonzero modulo a prime is nonzero over Z, so k
rows of rank min(k, cols) modulo that prime have it over Q.  Only a prefix
that falls short takes fraction-free (Bareiss 1968) elimination.
"""

from __future__ import annotations

from bisect import bisect_left
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


def _canon_rational(x) -> Fraction | int:
    if type(x) is int:
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def _reduce(x, q: int):
    """x %= q, in place, for an integer array: on int64 numpy's floor
    division by a scalar divides by a precomputed reciprocal, and is several
    times faster than its remainder."""
    if x.dtype == object:
        x %= q
        return
    t = x // q
    t *= q
    x -= t


def _mulmod(a, b, q: int | None):
    """(a @ b) mod q of two reduced residue arrays, as a reduced array of
    dtype ``residue_dtype(q)``; with q None, the exact product of two object
    arrays.  Over GF(q) float64 BLAS when (q - 1)^2 * k <= 2^53 - 1, else
    Python objects, as in the module docstring; ``ExactMatrix.__matmul__``
    joins two sparse operands by ``_sparse_mulmod`` instead."""
    if q is not None and (q - 1) ** 2 * a.shape[1] <= _FLOAT_EXACT:
        prod = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        prod = a.astype(object, copy=False) @ b.astype(object, copy=False)
        if q is None:
            return prod
    _reduce(prod, q)
    return prod.astype(residue_dtype(q), copy=False)


def _sparse_mulmod(a, a_nz, b, b_nz, q: int | None):
    """``_mulmod(a, b, q)`` from the nonzero patterns of a and b
    (``ExactMatrix._pattern``), as one join (Gustavson, ACM TOMS 1978):
    each nonzero a[i, j] meets the nonzeros of row j of b, the term
    products are reduced mod q over GF(q), and one ``np.add.at`` sums them
    per output entry into zeros of the operands' dtype, reduced again over
    GF(q).  An int64 entry sums at most k terms below q, for the inner
    dimension k, so it is exact while (q - 1) * k < 2^63; past that bound
    the terms are summed as Python ints.
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
    if q is not None:
        _reduce(terms, q)
    # int64 terms added into object sums become Python ints.
    wide = terms.dtype == object or (q - 1) * k >= 2**63
    sums = np.zeros(m * n, dtype=object if wide else np.int64)
    np.add.at(sums, ai[src] * n + bj[at], terms)
    sums = sums.reshape(m, n)
    if q is None:
        return sums
    _reduce(sums, q)
    return sums.astype(residue_dtype(q), copy=False)


#: Ranks of matrices, over either field, with at most this share of nonzero
#: entries are peeled before any elimination, and products of two such
#: matrices are joined on their nonzeros.
_SPARSE_DENSITY = 0.1

#: Rows of the transpose in one panel of the dense rank elimination, taken
#: when q is on ``_mulmod``'s float64 tier for an inner dimension of
#: _PANEL (q <= 16777213); its windows are at most 2 * _PANEL columns.
_PANEL = 32


def _pivot_steps(m, q: int, rows, w: int, below: bool):
    """(row, column) of the pivots of the integer array ``m``, eliminated in
    place: each row of ``rows`` in turn is reduced and, unless it is zero on
    the first ``w`` columns, its first nonzero entry there is a pivot,
    eliminated from every other row (Gauss-Jordan) or, with ``below``, from
    the rows after it; once ``w`` pivots are found the rest are zero there.
    Every entry is reduced before it is scaled by a pivot's inverse, and the
    rows left are reduced every ``lag`` pivots, each of which subtracts less
    than q^2 from an entry, to stay in int64.
    """
    lag = max(1, 2**62 // q**2)
    found = []
    for i in rows:
        if len(found) == w:
            break
        row = m[i]
        row %= q
        nz = row[:w].nonzero()[0]
        if not nz.size:
            continue
        c = int(nz[0])
        found.append((i, c))
        rest = m[i + 1 :] if below else m
        f = rest[:, c] % q
        f *= pow(int(row[c]), -1, q)
        f %= q
        if not below:
            f[i] = 0
        rest -= f[:, None] * row
        if len(found) % lag == 0:
            _reduce(rest, q)
    return found


def _panel_pivots(p, q: int):
    """(row, column) of the pivots of the reduced k x n panel ``p``, sorted,
    with ``p`` Gauss-Jordan eliminated in place.  The pivots are searched
    on windows of every s-th column from the r-th, s = ceil(n / 2k), for
    r = 0, 1, ... in turn (so that sparse leading columns do not hide
    them), among the rows with none yet that are not zero: each window is
    eliminated as [window | I] and the transform on the right applied to
    the whole panel by one product.  The rows a window eliminates with are
    zero on the earlier windows, so each pivot row stays zero on the other
    pivots' columns and the windows' pivots are the panel's.
    """
    k, n = p.shape
    s = -(-n // (2 * k))
    found, todo = [], range(k)
    for r in range(s):
        x = np.hstack([p[:, r::s], np.eye(k, dtype=np.int64)])
        new = _pivot_steps(x, q, todo, x.shape[1] - k, False)
        if new:
            p[:] = _mulmod(x[:, -k:] % q, p, q)
            found += [(i, r + c * s) for i, c in new]
        left = p.any(axis=1)
        left[[i for i, _ in found]] = False
        todo = left.nonzero()[0].tolist()
        if not todo:
            break
    return sorted(found)


def _echelon_dense(a, q: int, b: int):
    """Pivot columns of the reduced residue array ``a``, for ranks: the rows
    of T = a.T not in the span of the rows before them.  ``a`` is not
    written.  While more than b rows and 2b columns are left, the next b
    rows are copied out as a panel and eliminated (``_panel_pivots``), and
    the rows below take its pivot rows U, each zero on the others' pivot
    columns, by one product: T2 - M U, with M the reduced entries of T2 on
    those columns, each times the inverse of its pivot, reduced; the pivot
    columns are then dropped.  The product is cast to int64 and never
    reduced: it is exact when (q - 1)^2 * b <= 2^53 - 1, and no entry
    leaves int64 while min(rows, cols) * (q - 1)^2 < 2^62.  The rows left,
    and all of T when either bound fails, are eliminated forward.
    """
    t = a.T
    if (q - 1) ** 2 * b > _FLOAT_EXACT or min(t.shape) * (q - 1) ** 2 >= 2**62:
        b = len(t)
    pivots, r0 = [], 0
    while len(t) > b and t.shape[1] > 2 * b:
        p, t = t[:b].copy(), t[b:]
        _reduce(p, q)
        found = _panel_pivots(p, q)
        pivots += [r0 + i for i, _ in found]
        r0 += b
        if found:
            rows, pos = map(list, zip(*found))
            top = p[rows]
            mult = t[:, pos]
            _reduce(mult, q)
            mult *= [pow(int(top[j, c]), -1, q) for j, c in enumerate(pos)]
            _reduce(mult, q)
            top = np.delete(top, pos, axis=1).astype(np.float64)
            t = np.delete(t, pos, axis=1)
            t -= (mult.astype(np.float64) @ top).astype(np.int64)
    last = _pivot_steps(t.copy(), q, range(len(t)), t.shape[1], True)
    return pivots + [r0 + i for i, _ in last]


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


def _integer_rows(a):
    """The rational array ``a`` with each row that holds a Fraction times
    the lcm of its denominators, an object array of Python ints with the
    rank of ``a`` in every prefix of rows: ``a`` itself when every entry is
    an int.  Each row's types are scanned once, and only the rows that
    hold a Fraction take an lcm."""
    if set(map(type, a.flat)) <= {int}:
        return a
    rows, a = a.tolist(), a.copy()
    for i, row in enumerate(rows):
        if Fraction in set(map(type, row)):
            den = lcm(*(x.denominator for x in row if type(x) is Fraction))
            a[i] = [int(x * den) for x in row]
    return a


class ExactMatrix:
    """Dense matrix over GF(q) (``q`` a prime) or the rationals (``q=None``),
    stored as one read-only 2-D numpy array of dtype ``residue_dtype(q)``:
    reduced residues over GF(q), canonical entries (ints, and Fractions
    whose denominator is not 1) over Q.  The constructor takes Python and
    numpy integers, of any size, reduced mod q over GF(q), and over Q also
    Fractions; any other entry (a float, a string, nan, a complex number)
    is a ValueError.  An integer ndarray (any but uint64) is cast to its
    storage dtype in one step; input that is no ndarray is read as Python
    objects, since numpy would infer a float from 2^63 beside -1."""

    __slots__ = ("rows", "cols", "q", "_a", "_rank", "_nz")

    def __init__(self, rows, cols, data, q=None):
        self.rows = int(rows)
        self.cols = int(cols)
        self.q = q
        self._rank = self._nz = None  # cached rank and nonzero pattern
        _check_modulus(q)
        try:
            a = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=object)
        except ValueError:  # ragged rows
            a = None
        if a is not None and a.shape == (0,) and self.rows == 0:
            a = a.reshape(self.shape)  # no rows, so no row length to check
        if a is None or a.shape != self.shape:
            raise ValueError("data do not form a %dx%d matrix" % self.shape)
        if a.dtype.kind in "iu" and a.dtype != np.uint64:
            a = a.astype(residue_dtype(q), copy=False)
            if q is not None:
                a = a % q
        else:
            # Python objects, uint64 past int64, or entries to refuse.
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
        return cls(n, n, np.eye(n, dtype=np.int64), q=q)

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
        nz = self._pattern()
        other_nz = other._pattern() if nz else None
        if other_nz:
            out = _sparse_mulmod(self._a, nz, other._a, other_nz, self.q)
        else:
            out = _mulmod(self._a, other._a, self.q)
            nz = other_nz = ...  # a dense product reads every entry
        if self.q is None:
            # A product with a Fraction among the entries it read takes the
            # constructor's canonicalisation; a product of integers needs none.
            types = set(map(type, self._a[nz].flat)) | set(map(type, other._a[other_nz].flat))
            if not types <= {int}:
                return ExactMatrix(self.rows, other.cols, out)
        return ExactMatrix._wrap(out, self.q)

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
        columns alone, by ``_echelon_dense`` in panels of ``_PANEL``
        columns (what is left once a panel's windows would span it, and all
        of a matrix whose q is too large for exact float64 products, is one
        panel eliminated forward).
        """
        a, q = self._a, self.q
        if full:
            return _echelon_sparse(a, q)
        return _echelon_dense(a, q, _PANEL)

    def _rref_rational(self):
        """(RREF, pivot columns) over Q, by ``_echelon_sparse``: a method of
        its own because ``perfbench/tracer.py`` counts eliminations by name."""
        return _echelon_sparse(self._a, None)

    def rank(self) -> int:
        """Rank over the matrix's field: ``_prefix_ranks`` at all rows.

        A matrix with at most ``_SPARSE_DENSITY`` nonzeros is first peeled
        (``_peel``) on the pattern ``_pattern`` keeps, so a display map is
        not scanned again: its singleton columns and rows are counted and
        deleted, exactly over every field, and only the core that is left is
        eliminated.  A denser matrix pays one count, once.
        """
        if self._rank is None:
            a, r = self._a, 0
            nz = self._pattern()
            if nz is not None:
                r, a = _peel(a, *nz)
            if a.size:
                r += ExactMatrix._wrap(a, self.q)._prefix_ranks([len(a)])[0]
            self._rank = r
        return self._rank

    def _prefix_ranks(self, counts) -> list:
        """Rank of the first k rows for each k in ``counts``, not cached and
        with no peel: one forward elimination of the transpose by the dense
        engine, over Q of ``_integer_rows`` modulo ``_CERT_PRIME``, where a
        prefix whose rank falls short of min(k, cols) takes Bareiss.
        """
        a = self._a
        if self.q is None:
            a = _integer_rows(a)
            mod = ExactMatrix._wrap((a % _CERT_PRIME).astype(np.int64), _CERT_PRIME)
        else:
            mod = self
        pivots = mod.transpose()._rref_mod(full=False)
        ranks = []
        for k in counts:
            r = bisect_left(pivots, k)
            if self.q is None and r < min(k, self.cols):
                r = self._rank_bareiss(a[:k].tolist())
            ranks.append(r)
        return ranks

    def _rank_bareiss(self, rows) -> int:
        """Rank of integer rows of ``cols`` entries, which it overwrites."""
        m, n = len(rows), self.cols
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

        Column count is ``cols - rank``.  Each column is 1 on its free
        column and 0 on the others; over Q it is then scaled by the lcm of
        its denominators (``_integer_rows`` of the transpose), to primitive
        integers, positive on its free column.
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
            # Scaled by the lcm of its denominators a column is already
            # primitive: every prime power of the lcm divides one
            # denominator fully, and that entry's numerator is prime to it.
            ker = _integer_rows(ker.T).T
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

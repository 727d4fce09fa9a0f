"""Global sections of twisted differential forms on P^n, made concrete.

A polynomial p-form of twist d is a vector indexed by pairs (I, m): I a
strictly increasing p-element subset of {0..n} (the wedge of dx_i for i in
I) and m a monomial of degree d-p in the homogeneous coordinates.  Global
sections of Omega^p(d) are exactly the forms annihilated by contraction
iota with the Euler field sum x_i d/dx_i, so every section space below is a
kernel of an explicit integer matrix with entries 0 and +/-1.

That kernel is written out in closed form, from the contracting homotopy
of the Koszul complex (Eisenbud, *Commutative Algebra*, section 17), with
no elimination.  Contraction keeps the multidegree m + 1_I of a form
x^m dx_I, so the matrix is block diagonal, one block per multidegree.  In
a block, v0 is the least variable that occurs in it.  The forms whose I
contains v0 are the pivot columns of the matrix's RREF; every other form w
is a free column, with kernel vector w - h(iota w) for the homotopy
h = dx_{v0} ^ (.) / x_{v0}.  These are the vectors the RREF gives, so each
basis is the one ``ExactMatrix.kernel_basis`` of ``contraction_matrix``
would return, entry for entry; the tests check this against the matrix.

Each pair (I, m) is coded as one integer, the rank of I among the
p-subsets times the number of monomials, plus the rank of m: its row in
the ambient space.  A few lookup tables per shape, each built once and
kept in an ``lru_cache``, act on codes: the ranks of the index sets one
step from each (an element removed, the last one dropped or added), and
the monomial ranks of multiplication by x_j, of division by the least
variable and of truncation at x_n = 0.  A section space stores its basis
once, as three int64 arrays of its nonzeros (column, ambient row, sign
+/-1), sorted by column, the column's free row first.  They are the same
on every field: the entry is the sign itself over Q and the sign modulo q
over GF(q), and on the free rows, where no other column is nonzero, the
basis is the identity.  A map between section spaces is given by its rule
on codes; the image of a basis is composed on the basis's arrays, a
sparse product as in Gustavson (ACM TOMS 1978), its coordinates are read
off the target's free rows, with no elimination, and the target's arrays
rebuild the image from them, which checks over Z that it lies in the
span.  No matrix between the two ambient spaces, and no dense basis,
is built: point evaluation also reads the arrays.

Index sets are ordered lexicographically and monomials in graded-lex order
with x_0 > x_1 > ... > x_n, so all matrices are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from .exactalg import ExactMatrix, _check_modulus, residue_dtype

__all__ = [
    "DEFAULT_PRIME",
    "ConsistencyError",
    "FreeSum",
    "OmegaForms",
    "RestrictedOmega",
    "SectionSpace",
    "conormal_wedge",
    "contraction_matrix",
    "free_sections",
    "h0_basis",
    "monomials",
    "restricted_sections",
    "restriction_of_forms",
]

#: Working prime for section-space kernels.  The contraction complex is
#: defined over the integers and stays exact over every prime field, so a
#: fixed small prime gives the rational dimensions; tests cross-check
#: against further primes and against rational elimination.
DEFAULT_PRIME = 101


class ConsistencyError(RuntimeError):
    """An image vector failed to lie in its claimed section space."""


@dataclass(frozen=True)
class OmegaForms:
    """Omega^p(d) on P^n."""

    n: int
    p: int
    d: int


@dataclass(frozen=True)
class FreeSum:
    """O(d)^{+r} on P^n."""

    n: int
    d: int
    r: int


@dataclass(frozen=True)
class RestrictedOmega:
    """Omega^p_{P^n}(d) restricted to the hyperplane x_n = 0."""

    n: int
    p: int
    d: int


@dataclass(frozen=True, eq=False)
class SectionSpace:
    """An explicit basis of global sections over GF(q), or Q for q None.

    The ambient space has ``size`` rows, coded (I, m) -> rank(I) * ``width``
    + rank(m) (for a free sum, copy j of O(d) in place of I).  The basis is
    stored once, as its nonzeros: read-only int64 arrays ``col``, ``row``
    and ``sign``, sorted by column, each column's free row first, where no
    other column is nonzero.  The arrays are the same on every field: each
    entry is its sign, +/-1, over Q and that sign modulo q over GF(q), and
    each free entry is 1.  Spaces compare by identity.

    Two views of the same basis are built with it.  ``_decoded`` is the
    (set rank, monomial rank) of each nonzero's row, as maps out of the
    space read it.  ``_target`` is (rows, signs) as maps into the space read
    it: column k's entries padded to one row each, the free one first,
    ``signs[k, i]`` on the ambient row ``rows[k, i] - 1``, and row 0 with
    sign 0 where the column has no more entries.
    """

    descriptor: object
    q: int | None
    size: int
    width: int
    dim: int
    col: np.ndarray
    row: np.ndarray
    sign: np.ndarray
    _decoded: tuple = field(repr=False)
    _target: tuple = field(repr=False)


def _frozen(a):
    """``a``, read-only: section spaces and tables are cached and shared."""
    a.setflags(write=False)
    return a


def _space(descriptor, q, size: int, width: int, rows, signs) -> SectionSpace:
    """The space whose column k has the entry ``signs[k, i]`` on the ambient
    row ``rows[k, i]``: its free row at i = 0, and no entry where the sign
    is 0."""
    keep = signs != 0
    col, at = keep.nonzero()
    row = _frozen(rows[col, at])
    decoded = tuple(_frozen(a) for a in np.divmod(row, width))
    target = np.where(keep, rows + 1, 0), signs
    arrays = _frozen(col), row, _frozen(signs[col, at])
    return SectionSpace(descriptor, q, size, width, len(rows), *arrays, decoded, target)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple:
    """Exponent tuples of the given total degree, lex-descending.

    One variable gives x_0^degree for every degree, negative ones too: on
    P^0, a point, O(d) has one section for every d.  Two or more give none
    of negative degree."""
    if nvars == 1:
        return ((degree,),)
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    out = []
    for e0 in range(degree, -1, -1):
        out.extend((e0,) + rest for rest in monomials(nvars - 1, degree - e0))
    return tuple(out)


def index_sets(nvars: int, p: int) -> tuple:
    return tuple(itertools.combinations(range(nvars), p))


# -- lookup tables on codes ------------------------------------------------


@lru_cache(maxsize=None)
def _binomials(top: int) -> np.ndarray:
    """C(a, b) at [a, b] for a, b < top, clipped at 2^62 so that the table
    fits int64.  No entry that a rank reads is clipped: each is at most the
    number of sets or monomials ranked, which the arrays hold anyway."""
    table = [[min(comb(a, b), 2**62) for b in range(top)] for a in range(top)]
    return _frozen(np.array(table, dtype=np.int64).reshape(top, top))


class _Subsets(NamedTuple):
    """The p-subsets of {0..ndiff-1}, in lex order, and the ranks of the
    sets one step away from each, as ``_subsets`` gives them."""

    elements: np.ndarray  # each one's sorted elements, a row each
    least: np.ndarray  # its least element, ndiff + 1 for the empty set
    minus: np.ndarray  # its rank without its pos-th element, as a (p-1)-subset
    lower: np.ndarray  # as a subset of {0..ndiff-2}: its rank there, -1 if none
    kept: np.ndarray  # the ranks of those without ndiff - 1, in order
    ended: np.ndarray  # the ranks of those with ndiff - 1, in order


@lru_cache(maxsize=None)
def _subsets(ndiff: int, p: int) -> _Subsets:
    """The p-subsets of {0..ndiff-1}.  Those without ndiff - 1 are the
    p-subsets of {0..ndiff-2} in the same order, so ``kept`` is ``lower``
    inverted; and those with it are the (p-1)-subsets T of {0..ndiff-2}, as
    T + (ndiff - 1,), in the order of T.  No table is indexed by bitmask,
    whose range grows as 2^ndiff: each has one row per set.

    Reflected by t -> N - 1 - t, lex order is the reverse of colex order,
    so a k-subset {t_1 < ... < t_k} of {0..N-1} has the lex rank
    C(N, k) - 1 - sum_i C(N - 1 - t_i, k + 1 - i).  Without its pos-th
    element, the elements before it keep their index i and those after it
    move down by one, so ``minus`` is a prefix sum and a suffix sum."""
    sets = index_sets(ndiff, p)
    elements = np.array(sets, dtype=np.int64).reshape(len(sets), p)
    least = elements[:, 0] if p else np.full(len(sets), ndiff + 1)
    table, i = _binomials(max(ndiff, p) + 1), np.arange(1, p + 1)
    before = table[ndiff - 1 - elements, p - i]
    after = table[ndiff - 1 - elements, p + 1 - i]
    lead = np.cumsum(before, axis=1) - before
    tail = np.cumsum(after[:, ::-1], axis=1)[:, ::-1] - after
    minus = comb(ndiff, p - 1) - 1 - lead - tail if p else np.zeros((len(sets), 0), dtype=np.int64)
    inside = elements[:, -1] < ndiff - 1 if p else np.ones(len(sets), dtype=bool)
    kept, ended = np.flatnonzero(inside), np.flatnonzero(~inside)
    lower = np.full(len(sets), -1)
    lower[kept] = np.arange(len(kept))
    tables = elements, least, minus, lower, kept, ended
    return _Subsets(*(_frozen(a) for a in tables))


@lru_cache(maxsize=None)
def _exponents(nvar: int, degree: int) -> np.ndarray:
    """The exponent rows of ``monomials(nvar, degree)``, as an int64 array."""
    mons = monomials(nvar, degree)
    return _frozen(np.array(mons, dtype=np.int64).reshape(len(mons), nvar))


@lru_cache(maxsize=None)
def _times(nvar: int, degree: int) -> np.ndarray:
    """Row j, entry m: the rank of x_j * m among monomials of degree + 1,
    for m ranked among those of ``degree`` in x_0..x_{nvar-1}.

    A monomial is preceded, at each position i, by those that agree with it
    before i and are larger at i: C(a - 1 + v, v) of them, where a >= 1 is
    its degree after i and v the number of variables after i.  x_j raises a
    by one at each i < j, which adds C(a + v - 1, v - 1) there, and changes
    nothing at the others, so x_0 * m keeps the rank of m."""
    e = _exponents(nvar, degree)
    if not nvar:
        return _frozen(np.zeros((0, len(e)), dtype=np.int64))
    after = np.cumsum(e[:, :0:-1], axis=1)[:, ::-1]
    v = np.arange(nvar - 1, 0, -1)
    gain = np.cumsum(_binomials(max(degree, 0) + nvar)[after + v - 1, v - 1], axis=1)
    gain = np.concatenate([np.zeros((len(e), 1), dtype=np.int64), gain], axis=1)
    return _frozen(gain.T + np.arange(len(e)))


@lru_cache(maxsize=None)
def _least_variable(nvar: int, degree: int) -> tuple:
    """(least, quotient): for each monomial m of ``degree`` in
    x_0..x_{nvar-1}, its least variable v (nvar for m = 1) and the rank of
    m / x_v among monomials of degree - 1 (-1 for m = 1).  Multiplication
    by x_v keeps the graded-lex order, so each row of ``_times`` increases
    and m / x_v is found in row v by bisection."""
    e = _exponents(nvar, degree)
    if degree < 1 or not nvar:
        return _frozen(np.full(len(e), nvar)), _frozen(np.full(len(e), -1))
    least = e.astype(bool).argmax(axis=1)
    times = _times(nvar, degree - 1)
    # Row v offset by v * len(e) makes one increasing array of every row.
    offset = np.arange(nvar)[:, None] * len(e)
    found = np.searchsorted((times + offset).ravel(), np.arange(len(e)) + least * len(e))
    return _frozen(least), _frozen(found - least * times.shape[1])


@lru_cache(maxsize=None)
def _truncation(nvar: int, degree: int) -> np.ndarray:
    """Entry m: the rank of m among monomials in x_0..x_{nvar-2} once the
    last variable is set to 0, -1 where it occurs in m.  The monomials
    without it keep their graded-lex order."""
    kept = _exponents(nvar, degree)[:, -1] == 0
    return _frozen(np.where(kept, np.cumsum(kept) - 1, -1))


def _code(sets, mons, width: int):
    """Codes set * width + monomial, -1 wherever either is -1 (no term)."""
    return np.where((sets | mons) < 0, -1, sets * width + mons)


# -- matrices and section spaces -------------------------------------------


def _contraction(p: int, d: int, ndiff: int, nvar: int, q) -> ExactMatrix:
    """Matrix of contraction with sum_{i < nvar} x_i d/dx_i.

    x^m dx_I goes to the sum over positions of I below nvar of
    (-1)^pos x_{I[pos]} x^m dx_{I - I[pos]}; deleting different positions
    of an index set gives different index sets, so each (row, column) is
    set at most once.
    """
    dom, cod = _subsets(ndiff, p), _subsets(ndiff, p - 1)
    width, cod_width = len(_exponents(nvar, d - p)), len(_exponents(nvar, d - p + 1))
    s, pos = np.nonzero(dom.elements < nvar)
    rows = (dom.minus[s, pos] * cod_width)[:, None] + _times(nvar, d - p)[dom.elements[s, pos]]
    cols = (s * width)[:, None] + np.arange(width)
    vals = np.broadcast_to(np.where(pos % 2, -1, 1)[:, None], rows.shape)
    return _assemble(
        len(cod.elements) * cod_width,
        len(dom.elements) * width,
        rows.ravel().tolist(),
        cols.ravel().tolist(),
        vals.ravel().tolist(),
        q,
    )


def _assemble(nrows: int, ncols: int, rows, cols, vals, q) -> ExactMatrix:
    """Matrix with the Python int vals[k] at (rows[k], cols[k]), each
    position given at most once, filled as one array of ``residue_dtype(q)``
    in which only the given values need reducing (over Q none do).  q was
    checked by the public function that received it."""
    if q is not None:
        vals = [v % q for v in vals]
    a = np.zeros((nrows, ncols), dtype=residue_dtype(q))
    a[rows, cols] = vals
    return ExactMatrix._wrap(a, q)


def contraction_matrix(n: int, p: int, d: int, q=None) -> ExactMatrix:
    """Euler contraction from p-forms to (p-1)-forms of twist d on P^n.

    Entries are 0 and +/-1; a 0x0 matrix when the domain is empty.  The
    section bases do not eliminate it: their closed form is checked against
    this matrix's ``kernel_basis`` in the tests.
    """
    if not 1 <= p <= n + 1:
        raise ValueError("contraction needs 1 <= p <= n+1, got p=%d" % p)
    _check_modulus(q)
    return _contraction(p, d, n + 1, n + 1, q)


def _kernel_sections(desc, nvar: int, q) -> SectionSpace:
    """Sections of ``desc``'s twist d among its p-forms in dx_0..dx_n with
    coefficients in x_0..x_{nvar-1}: the kernel of contraction iota with
    sum_{i < nvar} x_i d/dx_i, as ``kernel_basis`` gives it over either
    field (the identity on the RREF's free columns), filled in closed form.

    Contraction keeps the multidegree m + 1_J of x^m dx_J, so the matrix is
    block diagonal.  In the block of (J, m), v0 is the least j < nvar with
    m_j > 0 or j in J.  The pivot columns are the (J, m) with v0 in J.  A
    free column w = x^m dx_J has the kernel vector w - h(iota w), with
    h = dx_{v0} ^ (.) / x_{v0}:

        x^m dx_J - sum_{pos: J[pos] < nvar} (-1)^pos x^(m + e_J[pos] - e_v0) dx_{(v0,) + J - J[pos]}

    It lies in the kernel, since iota h + h iota = 1.  It is the RREF's
    kernel vector: its other entries are at pivot columns, all before
    (J, m) because v0 < min J, and the pivot columns are independent,
    since the terms of iota(dx_{v0} ^ u) = x_{v0} u - dx_{v0} ^ iota(u)
    without dx_{v0} determine u.  So the free columns depend on earlier
    ones and the pivot columns do not.  Every entry is +/-1, so over Q each
    column is already primitive, the same integers as over GF(q).  A column
    with no v0 (restricted p = 1, J = (n,), m = 0) is zero, and its kernel
    vector is itself; at p = 0 every column is free and the basis is the
    identity.  All of it is computed on codes, for every (J, m) at once.
    """
    n, p, d = desc.n, desc.p, desc.d
    sub = _subsets(n + 1, p)
    low_m, quotient = _least_variable(nvar, d - p)
    width = len(low_m)
    # v0 is the least of m's least variable (nvar for m = 1) and J's least
    # element below nvar (above nvar for none: restricted forms have dx_n but
    # no x_n); (J, m) is free when v0 is m's.
    low_j = sub.least if nvar > n else np.where(sub.least < nvar, sub.least, nvar + 1)
    fs, fm = np.nonzero(low_m < low_j[:, None])
    # Column k as a row of 1 + p entries: its free row, then the homotopy
    # term of each position of J, x^m dx_J -> x_j x^m / x_v0 dx_{(v0,) + J - j},
    # where j = J[pos] is below nvar (a prefix of the positions).
    js = sub.elements[fs]
    below = js < nvar
    # (v0,) + T, for T = J - j and v0 < min T, has the lex rank of T among
    # the (p-1)-subsets plus C(n+1, p) - C(n+1, p-1) - C(n - v0, p), by the
    # sum in _subsets.
    sets = sub.minus[fs]
    if p:
        head = [comb(n + 1, p) - comb(n + 1, p - 1) - comb(max(n - v, 0), p) for v in range(n + 2)]
        sets = sets + np.array(head)[low_m[fm]][:, None]
    mons = 0  # m = 1: no j is below nvar
    if d > p:
        js = js if nvar > n else np.minimum(js, nvar - 1)
        mons = _times(nvar, d - p - 1)[js, quotient[fm][:, None]]
    rows = np.concatenate([(fs * width + fm)[:, None], sets * width + mons], axis=1)
    signs = _homotopy_signs(p)[below.sum(axis=1)]
    return _space(desc, q, len(sub.elements) * width, width, rows, signs)


@lru_cache(maxsize=None)
def _homotopy_signs(p: int) -> np.ndarray:
    """Row v: the entries of a kernel column of p-forms whose index set has v
    positions below nvar: 1 on its free row, then -(-1)^pos for pos < v, and
    0 after.  The same integers on every field."""
    rows = [[1] + [(-1) ** (pos + 1) if pos < v else 0 for pos in range(p)] for v in range(p + 1)]
    return _frozen(np.array(rows, dtype=np.int64))


@lru_cache(maxsize=None)
def h0_basis(n: int, p: int, d: int, q=DEFAULT_PRIME) -> SectionSpace:
    """Basis of H^0(P^n, Omega^p(d)) as the Koszul-contraction kernel.

    p = 0 returns the monomial basis of degree-d polynomials; p = n+1 is
    allowed and always empty.  Empty spaces are first-class 0-column
    matrices, never errors.
    """
    if not 0 <= p <= n + 1:
        raise ValueError("form degree p=%d out of range for P^%d" % (p, n))
    _check_modulus(q)
    return _kernel_sections(OmegaForms(n, p, d), n + 1, q)


@lru_cache(maxsize=None)
def restricted_sections(n: int, p: int, d: int, q=DEFAULT_PRIME) -> SectionSpace:
    """Sections of Omega^p_{P^n}(d) restricted to the hyperplane x_n = 0.

    Modeled as the kernel of contraction with the truncated Euler field
    sum_{i<n} x_i d/dx_i on forms in dx_0..dx_n whose coefficients involve
    x_0..x_{n-1} only.
    """
    if n < 1:
        raise ValueError("restriction needs n >= 1")
    if not 0 <= p <= n + 1:
        raise ValueError("form degree p=%d out of range" % p)
    _check_modulus(q)
    return _kernel_sections(RestrictedOmega(n, p, d), n, q)


@lru_cache(maxsize=None)
def free_sections(n: int, d: int, r: int, q=DEFAULT_PRIME) -> SectionSpace:
    """Sections of O(d)^{+r} on P^n: r stacked monomial bases, each column
    one term 1, coded copy * width + monomial."""
    if r < 0:
        raise ValueError("multiplicity must be nonnegative")
    _check_modulus(q)
    width = len(_exponents(n + 1, d))
    every = np.arange(r * width)[:, None]
    return _space(FreeSum(n, d, r), q, r * width, width, every, np.ones_like(every))


# -- maps between section spaces -------------------------------------------


def _ambient_map(src: SectionSpace, rule) -> tuple:
    """Image of the basis of ``src`` in the target's ambient codes,
    composed on the basis's arrays: (codes, values), one entry per term
    of the rule and nonzero of the basis, the last axis along ``src.row``.
    A code is -1 where the rule gives no term; values are not summed or
    reduced.

    ``rule(sets, mons)`` takes the source rows' set ranks (copy indices
    for a free sum) and monomial ranks, and returns target codes, shaped
    (terms, rows) or (rows,), with signs that broadcast to them.  No
    ambient-to-ambient matrix and no dense image is built.
    """
    codes, signs = rule(*src._decoded)
    return codes, signs * src.sign


def _section_map(src: SectionSpace, tgt: SectionSpace, rule, what: str) -> ExactMatrix:
    """Matrix, between the section bases, of the map of forms with the
    code rule ``rule`` of ``_ambient_map``; ``what`` names it if an image
    does not lie in ``tgt``.

    The image of the basis of ``src`` is summed once, per (row, column),
    into a dense array over ``tgt``'s ambient rows, and its coordinates are
    selected, not solved for.  On its free rows the target basis B is the
    identity, so an image B @ Y has the rows Y there.  B @ Y, built from
    Y's nonzeros and their columns of ``tgt._target``, must then equal the
    image exactly over Z, on every field, and only then is Y reduced mod q.
    B and the source basis are the same integers on every field and every
    display rule is a map of forms over Z, so a valid map passes; an image
    outside the span differs from B times its selected coordinates, so the
    check is exact and complete, also where -1 = 1 mod q.

    The coordinates are written from their nonzeros, so the matrix is
    handed that pattern (those of Y's entries that are not 0 mod q, in
    row-major order) and never scans itself for its rank or products.
    """
    q = tgt.q
    codes, values = _ambient_map(src, rule)
    rows, signs = tgt._target
    cols = src.dim
    # Row 0 of the image holds the rule's "no term", code -1.
    keys = (codes + 1) * cols + src.col
    image = np.bincount(keys.ravel(), values.ravel(), (tgt.size + 1) * cols)
    image = image.reshape(tgt.size + 1, cols)
    free = image[rows[:, 0]]
    k, c = (free != 0).nonzero()
    y = free[k, c]
    np.subtract.at(image, (rows[k], c[:, None]), signs[k] * y[:, None])
    if image[1:].any():
        raise ConsistencyError("%s: image does not lie in %r" % (what, tgt.descriptor))
    # Past int64 the residues mod q are Python ints, and so is their reduction.
    y = y.astype(np.int64).astype(residue_dtype(q), copy=False)
    if q is not None:
        y %= q
        keep = y != 0
        k, c, y = k[keep], c[keep], y[keep]
    out = np.zeros((tgt.dim, cols), dtype=residue_dtype(q))
    out[k, c] = y
    return ExactMatrix._wrap(out, q, (k, c))


def restriction_of_forms(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of H^0(Omega^p_{P^n}(d)) -> H^0(Omega^p_{P^{n-1}}(d)).

    Sets x_n = 0 in coefficients, deletes terms whose index set contains n,
    and expresses the result in the target section basis.
    """
    if n < 1:
        raise ValueError("restriction needs n >= 1")
    src = h0_basis(n, p, d, q)
    tgt = h0_basis(n - 1, p, d, q)
    lower, trunc = _subsets(n + 1, p).lower, _truncation(n + 1, d - p)

    def rule(sets, mons):
        # (I, m) -> (I, m|x_n=0), none if n in I or x_n divides m.
        return _code(lower[sets], trunc[mons], tgt.width), 1

    return _section_map(src, tgt, rule, "restriction_of_forms(%d,%d,%d)" % (n, p, d))


def conormal_wedge(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of w |-> dx_n ^ w from H^0(Omega^p_{P^{n-1}}(d-1)) into the
    restricted sections of Omega^{p+1}_{P^n}(d).  Injective."""
    if n < 1 or not 0 <= p <= n - 1:
        raise ValueError("conormal wedge needs n >= 1 and 0 <= p <= n-1")
    src = h0_basis(n - 1, p, d - 1, q)
    tgt = restricted_sections(n, p + 1, d, q)
    ended = _subsets(n + 1, p + 1).ended

    def rule(sets, mons):
        # (I, m) -> (I + (n,), m), sign (-1)^p: dx_n moves past dx_I.
        return ended[sets] * tgt.width + mons, -1 if p % 2 else 1

    return _section_map(src, tgt, rule, "conormal_wedge(%d,%d,%d)" % (n, p, d))


def drop_last_differential(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of restricted sections of Omega^p_{P^n}(d) onto
    H^0(Omega^p_{P^{n-1}}(d)): delete every dx_n term."""
    if n < 1:
        raise ValueError("needs n >= 1")
    src = restricted_sections(n, p, d, q)
    tgt = h0_basis(n - 1, p, d, q)
    lower = _subsets(n + 1, p).lower

    def rule(sets, mons):
        # (I, m) -> (I, m), none if n in I.
        return _code(lower[sets], mons, tgt.width), 1

    return _section_map(src, tgt, rule, "drop_last_differential(%d,%d,%d)" % (n, p, d))


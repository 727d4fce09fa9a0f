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

Each section space stores its basis once, as terms: the (ambient row,
coefficient) pairs of each column, the first on the column's free row, one
ambient row per column (the free forms above, and every row of a free
sum).  On those rows the basis is the identity over GF(q) and a diagonal
of +/-1 over Q.  A map between section spaces is given by its rule on
terms x^m dx_I; the image of a basis is composed on the basis's terms, its
coordinates are read off the target's free rows, with no elimination, and
the target's terms rebuild the image from them, which checks that it lies
in the span.  No matrix between the two ambient spaces, and no dense
image, is built; the dense basis is assembled from the terms only when
point evaluation asks for it.

Index sets are ordered lexicographically and monomials in graded-lex order
with x_0 > x_1 > ... > x_n, so all matrices are reproducible across runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .bott import binom, h_O
from .exactalg import ExactMatrix, _check_modulus, residue_dtype

__all__ = [
    "DEFAULT_PRIME",
    "ConsistencyError",
    "FreeSum",
    "OmegaForms",
    "RestrictedOmega",
    "SectionSpace",
    "claim_i_kernel_test",
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


@dataclass(frozen=True)
class SectionSpace:
    """An explicit basis of global sections over GF(q), or Q for q None.

    ``key`` lists the ambient coordinate pairs, and ``index`` maps each to
    its row, so maps into the space look rows up without rebuilding it.
    ``terms`` is the basis: per column, its nonzero entries as (ambient
    row, value) pairs, values reduced residues over GF(q) and +/-1 over Q,
    the first on the column's free row, where no other column is nonzero.
    ``free`` maps each free row to (its column, the entry there: 1 over
    GF(q), +/-1 over Q), and ``basis`` is the dense len(key) x dim matrix;
    both are read off ``terms`` on first use and kept, and neither takes
    part in comparisons.
    """

    descriptor: object
    q: int | None
    key: tuple
    terms: tuple = field(repr=False)
    index: dict = field(repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.terms)

    @cached_property
    def free(self) -> dict:
        return {column[0][0]: (k, column[0][1]) for k, column in enumerate(self.terms)}

    @cached_property
    def basis(self) -> ExactMatrix:
        rows = [i for column in self.terms for i, _ in column]
        cols = [c for c, column in enumerate(self.terms) for _ in column]
        vals = [v for column in self.terms for _, v in column]
        return _assemble(len(self.key), self.dim, rows, cols, vals, self.q)


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple:
    """Exponent tuples of the given total degree, lex-descending."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for e0 in range(degree, -1, -1):
        out.extend((e0,) + rest for rest in monomials(nvars - 1, degree - e0))
    return tuple(out)


def index_sets(nvars: int, p: int) -> tuple:
    return tuple(itertools.combinations(range(nvars), p))


@lru_cache(maxsize=None)
def _key(ndiff: int, nvar: int, p: int, d: int) -> tuple:
    """Ambient coordinate key of p-forms of twist d in dx_0..dx_{ndiff-1}
    with coefficients in x_0..x_{nvar-1}: the pairs (I, m) in order."""
    if p < 0 or p > ndiff or d < p:
        return ()
    return tuple(
        (I, m) for I in index_sets(ndiff, p) for m in monomials(nvar, d - p)
    )


def _mult_var(m: tuple, j: int) -> tuple:
    return m[:j] + (m[j] + 1,) + m[j + 1 :]


def _contraction(p: int, d: int, ndiff: int, nvar: int, q) -> ExactMatrix:
    """Matrix of contraction with sum_{i < nvar} x_i d/dx_i.

    Deleting different positions of an index set gives different index
    sets, so each (row, column) is set at most once.
    """
    dom = _key(ndiff, nvar, p, d)
    cod = _key(ndiff, nvar, p - 1, d)
    cod_index = {pair: i for i, pair in enumerate(cod)}
    rows, cols, vals = [], [], []
    for col, (I, m) in enumerate(dom):
        for pos, j in enumerate(I):
            if j >= nvar:
                continue
            rows.append(cod_index[(I[:pos] + I[pos + 1 :], _mult_var(m, j))])
            cols.append(col)
            vals.append(-1 if pos % 2 else 1)
    return _assemble(len(cod), len(dom), rows, cols, vals, q)


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
    sum_{i < nvar} x_i d/dx_i, as ``kernel_basis`` gives it (the identity
    on the RREF's free columns over GF(q); over Q each column negated when
    its first nonzero entry is negative), filled in closed form.

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
    ones and the pivot columns do not, and over Q only the sign rule is
    left, as every entry is +/-1.  A column with no v0 (restricted p = 1,
    J = (n,), m = 0) is zero, and its kernel vector is itself; at p = 0
    every column is free and the basis is the identity.  Each column is
    stored as its terms, its free row (J, m) first; nothing dense is built.
    """
    n, p, d = desc.n, desc.p, desc.d
    key = _key(n + 1, nvar, p, d)
    index = {pair: i for i, pair in enumerate(key)}
    columns = []
    for row, (J, m) in enumerate(key):
        v0 = next((j for j in range(nvar) if m[j] or j in J), None)
        if v0 is not None and v0 in J:
            continue  # a pivot column
        terms = [(row, 1)]
        for pos, j in enumerate(J):
            if j < nvar:
                shifted = list(m)
                shifted[j] += 1
                shifted[v0] -= 1
                other = ((v0,) + J[:pos] + J[pos + 1 :], tuple(shifted))
                terms.append((index[other], 1 if pos % 2 else -1))
        if q is not None:
            terms = [(i, v % q) for i, v in terms]
        # Over Q, kernel_basis negates a column whose first nonzero is negative.
        elif min(terms)[1] < 0:
            terms = [(i, -v) for i, v in terms]
        columns.append(tuple(terms))
    return SectionSpace(desc, q, key, tuple(columns), index)


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
    """Sections of O(d)^{+r} on P^n: r stacked monomial bases, each column one term 1."""
    if r < 0:
        raise ValueError("multiplicity must be nonnegative")
    _check_modulus(q)
    mons = monomials(n + 1, d)
    key = tuple((j, m) for j in range(r) for m in mons)
    index = {pair: i for i, pair in enumerate(key)}
    return SectionSpace(FreeSum(n, d, r), q, key, tuple(((i, 1),) for i in range(len(key))), index)


def _ambient_map(src: SectionSpace, tgt: SectionSpace, entries) -> dict:
    """Image of ``src.basis`` in the ambient coordinates of ``tgt``,
    composed on terms: {(target row, column): value}, values Python ints
    not reduced modulo q.

    ``entries(pair)`` yields (target pair, coefficient) terms for one
    source coordinate; a target pair may repeat.  Each of ``src``'s column
    terms is pushed through the terms of its row, and the products are
    summed per (target row, column), so no ambient-to-ambient matrix and
    no dense image is built.
    """
    index = tgt.index
    image = {}
    for c, column in enumerate(src.terms):
        for r, v in column:
            for tgt, x in entries(src.key[r]):
                cell = index[tgt], c
                image[cell] = image.get(cell, 0) + x * v
    return image


def _section_map(src: SectionSpace, tgt: SectionSpace, entries, what: str) -> ExactMatrix:
    """Matrix, between the section bases, of the map of forms with the
    term rule ``entries`` of ``_ambient_map``; ``what`` names it if an
    image does not lie in ``tgt``.

    The image of ``src.basis`` is composed on terms, and its coordinates
    are selected, not solved for.  On the rows ``tgt.free`` the target
    basis B is a diagonal D of 1s over GF(q) and of +/-1s over Q, so an
    image B @ Y has the rows D @ Y there, and Y is those rows times D.
    The target's column terms then rebuild B @ Y, and it must equal the
    image at every ambient row, modulo q over GF(q) and exactly over Q.  An
    image outside the span differs from B times its selected coordinates,
    so the check is exact and complete.
    """
    q = tgt.q
    image = _ambient_map(src, tgt, entries)
    coords = {}
    for (i, c), v in image.items():
        if i in tgt.free:
            k, s = tgt.free[i]
            coords[k, c] = v * s if q is None else v * s % q
    residual = dict(image)
    for (k, c), y in coords.items():
        for i, v in tgt.terms[k]:
            residual[i, c] = residual.get((i, c), 0) - v * y
    if any(residual.values()) if q is None else any(x % q for x in residual.values()):
        raise ConsistencyError("%s: image does not lie in %r" % (what, tgt.descriptor))
    rows, cols = [k for k, _ in coords], [c for _, c in coords]
    return _assemble(tgt.dim, src.dim, rows, cols, list(coords.values()), q)


def restriction_of_forms(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of H^0(Omega^p_{P^n}(d)) -> H^0(Omega^p_{P^{n-1}}(d)).

    Sets x_n = 0 in coefficients, deletes terms whose index set contains n,
    and expresses the result in the target section basis.
    """
    if n < 1:
        raise ValueError("restriction needs n >= 1")
    src = h0_basis(n, p, d, q)
    tgt = h0_basis(n - 1, p, d, q)

    def entries(pair):
        I, m = pair
        if n in I or m[n] > 0:
            return ()
        return ((I, m[:n]), 1),

    return _section_map(src, tgt, entries, "restriction_of_forms(%d,%d,%d)" % (n, p, d))


def conormal_wedge(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of w |-> dx_n ^ w from H^0(Omega^p_{P^{n-1}}(d-1)) into the
    restricted sections of Omega^{p+1}_{P^n}(d).  Injective."""
    if n < 1 or not 0 <= p <= n - 1:
        raise ValueError("conormal wedge needs n >= 1 and 0 <= p <= n-1")
    src = h0_basis(n - 1, p, d - 1, q)
    tgt = restricted_sections(n, p + 1, d, q)
    sign = -1 if p % 2 else 1

    def entries(pair):
        I, m = pair
        return ((I + (n,), m), sign),

    return _section_map(src, tgt, entries, "conormal_wedge(%d,%d,%d)" % (n, p, d))


def drop_last_differential(n: int, p: int, d: int, q=DEFAULT_PRIME) -> ExactMatrix:
    """Matrix of restricted sections of Omega^p_{P^n}(d) onto
    H^0(Omega^p_{P^{n-1}}(d)): delete every dx_n term."""
    if n < 1:
        raise ValueError("needs n >= 1")
    src = restricted_sections(n, p, d, q)
    tgt = h0_basis(n - 1, p, d, q)

    def entries(pair):
        I, m = pair
        if n in I:
            return ()
        return ((I, m), 1),

    return _section_map(src, tgt, entries, "drop_last_differential(%d,%d,%d)" % (n, p, d))


def claim_i_kernel_test(n: int, p: int, d: int, q=DEFAULT_PRIME) -> bool:
    """Section-level check that the kernel of restriction of (p+1)-forms is
    a sum of binom(n, p+1) line bundles of twist -p-2."""
    if p + 1 > n:
        raise ValueError("needs p+1 <= n")
    mat = restriction_of_forms(n, p + 1, d, q)
    kernel_dim = mat.cols - mat.rank()
    return kernel_dim == binom(n, p + 1) * h_O(n, d - p - 2, 0)

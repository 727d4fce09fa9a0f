"""Section spaces as Koszul-contraction kernels, and the maps between them."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistforms.bott import binom, h_O, h_omega
from twistforms.display import build_display, ledger_for, verify_display
from twistforms.exactalg import ExactMatrix
from twistforms.forms import (
    ConsistencyError,
    FreeSum,
    OmegaForms,
    RestrictedOmega,
    _ambient_map,
    _assemble,
    _contraction,
    _kernel_sections,
    _section_map,
    _times,
    conormal_wedge,
    contraction_matrix,
    drop_last_differential,
    free_sections,
    h0_basis,
    index_sets,
    monomials,
    restricted_sections,
    restriction_of_forms,
)
from twistforms.horace import plan, verify_tree
from twistforms.maxrank import (
    PointSet,
    RankCertificate,
    certify_counts,
    eval_matrix,
    maxrank_test,
    point,
    random_points,
    verify_certificate,
)


def row_list(m):
    """Entries of an ExactMatrix as a list of row lists (Python ints over
    GF(q), ints and Fractions over Q)."""
    return m._a.tolist()


def dense_basis(space):
    """A section space's basis as a dense size x dim matrix, assembled from
    its stored nonzeros."""
    rows, cols, vals = space.row.tolist(), space.col.tolist(), space.sign.tolist()
    return _assemble(space.size, space.dim, rows, cols, vals, space.q)


def pairs(ndiff, nvar, p, d):
    """The ambient pairs (I, m) of p-forms of twist d in dx_0..dx_{ndiff-1}
    with coefficients in x_0..x_{nvar-1}, in code order."""
    if p < 0 or p > ndiff or d < p:
        return []
    return [(I, m) for I in index_sets(ndiff, p) for m in monomials(nvar, d - p)]


def ambient_key(space):
    """The pair of each ambient row of a section space, in code order: (j, m)
    for copy j of a free sum."""
    desc = space.descriptor
    if isinstance(desc, FreeSum):
        return [(j, m) for j in range(desc.r) for m in monomials(desc.n + 1, desc.d)]
    nvar = desc.n if isinstance(desc, RestrictedOmega) else desc.n + 1
    return pairs(desc.n + 1, nvar, desc.p, desc.d)


def column_terms(space):
    """The basis's nonzeros, column by column, as (ambient row, entry) pairs:
    the sign over Q, the sign mod q over GF(q)."""
    q = space.q
    columns = [[] for _ in range(space.dim)]
    for c, i, v in zip(space.col.tolist(), space.row.tolist(), space.sign.tolist()):
        columns[c].append((i, v if q is None else v % q))
    return columns


def free_rows(space):
    """{free row: (column, entry there)}, read off each column's first term."""
    return {column[0][0]: (k, column[0][1]) for k, column in enumerate(column_terms(space))}


def _mult_var(m, j):
    return m[:j] + (m[j] + 1,) + m[j + 1 :]


def test_monomial_order_is_graded_lex():
    assert monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomials(2, -1) == ()


def test_contraction_112_explicit():
    # Domain: x0 dx0, x1 dx0, x0 dx1, x1 dx1; codomain: x0^2, x0 x1, x1^2.
    m = contraction_matrix(1, 1, 2, q=None)
    assert row_list(m) == [
        [1, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 1],
    ]


def test_contraction_222_sign_rule():
    # dx0^dx1 with constant coefficient maps to x0 dx1 - x1 dx0.
    m = contraction_matrix(2, 2, 2, q=None)
    src = h0_basis(2, 2, 2, q=None)
    assert src.size == 3
    col0 = [row[0] for row in row_list(m)]
    # Codomain key: (dx0, x0), (dx0, x1), (dx0, x2), (dx1, x0), ...
    assert col0[1] == -1  # -x1 dx0
    assert col0[3] == 1  # +x0 dx1
    assert sum(1 for v in col0 if v) == 2


@pytest.mark.parametrize("q", [101, None])
def test_koszul_composes_to_zero(q):
    for n in range(1, 4):
        for p in range(2, n + 2):
            for d in range(p, p + 3):
                a = contraction_matrix(n, p - 1, d, q=q)
                b = contraction_matrix(n, p, d, q=q)
                if a.cols and b.rows:
                    assert (a @ b).is_zero(), (n, p, d)


def test_h0_dimension_matches_formula_small_grid():
    for n in range(1, 4):
        for p in range(n + 1):
            for d in range(0, p + 4):
                assert h0_basis(n, p, d).dim == h_omega(n, p, d, 0), (n, p, d)


def test_sections_on_a_high_dimensional_space():
    # Tables grow with the number of index sets, not with 2^n (a rank table
    # over the bitmasks of 41 differentials would take 2^41 entries): spaces
    # of low degree on P^40 build at once, with the dimension the formula
    # gives, and so does a map between them.
    for p, d in ((1, 2), (2, 3), (0, 1)):
        assert h0_basis(40, p, d).dim == h_omega(40, p, d, 0), (p, d)
    assert restriction_of_forms(40, 1, 2).shape == (h_omega(39, 1, 2, 0), h_omega(40, 1, 2, 0))
    # On P^70 the binomials C(70, 35) > 2^63 of a full table cannot be held,
    # and no rank of these small spaces needs them.
    for p, d in ((1, 2), (69, 70), (70, 70)):
        assert h0_basis(70, p, d).dim == h_omega(70, p, d, 0), (p, d)


def test_h0_basis_examples():
    assert h0_basis(1, 1, 2).dim == 1
    assert h0_basis(2, 1, 2).dim == 3
    assert h0_basis(2, 1, 1).dim == 0


def test_h0_empty_space_is_first_class():
    space = h0_basis(2, 1, 0)
    assert space.dim == 0
    assert dense_basis(space).cols == 0


def test_rational_and_modular_ranks_agree_on_forms_matrices():
    # The contraction complex is defined over the integers; its rank must
    # not drop modulo any prime in the working range.
    for n in range(1, 4):
        for p in range(1, n + 2):
            for d in range(p, p + 3):
                m = contraction_matrix(n, p, d, q=None)
                if not m.cols:
                    continue
                r = m.rank()
                for q in (101, 10007, 2):
                    mq = ExactMatrix(m.rows, m.cols, row_list(m), q=q)
                    assert mq.rank() == r, (n, p, d, q)


def test_restricted_sections_dimensions():
    assert restricted_sections(2, 1, 2).dim == 3
    assert restricted_sections(2, 1, 1).dim == 1
    assert restricted_sections(1, 0, 3).dim == 1


def test_restriction_of_forms_212():
    m = restriction_of_forms(2, 1, 2)
    assert m.shape == (1, 3)
    assert m.rank() == 1


def test_restriction_kernel_213():
    m = restriction_of_forms(2, 1, 3)
    assert m.shape == (2, 8)
    assert m.cols - m.rank() == 6


def test_restriction_on_constants_is_identity():
    for n in (1, 2, 3):
        m = restriction_of_forms(n, 0, 0)
        assert m.shape == (1, 1)
        assert m.rank() == 1


def test_restriction_surjective_when_unobstructed():
    # The kernel of the restriction is a sum of line bundles, whose first
    # cohomology vanishes on P^n for n >= 2, so the section map is onto.
    for n in (2, 3):
        for p in range(n):
            for d in range(p + 1, p + 5):
                m = restriction_of_forms(n, p, d)
                assert m.rank() == m.rows, (n, p, d)


def claim_i_kernel(n, p, d):
    """Row 2 of the display at t = d-p-2, which must be exact, and the
    kernel dimension of its restriction of (p+1)-forms of twist d, which
    must be binom(n, p+1) * h^0(O(d-p-2))."""
    row2 = ledger_for(build_display(n, p, d - p - 2)).sequences[0]
    assert row2.name == "row 2" and row2.ok, (n, p, d)
    kernel = row2.dims[1] - row2.rank_out
    assert kernel == binom(n, p + 1) * h_O(n, d - p - 2, 0), (n, p, d)
    return kernel


def test_claim_i_sweep():
    for n in range(1, 5):
        for p in range(n):
            for d in range(0, p + 5):
                claim_i_kernel(n, p, d)


def test_claim_i_examples():
    assert claim_i_kernel(2, 0, 3) == 6  # 2 * 3
    assert claim_i_kernel(2, 0, 2) == 2  # 2 * 1
    assert claim_i_kernel(3, 1, 2) == 0  # both sides zero


def test_conormal_wedge_injective_and_kills_drop():
    for n in (1, 2, 3):
        for p in range(n):
            for d in range(p + 1, p + 4):
                w = conormal_wedge(n, p, d)
                assert w.rank() == w.cols, (n, p, d)
                drop = drop_last_differential(n, p + 1, d)
                assert (drop @ w).is_zero(), (n, p, d)


def test_conormal_wedge_202():
    w = conormal_wedge(2, 0, 2)
    assert w.shape == (3, 2)
    assert w.rank() == 2


def test_conormal_wedge_degenerate_hyperplane_is_a_point():
    w = conormal_wedge(1, 0, 2)
    assert w.shape == (1, 1)
    assert w.rank() == 1


# -- array-built assembly against list-built references ----------------------


def _list_contraction(p, d, ndiff, nvar, q):
    dom, cod = pairs(ndiff, nvar, p, d), pairs(ndiff, nvar, p - 1, d)
    cod_index = {pair: i for i, pair in enumerate(cod)}
    rows = [[0] * len(dom) for _ in range(len(cod))]
    for col, (I, m) in enumerate(dom):
        for pos, j in enumerate(I):
            if j < nvar:
                rows[cod_index[(I[:pos] + I[pos + 1 :], _mult_var(m, j))]][col] = (
                    -1 if pos % 2 else 1
                )
    return ExactMatrix(len(cod), len(dom), rows, q=q)


def _list_ambient_map(src_key, tgt_key, entries, q):
    tgt_index = {pair: i for i, pair in enumerate(tgt_key)}
    rows = [[0] * len(src_key) for _ in range(len(tgt_key))]
    for col, pair in enumerate(src_key):
        for tgt, val in entries(pair):
            rows[tgt_index[tgt]][col] += val
    return ExactMatrix(len(tgt_key), len(src_key), rows, q=q)


@pytest.mark.parametrize("q", [2, 101, 2**61 - 1, None])
def test_contraction_matches_list_built(q):
    for n in range(1, 4):
        for p in range(1, n + 2):
            for d in range(p, p + 3):
                for nvar in (n + 1, n):
                    args = (p, d, n + 1, nvar, q)
                    assert _contraction(*args) == _list_contraction(*args), args


def _image_matrix(image, nrows, ncols, q):
    """A term image {(row, column): value} as a matrix, through the
    checking constructor."""
    rows = [[0] * ncols for _ in range(nrows)]
    for (i, c), v in image.items():
        rows[i][c] = v
    return ExactMatrix(nrows, ncols, rows, q=q)


def coded(rule, src, tgt):
    """A rule on pairs, pair -> [(target pair, coefficient)], as a rule on
    codes for ``_ambient_map``: one row of target codes (-1 for none) and
    coefficients per term."""
    src_key = ambient_key(src)
    tgt_index = {pair: i for i, pair in enumerate(ambient_key(tgt))}

    def on_codes(sets, mons):
        images = [list(rule(src_key[c])) for c in (sets * src.width + mons).tolist()]
        k = max(map(len, images), default=0)
        codes = np.full((k, len(images)), -1, dtype=np.int64)
        coeffs = np.zeros((k, len(images)), dtype=np.int64)
        for r, terms in enumerate(images):
            for t, (pair, x) in enumerate(terms):
                codes[t, r], coeffs[t, r] = tgt_index[pair], x
        return codes, coeffs

    return on_codes


def image_matrix(src, tgt, rule):
    """The image ``_ambient_map`` composes, summed per (row, column), as a
    matrix through the checking constructor."""
    codes, values = _ambient_map(src, rule)
    cols = np.broadcast_to(src.col, codes.shape).ravel().tolist()
    values = np.broadcast_to(values, codes.shape).ravel().tolist()
    image = {}
    for i, c, v in zip(codes.ravel().tolist(), cols, values):
        if i >= 0:
            image[i, c] = image.get((i, c), 0) + v
    return _image_matrix(image, tgt.size, src.dim, tgt.q)


@pytest.mark.parametrize("q", [2, 101, 2**61 - 1, None])
def test_ambient_map_matches_list_built(q):
    # The image of a section basis, composed on its arrays, against the
    # list-built ambient matrix times that basis: entry for entry, in dtype
    # and in Python entry type.
    # Up to two distinct targets per source pair, with coefficients that
    # are negative, zero or larger than q; then one target repeated, with
    # coefficients that are zero or cancel at some pairs.
    src, tgt = h0_basis(2, 1, 3, q), h0_basis(2, 0, 2, q)
    assert ambient_key(tgt) == pairs(3, 3, 0, 2) and tgt.size == tgt.width == 6

    def entries(pair):
        I, m = pair
        out = [(((), m), 1 - 3 * I[0])]
        if m[0] and m[1]:
            out.append((((), (m[0] - 1, m[1] + 1, m[2])), 7 * m[0] - 4))
        return out

    def repeated(pair):
        I, m = pair
        return [(((), m), 2), (((), m), I[0] - 2), (((), m), 0)]

    for rule in (entries, repeated):
        codes, values = _ambient_map(src, coded(rule, src, tgt))
        assert values.dtype == np.int64 and codes.shape[-1] == src.row.size
        amb = image_matrix(src, tgt, coded(rule, src, tgt))
        want = _list_ambient_map(ambient_key(src), ambient_key(tgt), rule, q) @ dense_basis(src)
        assert amb == want and amb.shape == (tgt.size, src.dim)
        assert amb._a.dtype == want._a.dtype
        assert [type(x) for x in amb._a.ravel()] == [type(x) for x in want._a.ravel()]
        assert not amb.is_zero()


@pytest.mark.parametrize("q", [2, 101, 2**31 - 1, 2**61 - 1])
def test_assemble_equals_constructed_matrix(q):
    # Values negative, zero, in range and past q; two empty shapes.
    some = [(0, 0, -1), (0, 3, 5), (1, 1, 0), (2, 0, q + 3), (2, 2, -q - 7), (3, 4, q - 1)]
    for nrows, ncols, cells in ((4, 5, some), (4, 5, []), (0, 3, []), (3, 0, [])):
        rows = [[0] * ncols for _ in range(nrows)]
        for i, j, v in cells:
            rows[i][j] = v
        want = ExactMatrix(nrows, ncols, rows, q=q)
        ii, jj, vals = [c[0] for c in cells], [c[1] for c in cells], [c[2] for c in cells]
        got = _assemble(nrows, ncols, ii, jj, vals, q)
        assert got == want and got.shape == want.shape
        assert got._a.dtype == want._a.dtype
        assert [type(x) for x in got._a.ravel()] == [type(x) for x in want._a.ravel()]
        assert got._a.tolist() == want._a.tolist()


@pytest.mark.parametrize("q", [2, 3, 101, 2**31 - 1, 2**61 - 1, None])
def test_closed_form_sections_equal_the_contraction_rref_kernel(q):
    # Entry for entry, in dtype and in Python entry type; d = p - 1 has no
    # forms, and nvar = n is the restricted case, which at p = d = 1 has a
    # zero column.  At p = 0 every form is a section.
    for n in range(5):
        for nvar in (n, n + 1):
            desc = OmegaForms if nvar == n + 1 else RestrictedOmega
            for p in range(n + 2):
                for d in range(p - 1, p + 4):
                    got = dense_basis(_kernel_sections(desc(n, p, d), nvar, q))
                    if p == 0:
                        want = ExactMatrix.identity(len(pairs(n + 1, nvar, 0, d)), q=q)
                    else:
                        want = _contraction(p, d, n + 1, nvar, q).kernel_basis()
                    case = (n, nvar, p, d)
                    assert got.shape == want.shape and got == want, case
                    assert got._a.dtype == want._a.dtype, case
                    assert [type(x) for x in got._a.ravel()] == [
                        type(x) for x in want._a.ravel()
                    ], case


@pytest.mark.parametrize("p, d", [(0, 2), (1, 2), (2, 4), (3, 2)])
def test_section_spaces_reject_a_composite_modulus(p, d):
    with pytest.raises(ValueError, match="not prime"):
        h0_basis(2, p, d, 100)
    with pytest.raises(ValueError, match="not prime"):
        restricted_sections(2, p, d, 100)


# Every public function that takes q checks it once; the private paths
# below it (``_assemble``, ``_no_small_hyperplane``) take q as checked.
_ENTRY_POINTS = {
    "ExactMatrix": lambda q: ExactMatrix(1, 1, [[1]], q=q),
    "ExactMatrix.identity": lambda q: ExactMatrix.identity(2, q=q),
    "contraction_matrix": lambda q: contraction_matrix(2, 1, 2, q),
    "h0_basis": lambda q: h0_basis(2, 1, 3, q),
    "restricted_sections": lambda q: restricted_sections(2, 1, 3, q),
    "free_sections": lambda q: free_sections(2, 1, 2, q),
    "restriction_of_forms": lambda q: restriction_of_forms(2, 1, 3, q),
    "conormal_wedge": lambda q: conormal_wedge(2, 0, 3, q),
    "drop_last_differential": lambda q: drop_last_differential(2, 1, 3, q),
    "build_display": lambda q: build_display(2, 0, 0, q),
    "verify_display": lambda q: verify_display(2, 0, 0, 0, q),
    # Five points on P^2 take no small-hyperplane check, so no rank.
    "random_points": lambda q: random_points(2, 5, q, seed=0),
    "point": lambda q: point([3, 6], q),
    # Built directly, so only eval_matrix sees the modulus.
    "eval_matrix": lambda q: eval_matrix(2, 0, 2, PointSet(((1, 2, 1),), q)),
    "maxrank_test": lambda q: maxrank_test(2, 0, 2, 4, q),
    "certify_counts": lambda q: certify_counts(2, 0, 2, [3, 4], q),
    "verify_certificate": lambda q: verify_certificate(
        RankCertificate(2, 0, 2, 1, q, 0, 1, (2, 8), 2, True, ((1, 2, 1),))
    ),
    "verify_tree": lambda q: verify_tree(plan(2, 0, 2, 4, 1), q),
}


@pytest.mark.parametrize("name", list(_ENTRY_POINTS))
def test_public_entry_points_reject_a_composite_modulus(name):
    with pytest.raises(ValueError, match="not prime"):
        _ENTRY_POINTS[name](100)


def test_each_display_makes_eight_section_maps(monkeypatch):
    # All eight display maps, the left column included, are section maps.
    from twistforms import display, forms

    calls = []

    def counted(src, tgt, entries, what):
        calls.append(what)
        return _section_map(src, tgt, entries, what)

    monkeypatch.setattr(forms, "_section_map", counted)
    monkeypatch.setattr(display, "_section_map", counted)
    cases = ((1, 0, 0), (2, 0, 1), (2, 1, 0), (3, 1, 1), (3, 2, 0))
    for k, (n, p, t) in enumerate(cases):
        display.build_display(n, p, t)
        assert len(calls) == 8 * (k + 1), (n, p, t)


# -- section maps by coordinate selection -------------------------------------

FIELDS = [2, 3, 101, 2**31 - 1, 2**61 - 1, None]


@pytest.mark.parametrize("q", FIELDS)
def test_free_rows_carry_the_identity(q):
    # On its free rows each basis is the identity on every field, empty
    # spaces included.  Each space's stored nonzeros reassemble to its
    # basis, entry for entry, and each column's term on its free row, its
    # first, is that diagonal entry.  Each space's codes number its ambient
    # pairs: size of them, width monomials per set.
    spaces = []
    for n in range(5):
        spaces += [free_sections(n, d, r, q) for d in range(-1, 4) for r in range(3)]
        for p in range(n + 2):
            for d in range(p - 1, p + 4):
                spaces.append(h0_basis(n, p, d, q))
                if n >= 1:
                    spaces.append(restricted_sections(n, p, d, q))
    for space in spaces:
        case = space.descriptor
        free, terms = free_rows(space), column_terms(space)
        assert len(free) == space.dim, case
        basis = dense_basis(space)
        block = basis._a[list(free)]
        diag = block.diagonal()
        assert not (block - np.diag(diag)).any(), case
        assert (diag == 1).all(), case
        assert len(terms) == space.dim, case
        cells = {(i, c): v for c, column in enumerate(terms) for i, v in column}
        assert len(cells) == sum(map(len, terms)) == space.sign.size, case
        assert all(v != 0 and type(v) is int for v in cells.values()), case
        assert set(space.sign.tolist()) <= {1, -1}, case
        rebuilt = _image_matrix(cells, space.size, space.dim, q)
        assert rebuilt == basis and rebuilt._a.dtype == basis._a.dtype, case
        for k, (column, f, x) in enumerate(zip(terms, free, diag.tolist())):
            assert column[0] == (f, x), case
            assert free[f] == (k, x) and type(x) is int, case
        key = ambient_key(space)
        assert space.size == len(key) and len(set(key)) == len(key), case
        assert space.width * len({pair[0] for pair in key}) == len(key), case
        # A column's nonzeros lie on distinct index sets, which point
        # evaluation relies on when it scatters them.
        cells = set(zip(space.col.tolist(), (space.row // max(space.width, 1)).tolist()))
        assert len(cells) == space.col.size, case


def _clear_section_caches():
    for cached in (h0_basis, restricted_sections, free_sections):
        cached.cache_clear()


def test_the_display_builds_no_dense_section_basis():
    # Display maps read only terms, so no node space assembles its basis.
    _clear_section_caches()
    for p in range(5):
        verify_display(5, p, 0, 2)
        for t in range(3):
            for name, space in build_display(5, p, t).nodes.items():
                assert "basis" not in vars(space), (p, t, name)


@pytest.mark.parametrize("q", [101, None])
def test_eval_matrix_assembles_no_dense_basis(monkeypatch, q):
    # Point evaluation reads the basis's column terms: two evaluations
    # assemble no matrix and leave no dense basis on the space.
    from twistforms import forms

    _clear_section_caches()
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return _assemble(*args)

    monkeypatch.setattr(forms, "_assemble", counted)
    pts = random_points(2, 4, q, seed=0)
    space = h0_basis(2, 1, 3, q)
    first = eval_matrix(2, 0, 2, pts)
    assert eval_matrix(2, 0, 2, pts) == first
    assert calls == [] and "basis" not in vars(space)


@pytest.mark.parametrize("q", [2, 101, None])
def test_rebuilt_section_spaces_compare_and_hash_equal(q):
    # Spaces compare by identity.  A rebuilt space has the same descriptor,
    # q, shape and three arrays, whatever was read off the first one.
    def state(space):
        arrays = (space.col.tobytes(), space.row.tobytes(), space.sign.tobytes())
        return (space.descriptor, space.q, space.size, space.width) + arrays

    def spaces():
        return [
            h0_basis(3, 1, 3, q),
            h0_basis(2, 0, 2, q),
            h0_basis(2, 1, 1, q),
            restricted_sections(3, 2, 4, q),
            free_sections(2, 1, 3, q),
        ]

    _clear_section_caches()
    before = spaces()
    for space in before[::2]:
        assert dense_basis(space).cols == len(free_rows(space)) == space.dim
    _clear_section_caches()
    after = spaces()
    for old, new in zip(before, after):
        assert old is not new and "basis" not in vars(new)
        assert old != new and state(old) == state(new), new.descriptor
    assert len({state(space) for space in before + after}) == len(before)
    assert len(set(before + after)) == 2 * len(before)


@pytest.mark.parametrize("q", FIELDS)
def test_section_maps_equal_the_solve_against_the_basis(monkeypatch, q):
    # Every user of _section_map (three in forms, five in the display)
    # against the old coordinates, the target's dense basis solved for the
    # image: entry for entry, in dtype and in Python entry type.
    from twistforms import display, forms

    seen = set()

    def checked(src, tgt, rule, what):
        got = _section_map(src, tgt, rule, what)
        want = dense_basis(tgt).solve(image_matrix(src, tgt, rule))
        assert got == want and got.shape == want.shape, what
        assert got._a.dtype == want._a.dtype, what
        assert [type(x) for x in got._a.ravel()] == [type(x) for x in want._a.ravel()], what
        seen.add(what.split("(")[0].strip())
        return got

    monkeypatch.setattr(forms, "_section_map", checked)
    monkeypatch.setattr(display, "_section_map", checked)
    for n, p, t in ((1, 0, 0), (2, 0, -1), (2, 1, 0), (3, 0, 1), (3, 1, -2), (3, 2, 0)):
        display.build_display(n, p, t, q)
    assert seen == {
        "restriction_of_forms",
        "conormal_wedge",
        "drop_last_differential",
        "kernel generators",
        "twist inclusion",
        "restriction to hyperplane",
        "top to free",
        "free to bottom_left",
    }


@pytest.mark.parametrize("q", FIELDS)
def test_section_map_rejects_an_image_outside_the_target(q):
    # The x_n twist of Omega^1(2) into Omega^1(3) on P^2, with one term of
    # a section dropped: the image no longer contracts to zero.  Then with
    # one term added on a row that is not free in the target: the image
    # differs from the span there only, and its free rows are untouched.
    top, middle = h0_basis(2, 1, 2, q), h0_basis(2, 1, 3, q)
    dropped = next(
        pair for pair, row in zip(ambient_key(top), row_list(dense_basis(top))) if any(row)
    )

    def twist(pair):
        I, m = pair
        return ((I, m[:2] + (m[2] + 1,)), 1),

    def entries(pair):
        return () if pair == dropped else twist(pair)

    non_free = next(i for i in range(middle.size) if i not in free_rows(middle))

    def added(pair):
        extra = ((ambient_key(middle)[non_free], 1),) if pair == dropped else ()
        return twist(pair) + extra

    def twist_on_codes(sets, mons):
        return sets * middle.width + _times(3, 1)[2, mons], 1

    native = _section_map(top, middle, twist_on_codes, "twist")
    assert native.shape == (middle.dim, top.dim)
    assert _section_map(top, middle, coded(twist, top, middle), "twist") == native
    with pytest.raises(ConsistencyError, match="twist with a dropped term"):
        _section_map(top, middle, coded(entries, top, middle), "twist with a dropped term")
    with pytest.raises(ConsistencyError, match="twist with an added term"):
        _section_map(top, middle, coded(added, top, middle), "twist with an added term")


@pytest.mark.parametrize("q", FIELDS)
def test_section_map_rejects_a_sign_error_at_every_characteristic(q):
    # The x_n twist of Omega^1(2) into Omega^1(3) on P^2, with the sign of
    # one term flipped: over Z the image leaves the span by twice that term,
    # which is 0 mod 2, so only a check over Z sees it at q = 2.
    top, middle = h0_basis(2, 1, 2, q), h0_basis(2, 1, 3, q)
    flipped = next(
        pair for pair, row in zip(ambient_key(top), row_list(dense_basis(top))) if any(row)
    )

    def twist(pair):
        I, m = pair
        return ((I, m[:2] + (m[2] + 1,)), -1 if pair == flipped else 1),

    with pytest.raises(ConsistencyError, match="twist with a flipped sign"):
        _section_map(top, middle, coded(twist, top, middle), "twist with a flipped sign")


@pytest.mark.parametrize("q", [2, 2**61 - 1, None])
def test_section_bases_are_the_same_integers_on_every_field(q):
    # The closed-form bases have the same nonzeros, as the same +/-1 signs,
    # over every field as over GF(101).
    for n in range(5):
        cases = [(free_sections, (n, d, r)) for d in range(-1, 4) for r in range(3)]
        for p in range(n + 2):
            for d in range(p - 1, p + 4):
                cases.append((h0_basis, (n, p, d)))
                if n >= 1:
                    cases.append((restricted_sections, (n, p, d)))
        for build, args in cases:
            space, ref = build(*args, q), build(*args, 101)
            assert (space.size, space.width, space.dim) == (ref.size, ref.width, ref.dim), args
            for name in ("col", "row", "sign"):
                assert np.array_equal(getattr(space, name), getattr(ref, name)), (build, args)


# -- code rules against the tuple rules they replaced ---------------------------


def tuple_space(space):
    """A section space as the tuple composition reads it: ambient pairs,
    column terms and free rows."""
    key = ambient_key(space)
    return SimpleNamespace(
        descriptor=space.descriptor,
        q=space.q,
        dim=space.dim,
        key=key,
        index={pair: i for i, pair in enumerate(key)},
        terms=column_terms(space),
        free=free_rows(space),
    )


def tuple_ambient_map(src, tgt, entries):
    """The image of src's basis, pushed term by term through a pair rule:
    {(target row, column): value}."""
    image = {}
    for c, column in enumerate(src.terms):
        for r, v in column:
            for pair, x in entries(src.key[r]):
                cell = tgt.index[pair], c
                image[cell] = image.get(cell, 0) + x * v
    return image


def tuple_section_map(src, tgt, entries, what):
    """Coordinates read off the target's free rows, checked on its terms."""
    q = tgt.q
    image = tuple_ambient_map(src, tgt, entries)
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


def tuple_public_maps(n, p, d, q):
    """restriction_of_forms, conormal_wedge and drop_last_differential by
    their pair rules, where (n, p, d) allows each."""
    maps = {}
    if p <= n:
        src, tgt = tuple_space(h0_basis(n, p, d, q)), tuple_space(h0_basis(n - 1, p, d, q))

        def restriction(pair):
            I, m = pair
            return () if n in I or m[n] > 0 else (((I, m[:n]), 1),)

        maps["restriction_of_forms"] = tuple_section_map(src, tgt, restriction, "restriction")
        src = tuple_space(restricted_sections(n, p, d, q))

        def drop(pair):
            I, m = pair
            return () if n in I else (((I, m), 1),)

        maps["drop_last_differential"] = tuple_section_map(src, tgt, drop, "drop")
    if p <= n - 1:
        src = tuple_space(h0_basis(n - 1, p, d - 1, q))
        tgt = tuple_space(restricted_sections(n, p + 1, d, q))
        sign = -1 if p % 2 else 1

        def wedge(pair):
            I, m = pair
            return (((I + (n,), m), sign),)

        maps["conormal_wedge"] = tuple_section_map(src, tgt, wedge, "wedge")
    return maps


def tuple_display_maps(n, p, t, q):
    """The eight display maps by the pair rules of build_display."""
    subsets = list(itertools.combinations(range(n), p + 1))
    top = tuple_space(h0_basis(n, p + 1, p + 1 + t, q))
    free = tuple_space(free_sections(n, t, len(subsets), q))
    middle = tuple_space(h0_basis(n, p + 1, p + 2 + t, q))
    bottom_left = tuple_space(h0_basis(n - 1, p, p + 1 + t, q))
    bottom_mid = tuple_space(restricted_sections(n, p + 1, p + 2 + t, q))

    def generator_entries(pair):
        j, m = pair
        full = subsets[j] + (n,)
        return [
            ((full[:pos] + full[pos + 1 :], _mult_var(m, k)), -1 if pos % 2 else 1)
            for pos, k in enumerate(full)
        ]

    def xn_entries(pair):
        I, m = pair
        return (((I, _mult_var(m, n)), 1),)

    def hyp_entries(pair):
        I, m = pair
        return () if m[n] > 0 else (((I, m[:n]), 1),)

    subset_index = {J: j for j, J in enumerate(subsets)}
    top_sign = -1 if (p + 1) % 2 else 1

    def top_entries(pair):
        I, m = pair
        return () if n in I else (((subset_index[I], m), top_sign),)

    def bottom_entries(pair):
        j, m = pair
        if m[n] > 0:
            return ()
        J = subsets[j]
        return [
            ((J[:pos] + J[pos + 1 :], _mult_var(m, k)[:n]), -1 if (p + pos) % 2 else 1)
            for pos, k in enumerate(J)
        ]

    public = tuple_public_maps(n, p + 1, p + 2 + t, q)
    return {
        "twist": tuple_section_map(top, middle, xn_entries, "twist"),
        "free_incl": tuple_section_map(free, middle, generator_entries, "generators"),
        "restrict": public["restriction_of_forms"],
        "to_hyperplane": tuple_section_map(middle, bottom_mid, hyp_entries, "hyperplane"),
        "wedge": tuple_public_maps(n, p, p + 2 + t, q)["conormal_wedge"],
        "drop": public["drop_last_differential"],
        "left_top": tuple_section_map(top, free, top_entries, "top to free"),
        "left_bottom": tuple_section_map(free, bottom_left, bottom_entries, "free to bottom_left"),
    }


def assert_same_matrix(got, want, case):
    assert got.shape == want.shape and got == want, case
    assert got._a.dtype == want._a.dtype, case
    assert [type(x) for x in got._a.ravel()] == [type(x) for x in want._a.ravel()], case


@st.composite
def display_cases(draw):
    q = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(min_value=1, max_value=5))
    p = draw(st.integers(min_value=0, max_value=n - 1))
    t = draw(st.integers(min_value=-3, max_value=3))
    return n, p, t, q


@settings(max_examples=40, deadline=None)
@given(display_cases())
def test_code_rules_equal_the_tuple_rules(case):
    # Each display map, and each public map at a second twist, against the
    # same map composed term by term through its rule on (I, m) pairs:
    # entry for entry, in dtype and in Python entry type.
    n, p, t, q = case
    got = build_display(n, p, t, q).maps
    want = tuple_display_maps(n, p, t, q)
    assert set(got) == set(want)
    for name in want:
        assert_same_matrix(got[name], want[name], (name,) + case)
    public = {
        "restriction_of_forms": restriction_of_forms,
        "conormal_wedge": conormal_wedge,
        "drop_last_differential": drop_last_differential,
    }
    for name, matrix in tuple_public_maps(n, p, p + 1 + t, q).items():
        assert_same_matrix(public[name](n, p, p + 1 + t, q), matrix, (name,) + case)

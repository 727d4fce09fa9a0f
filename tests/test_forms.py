"""Section spaces as Koszul-contraction kernels, and the maps between them."""

import numpy as np
import pytest

from twistforms.bott import binom, h_O, h_omega
from twistforms.display import build_display, verify_display
from twistforms.exactalg import ExactMatrix
from twistforms.forms import (
    ConsistencyError,
    OmegaForms,
    RestrictedOmega,
    _ambient_map,
    _assemble,
    _contraction,
    _kernel_sections,
    _key,
    _mult_var,
    _section_map,
    claim_i_kernel_test,
    conormal_wedge,
    contraction_matrix,
    drop_last_differential,
    free_sections,
    h0_basis,
    monomials,
    restricted_sections,
    restriction_of_forms,
)
from twistforms.horace import plan, verify_tree
from twistforms.maxrank import (
    PointSet,
    ProjPoint,
    RankCertificate,
    certify_counts,
    eval_matrix,
    maxrank_test,
    random_points,
    verify_certificate,
)


def row_list(m):
    """Entries of an ExactMatrix as a list of row lists (Python ints over
    GF(q), ints and Fractions over Q)."""
    return m._a.tolist()


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
    assert len(src.key) == 3
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


def test_h0_basis_examples():
    assert h0_basis(1, 1, 2).dim == 1
    assert h0_basis(2, 1, 2).dim == 3
    assert h0_basis(2, 1, 1).dim == 0


def test_h0_empty_space_is_first_class():
    space = h0_basis(2, 1, 0)
    assert space.dim == 0
    assert space.basis.cols == 0


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


def test_claim_i_sweep():
    for n in range(1, 5):
        for p in range(n):
            for d in range(0, p + 5):
                assert claim_i_kernel_test(n, p, d), (n, p, d)


def test_claim_i_examples():
    assert claim_i_kernel_test(2, 0, 3)  # kernel 6 = 2 * 3
    assert claim_i_kernel_test(2, 0, 2)  # kernel 2 = 2 * 1
    assert claim_i_kernel_test(3, 1, 2)  # both sides zero


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
    dom, cod = _key(ndiff, nvar, p, d), _key(ndiff, nvar, p - 1, d)
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
    """The term image {(row, column): value} of ``_ambient_map`` as a
    matrix, through the checking constructor."""
    rows = [[0] * ncols for _ in range(nrows)]
    for (i, c), v in image.items():
        rows[i][c] = v
    return ExactMatrix(nrows, ncols, rows, q=q)


@pytest.mark.parametrize("q", [2, 101, 2**61 - 1, None])
def test_ambient_map_matches_list_built(q):
    # The image of a section basis, assembled from its terms, against the
    # list-built ambient matrix times that basis: entry for entry, in dtype
    # and in Python entry type.
    # Up to two distinct targets per source pair, with coefficients that
    # are negative, zero or larger than q; then one target repeated, with
    # coefficients that are zero or cancel at some pairs.
    src, tgt = h0_basis(2, 1, 3, q), h0_basis(2, 0, 2, q)
    assert tgt.key == _key(3, 3, 0, 2)

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
        image = _ambient_map(src, tgt, rule)
        assert all(type(v) is int for v in image.values())
        amb = _image_matrix(image, len(tgt.key), src.dim, q)
        want = _list_ambient_map(src.key, tgt.key, rule, q) @ src.basis
        assert amb == want and amb.shape == (len(tgt.key), src.dim)
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
                    got = _kernel_sections(desc(n, p, d), nvar, q).basis
                    if p == 0:
                        want = ExactMatrix.identity(len(_key(n + 1, nvar, 0, d)), q=q)
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
    "claim_i_kernel_test": lambda q: claim_i_kernel_test(2, 0, 3, q),
    "build_display": lambda q: build_display(2, 0, 0, q),
    "verify_display": lambda q: verify_display(2, 0, 0, 0, q),
    # Five points on P^2 take no small-hyperplane check, so no rank.
    "random_points": lambda q: random_points(2, 5, q, seed=0),
    "ProjPoint.make": lambda q: ProjPoint.make([3, 6], q),
    # Built directly, so only eval_matrix sees the modulus.
    "eval_matrix": lambda q: eval_matrix(2, 0, 2, PointSet(2, (ProjPoint((1, 2, 1), q),), q)),
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
    # On its free rows each basis is the identity over GF(q) and a +/-1
    # diagonal over Q, empty spaces included.  Each space's column terms
    # reassemble to its basis, entry for entry, and each column's term on
    # its free row, its first, is that diagonal entry, which ``free`` keeps
    # with the column.  Each space's index maps its ambient pairs to their
    # rows.
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
        assert len(space.free) == space.dim, case
        block = space.basis._a[list(space.free)]
        diag = block.diagonal()
        assert not (block - np.diag(diag)).any(), case
        if q is None:
            assert all(x in (1, -1) for x in diag), case
        else:
            assert (diag == 1).all(), case
        assert len(space.terms) == space.dim, case
        cells = {(i, c): v for c, column in enumerate(space.terms) for i, v in column}
        assert len(cells) == sum(map(len, space.terms)), case
        assert all(v != 0 and type(v) is int for v in cells.values()), case
        rebuilt = _image_matrix(cells, len(space.key), space.dim, q)
        assert rebuilt == space.basis and rebuilt._a.dtype == space.basis._a.dtype, case
        for k, (column, f, x) in enumerate(zip(space.terms, space.free, diag.tolist())):
            assert column[0] == (f, x), case
            assert space.free[f] == (k, x) and type(x) is int, case
        assert space.index == {pair: i for i, pair in enumerate(space.key)}, case


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
def test_eval_matrix_assembles_its_basis_once(monkeypatch, q):
    # The basis is assembled from the terms on first use and then kept:
    # a second evaluation reuses the same matrix.
    from twistforms import forms

    _clear_section_caches()
    calls = []

    def counted(*args):
        calls.append(args[:2])
        return _assemble(*args)

    monkeypatch.setattr(forms, "_assemble", counted)
    pts = random_points(2, 4, q, seed=0)
    space = h0_basis(2, 1, 3, q)
    assert "basis" not in vars(space)
    first = eval_matrix(2, 0, 2, pts)
    basis = vars(space)["basis"]
    assert eval_matrix(2, 0, 2, pts) == first
    assert vars(space)["basis"] is basis and space.basis is basis
    assert calls == [(len(space.key), space.dim)]


@pytest.mark.parametrize("q", [2, 101, None])
def test_rebuilt_section_spaces_compare_and_hash_equal(q):
    # Equality and hash read descriptor, q, key and terms, so they do not
    # depend on whether the dense basis or the free rows were built.
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
        assert space.basis.cols == len(space.free) == space.dim
    _clear_section_caches()
    after = spaces()
    for old, new in zip(before, after):
        assert old is not new and "basis" not in vars(new)
        assert old == new and hash(old) == hash(new), new.descriptor
    assert len(set(before + after)) == len(before)


@pytest.mark.parametrize("q", FIELDS)
def test_section_maps_equal_the_solve_against_the_basis(monkeypatch, q):
    # Every user of _section_map (three in forms, five in the display)
    # against the old coordinates, tgt.basis.solve(image): entry for entry,
    # in dtype and in Python entry type.
    from twistforms import display, forms

    seen = set()

    def checked(src, tgt, entries, what):
        got = _section_map(src, tgt, entries, what)
        image = _ambient_map(src, tgt, entries)
        want = tgt.basis.solve(_image_matrix(image, len(tgt.key), src.dim, q))
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
    dropped = next(pair for pair, row in zip(top.key, row_list(top.basis)) if any(row))

    def twist(pair):
        I, m = pair
        return ((I, m[:2] + (m[2] + 1,)), 1),

    def entries(pair):
        return () if pair == dropped else twist(pair)

    non_free = next(i for i in range(len(middle.key)) if i not in middle.free)

    def added(pair):
        extra = ((middle.key[non_free], 1),) if pair == dropped else ()
        return twist(pair) + extra

    assert _section_map(top, middle, twist, "twist").shape == (middle.dim, top.dim)
    with pytest.raises(ConsistencyError, match="twist with a dropped term"):
        _section_map(top, middle, entries, "twist with a dropped term")
    with pytest.raises(ConsistencyError, match="twist with an added term"):
        _section_map(top, middle, added, "twist with an added term")

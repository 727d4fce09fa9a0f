"""Point sampling, fiber evaluation, and maximal-rank certificates."""

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twistforms.bott import binom, h_omega
from twistforms import maxrank
from twistforms.exactalg import _CERT_PRIME, ExactMatrix, _mod_cert_prime
from twistforms.forms import _assemble, h0_basis, index_sets, monomials
from twistforms.maxrank import (
    BettiLedger,
    FieldTooSmallError,
    PointSet,
    ProjPoint,
    RankCertificate,
    _num_rational_points,
    _monomial_table,
    _prefix_ranks,
    _trial_seed,
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


def dense_basis(space):
    """A section space's basis as a dense size x dim matrix, assembled from
    its stored nonzeros."""
    rows, cols, vals = space.row.tolist(), space.col.tolist(), space.sign.tolist()
    return _assemble(space.size, space.dim, rows, cols, vals, space.q)


def ambient_key(space):
    """The (index set, monomial) pair of each ambient row of an h0 space, in
    code order: index sets, then monomials, each in its order."""
    n, p, d = space.descriptor.n, space.descriptor.p, space.descriptor.d
    return [(I, m) for I in index_sets(n + 1, p) for m in monomials(n + 1, d - p)]


def test_projpoint_normalizes_last_nonzero_to_one():
    pt = ProjPoint.make([3, 6], q=101)
    assert pt.coords[1] == 1
    assert pt.pivot == 1
    pt2 = ProjPoint.make([4, 0], q=None)
    assert pt2.coords == (1, 0)
    assert pt2.pivot == 0
    pt3 = ProjPoint.make([np.int64(3), Fraction(1, 2), np.int64(2)], q=None)
    assert pt3.coords == (Fraction(3, 2), Fraction(1, 4), 1) and type(pt3.coords[2]) is int


def test_projpoint_rejects_a_composite_modulus():
    # Modulo 100, 6 has no inverse: this gave the point (48, 96).
    with pytest.raises(ValueError, match="modulus 100 is not prime"):
        ProjPoint.make([3, 6], q=100)


@pytest.mark.parametrize(
    "q, coord",
    # The GF(101) cases keep their names; the cases over Q are named Q-...
    [pytest.param(101, c, id=str(c)) for c in (0.5, 2.0, float("nan"), "3", None)]
    + [
        pytest.param(None, c, id="Q-%s" % (c,))
        for c in (0.5, np.float64(2.0), float("nan"), "1/2", 1j, None)
    ],
)
def test_projpoint_refuses_coordinates_that_are_not_integers(q, coord):
    # A float coordinate came back unreduced before; over Q a float or a
    # string escaped as a bare TypeError.
    field = r"GF\(101\) must be integers," if q else "Q must be integers or Fractions,"
    with pytest.raises(ValueError, match="entries over " + field):
        ProjPoint.make([coord, 1], q=q)


def test_projpoint_reduces_python_and_numpy_integers():
    assert ProjPoint.make([2**70, 1], q=101).coords == (2**70 % 101, 1)
    pt = ProjPoint.make([np.int64(3), np.int64(2)], q=101)
    assert pt.coords == (3 * pow(2, -1, 101) % 101, 1)
    assert all(type(c) is int for c in pt.coords)


def test_projpoint_rejects_zero_vector():
    with pytest.raises(ValueError):
        ProjPoint.make([0, 0, 0], q=101)


def test_random_points_distinct_and_seeded():
    a = random_points(2, 6, q=101, seed=7)
    b = random_points(2, 6, q=101, seed=7)
    assert a.points == b.points
    assert len(set(p.coords for p in a.points)) == 6
    c = random_points(2, 6, q=101, seed=8)
    assert c.points != a.points


def test_random_points_field_too_small():
    # P^1 over GF(101) has 102 points.
    with pytest.raises(FieldTooSmallError):
        random_points(1, 200, q=101, seed=0)
    random_points(1, 102, q=101, seed=0)  # exactly exhausts the line


def test_small_sets_avoid_degenerate_hyperplanes():
    pts = random_points(2, 4, q=101, seed=3)
    from twistforms.exactalg import ExactMatrix
    from itertools import combinations

    for sub in combinations(pts.points, 3):
        m = ExactMatrix(3, 3, [list(p.coords) for p in sub], q=101)
        assert m.rank() == 3


def integer_representative(coords):
    """A rational point's coordinates times the lcm of their denominators."""
    scale = lcm(*(Fraction(c).denominator for c in coords))
    return [int(c * scale) for c in coords]


def naive_eval_matrix(n, p, d, pts, pivots=None):
    """Reference: evaluate every section at every point, one term at a time;
    a rational point at its primitive integer representative."""
    q = pts.q
    space = h0_basis(n, p + 1, d + p + 1, q)
    cols = row_list(dense_basis(space))
    key = ambient_key(space)
    sections = [[cols[i][j] for i in range(len(key))] for j in range(space.dim)]
    rows = []
    for k, pt in enumerate(pts.points):
        pivot = pt.pivot if pivots is None else pivots[k]
        chart = [I for I in combinations(range(n + 1), p + 1) if pivot not in I]
        blocks = []
        for sec in sections:
            acc = {}
            for (I, m), coeff in zip(key, sec):
                if coeff == 0 or pivot in I:
                    continue
                val = coeff
                coords = pt.coords if q is not None else integer_representative(pt.coords)
                for e, c in zip(m, coords):
                    val *= c**e if q is None else pow(c, e, q)
                acc[I] = acc.get(I, 0) + val
            block = [acc.get(I, 0) for I in chart]
            blocks.append(block if q is None else [v % q for v in block])
        rows.extend([b[i] for b in blocks] for i in range(len(chart)))
    return ExactMatrix(len(rows), space.dim, rows, q=q)


@st.composite
def evaluation_problems(draw):
    q = draw(st.sampled_from([101, 2**31 - 1, None]))
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=0, max_value=n - 1))
    d = draw(st.integers(min_value=0, max_value=3))
    s = draw(st.integers(min_value=0, max_value=4))
    pts = random_points(n, s, q, seed=draw(st.integers(min_value=0, max_value=10**6)))
    pivots = None
    if draw(st.booleans()):
        pivots = [
            draw(st.sampled_from([i for i, c in enumerate(pt.coords) if c != 0]))
            for pt in pts.points
        ]
    return n, p, d, pts, pivots


@settings(max_examples=60, deadline=None)
@given(evaluation_problems())
def test_eval_matrix_matches_naive_evaluation(problem):
    n, p, d, pts, pivots = problem
    assert eval_matrix(n, p, d, pts, pivots) == naive_eval_matrix(n, p, d, pts, pivots)


def test_eval_matrix_matches_naive_evaluation_at_top_degree():
    # p+1 = n: one fiber coordinate per point, charts over every pivot.
    for q in (101, 2**31 - 1, None):
        pts = random_points(3, 5, q, seed=2)
        alt = [min(i for i, c in enumerate(pt.coords) if c != 0) for pt in pts.points]
        for pivots in (None, alt):
            assert eval_matrix(3, 2, 2, pts, pivots) == naive_eval_matrix(3, 2, 2, pts, pivots)


def test_eval_matrix_rejects_vanishing_pivot():
    pts = PointSet(2, (ProjPoint.make([1, 0, 1], q=101),), 101, 0)
    with pytest.raises(ValueError):
        eval_matrix(2, 0, 2, pts, pivots=[1])


def test_eval_matrix_invariant_one_form():
    # H^0(Omega^1(2)) on P^1 is spanned by x1 dx0 - x0 dx1; at (1:1) the
    # chart drops the pivot component dx1, leaving x1 = 1.
    space = h0_basis(1, 1, 2, None)
    assert dict(zip(ambient_key(space), row_list(dense_basis(space).transpose())[0])) == {
        ((0,), (1, 0)): 0,
        ((0,), (0, 1)): 1,
        ((1,), (1, 0)): -1,
        ((1,), (0, 1)): 0,
    }
    pts = PointSet(1, (ProjPoint.make([1, 1], q=None),), None, 0)
    assert eval_matrix(1, 0, 1, pts) == ExactMatrix(1, 1, [[1]], q=None)


def test_fiber_eval_chart_choice_preserves_rank():
    # Different pivots give different chart coordinates but the same
    # evaluation-matrix rank.
    pts = random_points(2, 3, q=101, seed=1)
    default = eval_matrix(2, 0, 2, pts)
    forced = eval_matrix(2, 0, 2, pts, pivots=[p.pivot for p in pts.points])
    assert default.rank() == forced.rank()
    alt = []
    for p in pts.points:
        others = [i for i, c in enumerate(p.coords) if c != 0]
        alt.append(others[0])
    assert eval_matrix(2, 0, 2, pts, pivots=alt).rank() == default.rank()


def test_eval_matrix_shapes():
    pts = random_points(1, 2, q=101, seed=0)
    m = eval_matrix(1, 0, 2, pts)
    assert m.shape == (2, 2)
    assert m.rank() == 2

    pts = random_points(2, 4, q=101, seed=0)
    m = eval_matrix(2, 0, 2, pts)
    assert m.shape == (8, 8)
    assert m.cols == h_omega(2, 1, 3, 0)

    empty = PointSet(2, (), 101, 0)
    m = eval_matrix(2, 0, 2, empty)
    assert m.shape == (0, 8)


def test_line_interpolation_always_maximal():
    # On P^1 the evaluation matrix is Vandermonde-like; every trial at
    # distinct points already has maximal rank.
    for d in range(1, 7):
        for s in range(1, 9):
            cert = maxrank_test(1, 0, d, s, q=101, trials=1, seed=0)
            assert cert.maximal, (d, s)


def test_maxrank_8x8_witnessed_both_fields():
    for q in (101, None):
        cert = maxrank_test(2, 0, 2, 4, q=q, trials=5, seed=0)
        assert cert.shape == (8, 8)
        assert cert.maximal and cert.rank == 8


def test_maxrank_rank_monotone_in_points():
    prev = 0
    for s in range(1, 6):
        cert = maxrank_test(2, 0, 2, s, q=101, trials=5, seed=0)
        assert cert.rank >= prev
        prev = cert.rank


def test_maxrank_zero_points_is_vacuous():
    cert = maxrank_test(2, 0, 2, 0, q=101, trials=1, seed=0)
    assert cert.rank == 0 and cert.maximal
    assert verify_certificate(cert)


def test_zero_point_certificate_with_a_wrong_shape_does_not_verify():
    cert = maxrank_test(2, 0, 2, 0, q=101, trials=1, seed=0)
    assert cert.shape == (0, 8) and cert.points == ()
    forged = RankCertificate(2, 0, 2, 0, 101, 0, 1, (99, 5), 0, True, ())
    assert not verify_certificate(RankCertificate.from_json(forged.to_json()))


def test_certificate_json_round_trip_and_determinism():
    a = maxrank_test(2, 1, 2, 3, q=101, trials=5, seed=42)
    b = maxrank_test(2, 1, 2, 3, q=101, trials=5, seed=42)
    assert a.to_json() == b.to_json()
    back = RankCertificate.from_json(a.to_json())
    assert back == a
    assert verify_certificate(back)


def test_certificate_rational_points_survive_round_trip():
    cert = maxrank_test(2, 0, 2, 4, q=None, trials=5, seed=0)
    back = RankCertificate.from_json(cert.to_json())
    assert back == cert
    assert verify_certificate(back)


def test_verify_rejects_tampered_rank():
    cert = maxrank_test(2, 0, 2, 4, q=101, trials=5, seed=0)
    doc = RankCertificate.from_json(cert.to_json())
    tampered = RankCertificate(
        doc.n, doc.p, doc.d, doc.s, doc.q, doc.seed, doc.trials,
        doc.shape, doc.rank - 1, doc.maximal, doc.points,
    )
    assert not verify_certificate(tampered)


def test_repeated_point_certificate_rejected_over_large_prime():
    # Four copies of one point impose only 2 conditions.  Residue products
    # once overflowed int64 at this prime, so the 8x8 matrix came out of
    # rank 8 and this certificate replayed as verified.
    q = 2**61 - 1
    pt = ProjPoint.make([3, 5, 1], q=q)
    pts = PointSet(2, (pt,) * 4, q, 0)
    assert eval_matrix(2, 0, 2, pts).rank() == 2
    forged = RankCertificate(2, 0, 2, 4, q, 0, 1, (8, 8), 8, True, (pt.coords,) * 4)
    assert not verify_certificate(RankCertificate.from_json(forged.to_json()))


def test_betti_ledger_cases():
    # 3 points impose 6 conditions on the 8-dimensional space: kernel 2.
    under = BettiLedger.from_certificate(maxrank_test(2, 0, 2, 3, q=101, trials=5, seed=0))
    assert (under.kernel_dim, under.cokernel_dim) == (2, 0)
    assert under.verdict == "expected resolution shape"

    square = BettiLedger.from_certificate(maxrank_test(2, 0, 2, 4, q=101, trials=5, seed=0))
    assert (square.kernel_dim, square.cokernel_dim) == (0, 0)

    over = BettiLedger.from_certificate(maxrank_test(2, 0, 2, 5, q=101, trials=5, seed=0))
    assert (over.kernel_dim, over.cokernel_dim) == (0, 2)


def test_certificate_shape_matches_bookkeeping():
    for (n, p, d, s) in [(2, 0, 3, 5), (2, 1, 2, 2), (3, 0, 2, 4)]:
        cert = maxrank_test(n, p, d, s, q=101, trials=3, seed=1)
        assert cert.shape == (s * binom(n, p + 1), h0_basis(n, p + 1, d + p + 1).dim)


def per_count_certificate(n, p, d, s, q, trials, seed):
    """Reference: certification of one count by a direct rank per trial."""
    shape = (s * binom(n, p + 1), h0_basis(n, p + 1, d + p + 1, q).dim)
    best_rank, best_pts = -1, None
    for trial in range(trials):
        pts = random_points(n, s, q, _trial_seed(seed, trial))
        r = eval_matrix(n, p, d, pts).rank()
        if r > best_rank:
            best_rank, best_pts = r, pts
        if r == min(shape):
            break
    coords = tuple(pt.coords for pt in best_pts.points)
    maximal = best_rank == min(shape)
    return RankCertificate(n, p, d, s, q, seed, trial + 1, shape, best_rank, maximal, coords)


@st.composite
def count_problems(draw):
    q = draw(st.sampled_from([3, 101, 2**31 - 1, None]))
    n = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=0, max_value=n - 1))
    d = draw(st.integers(min_value=0, max_value=3))
    top = 8 if q is None else min(8, _num_rational_points(n, q))
    counts = draw(st.lists(st.integers(min_value=0, max_value=top), min_size=1, max_size=4))
    trials = draw(st.integers(min_value=1, max_value=3))
    return n, p, d, counts, q, trials, draw(st.integers(min_value=0, max_value=10**6))


@settings(max_examples=60, deadline=None)
@given(count_problems())
def test_certify_counts_ranks_each_prefix_directly(problem):
    n, p, d, counts, q, trials, seed = problem
    certs = certify_counts(n, p, d, counts, q, trials, seed)
    assert sorted(certs) == sorted(set(counts))
    first = random_points(n, max(counts), q, _trial_seed(seed, 0)).points
    for s, cert in certs.items():
        assert (cert.n, cert.p, cert.d, cert.s, cert.q, cert.seed) == (n, p, d, s, q, seed)
        pts = PointSet(n, tuple(ProjPoint.make(c, q) for c in cert.points), q)
        m = eval_matrix(n, p, d, pts)
        assert cert.shape == m.shape and cert.rank == m.rank()
        assert cert.maximal == (cert.rank == min(m.shape))
        assert 1 <= cert.trials <= trials and (cert.maximal or cert.trials == trials)
        if cert.trials == 1 and cert.maximal:
            # Settled by the first trial: a prefix of its one sequence.
            assert cert.points == tuple(pt.coords for pt in first[:s])
        # One count is the per-count certification, byte for byte.
        single = certify_counts(n, p, d, [s], q, trials, seed)[s]
        assert single.to_json() == per_count_certificate(n, p, d, s, q, trials, seed).to_json()


def test_maxrank_test_is_the_one_count_case():
    for q in (3, 101, None):
        for problem in [(2, 0, 2, 4), (2, 1, 2, 3), (3, 0, 2, 7), (3, 1, 1, 2)]:
            got = maxrank_test(*problem, q=q, trials=3, seed=5)
            assert got.to_json() == per_count_certificate(*problem, q, 3, 5).to_json()
            assert got == certify_counts(*problem[:3], [problem[3]], q, 3, 5)[problem[3]]


def test_rational_prefix_short_modulo_the_prime_takes_its_exact_rank():
    # The two points of P^1 agree modulo _CERT_PRIME, so modulo that prime
    # they impose one condition on the two sections of Omega^1(3); over Q
    # they are distinct and impose two.
    pts = PointSet(1, (ProjPoint.make([0, 1]), ProjPoint.make([_CERT_PRIME, 1])), None)
    assert _prefix_ranks(1, 0, 2, pts, [0, 1, 2]) == {0: 0, 1: 1, 2: 2}
    assert eval_matrix(1, 0, 2, pts).rank() == 2


def test_certify_counts_zero_points_are_vacuous():
    certs = certify_counts(2, 0, 2, [0, 0, 3], q=101, trials=1, seed=0)
    assert certs[0].shape == (0, 8) and certs[0].rank == 0 and certs[0].maximal
    assert certs[0].points == () and verify_certificate(certs[0])


def test_certify_counts_rejects_bad_problems():
    with pytest.raises(ValueError, match="problem needs"):
        certify_counts(2, 0, 2, [3, -1])
    with pytest.raises(ValueError, match="trial"):
        certify_counts(2, 0, 2, [3], trials=0)


# -- rational evaluation at integer representatives ------------------------------


def fraction_eval_matrix(n, p, d, pts, pivots=None):
    """Copy of the rational ``eval_matrix`` as it was before integer
    representatives: the product at the points scaled to integer
    coordinates, each point's rows divided back by scale^d into Fractions."""
    space = h0_basis(n, p + 1, d + p + 1, None)
    s, h, fiber = len(pts.points), space.dim, comb(n, p + 1)
    if not s or not h:
        return ExactMatrix(s * fiber, h, np.zeros((s * fiber, h), dtype=object))
    piv = [pt.pivot if pivots is None else pivots[k] for k, pt in enumerate(pts.points)]
    scales = [lcm(*(Fraction(c).denominator for c in pt.coords)) for pt in pts.points]
    rows = [[int(c * k) for c in pt.coords] for pt, k in zip(pts.points, scales)]
    coords = np.array(rows, dtype=object)
    exps = np.array(monomials(n + 1, d), dtype=np.int64)
    sets = index_sets(n + 1, p + 1)
    basis = dense_basis(space)._a.reshape(len(sets), len(exps), h).transpose(1, 0, 2)
    out = np.zeros((s, fiber, h), dtype=object)
    for v in sorted(set(piv)):
        group = [k for k, w in enumerate(piv) if w == v]
        chart = [j for j, I in enumerate(sets) if v not in I]
        sections = basis[:, chart].reshape(len(exps), fiber * h)
        prod = _monomial_table(coords[group], exps, None) @ sections
        out[group] = prod.reshape(len(group), fiber, h)
    rows = [[Fraction(x, k**d) for x in row] for block, k in zip(out, scales) for row in block]
    return ExactMatrix(s * fiber, h, rows, q=None)


def fraction_prefix_ranks(n, p, d, pts, counts):
    """Copy of ``_prefix_ranks`` as it was before integer representatives:
    the Fraction evaluation, multiplied back to integer rows."""
    m = fraction_eval_matrix(n, p, d, pts)
    fiber = comb(n, p + 1)
    pivots = _mod_cert_prime(m._integer_matrix()).transpose()._rref_mod(full=False)
    ranks = {}
    for s in counts:
        k = s * fiber
        r = bisect_left(pivots, k)
        if r < min(k, m.cols):
            r = ExactMatrix._wrap(m._a[:k], None).rank()
        ranks[s] = r
    return ranks


def _rational_point_sets(n, h, fiber):
    """Seeded point sets on P^n: a short one, one with at least as many rows
    as columns, and (for n >= 2) up to eight on the hyperplane x0 = 0, whose
    ranks can fall short."""
    yield random_points(n, 2, None, seed=n)
    yield random_points(n, h // fiber + 1, None, seed=10 + n)
    if n >= 2:
        plane = random_points(n - 1, min(h // fiber // 2 + 1, 8), None, seed=20 + n)
        pts = tuple(ProjPoint.make((0,) + pt.coords) for pt in plane.points)
        yield PointSet(n, pts, None)


def test_rational_evaluation_ranks_equal_the_fraction_evaluation():
    deficient = 0
    for n in (1, 2, 3):
        for p in range(n):
            fiber = comb(n, p + 1)
            for d in range(6):
                h = h0_basis(n, p + 1, d + p + 1, None).dim
                for pts in _rational_point_sets(n, h, fiber):
                    first = [min(i for i, c in enumerate(pt.coords) if c != 0) for pt in pts.points]
                    for pivots in (None, first):
                        m = eval_matrix(n, p, d, pts, pivots)
                        ref = fraction_eval_matrix(n, p, d, pts, pivots)
                        assert all(type(x) is int for x in m._a.flat)
                        assert m.rank() == ref.rank(), (n, p, d, len(pts.points), pivots)
                        deficient += m.rank() < min(m.shape)
    assert deficient  # the hyperplane sets reach the exact-rank path


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_rational_certificates_equal_the_fraction_path(seed, monkeypatch):
    problems = [(2, 0, 2, [3, 4, 6]), (2, 1, 3, [2, 5]), (3, 0, 2, [4, 7]), (3, 1, 2, [3, 6])]
    now = [certify_counts(n, p, d, counts, None, 3, seed) for n, p, d, counts in problems]
    single = maxrank_test(3, 0, 4, 30, q=None, trials=2, seed=seed)
    monkeypatch.setattr(maxrank, "_prefix_ranks", fraction_prefix_ranks)
    before = [certify_counts(n, p, d, counts, None, 3, seed) for n, p, d, counts in problems]
    assert single.to_json() == maxrank_test(3, 0, 4, 30, q=None, trials=2, seed=seed).to_json()
    for got, ref in zip(now, before):
        assert [c.to_json() for c in got.values()] == [c.to_json() for c in ref.values()]
        for cert in got.values():
            assert verify_certificate(cert)

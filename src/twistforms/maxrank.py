"""Point sets, fiber evaluation of twisted forms, and maximal-rank certificates.

A point of P^n is the tuple of its n+1 coordinates, normalized so the last
nonzero one is 1 (``point``), and a ``PointSet`` is a tuple of points with
their field; certificates list the same tuples.

The evaluation map sends a section of Omega^{p+1}(d+p+1) to its values in
the fibers over s points; ``eval_matrix`` composes it on the section
basis's terms, a sparse product (as in Gustavson, ACM TOMS 1978) of a
table of monomial values at the points and the basis's nonzeros, with no
dense basis and no dense product.  Over Q each point is evaluated at its
primitive integer representative, so the matrix has integer entries; each
point's block is the one at its stored coordinates times a nonzero scalar,
so the ranks are those at the stored coordinates.  A witness point set
achieving full rank certifies maximal rank for general points over the
field's closure (the maximal-rank locus is open); failure of every trial
is reported as "not witnessed", never as a disproof.

A GF(q) certificate is also a witness in characteristic 0.  Its points'
residues, lifted to the integers 0..q-1, keep their charts, and the
section basis has the same signs +-1 on every field, so the GF(q) matrix is
the integer one at the lifted points mod q.  A minor nonzero mod q is
nonzero over Z, so a maximal GF(q) certificate proves maximal rank over Q
at the lifted points and, by openness, at general points.

Certificates for several point counts of one (n, p, d) come from one point
sequence per trial (``certify_counts``): the rank at the first s points is
the rank of the first s * binom(n, p+1) rows of the evaluation matrix, and
``ExactMatrix._prefix_ranks`` gives every count from one elimination.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .exactalg import (
    ExactMatrix,
    _canon_rational,
    _check_modulus,
    _exact_entries,
    _integer_rows,
    _reduce,
    residue_dtype,
)
from .forms import DEFAULT_PRIME, _exponents, _subsets, h0_basis

__all__ = [
    "CertificateError",
    "FieldTooSmallError",
    "PointSet",
    "RankCertificate",
    "certify_counts",
    "eval_matrix",
    "maxrank_test",
    "point",
    "random_points",
    "verify_certificate",
]

_MAX_RESAMPLES = 2000
_RATIONAL_COORD_RANGE = 1000


class FieldTooSmallError(RuntimeError):
    pass


class CertificateError(ValueError):
    """A certificate file that does not follow the certificate schema."""


@dataclass(frozen=True)
class PointSet:
    points: tuple  # coordinate tuples, each as ``point`` returns it
    q: int | None


def point(coords, q=None) -> tuple:
    """The point of P^n with these coordinates, as the tuple normalized so
    its last nonzero coordinate is 1: Python or numpy integers, each
    reduced mod q over GF(q), and over Q also Fractions (ValueError for
    any other entry)."""
    _check_modulus(q)
    return _point(_exact_entries(coords, q), q)


def _point(coords, q) -> tuple:
    """``point`` for a q already checked."""
    coords = list(coords)
    if q is not None:
        coords = [c % q for c in coords]
    pivot = max((i for i, c in enumerate(coords) if c != 0), default=None)
    if pivot is None:
        raise ValueError("projective point needs a nonzero coordinate")
    lead = coords[pivot]
    if q is not None:
        inv = pow(lead, -1, q)
        return tuple(c * inv % q for c in coords)
    return tuple(_canon_rational(Fraction(c, lead)) for c in coords)


def _num_rational_points(n: int, q: int) -> int:
    return (q ** (n + 1) - 1) // (q - 1)


def random_points(n: int, s: int, q=DEFAULT_PRIME, seed: int = 0) -> PointSet:
    """s pairwise-distinct seeded random points on P^n.

    For small sets (s <= n+2) additionally rejects configurations with
    n+1 points on a hyperplane, so the sample is honestly in general
    position at the scale where that can be enforced cheaply.
    """
    if s < 0:
        raise ValueError("point count must be nonnegative")
    _check_modulus(q)
    if q is not None and s > _num_rational_points(n, q):
        raise FieldTooSmallError(
            "P^%d over GF(%d) has only %d points, cannot pick %d distinct ones"
            % (n, q, _num_rational_points(n, q), s)
        )
    rng = random.Random(seed)
    for _ in range(_MAX_RESAMPLES):
        pts = _sample_distinct(rng, n, s, q)
        if pts is None:
            continue
        if s <= n + 2 and not _no_small_hyperplane(pts, n, q):
            continue
        return PointSet(tuple(pts), q)
    raise FieldTooSmallError(
        "could not sample %d points in general position on P^%d over %s"
        % (s, n, "GF(%d)" % q if q else "Q")
    )


def _sample_distinct(rng, n, s, q):
    seen = set()
    pts = []
    attempts = 0
    while len(pts) < s:
        attempts += 1
        if attempts > 50 * (s + 1):
            return None
        if q is not None:
            coords = [rng.randrange(q) for _ in range(n + 1)]
        else:
            coords = [rng.randint(-_RATIONAL_COORD_RANGE, _RATIONAL_COORD_RANGE) for _ in range(n + 1)]
        if all(c == 0 for c in coords):
            continue
        pt = _point(coords, q)
        if pt in seen:
            continue
        seen.add(pt)
        pts.append(pt)
    return pts


def _no_small_hyperplane(pts, n, q):
    from itertools import combinations

    for sub in combinations(pts, n + 1):
        m = ExactMatrix._wrap(np.array(sub, dtype=residue_dtype(q)), q)
        if m.rank() < n + 1:
            return False
    return True


def _monomial_table(coords, exps, q):
    """Values of the monomials with exponent rows ``exps`` at each coordinate row."""
    powers = [np.ones_like(coords)]
    for _ in range(exps.max()):
        powers.append(powers[-1] * coords if q is None else powers[-1] * coords % q)
    powers = np.stack(powers, axis=2)  # point x variable x exponent
    table = powers[:, 0, exps[:, 0]]
    for k in range(1, exps.shape[1]):
        table = table * powers[:, k, exps[:, k]]
        if q is not None:
            table %= q
    return table


def eval_matrix(n: int, p: int, d: int, pts: PointSet, pivots=None) -> ExactMatrix:
    """Stacked fiber evaluations of H^0(Omega^{p+1}(d+p+1)) at every point.

    Rows: s * binom(n, p+1), point by point, each block ordered by the index
    sets that avoid the point's chart pivot (its last nonzero coordinate, or
    the entry of ``pivots``); columns: h^0.  Each group of points with one
    pivot is composed on the basis's stored nonzeros whose index set avoids
    the pivot: each one's column of the table of degree-d monomials at the
    points, times its sign, reduced modulo q, is its (fiber slot, section)
    entry, since no cell takes two nonzeros.  No dense basis is assembled
    and no dense product is taken.  Over Q each point is evaluated at its
    primitive integer representative, its stored coordinates with their
    denominators cleared (``_integer_rows``), so the entries are Python
    ints; each point's block is the one at the stored coordinates times a
    nonzero scalar, the d-th power of the point's scale, so every rank, of
    all rows or of a prefix of points, is the one at the stored coordinates.
    """
    q = pts.q
    space = h0_basis(n, p + 1, d + p + 1, q)
    s, h = len(pts.points), space.dim
    fiber = comb(n, p + 1)
    if pivots is None:
        pivots = [max(i for i, c in enumerate(pt) if c != 0) for pt in pts.points]
    if any(pt[v] == 0 for pt, v in zip(pts.points, pivots)):
        raise ValueError("pivot coordinate vanishes at the point")
    out = np.zeros((s * fiber, h), dtype=residue_dtype(q))
    if not s or not h:
        return ExactMatrix._wrap(out, q)
    coords = np.array(pts.points, dtype=residue_dtype(q))
    if q is None:
        coords = _integer_rows(coords)
    exps = _exponents(n + 1, d)
    elements = _subsets(n + 1, p + 1).elements
    # The basis's nonzeros: index set, monomial, section and value of each.
    # A column's terms lie on distinct index sets (J and the (v0,) + J - j of
    # its homotopy terms), so no (fiber slot, section) cell takes two.
    of_set, mon = space._decoded
    value = space.sign.astype(out.dtype)
    cells = out.reshape(s, fiber, h)
    for v in sorted(set(pivots)):
        group = [k for k, w in enumerate(pivots) if w == v]
        slot = np.full(len(elements), -1)
        slot[(elements != v).all(axis=1)] = np.arange(fiber)
        at = slot[of_set]
        keep = at >= 0
        # One row per point and one column per term of the chart.
        prods = _monomial_table(coords[group], exps, q)[:, mon[keep]] * value[keep]
        if q is not None:
            _reduce(prods, q)
        cells[np.array(group)[:, None], at[keep], space.col[keep]] = prods
    return ExactMatrix._wrap(out, q)


@dataclass(frozen=True)
class RankCertificate:
    n: int
    p: int
    d: int
    s: int
    q: int | None
    seed: int
    trials: int
    shape: tuple
    rank: int
    maximal: bool
    points: tuple  # replay list: coordinate tuples

    def to_json(self) -> str:
        field = {"kind": "prime", "modulus": self.q} if self.q is not None else {"kind": "rational"}
        doc = {
            "problem": {"n": self.n, "p": self.p, "d": self.d, "s": self.s},
            "field": field,
            "seed": self.seed,
            "trials": self.trials,
            "shape": [self.shape[0], self.shape[1]],
            "rank": self.rank,
            "maximal": self.maximal,
            "points": [[str(c) for c in pt] for pt in self.points],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RankCertificate":
        """Parse a certificate; any departure from the schema raises CertificateError."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CertificateError("certificate is not JSON: %s" % exc) from exc
        prob, field = _entry(doc, "problem", dict), _entry(doc, "field", dict)
        n, p, d, s = (_entry(prob, key, int) for key in ("n", "p", "d", "s"))
        if n < 1 or p < 0 or s < 0:
            raise CertificateError("problem needs n >= 1, p >= 0 and s >= 0")
        if p >= n:
            raise CertificateError("problem needs p <= n-1, got p=%d for n=%d" % (p, n))
        kind = _entry(field, "kind", str)
        q = _entry(field, "modulus", int) if kind == "prime" else None
        field_error = "field must be rational or have a prime modulus"
        if kind not in ("prime", "rational"):
            raise CertificateError(field_error)
        try:
            _check_modulus(q)
        except ValueError as exc:
            raise CertificateError("%s: %s" % (field_error, exc)) from None
        shape = _entry(doc, "shape", list)
        if len(shape) != 2 or not all(type(x) is int for x in shape):
            raise CertificateError("certificate entry 'shape' must be two integers")
        seed, trials, rank = (_entry(doc, key, int) for key in ("seed", "trials", "rank"))
        maximal = _entry(doc, "maximal", bool)
        pts = tuple(_parse_point(pt, n, q) for pt in _entry(doc, "points", list))
        if len(pts) != s:
            raise CertificateError("certificate lists %d points for s = %d" % (len(pts), s))
        return cls(n, p, d, s, q, seed, trials, tuple(shape), rank, maximal, pts)


def _entry(doc, key: str, kind: type):
    """doc[key], which must be a JSON value of exactly the given type (no bool for int)."""
    if not isinstance(doc, dict) or key not in doc:
        raise CertificateError("certificate lacks %r" % key)
    val = doc[key]
    if type(val) is not kind:
        raise CertificateError("certificate entry %r must be %s" % (key, kind.__name__))
    return val


def _parse_point(pt, n: int, q) -> tuple:
    """One replay point: n+1 coordinate strings, each written as
    ``to_json`` writes it: over GF(q) a residue in 0..q-1
    (``str(int(c)) == c``), over Q a canonical rational
    (``str(Fraction(c)) == c``, so '1.0', '2/4' or '+1/2' is refused)."""
    if not isinstance(pt, list) or len(pt) != n + 1 or not all(isinstance(c, str) for c in pt):
        raise CertificateError("each point must be a list of %d coordinate strings" % (n + 1))
    if q is not None:
        try:
            coords = [int(c) for c in pt]
        except ValueError:
            coords = None
        if coords is None or [str(c) for c in coords] != pt:
            raise CertificateError("point coordinates over GF(%d) must be integers" % q)
        if not all(0 <= c < q for c in coords):
            raise CertificateError("point coordinates over GF(%d) must lie in 0..%d" % (q, q - 1))
        return tuple(coords)
    try:
        coords = [Fraction(c) for c in pt]
    except (ValueError, ZeroDivisionError) as exc:
        raise CertificateError("bad point coordinate: %s" % exc) from exc
    if [str(c) for c in coords] != pt:
        raise CertificateError("point coordinates over Q must be written as reduced fractions")
    return tuple(map(_canon_rational, coords))


def _trial_seed(seed: int, trial: int) -> int:
    return seed * 1_000_003 + trial


def certify_counts(
    n: int, p: int, d: int, counts: list, q=DEFAULT_PRIME, trials: int = 5, seed: int = 0
) -> dict:
    """Seeded maximal-rank certificates of the point-evaluation map of
    (n, p, d) at each point count s in ``counts``, keyed by s.

    Trial t draws one sequence of as many points as the largest count not
    yet witnessed, with seed ``_trial_seed(seed, t)``, and a count is
    settled by the first trial whose first s points give rank
    min(rows, cols); the others take the next trial, up to ``trials``.
    Each certificate records ``seed``, the trials run for its count, and
    its witness points (or those of its best trial), so it replays
    bit-exactly.  One count is ``maxrank_test``.
    """
    if n < 1 or p < 0 or any(s < 0 for s in counts):
        raise ValueError("problem needs n >= 1, p >= 0 and s >= 0")
    if trials < 1:
        raise ValueError("need at least one trial")
    h = h0_basis(n, p + 1, d + p + 1, q).dim
    fiber = comb(n, p + 1)
    best = {s: (-1, None) for s in counts}  # rank, points of the best trial
    settled = {}  # count -> trials run
    for trial in range(trials):
        pending = [s for s in best if s not in settled]
        if not pending:
            break
        pts = random_points(n, max(pending), q, _trial_seed(seed, trial))
        ranks = eval_matrix(n, p, d, pts)._prefix_ranks([s * fiber for s in pending])
        for s, r in zip(pending, ranks):
            if r > best[s][0]:
                best[s] = r, pts.points[:s]
            if r == min(s * fiber, h):
                settled[s] = trial + 1
    return {
        s: RankCertificate(
            n,
            p,
            d,
            s,
            q,
            seed,
            settled.get(s, trials),
            (s * fiber, h),
            r,
            s in settled,
            witness,
        )
        for s, (r, witness) in best.items()
    }


def maxrank_test(
    n: int, p: int, d: int, s: int, q=DEFAULT_PRIME, trials: int = 5, seed: int = 0
) -> RankCertificate:
    """Seeded maximal-rank certification of the point-evaluation map at s
    points: ``certify_counts`` for the one count s.

    Runs up to ``trials`` independent point sets; one full-rank witness
    settles the verdict.  The certificate records the witness points (or
    the best trial seen) so the run can be replayed bit-exactly.
    """
    return certify_counts(n, p, d, [s], q, trials, seed)[s]


def verify_certificate(cert: RankCertificate) -> bool:
    """Recompute rank and verdict from the certificate's replay list."""
    _check_modulus(cert.q)
    pts = PointSet(tuple(_point(c, cert.q) for c in cert.points), cert.q)
    m = eval_matrix(cert.n, cert.p, cert.d, pts)
    r = m.rank()
    return m.shape == cert.shape and r == cert.rank and cert.maximal == (r == min(cert.shape))


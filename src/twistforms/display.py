"""The 3x3 elementary-transformation display on P^n, at the section level.

For a form degree p and a uniform auxiliary twist t the six nonzero nodes
are

    top           Omega^{p+1}_{P^n}(p+1+t)        (appears twice)
    free          O(t)^{+binom(n,p+1)}
    middle        Omega^{p+1}_{P^n}(p+2+t)
    right         Omega^{p+1}_{P^{n-1}}(p+2+t)    (appears twice)
    bottom_left   Omega^p_{P^{n-1}}(p+1+t)
    bottom_mid    Omega^{p+1}_{P^n}(p+2+t) restricted to x_n = 0

and the arrows are realized as matrices between the explicit section
bases of the forms module.  All eight are maps of forms, each given by an
explicit rule on codes (twist, free inclusion, restriction, restriction
to the hyperplane, wedge, drop, and the left column's top -> free and
free -> bottom_left): lookups in the forms module's tables that send each
ambient code (I, m) of the source to the signed codes of its image, each
with a comment giving that (I, m) meaning.  Each map reads its
coordinates off the target basis's free rows, with no elimination and no
solve.  An image outside its target aborts construction with a named
diagnostic.  Nothing at construction checks that the squares commute:
the ledger does, so a left map that does not commute fails its square
there.  t = 0 is the theorem instance; larger twists are a faithfulness
sweep with the same code.

Row 2, 0 -> free -> middle -> right, is the elementary transformation
(Claim I): its ledger entry checks that the kernel generators are
independent and span the kernel of the restriction, so at t = d-p-2 the
restriction of (p+1)-forms of twist d has a kernel of dimension
binom(n, p+1) * h^0(O(d-p-2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bott import binom, h_omega
from .exactalg import ExactMatrix, snake_check
from .forms import (
    DEFAULT_PRIME,
    ConsistencyError,
    _code,
    _section_map,
    _subsets,
    _times,
    _truncation,
    conormal_wedge,
    drop_last_differential,
    free_sections,
    h0_basis,
    restricted_sections,
    restriction_of_forms,
)

__all__ = [
    "DisplayInstance",
    "ExactnessLedger",
    "SequenceCheck",
    "build_display",
    "verify_display",
]

NODE_NAMES = ("top", "free", "middle", "right", "bottom_left", "bottom_mid")


@dataclass(frozen=True)
class SequenceCheck:
    """Exactness record for one row or column 0 -> K -> M -> Q."""

    name: str
    dims: tuple  # (dim K, dim M, dim Q)
    rank_in: int
    rank_out: int
    coker: int
    h1_obstruction: int
    verdict: str  # exact-at-sections / exact-with-known-h1-obstruction / failed

    @property
    def ok(self) -> bool:
        return self.verdict != "failed"


@dataclass(frozen=True)
class ExactnessLedger:
    n: int
    p: int
    t: int
    node_dims: dict
    squares: tuple  # (name, commutes) pairs
    sequences: tuple  # SequenceCheck per row/column
    snake_ok: bool

    @property
    def failures(self) -> tuple:
        """Names of the failing squares, then sequences, then "snake"."""
        bad = [name for name, ok in self.squares if not ok]
        bad += [s.name for s in self.sequences if not s.ok]
        return tuple(bad) + (() if self.snake_ok else ("snake",))

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class DisplayInstance:
    n: int
    p: int
    t: int
    q: int | None
    nodes: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)

    def node_dims(self) -> dict:
        return {name: self.nodes[name].dim for name in NODE_NAMES}


def build_display(n: int, p: int, t: int, q=DEFAULT_PRIME) -> DisplayInstance:
    """Construct all six section spaces and eight maps of the display.

    J_j is the j-th (p+1)-subset of {0..n-1}.  The j-th copy of O(t) is
    carried onto multiples of the contraction of the Euler field with
    dx_{J_j} ^ dx_n; these forms restrict to zero on the hyperplane and
    generate the kernel of the restriction.  The left column reads the
    two commuting squares off those generators: top -> free takes the
    coefficient of dx_{J_j}, whose generator term is (-1)^(p+1) x_n dx_{J_j},
    and free -> bottom_left is the Euler contraction of x^m dx_{J_j} on the
    hyperplane, signed by (-1)^p to match the conormal wedge.
    """
    if n < 1 or not 0 <= p <= n - 1:
        raise ValueError("display needs n >= 1 and 0 <= p <= n-1")
    inst = DisplayInstance(n, p, t, q)
    top = h0_basis(n, p + 1, p + 1 + t, q)
    free = free_sections(n, t, binom(n, p + 1), q)
    middle = h0_basis(n, p + 1, p + 2 + t, q)
    right = h0_basis(n - 1, p + 1, p + 2 + t, q)
    bottom_left = h0_basis(n - 1, p, p + 1 + t, q)
    bottom_mid = restricted_sections(n, p + 1, p + 2 + t, q)

    inst.nodes = {
        "top": top,
        "free": free,
        "middle": middle,
        "right": right,
        "bottom_left": bottom_left,
        "bottom_mid": bottom_mid,
    }
    case = "(%d,%d,t=%d)" % (n, p, t)
    # Rules on codes: J_j's elements, and the ranks of the sets one step
    # from it (see forms._subsets); x_j times a degree-t monomial on P^n.
    sub, sub_n = _subsets(n, p + 1), _subsets(n + 1, p + 1)
    times = _times(n + 1, t)
    positions = np.arange(p + 2)[:, None]

    # middle row left arrow: the kernel generators.
    # (j, m) -> sum over pos of (-1)^pos (J_j + (n,) - v, x_v m), v its pos-th element.
    # J_j + (n,) - J_j[pos] is (J_j - J_j[pos]) + (n,), and without n it is J_j.
    full = np.concatenate([sub.elements, np.full((len(sub.elements), 1), n)], axis=1)
    full_minus = np.concatenate([sub_n.ended[sub.minus], sub_n.kept[:, None]], axis=1)

    def generator_rule(sets, mons):
        codes = full_minus[sets].T * middle.width + times[full[sets].T, mons]
        return codes, np.where(positions % 2, -1, 1)

    free_incl = _section_map(free, middle, generator_rule, "kernel generators " + case)

    # middle column top arrow: multiplication by x_n.
    # (I, m) -> (I, x_n m).
    def xn_rule(sets, mons):
        return sets * middle.width + times[n, mons], 1

    twist = _section_map(top, middle, xn_rule, "twist inclusion")

    restrict = restriction_of_forms(n, p + 1, p + 2 + t, q)
    wedge = conormal_wedge(n, p, p + 2 + t, q)
    drop = drop_last_differential(n, p + 1, p + 2 + t, q)

    # middle column bottom arrow: restrict coefficients mod x_n, keep dx_n.
    # (I, m) -> (I, m|x_n=0), none if x_n divides m.
    trunc = _truncation(n + 1, t + 1)

    def hyp_rule(sets, mons):
        return _code(sets, trunc[mons], bottom_mid.width), 1

    to_hyperplane = _section_map(middle, bottom_mid, hyp_rule, "restriction to hyperplane")

    # left column top arrow: the coefficient of dx_{J_j}.
    # (I, m) -> (j, m) with J_j = I, sign (-1)^(p+1), none if n in I.
    def top_rule(sets, mons):
        return _code(sub_n.lower[sets], mons, free.width), -1 if (p + 1) % 2 else 1

    left_top = _section_map(top, free, top_rule, "top to free " + case)

    # left column bottom arrow: the Euler contraction on the hyperplane.
    # (j, m) -> sum over pos of (-1)^(p+pos) (J_j - v, (x_v m)|x_n=0), v its
    # pos-th element; none if x_n divides m.
    def bottom_rule(sets, mons):
        mons = trunc[times[sub.elements[sets].T, mons]]
        codes = _code(sub.minus[sets].T, mons, bottom_left.width)
        return codes, np.where((p + positions[:-1]) % 2, -1, 1)

    left_bottom = _section_map(free, bottom_left, bottom_rule, "free to bottom_left " + case)

    inst.maps = {
        "twist": twist,  # top -> middle
        "free_incl": free_incl,  # free -> middle
        "restrict": restrict,  # middle -> right
        "to_hyperplane": to_hyperplane,  # middle -> bottom_mid
        "wedge": wedge,  # bottom_left -> bottom_mid
        "drop": drop,  # bottom_mid -> right
        "left_top": left_top,  # top -> free
        "left_bottom": left_bottom,  # free -> bottom_left
    }
    return inst


def _check_sequence(name, f, g, h1, h1_mid=None) -> SequenceCheck:
    """Exactness of 0 -> K -f-> M -g-> Q at the section level.

    ``h1`` is h^1(K), which bounds the cokernel on sections.  When h^1(M)
    (``h1_mid``, None where it is not known) is 0 the cohomology sequence
    makes H^0(Q) -> H^1(K) onto, so the cokernel must equal h^1(K).
    """
    dims = (f.cols, f.rows, g.rows)
    rf, rg = f.rank(), g.rank()
    coker = g.rows - rg
    injective = rf == f.cols
    composite_zero = (g @ f).is_zero()
    middle_exact = (f.rows - rg) == rf
    coker_ok = coker == h1 if h1_mid == 0 else coker <= h1
    if not (injective and composite_zero and middle_exact and coker_ok):
        verdict = "failed"
    elif coker == 0:
        verdict = "exact-at-sections"
    else:
        verdict = "exact-with-known-h1-obstruction"
    return SequenceCheck(name, dims, rf, rg, coker, h1, verdict)


def _snake_on_lower_rows(inst: DisplayInstance) -> bool:
    """Apply the snake checker to rows two and three with the vertical maps."""
    m = inst.maps
    ident = ExactMatrix.identity(inst.nodes["right"].dim, inst.q)
    try:
        ledger = snake_check(
            m["free_incl"],
            m["restrict"],
            m["wedge"],
            m["drop"],
            m["left_bottom"],
            m["to_hyperplane"],
            ident,
        )
    except ValueError:
        return False
    return ledger.exact


def verify_display(n: int, p: int, t_min: int, t_max: int, q=DEFAULT_PRIME) -> list:
    """Ledgers for every t in [t_min, t_max].

    Any commutativity or exactness failure at t = 0 raises, since that
    would falsify the construction itself; nonzero twists report their
    verdicts in the ledger instead.
    """
    ledgers = []
    for t in range(t_min, t_max + 1):
        inst = build_display(n, p, t, q)
        ledgers.append(ledger_for(inst))
        if t == 0 and ledgers[-1].failures:
            raise ConsistencyError(
                "display(%d,%d,t=0) failed at: %s" % (n, p, ", ".join(ledgers[-1].failures))
            )
    return ledgers


def ledger_for(inst: DisplayInstance) -> ExactnessLedger:
    n, p, t, m = inst.n, inst.p, inst.t, inst.maps
    squares = (
        ("top square", m["free_incl"] @ m["left_top"] == m["twist"]),
        (
            "bottom-left square",
            m["wedge"] @ m["left_bottom"] == m["to_hyperplane"] @ m["free_incl"],
        ),
        ("bottom-right square", m["drop"] @ m["to_hyperplane"] == m["restrict"]),
    )
    h1_free = binom(n, p + 1) * _h1_safe(n, 0, t)
    h1_row3 = _h1_safe(n - 1, p, p + 1 + t)
    h1_col = _h1_safe(n, p + 1, p + 1 + t)
    h1_middle = _h1_safe(n, p + 1, p + 2 + t)
    # Row 3's middle term is a restricted bundle, whose h^1 bott does not give.
    sequences = (
        _check_sequence("row 2", m["free_incl"], m["restrict"], h1_free, h1_middle),
        _check_sequence("row 3", m["wedge"], m["drop"], h1_row3),
        _check_sequence("left column", m["left_top"], m["left_bottom"], h1_col, h1_free),
        _check_sequence("middle column", m["twist"], m["to_hyperplane"], h1_col, h1_middle),
    )
    # The snake pass needs both lower rows short exact at sections; when a
    # twist leaves an h^1 obstruction the check is vacuous.
    rows_exact = all(s.verdict == "exact-at-sections" for s in sequences[:2])
    snake_ok = _snake_on_lower_rows(inst) if rows_exact else True
    return ExactnessLedger(n, p, t, inst.node_dims(), squares, sequences, snake_ok)


def _h1_safe(n: int, p: int, d: int) -> int:
    if n < 1 or p > n:
        return 0
    return h_omega(n, p, d, 1)

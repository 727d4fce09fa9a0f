"""Exact-arithmetic verification toolkit for twisted differential forms on
projective space: cohomology dimension formulas, Koszul-kernel section
bases, the elementary-transformation display, maximal-rank evaluation
certificates, and Horace induction bookkeeping."""

from .bott import binom, duality_consistency, h_O, h_omega
from .display import build_display, verify_display
from .exactalg import ExactMatrix, SnakeLedger, snake_check
from .forms import (
    DEFAULT_PRIME,
    SectionSpace,
    claim_i_kernel_test,
    conormal_wedge,
    contraction_matrix,
    h0_basis,
    restricted_sections,
    restriction_of_forms,
)
from .horace import HoraceNode, plan, verify_tree
from .maxrank import (
    BettiLedger,
    PointSet,
    ProjPoint,
    RankCertificate,
    eval_matrix,
    maxrank_test,
    random_points,
    verify_certificate,
)

__version__ = "0.1.0"

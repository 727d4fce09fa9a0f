"""Induction bookkeeping for the differential Horace method.

A problem instance asks whether evaluation of H^0(Omega^{p+1}_{P^n}(d+p+1))
at s general points has maximal rank.  A split node specializes as many
points onto the hyperplane as the hyperplane problem can absorb, producing
a hyperplane child on P^{n-1}, an interior node for the remaining points,
and a degree-lowered child carrying the induction on d.  The engine does
not transfer verdicts along the implication; every node is verified at
general points by its own rank computation, and any internal node whose
children are all witnessed but which itself is not gets flagged as an
implication failure.  Nodes with one (n, p, d) share the work: one seeded
point sequence per trial, whose prefixes of each node's s points are
ranked by one elimination (``maxrank.certify_counts``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

from .bott import h_omega
from .forms import DEFAULT_PRIME
from .maxrank import RankCertificate, certify_counts

__all__ = ["HoraceNode", "HoraceReport", "plan", "verify_tree", "render_tree"]


@dataclass
class HoraceNode:
    n: int
    p: int
    d: int
    s: int
    role: str
    source_dim: int
    target_dim: int
    s_hyperplane: int = 0
    residual_dim: int = 0  # dim D(lambda) = rk(F) - dim ker(lambda)
    hyperplane_conditions: int = 0
    interior_conditions: int = 0
    residual_conditions: int = 0
    children: list = field(default_factory=list)
    status: str = "unverified"  # unverified / witnessed-maximal / not-witnessed
    certificate: RankCertificate | None = None

    @property
    def problem(self):
        return (self.n, self.p, self.d, self.s)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "problem": {"n": self.n, "p": self.p, "d": self.d, "s": self.s},
            "role": self.role,
            "ledger": {
                "source_dim": self.source_dim,
                "target_dim": self.target_dim,
                "residual_dim": self.residual_dim,
                "hyperplane_conditions": self.hyperplane_conditions,
                "interior_conditions": self.interior_conditions,
                "residual_conditions": self.residual_conditions,
            },
            "s_hyperplane": self.s_hyperplane,
            "status": self.status,
            "children": [c.to_dict() for c in self.children],
        }


def _node_dims(n, p, d, s):
    source = h_omega(n, p + 1, d + p + 1, 0) if p + 1 <= n else 0
    return source, s * comb(n, p + 1)


def plan(n: int, p: int, d: int, s: int, d_base: int) -> HoraceNode:
    """Build the recursion tree; a pure function of its arguments.

    Leaves are instances with n = 1, d = d_base, or no points; split nodes
    record how many points go to the hyperplane and the dimension ledger
    of the specialization.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if d < d_base or d_base < 0:
        raise ValueError("need d >= base >= 0, got d=%d, base=%d" % (d, d_base))
    return _plan(n, p, d, s, d_base, "root")


def _plan(n, p, d, s, d_base, role) -> HoraceNode:
    source, target = _node_dims(n, p, d, s)
    if n == 1 or d == d_base or s == 0:
        return HoraceNode(n, p, d, s, "leaf-base-case", source, target)
    node = HoraceNode(n, p, d, s, role, source, target)

    hyp_space = h_omega(n - 1, p + 1, d + p + 1, 0) if p + 1 <= n - 1 else 0
    hyp_fiber = comb(n - 1, p + 1)
    s_hyp = 0 if hyp_fiber == 0 else min(s, hyp_space // hyp_fiber)
    s_int = s - s_hyp
    fiber = comb(n, p + 1)

    ker_lambda = max(0, hyp_space - s_hyp * hyp_fiber)
    node.s_hyperplane = s_hyp
    node.residual_dim = fiber - ker_lambda
    node.hyperplane_conditions = s_hyp * hyp_fiber
    node.interior_conditions = s_int * fiber
    node.residual_conditions = s_hyp * (fiber - hyp_fiber)

    node.children.append(_plan(n - 1, p, d, s_hyp, d_base, "alpha3-hyperplane"))

    interior_source, interior_target = _node_dims(n, p, d, s_int)
    interior = HoraceNode(
        n, p, d, s_int, "alpha1-interior", interior_source, interior_target
    )
    interior.children.append(
        _plan(n, p, d - 1, s_int, d_base, "alpha1prime-degree-lowered")
    )
    node.children.append(interior)
    return node


@dataclass
class HoraceReport:
    tree: HoraceNode
    implication_failures: list

    @property
    def all_witnessed(self) -> bool:
        return all(node.status == "witnessed-maximal" for node in self.tree.walk())

    @property
    def consistent(self) -> bool:
        return not self.implication_failures


def verify_tree(
    tree: HoraceNode, q=DEFAULT_PRIME, trials: int = 5, seed: int = 0
) -> HoraceReport:
    """Rank-check every node, then audit the induction implications.

    Nodes are grouped by (n, p, d), and one ``certify_counts`` call
    certifies every point count of a group: the prefixes of one seeded
    point sequence per trial, ranked by one elimination.  A group's seed
    is ``seed * 100_003`` plus the walk index of its first node.  An
    implication failure (all children witnessed, node itself not) is a
    distinguished report entry, not a crash: it would point at either a
    bug or a genuine counterexample at that instance.
    """
    nodes = list(tree.walk())
    groups = {}  # (n, p, d) -> (walk index of its first node, its nodes)
    for idx, node in enumerate(nodes):
        groups.setdefault(node.problem[:3], (idx, []))[1].append(node)
    for (n, p, d), (idx, members) in groups.items():
        certs = certify_counts(
            n, p, d, [node.s for node in members], q, trials, seed * 100_003 + idx
        )
        for node in members:
            node.certificate = certs[node.s]
            node.status = "witnessed-maximal" if node.certificate.maximal else "not-witnessed"
    failures = []
    for node in nodes:
        if not node.children:
            continue
        if all(c.status == "witnessed-maximal" for c in node.children) and (
            node.status != "witnessed-maximal"
        ):
            failures.append(node.problem)
    return HoraceReport(tree, failures)


_GLYPHS = {"witnessed-maximal": "+", "not-witnessed": "x", "unverified": "?"}


def render_tree(node: HoraceNode, indent: int = 0) -> str:
    glyph = _GLYPHS[node.status]
    lines = [
        "%s[%s] %s n=%d p=%d d=%d s=%d  (h0=%d, conditions=%d, s_H=%d)"
        % (
            "  " * indent,
            glyph,
            node.role,
            node.n,
            node.p,
            node.d,
            node.s,
            node.source_dim,
            node.target_dim,
            node.s_hyperplane,
        )
    ]
    for child in node.children:
        lines.append(render_tree(child, indent + 1))
    return "\n".join(lines)


def tree_to_json(report: HoraceReport) -> str:
    doc = report.tree.to_dict()
    doc["implication_failures"] = [
        {"n": n, "p": p, "d": d, "s": s} for (n, p, d, s) in report.implication_failures
    ]
    return json.dumps(doc, indent=2) + "\n"

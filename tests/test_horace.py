"""Recursion-tree construction and direct verification for the Horace split."""

import json

import pytest

from twistforms.bott import binom, h_omega
from twistforms.horace import (
    HoraceNode,
    HoraceReport,
    plan,
    render_tree,
    tree_to_json,
    verify_tree,
)
from twistforms.maxrank import maxrank_test, verify_certificate


def test_plan_line_instance_is_a_leaf():
    node = plan(1, 0, 3, 2, 0)
    assert node.role == "leaf-base-case"
    assert node.children == []
    assert node.source_dim == h_omega(1, 1, 4, 0) == 3
    assert node.target_dim == 2


def test_plan_2024_split_structure():
    root = plan(2, 0, 2, 4, 1)
    assert root.role == "root"
    # Hyperplane problem: h^0(Omega^1_{P^1}(3)) = 2 sections, fiber rank 1,
    # so it absorbs min(4, 2) = 2 points.
    assert root.s_hyperplane == 2
    hyp, interior = root.children
    # The hyperplane instance lives on a line, so it is itself a base case.
    assert hyp.role == "leaf-base-case"
    assert hyp.problem == (1, 0, 2, 2)
    assert interior.role == "alpha1-interior"
    assert interior.problem == (2, 0, 2, 2)
    lowered = interior.children[0]
    assert lowered.problem == (2, 0, 1, 2)
    assert lowered.role == "leaf-base-case"  # d reached d_base
    assert lowered.children == []


def test_plan_condition_accounting():
    # Hyperplane + residual conditions account for all conditions the
    # specialized points impose.
    root = plan(3, 0, 3, 6, 1)
    for node in root.walk():
        if not node.children or node.role == "alpha1-interior":
            continue
        fiber = binom(node.n, node.p + 1)
        assert (
            node.hyperplane_conditions + node.residual_conditions
            == node.s_hyperplane * fiber
        )
        assert node.interior_conditions == (node.s - node.s_hyperplane) * fiber


def test_plan_residual_dim_recomputes():
    root = plan(3, 1, 3, 4, 1)
    for node in root.walk():
        if not node.children or node.role == "alpha1-interior":
            continue
        if node.p + 1 > node.n - 1:
            hyp_space = 0
        else:
            hyp_space = h_omega(node.n - 1, node.p + 1, node.d + node.p + 1, 0)
        ker = max(0, hyp_space - node.hyperplane_conditions)
        assert node.residual_dim == binom(node.n, node.p + 1) - ker


def test_plan_is_pure():
    a = plan(2, 0, 3, 5, 1)
    b = plan(2, 0, 3, 5, 1)
    assert a.to_dict() == b.to_dict()
    for node in a.walk():
        assert node.status == "unverified"
        assert node.certificate is None


def test_plan_rejects_bad_arguments():
    with pytest.raises(ValueError):
        plan(0, 0, 2, 1, 1)
    with pytest.raises(ValueError):
        plan(2, 0, 1, 1, 2)


def test_verify_tree_all_witnessed():
    report = verify_tree(plan(2, 0, 2, 4, 1), q=101, trials=5, seed=0)
    assert report.all_witnessed
    assert report.consistent
    for node in report.tree.walk():
        assert node.status == "witnessed-maximal"
        assert node.certificate is not None
        assert node.certificate.maximal


def test_verify_tree_zero_points_vacuous():
    report = verify_tree(plan(2, 0, 2, 0, 1), q=101, trials=1, seed=0)
    assert report.all_witnessed
    assert report.tree.role == "leaf-base-case"


def test_verify_tree_seeded_deterministic():
    r1 = verify_tree(plan(2, 1, 3, 3, 1), q=101, trials=5, seed=9)
    r2 = verify_tree(plan(2, 1, 3, 3, 1), q=101, trials=5, seed=9)
    assert tree_to_json(r1) == tree_to_json(r2)


def test_render_tree_marks_statuses():
    report = verify_tree(plan(3, 0, 3, 4, 1), q=101, trials=5, seed=0)
    text = render_tree(report.tree)
    assert "[+] root" in text
    assert "alpha3-hyperplane" in text
    assert "alpha1prime-degree-lowered" in text
    assert "x" not in text.split("]")[0]


def test_tree_json_schema():
    report = verify_tree(plan(2, 0, 2, 3, 1), q=101, trials=5, seed=0)
    doc = json.loads(tree_to_json(report))
    assert doc["problem"] == {"n": 2, "p": 0, "d": 2, "s": 3}
    assert doc["implication_failures"] == []
    assert {c["role"] for c in doc["children"]} == {
        "leaf-base-case",  # the hyperplane problem sits on a line
        "alpha1-interior",
    }


def test_implication_failure_detection_is_wired():
    # Force a failure report by hand-marking statuses.
    root = plan(2, 0, 2, 4, 1)
    for node in root.walk():
        node.status = "witnessed-maximal"
    root.status = "not-witnessed"
    failures = [
        node.problem
        for node in root.walk()
        if node.children
        and all(c.status == "witnessed-maximal" for c in node.children)
        and node.status != "witnessed-maximal"
    ]
    report = HoraceReport(root, failures)
    assert not report.consistent
    assert report.implication_failures == [(2, 0, 2, 4)]


def per_node_report(tree, q, trials, seed):
    """Reference: every node certified on its own, by ``maxrank_test`` with
    the seed of its walk index."""
    nodes = list(tree.walk())
    for idx, node in enumerate(nodes):
        cert = maxrank_test(node.n, node.p, node.d, node.s, q, trials, seed * 100_003 + idx)
        node.status = "witnessed-maximal" if cert.maximal else "not-witnessed"
    failures = [
        node.problem
        for node in nodes
        if node.children
        and all(c.status == "witnessed-maximal" for c in node.children)
        and node.status != "witnessed-maximal"
    ]
    return HoraceReport(tree, failures)


SMALL_TREES = [(2, 0, 2, 4, 1), (2, 1, 3, 3, 1), (3, 0, 3, 6, 1), (3, 1, 3, 4, 1), (3, 0, 4, 10, 1)]


@pytest.mark.parametrize("q", [101, None])
@pytest.mark.parametrize("args", SMALL_TREES)
def test_grouped_audit_matches_the_per_node_audit(args, q):
    report = verify_tree(plan(*args), q=q, trials=5, seed=3)
    reference = per_node_report(plan(*args), q, 5, 3)
    assert [n.status for n in report.tree.walk()] == [n.status for n in reference.tree.walk()]
    assert tree_to_json(report) == tree_to_json(reference)
    assert render_tree(report.tree) == render_tree(reference.tree)


@pytest.mark.parametrize("q", [101, None])
@pytest.mark.parametrize("args", SMALL_TREES)
def test_every_node_certificate_replays(args, q):
    report = verify_tree(plan(*args), q=q, trials=5, seed=0)
    first = {}
    for idx, node in enumerate(report.tree.walk()):
        cert = node.certificate
        assert (cert.n, cert.p, cert.d, cert.s) == node.problem
        assert verify_certificate(cert)
        # One seed per (n, p, d): that of the first node with it.
        assert cert.seed == first.setdefault(node.problem[:3], idx)
        if node.s == 0:
            assert cert.rank == 0 and cert.maximal and cert.points == ()
            assert node.status == "witnessed-maximal"

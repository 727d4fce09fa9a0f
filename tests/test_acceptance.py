"""Acceptance gate: one test per headline property, one verdict line each.

Every check is exact (zero tolerance); randomized parts are seeded and
bounded by the stated trial budget.
"""

import math
import sys

import pytest

from twistforms.bott import binom, duality_consistency, h_O, h_omega
from twistforms.display import build_display, ledger_for, verify_display
from twistforms.exactalg import ExactMatrix, snake_check
from twistforms.forms import contraction_matrix, h0_basis, restriction_of_forms
from twistforms.horace import plan, verify_tree
from twistforms.maxrank import RankCertificate, maxrank_test, verify_certificate


def _verdict(label, ok):
    sys.__stdout__.write("%s: %s\n" % (label, "PASS" if ok else "FAIL"))
    assert ok, label


def test_criterion_1_bott_cross_validation():
    ok = True
    cases = 0
    for n in range(5):
        for p in range(n + 1):
            for d in range(p + 1, p + 5):
                cases += 1
                if h_omega(n, p, d, 0) != h0_basis(n, p, d).dim:
                    ok = False
    assert cases >= 35
    for n in range(5):
        for p in range(n + 1):
            for d in range(-(n + 4), n + 5):
                if not duality_consistency(n, p, d):
                    ok = False
    _verdict("criterion 1 (dimension formula vs Koszul kernels + duality)", ok)


def test_criterion_2_koszul_differential():
    ok = True
    for n in range(1, 5):
        for p in range(2, n + 2):
            for d in range(p, p + 4):
                a = contraction_matrix(n, p - 1, d, q=101)
                b = contraction_matrix(n, p, d, q=101)
                if a.cols and b.rows and not (a @ b).is_zero():
                    ok = False
    _verdict("criterion 2 (contraction matrices compose to zero)", ok)


def test_criterion_3_display_verification():
    ok = True
    for n in (2, 3, 4):
        for p in range(n):
            for ledger in verify_display(n, p, 0, 3):
                if not ledger.passed:
                    ok = False
    dims = build_display(2, 0, 0).node_dims()
    ok = ok and dims == {
        "top": 0, "free": 2, "middle": 3, "right": 1, "bottom_left": 2, "bottom_mid": 3,
    }
    ok = ok and dims["free"] + dims["right"] == dims["middle"] == 3
    dims310 = build_display(3, 1, 0).node_dims()
    ok = ok and (dims310["free"], dims310["right"], dims310["middle"]) == (3, 1, 4)
    _verdict("criterion 3 (display commutes and is exact at sections)", ok)


def test_criterion_4_restriction_kernel_sweep():
    ok = True
    for n in range(1, 5):
        for p in range(n):
            for d in range(0, p + 5):
                # Claim I is row 2 of the display at t = d-p-2.
                row2 = ledger_for(build_display(n, p, d - p - 2)).sequences[0]
                kernel = row2.dims[1] - row2.rank_out
                if not (row2.ok and kernel == binom(n, p + 1) * h_O(n, d - p - 2, 0)):
                    ok = False
    m = restriction_of_forms(2, 1, 3)
    ok = ok and m.cols - m.rank() == 6
    _verdict("criterion 4 (restriction-kernel dimensions)", ok)


def _p0_s_range(n, d):
    h0 = h_omega(n, 1, d + 1, 0)
    return range(1, math.ceil(h0 / 2) + 3)


def test_criterion_5_maximal_rank_grid():
    ok = True
    for d in range(1, 6):
        for s in _p0_s_range(2, d):
            if not maxrank_test(2, 0, d, s, q=101, trials=5, seed=0).maximal:
                ok = False
    for d in range(1, 4):
        h0 = h_omega(2, 2, d + 2, 0)
        for s in range(1, h0 + 3):
            if not maxrank_test(2, 1, d, s, q=101, trials=5, seed=0).maximal:
                ok = False
    for d in range(1, 7):
        for s in range(1, 9):
            if not maxrank_test(1, 0, d, s, q=101, trials=5, seed=0).maximal:
                ok = False
    cert = maxrank_test(2, 0, 2, 4, q=None, trials=1, seed=0)
    ok = ok and cert.maximal and cert.shape == (8, 8)
    _verdict("criterion 5 (point evaluation has maximal rank)", ok)


def test_criterion_6_horace_consistency():
    ok = True
    grids = []
    for d in range(1, 6):
        grids += [(2, 0, d, s) for s in _p0_s_range(2, d)]
    for d in range(1, 4):
        h0 = h_omega(2, 2, d + 2, 0)
        grids += [(2, 1, d, s) for s in range(1, h0 + 3)]
    for d in range(1, 7):
        grids += [(1, 0, d, s) for s in range(1, 9)]
    for (n, p, d, s) in grids:
        report = verify_tree(plan(n, p, d, s, 1), q=101, trials=5, seed=0)
        if report.implication_failures:
            ok = False
    _verdict("criterion 6 (induction tree has no implication failures)", ok)


def test_criterion_7_snake_suite():
    i = ExactMatrix(2, 1, [[1], [0]])
    q = ExactMatrix(1, 2, [[0, 1]])
    f1 = ExactMatrix(1, 1, [[0]])
    f2 = ExactMatrix(2, 2, [[0, 0], [0, 1]])
    f3 = ExactMatrix.identity(1)
    ledger = snake_check(i, q, i, q, f1, f2, f3)
    ok = (
        ledger.exact
        and (ledger.ker1, ledger.ker2, ledger.ker3) == (1, 1, 0)
        and (ledger.coker1, ledger.coker2, ledger.coker3) == (1, 1, 0)
    )
    try:
        snake_check(i, q, i, q, f1, ExactMatrix.identity(2), f3)
        ok = False
    except ValueError:
        pass
    _verdict("criterion 7 (six-term ledger and commutativity guard)", ok)


def test_criterion_8_reproducibility(tmp_path):
    ok = True
    for (n, p, d, s, q) in [(2, 0, 2, 4, 101), (2, 1, 2, 3, 101), (2, 0, 2, 4, None)]:
        a = maxrank_test(n, p, d, s, q=q, trials=5, seed=7)
        b = maxrank_test(n, p, d, s, q=q, trials=5, seed=7)
        if a.to_json() != b.to_json():
            ok = False
        replay = RankCertificate.from_json(a.to_json())
        if not verify_certificate(replay) or replay != a:
            ok = False
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text(maxrank_test(2, 0, 3, 5, q=101, trials=5, seed=1).to_json())
    fb.write_text(maxrank_test(2, 0, 3, 5, q=101, trials=5, seed=1).to_json())
    ok = ok and fa.read_bytes() == fb.read_bytes()
    _verdict("criterion 8 (bit-exact certificate replay)", ok)

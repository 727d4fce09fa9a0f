"""Section-level verification of the 3x3 elementary-transformation display."""

import pytest

from twistforms.bott import binom, h_O
from twistforms.display import (
    ExactnessLedger,
    SequenceCheck,
    _check_sequence,
    build_display,
    ledger_for,
    verify_display,
)
from twistforms.exactalg import ExactMatrix, snake_check
from twistforms.forms import ConsistencyError


def test_node_dimensions_200():
    inst = build_display(2, 0, 0)
    assert inst.node_dims() == {
        "top": 0,
        "free": 2,
        "middle": 3,
        "right": 1,
        "bottom_left": 2,
        "bottom_mid": 3,
    }


def test_node_dimensions_310():
    inst = build_display(3, 1, 0)
    dims = inst.node_dims()
    assert dims["free"] == 3
    assert dims["middle"] == 4
    assert dims["right"] == 1
    assert dims["free"] + dims["right"] == dims["middle"]


def test_row2_dimension_identity():
    for n in (2, 3):
        for p in range(n):
            for t in range(4):
                dims = build_display(n, p, t).node_dims()
                assert dims["free"] + dims["right"] == dims["middle"], (n, p, t)
                assert dims["free"] == binom(n, p + 1) * h_O(n, t, 0)


def test_verify_display_small_grid():
    for n in (2, 3):
        for p in range(n):
            for ledger in verify_display(n, p, 0, 3):
                assert all(ok for _, ok in ledger.squares), (n, p, ledger.t)
                assert all(
                    s.verdict == "exact-at-sections" for s in ledger.sequences
                ), (n, p, ledger.t)
                assert ledger.snake_ok, (n, p, ledger.t)


def test_negative_twists_meet_the_h1_of_their_kernels():
    # Only p = 0, t = -1 leaves a cokernel: H^1(Omega^1) = 1 on the left and
    # middle columns, whose middle terms have h^1 = 0, so it must equal 1.
    for n in (2, 3, 4):
        for p in range(n):
            for t in range(-3, 1):
                ledger = ledger_for(build_display(n, p, t))
                assert ledger.passed, (n, p, t)
                for s in ledger.sequences:
                    if (p, t) == (0, -1) and s.name in ("left column", "middle column"):
                        assert (s.coker, s.h1_obstruction) == (1, 1)
                        assert s.verdict == "exact-with-known-h1-obstruction"
                    else:
                        assert s.verdict == "exact-at-sections", (n, p, t, s.name)


def test_cokernel_short_of_h1_fails_when_the_middle_h1_vanishes():
    # 0 -> 0 -> k -> k^2: exact at the left and middle, cokernel 1.
    f, g = ExactMatrix(1, 0, [[]], q=101), ExactMatrix(2, 1, [[1], [0]], q=101)
    assert _check_sequence("s", f, g, 2).verdict == "exact-with-known-h1-obstruction"
    assert _check_sequence("s", f, g, 2, 0).verdict == "failed"
    assert _check_sequence("s", f, g, 1, 0).verdict == "exact-with-known-h1-obstruction"
    assert _check_sequence("s", f, g, 0, 0).verdict == "failed"


def test_left_column_composition_vanishes():
    for (n, p, t) in [(2, 0, 0), (2, 0, 2), (3, 1, 1), (3, 2, 0)]:
        inst = build_display(n, p, t)
        m = inst.maps
        assert (m["left_bottom"] @ m["left_top"]).is_zero()
        assert m["left_top"].rank() + m["left_bottom"].rank() == inst.nodes["free"].dim


def test_free_map_kernel_equals_top_image():
    # ker(free -> bottom_left) = im(top -> free), by rank identity.
    for (n, p, t) in [(2, 0, 1), (2, 0, 3), (3, 0, 1), (3, 1, 2)]:
        inst = build_display(n, p, t)
        m = inst.maps
        lt, lb = m["left_top"], m["left_bottom"]
        assert lt.rank() == inst.nodes["top"].dim  # injective
        assert inst.nodes["free"].dim - lb.rank() == lt.rank(), (n, p, t)
        assert (lb @ lt).is_zero()


FIELDS = [2, 3, 101, 2**31 - 1, 2**61 - 1, None]


@pytest.mark.parametrize("q", FIELDS)
def test_left_maps_equal_the_solves_of_their_squares(q):
    # The left column by its term rules against the solves it replaced:
    # entry for entry, in dtype and in Python entry type.
    for n in range(1, 5):
        for p in range(n):
            for t in (-1, 0, 1):
                m = build_display(n, p, t, q).maps
                solved = {
                    "left_top": m["free_incl"].solve(m["twist"]),
                    "left_bottom": m["wedge"].solve(m["to_hyperplane"] @ m["free_incl"]),
                }
                for name, want in solved.items():
                    got, case = m[name], (n, p, t, name)
                    assert want is not None and got == want, case
                    assert got._a.dtype == want._a.dtype, case
                    assert [type(x) for x in got._a.ravel()] == [
                        type(x) for x in want._a.ravel()
                    ], case


def test_display_past_int64_moduli():
    # A map's coordinates are reduced as Python ints when q is past int64;
    # at 2^80 - 65 that reduction overflowed before.
    q = 2**80 - 65
    for n in (2, 3):
        for ledger in verify_display(n, 0, -1, 1, q) + verify_display(n, n - 1, -1, 1, q):
            assert ledger.passed, ledger
    m = build_display(3, 0, 1, q).maps["free_incl"]
    assert m._a.dtype == object and all(type(x) is int for x in m._a.ravel())


def _changed(inst, name):
    # One entry of a left map, moved by one.
    a = inst.maps[name]._a.copy()
    a[0, 0] = (a[0, 0] + 1) % inst.q
    inst.maps[name] = ExactMatrix._wrap(a, inst.q)
    return inst


@pytest.mark.parametrize("name", ["left_top", "left_bottom"])
def test_a_changed_left_map_fails_its_square(name):
    # Construction checks that each image lies in its target, not that the
    # squares commute: the ledger does.
    squares = ledger_for(_changed(build_display(3, 1, 1), name)).squares
    assert dict(squares) == {
        "top square": name != "left_top",
        "bottom-left square": name != "left_bottom",
        "bottom-right square": True,
    }


def test_verify_display_raises_on_a_changed_left_map(monkeypatch):
    # At t = 0 the top node is empty, as h^0(Omega^{p+1}(p+1)) = 0, so
    # only left_bottom has an entry to change.
    from twistforms import display

    monkeypatch.setattr(
        display, "build_display", lambda *args: _changed(build_display(*args), "left_bottom")
    )
    with pytest.raises(ConsistencyError, match="bottom-left square"):
        verify_display(3, 1, 0, 0)


def test_ledger_failures_list_squares_then_sequences_then_snake():
    def seq(name, verdict):
        return SequenceCheck(name, (1, 2, 1), 1, 1, 0, 0, verdict)

    sequences = (
        seq("row 2", "exact-at-sections"),
        seq("row 3", "failed"),
        seq("left column", "exact-with-known-h1-obstruction"),
        seq("middle column", "failed"),
    )
    squares = (("top square", True), ("bottom-left square", False), ("bottom-right square", False))
    led = ExactnessLedger(2, 0, 1, {}, squares, sequences, False)
    assert led.failures == (
        "bottom-left square", "bottom-right square", "row 3", "middle column", "snake"
    )
    assert not led.passed
    sound = ExactnessLedger(2, 0, 1, {}, squares[:1], sequences[:1], True)
    assert sound.failures == () and sound.passed
    snake_only = ExactnessLedger(2, 0, 1, {}, squares[:1], sequences[:1], False)
    assert snake_only.failures == ("snake",) and not snake_only.passed
    # A real ledger, and the t = 0 error, which names the same failures.
    changed = _changed(build_display(3, 1, 1), "left_top")
    assert ledger_for(changed).failures == ("top square", "left column")
    assert all(not ledger_for(build_display(2, p, 1)).failures for p in (0, 1))


def test_verify_display_error_names_the_ledger_failures(monkeypatch):
    from twistforms import display

    monkeypatch.setattr(
        display, "build_display", lambda *args: _changed(build_display(*args), "left_bottom")
    )
    with pytest.raises(ConsistencyError) as info:
        verify_display(3, 1, 0, 0)
    want = "display(3,1,t=0) failed at: bottom-left square, left column, snake"
    assert str(info.value) == want


def test_commutativity_is_exact_matrix_equality():
    inst = build_display(3, 1, 1)
    m = inst.maps
    assert m["free_incl"] @ m["left_top"] == m["twist"]
    assert m["wedge"] @ m["left_bottom"] == m["to_hyperplane"] @ m["free_incl"]
    assert m["drop"] @ m["to_hyperplane"] == m["restrict"]


def test_degenerate_top_form_display_collapses():
    # p = n-1: the right node involves top forms on the hyperplane, which
    # vanish; the display still verifies with empty nodes.
    for n in (2, 3):
        inst = build_display(n, n - 1, 0)
        assert inst.nodes["right"].dim == 0
        assert ledger_for(inst).passed


def test_snake_consistency_on_lower_rows():
    inst = build_display(2, 0, 0)
    m = inst.maps
    ledger = snake_check(
        m["free_incl"],
        m["restrict"],
        m["wedge"],
        m["drop"],
        m["left_bottom"],
        m["to_hyperplane"],
        ExactMatrix.identity(inst.nodes["right"].dim, q=inst.q),
    )
    assert ledger.exact


def test_ledger_reports_snake_pass():
    for t in range(3):
        assert ledger_for(build_display(2, 1, t)).snake_ok


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_display(2, 2, 0)
    with pytest.raises(ValueError):
        build_display(0, 0, 0)


def test_displays_agree_across_primes():
    for q in (101, 65537):
        dims = build_display(3, 1, 1, q=q).node_dims()
        assert dims == build_display(3, 1, 1).node_dims()

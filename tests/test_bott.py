"""Dimension formula: worked values, duality, and support constraints."""

import pytest

from twistforms.bott import binom, duality_consistency, h_O, h_omega


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(4, -1) == 0
    assert binom(4, 4) == 1
    assert binom(0, 0) == 1


def test_binom_rejects_negative_first_argument():
    with pytest.raises(ValueError):
        binom(-1, 0)


@pytest.mark.parametrize(
    "n,p,d,i,expected",
    [
        (2, 1, 2, 0, 3),
        (3, 2, 0, 2, 1),
        (2, 1, -2, 2, 3),
        (3, 1, 0, 0, 0),
        (4, 4, 8, 0, 35),
        (1, 1, 0, 1, 1),
    ],
)
def test_h_omega_values(n, p, d, i, expected):
    assert h_omega(n, p, d, i) == expected


def test_h_omega_range_checks():
    with pytest.raises(ValueError):
        h_omega(2, 3, 0, 0)
    with pytest.raises(ValueError):
        h_omega(2, 1, 0, 3)


def test_h_O_values():
    assert h_O(2, 3, 0) == 10
    assert h_O(2, -3, 2) == 1
    for i in range(3):
        assert h_O(2, -1, i) == 0


def test_h_O_matches_h_omega_at_p_zero():
    for n in range(1, 5):
        for d in range(-(n + 4), n + 5):
            for i in range(n + 1):
                assert h_O(n, d, i) == h_omega(n, 0, d, i)


def test_duality_sweep():
    for n in range(5):
        for p in range(n + 1):
            for d in range(-(n + 4), n + 5):
                assert duality_consistency(n, p, d), (n, p, d)


def test_at_most_one_nonzero_group():
    for n in range(5):
        for p in range(n + 1):
            for d in range(-(n + 6), n + 7):
                dims = tuple(h_omega(n, p, d, i) for i in range(n + 1))
                assert sum(1 for x in dims if x) <= 1, (n, p, d, dims)
                assert all(x >= 0 for x in dims)


def test_intermediate_groups_vanish_off_twist_zero():
    # Entries 0 < i < n can only appear in the d = 0, i = p case.
    for n in range(2, 5):
        for p in range(n + 1):
            for d in range(-(n + 4), n + 5):
                for i in range(1, n):
                    if d == 0 and i == p:
                        continue
                    assert h_omega(n, p, d, i) == 0


def test_printed_top_branch_would_violate_duality():
    # The uncorrected top-degree product binom(-d-p, -d) * binom(-d-1, n-p)
    # gives 0 at (n,p,d) = (2,1,-2) where duality and the kernel oracle
    # both give 3.
    n, p, d = 2, 1, -2
    assert binom(-d - p, -d) * binom(-d - 1, n - p) == 0
    assert h_omega(n, p, d, n) == 3

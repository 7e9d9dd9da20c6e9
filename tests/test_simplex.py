import random
from fractions import Fraction

import pytest

from nil.errors import ResourceLimitError
from nil.simplex import maximize_total

from _oracles import fm_max_total


def check_solution(columns, rhs, optimum, coeffs):
    assert sum(coeffs) == optimum
    assert all(c >= 0 for c in coeffs)
    for i in range(len(rhs)):
        assert sum(c * col[i] for c, col in zip(coeffs, columns)) <= rhs[i]


def assert_exact(optimum, coeffs):
    assert isinstance(optimum, Fraction)
    assert all(isinstance(c, Fraction) for c in coeffs)


def test_half_plus_half():
    opt, coeffs = maximize_total([(2, 2, 0), (0, 2, 2)], (1, 2, 1))
    assert opt == 1
    assert coeffs == [Fraction(1, 2), Fraction(1, 2)]


def test_single_column():
    opt, coeffs = maximize_total([(2, 2)], (1, 1))
    assert opt == Fraction(1, 2)
    check_solution([(2, 2)], (1, 1), opt, coeffs)


def test_zero_rhs_is_degenerate_but_terminates():
    opt, coeffs = maximize_total([(1, 1), (1, 0)], (0, 0))
    assert opt == 0
    assert coeffs == [0, 0]


def test_slack_only_optimum():
    opt, coeffs = maximize_total([(3, 0), (0, 3)], (2, 5))
    assert opt == Fraction(2, 3) + Fraction(5, 3)
    check_solution([(3, 0), (0, 3)], (2, 5), opt, coeffs)


def test_zero_column_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        maximize_total([(0, 0)], (1, 1))


def test_pivot_cap():
    with pytest.raises(ResourceLimitError, match="cap 0"):
        maximize_total([(1, 1)], (2, 2), pivot_cap=0)


def test_agrees_with_fourier_motzkin():
    rng = random.Random(41)
    for _ in range(300):
        m = rng.randint(1, 3)
        s = rng.randint(1, 3)
        columns = []
        while len(columns) < s:
            col = tuple(rng.randint(0, 3) for _ in range(m))
            if any(col):
                columns.append(col)
        rhs = tuple(rng.randint(0, 6) for _ in range(m))
        opt, coeffs = maximize_total(columns, rhs)
        assert opt == fm_max_total(columns, rhs)
        check_solution(columns, rhs, opt, coeffs)
        assert_exact(opt, coeffs)


def test_larger_random_instances_self_consistent():
    rng = random.Random(43)
    for _ in range(100):
        m = rng.randint(2, 6)
        s = rng.randint(1, 8)
        columns = []
        while len(columns) < s:
            col = tuple(rng.randint(0, 4) for _ in range(m))
            if any(col):
                columns.append(col)
        rhs = tuple(rng.randint(0, 8) for _ in range(m))
        opt, coeffs = maximize_total(columns, rhs)
        check_solution(columns, rhs, opt, coeffs)
        assert_exact(opt, coeffs)
        # optimum dominates every coordinate-greedy single-column value
        for col in columns:
            bound = min(
                Fraction(rhs[i], col[i]) for i in range(m) if col[i]
            )
            assert opt >= bound

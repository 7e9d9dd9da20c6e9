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


def check_dual(columns, rhs, optimum, dual):
    """Dual feasibility and a dual objective equal to the optimum."""
    assert len(dual) == len(rhs)
    assert all(isinstance(y, Fraction) for y in dual)
    assert all(y >= 0 for y in dual)
    for col in columns:
        assert sum(y * x for y, x in zip(dual, col)) >= 1
    assert sum(y * b for y, b in zip(dual, rhs)) == optimum


def test_half_plus_half():
    opt, coeffs, _ = maximize_total([(2, 2, 0), (0, 2, 2)], (1, 2, 1))
    assert opt == 1
    assert coeffs == [Fraction(1, 2), Fraction(1, 2)]


def test_single_column():
    opt, coeffs, _ = maximize_total([(2, 2)], (1, 1))
    assert opt == Fraction(1, 2)
    check_solution([(2, 2)], (1, 1), opt, coeffs)


def test_zero_rhs_is_degenerate_but_terminates():
    opt, coeffs, _ = maximize_total([(1, 1), (1, 0)], (0, 0))
    assert opt == 0
    assert coeffs == [0, 0]


def test_slack_only_optimum():
    opt, coeffs, _ = maximize_total([(3, 0), (0, 3)], (2, 5))
    assert opt == Fraction(2, 3) + Fraction(5, 3)
    check_solution([(3, 0), (0, 3)], (2, 5), opt, coeffs)


def test_zero_rows_leave_the_solution_unchanged():
    rng = random.Random(37)
    for _ in range(100):
        m = rng.randint(1, 4)
        s = rng.randint(1, 4)
        columns = []
        while len(columns) < s:
            col = tuple(rng.randint(0, 3) for _ in range(m))
            if any(col):
                columns.append(col)
        rhs = tuple(rng.randint(0, 6) for _ in range(m))
        # Interleave 40 coordinates on which every column is zero.
        pad = sorted(rng.sample(range(m + 40), 40))
        real = [i for i in range(m + 40) if i not in pad]
        padded_cols = [[0] * (m + 40) for _ in columns]
        padded_rhs = [rng.randint(0, 6) for _ in range(m + 40)]
        for i, r in enumerate(real):
            padded_rhs[r] = rhs[i]
            for col, padded in zip(columns, padded_cols):
                padded[r] = col[i]
        opt, coeffs, dual = maximize_total(columns, rhs)
        p_opt, p_coeffs, p_dual = maximize_total(padded_cols, padded_rhs)
        assert (p_opt, p_coeffs) == (opt, coeffs)
        assert [p_dual[r] for r in real] == dual
        assert all(p_dual[i] == 0 for i in pad)
        check_dual(padded_cols, padded_rhs, p_opt, p_dual)


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
        opt, coeffs, dual = maximize_total(columns, rhs)
        assert opt == fm_max_total(columns, rhs)
        check_solution(columns, rhs, opt, coeffs)
        assert_exact(opt, coeffs)
        check_dual(columns, rhs, opt, dual)


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
        opt, coeffs, dual = maximize_total(columns, rhs)
        check_solution(columns, rhs, opt, coeffs)
        assert_exact(opt, coeffs)
        check_dual(columns, rhs, opt, dual)
        # optimum dominates every coordinate-greedy single-column value
        for col in columns:
            bound = min(
                Fraction(rhs[i], col[i]) for i in range(m) if col[i]
            )
            assert opt >= bound

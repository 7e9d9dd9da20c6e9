import random
from fractions import Fraction
from math import gcd

import pytest

from nil.errors import ResourceLimitError
from nil.simplex import maximize_total

from _oracles import fm_max_total, fraction_simplex, integer_cut


def as_fractions(result):
    """maximize_total's integer form as (optimum, coeffs, dual) Fractions."""
    (num, den), (C, Dc), (Y, Dy) = result
    return Fraction(num, den), [Fraction(c, Dc) for c in C], [Fraction(y, Dy) for y in Y]


def check_solution(columns, rhs, optimum, coeffs):
    assert sum(coeffs) == optimum
    assert all(c >= 0 for c in coeffs)
    for i in range(len(rhs)):
        assert sum(c * col[i] for c, col in zip(coeffs, columns)) <= rhs[i]


def assert_integer_form(result):
    """Exact ints, each value in lowest terms over a positive denominator."""
    (num, den), (C, Dc), (Y, Dy) = result
    assert type(C) is tuple and type(Y) is tuple
    assert all(type(x) is int for x in (num, den, Dc, Dy, *C, *Y))
    assert min(den, Dc, Dy) > 0
    assert gcd(num, den) == gcd(Dc, *C) == gcd(Dy, *Y) == 1


def check_dual(columns, rhs, optimum, dual):
    """Dual feasibility and a dual objective equal to the optimum."""
    assert len(dual) == len(rhs)
    assert all(y >= 0 for y in dual)
    for col in columns:
        assert sum(y * x for y, x in zip(dual, col)) >= 1
    assert sum(y * b for y, b in zip(dual, rhs)) == optimum


def test_half_plus_half():
    opt, coeffs, _ = as_fractions(maximize_total([(2, 2, 0), (0, 2, 2)], (1, 2, 1)))
    assert opt == 1
    assert coeffs == [Fraction(1, 2), Fraction(1, 2)]


def test_single_column():
    opt, coeffs, _ = as_fractions(maximize_total([(2, 2)], (1, 1)))
    assert opt == Fraction(1, 2)
    check_solution([(2, 2)], (1, 1), opt, coeffs)


def test_zero_rhs_is_degenerate_but_terminates():
    opt, coeffs, _ = as_fractions(maximize_total([(1, 1), (1, 0)], (0, 0)))
    assert opt == 0
    assert coeffs == [0, 0]


def test_slack_only_optimum():
    opt, coeffs, _ = as_fractions(maximize_total([(3, 0), (0, 3)], (2, 5)))
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
        opt, coeffs, dual = as_fractions(maximize_total(columns, rhs))
        p_opt, p_coeffs, p_dual = as_fractions(maximize_total(padded_cols, padded_rhs))
        assert (p_opt, p_coeffs) == (opt, coeffs)
        assert [p_dual[r] for r in real] == dual
        assert all(p_dual[i] == 0 for i in pad)
        check_dual(padded_cols, padded_rhs, p_opt, p_dual)


def test_no_column_rejected():
    with pytest.raises(ValueError, match="at least one column"):
        maximize_total([], (1, 1))


def test_column_length_must_match_rhs():
    for columns in ([(1, 2, 3)], [(1, 2), (1,)]):
        with pytest.raises(ValueError, match="column length"):
            maximize_total(columns, (4, 4))


def test_zero_column_rejected():
    with pytest.raises(ValueError, match="unbounded"):
        maximize_total([(0, 0)], (1, 1))


def test_zero_column_among_nonzero_columns_rejected():
    for columns in ([(0, 0), (1, 2)], [(1, 2), (0, 0), (3, 1)], [(1, 2), (0, 0)]):
        with pytest.raises(ValueError, match="zero column"):
            maximize_total(columns, (4, 4))


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
        result = maximize_total(columns, rhs)
        assert_integer_form(result)
        opt, coeffs, dual = as_fractions(result)
        assert opt == fm_max_total(columns, rhs)
        check_solution(columns, rhs, opt, coeffs)
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
        result = maximize_total(columns, rhs)
        assert_integer_form(result)
        opt, coeffs, dual = as_fractions(result)
        check_solution(columns, rhs, opt, coeffs)
        check_dual(columns, rhs, opt, dual)
        # optimum dominates every coordinate-greedy single-column value
        for col in columns:
            bound = min(
                Fraction(rhs[i], col[i]) for i in range(m) if col[i]
            )
            assert opt >= bound


def random_packing_lp(rng):
    """A random instance with m, s <= 6, entries 0..4 and rhs 0..8.

    Half the instances repeat a row, scaled with its rhs, so that ratio
    tests tie; a third zero one rhs entry, for degenerate pivots.
    """
    m = rng.randint(1, 6)
    s = rng.randint(1, 6)
    while True:
        rows = [[rng.randint(0, 4) for _ in range(s)] for _ in range(m)]
        rhs = [rng.randint(0, 8) for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            src, dst = rng.sample(range(m), 2)
            scale = rng.randint(1, 2)
            rows[dst] = [scale * x for x in rows[src]]
            rhs[dst] = scale * rhs[src]
        if rng.random() < 1 / 3:
            rhs[rng.randrange(m)] = 0
        columns = list(zip(*rows))
        if all(any(col) for col in columns):
            return columns, tuple(rhs)


def assert_same_as_the_fraction_simplex(columns, rhs):
    """The same answer, in the same number of pivots, as fraction_simplex;
    returns (result, pivots, ties)."""
    opt, coeffs, dual, pivots, ties = fraction_simplex(columns, rhs)
    result = maximize_total(columns, rhs, pivot_cap=pivots)
    assert_integer_form(result)
    # Equal as rationals, and the same least denominators.
    assert result == (
        (opt.numerator, opt.denominator),
        integer_cut(coeffs),
        integer_cut(dual),
    )
    if pivots:
        with pytest.raises(ResourceLimitError):
            maximize_total(columns, rhs, pivot_cap=pivots - 1)
    return result, pivots, ties


def test_same_pivots_and_answers_as_the_fraction_simplex():
    rng = random.Random(47)
    tied = degenerate = 0
    for _ in range(600):
        columns, rhs = random_packing_lp(rng)
        _, pivots, ties = assert_same_as_the_fraction_simplex(columns, rhs)
        tied += ties > 0
        degenerate += 0 in rhs and pivots > 0
    assert tied >= 100
    assert degenerate >= 100


def test_zero_rows_and_repeated_columns_match_the_fraction_simplex():
    # The live rows are gathered in one pass over the columns' rows.  An
    # all-zero row first, in the middle, last or in all three places must
    # not move a pivot or an entry of the answer, and with a column
    # repeated the answer must still be the fraction simplex's.
    rng = random.Random(53)
    for _ in range(200):
        columns, rhs = random_packing_lp(rng)
        m = len(rhs)
        plain, _, _ = assert_same_as_the_fraction_simplex(columns, rhs)
        for places in ([0], [m // 2], [m], [0, m // 2 + 1, m + 2]):
            padded_cols, padded_rhs = [list(col) for col in columns], list(rhs)
            for at in places:
                for col in padded_cols:
                    col.insert(at, 0)
                padded_rhs.insert(at, rng.randint(0, 8))
            padded, _, _ = assert_same_as_the_fraction_simplex(padded_cols, padded_rhs)
            assert padded[:2] == plain[:2]
            Y, Dy = padded[2]
            assert [y for i, y in enumerate(Y) if i not in places] == list(plain[2][0])
            assert all(Y[i] == 0 for i in places) and Dy == plain[2][1]
        repeated = list(columns)
        for _ in range(rng.randint(1, 2)):
            repeated.insert(rng.randint(0, len(repeated)), rng.choice(columns))
        assert assert_same_as_the_fraction_simplex(repeated, rhs)[0][0] == plain[0]

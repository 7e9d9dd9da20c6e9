"""Exact rational simplex for the nonnegative packing LPs used here.

Solves   maximize  sum(c)   subject to   sum_j c_j * col_j <= rhs,  c >= 0

in exact arithmetic: the tableau holds the caller's ints until a pivot
divides, and exact Fractions after that, never floats.  The data is
integral and nonnegative with every column nonzero, so the origin is
feasible and the optimum is finite; no phase-1 is needed.  Bland's
smallest-index rule on both the entering and leaving choices prevents
cycling, and a pivot cap fails loudly rather than looping.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ResourceLimitError

DEFAULT_PIVOT_CAP = 10**5


def maximize_total(columns, rhs, pivot_cap=DEFAULT_PIVOT_CAP):
    """Return (optimum, coeffs) for the packing LP above.

    columns: sequence of integer vectors, each nonzero and nonnegative.
    rhs: integer vector of the same length, entries >= 0.
    """
    m = len(rhs)
    s = len(columns)
    if s == 0:
        raise ValueError("need at least one column")
    for col in columns:
        if len(col) != m:
            raise ValueError("column length does not match rhs")
        if all(x == 0 for x in col):
            raise ValueError("zero column makes the LP unbounded")

    width = s + m + 1
    rows = []
    for i in range(m):
        row = [col[i] for col in columns] + [0] * m + [rhs[i]]
        row[s + i] = 1
        rows.append(row)
    # Row m is the objective: reduced costs, then the optimum so far.
    obj = [-1] * s + [0] * (m + 1)
    rows.append(obj)
    basis = list(range(s, s + m))

    pivots = 0
    while True:
        entering = None
        for j in range(s + m):
            if obj[j] < 0:
                entering = j
                break
        if entering is None:
            break

        leaving = None
        best_ratio = None
        for i in range(m):
            coef = rows[i][entering]
            if coef > 0:
                ratio = Fraction(rows[i][-1], coef)
                if (
                    leaving is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    leaving = i
                    best_ratio = ratio
        if leaving is None:
            raise ValueError("LP is unbounded; input violates boundedness assumptions")

        pivots += 1
        if pivots > pivot_cap:
            raise ResourceLimitError(f"simplex pivot count exceeds cap {pivot_cap}")

        prow = rows[leaving]
        p = prow[entering]
        if p != 1:
            for j in range(width):
                if prow[j]:
                    prow[j] = Fraction(prow[j], p)
        for row in rows:
            if row is prow:
                continue
            factor = row[entering]
            if factor:
                for j in range(width):
                    pj = prow[j]
                    if pj:
                        row[j] -= factor * pj
        basis[leaving] = entering

    coeffs = [Fraction(0)] * s
    for i, b in enumerate(basis):
        if b < s:
            coeffs[b] = Fraction(rows[i][-1])
    return Fraction(obj[-1]), coeffs

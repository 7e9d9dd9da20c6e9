"""Exact rational simplex for the nonnegative packing LPs used here.

Solves   maximize  sum(c)   subject to   sum_j c_j * col_j <= rhs,  c >= 0

in exact arithmetic without floats or Fractions in the pivot loop: each
tableau row, the objective row included, is a list of ints over its own
positive denominator (integer-preserving pivoting, as in Edmonds 1967 and
Bareiss 1968), reduced by the gcd of its denominator and entries after
every update, so it holds the same rationals a Fraction tableau would.  A
constraint row in lowest terms has coprime numerators (its slack block is
its denominator times a row of the basis inverse), so the pivot row needs
no reduction.  Every other row with an entry f in the entering column
takes one update rule: it is scaled by the pivot p when p != 1, and f
times the pivot row is subtracted on the pivot row's nonzero entries
alone.  The results are returned in that integer form too, and no
Fraction is built.  The data is integral and nonnegative with every
column nonzero, so the origin is feasible and the optimum is finite; no
phase-1 is needed.  Bland's smallest-index rule on both the entering and
leaving choices prevents cycling, and a pivot cap fails loudly rather
than looping.

At optimality the objective row holds, under the slack columns, an
optimal solution y of the dual LP

    minimize  <y, rhs>   subject to   <y, col_j> >= 1,  y >= 0,

which is returned with the primal so that callers can certify the optimum.
A row whose column entries are all zero is left out of the tableau: its
slack never enters and never leaves, so the pivots are the same without
it, and its dual entry is 0.
"""

from __future__ import annotations

from math import gcd, lcm

from .errors import ResourceLimitError

DEFAULT_PIVOT_CAP = 10**5


def maximize_total(columns, rhs, pivot_cap=DEFAULT_PIVOT_CAP):
    """Return ((num, den), (C, Dc), (Y, Dy)) for the packing LP above.

    columns: sequence of integer vectors, each nonzero and nonnegative.
    rhs: integer vector of the same length, entries >= 0.
    The optimum is num / den, the primal solution C / Dc (one entry per
    column) and the dual solution Y / Dy (one entry per entry of rhs).
    C and Y are tuples of ints, and each value is in lowest terms over
    its least positive denominator: gcd(num, den) == gcd(Dc, *C) ==
    gcd(Dy, *Y) == 1, so each pair holds the same rationals as a Fraction
    per entry would.
    """
    m = len(rhs)
    s = len(columns)
    if s == 0:
        raise ValueError("need at least one column")
    for col in columns:
        if len(col) != m:
            raise ValueError("column length does not match rhs")
        if not any(col):
            raise ValueError("zero column makes the LP unbounded")

    live = []
    rows = []
    for i, row in enumerate(zip(*columns)):
        if any(row):
            live.append(i)
            rows.append(row)
    m = len(live)
    slacks = [0] * (m + 1)
    for r, i in enumerate(live):
        row = rows[r] = [*rows[r], *slacks]
        row[s + r] = 1
        row[-1] = rhs[i]
    # Row m is the objective: reduced costs, then the optimum so far.
    rows.append([-1] * s + [0] * (m + 1))
    # Row i stands for rows[i] / dens[i].
    dens = [1] * (m + 1)
    basis = list(range(s, s + m))

    pivots = 0
    while True:
        obj = rows[m]
        entering = None
        for j in range(s + m):
            if obj[j] < 0:
                entering = j
                break
        if entering is None:
            break

        # A row's ratio rhs / coef does not depend on its denominator, so
        # two ratios compare by cross-multiplying numerators.
        leaving = None
        for i in range(m):
            coef = rows[i][entering]
            if coef > 0:
                b = rows[i][-1]
                if (
                    leaving is None
                    or b * best_coef < best_b * coef
                    or (b * best_coef == best_b * coef and basis[i] < basis[leaving])
                ):
                    leaving, best_b, best_coef = i, b, coef
        if leaving is None:
            raise ValueError("LP is unbounded; input violates boundedness assumptions")

        pivots += 1
        if pivots > pivot_cap:
            raise ResourceLimitError(f"simplex pivot count exceeds cap {pivot_cap}")

        # Dividing the pivot row by its entry p / den keeps its numerators
        # over the new denominator p, already in lowest terms: the row's
        # slack block a is den times a row of the inverse of the integral
        # basis B, so sum_i a_i * B_ic == den for its basic column c, and
        # gcd(a) divides gcd(den, *a) == 1.
        prow = rows[leaving]
        p = dens[leaving] = prow[entering]
        support = [(j, x) for j, x in enumerate(prow) if x]
        for r, row in enumerate(rows):
            f = row[entering]
            if not f or r == leaving:
                continue
            # row / d - (f / d) * prow / p == (p * row - f * prow) / (d * p)
            if p != 1:
                row = rows[r] = [p * x for x in row]
            for j, x in support:
                row[j] -= f * x
            d = dens[r] * p
            if d != 1:
                g = gcd(d, *row)
                if g != 1:
                    rows[r] = [x // g for x in row]
                    d //= g
            dens[r] = d
        basis[leaving] = entering

    obj, den = rows[m], dens[m]
    g = gcd(obj[-1], den)
    optimum = (obj[-1] // g, den // g)
    # Over the lcm of the basic rows' denominators, then in lowest terms.
    Dc = lcm(*(dens[i] for i, b in enumerate(basis) if b < s))
    C = [0] * s
    for i, b in enumerate(basis):
        if b < s:
            C[b] = rows[i][-1] * (Dc // dens[i])
    g = gcd(Dc, *C)
    primal = (tuple(x // g for x in C), Dc // g)
    # The objective row holds Y under the slacks, <Y, col_j> - den under
    # column j and <Y, rhs> last.  Every pivot leaves gcd(den, *obj) == 1,
    # and a common factor of den and Y would divide every entry, so Y / den
    # is already in lowest terms.
    Y = [0] * len(rhs)
    for r, i in enumerate(live):
        Y[i] = obj[s + r]
    return optimum, primal, (tuple(Y), den)

"""Integral-closure oracle built on Newton-polyhedron linear programming.

Membership of x^a in the integral closure of I^k is equivalent to the
existence of nonnegative c with sum(c) >= k and sum_j c_j * g_j <= a over
the minimal generators g_j.  One exact LP solve (maximize sum(c)) answers
the question for every k at once.

Every optimum is certified in both directions: the primal coefficients are
re-substituted into the constraints, and the simplex's dual y is checked
to be feasible (y >= 0 and <y, g_j> >= 1 for every generator) with
<y, a> equal to the optimum, which by strong duality proves that no larger
sum exists.  A feasible dual does not depend on a, so by weak duality it
bounds the optimum at every point: <y, a> < k proves that x^a is not in
the closure of I^k.  A ClosureOracle holds what the box scans of one
ideal share: the certified duals of its solves, kept as integer cuts that
are valid at every power, and each power I^k, built once.

A scan of I^k looks for closure points only in the staircase of I^k, the
points of the degree box that no generator of I^k divides (its standard
monomials): every other box point is already known to lie in I^k.  The
up-set of the generators is built as one Python int with a bit per box
point, by shifts along each axis.  The closure LP's optimum is monotone in
a, so the scan first tests the staircase's maximal points (its corners,
found by the same shifts): when none lies in the closure, I^k is closed
in the box, and no row is walked.  Otherwise the scan walks the staircase
row by row in product order.  Both phases solve an LP only at points that
no cut rejects.

No floating point appears anywhere in a decision path.  The simplex
returns its optimum, primal and dual as arbitrary-precision ints, each
over its least common denominator: num / den, C / Dc and Y / Dy.  The
certificate checks run on those ints, the oracle keeps (Y, Dy) as its
cut and tests a solve's optimum as num >= k * den, and an LPResult builds
the Fractions of its public optimum, coeffs and dual only when they are
read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import prod
from operator import mul

from . import simplex
from .errors import IdealError, ResourceLimitError, _size_text
from .ideal import (
    _check_exponent,
    _check_positive,
    _minimal_ideal,
    contains_power,
    divides,
    power,
)

DEFAULT_BOX_BUDGET = 10**7


@dataclass(frozen=True)
class LPResult:
    """Exact optimum of the closure-membership LP with a certified solution.

    The solve's integer form: the optimum is num / den, the coefficients
    C / Dc with one entry of C per generator of the ideal, and the dual
    cut (Y, Dy) stands for the dual Y / Dy, one entry per coordinate of a.
    Each is in lowest terms.  The constraints sum(coeffs) == optimum,
    sum_j coeffs_j * g_j <= a, dual >= 0, <dual, g_j> >= 1 and
    <dual, a> == optimum are re-checked in exact arithmetic before the
    result is returned.  optimum, coeffs and dual give the same values as
    Fractions, built when read.
    """

    num: int
    den: int
    primal: tuple
    cut: tuple

    @property
    def optimum(self):
        return Fraction(self.num, self.den)

    @property
    def coeffs(self):
        C, D = self.primal
        return tuple(Fraction(c, D) for c in C)

    @property
    def dual(self):
        Y, D = self.cut
        return tuple(Fraction(y, D) for y in Y)


@dataclass(frozen=True)
class NormalityVerdict:
    """Outcome of scanning powers 1..t for closure failures.

    status "counterexample": witness is in the closure of I^t but not in
    I^t itself.  status "normal_up_to": no failure found for any power up
    to t; this bounds, but does not prove, normality.
    """

    status: str
    t: int
    witness: tuple | None = None


def _require_nonzero(I):
    if I.is_zero:
        raise IdealError("operation needs a nonzero ideal")
    if not all(map(any, I.gens)):
        raise IdealError("unit ideal (zero exponent generator) is unsupported")


def lp_max_weight(I, a):
    """Maximize sum(c) subject to c >= 0 and sum_j c_j * g_j <= a, exactly.

    The feasible region is bounded since every generator is nonzero with
    nonnegative entries.  The returned coefficients are verified against
    the constraints by exact re-substitution, and the optimum is proved by
    the dual solution.  Both checks run on the simplex's ints, each vector
    over its common denominator.
    """
    a = tuple(a)
    _require_nonzero(I)
    _check_exponent(a, I.n)

    (num, den), primal, cut = simplex.maximize_total(I.gens, a)

    C, Dc = primal
    if min(C) < 0:
        raise RuntimeError("LP returned a negative coefficient")
    combo = _weighted_sum(C, I.gens)
    if sum(C) * den != num * Dc or any(x > Dc * y for x, y in zip(combo, a)):
        raise RuntimeError("LP certificate failed exact re-substitution")
    Y, Dy = cut
    if (
        min(Y) < 0
        or any(sum(map(mul, Y, g)) < Dy for g in I.gens)
        or sum(map(mul, Y, a)) * den != num * Dy
    ):
        raise RuntimeError("LP dual certificate failed exact verification")
    return LPResult(num, den, primal, cut)


def in_closure_power(I, a, k):
    """True iff x^a lies in the integral closure of I^k."""
    _check_positive(k)
    return lp_max_weight(I, a).optimum >= k


def _box_bounds(I, k):
    return tuple(k * max(g[i] for g in I.gens) for i in range(I.n))


def _box_refusal(k, volume, box_budget, bounds):
    """The box-budget refusal, one short line for any box: the first 8
    bounds stand for a longer list."""
    shown = ", ".join(_size_text(b) for b in bounds[:8])
    if len(bounds) > 8:
        shown += f", ... ({len(bounds)} bounds)"
    return (
        f"power t={_size_text(k)}: box volume {_size_text(volume)} "
        f"exceeds budget {_size_text(box_budget)} (bounds [{shown}])"
    )


class ClosureOracle:
    """The closure scans of one nonzero ideal, and what they share.

    The oracle owns the integer cuts (Y, D) of every certified dual solved
    on the ideal; a feasible dual does not depend on the power, so each cut
    is valid at every k, and their order changes no solve.  It also owns
    each power I^k, built once.  The scan entry points below take an
    oracle in place of an ideal, so a caller that scans several powers of
    one ideal, or needs I^k beside its closure, builds each thing once.
    """

    __slots__ = ("ideal", "cuts", "_powers")

    def __init__(self, I):
        _require_nonzero(I)
        self.ideal = I
        self.cuts = []
        self._powers = {}

    def power(self, k):
        """I^k, built on the first call for k."""
        if k not in self._powers:
            self._powers[k] = power(self.ideal, k)
        return self._powers[k]

    def scan(self, k, box_budget, witness_only=False):
        """Minimal generators of closure(I^k) inside the degree box.

        Returns (generators, failures), the failures being the generators
        outside I^k.  Any minimal generator admits coefficients summing to
        exactly k, so no coordinate can exceed k times the per-coordinate
        generator maximum: the box is exhaustive.  A box over box_budget
        points is refused before I^k is built.

        A minimal closure generator is either a generator of I^k or lies in
        the staircase of I^k: the box points that no generator of I^k
        divides.  A generator of I^k is minimal in the closure exactly when
        no failure divides it.

        The closure LP's optimum is monotone in a, so I^k is closed in the
        box exactly when no maximal staircase point (corner) lies in the
        closure.  The corners are tested first (_corner_in_closure); when
        none lies in the closure, the scan returns with no failures and
        walks no row.  Most scans end there.  Otherwise the walk visits the
        staircase alone, in product (lex) order, a row at a time along the
        last axis that has room; the staircase is a down-set, so it holds a
        prefix of each row, and a row holds at most one corner, its last
        point.  So the corners never outnumber the rows walked.

        The closure is an up-set, so within a row its points form a suffix,
        and a staircase point a is a minimal closure point exactly when no
        a - e_i is a closure point.  a - e_i is a staircase point as well,
        of the same row or of a row visited earlier, so a row's candidates
        end where the closure begins in the row or in one of the rows one
        step below it.  One entry per row holds the offset of that first
        closure point plus one, or 0 if the row has none; no row has one
        before the first failure, so the marks are allocated then, a byte
        per row when rows are shorter than 256 points.

        A row's prefix, its coordinates before the row axis, is read off
        one itertools.product iterator over those axes, advanced in step
        with the rows; the rows outside the staircase are skipped in bulk
        with islice.

        A point a with <Y, a> < k * D for some cut has optimum below k, so
        it is skipped without a solve; a cut's bound grows along a row, so
        it rejects a prefix of the row.  The walk tests the oracle's own
        cuts in place, each by its entries on the row's prefix and on the
        row axis.  A cut that rejects the rest of a row moves to the front
        of the oracle's list, since rows near it tend to be closed by it as
        well; later rows, corners and powers then try it first.  Each cut's
        bound on a row does not depend on the others, so after the cuts x
        is their largest bound, or past the row's candidates, in any order:
        the cut order changes no solve.  The walk also holds the corners'
        cuts, so it may solve fewer or other points than the plain product
        walk.  But a failure's optimum reaches k, so no cut rejects
        it, and the candidates, marks and ceiling depend on the failures
        alone: the failures are the plain walk's, in its order, and so are
        the generators.

        With witness_only, a failure of degree d lowers a degree ceiling to
        d, and every later point of degree >= d is skipped, unmarked: later
        points of equal degree are lex-larger, and a point whose neighbour
        a - e_i was skipped has a degree above the ceiling too, so the
        marks stay exact below it.  The last failure is then the first in
        (degree, lex) order, and the generators are not collected: the
        scan returns ([], failures).  A failure at the minimum degree
        k * min(deg g) ends the walk, since no later point can lie below it.
        """
        _check_positive(k)
        _check_positive(box_budget, "box_budget")
        I, cuts = self.ideal, self.cuts
        bounds = _box_bounds(I, k)
        volume = prod(b + 1 for b in bounds)
        if volume > box_budget:
            raise ResourceLimitError(_box_refusal(k, volume, box_budget, bounds))
        strides = [prod(b + 1 for b in bounds[i + 1 :]) for i in range(I.n)]
        power_gens = self.power(k).gens
        min_degree = k * min(sum(g) for g in I.gens)
        up = _upper_set(power_gens, bounds, strides, volume)
        if not self._corner_in_closure(k, up, bounds, strides, volume, min_degree):
            return ([], []) if witness_only else (list(power_gens), [])
        # one string of volume + 3 characters: "0b1", then the box indices;
        # the top bit is set first, so the int and the string are all that
        # is held at once
        up |= 1 << volume
        up = bin(up)
        # Rows run along the last axis j with room; the axes after j are 0,
        # so a row is a run of consecutive indices, and row r's prefix (its
        # first j coordinates) is the r-th tuple of the product below.
        j = max(i for i, b in enumerate(bounds) if b)
        width, tail = bounds[j] + 1, (0,) * (I.n - 1 - j)
        prefixes = product(*[range(b + 1) for b in bounds[:j]])
        next_row = 0
        row_strides = [s // width for s in strides[:j]]
        marked = None
        ceiling = sum(bounds) + 1
        failures = []
        for start, length in _staircase_rows(up, width):
            row = start // width
            if row == next_row:
                prefix = next(prefixes)
            else:
                prefix = next(islice(prefixes, row - next_row, None))
            next_row = row + 1
            degree = sum(prefix)
            x = min_degree - degree
            if x < 0:
                x = 0
            stop = first = ceiling - degree
            if first > length:
                stop = first = length
            if x >= stop:
                continue
            if failures:
                # The closure starts no later than in a row one step below;
                # rows are marked only once some failure has been found.
                for p, s in zip(prefix, row_strides):
                    if p:
                        m = marked[row - s]
                        if m and m <= first:
                            first = m - 1
            while x < first:
                # Each cut rejects a prefix of the row: move x past it.  A
                # cut that rejects the rest of the row moves to the front of
                # the oracle's list.
                for cut in cuts:
                    Y, D = cut
                    need = k * D - sum(map(mul, Y, prefix))
                    y = Y[j]
                    if need > y * x:
                        x = -(-need // y) if y else first
                        if x >= first:
                            if cut is not cuts[0]:
                                cuts.remove(cut)
                                cuts.insert(0, cut)
                            break
                if x >= first:
                    break
                a = prefix + (x,) + tail
                if self._solve(a, k):
                    if not failures:
                        rows = volume // width
                        marked = bytearray(rows) if width < 256 else [0] * rows
                    failures.append(a)
                    first = x
                    if witness_only:
                        ceiling = degree + x
                    break
            if first < stop:
                marked[row] = first + 1
            if ceiling <= min_degree:
                break
        if witness_only:
            return [], failures
        found = failures + [
            g for g in power_gens if not any(divides(f, g) for f in failures)
        ]
        return found, failures

    def _corner_in_closure(self, k, up, bounds, strides, volume, min_degree):
        """True iff some maximal point of the staircase of I^k lies in the
        closure of I^k.

        The closure LP's optimum is monotone in a, and every staircase
        point lies below a maximal one, so I^k is closed in the box exactly
        when this is False.  The corners are tested in index order: one
        below min_degree has optimum below k, one that a cut rejects is
        skipped, and the rest are solved, their new cuts kept, until one
        reaches k.  The corners are read off the bytes of their int, so no
        volume-length string is held here; the walk builds its own only
        after this returns.
        """
        corners = _corners(((1 << volume) - 1) ^ up, bounds, strides, volume)
        for index in _set_indices(corners, volume):
            a = []
            for s in strides:
                x, index = divmod(index, s)
                a.append(x)
            if sum(a) < min_degree or any(
                sum(map(mul, Y, a)) < k * D for Y, D in self.cuts
            ):
                continue
            if self._solve(a, k):
                return True
        return False

    def _solve(self, a, k):
        """True iff x^a lies in the closure of I^k, by one LP solve whose
        cut the oracle keeps if it is new."""
        result = lp_max_weight(self.ideal, a)
        if result.cut not in self.cuts:
            self.cuts.append(result.cut)
        return result.num >= k * result.den


def _tile(block, width, count):
    """The int made of count copies of the width-bit field block, by
    doubling.  The block is doubled only while more copies are wanted, so
    no int past the result's width is built."""
    out = 0
    while True:
        if count & 1:
            out = out << width | block
        count >>= 1
        if not count:
            return out
        block |= block << width
        width *= 2


def _upper_set(gens, bounds, strides, volume):
    """The up-set of gens in the box, as an int with box index i at bit
    volume - 1 - i, so that its binary digits below bit volume run in
    index order.

    Starting from one bit per generator, axis i is swept bounds[i] times
    with U |= (U & M_i) >> stride_i, where M_i is the room mask of _rooms:
    a step up axis i lowers the bit by stride_i.
    """
    up = 0
    for g in gens:
        up |= 1 << (volume - 1 - sum(map(mul, g, strides)))
    for b, s, room in _rooms(bounds, strides, volume):
        for _ in range(b):
            up |= (up & room) >> s
    return up


def _rooms(bounds, strides, volume):
    """(bounds[i], stride_i, M_i) for each axis i with room, where M_i, in
    the bit layout of _upper_set, holds the points with a_i < bounds[i].
    Each mask is built when drawn, so a caller holds one at a time."""
    for b, s in zip(bounds, strides):
        if b:
            block = (b + 1) * s
            yield b, s, _tile((1 << block) - (1 << s), block, volume // block)


def _corners(stair, bounds, strides, volume):
    """The maximal points of the down-set stair, in the bit layout of
    _upper_set: the points a of stair whose every step a + e_i with room
    leaves stair.  Bit p of stair << stride_i is the point one step up axis
    i from the point at bit p, a true neighbour only where M_i has room."""
    inner = 0
    for _, s, room in _rooms(bounds, strides, volume):
        inner |= (stair << s) & room
    return stair & ~inner


_NONZERO = re.compile(rb"[^\x00]")


def _set_indices(bits, volume):
    """The box indices of the set bits of bits (bit layout of _upper_set),
    in index order.  They are read off the bytes of bits, volume / 8 of
    them, so no volume-length string is built."""
    size = (volume + 7) // 8
    data = bits.to_bytes(size, "big")
    for match in _NONZERO.finditer(data):
        # bit b of data[q] is box index volume - 8 * (size - q) + 7 - b
        q = match.start()
        byte, base = data[q], volume - 8 * (size - q) + 7
        while byte:
            b = byte.bit_length() - 1
            yield base - b
            byte ^= 1 << b


def _staircase_rows(up, width):
    """(start, length) of the staircase part of each row, in index order.

    up is bin(U | 1 << volume) for the up-set U of _upper_set: after its
    prefix "0b1" it holds one character per box index, "1" on the up-set,
    and no padded copy of it is ever built.  Rows are runs of width
    consecutive indices.  The staircase is a down-set, so it holds a prefix
    of each row, and rows without one are skipped.
    """
    start = up.find("0", 3)
    while start >= 0:
        end = up.find("1", start, start + width)
        yield start - 3, (width if end < 0 else end - start)
        start = up.find("0", start + width)


def _as_oracle(I):
    return I if isinstance(I, ClosureOracle) else ClosureOracle(I)


def closure_power_generators(I, k, box_budget=DEFAULT_BOX_BUDGET):
    """Minimal generators of the integral closure of I^k.

    I is an ideal or a ClosureOracle; an ideal gets a fresh oracle.  The
    scan returns distinct minimal generators, so the ideal is built
    without the entry checks.
    """
    oracle = _as_oracle(I)
    gens, _ = oracle.scan(k, box_budget)
    return _minimal_ideal(oracle.ideal.n, gens)


def is_power_integrally_closed(I, k, box_budget=DEFAULT_BOX_BUDGET):
    """(True, None) iff I^k equals its integral closure; else (False, witness).

    I is an ideal or a ClosureOracle; an ideal gets a fresh oracle.  The
    witness is the first minimal generator of the closure, in ascending
    (degree, lex) order, that does not lie in I^k.  The scan skips every
    point at or above the degree of the best failure found so far, so it
    solves no LP for a point that cannot beat that failure.
    """
    _, failures = _as_oracle(I).scan(k, box_budget, witness_only=True)
    if not failures:
        return True, None
    return False, failures[-1]


def normality_scan(I, t_max=3, box_budget=DEFAULT_BOX_BUDGET):
    """Scan t = 1..t_max for a closure counterexample.

    Returns the first counterexample with its witness, else a
    "normal_up_to" verdict.  A normal_up_to verdict is explicitly not a
    proof of normality for larger t.  One ClosureOracle serves every power
    level, so the dual cuts are shared across them.
    """
    _check_positive(t_max, "t_max")
    oracle = ClosureOracle(I)
    for t in range(1, t_max + 1):
        closed, witness = is_power_integrally_closed(oracle, t, box_budget=box_budget)
        if not closed:
            if not in_closure_power(I, witness, t) or contains_power(I, witness, t):
                raise RuntimeError("counterexample witness failed verification")
            return NormalityVerdict(status="counterexample", t=t, witness=witness)
    return NormalityVerdict(status="normal_up_to", t=t_max)


def rebalance_even_cycle(beta, trivial_variant=True, a_weight=None):
    """Shift cycle coefficients so one vanishes, preserving the invariants.

    beta lists positive rationals, one per edge of an even cycle taken in
    cyclic order (so generator j corresponds to edge {j, j+1} and the last
    edge closes the cycle).  Returns gamma (nonnegative, same length) with

      * sum(gamma) == sum(beta),
      * at least one gamma entry zero,
      * trivial variant (all edge weights 1): identical weighted sums
        sum gamma_j * g_j == sum beta_j * g_j;
      * nontrivial variant (edge 1 carries weight a_weight > 1, the rest
        weight 1): weighted sum componentwise <= the original.

    The trivial variant moves the minimum over even positions from the
    even-indexed entries onto the odd-indexed ones; the nontrivial variant
    moves the minimum over odd positions the other way.  Both conclusions
    are re-checked exactly before returning.
    """
    beta = [Fraction(b) for b in beta]
    if len(beta) < 4 or len(beta) % 2 != 0:
        raise IdealError(f"need an even cycle length >= 4, got {len(beta)} entries")
    if any(b <= 0 for b in beta):
        raise IdealError("beta entries must be strictly positive")
    if not trivial_variant:
        if type(a_weight) is not int or a_weight < 2:
            raise IdealError("nontrivial variant needs an integer edge weight >= 2")

    m = len(beta)
    # positions are 1-based in the formulas; index i in beta is position i+1
    if trivial_variant:
        shift = min(beta[i] for i in range(1, m, 2))  # even positions
        gamma = [
            beta[i] + shift if i % 2 == 0 else beta[i] - shift for i in range(m)
        ]
    else:
        shift = min(beta[i] for i in range(0, m, 2))  # odd positions
        gamma = [
            beta[i] - shift if i % 2 == 0 else beta[i] + shift for i in range(m)
        ]

    gens = _cycle_generators(m, 1 if trivial_variant else a_weight)
    old = _weighted_sum(beta, gens)
    new = _weighted_sum(gamma, gens)
    ok = (
        sum(gamma) == sum(beta)
        and any(g == 0 for g in gamma)
        and all(g >= 0 for g in gamma)
        and (new == old if trivial_variant else all(x <= y for x, y in zip(new, old)))
    )
    if not ok:
        raise RuntimeError("rebalanced coefficients failed exact verification")
    return gamma


def _cycle_generators(m, first_weight):
    """Exponent vectors of the edge generators of a cycle on m vertices."""
    gens = []
    for j in range(m):
        g = [0] * m
        w = first_weight if j == 0 else 1
        g[j] = w
        g[(j + 1) % m] = w
        gens.append(tuple(g))
    return gens


def _weighted_sum(coeffs, gens):
    n = len(gens[0])
    out = [0] * n
    for c, g in zip(coeffs, gens):
        if c:
            for i, gi in enumerate(g):
                if gi:
                    out[i] += c * gi
    return tuple(out)

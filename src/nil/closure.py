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
the closure of I^k.  The box scan keeps its certified duals as integer
cuts, shared across power levels, and solves an LP only at points that no
cut rejects.

No floating point appears anywhere in a decision path: all arithmetic is
over Fractions and arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul

from . import simplex
from .errors import IdealError, ResourceLimitError
from .ideal import MonomialIdeal, _check_exponent, contains_power, divides, power

DEFAULT_BOX_BUDGET = 10**7


@dataclass(frozen=True)
class LPResult:
    """Exact optimum of the closure-membership LP with a certified solution.

    coeffs has one entry per generator of the ideal and dual one entry per
    coordinate of a; the constraints sum(coeffs) == optimum, sum_j coeffs_j * g_j
    <= a, dual >= 0, <dual, g_j> >= 1 and <dual, a> == optimum are
    re-checked in exact arithmetic before the result is returned.
    """

    optimum: Fraction
    coeffs: tuple
    dual: tuple


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
    for g in I.gens:
        if all(x == 0 for x in g):
            raise IdealError("unit ideal (zero exponent generator) is unsupported")


def lp_max_weight(I, a):
    """Maximize sum(c) subject to c >= 0 and sum_j c_j * g_j <= a, exactly.

    The feasible region is bounded since every generator is nonzero with
    nonnegative entries.  The returned coefficients are verified against
    the constraints by exact re-substitution, and the optimum is proved by
    the dual solution.
    """
    a = tuple(a)
    _require_nonzero(I)
    _check_exponent(a, I.n)

    optimum, coeffs, dual = simplex.maximize_total(I.gens, a)

    if min(coeffs) < 0:
        raise RuntimeError("LP returned a negative coefficient")
    combo = _weighted_sum(coeffs, I.gens)
    if sum(c for c in coeffs if c) != optimum or any(x > y for x, y in zip(combo, a)):
        raise RuntimeError("LP certificate failed exact re-substitution")
    if (
        min(dual) < 0
        or any(_dot(dual, g) < 1 for g in I.gens)
        or _dot(dual, a) != optimum
    ):
        raise RuntimeError("LP dual certificate failed exact verification")
    return LPResult(optimum=optimum, coeffs=tuple(coeffs), dual=tuple(dual))


def in_closure_power(I, a, k):
    """True iff x^a lies in the integral closure of I^k."""
    if not isinstance(k, int) or k < 1:
        raise IdealError(f"power must be a positive integer, got {k!r}")
    return lp_max_weight(I, a).optimum >= k


def _box_bounds(I, k):
    return tuple(k * max(g[i] for g in I.gens) for i in range(I.n))


def _box_points_by_degree(bounds, start):
    """Lattice points of prod([0..b_i]) of total degree >= start, in
    ascending (total degree, lex) order."""
    n = len(bounds)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[i]
    point = [0] * n
    for degree in range(start, suffix[0] + 1):
        i, rest = 0, degree
        while True:
            for j in range(i, n):  # lex-first split of rest over point[i:]
                point[j] = max(0, rest - suffix[j + 1])
                rest -= point[j]
            yield tuple(point)
            # The lex successor raises the rightmost coordinate that is below
            # its bound and has a nonzero tail to take one unit from.
            for i in range(n - 1, -1, -1):
                if rest and point[i] < bounds[i]:
                    break
                rest += point[i]
            else:
                break
            point[i] += 1
            i, rest = i + 1, rest - 1


def _integer_cut(dual):
    """(Y, D): the dual scaled by the lcm D of its denominators to ints."""
    D = lcm(*(y.denominator for y in dual))
    return tuple(int(y * D) for y in dual), D


def _scan_closure(I, k, box_budget, cuts, stop_at_failure):
    """Enumerate minimal generators of closure(I^k) inside the degree box.

    Returns (generators, first_failure) where first_failure is the first
    generator (in enumeration order) outside I^k, or None.  Any minimal
    generator admits coefficients summing to exactly k, so no coordinate
    can exceed k times the per-coordinate generator maximum: the box is
    exhaustive.

    cuts holds integer cuts (Y, D) from the certified duals of earlier
    solves on I, at any power; the duals of this scan's solves are
    appended.  A point a with <Y, a> < k * D has optimum below k, so it is
    skipped without a solve.
    """
    bounds = _box_bounds(I, k)
    volume = prod(b + 1 for b in bounds)
    if volume > box_budget:
        raise ResourceLimitError(
            f"box volume {volume} exceeds budget {box_budget} "
            f"(bounds {list(bounds)})"
        )
    power_gens = set(power(I, k).gens)
    min_degree = k * min(sum(g) for g in I.gens)
    found = []
    first_failure = None
    for a in _box_points_by_degree(bounds, min_degree):
        if any(divides(g, a) for g in found):
            continue
        # A point no found generator divides is in I^k only as a generator.
        if a in power_gens:
            found.append(a)
            continue
        if any(sum(map(mul, Y, a)) < k * D for Y, D in cuts):
            continue
        result = lp_max_weight(I, a)
        cut = _integer_cut(result.dual)
        if cut not in cuts:
            cuts.append(cut)
        if result.optimum >= k:
            found.append(a)
            if first_failure is None:
                first_failure = a
                if stop_at_failure:
                    break
    return found, first_failure


def closure_power_generators(I, k, box_budget=DEFAULT_BOX_BUDGET):
    """Minimal generators of the integral closure of I^k."""
    if not isinstance(k, int) or k < 1:
        raise IdealError(f"power must be a positive integer, got {k!r}")
    _require_nonzero(I)
    gens, _ = _scan_closure(I, k, box_budget, [], stop_at_failure=False)
    return MonomialIdeal(I.n, gens)


def is_power_integrally_closed(I, k, box_budget=DEFAULT_BOX_BUDGET, _cuts=None):
    """(True, None) iff I^k equals its integral closure; else (False, witness).

    The witness is the first minimal generator of the closure, in
    ascending (degree, lex) order, that does not lie in I^k.
    """
    if not isinstance(k, int) or k < 1:
        raise IdealError(f"power must be a positive integer, got {k!r}")
    _require_nonzero(I)
    cuts = [] if _cuts is None else _cuts
    _, failure = _scan_closure(I, k, box_budget, cuts, stop_at_failure=True)
    return (failure is None), failure


def normality_scan(I, t_max=3, box_budget=DEFAULT_BOX_BUDGET):
    """Scan t = 1..t_max for a closure counterexample.

    Returns the first counterexample with its witness, else a
    "normal_up_to" verdict.  A normal_up_to verdict is explicitly not a
    proof of normality for larger t.  The dual cuts are shared across the
    power levels of one scan.
    """
    if not isinstance(t_max, int) or t_max < 1:
        raise IdealError(f"t_max must be a positive integer, got {t_max!r}")
    _require_nonzero(I)
    cuts = []
    for t in range(1, t_max + 1):
        try:
            closed, witness = is_power_integrally_closed(
                I, t, box_budget=box_budget, _cuts=cuts
            )
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"power t={t}: {exc}") from exc
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
        if a_weight is None or not isinstance(a_weight, int) or a_weight < 2:
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


def _dot(y, a):
    return sum(yi * ai for yi, ai in zip(y, a) if yi and ai)


def _weighted_sum(coeffs, gens):
    n = len(gens[0])
    out = [Fraction(0)] * n
    for c, g in zip(coeffs, gens):
        if c:
            for i, gi in enumerate(g):
                if gi:
                    out[i] += c * gi
    return tuple(out)

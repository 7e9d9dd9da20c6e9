"""Exact monomial-ideal arithmetic.

A monomial x^a is represented by its exponent vector: a tuple of
nonnegative Python ints (arbitrary precision), one entry per variable.
A MonomialIdeal stores the antichain of minimal generators, sorted
lexicographically for deterministic output.

All operations are pure functions over immutable values.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice
from operator import add, le

from .errors import GraphError, IdealError, ResourceLimitError, _quote

# Generator checks one contains_power search may make; each costs
# O(support size).
POWER_SEARCH_BUDGET = 10**6


def support(a):
    """Indices (1-based) with a positive entry."""
    return frozenset(i for i, x in enumerate(a, start=1) if x > 0)


def divides(g, a):
    """Componentwise g <= a, i.e. x^g divides x^a."""
    return all(map(le, g, a))


def first_divisor(kept, a):
    """The first vector of `kept` that divides a, or None.

    `kept` must ascend in total degree and must not hold a itself.  Two
    distinct vectors of equal degree never divide one another, so only the
    vectors of lower degree than a are tried.
    """
    for g in islice(kept, bisect_left(kept, sum(a), key=sum)):
        # divides(g, a), inlined: this is the hot loop of every power.
        if all(map(le, g, a)):
            return g
    return None


def _check_exponent(a, n=None):
    if n is not None and len(a) != n:
        raise IdealError(f"exponent length {len(a)} does not match ambient {_quote(n)}")
    for x in a:
        if type(x) is not int or x < 0:
            raise IdealError(f"exponent entries must be nonnegative integers, got {_quote(x)}")


def _check_positive(value, what="power"):
    if type(value) is not int or value < 1:
        raise IdealError(f"{what} must be a positive integer, got {_quote(value)}")


class MonomialIdeal:
    """Finite antichain of exponent vectors generating a monomial ideal.

    The empty generator set is the zero-ideal sentinel; it only arises via
    restriction and is rejected by closure and classifier operations.
    """

    __slots__ = ("n", "gens")

    def __init__(self, n, gens):
        if type(n) is not int or n < 0:
            raise IdealError(f"ambient variable count must be nonnegative, got {_quote(n)}")
        gens = sorted(set(tuple(g) for g in gens))
        for g in gens:
            _check_exponent(g, n)
        kept = []
        for g in sorted(gens, key=sum):
            h = first_divisor(kept, g)
            if h is not None:
                raise IdealError(f"generators are not an antichain: {_quote(h)} divides {_quote(g)}")
            kept.append(g)
        self.n = n
        self.gens = tuple(gens)

    @property
    def is_zero(self):
        return not self.gens

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.n == other.n
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.n, self.gens))

    def __repr__(self):
        return f"MonomialIdeal({self.n}, {list(self.gens)})"


def minimalize(exps):
    """The divisibility-minimal elements of a nonempty exponent set."""
    exps = sorted(set(tuple(e) for e in exps))
    if not exps:
        raise IdealError("cannot minimalize an empty exponent set")
    n = len(exps[0])
    for e in exps:
        _check_exponent(e, n)
    return _minimal_ideal(n, exps)


def _minimal_ideal(n, exps):
    """The ideal of the divisibility-minimal elements of exps.

    exps holds distinct, already checked exponent tuples of length n.  The
    kept elements form an antichain by construction, so the ideal is built
    without the public constructor's checks.  Every ideal the library
    builds itself comes from here; the public constructor and minimalize
    run the entry checks, on outside input alone.
    """
    kept = []
    for e in sorted(exps, key=sum):
        if first_divisor(kept, e) is None:
            kept.append(e)
    ideal = object.__new__(MonomialIdeal)
    ideal.n = n
    ideal.gens = tuple(sorted(kept))
    return ideal


def edge_ideal(G):
    """The ideal generated by (x_u x_v)^w over the weighted edges of G."""
    if not G.edges:
        raise GraphError("edge ideal of an edgeless graph is the zero ideal; unsupported")
    gens = []
    for (u, v), w in G.edges.items():
        g = [0] * G.n
        g[u - 1] = w
        g[v - 1] = w
        gens.append(tuple(g))
    # Distinct edges have distinct two-vertex supports, so no generator
    # divides another: every one is kept.
    return _minimal_ideal(G.n, gens)


def power(I, t):
    """Minimal generators of I^t.

    Built a step at a time: the minimal generators of I^s are the minimal
    elements of the sums of one minimal generator of I^(s-1) and one of I.
    """
    _check_positive(t, "power exponent")
    if I.is_zero:
        raise IdealError("power of the zero ideal is unsupported")
    P = I
    for _ in range(t - 1):
        sums = {tuple(map(add, p, g)) for p in P.gens for g in I.gens}
        P = _minimal_ideal(I.n, sums)
    return P


def contains(I, a):
    """True iff x^a lies in I, i.e. some generator divides a."""
    a = tuple(a)
    _check_exponent(a, I.n)
    return any(divides(g, a) for g in I.gens)


def contains_power(I, a, t):
    """True iff x^a lies in I^t, decided by multiplicity search.

    Searches nonnegative integer multiplicities m_j with sum t and
    sum m_j * g_j <= a, pruning branches whose remaining generators
    cannot fit t more factors into the residual exponent.  The search is
    depth-first with an explicit stack, so t is not bounded by the
    recursion limit; it raises ResourceLimitError past
    POWER_SEARCH_BUDGET generator checks.
    """
    a = tuple(a)
    _check_exponent(a, I.n)
    _check_positive(t, "power exponent")
    if I.is_zero:
        return False
    # Largest generators first tends to fail fast.
    gens = sorted(I.gens, key=lambda g: (-sum(g), g))
    supports = [[(i, x) for i, x in enumerate(g) if x] for g in gens]
    residual = list(a)
    checks = 0

    def moves(idx, need):
        """(generator index, multiplicity) steps from a node, in search order."""
        nonlocal checks
        checks += len(gens) - idx
        if checks > POWER_SEARCH_BUDGET:
            raise ResourceLimitError(
                f"power membership search exceeds budget {POWER_SEARCH_BUDGET} "
                f"generator checks (t={t})"
            )
        # A zero generator (the unit ideal) fits any number of times.
        caps = [
            min((residual[i] // x for i, x in supp), default=need)
            for supp in supports[idx:]
        ]
        if sum(caps) < need:
            return iter(())
        return (
            (idx + off, m)
            for off, cap in enumerate(caps)
            for m in range(min(cap, need), 0, -1)
        )

    need = t
    taken = []
    stack = [moves(0, need)]
    while stack:
        for j, m in stack[-1]:
            for i, x in supports[j]:
                residual[i] -= m * x
            need -= m
            if need == 0:
                return True
            taken.append((j, m))
            stack.append(moves(j + 1, need))
            break
        else:
            stack.pop()
            if taken:
                j, m = taken.pop()
                for i, x in supports[j]:
                    residual[i] += m * x
                need += m
    return False


def restrict(I, V):
    """The subideal generated by generators supported inside V.

    Ambient variable count is unchanged.  May return the zero ideal.
    """
    V = set(V)
    for v in V:
        if not (type(v) is int and 1 <= v <= I.n):
            raise IdealError(f"vertex {_quote(v)} outside 1..{_quote(I.n)}")
    kept = [g for g in I.gens if support(g) <= V]
    # A subset of an antichain is an antichain: every generator is kept.
    return _minimal_ideal(I.n, kept)

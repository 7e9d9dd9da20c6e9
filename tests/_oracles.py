"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against the definitions, not the
library's algorithms: Fourier-Motzkin instead of simplex, subset scans
instead of path extension, component decompositions instead of finder
logic.  Slow is fine; these run on tiny inputs.  The one exception is
fraction_simplex, the library's pivot rules over Fractions, which pins the
integer-preserving simplex to the same pivots and the same answers; and
product_scan, the closure scan's walk of the whole box, which pins the
scan (its corner test and its staircase walk) to the same failures and
generators; integer_cut, the scaling of a Fraction vector to ints over the
lcm of its denominators, which product_scan and the simplex tests use to
check the library's integer results; and the set-based graph layer (reference_components,
reference_chordless_cycles, reference_disjoint_odd_pairs and the finders
and checks built on them), which pins the neighbour-mask layer to the same
components, cycles, pairs and configurations on graphs too large for the
subset scans.
reference_config_payload lays out a configuration record as the reports
of `nil classify` hold it; json.dumps over it is the reference for the
CLI's record writer.

The file also holds the small graph helpers and seeded generators that
only the tests use.
"""

import json
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod
from operator import mul

import nil.closure
from nil.classifier import ForbiddenConfig, graph_as_dict
from nil.errors import GraphError, ResourceLimitError
from nil.ideal import MonomialIdeal, divides, minimalize
from nil.wgraph import WeightedGraph, canonical_cycle, induced_subgraph


# ---------------------------------------------------------------------------
# Exact LP maximum via Fourier-Motzkin elimination
# ---------------------------------------------------------------------------

def fm_max_total(columns, rhs):
    """max sum(c) s.t. sum_j c_j*columns[j] <= rhs, c >= 0, by FM elimination.

    Variables are c_1..c_s then z; rows encode sum(coef*var) <= const.
    Eliminating all c_j leaves bounds on z alone.
    """
    s = len(columns)
    m = len(rhs)
    rows = []
    for i in range(m):
        coefs = [Fraction(col[i]) for col in columns] + [Fraction(0)]
        rows.append((coefs, Fraction(rhs[i])))
    for j in range(s):
        coefs = [Fraction(0)] * (s + 1)
        coefs[j] = Fraction(-1)
        rows.append((coefs, Fraction(0)))
    # z - sum c_j <= 0
    coefs = [Fraction(-1)] * s + [Fraction(1)]
    rows.append((coefs, Fraction(0)))

    for var in range(s):
        pos, neg, zero = [], [], []
        for coefs, const in rows:
            if coefs[var] > 0:
                pos.append((coefs, const))
            elif coefs[var] < 0:
                neg.append((coefs, const))
            else:
                zero.append((coefs, const))
        new_rows = list(zero)
        for pc, pd in pos:
            for nc, nd in neg:
                scale_p = Fraction(1) / pc[var]
                scale_n = Fraction(-1) / nc[var]
                coefs = [
                    a * scale_p + b * scale_n for a, b in zip(pc, nc)
                ]
                const = pd * scale_p + nd * scale_n
                new_rows.append((coefs, const))
        # dedupe to keep growth in check
        rows = list({(tuple(c), d) for c, d in new_rows})
        rows = [(list(c), d) for c, d in rows]

    best = None
    for coefs, const in rows:
        cz = coefs[s]
        if cz > 0:
            bound = const / cz
            if best is None or bound < best:
                best = bound
        elif cz == 0 and const < 0:
            raise AssertionError("FM oracle derived an infeasible system")
    if best is None:
        raise AssertionError("FM oracle found the LP unbounded")
    return best


# ---------------------------------------------------------------------------
# Reference simplex over Fractions
# ---------------------------------------------------------------------------

def fraction_simplex(columns, rhs):
    """The packing LP of nil.simplex.maximize_total, pivoted over Fractions.

    The same tableau, Bland's rule and zero-row handling as the library, with
    every division done by Fraction.  Returns (optimum, coeffs, dual, pivots,
    ties), ties counting the ratio tests in which two rows tied at the best
    ratio so far.
    """
    s = len(columns)
    live = [i for i in range(len(rhs)) if any(col[i] for col in columns)]
    m = len(live)
    width = s + m + 1
    rows = []
    for r, i in enumerate(live):
        row = [col[i] for col in columns] + [0] * m + [rhs[i]]
        row[s + r] = 1
        rows.append(row)
    obj = [-1] * s + [0] * (m + 1)
    rows.append(obj)
    basis = list(range(s, s + m))

    pivots = ties = 0
    while True:
        entering = next((j for j in range(s + m) if obj[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(m):
            coef = rows[i][entering]
            if coef > 0:
                ratio = Fraction(rows[i][-1], coef)
                if leaving is not None and ratio == best_ratio:
                    ties += 1
                if (
                    leaving is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    leaving = i
                    best_ratio = ratio
        pivots += 1
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
    dual = [Fraction(0)] * len(rhs)
    for r, i in enumerate(live):
        dual[i] = Fraction(obj[s + r])
    return Fraction(obj[-1]), coeffs, dual, pivots, ties


# ---------------------------------------------------------------------------
# The closure scan as a walk of the whole box
# ---------------------------------------------------------------------------

def integer_cut(values):
    """(Y, D): the Fractions scaled by the lcm D of their denominators to ints."""
    D = lcm(*(y.denominator for y in values))
    return tuple(y.numerator * (D // y.denominator) for y in values), D


def product_scan(oracle, k, witness_only=False):
    """ClosureOracle.scan as a walk of the whole box in product order.

    Every box point of degree in range is visited, and one byte per point
    marks the closure points seen, so minimality is at most n lookups.
    Generators of I^k are found where the walk meets them.  The scan uses
    and extends the oracle's cuts, as the library scan does, and solves
    through nil.closure.lp_max_weight, so a spy there sees both walks.
    Its cuts come from each result's Fraction dual through integer_cut, not
    from the result's own integer cut.  The library scan tests the
    staircase's corners before it walks, so it solves other points, and
    its cuts are checked on their own, not against these.
    """
    I, cuts = oracle.ideal, oracle.cuts
    bounds = nil.closure._box_bounds(I, k)
    volume = prod(b + 1 for b in bounds)
    strides = [prod(b + 1 for b in bounds[i + 1 :]) for i in range(I.n)]
    marked = bytearray(volume)
    power_gens = set(oracle.power(k).gens)
    min_degree = k * min(sum(g) for g in I.gens)
    ceiling = sum(bounds) + 1
    found, failures = [], []
    for index, a in enumerate(product(*(range(b + 1) for b in bounds))):
        degree = sum(a)
        if degree < min_degree or degree >= ceiling:
            continue
        if any(x and marked[index - s] for x, s in zip(a, strides)):
            marked[index] = 1
            continue
        if a in power_gens:
            found.append(a)
            marked[index] = 1
            continue
        if any(sum(map(mul, Y, a)) < k * D for Y, D in cuts):
            continue
        result = nil.closure.lp_max_weight(I, a)
        cut = integer_cut(result.dual)
        if cut not in cuts:
            cuts.append(cut)
        if result.optimum >= k:
            found.append(a)
            failures.append(a)
            marked[index] = 1
            if witness_only:
                ceiling = degree
                if ceiling <= min_degree:
                    break
    return found, failures


# ---------------------------------------------------------------------------
# The graph layer on vertex sets
# ---------------------------------------------------------------------------

def neighbour_sets(G):
    """adj[v]: the neighbours of v as a set, read from G.edges alone, so
    the references below do not rest on the neighbour masks they check."""
    adj = {v: set() for v in G.vertices()}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_components(G):
    """wgraph.connected_components by a stack search over neighbour sets."""
    adj = neighbour_sets(G)
    seen = set()
    comps = []
    for start in G.vertices():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def reference_chordless_cycles(G, max_count=10**6):
    """wgraph.chordless_cycles by path extension over vertex sets.

    touch[y] counts the interior path vertices (all but both ends) adjacent
    to y; y may join the path only while it is 0.  Candidates are tried in
    sorted order.
    """
    cycles = []
    adj = neighbour_sets(G)
    touch = [0] * (G.n + 1)
    for a in G.vertices():
        anchor_adj = adj[a]
        for b in sorted(anchor_adj):
            if b < a:
                continue
            path = [a, b]
            members = {a, b}
            stack = [iter(sorted(adj[b]))]
            while stack:
                for y in stack[-1]:
                    if y <= a or y in members or touch[y]:
                        continue
                    if y in anchor_adj:
                        if path[1] < y:
                            cycles.append(tuple(path) + (y,))
                            if len(cycles) > max_count:
                                raise ResourceLimitError(
                                    f"chordless cycle count exceeds cap {max_count}"
                                )
                        continue
                    for z in adj[path[-1]]:
                        touch[z] += 1
                    path.append(y)
                    members.add(y)
                    stack.append(iter(sorted(adj[y])))
                    break
                else:
                    stack.pop()
                    if stack:
                        members.remove(path.pop())
                        for z in adj[path[-1]]:
                            touch[z] -= 1
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def reference_disjoint_odd_pairs(G, odd):
    """(c1, c2, cross) for every two vertex-disjoint cycles of `odd`, by set
    intersection, with cross built for every pair."""
    adj = neighbour_sets(G)
    for i, c1 in enumerate(odd):
        s1 = set(c1)
        for c2 in odd[i + 1 :]:
            if s1.isdisjoint(c2):
                yield c1, c2, [
                    (min(x, y), max(x, y), G.weight(x, y)) for x in c1 for y in c2 if y in adj[x]
                ]


def reference_odd_cycle_condition(G):
    odd = [c for c in reference_chordless_cycles(G) if len(c) % 2 == 1]
    for c1, c2, cross in reference_disjoint_odd_pairs(G, odd):
        if not cross:
            return False, (c1, c2)
    return True, None


def reference_cycle_edges(G, cycle):
    """The (u, v, w) edges of a cycle, u < v, in no particular order: one
    G.weight per pair of consecutive vertices, the last closing the cycle."""
    return tuple(
        (min(x, y), max(x, y), G.weight(x, y)) for x, y in zip(cycle, cycle[1:] + cycle[:1])
    )


def reference_find_f4(G, odd):
    """classifier.find_f4 with the closed neighbourhood as a vertex set."""
    adj = neighbour_sets(G)
    heavy = [e for e in G.edge_list() if e[2] > 1]
    configs = []
    for cycle in odd:
        closed = set(cycle).union(*(adj[x] for x in cycle))
        for u, v, w in heavy:
            if u in closed or v in closed:
                continue
            configs.append(
                ForbiddenConfig(
                    "F4",
                    vertices=tuple(sorted(cycle + (u, v))),
                    edges=tuple(sorted(reference_cycle_edges(G, cycle) + ((u, v, w),))),
                    cycles=(cycle,),
                    pendant=(u, v, w),
                )
            )
    configs.sort(key=lambda c: (c.vertices, c.edges))
    return configs


def reference_find_f5(G, odd):
    """classifier.find_f5 over every disjoint pair, dropping those with a
    weight-1 connector."""
    configs = []
    for c1, c2, cross in reference_disjoint_odd_pairs(G, odd):
        if any(w == 1 for (_, _, w) in cross):
            continue
        configs.append(
            ForbiddenConfig(
                "F5",
                vertices=tuple(sorted(c1 + c2)),
                edges=tuple(
                    sorted(
                        reference_cycle_edges(G, c1) + reference_cycle_edges(G, c2) + tuple(cross)
                    )
                ),
                cycles=(c1, c2),
                connectors=tuple(sorted(cross)),
            )
        )
    configs.sort(key=lambda c: (c.vertices, c.edges))
    return configs


# ---------------------------------------------------------------------------
# Cycle oracles
# ---------------------------------------------------------------------------

def brute_chordless_cycles(G):
    """Chordless cycles via subset scan: a vertex subset carries one iff its
    induced subgraph is a single cycle."""
    out = []
    verts = list(G.vertices())
    for size in range(3, G.n + 1):
        for subset in combinations(verts, size):
            H, _ = induced_subgraph(G, subset)
            if len(H.edges) != size:
                continue
            adj = neighbour_sets(H)
            if any(len(adj[v]) != 2 for v in H.vertices()):
                continue
            # connected 2-regular with |E| == |V| is one cycle; walk it
            order = [1]
            prev = None
            while len(order) < size:
                nxt = [x for x in adj[order[-1]] if x != prev]
                prev = order[-1]
                order.append(min(nxt))
            if len(set(order)) != size:
                continue
            back = {new: old for old, new in zip(subset, range(1, size + 1))}
            out.append(canonical_cycle([back[v] for v in order]))
    return sorted(set(out), key=lambda c: (len(c), c))


def brute_all_cycles(G):
    """Every simple cycle (not only induced), canonical form, via DFS."""
    cycles = []
    adj = neighbour_sets(G)

    def extend(path, members):
        last = path[-1]
        anchor = path[0]
        for y in sorted(adj[last]):
            if y == anchor:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(canonical_cycle(path))
            elif y > anchor and y not in members:
                members.add(y)
                path.append(y)
                extend(path, members)
                path.pop()
                members.remove(y)

    for a in G.vertices():
        for b in sorted(adj[a]):
            if b > a:
                extend([a, b], {a, b})
    return sorted(set(cycles), key=lambda c: (len(c), c))


def brute_has_even_cycle(G):
    return any(len(c) % 2 == 0 for c in brute_all_cycles(G))


# ---------------------------------------------------------------------------
# Forbidden-configuration oracle: subset scan against the definitions
# ---------------------------------------------------------------------------

def _induced_edges(G, subset):
    members = set(subset)
    return [
        (u, v, w) for (u, v), w in sorted(G.edges.items()) if u in members and v in members
    ]


def _is_odd_cycle_set(G, subset):
    """The induced subgraph on subset is a single odd cycle."""
    edges = _induced_edges(G, subset)
    if len(subset) % 2 == 0 or len(edges) != len(subset):
        return False
    deg = {v: 0 for v in subset}
    for u, v, _ in edges:
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        return False
    seen = {min(subset)}
    stack = [min(subset)]
    adj = {v: [] for v in subset}
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(subset)


def brute_forbidden(G):
    """Sets of located configurations keyed the same way the finders key them."""
    found = {"F1": set(), "F2": set(), "F3": set(), "F4": set(), "F5": set()}
    verts = list(G.vertices())
    for subset in combinations(verts, 3):
        edges = _induced_edges(G, subset)
        if len(edges) == 2 and all(w > 1 for *_, w in edges):
            shared = set(edges[0][:2]) & set(edges[1][:2])
            if shared:
                found["F1"].add(subset)
        elif len(edges) == 3 and all(w > 1 for *_, w in edges):
            found["F2"].add(subset)
    for subset in combinations(verts, 4):
        edges = _induced_edges(G, subset)
        if len(edges) != 2 or not all(w > 1 for *_, w in edges):
            continue
        if not set(edges[0][:2]) & set(edges[1][:2]):
            found["F3"].add(subset)
    for size in range(5, G.n + 1):
        for subset in combinations(verts, size):
            for cyc_size in range(3, size - 1, 2):
                for cyc in combinations(subset, cyc_size):
                    rest = tuple(v for v in subset if v not in cyc)
                    if len(rest) == 2 and _is_odd_cycle_set(G, cyc):
                        u, v = rest
                        if (
                            G.has_edge(u, v)
                            and G.weight(u, v) > 1
                            and not any(
                                G.has_edge(x, y) for x in cyc for y in rest
                            )
                        ):
                            found["F4"].add((frozenset(cyc), frozenset(rest)))
    for size in range(6, G.n + 1):
        for subset in combinations(verts, size):
            for s1_size in range(3, size - 2, 2):
                for s1 in combinations(subset, s1_size):
                    s2 = tuple(v for v in subset if v not in s1)
                    if min(s1) > min(s2):
                        continue
                    if not (_is_odd_cycle_set(G, s1) and _is_odd_cycle_set(G, s2)):
                        continue
                    cross = [
                        G.weight(x, y)
                        for x in s1
                        for y in s2
                        if G.has_edge(x, y)
                    ]
                    if all(w > 1 for w in cross):
                        found["F5"].add(frozenset((frozenset(s1), frozenset(s2))))
    return found


def finder_keys(configs):
    """Map finder output to the same keys brute_forbidden uses."""
    keys = {"F1": set(), "F2": set(), "F3": set(), "F4": set(), "F5": set()}
    for c in configs:
        if c.kind in ("F1", "F2", "F3"):
            keys[c.kind].add(c.vertices)
        elif c.kind == "F4":
            keys["F4"].add(
                (frozenset(c.cycles[0]), frozenset(c.pendant[:2]))
            )
        else:
            keys["F5"].add(
                frozenset((frozenset(c.cycles[0]), frozenset(c.cycles[1])))
            )
    return keys


def reference_config_payload(config):
    """A ForbiddenConfig as the dict a `nil classify` report lists; pass it
    as json.dumps(..., default=reference_config_payload)."""
    if not isinstance(config, ForbiddenConfig):
        raise TypeError(f"not a ForbiddenConfig: {config!r}")
    out = {
        "kind": config.kind,
        "vertices": list(config.vertices),
        "edges": [list(e) for e in config.edges],
    }
    if config.cycles:
        out["cycles"] = [list(c) for c in config.cycles]
    if config.pendant is not None:
        out["pendant"] = list(config.pendant)
    if config.kind == "F5":
        out["connectors"] = [list(e) for e in config.connectors]
    return out


# ---------------------------------------------------------------------------
# Graph helpers
# ---------------------------------------------------------------------------

def is_cycle_of(G, cycle):
    """Check by direct edge lookups that `cycle` is a cycle of G."""
    m = len(cycle)
    if m < 3 or len(set(cycle)) != m:
        return False
    return all(G.has_edge(cycle[i], cycle[(i + 1) % m]) for i in range(m))


def remove_edge(G, u, v):
    """G minus one edge (vertex set unchanged)."""
    key = (u, v) if u < v else (v, u)
    if key not in G.edges:
        raise GraphError(f"no edge ({u}, {v})")
    return WeightedGraph(
        G.n, [(a, b, w) for (a, b), w in G.edges.items() if (a, b) != key]
    )


def disjoint_union(G, H):
    """G together with H relabeled onto {n+1 .. n+m}."""
    shifted = [(u + G.n, v + G.n, w) for (u, v, w) in H.edge_list()]
    return WeightedGraph(G.n + H.n, list(G.edge_list()) + shifted)


def serialize_graph(G, fmt="text"):
    """G as a graph file in the text or json format that nil reads."""
    if fmt == "json":
        return json.dumps(graph_as_dict(G), indent=2, sort_keys=True) + "\n"
    lines = [f"vertices {G.n}"]
    lines.extend(f"edge {u} {v} {w}" for u, v, w in G.edge_list())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random generators (all seeded by the caller)
# ---------------------------------------------------------------------------

def random_graph(rng, n_min=2, n_max=6, weights=(1, 2, 3), p=0.5):
    n = rng.randint(n_min, n_max)
    edges = []
    for u, v in combinations(range(1, n + 1), 2):
        if rng.random() < p:
            edges.append((u, v, rng.choice(weights)))
    return WeightedGraph(n, edges)


def random_sparse_graph(rng, n_min=12, n_max=28, p=0.15, heavy=0.25):
    """A uniform random graph on n_min..n_max vertices with round(p * C(n, 2))
    edges, round(heavy * edges) of them of weight 2 and the rest of weight 1."""
    n = rng.randint(n_min, n_max)
    pairs = rng.sample(list(combinations(range(1, n + 1), 2)), max(1, round(p * n * (n - 1) / 2)))
    heavy_count = round(heavy * len(pairs))
    return WeightedGraph(n, [(u, v, 2 if i < heavy_count else 1) for i, (u, v) in enumerate(pairs)])


def random_graph_with_edge(rng, **kwargs):
    while True:
        G = random_graph(rng, **kwargs)
        if G.edges:
            return G


def odd_cycle_rich_graph(rng, n_min=6, n_max=9, heavy=1 / 6):
    """Disjoint odd cycles (triangles, and 5-cycles two times in five where
    they fit) over a random order of n_min..n_max vertices, then 0 to 3
    random extra edges; each edge has weight 2 with probability `heavy`,
    else 1.  So F4s and F5s are common, some with heavy cycle edges."""
    n = rng.randint(n_min, n_max)
    order = rng.sample(range(1, n + 1), n)
    pairs = set()
    start = 0
    while n - start >= 3:
        m = 5 if n - start >= 5 and rng.random() < 0.4 else 3
        cycle = order[start : start + m]
        pairs.update(tuple(sorted((cycle[i - 1], x))) for i, x in enumerate(cycle))
        start += m
    for _ in range(rng.randint(0, 3)):
        pairs.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return WeightedGraph(n, [(u, v, 2 if rng.random() < heavy else 1) for u, v in sorted(pairs)])


def random_cactus(rng, n_min=8, n_max=30, max_chords=2):
    """A connected leafless graph on n_min..n_max vertices, randomly labelled.

    Odd cycles are added one at a time.  Each new one is glued at a vertex
    to the graph so far (two times in three) or joined to it by an edge.
    Three times in four it attaches at one of the first three vertices of
    the first cycle, which is a triangle half of the time; so bouquets and
    adjacent stems, and with them compact graphs of every shape, are
    common.  Then 0 to max_chords random chords are added.
    """
    edges = []
    adj = {}

    def add(u, v):
        edges.append((u, v))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def add_cycle(length, at=None):
        """A cycle of new vertices, or of new vertices and `at`; its vertices."""
        new = range(len(adj) + 1, len(adj) + 1 + length - (at is not None))
        vs = ([] if at is None else [at]) + list(new)
        for i, x in enumerate(vs):
            add(x, vs[i - 1])
        return vs

    anchors = add_cycle(rng.choice((3, 5, 7, 9)) if rng.random() < 0.5 else 3)[:3]
    while len(adj) < n_min or rng.random() < 0.5:
        at = rng.choice(anchors if rng.random() < 0.75 else list(adj))
        glue = rng.random() < 2 / 3
        room = n_max - len(adj) + glue
        lengths = [m for m in range(3, 14, 2) if m <= room]
        if not lengths:
            break
        if glue:
            add_cycle(rng.choice(lengths), at)
        else:
            add(at, add_cycle(rng.choice(lengths))[0])
    n = len(adj)
    for _ in range(rng.randint(0, max_chords)):
        u, v = rng.sample(range(1, n + 1), 2)
        if v not in adj[u]:
            add(u, v)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return WeightedGraph(n, [(label[u - 1], label[v - 1], 1) for u, v in edges])


def exp_add(a, b):
    """The exponent of the product of two monomials."""
    return tuple(x + y for x, y in zip(a, b))


def random_exponent(rng, n, entry_max=3):
    return tuple(rng.randint(0, entry_max) for _ in range(n))


def random_ideal(rng, n_max=4, max_gens=4, entry_max=3):
    n = rng.randint(1, n_max)
    while True:
        gens = {
            random_exponent(rng, n, entry_max)
            for _ in range(rng.randint(1, max_gens))
        }
        gens = {g for g in gens if any(g)}
        if gens:
            return minimalize(gens)


def brute_minimalize(exps):
    """Quadratic definition-level minimalization, independent ordering."""
    exps = sorted(set(map(tuple, exps)))
    kept = [
        e
        for e in exps
        if not any(f != e and divides(f, e) for f in exps)
    ]
    return MonomialIdeal(len(exps[0]), kept)

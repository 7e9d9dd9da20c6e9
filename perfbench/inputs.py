"""Seeded graph inputs for the `oracle` and `classify` workloads.

Everything here depends only on the seed and the standard library, so the
same seed always yields byte-identical graph files.  The program under test
sees only the files written by `write_graphs`.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

# The cost of one request varies several-fold between graphs of one size,
# so every run must see many graphs and the same mix of them whatever the
# seed.  Edge and heavy-edge counts are therefore fixed per size (G(n, m)
# rather than G(n, p)), sizes and request kinds cycle, and oracle graphs
# are drawn in strata, interleaved in measured shares (see `oracle_strata`).
# A stratum is integrally closed (full scans) or not (early exit), and has
# 3 or 4 vertices on heavy edges: a fourth heavy vertex makes the box of a
# k = 2 scan 5/3 as large, and a closed graph with 4 such vertices took
# about 1.5 times as long as one with 3.
#
# oracle: connected graphs on 5 vertices, 6 edges, 2 of them heavy.  Mixing
# in 4-vertex graphs put the median latency in the gap between cheap and
# full scans; mixing in 6-vertex graphs (0.2-0.6 s a request) left too few
# requests per run for a median that holds from seed to seed.
ORACLE_VERTICES = 5
ORACLE_EDGE_P = 0.6
# The traffic whose closed share the strata follow: connected graphs on
# 4..6 vertices, each pair an edge with probability ORACLE_EDGE_P, each
# edge heavy with probability HEAVY_P.  SHARE_SAMPLES of them, drawn from
# a fixed seed, put the share at 0.747.  The share of 4 heavy vertices in
# each closedness stratum is measured on SHARE_SAMPLES graphs drawn as the
# oracle graphs are.
SHARE_VERTICES = (4, 5, 6)
SHARE_SAMPLES = 4000
# classify: graphs of growing size, the "single graphs" traffic.  Above 28
# vertices one graph takes 0.2-3.5 s, too few per run for steady figures.
CLASSIFY_VERTICES = tuple(range(12, 29))
CLASSIFY_EDGE_P = 0.15
HEAVY_P = 0.25


def _weights(rng, pairs):
    """Exactly round(HEAVY_P * len(pairs)) heavy edges, at random places."""
    heavy = set(rng.sample(range(len(pairs)), round(HEAVY_P * len(pairs))))
    return [(u, v, 2 if i in heavy else 1) for i, (u, v) in enumerate(pairs)]


def _edge_count(n, p):
    return max(1, round(p * n * (n - 1) / 2))


def connected_graph(rng, n, p):
    """A random spanning tree on 1..n plus random other pairs, for
    _edge_count(n, p) edges in all (at least the n - 1 tree edges)."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    tree = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        tree.add((min(u, v), max(u, v)))
    rest = [pq for pq in combinations(range(1, n + 1), 2) if pq not in tree]
    extra = max(0, _edge_count(n, p) - len(tree))
    pairs = sorted(tree | set(rng.sample(rest, extra)))
    return n, _weights(rng, pairs)


def gnm_graph(rng, n, p):
    """A uniform random graph with _edge_count(n, p) edges."""
    pairs = sorted(rng.sample(list(combinations(range(1, n + 1), 2)), _edge_count(n, p)))
    return n, _weights(rng, pairs)


def _connected(n, pairs):
    reached, todo = {1}, [1]
    while todo:
        u = todo.pop()
        for pq in pairs:
            if u in pq:
                v = pq[0] + pq[1] - u
                if v not in reached:
                    reached.add(v)
                    todo.append(v)
    return len(reached) == n


def gnp_connected_graph(rng, n, p):
    """A G(n, p) graph conditioned on being connected, each edge heavy
    with probability HEAVY_P."""
    while True:
        pairs = [pq for pq in combinations(range(1, n + 1), 2) if rng.random() < p]
        if _connected(n, pairs):
            return n, [(u, v, 2 if rng.random() < HEAVY_P else 1) for u, v in pairs]


def closed_share():
    """The share of integrally closed graphs among SHARE_SAMPLES connected
    G(n, ORACLE_EDGE_P) graphs on SHARE_VERTICES, from a fixed seed, so it
    is the same for every workload seed."""
    rng = random.Random("closed-share")
    closed = sum(
        integrally_closed(gnp_connected_graph(rng, rng.choice(SHARE_VERTICES), ORACLE_EDGE_P))
        for _ in range(SHARE_SAMPLES)
    )
    return closed / SHARE_SAMPLES


def heavy_vertices(graph):
    return len({x for u, v, w in graph[1] if w > 1 for x in (u, v)})


def oracle_stratum(graph):
    return integrally_closed(graph), heavy_vertices(graph)


def oracle_strata():
    """{stratum: share}: closed_share() split, within each closedness, in
    the shares that heavy-vertex counts have among SHARE_SAMPLES oracle
    graphs from a fixed seed."""
    rng = random.Random("oracle-strata")
    counts = {}
    for _ in range(SHARE_SAMPLES):
        key = oracle_stratum(connected_graph(rng, ORACLE_VERTICES, ORACLE_EDGE_P))
        counts[key] = counts.get(key, 0) + 1
    closed = closed_share()
    within = {c: sum(n for (cc, _), n in counts.items() if cc == c) for c in (True, False)}
    return {
        (c, hv): (closed if c else 1 - closed) * n / within[c]
        for (c, hv), n in sorted(counts.items())
    }


def integrally_closed(graph):
    """True iff no F1, F2 or F3 occurs, i.e. the edge ideal is integrally
    closed: any two heavy edges are disjoint and joined by an edge, or
    share a vertex and close a triangle that has a trivial edge.  Decided
    here, not by nil, so that the inputs do not depend on the code that
    is measured."""
    _, edges = graph
    weight = {(u, v): w for u, v, w in edges}
    weight.update({(v, u): w for u, v, w in edges})
    heavy = [(u, v) for u, v, w in edges if w > 1]
    for e, f in combinations(heavy, 2):
        ends = set(e) ^ set(f)
        if len(ends) == 2:  # a path on three vertices
            x, y = ends
            if (x, y) not in weight or all(weight[p] > 1 for p in (e, f, (x, y))):
                return False
        elif not any((x, y) in weight for x in e for y in f):
            return False
    return True


def oracle_requests(seed, count):
    """`count` (kind, graph) pairs.  Normality and closure alternate.
    Each pair of requests is drawn from the stratum furthest below its
    share so far, so every prefix of the list has the same mix of strata
    whatever the seed."""
    rng = random.Random(f"oracle:{seed}")
    shares = oracle_strata()
    taken = dict.fromkeys(shares, 0)
    out = []
    for i in range(count):
        kind = "normality" if i % 2 == 0 else "closure"
        if i % 2 == 0:
            pairs = i // 2 + 1
            want = max(shares, key=lambda key: pairs * shares[key] - taken[key])
            taken[want] += 1
        graph = connected_graph(rng, ORACLE_VERTICES, ORACLE_EDGE_P)
        while oracle_stratum(graph) != want:
            graph = connected_graph(rng, ORACLE_VERTICES, ORACLE_EDGE_P)
        out.append((kind, graph))
    return out


def classify_requests(seed, count):
    """`count` graphs whose vertex count cycles through CLASSIFY_VERTICES."""
    rng = random.Random(f"classify:{seed}")
    return [
        gnm_graph(rng, CLASSIFY_VERTICES[i % len(CLASSIFY_VERTICES)], CLASSIFY_EDGE_P)
        for i in range(count)
    ]


def graph_text(graph):
    n, edges = graph
    lines = [f"vertices {n}"] + [f"edge {u} {v} {w}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def write_graphs(directory, graphs):
    """Write one text graph file per graph; returns the paths in order."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, graph in enumerate(graphs):
        path = directory / f"g{i:04d}.txt"
        path.write_text(graph_text(graph), encoding="utf-8")
        paths.append(path)
    return paths

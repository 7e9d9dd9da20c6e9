"""Edge-weighted graphs and their combinatorial analyses.

Vertices are labeled 1..n.  Edges are unordered pairs with a positive
integer weight; an edge of weight > 1 is called nontrivial.  Cycles are
plain vertex tuples in canonical form: rotated so the minimum label comes
first, then reflected so the second entry is smaller than the last.

Everything here is a pure function over immutable graph values, so all
operations are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import GraphError, ResourceLimitError

DEFAULT_CYCLE_CAP = 10**6
# Every vertex gets an adjacency set and a report entry, so a graph file
# cannot ask for more than this many.
_MAX_VERTICES = 10**5


class WeightedGraph:
    """Simple graph on {1..n} with positive integer edge weights.

    ``edges`` maps (u, v) with u < v to the weight.  Instances are treated
    as immutable after construction.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n, edge_list=()):
        # exact int: True is no vertex count, label or weight
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative integer, got {n!r}")
        if n > _MAX_VERTICES:
            raise ResourceLimitError(f"vertex count {n} exceeds the cap {_MAX_VERTICES}")
        self.n = n
        self.edges = {}
        self.adj = {v: set() for v in range(1, n + 1)}
        for item in edge_list:
            try:
                u, v, w = item if len(item) == 3 else (*item, 1)
            except (TypeError, ValueError):
                raise GraphError(f"an edge is (u, v) or (u, v, w), got {item!r}") from None
            if not (type(u) is int and type(v) is int):
                raise GraphError(f"edge endpoints must be integers, got ({u!r}, {v!r})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 1..{n}")
            if type(w) is not int or w < 1:
                raise GraphError(f"edge ({u}, {v}) has weight {w!r}; weights must be integers >= 1")
            key = (u, v) if u < v else (v, u)
            if key in self.edges:
                raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
            self.edges[key] = w
            self.adj[u].add(v)
            self.adj[v].add(u)

    def vertices(self):
        return range(1, self.n + 1)

    def edge_list(self):
        """Sorted tuple of (u, v, w) triples."""
        return tuple((u, v, w) for (u, v), w in sorted(self.edges.items()))

    def has_edge(self, u, v):
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def weight(self, u, v):
        key = (u, v) if u < v else (v, u)
        try:
            return self.edges[key]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def degree(self, v):
        return len(self.adj[v])

    def nontrivial_edges(self):
        """Sorted tuple of edges with weight > 1."""
        return tuple((u, v, w) for (u, v, w) in self.edge_list() if w > 1)

    def __eq__(self, other):
        return (
            isinstance(other, WeightedGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.edges.items())))

    def __repr__(self):
        return f"WeightedGraph({self.n}, {list(self.edge_list())})"


def build_graph(n, edge_list):
    """Validate and build a WeightedGraph from (u, v, w) triples."""
    return WeightedGraph(n, edge_list)


def induced_subgraph(G, V):
    """Subgraph induced on vertex set V, relabeled to 1..|V|.

    Returns (H, label_map) where label_map sends old labels to new ones
    (sorted order of V becomes 1, 2, ...).
    """
    members = set()
    for v in V:
        if not (type(v) is int and 1 <= v <= G.n):
            raise GraphError(f"vertex {v!r} outside 1..{G.n}")
        members.add(v)
    label_map = {old: new for new, old in enumerate(sorted(members), start=1)}
    new_edges = [
        (label_map[u], label_map[v], w)
        for (u, v), w in G.edges.items()
        if u in members and v in members
    ]
    return WeightedGraph(len(members), new_edges), label_map


def connected_components(G):
    """Partition of 1..n into maximal connected sets (sorted tuples).

    Isolated vertices appear as singletons.  Components are ordered by
    their minimum vertex.
    """
    seen = set()
    comps = []
    for start in G.vertices():
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in G.adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


def canonical_cycle(vertices):
    """Rotate/reflect a cycle so v1 is minimal and v2 < v_last."""
    vs = list(vertices)
    if len(vs) < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise GraphError("cycle vertices must be pairwise distinct")
    i = vs.index(min(vs))
    vs = vs[i:] + vs[:i]
    if vs[1] > vs[-1]:
        vs = [vs[0]] + vs[1:][::-1]
    return tuple(vs)


def is_bipartite(G):
    """(True, None) when G has no odd cycle, else (False, odd_cycle).

    BFS 2-coloring; a conflict edge is turned into a concrete odd cycle
    witness via the BFS tree.
    """
    color = {}
    parent = {}
    for start in G.vertices():
        if start in color:
            continue
        color[start] = 0
        parent[start] = None
        queue = [start]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in sorted(G.adj[x]):
                if y not in color:
                    color[y] = 1 - color[x]
                    parent[y] = x
                    queue.append(y)
                elif color[y] == color[x]:
                    return False, _odd_cycle_from_conflict(parent, x, y)
    return True, None


def _odd_cycle_from_conflict(parent, u, v):
    anc_u = [u]
    while parent[anc_u[-1]] is not None:
        anc_u.append(parent[anc_u[-1]])
    index_u = {x: i for i, x in enumerate(anc_u)}
    path_v = [v]
    while path_v[-1] not in index_u:
        path_v.append(parent[path_v[-1]])
    lca = path_v[-1]
    up = anc_u[: index_u[lca] + 1]  # u .. lca
    cycle = up + path_v[-2::-1]  # lca-side of v back down to v
    return canonical_cycle(cycle)


def chordless_cycles(G, max_count=DEFAULT_CYCLE_CAP):
    """All chordless (induced) cycles, canonical form, sorted.

    Extends induced paths anchored at their minimum vertex; a path closes
    into a cycle only through a vertex adjacent to both ends and nothing
    in between.  Raises ResourceLimitError past `max_count` cycles.
    """
    cycles = []
    adj = G.adj
    # touch[y]: how many interior path vertices (all but both ends) are
    # adjacent to y; y may join the path only while it is 0.  The path is
    # extended with an explicit stack, so its length is not bounded by the
    # recursion limit.
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


def biconnected_blocks(G):
    """Biconnected components as lists of edges (iterative Hopcroft-Tarjan).

    Isolated vertices contribute no block.  Deterministic: neighbors are
    visited in sorted order and blocks are listed in discovery order.
    """
    disc = {}
    low = {}
    blocks = []
    edge_stack = []
    counter = 0
    for root in G.vertices():
        if root in disc or not G.adj[root]:
            continue
        stack = [(root, None, iter(sorted(G.adj[root])))]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            x, parent_edge, it = stack[-1]
            advanced = False
            for y in it:
                key = (x, y) if x < y else (y, x)
                if y not in disc:
                    edge_stack.append(key)
                    disc[y] = low[y] = counter
                    counter += 1
                    stack.append((y, key, iter(sorted(G.adj[y]))))
                    advanced = True
                    break
                elif key != parent_edge and disc[y] < disc[x]:
                    edge_stack.append(key)
                    low[x] = min(low[x], disc[y])
            if advanced:
                continue
            stack.pop()
            if stack:
                px = stack[-1][0]
                low[px] = min(low[px], low[x])
                if low[x] >= disc[px]:
                    # px is an articulation point (or root); pop one block
                    key = (px, x) if px < x else (x, px)
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == key:
                            break
                    blocks.append(block)
    return blocks


def _cycle_blocks(G):
    """Vertex sets of the blocks of G that are cycles, or None when G has an
    even cycle.

    No even cycle iff every biconnected block is a single edge or an odd
    cycle (a 2-connected non-cycle block contains a theta subgraph, and one
    of a theta's three cycles is always even).  Such blocks hold at most
    3(n - 1)/2 edges in all, so a denser graph has an even cycle without a
    block pass.  When the answer is not None, every cycle of G is one of
    these blocks.
    """
    if G.n and 2 * len(G.edges) > 3 * (G.n - 1):
        return None
    cycles = []
    for block in biconnected_blocks(G):
        if len(block) == 1:
            continue
        verts = {v for e in block for v in e}
        if len(block) != len(verts) or len(block) % 2 == 0:
            return None  # 2-connected but not a cycle, or an even cycle
        cycles.append(verts)
    return cycles


def has_even_cycle(G):
    """True iff G contains a cycle (not necessarily induced) of even length."""
    return _cycle_blocks(G) is None


def odd_chordless_cycles(G):
    """The odd entries of chordless_cycles(G), in its order."""
    return [c for c in chordless_cycles(G) if len(c) % 2 == 1]


def disjoint_odd_pairs(G, odd):
    """Yield (c1, c2, cross) for every two vertex-disjoint cycles of `odd`,
    c1 listed before c2; cross lists the (u, v, w) edges, u < v, joining them."""
    for i, c1 in enumerate(odd):
        s1 = set(c1)
        for c2 in odd[i + 1 :]:
            if s1.isdisjoint(c2):
                yield c1, c2, [
                    (min(x, y), max(x, y), G.weight(x, y)) for x in c1 for y in c2 if y in G.adj[x]
                ]


def odd_cycle_condition(G):
    """(True, None) iff every two vertex-disjoint odd cycles are joined by
    an edge; else (False, (C1, C2)) with a concrete violating pair.

    Only chordless odd cycles need checking: every odd cycle contains a
    chordless odd cycle on a subset of its vertices.
    """
    for c1, c2, cross in disjoint_odd_pairs(G, odd_chordless_cycles(G)):
        if not cross:
            return False, (c1, c2)
    return True, None


@dataclass(frozen=True)
class CompactClass:
    """Outcome of compact classification.

    tag: one of "not_compact", "bouquet", "two_bouquets", "three_bouquets".
    stems: the stem vertices (one per bouquet; empty when not compact).
    has_even_path: for two_bouquets, whether an extra even-length path
    joins the stems besides the stem edge; None otherwise.
    """

    tag: str
    stems: tuple = ()
    has_even_path: bool | None = None


def trivial_leaves(G):
    """All (leaf, neighbor) pairs whose pendant edge has weight 1."""
    out = []
    for v in G.vertices():
        if len(G.adj[v]) == 1:
            (u,) = G.adj[v]
            if G.weight(u, v) == 1:
                out.append((v, u))
    return out


def classify_compact(G):
    """Classify a connected leafless graph as a (multi-)bouquet of odd cycles.

    A graph is compact when it has no even cycle and satisfies the odd
    cycle condition; compact graphs fall into exactly three shapes, keyed
    by the number of vertices of degree >= 3:

      0 or 1  -> a single bouquet (a plain odd cycle reports its minimum
                 label as stem);
      2       -> two bouquets with stems joined by an edge, possibly plus
                 one even-length path between the stems;
      3       -> three bouquets whose stems form a triangle.

    Rejects disconnected or leaf-bearing input.
    """
    if not G.edges:
        raise GraphError("compact classification needs at least one edge")
    reached, stack = {1}, [1]
    while stack:
        for y in G.adj[stack.pop()]:
            if y not in reached:
                reached.add(y)
                stack.append(y)
    if len(reached) != G.n:
        comps = connected_components(G)
        raise GraphError(f"graph is disconnected ({len(comps)} components)")
    leaves = [v for v in G.vertices() if len(G.adj[v]) == 1]
    if leaves:
        raise GraphError(f"graph has a leaf at vertex {leaves[0]}")

    # Without an even cycle every cycle is a cycle block, so the odd cycle
    # condition reads: every two vertex-disjoint cycle blocks are joined by
    # an edge.
    blocks = _cycle_blocks(G)
    if blocks is None or any(
        b1.isdisjoint(b2) and not any(G.adj[x] & b2 for x in b1)
        for b1, b2 in combinations(blocks, 2)
    ):
        return CompactClass("not_compact")

    stems = tuple(v for v in G.vertices() if len(G.adj[v]) >= 3)
    if len(stems) == 0:
        return CompactClass("bouquet", (min(G.vertices()),))
    if len(stems) == 1:
        return CompactClass("bouquet", stems)
    if len(stems) == 2:
        s1, s2 = stems
        if not G.has_edge(s1, s2):
            raise RuntimeError(
                "compact graph with two stems lacks the stem edge; "
                "classification invariant violated"
            )
        # An extra path between the stems closes a cycle through both, and
        # that cycle is a block.
        even_path = any(s1 in b and s2 in b for b in blocks)
        return CompactClass("two_bouquets", stems, has_even_path=even_path)
    if len(stems) == 3:
        s1, s2, s3 = stems
        if not (G.has_edge(s1, s2) and G.has_edge(s1, s3) and G.has_edge(s2, s3)):
            raise RuntimeError(
                "compact graph with three stems lacks the stem triangle; "
                "classification invariant violated"
            )
        return CompactClass("three_bouquets", stems)
    raise RuntimeError(
        f"compact graph with {len(stems)} stem candidates; "
        "classification invariant violated"
    )

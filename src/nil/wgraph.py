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

from .errors import GraphError, ResourceLimitError, _quote

DEFAULT_CYCLE_CAP = 10**6
# Every vertex gets a neighbour mask and a report entry, so a graph file
# cannot ask for more than this many.  A mask is as wide as its vertex's
# highest neighbour label, so the masks of n vertices hold up to n * n
# bits: at this cap, 2^30 bits (128 MiB), refused before any is built.
_MAX_VERTICES = 2**15


class WeightedGraph:
    """Simple graph on {1..n} with positive integer edge weights.

    ``edges`` maps (u, v) with u < v to the weight.  ``nbr`` is the
    adjacency, one bitmask per vertex: bit u of ``nbr[v]`` is set iff uv is
    an edge, and ``nbr[0]`` is 0.  Instances are treated as immutable after
    construction.
    """

    __slots__ = ("n", "edges", "nbr")

    def __init__(self, n, edge_list=()):
        # exact int: True is no vertex count, label or weight
        if type(n) is not int or n < 0:
            raise GraphError(f"vertex count must be a nonnegative integer, got {_quote(n)}")
        if n > _MAX_VERTICES:
            raise ResourceLimitError(f"vertex count {_quote(n)} exceeds the cap {_MAX_VERTICES}")
        self.n = n
        self.edges = {}
        self.nbr = nbr = [0] * (n + 1)
        for item in edge_list:
            try:
                u, v, w = item if len(item) == 3 else (*item, 1)
            except (TypeError, ValueError):
                raise GraphError(f"an edge is (u, v) or (u, v, w), got {_quote(item)}") from None
            if not (type(u) is int and type(v) is int):
                raise GraphError(f"edge endpoints must be integers, got ({_quote(u)}, {_quote(v)})")
            if u == v:
                raise GraphError(f"self-loop at vertex {_quote(u)} is not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"edge ({_quote(u)}, {_quote(v)}) has an endpoint outside 1..{n}")
            if type(w) is not int or w < 1:
                raise GraphError(
                    f"edge ({u}, {v}) has weight {_quote(w)}; weights must be integers >= 1"
                )
            key = (u, v) if u < v else (v, u)
            if key in self.edges:
                raise GraphError(f"duplicate edge ({key[0]}, {key[1]})")
            self.edges[key] = w
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u

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
            raise GraphError(f"no edge ({_quote(u)}, {_quote(v)})") from None

    def degree(self, v):
        return self.nbr[v].bit_count()

    def nontrivial_edges(self):
        """Sorted tuple of edges with weight > 1."""
        return tuple(sorted((u, v, w) for (u, v), w in self.edges.items() if w > 1))

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
            raise GraphError(f"vertex {_quote(v)} outside 1..{G.n}")
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
    unseen = (1 << (G.n + 1)) - 2
    comps = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            frontier = _closed(G.nbr, frontier) & ~comp
            comp |= frontier
        unseen ^= comp
        comps.append(tuple(_bits(comp)))
    return comps


def _bits(mask):
    """The vertices of a vertex bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def _closed(nbr, mask):
    """The vertices of `mask` together with all their neighbours."""
    out = mask
    while mask:
        low = mask & -mask
        mask ^= low
        out |= nbr[low.bit_length() - 1]
    return out


def canonical_cycle(vertices):
    """Rotate/reflect a cycle so v1 is minimal and v2 < v_last."""
    vs = tuple(vertices)
    if len(vs) < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {len(vs)}")
    if len(set(vs)) != len(vs):
        raise GraphError("cycle vertices must be pairwise distinct")
    return _canonical(vs)


def _canonical(cycle):
    """canonical_cycle for a tuple of at least 3 distinct vertices, unchecked."""
    i = cycle.index(min(cycle))
    if i:
        cycle = cycle[i:] + cycle[:i]
    return cycle if cycle[1] < cycle[-1] else (cycle[0], *cycle[:0:-1])


def _fundamental_cycles(G):
    """Yield (path, i) for each back edge of a depth-first search of G: the
    tree path from the search's root down to the back edge's deeper end, and
    the index on it of the other end, an ancestor.  path[i:] is the
    fundamental cycle, closed by the back edge from its last vertex to its
    first.

    Iterative, over the neighbour masks: roots are taken in ascending order
    and each vertex's lowest unseen neighbour first.  In a depth-first
    search every non-tree edge joins a vertex to an ancestor, and a finished
    vertex has no unseen neighbour, so a vertex's seen neighbours when it
    is reached are its ancestors; its back edges are read off then.  `path`
    is the search's own stack: read it before the next step.
    """
    nbr = G.nbr
    depth = [0] * (G.n + 1)
    seen = 1  # bit 0 and the vertices reached
    for root in G.vertices():
        if seen >> root & 1:
            continue
        seen |= 1 << root
        path = [root]
        while path:
            todo = nbr[path[-1]] & ~seen
            if not todo:
                path.pop()
                continue
            low = todo & -todo
            seen |= low
            y = low.bit_length() - 1
            depth[y] = len(path)
            back = nbr[y] & seen & ~(1 << path[-1])  # the ancestors but the parent
            path.append(y)
            while back:
                low = back & -back
                back ^= low
                yield path, depth[low.bit_length() - 1]


def is_bipartite(G):
    """(True, None) when G has no odd cycle, else (False, odd_cycle).

    The fundamental cycles of a depth-first search span the cycle space, so
    G has an odd cycle iff one of them is odd; the witness is the first.
    """
    for path, i in _fundamental_cycles(G):
        if (len(path) - i) % 2:
            return False, _canonical(tuple(path[i:]))
    return True, None


def chordless_cycles(G, max_count=DEFAULT_CYCLE_CAP):
    """All chordless (induced) cycles, canonical form, sorted by length,
    then by vertices.

    Extends induced paths from anchors taken in label order, among the
    vertices not yet anchored, so each cycle is found once, from its least
    vertex.  A path closes into a cycle only through a vertex adjacent to
    both ends and nothing in between, and of the anchor's two cycle
    neighbours the smaller label comes second.  So every cycle is found in
    canonical form and only the sort is left.  Raises ResourceLimitError
    past `max_count` cycles.
    """
    cycles = []
    nbr = G.nbr
    done = 1  # bit 0 and the anchors already searched
    for a in G.vertices():
        done |= 1 << a
        anchor = nbr[a] & ~done
        seconds = anchor
        while seconds:
            low = seconds & -seconds
            # the anchor neighbours above the second vertex b close its paths
            seconds = closing = seconds ^ low
            if not closing:
                break
            # A frame holds the vertices still to try as the path's next
            # vertex y, and `blocked`: the anchors so far, the path through
            # y, and the neighbours of the path's interior once y has
            # joined.  y's candidates are nbr[y] & ~blocked.  The stack is
            # explicit, so the path's length is not bounded by the
            # recursion limit.
            path = [a]
            stack = [(low, done | low)]
            while stack:
                todo, blocked = stack[-1]
                if not todo:
                    stack.pop()
                    path.pop()
                    continue
                low = todo & -todo
                stack[-1] = (todo ^ low, blocked)
                y = low.bit_length() - 1
                path.append(y)
                candidates = nbr[y] & ~blocked
                closers = candidates & closing
                while closers:
                    low = closers & -closers
                    closers ^= low
                    cycles.append((*path, low.bit_length() - 1))
                if len(cycles) > max_count:
                    raise ResourceLimitError(f"chordless cycle count exceeds cap {max_count}")
                extend = candidates & ~anchor
                # once y is interior, a closer next to it is blocked for good
                if extend and closing & ~(blocked | nbr[y]):
                    stack.append((extend, blocked | nbr[y]))
                else:
                    path.pop()
    cycles.sort()
    cycles.sort(key=len)  # stable: by length, then by vertices
    return cycles


def _cycle_blocks(G):
    """Vertex masks of the blocks of G that are cycles, or None when G has
    an even cycle.

    No even cycle iff every biconnected block is a single edge or an odd
    cycle (a 2-connected non-cycle block contains a theta subgraph, and one
    of a theta's three cycles is always even).  Such blocks hold at most
    3(n - 1)/2 edges in all, so a denser graph has an even cycle without a
    search.  Otherwise the blocks that are cycles are the fundamental cycles
    of one depth-first search, when those are odd and share no edge: two
    cycles that share an edge hold a theta, and edge-disjoint cycles leave
    no other cycle.  When the answer is not None, every cycle of G is one of
    these blocks.
    """
    if G.n and 2 * len(G.edges) > 3 * (G.n - 1):
        return None
    cycles = []
    used = 0  # the tree edges on some cycle, each keyed by its child
    for path, i in _fundamental_cycles(G):
        if (len(path) - i) % 2 == 0:
            return None
        below = 0
        for v in path[i + 1:]:
            below |= 1 << v
        if used & below:
            return None
        used |= below
        cycles.append(below | 1 << path[i])
    return cycles


def has_even_cycle(G):
    """True iff G contains a cycle (not necessarily induced) of even length."""
    return _cycle_blocks(G) is None


def odd_chordless_cycles(G):
    """The odd entries of chordless_cycles(G), in its order."""
    return [c for c in chordless_cycles(G) if len(c) % 2 == 1]


def disjoint_odd_pairs(G, odd, barred=()):
    """Yield (c1, c2, cross) for every two vertex-disjoint cycles of `odd`,
    c1 listed before c2, that no edge of `barred` joins; cross lists the
    (u, v, w) edges, u < v, joining them.

    `barred` holds (u, v) edges.  An index built once holds, for each
    vertex x, the bitset `near[x]` of the cycles through x or through a
    vertex that a barred edge joins to x; c1's partners are then the cycles
    after it outside the union of `near` over c1's vertices, read off one
    bitset in list order, so no rejected pair is visited.  `cross` is built
    only for the pairs yielded.
    """
    # two vertex-disjoint cycles need two cycles and six vertices
    if len(odd) < 2 or G.n < 6:
        return
    through = [0] * (G.n + 1)  # through[x]: the bitset of the cycles through x
    bit = 1
    for c in odd:
        for x in c:
            through[x] |= bit
        bit <<= 1
    near = through[:]
    for u, v in barred:
        near[u] |= through[v]
        near[v] |= through[u]
    everything = bit - 1
    nbr = G.nbr
    for i, c1 in enumerate(odd):
        reject = 0
        for x in c1:
            reject |= near[x]
        # bit 0 of `free` is cycle i + 1
        free = (everything ^ reject) >> (i + 1)
        j = i
        while free:
            skip = (free & -free).bit_length()
            free >>= skip
            j += skip
            c2 = odd[j]
            yield c1, c2, [
                (min(x, y), max(x, y), G.weight(x, y))
                for x in c1 for y in c2 if nbr[x] >> y & 1
            ]


def odd_cycle_condition(G):
    """(True, None) iff every two vertex-disjoint odd cycles are joined by
    an edge; else (False, (C1, C2)) with a concrete violating pair.

    Only chordless odd cycles need checking: every odd cycle contains a
    chordless odd cycle on a subset of its vertices.
    """
    for c1, c2, _ in disjoint_odd_pairs(G, odd_chordless_cycles(G), barred=G.edges):
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
    comps = connected_components(G)
    if len(comps) > 1:
        raise GraphError(f"graph is disconnected ({len(comps)} components)")
    nbr = G.nbr
    leaves = [v for v in G.vertices() if nbr[v].bit_count() == 1]
    if leaves:
        raise GraphError(f"graph has a leaf at vertex {leaves[0]}")

    # Without an even cycle every cycle is a cycle block, so the odd cycle
    # condition reads: every two vertex-disjoint cycle blocks are joined by
    # an edge, that is, no block misses the closed neighbourhood of another.
    blocks = _cycle_blocks(G)
    if blocks is None or any(
        not _closed(nbr, b1) & b2 for b1, b2 in combinations(blocks, 2)
    ):
        return CompactClass("not_compact")

    # A compact graph has at most three stems, and every two are adjacent.
    stems = tuple(v for v in G.vertices() if nbr[v].bit_count() >= 3)
    if len(stems) > 3 or any(not G.has_edge(u, v) for u, v in combinations(stems, 2)):
        raise RuntimeError(
            f"compact graph with stems {list(stems)}: more than three, or two "
            "not adjacent; classification invariant violated"
        )
    if len(stems) == 3:
        return CompactClass("three_bouquets", stems)
    if len(stems) == 2:
        # An extra path between the stems closes a cycle through both, and
        # that cycle is a block.
        ends = (1 << stems[0]) | (1 << stems[1])
        even_path = any(b & ends == ends for b in blocks)
        return CompactClass("two_bouquets", stems, has_even_path=even_path)
    # With no stem the graph is one odd cycle, and it runs through vertex 1.
    return CompactClass("bouquet", stems or (1,))

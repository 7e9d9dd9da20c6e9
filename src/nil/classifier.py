"""Structural classifier for integral closedness and normality.

Five induced edge-weighted configurations decide everything:

  F1  path on 3 vertices, both edges nontrivial, endpoints non-adjacent
  F2  triangle with all three weights nontrivial
  F3  four vertices inducing exactly two disjoint edges, both nontrivial
  F4  chordless odd cycle plus a disjoint nontrivial edge, no edges between
  F5  two vertex-disjoint chordless odd cycles whose connecting edges (if
      any) are all nontrivial

The edge ideal is integrally closed iff no F1/F2/F3 occurs, and normal iff
no F1..F5 occurs.  For every configuration there is an explicit witness
monomial refuting closedness of a specific power; certificates carry the
witness and can be checked against the LP oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import combinations, groupby, permutations, product
from operator import attrgetter

from .closure import (
    DEFAULT_BOX_BUDGET,
    in_closure_power,
    normality_scan,
)
from .errors import GraphError, IdealError, ResourceLimitError, _quote
from .ideal import _check_positive, contains_power, edge_ideal
from .wgraph import (
    WeightedGraph,
    _bits,
    disjoint_odd_pairs,
    induced_subgraph,
    is_bipartite,
    odd_chordless_cycles,
)

DEFAULT_CONFIG_CAP = 1000


class CertificateError(ValueError):
    """The witness formula does not apply to this configuration."""


@dataclass(frozen=True)
class ForbiddenConfig:
    """A located forbidden configuration.

    vertices: sorted vertex tuple of the induced configuration.
    edges: sorted (u, v, w) triples of every edge it induces.
    cycles: canonical cycle tuples (one for F4, two for F5, else empty).
    pendant: the nontrivial disjoint edge of an F4, as (u, v, w).
    connectors: the nontrivial edges joining the two cycles of an F5.
    """

    kind: str
    vertices: tuple
    edges: tuple
    cycles: tuple = ()
    pendant: tuple | None = None
    connectors: tuple = ()


@dataclass(frozen=True)
class Certificate:
    """A (power, witness) pair refuting normality, plus its oracle status.

    verified is one of "unverified", "verified", "failed"; "verified"
    means the witness was confirmed to lie in the closure of I^t but not
    in I^t, both by exact computation.
    """

    config: ForbiddenConfig
    t: int
    witness: tuple
    verified: str = "unverified"
    note: str = ""


@dataclass(frozen=True)
class ClassificationReport:
    integrally_closed: bool
    normal: bool
    found: tuple
    primary_certificate: Certificate | None
    notes: tuple


def _edge_triple(G, u, v):
    key = (u, v) if u < v else (v, u)
    return (*key, G.edges[key])


def find_f1_f2_f3(G):
    """All F1, F2 and F3 configurations, canonically ordered."""
    nbr = G.nbr
    heavy_edges = G.nontrivial_edges()
    # heavy[v]: the heavy neighbours of v, ascending as the edges are sorted
    heavy = [[] for _ in range(G.n + 1)]
    for u, w, _ in heavy_edges:
        heavy[u].append(w)
        heavy[w].append(u)
    configs = []
    for v in G.vertices():
        for u, w in combinations(heavy[v], 2):
            if not nbr[u] >> w & 1:
                configs.append(
                    ForbiddenConfig(
                        "F1",
                        vertices=tuple(sorted((u, v, w))),
                        edges=tuple(sorted((_edge_triple(G, u, v), _edge_triple(G, v, w)))),
                    )
                )
            elif v < u and G.weight(u, w) > 1:  # a heavy triangle, met at its least vertex
                edges = (_edge_triple(G, v, u), _edge_triple(G, v, w), _edge_triple(G, u, w))
                configs.append(ForbiddenConfig("F2", vertices=(v, u, w), edges=edges))
    ends = [(1 << u) | (1 << w) for u, w, _ in heavy_edges]
    for i, e in enumerate(heavy_edges):
        # an F3 partner has neither end in e's closed neighbourhood, which
        # holds e's ends, as each is the other's neighbour
        near = nbr[e[0]] | nbr[e[1]]
        for f, bits in zip(heavy_edges[i + 1 :], ends[i + 1 :]):
            if not near & bits:
                configs.append(
                    ForbiddenConfig("F3", vertices=tuple(sorted(e[:2] + f[:2])), edges=(e, f))
                )
    configs.sort(key=lambda c: (c.kind, c.vertices, c.edges))
    return configs


def _cycle_edges(G, cycle):
    """The cycle's (u, v, w) edges, u < v, as a sorted list."""
    edges = G.edges
    keys = sorted([(x, y) if x < y else (y, x) for x, y in zip(cycle, cycle[1:] + cycle[:1])])
    return [(u, v, edges[u, v]) for u, v in keys]


def find_f4(G, odd=None):
    """All (chordless odd cycle, disjoint nontrivial edge) pairs with no
    edge between the cycle and the edge.  Cycle weights are unconstrained.
    `odd`, when given, is odd_chordless_cycles(G).  An F4 needs five
    vertices, so smaller graphs have none.

    Ordered by vertices, then by edges; ties keep the order they are found
    in, by cycle as `odd` lists them, then by pendant in edge order.  Each
    configuration is sorted as a plain row and built once, in that order."""
    if G.n < 5:
        return []
    if odd is None:
        odd = odd_chordless_cycles(G)
    heavy_edges = G.nontrivial_edges()
    if not (odd and heavy_edges):
        return []
    nbr = G.nbr
    ends = [(1 << u) | (1 << v) for u, v, _ in heavy_edges]
    rows = []
    for cycle in odd:
        # the cycle's closed neighbourhood: the pendant must avoid it
        closed = 0
        for x in cycle:
            closed |= nbr[x] | (1 << x)
        cycle_edges = None
        for pendant, bits in zip(heavy_edges, ends):
            if closed & bits:
                continue
            if cycle_edges is None:
                cycle_edges = _cycle_edges(G, cycle)
                cycle_vertices = sorted(cycle)
            u, v, _ = pendant
            rows.append((
                tuple(sorted(cycle_vertices + [u, v])),
                tuple(sorted(cycle_edges + [pendant])),
                len(rows),  # ties keep the order they were found in
                cycle,
                pendant,
            ))
    rows.sort()
    return [
        ForbiddenConfig("F4", vertices, edges, (cycle,), pendant)
        for vertices, edges, _, cycle, pendant in rows
    ]


def find_f5(G, odd=None):
    """All pairs of vertex-disjoint chordless odd cycles whose connecting
    edges are all nontrivial (the connector set may be empty).
    `odd`, when given, is odd_chordless_cycles(G).

    Ordered by vertices, then by edges; ties keep the order in which
    disjoint_odd_pairs yields the pairs.  Each configuration is sorted as a
    plain row and built once, in that order."""
    if odd is None:
        odd = odd_chordless_cycles(G)
    light = (e for e, w in G.edges.items() if w == 1)
    sorted_cycle = {}  # cycle -> (its vertices, its edges), each sorted
    rows = []
    for c1, c2, cross in disjoint_odd_pairs(G, odd, barred=light):
        for c in (c1, c2):
            if c not in sorted_cycle:
                sorted_cycle[c] = (sorted(c), _cycle_edges(G, c))
        vertices1, edges1 = sorted_cycle[c1]
        vertices2, edges2 = sorted_cycle[c2]
        cross.sort()
        rows.append((
            tuple(sorted(vertices1 + vertices2)),
            tuple(sorted(edges1 + edges2 + cross)),
            len(rows),  # ties keep the order they were found in
            c1,
            c2,
            tuple(cross),
        ))
    rows.sort()
    return [
        ForbiddenConfig("F5", vertices, edges, (c1, c2), None, connectors)
        for vertices, edges, _, c1, c2, connectors in rows
    ]


def _embed(G, assignments):
    vec = [0] * G.n
    for v, value in assignments.items():
        vec[v - 1] = value
    return tuple(vec)


def _f1_f2_roles(G, config):
    """Pick (x1, x2, x3) with w(x1,x2) <= w(x2,x3) [<= w(x1,x3) for F2],
    lexicographically smallest among the valid role assignments.  An F2's
    vertices are sorted, so their permutations come in lexicographic
    order and the first valid one is the smallest."""
    if config.kind == "F1":
        e1, e2 = config.edges
        (center,) = set(e1[:2]) & set(e2[:2])
        # the lighter end is x1; on equal weights, the smaller label
        (a, x1), (b, x3) = sorted((w, v if u == center else u) for u, v, w in (e1, e2))
        return x1, center, x3, a, b
    for x1, x2, x3 in permutations(config.vertices):
        a = G.weight(x1, x2)
        b = G.weight(x2, x3)
        if a <= b <= G.weight(x1, x3):
            return x1, x2, x3, a, b


def build_certificate(G, config):
    """The explicit witness monomial and power for a configuration.

    F1/F2 give x1^(a-1) x2^b x3^(b-1) at t=1 (a <= b), F3 gives
    x1^(a-1) x2^(a-1) x3^(b-1) x4^(b-1) at t=1, F4 gives the product of
    the cycle variables times (pendant pair)^(a-1) at t=(|C|+1)/2, and F5
    gives the product of all cycle variables at t=(|C1|+|C2|)/2.

    F4/F5 require every cycle edge to be trivial; otherwise a
    CertificateError directs the caller to an F1/F2/F3 configuration,
    which then exists.  classify never meets that case: it builds from the
    head of the F1..F5 list, and an F4 or F5 there has no heavy cycle edge.
    """
    kind = config.kind
    if kind in ("F1", "F2"):
        x1, x2, x3, a, b = _f1_f2_roles(G, config)
        values, t = {x1: a - 1, x2: b, x3: b - 1}, 1
    elif kind == "F3":
        (u1, v1, a), (u2, v2, b) = config.edges
        values, t = {u1: a - 1, v1: a - 1, u2: b - 1, v2: b - 1}, 1
    elif kind in ("F4", "F5"):
        for cycle in config.cycles:
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                if G.weight(x, y) != 1:
                    raise CertificateError(
                        f"{kind} cycle edge ({x}, {y}) is "
                        "nontrivial; fall back to an F1/F2/F3 configuration"
                    )
        values = {c: 1 for cycle in config.cycles for c in cycle}
        if config.pendant:
            u, v, a = config.pendant
            values[u] = values[v] = a - 1
        t = (sum(map(len, config.cycles)) + 1) // 2
    else:
        raise CertificateError(f"unknown configuration kind {kind!r}")
    return Certificate(config=config, t=t, witness=_embed(G, values))


def verify_certificate(G, cert):
    """Check the witness against the oracle; returns an updated Certificate.

    "verified" means witness in closure(I^t) and witness not in I^t, both
    exact.  Resource errors leave the certificate "unverified" with a
    diagnostic note.
    """
    if len(cert.witness) != G.n:
        raise IdealError(
            f"witness length {len(cert.witness)} does not match vertex count {G.n}"
        )
    I = edge_ideal(G)
    try:
        in_pw = contains_power(I, cert.witness, cert.t)
        in_cl = in_closure_power(I, cert.witness, cert.t)
    except ResourceLimitError as exc:
        return replace(cert, verified="unverified", note=str(exc))
    if in_cl and not in_pw:
        return replace(cert, verified="verified", note="")
    return replace(
        cert,
        verified="failed",
        note=f"in_closure_power={in_cl}, contains_power={in_pw}",
    )


def classify(G, config_cap=DEFAULT_CONFIG_CAP):
    """Full structural verdicts plus the primary certificate.

    integrally_closed iff no F1/F2/F3 is found; normal iff nothing at all
    is found.  The primary certificate comes from the first configuration
    in priority order F1 > F2 > F3 > F4 > F5 (canonical order within a
    kind), before any cap.  Its witness formula always applies.  An F4
    there has no heavy cycle edge: that edge and the pendant would form an
    earlier F3.  Nor has an F5: the edge would give an F4, an F1 or an F2.
    config_cap, an exact int >= 0, caps the configurations kept per kind;
    notes holds one line per truncated kind.
    """
    if type(config_cap) is not int or config_cap < 0:
        raise GraphError(f"config_cap must be an integer >= 0, got {_quote(config_cap)}")
    if not G.edges:
        raise GraphError("classification needs at least one edge")
    # listed on every graph, even below the 5 vertices an F4 needs: the
    # benchmark's traced xval run expects this layer (ROADMAP item 1)
    odd = odd_chordless_cycles(G)
    f123 = find_f1_f2_f3(G)
    found = f123 + find_f4(G, odd) + find_f5(G, odd)  # grouped by kind, F1..F5
    notes = []
    capped = []
    for kind, group in groupby(found, key=attrgetter("kind")):
        of_kind = list(group)
        if len(of_kind) > config_cap:
            notes.append(f"{kind} list truncated to {config_cap} of {len(of_kind)}")
        capped += of_kind[:config_cap]
    return ClassificationReport(
        integrally_closed=not f123,
        normal=not found,
        found=tuple(capped),
        primary_certificate=build_certificate(G, found[0]) if found else None,
        notes=tuple(notes),
    )


def _verdicts(G):
    """(integrally_closed, normal) as classify reports them, with no
    certificate and no configuration list.  Each kind is decided by an
    existence test that stops at the first hit, written apart from the
    finders so that cross_validate holds the two against each other.
    F4 and F5 are tested only when no F1-F3 occurs.  An F4 on the heavy
    edge e exists iff the graph induced off e's closed neighbourhood is
    not bipartite: an odd cycle there holds a chordless one on a subset
    of its vertices.  An F5 is the first pair disjoint_odd_pairs yields
    with the light edges barred.  The F1-F4 tests are independent of the
    finders; the F5 test shares chordless_cycles and disjoint_odd_pairs
    with find_f5."""
    nbr = G.nbr
    heavy_edges = G.nontrivial_edges()
    heavy = [0] * (G.n + 1)  # heavy[v]: v's heavy neighbours, as a bitmask
    for u, w, _ in heavy_edges:
        heavy[u] |= 1 << w
        heavy[w] |= 1 << u
    ends = [(1 << u) | (1 << w) for u, w, _ in heavy_edges]
    for i, (u, w, _) in enumerate(heavy_edges):
        # an F1 or F2 through the heavy edge u-w: a third vertex x, heavy to
        # one end and, to the other end, either not adjacent (F1) or heavy
        # (F2); that is, not a light neighbour of the other end
        light_u, light_w = nbr[u] & ~heavy[u], nbr[w] & ~heavy[w]
        if (heavy[u] & ~light_w | heavy[w] & ~light_u) & ~ends[i]:
            return False, False
        # an F3 partner has neither end in the edge's closed neighbourhood,
        # nbr[u] | nbr[w], which holds u and w
        near = nbr[u] | nbr[w]
        for bits in ends[i + 1 :]:
            if not near & bits:
                return False, False
    if G.n < 5:  # no F4 or F5 fits
        return True, True
    everything = (1 << (G.n + 1)) - 2
    for u, w, _ in heavy_edges:
        # off the edge's closed neighbourhood, which holds u and w, as
        # each is the other's neighbour
        far = _bits(everything & ~(nbr[u] | nbr[w]))
        if len(far) >= 3 and not is_bipartite(induced_subgraph(G, far)[0])[0]:
            return True, False
    if G.n < 6:  # two disjoint odd cycles need six vertices
        return True, True
    light = (e for e, w in G.edges.items() if w == 1)
    pairs = disjoint_odd_pairs(G, odd_chordless_cycles(G), barred=light)
    return True, next(pairs, None) is None


# ---------------------------------------------------------------------------
# Cross-validation harness: classifier vs oracle over a bounded graph family.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphFamily:
    """All labeled graphs on up to max_vertices vertices (at least one
    edge), each present edge weighted from the given set."""

    max_vertices: int
    weights: tuple

    def __post_init__(self):
        if type(self.max_vertices) is not int or self.max_vertices < 2:
            raise ValueError("need an integer max_vertices >= 2")
        ws = tuple(self.weights)
        if not ws or any(type(w) is not int or w < 1 for w in ws):
            raise ValueError("weights must be a nonempty set of positive integers")
        object.__setattr__(self, "weights", tuple(sorted(set(ws))))


@dataclass(frozen=True)
class CrossValidationReport:
    family: GraphFamily
    t_max: int
    graphs_checked: int
    classes_checked: int
    disagreements: tuple
    skipped: tuple
    normal_classes: int
    closed_not_normal_classes: int
    not_closed_classes: int
    note: str

    @property
    def agreed(self):
        return not self.disagreements


DEFAULT_FAMILY_BUDGET = 2 * 10**6

_SCAN_BOUND_NOTE = (
    "oracle scans are bounded at t_max; 'normal' verdicts for larger powers "
    "rest on the forbidden-configuration characterization"
)


def _pair_index_maps(n, pairs):
    """Per vertex permutation, the gather that relabels a weight tuple over
    `pairs`: image = tuple([tup[j] for j in gather]).  The images under
    all permutations are the tuple's orbit."""
    index = {p: i for i, p in enumerate(pairs)}
    return [
        tuple(index[tuple(sorted((perm[u - 1], perm[v - 1])))] for u, v in pairs)
        for perm in permutations(range(1, n + 1))
    ]


def graph_as_dict(G):
    """Plain-dict form of a graph, used in report payloads."""
    return {"vertices": G.n, "edges": [list(e) for e in G.edge_list()]}


def _record(G, issue, **detail):
    return {"graph": graph_as_dict(G), "issue": issue, **detail}


def cross_validate(
    family,
    t_max=3,
    box_budget=DEFAULT_BOX_BUDGET,
    family_budget=DEFAULT_FAMILY_BUDGET,
):
    """Check the classifier against the LP oracle over a whole family.

    One pass over the labelled graphs, in product order of their edge
    weights, decides each graph once.  The first graph of an isomorphism
    class in that order is the class's representative, and only it gets
    the full classify and meets the oracle.  Its certificate, if any, is
    checked once, first, by verify_certificate.  A "not closed" verdict
    whose certificate the oracle verifies at t = 1 is settled there: the
    witness lies in the closure of I and not in I, which is the oracle's
    exact proof, so no box is scanned.  Every other representative gets
    one normality_scan, up to t_max for a "normal" verdict and to 1
    otherwise, whose t = 1 step decides closedness, so no power is scanned
    twice.  Then the integral-closedness verdict must equal the scan's, a
    "not normal" verdict must have a verified certificate, and a "normal"
    verdict must survive the scan.  Every later graph of the class is
    decided by _verdicts alone, and must get the verdicts classify gave
    the representative.  That relabelling check holds two independent
    implementations against each other for F1-F4; for F5 both sides share
    chordless_cycles and disjoint_odd_pairs, which the oracle checks on
    the representatives alone.  Any disagreement is reported with the
    graph serialized; oracle resource errors skip the class with a logged
    reason, never a silent pass.  The three class counts tally every
    representative by the classifier's verdicts, skipped or disagreeing
    classes included, and classes_checked is their sum.  graphs_checked is
    the family size that family_budget is checked against.
    """
    _check_positive(family_budget, "family_budget")
    total = 0
    for n in range(2, family.max_vertices + 1):
        total += (len(family.weights) + 1) ** (n * (n - 1) // 2) - 1
        if total > family_budget:
            raise ResourceLimitError(
                f"family has at least {total} labeled graphs, "
                f"over the budget {family_budget}"
            )

    disagreements = []
    skipped = []
    tally = Counter()  # classes by verdicts; classify's "normal" implies closed
    states = (0,) + family.weights

    for n in range(2, family.max_vertices + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        gathers = _pair_index_maps(n, pairs)
        class_verdicts = {}  # labelled tuple -> its class's verdicts
        for tup in product(states, repeat=len(pairs)):
            if not any(tup):
                continue
            G = WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, tup) if w])
            canonical = class_verdicts.get(tup)
            if canonical is not None:
                verdicts = _verdicts(G)
                if verdicts != canonical:
                    disagreements.append(_record(
                        G, "verdicts differ from canonical relabeling",
                        labeled=verdicts, canonical=canonical,
                    ))
                continue
            # the first graph of its class: the representative, tallied by
            # the classifier's verdicts whatever the oracle then reports
            report = classify(G)
            verdicts = (report.integrally_closed, report.normal)
            tally[verdicts] += 1
            for gather in gathers:
                class_verdicts[tuple([tup[j] for j in gather])] = verdicts
            cert = report.primary_certificate
            if cert is not None:
                cert = verify_certificate(G, cert)
                if not report.integrally_closed and cert.t == 1 and cert.verified == "verified":
                    # a witness verified at t = 1 is the oracle's exact proof
                    # that I is not closed: a scan would only find another
                    continue
            scan_to = t_max if report.normal else 1  # power 1 decides closedness
            try:
                verdict = normality_scan(edge_ideal(G), t_max=scan_to, box_budget=box_budget)
            except ResourceLimitError as exc:
                skipped.append({"graph": graph_as_dict(G), "reason": str(exc)})
                continue
            oracle_closed = verdict.status != "counterexample" or verdict.t > 1
            if oracle_closed != report.integrally_closed:
                disagreements.append(_record(
                    G, "integral-closedness verdicts differ",
                    classifier=report.integrally_closed, oracle=oracle_closed,
                ))
                continue
            if not report.normal:
                if cert.verified == "unverified":
                    skipped.append({"graph": graph_as_dict(G), "reason": cert.note})
                elif cert.verified != "verified":
                    disagreements.append(_record(
                        G, "certificate failed verification",
                        certificate={
                            "kind": cert.config.kind, "t": cert.t, "witness": list(cert.witness)
                        },
                        detail=cert.note,
                    ))
            elif verdict.status != "normal_up_to":
                disagreements.append(_record(
                    G, "classifier says normal but oracle found a counterexample",
                    t=verdict.t, witness=list(verdict.witness),
                ))

    return CrossValidationReport(
        family=family,
        t_max=t_max,
        graphs_checked=total,
        classes_checked=sum(tally.values()),
        disagreements=tuple(disagreements),
        skipped=tuple(skipped),
        normal_classes=tally[True, True],
        closed_not_normal_classes=tally[True, False],
        not_closed_classes=tally[False, False],
        note=_SCAN_BOUND_NOTE,
    )

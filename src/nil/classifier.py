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
    is_power_integrally_closed,
    normality_scan,
)
from .errors import GraphError, IdealError, ResourceLimitError
from .ideal import _check_positive, contains_power, edge_ideal
from .wgraph import (
    WeightedGraph,
    disjoint_odd_pairs,
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
        # an F3 partner has neither end in e's closed neighbourhood
        near = nbr[e[0]] | nbr[e[1]] | ends[i]
        for f, bits in zip(heavy_edges[i + 1 :], ends[i + 1 :]):
            if not near & bits:
                configs.append(
                    ForbiddenConfig("F3", vertices=tuple(sorted(e[:2] + f[:2])), edges=(e, f))
                )
    configs.sort(key=lambda c: (c.kind, c.vertices, c.edges))
    return configs


def _cycle_edges(G, cycle):
    return tuple(sorted(_edge_triple(G, cycle[i - 1], x) for i, x in enumerate(cycle)))


def find_f4(G, odd=None):
    """All (chordless odd cycle, disjoint nontrivial edge) pairs with no
    edge between the cycle and the edge.  Cycle weights are unconstrained.
    `odd`, when given, is odd_chordless_cycles(G).  An F4 needs five
    vertices, so smaller graphs have none."""
    if G.n < 5:
        return []
    if odd is None:
        odd = odd_chordless_cycles(G)
    heavy_edges = G.nontrivial_edges()
    if not (odd and heavy_edges):
        return []
    nbr = G.nbr
    ends = [(1 << u) | (1 << v) for u, v, _ in heavy_edges]
    configs = []
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
            u, v, _ = pendant
            configs.append(
                ForbiddenConfig(
                    "F4",
                    vertices=tuple(sorted(cycle + (u, v))),
                    edges=tuple(sorted(cycle_edges + (pendant,))),
                    cycles=(cycle,),
                    pendant=pendant,
                )
            )
    configs.sort(key=lambda c: (c.vertices, c.edges))
    return configs


def find_f5(G, odd=None):
    """All pairs of vertex-disjoint chordless odd cycles whose connecting
    edges are all nontrivial (the connector set may be empty).
    `odd`, when given, is odd_chordless_cycles(G)."""
    if odd is None:
        odd = odd_chordless_cycles(G)
    if len(odd) < 2 or G.n < 6:
        # no two disjoint odd cycles fit: skip building the barred edges
        return []
    light = (e for e, w in G.edges.items() if w == 1)
    cycle_edges = {}
    configs = []
    for c1, c2, cross in disjoint_odd_pairs(G, odd, barred=light):
        for c in (c1, c2):
            if c not in cycle_edges:
                cycle_edges[c] = _cycle_edges(G, c)
        configs.append(
            ForbiddenConfig(
                "F5",
                vertices=tuple(sorted(c1 + c2)),
                edges=tuple(sorted(cycle_edges[c1] + cycle_edges[c2] + tuple(cross))),
                cycles=(c1, c2),
                connectors=tuple(sorted(cross)),
            )
        )
    configs.sort(key=lambda c: (c.vertices, c.edges))
    return configs


def _embed(G, assignments):
    vec = [0] * G.n
    for v, value in assignments.items():
        vec[v - 1] = value
    return tuple(vec)


def _f1_f2_roles(G, config):
    """Pick (x1, x2, x3) with w(x1,x2) <= w(x2,x3) [<= w(x1,x3) for F2],
    lexicographically smallest among the valid role assignments."""
    if config.kind == "F1":
        e1, e2 = config.edges
        (center,) = set(e1[:2]) & set(e2[:2])
        # the lighter end is x1; on equal weights, the smaller label
        (a, x1), (b, x3) = sorted((w, v if u == center else u) for u, v, w in (e1, e2))
        return x1, center, x3, a, b
    candidates = []
    for x1, x2, x3 in permutations(config.vertices):
        a = G.weight(x1, x2)
        b = G.weight(x2, x3)
        if a <= b <= G.weight(x1, x3):
            candidates.append((x1, x2, x3, a, b))
    return min(candidates)


def build_certificate(G, config):
    """The explicit witness monomial and power for a configuration.

    F1/F2 give x1^(a-1) x2^b x3^(b-1) at t=1 (a <= b), F3 gives
    x1^(a-1) x2^(a-1) x3^(b-1) x4^(b-1) at t=1, F4 gives the product of
    the cycle variables times (pendant pair)^(a-1) at t=(|C|+1)/2, and F5
    gives the product of all cycle variables at t=(|C1|+|C2|)/2.

    F4/F5 require every cycle edge to be trivial; otherwise a
    CertificateError directs the caller to the F1/F2/F3 configuration
    that is then guaranteed to exist.
    """
    kind = config.kind
    if kind in ("F1", "F2"):
        x1, x2, x3, a, b = _f1_f2_roles(G, config)
        return Certificate(
            config=config,
            t=1,
            witness=_embed(G, {x1: a - 1, x2: b, x3: b - 1}),
        )
    if kind == "F3":
        (u1, v1, a), (u2, v2, b) = config.edges
        return Certificate(
            config=config,
            t=1,
            witness=_embed(G, {u1: a - 1, v1: a - 1, u2: b - 1, v2: b - 1}),
        )
    if kind in ("F4", "F5"):
        for cycle in config.cycles:
            m = len(cycle)
            for i in range(m):
                if G.weight(cycle[i], cycle[(i + 1) % m]) != 1:
                    raise CertificateError(
                        f"{kind} cycle edge ({cycle[i]}, {cycle[(i + 1) % m]}) is "
                        "nontrivial; fall back to an F1/F2/F3 configuration"
                    )
        if kind == "F4":
            (cycle,) = config.cycles
            u, v, a = config.pendant
            t = (len(cycle) + 1) // 2
            values = {c: 1 for c in cycle}
            values[u] = a - 1
            values[v] = a - 1
            return Certificate(config=config, t=t, witness=_embed(G, values))
        c1, c2 = config.cycles
        t = (len(c1) + len(c2)) // 2
        return Certificate(
            config=config,
            t=t,
            witness=_embed(G, {c: 1 for c in c1 + c2}),
        )
    raise CertificateError(f"unknown configuration kind {kind!r}")


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
    kind) whose witness formula applies; the fallback to F1/F2/F3 when an
    F4/F5 carries a nontrivial cycle edge is asserted to succeed.
    config_cap, an exact int >= 0, caps the configurations kept per kind.
    """
    if type(config_cap) is not int or config_cap < 0:
        raise GraphError(f"config_cap must be an integer >= 0, got {config_cap!r}")
    if not G.edges:
        raise GraphError("classification needs at least one edge")
    # listed on every graph, even below the 5 vertices an F4 needs: the
    # benchmark's traced xval run expects this layer (ROADMAP item 7)
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

    primary = None
    for config in found:  # already in priority order
        try:
            primary = build_certificate(G, config)
            break
        except CertificateError as exc:
            notes.append(str(exc))
    if found and primary is None:
        raise RuntimeError(
            "no certificate constructible from any found configuration; "
            "the F1/F2/F3 fallback guarantee is violated"
        )
    return ClassificationReport(
        integrally_closed=not f123,
        normal=not found,
        found=tuple(capped),
        primary_certificate=primary,
        notes=tuple(notes),
    )


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
    weights, classifies each graph once.  The first graph of an
    isomorphism class in that order is the class's representative, and
    only it meets the oracle: its integral-closedness verdict must equal
    the oracle's answer at power 1; a "not normal" verdict must come with
    a certificate the oracle verifies; a "normal" verdict must survive
    normality_scan up to t_max, whose t = 1 step is also the power-1
    check, so no power is scanned twice.  Every later graph of the class
    must get the representative's verdicts.  Any disagreement is reported
    with the graph serialized; oracle resource errors skip the class with
    a logged reason, never a silent pass.
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
    graphs_checked = classes_checked = 0
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
            report = classify(G)
            graphs_checked += 1
            verdicts = (report.integrally_closed, report.normal)
            canonical = class_verdicts.get(tup)
            if canonical is not None:
                if verdicts != canonical:
                    disagreements.append(_record(
                        G, "verdicts differ from canonical relabeling",
                        labeled=verdicts, canonical=canonical,
                    ))
                continue
            # the first graph of its class: the representative
            classes_checked += 1
            for gather in gathers:
                class_verdicts[tuple([tup[j] for j in gather])] = verdicts
            try:
                I = edge_ideal(G)
                if report.normal:
                    verdict = normality_scan(I, t_max=t_max, box_budget=box_budget)
                    oracle_closed = verdict.status != "counterexample" or verdict.t > 1
                else:
                    oracle_closed, _ = is_power_integrally_closed(I, 1, box_budget=box_budget)
            except ResourceLimitError as exc:
                skipped.append({"graph": graph_as_dict(G), "reason": str(exc)})
                continue
            if oracle_closed != report.integrally_closed:
                disagreements.append(_record(
                    G, "integral-closedness verdicts differ",
                    classifier=report.integrally_closed, oracle=oracle_closed,
                ))
                continue
            if not report.normal:
                cert = verify_certificate(G, report.primary_certificate)
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
            tally[verdicts] += 1

    return CrossValidationReport(
        family=family,
        t_max=t_max,
        graphs_checked=graphs_checked,
        classes_checked=classes_checked,
        disagreements=tuple(disagreements),
        skipped=tuple(skipped),
        normal_classes=tally[True, True],
        closed_not_normal_classes=tally[True, False],
        not_closed_classes=tally[False, False],
        note=_SCAN_BOUND_NOTE,
    )

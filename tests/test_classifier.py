import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from nil.classifier import (
    CertificateError,
    GraphFamily,
    _verdicts,
    build_certificate,
    classify,
    cross_validate,
    find_f1_f2_f3,
    find_f4,
    find_f5,
    verify_certificate,
)
from nil.errors import GraphError, IdealError
from nil.ideal import contains_power, edge_ideal
from nil.wgraph import build_graph, odd_chordless_cycles, odd_cycle_condition

from _oracles import (
    brute_forbidden,
    disjoint_union,
    finder_keys,
    odd_cycle_rich_graph,
    random_graph,
    random_graph_with_edge,
    random_sparse_graph,
    reference_chordless_cycles,
    reference_find_f4,
    reference_find_f5,
    remove_edge,
)


def triangle(weights=(1, 1, 1)):
    return build_graph(3, [(1, 2, weights[0]), (2, 3, weights[1]), (1, 3, weights[2])])


def two_triangles(extra=(), n=6):
    edges = [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1)]
    return build_graph(n, edges + list(extra))


F4_GRAPH = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 2)])


class TestFinders:
    def test_heavy_path_is_f1(self):
        configs = find_f1_f2_f3(build_graph(3, [(1, 2, 2), (2, 3, 3)]))
        assert [c.kind for c in configs] == ["F1"]
        assert configs[0].vertices == (1, 2, 3)

    def test_heavy_triangle_is_one_f2_and_no_f1(self):
        configs = find_f1_f2_f3(triangle((2, 2, 2)))
        assert [c.kind for c in configs] == ["F2"]
        # every triangle of a heavy K5 counts once
        k5 = build_graph(5, [(u, v, 2) for u, v in combinations(range(1, 6), 2)])
        configs = find_f1_f2_f3(k5)
        assert [c.kind for c in configs] == ["F2"] * 10
        assert [c.vertices for c in configs] == list(combinations(range(1, 6), 3))

    def test_two_disjoint_heavy_edges_are_f3(self):
        configs = find_f1_f2_f3(build_graph(4, [(1, 2, 2), (3, 4, 2)]))
        assert [c.kind for c in configs] == ["F3"]
        assert configs[0].edges == ((1, 2, 2), (3, 4, 2))

    def test_cross_edge_kills_f3(self):
        G = build_graph(4, [(1, 2, 2), (3, 4, 2), (2, 3, 1)])
        kinds = [c.kind for c in find_f1_f2_f3(G)]
        assert "F3" not in kinds

    def test_f4_triangle_plus_heavy_edge(self):
        configs = find_f4(F4_GRAPH)
        assert len(configs) == 1
        assert configs[0].cycles == ((1, 2, 3),)
        assert configs[0].pendant == (4, 5, 2)

    def test_f4_needs_heavy_pendant(self):
        G = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1)])
        assert find_f4(G) == []

    def test_f4_needs_induced_disjointness(self):
        G = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 2), (3, 4, 1)])
        assert find_f4(G) == []

    def test_f5_disjoint_triangles(self):
        configs = find_f5(two_triangles())
        assert len(configs) == 1
        assert configs[0].cycles == ((1, 2, 3), (4, 5, 6))
        assert configs[0].connectors == ()

    def test_f5_with_heavy_connector(self):
        configs = find_f5(two_triangles([(1, 4, 3)]))
        assert len(configs) == 1
        assert configs[0].connectors == ((1, 4, 3),)

    def test_f5_killed_by_trivial_connector(self):
        assert find_f5(two_triangles([(1, 4, 1)])) == []

    def test_completeness_exhaustive_small(self):
        from test_wgraph import all_graphs

        for n in (3, 4):
            for G in all_graphs(n, weights=(1, 2)):
                expected = brute_forbidden(G)
                got = finder_keys(find_f1_f2_f3(G) + find_f4(G) + find_f5(G))
                assert got == expected

    def test_completeness_random_up_to_seven(self):
        rng = random.Random(101)
        for _ in range(120):
            G = random_graph(rng, n_max=7, weights=(1, 2, 3))
            expected = brute_forbidden(G)
            got = finder_keys(find_f1_f2_f3(G) + find_f4(G) + find_f5(G))
            assert got == expected

    def test_sparse_graphs_match_the_set_based_finders(self):
        # graphs like the classify benchmark's: 12-28 vertices, p = 0.15,
        # a quarter of the edges heavy; the lists must agree in order
        rng = random.Random(103)
        f4 = f5 = 0
        for _ in range(150):
            G = random_sparse_graph(rng)
            odd = [c for c in reference_chordless_cycles(G) if len(c) % 2 == 1]
            configs = find_f4(G)
            assert configs == reference_find_f4(G, odd)
            f4 += len(configs)
            configs = find_f5(G)
            assert configs == reference_find_f5(G, odd)
            f5 += len(configs)
        assert f4 > 1000 and f5 > 500

    def test_f4_on_dense_graphs(self):
        # dense graphs, where one cycle is admissible for several heavy
        # edges: the finder must list what the set-based finder lists, in
        # its order, whatever order the edges were given in
        rng = random.Random(109)
        f4 = shared = 0
        for _ in range(400):
            n = rng.randint(6, 9)
            G = random_graph(rng, n_min=n, n_max=n, weights=(1, 2, 3), p=0.5)
            G = build_graph(n, rng.sample(G.edge_list(), len(G.edges)))  # any edge order
            assert G.nontrivial_edges() == tuple(e for e in G.edge_list() if e[2] > 1)
            odd = [c for c in reference_chordless_cycles(G) if len(c) % 2 == 1]
            configs = find_f4(G)
            assert configs == reference_find_f4(G, odd)
            f4 += len(configs)
            pendants = Counter(c.cycles for c in configs)
            shared += sum(count > 1 for count in pendants.values())
        assert f4 > 100 and shared >= 10


class TestClassify:
    def test_trivial_bipartite_graph(self):
        G = build_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
        report = classify(G)
        assert report.integrally_closed and report.normal
        assert report.found == ()
        assert report.primary_certificate is None

    def test_heavy_path(self):
        report = classify(build_graph(3, [(1, 2, 2), (2, 3, 3)]))
        assert not report.integrally_closed
        assert not report.normal
        assert report.primary_certificate.t == 1
        assert report.primary_certificate.config.kind == "F1"

    def test_triangle_with_one_heavy_edge_is_normal(self):
        report = classify(triangle((5, 1, 1)))
        assert report.integrally_closed and report.normal

    def test_f4_graph_closed_but_not_normal(self):
        report = classify(F4_GRAPH)
        assert report.integrally_closed
        assert not report.normal
        assert report.primary_certificate.config.kind == "F4"
        assert report.primary_certificate.t == 2

    def test_edgeless_rejected(self):
        from nil.wgraph import WeightedGraph

        with pytest.raises(GraphError):
            classify(WeightedGraph(2))

    def test_small_graphs_still_list_cycles_and_call_find_f4(self, monkeypatch):
        # Below 5 vertices no F4 or F5 fits, and find_f4 returns [] at
        # once, yet classify still lists the chordless cycles and calls
        # find_f4: the benchmark's traced xval run (graphs of at most 4
        # vertices) expects the wgraph.chordless_cycles layer.  Skipping
        # the cycle search there waits on ROADMAP item 1.
        import nil.classifier
        import nil.wgraph

        calls = []
        cycles, f4 = nil.wgraph.chordless_cycles, nil.classifier.find_f4

        def cycles_spy(G, *args):
            calls.append(("chordless_cycles", G.n))
            return cycles(G, *args)

        def f4_spy(G, *args):
            calls.append(("find_f4", G.n))
            return f4(G, *args)

        monkeypatch.setattr(nil.wgraph, "chordless_cycles", cycles_spy)
        monkeypatch.setattr(nil.classifier, "find_f4", f4_spy)
        for G in (
            build_graph(2, [(1, 2, 2)]),
            triangle((2, 1, 1)),
            build_graph(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 2)]),
            build_graph(4, [(u, v, 3) for u, v in combinations(range(1, 5), 2)]),
        ):
            calls.clear()
            classify(G)
            assert calls == [("chordless_cycles", G.n), ("find_f4", G.n)]

    def test_caps_only_a_kind_over_the_cap(self):
        # Every cap must give what capping each kind on its own gives.  A
        # heavy 3-edge path beside a triangle holds 2 F1 and 3 F4; a
        # triangle beside a heavy edge holds one F4 alone.
        path = build_graph(7, [(1, 2, 2), (2, 3, 2), (3, 4, 2), (5, 6, 1), (6, 7, 1), (5, 7, 1)])
        for G, kinds in ((path, {"F1": 2, "F4": 3}), (F4_GRAPH, {"F4": 1})):
            everything = classify(G, config_cap=10**6).found
            assert Counter(c.kind for c in everything) == kinds
            for cap in range(len(everything) + 2):
                report = classify(G, config_cap=cap)
                expected, notes = [], []
                for kind in sorted(kinds):
                    of_kind = [c for c in everything if c.kind == kind]
                    expected += of_kind[:cap]
                    if len(of_kind) > cap:
                        notes.append(f"{kind} list truncated to {cap} of {len(of_kind)}")
                assert report.found == tuple(expected)
                assert report.notes == tuple(notes)

    def test_normal_implies_integrally_closed(self):
        rng = random.Random(103)
        for _ in range(200):
            G = random_graph_with_edge(rng, n_max=6)
            report = classify(G)
            assert not report.normal or report.integrally_closed

    def test_found_matches_public_finders(self):
        # classify shares one odd-cycle list between F4 and F5; the finders
        # called alone enumerate their own
        rng = random.Random(107)
        for _ in range(150):
            G = random_graph_with_edge(rng, n_max=8, weights=(1, 2, 3))
            report = classify(G, config_cap=10**6)
            assert report.found == tuple(find_f1_f2_f3(G) + find_f4(G) + find_f5(G))

    def test_found_matches_the_finders_on_every_small_graph(self):
        # every labelled graph of GraphFamily(4, (1, 2)), the finders
        # given the listed odd cycles
        graphs = 0
        for n in range(2, 5):
            pairs = list(combinations(range(1, n + 1), 2))
            for weights in product((0, 1, 2), repeat=len(pairs)):
                if not any(weights):
                    continue
                G = build_graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w])
                odd = odd_chordless_cycles(G)
                found = find_f1_f2_f3(G) + find_f4(G, odd) + find_f5(G, odd)
                assert classify(G, config_cap=10**6).found == tuple(found)
                graphs += 1
        assert graphs == 3**1 - 1 + 3**3 - 1 + 3**6 - 1

    def test_certificate_comes_from_the_head_of_the_list(self):
        # classify builds its certificate from found[0] of the uncapped
        # F1..F5 list, with no fallback.  An F4 at the head has no heavy
        # cycle edge, which would form an F3 with the pendant; nor has an
        # F5, whose heavy cycle edge would give an F4, an F1 or an F2.
        # Checked on every graph of GraphFamily(4, (1, 2, 3)) and on
        # seeded odd-cycle-rich graphs, at a cap of 1 so that the notes
        # hold truncation lines.
        def check(G):
            odd = odd_chordless_cycles(G)
            found = find_f1_f2_f3(G) + find_f4(G, odd) + find_f5(G, odd)
            report = classify(G, config_cap=1)
            assert report.primary_certificate == (build_certificate(G, found[0]) if found else None)
            kinds = Counter(c.kind for c in found)
            assert report.notes == tuple(
                f"{kind} list truncated to 1 of {count}"
                for kind, count in sorted(kinds.items())
                if count > 1
            )
            return found

        graphs = 0
        for n in range(2, 5):
            pairs = list(combinations(range(1, n + 1), 2))
            for weights in product((0, 1, 2, 3), repeat=len(pairs)):
                if any(weights):
                    check(build_graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w]))
                    graphs += 1
        assert graphs == 4161

        heads = Counter()
        shadowed = 0  # graphs where a later F4 or F5 has a heavy cycle edge
        rng = random.Random(211)
        for _ in range(300):
            G = odd_cycle_rich_graph(rng)
            found = check(G)
            if found:
                heads[found[0].kind] += 1
                shadowed += any(
                    G.weight(c[i - 1], c[i]) > 1
                    for config in found[1:]
                    for c in config.cycles
                    for i in range(len(c))
                )
        assert heads["F4"] >= 50 and heads["F5"] >= 25 and shadowed >= 50

    def test_verdicts_match_classify(self):
        # _verdicts decides by existence tests of its own; its answer must
        # be classify's on every graph of GraphFamily(4, (1, 2, 3)), on
        # seeded random and odd-cycle-rich graphs, and on each 5-vertex
        # triangle beside a disjoint edge: random graphs almost never hold
        # that shape, the only F4 that fits on 5 vertices.
        def graphs():
            for n in range(2, 5):
                pairs = list(combinations(range(1, n + 1), 2))
                for weights in product((0, 1, 2, 3), repeat=len(pairs)):
                    if any(weights):
                        yield build_graph(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w])
            rng = random.Random(307)
            for _ in range(1000):
                yield random_graph_with_edge(rng, n_min=5, n_max=9, weights=(1, 2, 3))
            for _ in range(300):
                yield odd_cycle_rich_graph(rng)
            for a, b, c in combinations(range(1, 6), 3):
                d, e = sorted(set(range(1, 6)) - {a, b, c})
                for w in product((1, 2), (1, 2), (1, 2), (1, 2, 3)):
                    edges = zip(((a, b), (b, c), (a, c), (d, e)), w)
                    yield build_graph(5, [(u, v, x) for (u, v), x in edges])
            yield from f5_inputs

        # two disjoint triangles joined by no edge, a weight-2 edge, a
        # weight-1 edge, and both: F5 in the first two only
        f5_inputs = [
            two_triangles(extra) for extra in ((), [(1, 4, 2)], [(1, 4, 1)], [(1, 4, 2), (2, 5, 1)])
        ]
        kinds = Counter()
        for G in graphs():
            report = classify(G)
            verdicts = (report.integrally_closed, report.normal)
            assert _verdicts(G) == verdicts, G.edge_list()
            kinds[G.n == 5, verdicts] += 1
        assert kinds[True, (True, False)] == 20
        assert sum(kinds.values()) == 4161 + 1000 + 300 + 240 + 4
        assert [_verdicts(G) for G in f5_inputs] == [(True, False)] * 2 + [(True, True)] * 2

    @staticmethod
    def labellings(G):
        """Every distinct relabelling of G."""
        return {
            build_graph(G.n, [(perm[u - 1], perm[v - 1], w) for u, v, w in G.edge_list()])
            for perm in permutations(range(1, G.n + 1))
        }

    def test_verdicts_find_f4_without_find_f4(self, monkeypatch):
        # Negative control: with find_f4 blind, classify misses the F4 of a
        # triangle beside a disjoint weight-2 edge, and _verdicts, which
        # decides F4 by a test of its own, must still see it.
        import nil.classifier

        monkeypatch.setattr(nil.classifier, "find_f4", lambda G, odd=None: [])
        graphs = self.labellings(F4_GRAPH)
        assert len(graphs) == 10
        assert classify(F4_GRAPH).normal
        for G in graphs:
            assert _verdicts(G) == (True, False), G.edge_list()

    def test_verdicts_find_f5_without_find_f5(self, monkeypatch):
        # Negative control: the same with find_f5 blind, on two disjoint
        # triangles (2K3) and on two triangles joined by a weight-2 edge.
        import nil.classifier

        monkeypatch.setattr(nil.classifier, "find_f5", lambda G, odd=None: [])
        for G, count in ((two_triangles(), 10), (two_triangles([(1, 4, 2)]), 90)):
            graphs = self.labellings(G)
            assert len(graphs) == count
            assert classify(G).normal
            for H in graphs:
                assert _verdicts(H) == (True, False), H.edge_list()

    def test_priority_order(self):
        # heavy triangle plus heavy disjoint edge: F2, F3 and F4 all occur;
        # the certificate must come from the F2
        G = build_graph(5, [(1, 2, 2), (2, 3, 2), (1, 3, 2), (4, 5, 2)])
        report = classify(G)
        kinds = {c.kind for c in report.found}
        assert {"F2", "F3", "F4"} <= kinds
        assert report.primary_certificate.config.kind == "F2"
        assert verify_certificate(G, report.primary_certificate).verified == "verified"

    def test_config_cap_truncates_with_note(self):
        G = two_triangles()
        report = classify(G, config_cap=0)
        assert report.found == ()
        assert not report.normal  # verdict unaffected by the cap
        assert any("truncated" in note for note in report.notes)

    def test_config_cap_must_be_an_exact_nonnegative_int(self):
        # -1 once returned found=() with "F1 list truncated to -1 of 1"
        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        for cap in (-1, None, True, 1.0, "5"):
            with pytest.raises(GraphError, match="config_cap"):
                classify(G, config_cap=cap)
        assert len(classify(G, config_cap=1).found) == 1

    def test_huge_config_cap_rejected_in_one_line(self):
        # an int past the int-string digit limit is written by its size
        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        with pytest.raises(GraphError) as err:
            classify(G, -10**5000)
        assert str(err.value) == "config_cap must be an integer >= 0, got at most -2^16609"


class TestCertificates:
    def test_f1_equal_weights(self):
        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        cert = build_certificate(G, find_f1_f2_f3(G)[0])
        assert cert.t == 1
        assert cert.witness == (1, 2, 1)

    def test_f1_sorts_weights(self):
        G = build_graph(3, [(1, 2, 3), (2, 3, 2)])
        cert = build_certificate(G, find_f1_f2_f3(G)[0])
        # a=2 on edge (2,3): roles are x1=3, x2=2, x3=1
        assert cert.witness == (2, 3, 1)
        assert verify_certificate(G, cert).verified == "verified"

    def test_f2_all_twos(self):
        G = triangle((2, 2, 2))
        cert = build_certificate(G, find_f1_f2_f3(G)[0])
        assert cert.witness == (1, 2, 1)

    def test_f3(self):
        G = build_graph(4, [(1, 2, 2), (3, 4, 2)])
        cert = build_certificate(G, find_f1_f2_f3(G)[0])
        assert cert.t == 1
        assert cert.witness == (1, 1, 1, 1)

    def test_f4(self):
        cert = build_certificate(F4_GRAPH, find_f4(F4_GRAPH)[0])
        assert cert.t == 2
        assert cert.witness == (1, 1, 1, 1, 1)

    def test_f5(self):
        G = two_triangles()
        cert = build_certificate(G, find_f5(G)[0])
        assert cert.t == 3
        assert cert.witness == (1, 1, 1, 1, 1, 1)

    def test_heavy_cycle_f5_always_has_shorter_witness(self):
        # an F5 whose cycle carries a heavy edge cannot use the product
        # witness, but the connectors that break every fallback F4 are
        # themselves heavy and manufacture an F1 (or F2) instead
        base = [(1, 2, 2), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1)]
        G = build_graph(6, base + [(1, 4, 2)])
        report = classify(G)
        assert report.primary_certificate.config.kind == "F1"
        assert verify_certificate(G, report.primary_certificate).verified == "verified"
        G = build_graph(6, base + [(1, 4, 2), (2, 4, 2)])
        report = classify(G)
        assert report.primary_certificate.config.kind == "F2"
        assert verify_certificate(G, report.primary_certificate).verified == "verified"

    def test_f4_with_heavy_cycle_edge_rejected(self):
        G = build_graph(5, [(1, 2, 2), (2, 3, 1), (1, 3, 1), (4, 5, 2)])
        configs = find_f4(G)
        assert len(configs) == 1
        with pytest.raises(CertificateError, match="fall back"):
            build_certificate(G, configs[0])
        # the heavy cycle edge and the pendant form an F3, which heads the
        # list, so classify never reaches the F4
        report = classify(G)
        assert [c.kind for c in report.found] == ["F3", "F4"]
        assert report.primary_certificate.config.kind == "F3"
        assert verify_certificate(G, report.primary_certificate).verified == "verified"

    def test_examples_verify(self):
        for G in (
            build_graph(3, [(1, 2, 2), (2, 3, 2)]),
            triangle((2, 2, 2)),
            build_graph(4, [(1, 2, 2), (3, 4, 2)]),
            F4_GRAPH,
            two_triangles(),
        ):
            cert = classify(G).primary_certificate
            assert verify_certificate(G, cert).verified == "verified"

    def test_f5_with_connectors_verifies(self):
        G = two_triangles([(1, 4, 3)])
        report = classify(G)
        cert = report.primary_certificate
        assert cert.config.kind == "F5"
        assert cert.config.connectors == ((1, 4, 3),)
        assert cert.t == 3
        assert cert.witness == (1, 1, 1, 1, 1, 1)
        assert verify_certificate(G, cert).verified == "verified"

    def test_f4_with_five_cycle_needs_power_three(self):
        G = build_graph(
            7,
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 1), (6, 7, 2)],
        )
        report = classify(G)
        cert = report.primary_certificate
        assert cert.config.kind == "F4"
        assert cert.t == 3
        assert cert.witness == (1, 1, 1, 1, 1, 1, 1)
        assert verify_certificate(G, cert).verified == "verified"

    def test_exhausted_search_leaves_f5_unverified(self):
        # Two disjoint 21-cycles: F5 at t = 21, a membership search far
        # past its budget.
        L = 21
        G = build_graph(
            2 * L, [(c + i, c + i % L + 1, 1) for c in (0, L) for i in range(1, L + 1)]
        )
        cert = classify(G).primary_certificate
        assert (cert.config.kind, cert.t) == ("F5", L)
        checked = verify_certificate(G, cert)
        assert checked.verified == "unverified"
        assert "budget" in checked.note

    def test_tampered_witness_fails(self):
        from dataclasses import replace

        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        cert = classify(G).primary_certificate
        bad = replace(cert, witness=(5, 2, 1))  # now inside I itself
        checked = verify_certificate(G, bad)
        assert checked.verified == "failed"
        assert contains_power(edge_ideal(G), bad.witness, bad.t)

    def test_inflated_power_fails(self):
        from dataclasses import replace

        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        cert = classify(G).primary_certificate
        checked = verify_certificate(G, replace(cert, t=3))
        assert checked.verified == "failed"

    def test_unknown_kind_rejected(self):
        from dataclasses import replace

        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        config = replace(find_f1_f2_f3(G)[0], kind="F6")
        with pytest.raises(CertificateError, match="unknown configuration kind 'F6'"):
            build_certificate(G, config)

    def test_wrong_length_witness_rejected(self):
        from dataclasses import replace

        from nil.errors import IdealError

        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        cert = classify(G).primary_certificate
        with pytest.raises(IdealError):
            verify_certificate(G, replace(cert, witness=(1, 2)))


class TestMetamorphic:
    def test_disjoint_bipartite_component_preserves_normality(self):
        rng = random.Random(107)
        bipartites = [
            build_graph(2, [(1, 2, 1)]),
            build_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)]),
            build_graph(3, [(1, 2, 1), (2, 3, 1)]),
        ]
        for _ in range(60):
            G = random_graph_with_edge(rng, n_max=5)
            expected = classify(G).normal
            for H in bipartites:
                assert classify(disjoint_union(G, H)).normal == expected

    def test_trivial_leaf_preserves_normality(self):
        rng = random.Random(109)
        for _ in range(60):
            G = random_graph_with_edge(rng, n_max=5)
            expected = classify(G).normal
            attach = rng.randint(1, G.n)
            bigger = build_graph(
                G.n + 1, list(G.edge_list()) + [(attach, G.n + 1, 1)]
            )
            assert classify(bigger).normal == expected

    def test_removing_heavy_edge_preserves_config_freeness(self):
        rng = random.Random(113)
        seen = 0
        while seen < 40:
            G = random_graph_with_edge(rng, n_max=6, weights=(1, 2))
            report = classify(G)
            heavy = G.nontrivial_edges()
            if not report.normal or not heavy:
                continue
            seen += 1
            for u, v, _ in heavy:
                smaller = remove_edge(G, u, v)
                if smaller.edges:  # edgeless graphs have no configurations at all
                    assert classify(smaller).normal

    def test_trivial_weight_specialization(self):
        # for weight-1 graphs, normal iff the odd cycle condition holds
        from test_wgraph import all_graphs

        for n in (3, 4, 5):
            for G in all_graphs(n, weights=(1,)):
                if not G.edges:
                    continue
                assert classify(G).normal == odd_cycle_condition(G)[0]
        rng = random.Random(127)
        for _ in range(80):
            G = random_graph_with_edge(rng, n_max=7, weights=(1,))
            assert classify(G).normal == odd_cycle_condition(G)[0]


class TestCrossValidate:
    @staticmethod
    def counts(report):
        return (
            report.classes_checked,
            report.normal_classes,
            report.closed_not_normal_classes,
            report.not_closed_classes,
        )

    def test_tiny_family_agrees(self):
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.agreed
        assert report.disagreements == ()
        assert report.skipped == ()
        assert report.graphs_checked == 2 + 26
        assert report.note

    def test_no_power_scanned_twice(self, monkeypatch):
        import nil.closure

        original = nil.closure.is_power_integrally_closed
        scans = []

        def spy(I, k, *args, **kwargs):
            # I may be a ClosureOracle; a repeat is a repeat of its ideal.
            scans.append((getattr(I, "ideal", I), k))
            return original(I, k, *args, **kwargs)

        monkeypatch.setattr(nil.closure, "is_power_integrally_closed", spy)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert scans and len(scans) == len(set(scans))
        assert report.agreed
        assert self.counts(report) == (11, 9, 0, 2)

    def test_dual_cuts_save_lp_solves(self, monkeypatch):
        import nil.closure

        original = nil.closure.lp_max_weight
        solves = []

        def spy(I, a):
            solves.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        report = cross_validate(GraphFamily(3, (1, 2, 3)), t_max=3)
        assert report.agreed
        # 1,659 solves with one LP per box point; 46 with the dual cuts.
        assert len(solves) <= 200

    def test_witness_scans_stop_early(self, monkeypatch):
        import nil.closure

        original = nil.closure.lp_max_weight
        solves = []

        def spy(I, a):
            solves.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        report = cross_validate(GraphFamily(4, (1, 2, 3)), t_max=2)
        assert report.agreed and report.not_closed_classes == 186
        # 2,321 solves when a not-closed scan walks its whole box; 1,559
        # when it stops at the degree of the best failure found; 655 when
        # a certificate verified at t = 1 settles each of the 186 not-closed
        # classes with no scan.
        assert len(solves) <= 700

    def test_oracle_resource_error_skips_the_class(self):
        # A box budget of 1 refuses every power-1 scan: the 9 normal classes
        # are skipped, each with its reason, and still tallied by the
        # classifier's verdicts.  The 2 not-closed classes are settled by
        # their certificates, which need no box.
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2, box_budget=1)
        assert report.disagreements == ()
        assert len(report.skipped) == 9
        assert all("budget 1" in entry["reason"] for entry in report.skipped)
        assert self.counts(report) == (11, 9, 0, 2)

    def test_verified_certificate_settles_a_not_closed_class(self, monkeypatch):
        # The two not-closed classes' ideals reach no scan, and each one's
        # certificate is checked exactly once.
        import nil.classifier
        import nil.closure

        scanned = []
        for module, name in (
            (nil.closure, "is_power_integrally_closed"),
            (nil.classifier, "normality_scan"),
        ):
            original = getattr(module, name)

            def spy(I, *args, _original=original, **kwargs):
                scanned.append(getattr(I, "ideal", I))
                return _original(I, *args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        verified = []
        original_verify = nil.classifier.verify_certificate

        def verify(G, cert):
            verified.append(list(G.edge_list()))
            return original_verify(G, cert)

        monkeypatch.setattr(nil.classifier, "verify_certificate", verify)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.agreed and report.skipped == ()
        assert self.counts(report) == (11, 9, 0, 2)
        not_closed = [[(1, 3, 2), (2, 3, 2)], [(1, 2, 2), (1, 3, 2), (2, 3, 2)]]
        assert verified == not_closed
        for edges in not_closed:
            assert edge_ideal(build_graph(3, edges)) not in scanned
        assert scanned

    def test_unverified_certificate_skips_the_class(self, monkeypatch):
        # With no power-membership budget, neither certificate of the two
        # not-closed classes can be checked: both are skipped, not failed.
        import nil.ideal

        monkeypatch.setattr(nil.ideal, "POWER_SEARCH_BUDGET", 0)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.disagreements == ()
        assert [entry["graph"] for entry in report.skipped] == [
            {"vertices": 3, "edges": [[1, 3, 2], [2, 3, 2]]},
            {"vertices": 3, "edges": [[1, 2, 2], [1, 3, 2], [2, 3, 2]]},
        ]
        assert all("budget 0" in entry["reason"] for entry in report.skipped)
        assert self.counts(report) == (11, 9, 0, 2)

    def test_unchecked_certificate_leaves_the_scan_to_decide(self, monkeypatch):
        # A certificate that cannot be checked settles nothing: both
        # not-closed classes reach the power-1 scan, and each certificate is
        # checked once, before the scan and not again after it.
        import nil.classifier
        import nil.ideal

        monkeypatch.setattr(nil.ideal, "POWER_SEARCH_BUDGET", 0)
        calls = []
        original_verify = nil.classifier.verify_certificate
        original_scan = nil.classifier.normality_scan

        def verify(G, cert):
            calls.append(("verify_certificate", edge_ideal(G)))
            return original_verify(G, cert)

        def scan(I, **kwargs):
            calls.append(("normality_scan", I, kwargs["t_max"]))
            return original_scan(I, **kwargs)

        monkeypatch.setattr(nil.classifier, "verify_certificate", verify)
        monkeypatch.setattr(nil.classifier, "normality_scan", scan)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert len(report.skipped) == 2 and report.disagreements == ()
        # the nine normal classes have no certificate and are scanned to t_max
        assert len([call for call in calls if call[2:] == (2,)]) == 9
        assert [call for call in calls if call[2:] != (2,)] == [
            call
            for I in (
                edge_ideal(build_graph(3, [(1, 3, 2), (2, 3, 2)])),
                edge_ideal(build_graph(3, [(1, 2, 2), (1, 3, 2), (2, 3, 2)])),
            )
            for call in (("verify_certificate", I), ("normality_scan", I, 1))
        ]

    def test_reports_a_closedness_disagreement(self, monkeypatch):
        # Negative control: an oracle that calls every power of every ideal
        # closed contradicts the two not-closed classes.  A verified
        # certificate would settle them with no scan, so each witness is
        # moved into I (times a generator), where it fails verification.
        from dataclasses import replace

        import nil.classifier
        import nil.closure

        original = nil.classifier.classify

        def moved(G):
            report = original(G)
            cert = report.primary_certificate
            if cert is None:
                return report
            g = edge_ideal(G).gens[0]
            witness = tuple(a + b for a, b in zip(cert.witness, g))
            return replace(report, primary_certificate=replace(cert, witness=witness))

        monkeypatch.setattr(nil.classifier, "classify", moved)
        monkeypatch.setattr(
            nil.closure, "is_power_integrally_closed", lambda I, k, **kw: (True, None)
        )
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert [(d["issue"], d["classifier"], d["oracle"]) for d in report.disagreements] == [
            ("integral-closedness verdicts differ", False, True)
        ] * 2
        assert report.skipped == ()
        assert self.counts(report) == (11, 9, 0, 2)

    def test_reports_a_failed_certificate_on_a_closed_class(self, monkeypatch):
        # Negative control for the closed but not normal path: classify
        # calls the unit triangle closed but not normal, with a made-up F4
        # certificate at t = 2 whose witness x1 x2 x3 has degree 3 < 4, so
        # it lies outside closure(I^2).  The power-1 scan agrees that I is
        # closed and the certificate fails; with box_budget=1 the scan is
        # refused and the class is skipped.  Either way the certificate is
        # checked exactly once.
        from dataclasses import replace

        import nil.classifier
        from nil.classifier import Certificate, ForbiddenConfig

        unit = triangle()
        made_up = Certificate(
            config=ForbiddenConfig(
                "F4", (1, 2, 3), ((1, 2, 1), (1, 3, 1), (2, 3, 1)), cycles=((1, 2, 3),)
            ),
            t=2,
            witness=(1, 1, 1),
        )
        original = nil.classifier.classify

        def wrong(G):
            report = original(G)
            if G == unit:
                return replace(report, normal=False, primary_certificate=made_up)
            return report

        verified = []
        original_verify = nil.classifier.verify_certificate

        def verify(G, cert):
            verified.append(G)
            return original_verify(G, cert)

        monkeypatch.setattr(nil.classifier, "classify", wrong)
        monkeypatch.setattr(nil.classifier, "verify_certificate", verify)
        unit_dict = {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]}
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.disagreements == (
            {
                "graph": unit_dict,
                "issue": "certificate failed verification",
                "certificate": {"kind": "F4", "t": 2, "witness": [1, 1, 1]},
                "detail": "in_closure_power=False, contains_power=False",
            },
        )
        assert report.skipped == ()
        assert self.counts(report) == (11, 8, 1, 2)
        assert verified.count(unit) == 1

        verified.clear()
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2, box_budget=1)
        assert report.disagreements == ()
        assert len(report.skipped) == 9
        assert unit_dict in [entry["graph"] for entry in report.skipped]
        assert all("budget 1" in entry["reason"] for entry in report.skipped)
        assert self.counts(report) == (11, 8, 1, 2)
        assert verified.count(unit) == 1

    def test_reports_a_closedness_disagreement_on_a_normal_class(self, monkeypatch):
        # Negative control for the normal path: a scan that claims x1 x2 x3
        # refutes the closedness of the unit triangle's ideal at t = 1.
        import nil.classifier
        from nil.closure import NormalityVerdict

        original = nil.classifier.normality_scan
        triangle_ideal = edge_ideal(triangle())

        def scan(I, **kwargs):
            if I == triangle_ideal:
                return NormalityVerdict("counterexample", 1, (1, 1, 1))
            return original(I, **kwargs)

        monkeypatch.setattr(nil.classifier, "normality_scan", scan)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.disagreements == (
            {
                "graph": {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]},
                "issue": "integral-closedness verdicts differ",
                "classifier": True,
                "oracle": False,
            },
        )
        assert report.skipped == ()
        assert self.counts(report) == (11, 9, 0, 2)

    def test_reports_a_failed_certificate(self, monkeypatch):
        # Negative control: certificates claimed at t = 3 rather than 1.
        from dataclasses import replace

        import nil.classifier

        original = nil.classifier.classify

        def inflated(G):
            report = original(G)
            if report.primary_certificate is None:
                return report
            return replace(report, primary_certificate=replace(report.primary_certificate, t=3))

        monkeypatch.setattr(nil.classifier, "classify", inflated)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert [d["issue"] for d in report.disagreements] == ["certificate failed verification"] * 2
        assert {d["certificate"]["kind"] for d in report.disagreements} == {"F1", "F2"}
        assert all(d["certificate"]["t"] == 3 for d in report.disagreements)
        assert all("in_closure_power=False" in d["detail"] for d in report.disagreements)
        assert report.skipped == ()
        assert self.counts(report) == (11, 9, 0, 2)

    def test_reports_a_counterexample_to_a_normal_verdict(self, monkeypatch):
        # Negative control: an oracle that claims x1 x2 x3 refutes the
        # normality of the unit triangle at t = 2.
        import nil.classifier
        from nil.closure import NormalityVerdict

        original = nil.classifier.normality_scan
        triangle_ideal = edge_ideal(triangle())

        def scan(I, **kwargs):
            if I == triangle_ideal:
                return NormalityVerdict("counterexample", 2, (1, 1, 1))
            return original(I, **kwargs)

        monkeypatch.setattr(nil.classifier, "normality_scan", scan)
        report = cross_validate(GraphFamily(3, (1, 2)), t_max=2)
        assert report.disagreements == (
            {
                "graph": {"vertices": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1]]},
                "issue": "classifier says normal but oracle found a counterexample",
                "t": 2,
                "witness": [1, 1, 1],
            },
        )
        assert report.skipped == ()
        assert self.counts(report) == (11, 9, 0, 2)

    def test_single_edge_family(self):
        report = cross_validate(GraphFamily(2, (1,)), t_max=1)
        assert report.agreed
        assert report.graphs_checked == 1
        assert report.classes_checked == 1
        assert report.normal_classes == 1

    def test_each_labelled_graph_is_decided_once(self, monkeypatch):
        # classify on each class representative, _verdicts on every other
        # labelled graph, and no graph twice
        import nil.classifier

        seen = {"classify": [], "_verdicts": []}

        def spy(name):
            original = getattr(nil.classifier, name)

            def call(G):
                seen[name].append((G.n, frozenset(G.edges.items())))
                return original(G)

            monkeypatch.setattr(nil.classifier, name, call)

        spy("classify")
        spy("_verdicts")
        report = cross_validate(GraphFamily(4, (1, 2)), t_max=1)
        assert report.agreed
        assert len(seen["classify"]) == report.classes_checked == 76
        assert len(seen["_verdicts"]) == 2 + 26 + 728 - 76
        every = seen["classify"] + seen["_verdicts"]
        assert len(every) == len(set(every)) == report.graphs_checked == 2 + 26 + 728

    def test_relabelling_check_still_tests_classify(self, monkeypatch):
        # Negative control: a classify wrong on one representative only
        # (the edge 2-3 on three vertices, called not closed) is refuted
        # by the oracle there, and by _verdicts on the two other labellings
        # of its class.
        from dataclasses import replace

        import nil.classifier

        original = nil.classifier.classify

        def wrong(G):
            report = original(G)
            if G.n == 3 and G.edges == {(2, 3): 1}:
                return replace(report, integrally_closed=False, normal=False)
            return report

        monkeypatch.setattr(nil.classifier, "classify", wrong)
        report = cross_validate(GraphFamily(3, (1,)), t_max=1)
        assert [
            (d["issue"], d["graph"]["edges"], d.get("labeled"), d.get("canonical"))
            for d in report.disagreements
        ] == [
            ("integral-closedness verdicts differ", [[2, 3, 1]], None, None),
            ("verdicts differ from canonical relabeling", [[1, 3, 1]], (True, True), (False, False)),
            ("verdicts differ from canonical relabeling", [[1, 2, 1]], (True, True), (False, False)),
        ]
        assert report.skipped == ()

    def test_witness_scans_refute_every_not_closed_class(self):
        # cross_validate settles these classes by their certificates, so the
        # power-1 witness scan on ideals that are not closed is checked here:
        # one graph per class of the xval family that classify calls not
        # closed, whose scan must return a witness in the closure of I, not
        # in I, and of degree at most the certificate's (some minimal
        # closure generator outside I divides the certificate's witness).
        from nil.closure import in_closure_power, is_power_integrally_closed

        refuted = 0
        for n in (2, 3, 4):
            pairs = list(combinations(range(1, n + 1), 2))
            index = {p: i for i, p in enumerate(pairs)}
            seen = set()
            for tup in product((0, 1, 2, 3), repeat=len(pairs)):
                if not any(tup) or tup in seen:
                    continue
                for perm in permutations(range(1, n + 1)):
                    image = [0] * len(pairs)
                    for (u, v), w in zip(pairs, tup):
                        image[index[tuple(sorted((perm[u - 1], perm[v - 1])))]] = w
                    seen.add(tuple(image))
                G = build_graph(n, [(u, v, w) for (u, v), w in zip(pairs, tup) if w])
                report = classify(G)
                if report.integrally_closed:
                    continue
                I = edge_ideal(G)
                closed, a = is_power_integrally_closed(I, 1)
                assert not closed
                assert in_closure_power(I, a, 1) and not contains_power(I, a, 1)
                assert sum(a) <= sum(report.primary_certificate.witness)
                refuted += 1
        assert refuted == 186

    @pytest.mark.parametrize("weights, classes", [((1, 2), 76), ((1, 2, 3), 297)])
    def test_classes_match_burnside(self, weights, classes):
        # Burnside: the classes of weight tuples on the pairs of n vertices
        # average, over the vertex permutations, states ** (cycles on pairs)
        def class_count(n):
            pairs = list(combinations(range(n), 2))
            perms = list(permutations(range(n)))
            fixed = 0
            for perm in perms:
                image = {(u, v): tuple(sorted((perm[u], perm[v]))) for u, v in pairs}
                cycles, seen = 0, set()
                for p in pairs:
                    if p not in seen:
                        cycles += 1
                        while p not in seen:
                            seen.add(p)
                            p = image[p]
                fixed += (len(weights) + 1) ** cycles
            return fixed // len(perms) - 1  # less the empty graph

        assert sum(class_count(n) for n in (2, 3, 4)) == classes
        report = cross_validate(GraphFamily(4, weights), t_max=1)
        assert report.agreed
        assert report.classes_checked == classes

    def test_weight_one_six_vertex_family_holds_an_f5(self):
        # The first exhaustive family with an F5: on six vertices two
        # disjoint odd cycles fit.  Its one closed but not normal class is
        # 2K3, whose F5 certificate is verified at t = 3.
        report = cross_validate(GraphFamily(6, (1,)), t_max=3)
        assert report.agreed and report.skipped == ()
        assert report.graphs_checked == 33861
        assert self.counts(report) == (202, 201, 1, 0)
        cert = classify(two_triangles()).primary_certificate
        assert (cert.config.kind, cert.t) == ("F5", 3)
        assert verify_certificate(two_triangles(), cert).verified == "verified"

    def test_rejects_a_bad_family_budget(self):
        for budget in (None, "9", 0, -1, True, 1e7):
            with pytest.raises(IdealError, match="family_budget"):
                cross_validate(GraphFamily(2, (1,)), t_max=1, family_budget=budget)

    def test_huge_family_budget_rejected_in_one_line(self):
        with pytest.raises(IdealError) as err:
            cross_validate(GraphFamily(3, (1,)), family_budget=-10**5000)
        assert str(err.value) == (
            "family_budget must be a positive integer, got at most -2^16609"
        )

    def test_family_budget(self):
        from nil.errors import ResourceLimitError

        with pytest.raises(ResourceLimitError, match="budget"):
            cross_validate(GraphFamily(6, (1, 2)), t_max=1, family_budget=1000)

    def test_family_validation(self):
        with pytest.raises(ValueError):
            GraphFamily(1, (1,))
        with pytest.raises(ValueError):
            GraphFamily(3, ())
        with pytest.raises(ValueError):
            GraphFamily(3, (0, 1))
        # the integer rule comes before any sort or comparison
        with pytest.raises(ValueError, match="weights"):
            GraphFamily(3, (1, "a"))
        with pytest.raises(ValueError, match="max_vertices"):
            GraphFamily("3", (1,))

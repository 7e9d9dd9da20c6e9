import random
from enum import IntEnum
from itertools import combinations

import pytest

import nil.wgraph
from nil.errors import GraphError, ResourceLimitError
from nil.wgraph import (
    WeightedGraph,
    build_graph,
    canonical_cycle,
    chordless_cycles,
    classify_compact,
    connected_components,
    disjoint_odd_pairs,
    has_even_cycle,
    induced_subgraph,
    is_bipartite,
    odd_chordless_cycles,
    odd_cycle_condition,
    trivial_leaves,
)

from _oracles import (
    brute_all_cycles,
    brute_chordless_cycles,
    brute_has_even_cycle,
    disjoint_union,
    is_cycle_of,
    random_cactus,
    random_graph,
    random_sparse_graph,
    reference_chordless_cycles,
    reference_disjoint_odd_pairs,
    reference_odd_cycle_condition,
    remove_edge,
)


def triangle(weights=(1, 1, 1)):
    return build_graph(3, [(1, 2, weights[0]), (2, 3, weights[1]), (1, 3, weights[2])])


def cycle_graph(n, weight=1):
    edges = [(i, i + 1, weight) for i in range(1, n)] + [(1, n, weight)]
    return build_graph(n, edges)


def all_graphs(n, weights=(1,)):
    """Every labeled graph on exactly n vertices with the given weight set."""
    pairs = list(combinations(range(1, n + 1), 2))
    states = (0,) + tuple(weights)
    total = len(states) ** len(pairs)
    for code in range(total):
        edges = []
        c = code
        for pair in pairs:
            c, state = divmod(c, len(states))
            if states[state]:
                edges.append((pair[0], pair[1], states[state]))
        yield WeightedGraph(n, edges)


class TestConstruction:
    def test_path(self):
        G = build_graph(3, [(1, 2, 2), (2, 3, 2)])
        assert G.n == 3
        assert G.edge_list() == ((1, 2, 2), (2, 3, 2))
        assert G.weight(3, 2) == 2
        assert G.degree(2) == 2

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(2, [(1, 1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            build_graph(4, [(1, 2, 1), (1, 2, 3)])

    def test_duplicate_edge_reversed_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge"):
            build_graph(4, [(1, 2, 1), (2, 1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="outside"):
            build_graph(2, [(1, 3, 1)])

    def test_bad_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            build_graph(2, [(1, 2, 0)])
        with pytest.raises(GraphError, match="weight"):
            build_graph(2, [(1, 2, True)])
        # only an exact int is a weight, as for every integer input
        with pytest.raises(GraphError, match="weight"):
            build_graph(2, [(1, 2, IntEnum("W", "TWO THREE").TWO)])

    def test_pair_defaults_to_weight_one(self):
        assert build_graph(2, [(1, 2)]).weight(1, 2) == 1

    def test_edge_items_are_pairs_or_triples(self):
        for item in (1, (1, 2, 1, 5), (1,), ()):
            with pytest.raises(GraphError, match=r"\(u, v\) or \(u, v, w\)"):
                WeightedGraph(3, [item])


class TestInducedSubgraph:
    def test_triangle_to_edge(self):
        H, label_map = induced_subgraph(triangle(), [1, 2])
        assert H.edge_list() == ((1, 2, 1),)
        assert label_map == {1: 1, 2: 2}

    def test_full_vertex_set_is_identity(self):
        G = build_graph(4, [(1, 2, 2), (3, 4, 5)])
        H, label_map = induced_subgraph(G, range(1, 5))
        assert H == G
        assert label_map == {v: v for v in range(1, 5)}

    def test_cycle_extraction_from_f4_instance(self):
        G = build_graph(7, [(1, 3, 1), (3, 5, 1), (1, 5, 1), (2, 4, 2)])
        H, label_map = induced_subgraph(G, [1, 3, 5])
        assert label_map == {1: 1, 3: 2, 5: 3}
        assert H == triangle()

    def test_five_cycle_plus_disjoint_edge(self):
        G = build_graph(
            7,
            [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 1), (6, 7, 2)],
        )
        H, _ = induced_subgraph(G, [1, 2, 3, 4, 5])
        assert H == cycle_graph(5)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            induced_subgraph(triangle(), [1, 9])

    def test_vertices_must_be_exact_ints(self):
        # True and 1.0 once passed and keyed the label map by themselves
        for V in (["a"], [True, 2], [1.0, 2], [2, IntEnum("V", "ONE TWO").TWO]):
            with pytest.raises(GraphError, match="vertex"):
                induced_subgraph(triangle(), V)

    def test_random_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            G = random_graph(rng)
            H, _ = induced_subgraph(G, G.vertices())
            assert H == G


class TestComponents:
    def test_two_triangles(self):
        G = disjoint_union(triangle(), triangle())
        assert connected_components(G) == [(1, 2, 3), (4, 5, 6)]

    def test_path_is_single(self):
        G = build_graph(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
        assert connected_components(G) == [(1, 2, 3, 4)]

    def test_edgeless_singletons(self):
        assert connected_components(WeightedGraph(3)) == [(1,), (2,), (3,)]


class TestBipartite:
    def test_even_cycle(self):
        assert is_bipartite(cycle_graph(4)) == (True, None)

    def test_triangle_witness(self):
        ok, witness = is_bipartite(triangle())
        assert not ok
        assert witness == (1, 2, 3)

    def test_five_cycle_with_pendant(self):
        G = build_graph(6, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (1, 5, 1), (5, 6, 1)])
        ok, witness = is_bipartite(G)
        assert not ok
        expected = [c for c in brute_all_cycles(G) if len(c) % 2 == 1]
        assert witness in expected
        assert witness == (1, 2, 3, 4, 5)

    def test_witness_is_a_real_odd_cycle(self):
        rng = random.Random(11)
        for _ in range(150):
            G = random_graph(rng, n_max=8)
            ok, witness = is_bipartite(G)
            if ok:
                assert all(len(c) % 2 == 0 for c in brute_all_cycles(G))
            else:
                assert len(witness) % 2 == 1
                assert is_cycle_of(G, witness)

    def test_agrees_with_chordless_scan(self):
        rng = random.Random(13)
        for _ in range(100):
            G = random_graph(rng, n_max=7)
            odd = [c for c in chordless_cycles(G) if len(c) % 2 == 1]
            assert is_bipartite(G)[0] == (not odd)


class TestChordlessCycles:
    def test_c5(self):
        assert chordless_cycles(cycle_graph(5)) == [(1, 2, 3, 4, 5)]

    def test_k4_has_only_triangles(self):
        G = build_graph(4, [(u, v, 1) for u, v in combinations(range(1, 5), 2)])
        cycles = chordless_cycles(G)
        assert cycles == brute_chordless_cycles(G)
        assert len(cycles) == 4
        assert all(len(c) == 3 for c in cycles)

    def test_two_triangles_sharing_vertex(self):
        G = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        cycles = chordless_cycles(G)
        assert cycles == brute_chordless_cycles(G)
        assert len(cycles) == 2

    def test_exhaustive_small(self):
        for n in (3, 4, 5):
            for G in all_graphs(n):
                assert chordless_cycles(G) == brute_chordless_cycles(G)

    def test_random_up_to_seven(self):
        rng = random.Random(17)
        for _ in range(120):
            G = random_graph(rng, n_max=7)
            assert chordless_cycles(G) == brute_chordless_cycles(G)

    def test_count_cap(self):
        G = build_graph(5, [(u, v, 1) for u, v in combinations(range(1, 6), 2)])
        with pytest.raises(ResourceLimitError, match="cap 3"):
            chordless_cycles(G, max_count=3)

    def test_sparse_graphs_match_the_set_based_layer(self):
        # graphs like the classify benchmark's: 12-28 vertices, p = 0.15
        rng = random.Random(41)
        held = 0
        for _ in range(150):
            G = random_sparse_graph(rng)
            cycles = reference_chordless_cycles(G)
            assert chordless_cycles(G) == cycles
            odd = [c for c in cycles if len(c) % 2 == 1]
            assert list(disjoint_odd_pairs(G, odd)) == list(reference_disjoint_odd_pairs(G, odd))
            verdict = odd_cycle_condition(G)
            assert verdict == reference_odd_cycle_condition(G)
            held += verdict[0]
        assert 20 < held < 130  # both verdicts are exercised

    def test_cap_raises_at_the_same_count(self):
        rng = random.Random(43)
        for _ in range(40):
            G = random_sparse_graph(rng, n_max=20)
            count = len(reference_chordless_cycles(G))
            if not count:
                continue
            assert len(chordless_cycles(G, max_count=count)) == count
            for cap in (count - 1, count // 2):
                with pytest.raises(ResourceLimitError) as ours:
                    chordless_cycles(G, max_count=cap)
                with pytest.raises(ResourceLimitError) as theirs:
                    reference_chordless_cycles(G, max_count=cap)
                assert str(ours.value) == str(theirs.value)


class TestEvenCycle:
    def test_four_cycle(self):
        assert has_even_cycle(cycle_graph(4))

    def test_two_triangles_sharing_edge(self):
        G = build_graph(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1)])
        assert has_even_cycle(G)
        assert brute_has_even_cycle(G)

    def test_bouquet_of_two_triangles(self):
        G = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        assert not has_even_cycle(G)
        assert not brute_has_even_cycle(G)

    def test_exhaustive_small(self):
        assert not has_even_cycle(WeightedGraph(0))
        for n in (3, 4, 5):
            for G in all_graphs(n):
                assert has_even_cycle(G) == brute_has_even_cycle(G)

    def test_random_up_to_seven(self):
        rng = random.Random(19)
        for _ in range(150):
            G = random_graph(rng, n_max=7)
            assert has_even_cycle(G) == brute_has_even_cycle(G)


class TestOddCycleCondition:
    def test_disjoint_triangles_violate(self):
        G = disjoint_union(triangle(), triangle())
        ok, pair = odd_cycle_condition(G)
        assert not ok
        assert pair == ((1, 2, 3), (4, 5, 6))
        c1, c2 = pair
        assert not any(G.has_edge(u, v) for u in c1 for v in c2)

    def test_joined_triangles_pass(self):
        G = build_graph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (1, 4, 1)])
        assert odd_cycle_condition(G) == (True, None)
        odd = odd_chordless_cycles(G)
        assert odd == [(1, 2, 3), (4, 5, 6)]
        assert list(disjoint_odd_pairs(G, odd)) == [((1, 2, 3), (4, 5, 6), [(1, 4, 1)])]

    def test_barred_edges_reject_pairs(self):
        rng = random.Random(47)
        yielded = 0
        for _ in range(60):
            G = random_sparse_graph(rng, n_max=20)
            odd = odd_chordless_cycles(G)
            barred = {e for e in G.edges if rng.random() < 0.5}
            expected = [
                (c1, c2, cross)
                for c1, c2, cross in reference_disjoint_odd_pairs(G, odd)
                if not any((u, v) in barred for u, v, _ in cross)
            ]
            assert list(disjoint_odd_pairs(G, odd, barred=barred)) == expected
            yielded += len(expected)
        assert yielded

    def test_bipartite_vacuous(self):
        assert odd_cycle_condition(cycle_graph(8)) == (True, None)

    def test_violating_pair_verifiable_by_edge_lookups(self):
        rng = random.Random(37)
        seen = 0
        while seen < 30:
            G = random_graph(rng, n_min=6, n_max=8, weights=(1,), p=0.3)
            ok, pair = odd_cycle_condition(G)
            if ok:
                continue
            seen += 1
            c1, c2 = pair
            assert is_cycle_of(G, c1) and is_cycle_of(G, c2)
            assert len(c1) % 2 == 1 and len(c2) % 2 == 1
            assert not set(c1) & set(c2)
            assert not any(G.has_edge(u, v) for u in c1 for v in c2)


class TestTrivialLeaves:
    def test_path(self):
        G = build_graph(3, [(1, 2, 1), (2, 3, 1)])
        assert trivial_leaves(G) == [(1, 2), (3, 2)]

    def test_heavy_edge(self):
        assert trivial_leaves(build_graph(2, [(1, 2, 2)])) == []

    def test_triangle(self):
        assert trivial_leaves(triangle()) == []


class TestCanonicalCycle:
    def test_rotation_and_reflection(self):
        assert canonical_cycle([3, 1, 2]) == (1, 2, 3)
        assert canonical_cycle([3, 2, 1]) == (1, 2, 3)
        assert canonical_cycle([4, 3, 2, 1]) == (1, 2, 3, 4)
        assert canonical_cycle([2, 1, 5, 4, 3]) == (1, 2, 3, 4, 5)

    def test_degenerate_rejected(self):
        with pytest.raises(GraphError):
            canonical_cycle([1, 2])
        with pytest.raises(GraphError):
            canonical_cycle([1, 2, 2])


class TestClassifyCompact:
    def test_triangle_is_bouquet(self):
        result = classify_compact(triangle())
        assert result.tag == "bouquet"
        assert result.stems == (1,)

    def test_four_cycle_not_compact(self):
        assert classify_compact(cycle_graph(4)).tag == "not_compact"

    def test_path_joined_triangles_not_compact(self):
        # two triangles joined only through a middle vertex: connected,
        # leafless, no even cycle, but the odd cycle condition fails
        G = build_graph(
            7,
            [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1),
             (1, 7, 1), (4, 7, 1)],
        )
        assert not has_even_cycle(G)
        assert not odd_cycle_condition(G)[0]
        assert classify_compact(G).tag == "not_compact"

    def test_stem_joined_bouquets_no_path(self):
        G = build_graph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1), (1, 4, 1)])
        result = classify_compact(G)
        assert result.tag == "two_bouquets"
        assert result.stems == (1, 4)
        assert result.has_even_path is False

    def test_stem_joined_bouquets_with_even_path(self):
        # two triangles, stems 1 and 4 joined by an edge and by a 2-path via 7
        G = build_graph(
            7,
            [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1),
             (1, 4, 1), (1, 7, 1), (4, 7, 1)],
        )
        result = classify_compact(G)
        assert result.tag == "two_bouquets"
        assert result.stems == (1, 4)
        assert result.has_even_path is True

    def test_three_bouquets(self):
        # stem triangle 1-2-3, one triangle hanging off each stem
        G = build_graph(
            9,
            [(1, 2, 1), (2, 3, 1), (1, 3, 1),
             (1, 4, 1), (4, 5, 1), (1, 5, 1),
             (2, 6, 1), (6, 7, 1), (2, 7, 1),
             (3, 8, 1), (8, 9, 1), (3, 9, 1)],
        )
        result = classify_compact(G)
        assert result.tag == "three_bouquets"
        assert result.stems == (1, 2, 3)

    def test_bouquet_of_two_triangles(self):
        G = build_graph(5, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
        result = classify_compact(G)
        assert result.tag == "bouquet"
        assert result.stems == (3,)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError, match="disconnected"):
            classify_compact(disjoint_union(triangle(), triangle()))

    def test_disconnected_message_counts_components(self):
        # Vertex 1 is isolated in the second graph, so reachability from it
        # sees one vertex; the count still comes from every component.
        cases = [
            (disjoint_union(triangle(), triangle()), 2),
            (build_graph(5, [(2, 3, 1), (3, 4, 1), (2, 4, 1)]), 3),
        ]
        for G, count in cases:
            with pytest.raises(GraphError) as caught:
                classify_compact(G)
            assert str(caught.value) == f"graph is disconnected ({count} components)"

    def test_leaf_rejected(self):
        G = build_graph(4, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1)])
        with pytest.raises(GraphError, match="leaf"):
            classify_compact(G)

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError, match="edge"):
            classify_compact(WeightedGraph(1))

    def test_membership_matches_definition_exhaustive_small(self):
        for n in (3, 4, 5):
            for G in all_graphs(n):
                if len(connected_components(G)) != 1:
                    continue
                if any(G.degree(v) <= 1 for v in G.vertices()):
                    continue
                result = classify_compact(G)
                compact = not brute_has_even_cycle(G) and odd_cycle_condition(G)[0]
                assert (result.tag != "not_compact") == compact

    def test_membership_matches_definition_random(self):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            G = random_graph(rng, n_min=4, n_max=8, weights=(1,), p=0.4)
            if len(connected_components(G)) != 1:
                continue
            if any(G.degree(v) <= 1 for v in G.vertices()):
                continue
            checked += 1
            result = classify_compact(G)
            compact = not brute_has_even_cycle(G) and odd_cycle_condition(G)[0]
            assert (result.tag != "not_compact") == compact

    def test_random_cactus_matches_definition(self):
        # 8..30 vertices, past criterion 10's exhaustive n <= 7; every
        # three_bouquets graph has at least 9 vertices.
        rng = random.Random(29)
        seen = {}
        for _ in range(1500):
            G = random_cactus(rng)
            result = classify_compact(G)
            compact = not brute_has_even_cycle(G) and odd_cycle_condition(G)[0]
            assert (result.tag != "not_compact") == compact, G
            if result.tag == "two_bouquets":
                s1, s2 = result.stems
                not_bridge = len(connected_components(remove_edge(G, s1, s2))) == 1
                assert result.has_even_path == not_bridge, G
            key = (result.tag, result.has_even_path)
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 5 and min(seen.values()) >= 5, seen

    def test_one_block_pass_and_no_cycle_enumeration(self, monkeypatch):
        blocks = nil.wgraph.biconnected_blocks
        calls = []

        def spy_blocks(G):
            calls.append("blocks")
            return blocks(G)

        def spy_cycles(G, *args, **kwargs):
            calls.append("cycles")
            return []

        monkeypatch.setattr(nil.wgraph, "biconnected_blocks", spy_blocks)
        monkeypatch.setattr(nil.wgraph, "chordless_cycles", spy_cycles)
        rng = random.Random(31)
        tags = set()
        for _ in range(1000):
            G = random_cactus(rng)
            calls.clear()
            tags.add(classify_compact(G).tag)
            assert calls in ([], ["blocks"]), calls
        assert tags == {"not_compact", "bouquet", "two_bouquets", "three_bouquets"}

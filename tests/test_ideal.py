import random
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nil.closure import closure_power_generators
from nil.errors import GraphError, IdealError, ResourceLimitError
from nil.ideal import (
    MonomialIdeal,
    contains,
    contains_power,
    divides,
    edge_ideal,
    minimalize,
    power,
    restrict,
    support,
)
from nil.wgraph import WeightedGraph, build_graph

from _oracles import (
    brute_minimalize,
    exp_add,
    random_exponent,
    random_graph_with_edge,
    random_ideal,
)

exponents = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)


def exponent_sets(n):
    return st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
        min_size=1,
        max_size=6,
    )


class TestMonomialIdeal:
    def test_rejects_non_antichain(self):
        with pytest.raises(IdealError, match="antichain"):
            MonomialIdeal(2, [(1, 1), (2, 2)])

    def test_rejects_negative_entries(self):
        with pytest.raises(IdealError):
            MonomialIdeal(2, [(1, -1)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(IdealError):
            MonomialIdeal(2, [(1, 1, 1)])

    def test_rejects_bool(self):
        with pytest.raises(IdealError, match="exponent entries"):
            MonomialIdeal(2, [(True, 1)])
        with pytest.raises(IdealError, match="ambient"):
            MonomialIdeal(True, [(1,)])

    def test_sorted_deterministically(self):
        I = MonomialIdeal(2, [(0, 2), (2, 0), (1, 1)])
        assert I.gens == ((0, 2), (1, 1), (2, 0))

    def test_zero_ideal_sentinel(self):
        assert MonomialIdeal(3, []).is_zero

    def test_zero_ideal_has_no_power(self):
        zero = MonomialIdeal(3, [])
        with pytest.raises(IdealError, match="power of the zero ideal"):
            power(zero, 2)
        # nothing, not even 1 = x^0, lies in a power of the zero ideal
        for a in ((0, 0, 0), (5, 5, 5)):
            assert not contains_power(zero, a, 1)

    def test_antichain_check_matches_all_pairs(self):
        # Mixed degrees, so the degree-ordered check meets every case: a
        # divisor of lower degree, equal-degree incomparable pairs, repeats.
        rng = random.Random(23)
        raised = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            gens = {random_exponent(rng, n, 3) for _ in range(rng.randint(1, 7))}
            brute = any(g != h and divides(h, g) for g in gens for h in gens)
            try:
                MonomialIdeal(n, gens)
            except IdealError as exc:
                assert brute and "antichain" in str(exc)
                raised += 1
            else:
                assert not brute
        assert 50 < raised < 350


class TestEdgeIdeal:
    def test_single_weighted_edge(self):
        G = build_graph(2, [(1, 2, 2)])
        assert edge_ideal(G).gens == ((2, 2),)

    def test_triangle(self):
        G = build_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert edge_ideal(G).gens == ((0, 1, 1), (1, 0, 1), (1, 1, 0))

    def test_weighted_path(self):
        G = build_graph(3, [(1, 2, 2), (2, 3, 3)])
        assert edge_ideal(G).gens == ((0, 3, 3), (2, 2, 0))

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError, match="zero ideal"):
            edge_ideal(WeightedGraph(3))


class TestMinimalize:
    def test_divisible_dropped(self):
        assert minimalize({(1, 1), (2, 2)}).gens == ((1, 1),)

    def test_antichain_unchanged(self):
        gens = {(2, 0), (0, 2), (1, 1)}
        assert set(minimalize(gens).gens) == gens

    def test_empty_rejected(self):
        with pytest.raises(IdealError, match="empty"):
            minimalize(set())

    @given(exponent_sets(3))
    def test_idempotent_and_matches_definition(self, exps):
        once = minimalize(exps)
        assert minimalize(once.gens) == once
        assert once == brute_minimalize(exps)

    @given(exponent_sets(2), st.randoms(use_true_random=False))
    def test_order_independent(self, exps, rng):
        shuffled = list(exps)
        rng.shuffle(shuffled)
        assert minimalize(exps) == minimalize(shuffled)


class TestPower:
    def test_principal_square(self):
        assert power(MonomialIdeal(2, [(1, 1)]), 2).gens == ((2, 2),)

    def test_triangle_square(self):
        I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
        expected = {(2, 2, 0), (0, 2, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1), (1, 1, 2)}
        assert set(power(I, 2).gens) == expected

    def test_power_one_is_identity(self):
        I = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
        assert power(I, 1) == I

    def test_zero_exponent_rejected(self):
        for t in (0, True):
            with pytest.raises(IdealError, match="power exponent"):
                power(MonomialIdeal(2, [(1, 1)]), t)
            with pytest.raises(IdealError, match="power exponent"):
                contains_power(MonomialIdeal(2, [(1, 1)]), (1, 1), t)

    def test_additivity(self):
        rng = random.Random(5)
        for _ in range(40):
            I = random_ideal(rng)
            for s, t in ((1, 1), (1, 2), (2, 1)):
                left = power(I, s + t)
                sums = {
                    exp_add(a, b)
                    for a in power(I, s).gens
                    for b in power(I, t).gens
                }
                assert left == minimalize(sums)

    def test_equal_degree_sums_skip_divisibility(self, monkeypatch):
        import nil.ideal

        calls = []

        def spy(x, y):
            calls.append(1)
            return x <= y

        # Divisibility is all(map(le, g, a)), in divides and inlined in
        # first_divisor, so the spy counts entry comparisons.
        monkeypatch.setattr(nil.ideal, "le", spy)
        K6 = build_graph(6, [(u, v, 1) for u in range(1, 7) for v in range(u + 1, 7)])
        assert len(power(edge_ideal(K6), 4).gens) == 951
        # 1,355,385 divides calls when every sum was compared with every
        # kept one.
        assert len(calls) < 10**4
        # Sums of mixed degrees are compared, and the spy sees it.
        calls.clear()
        assert power(edge_ideal(build_graph(3, [(1, 2, 1), (2, 3, 2)])), 2).gens == (
            (0, 4, 4),
            (1, 3, 2),
            (2, 2, 0),
        )
        assert calls

    def test_matches_the_definition(self):
        # I^t is the minimal elements of all sums of t generators.
        rng = random.Random(17)
        for i in range(60):
            if i % 2:
                I = random_ideal(rng)
            else:
                I = edge_ideal(random_graph_with_edge(rng, n_max=4))
            for t in (2, 3, 4):
                sums = [
                    tuple(map(sum, zip(*combo)))
                    for combo in combinations_with_replacement(I.gens, t)
                ]
                assert power(I, t) == brute_minimalize(sums)

    def test_mixed_weight_complete_graph(self):
        rng = random.Random(0)
        K8 = build_graph(
            8, [(u, v, rng.choice((1, 2, 3))) for u, v in combinations(range(1, 9), 2)]
        )
        assert len(power(edge_ideal(K8), 3).gens) == 1293


class TestContains:
    def test_examples(self):
        I = MonomialIdeal(3, [(2, 2, 0), (0, 3, 3)])
        assert contains(I, (2, 3, 0))
        assert not contains(I, (1, 2, 1))
        assert contains(I, (2, 2, 0))

    def test_length_mismatch(self):
        with pytest.raises(IdealError):
            contains(MonomialIdeal(2, [(1, 1)]), (1, 1, 1))

    @given(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
        st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
    )
    def test_monotone(self, a, delta):
        I = MonomialIdeal(3, [(2, 1, 0), (0, 1, 2), (1, 0, 1)])
        bigger = exp_add(a, delta)
        if contains(I, a):
            assert contains(I, bigger)


class TestContainsPower:
    def test_f4_witness_not_in_square(self):
        I = MonomialIdeal(5, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 2, 2)])
        assert not contains_power(I, (1, 1, 1, 1, 1), 2)

    def test_sums_of_generators_always_in(self):
        I = MonomialIdeal(5, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 2, 2)])
        for a in I.gens:
            for b in I.gens:
                assert contains_power(I, exp_add(a, b), 2)

    def test_t_one_agrees_with_contains(self):
        rng = random.Random(9)
        for _ in range(60):
            I = random_ideal(rng)
            a = random_exponent(rng, I.n, entry_max=5)
            assert contains_power(I, a, 1) == contains(I, a)

    def test_brute_force_equivalence(self):
        rng = random.Random(29)
        for _ in range(250):
            I = random_ideal(rng, n_max=5)
            t = rng.randint(1, 3)
            pt = power(I, t)
            a = random_exponent(rng, I.n, entry_max=6)
            assert contains_power(I, a, t) == contains(pt, a)

    def test_exhaustive_tiny(self):
        I = MonomialIdeal(2, [(2, 1), (0, 3)])
        for t in (1, 2, 3):
            pt = power(I, t)
            for a in product(range(7), repeat=2):
                assert contains_power(I, a, t) == contains(pt, a)

    def test_unit_ideal_contains_every_monomial(self):
        I = MonomialIdeal(2, [(0, 0)])
        assert contains_power(I, (0, 0), 3)
        assert contains_power(I, (2, 1), 1)

    def test_search_deeper_than_the_recursion_limit(self):
        # A perfect matching of 1,100 disjoint edges: one search node per
        # edge, and about 6 * 10^5 generator checks in all.
        m = 1100
        I = edge_ideal(build_graph(2 * m, [(2 * i - 1, 2 * i, 1) for i in range(1, m + 1)]))
        assert contains_power(I, (1,) * (2 * m), m)

    def test_long_search_hits_the_budget(self):
        # Two disjoint 1001-cycles and their all-ones vector at t = 1001:
        # no perfect matching exists, and the search used to run past the
        # recursion limit.
        L = 1001
        edges = [(c + i, c + i % L + 1, 1) for c in (0, L) for i in range(1, L + 1)]
        I = edge_ideal(build_graph(2 * L, edges))
        with pytest.raises(ResourceLimitError, match="budget"):
            contains_power(I, (1,) * (2 * L), L)


class TestRestrict:
    def test_drop_unsupported_generator(self):
        I = MonomialIdeal(3, [(2, 2, 0), (0, 3, 3)])
        assert restrict(I, {1, 2}).gens == ((2, 2, 0),)

    def test_full_set_identity(self):
        I = MonomialIdeal(3, [(2, 2, 0), (0, 3, 3)])
        assert restrict(I, {1, 2, 3}) == I

    def test_empty_gives_zero_ideal(self):
        I = MonomialIdeal(3, [(2, 2, 0), (0, 3, 3)])
        assert restrict(I, set()).is_zero

    def test_out_of_range(self):
        for V in ({3}, {True, 2}):
            with pytest.raises(IdealError):
                restrict(MonomialIdeal(2, [(1, 1)]), V)

    def test_commutes_with_power(self):
        rng = random.Random(31)
        checked = 0
        while checked < 50:
            I = random_ideal(rng)
            V = {v for v in range(1, I.n + 1) if rng.random() < 0.6}
            IV = restrict(I, V)
            if IV.is_zero:
                continue
            checked += 1
            for k in (2, 3):
                assert restrict(power(I, k), V) == power(IV, k)


class TestLibraryIdeals:
    def test_built_without_entry_checks(self, monkeypatch):
        # The library's own ideals are built through _minimal_ideal: none of
        # these calls runs the public constructor, and each result is the
        # ideal the constructor would build from its generators.
        rng = random.Random(26)
        graphs = [random_graph_with_edge(rng, n_max=6, weights=(1, 2, 3)) for _ in range(30)]
        ideals = [edge_ideal(G) for G in graphs]
        cases = []
        for G, I in zip(graphs, ideals):
            V = {v for v in range(1, G.n + 1) if rng.random() < 0.5}
            cases += [
                ("edge_ideal", edge_ideal, G),
                ("restrict to V", lambda I, V=V: restrict(I, V), I),
                ("restrict to nothing", lambda I: restrict(I, set()), I),
                ("restrict to all", lambda I: restrict(I, range(1, I.n + 1)), I),
                ("power 2", lambda I: power(I, 2), I),
                ("power 3", lambda I: power(I, 3), I),
                ("closure at k = 2", lambda I: closure_power_generators(I, 2), I),
            ]
        calls = []
        init = MonomialIdeal.__init__

        def spy(self, n, gens):
            calls.append((n, gens))
            init(self, n, gens)

        monkeypatch.setattr(MonomialIdeal, "__init__", spy)
        results = []
        for name, call, arg in cases:
            results.append((name, call(arg)))
            assert calls == [], name
        monkeypatch.undo()
        for name, result in results:
            assert result == MonomialIdeal(result.n, result.gens), name
        for G, I in zip(graphs, ideals):
            # one generator per edge: (x_u x_v)^w
            assert set(I.gens) == {
                tuple(w if i in (u, v) else 0 for i in range(1, G.n + 1))
                for (u, v), w in G.edges.items()
            }


class TestSupport:
    def test_examples(self):
        assert support((2, 0, 1)) == {1, 3}
        assert support((0, 0)) == frozenset()
        assert support((1, 1, 1)) == {1, 2, 3}

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import nil.closure
from nil.closure import (
    DEFAULT_BOX_BUDGET,
    ClosureOracle,
    closure_power_generators,
    in_closure_power,
    is_power_integrally_closed,
    lp_max_weight,
    normality_scan,
    rebalance_even_cycle,
)
from nil.errors import IdealError, ResourceLimitError
from nil.ideal import (
    MonomialIdeal,
    contains,
    divides,
    edge_ideal,
    minimalize,
    power,
    restrict,
)
from nil.wgraph import build_graph

from _oracles import (
    fm_max_total,
    product_scan,
    random_exponent,
    random_graph_with_edge,
    random_ideal,
)

F1_IDEAL = MonomialIdeal(3, [(2, 2, 0), (0, 2, 2)])
F4_IDEAL = MonomialIdeal(5, [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (0, 0, 0, 2, 2)])


def brute_closure_gens(I, k, extra=0):
    """Independent closure scan: widened box, membership by FM, then a
    definition-level minimalization."""
    bounds = [k * max(g[i] for g in I.gens) + extra for i in range(I.n)]
    members = [
        a
        for a in product(*[range(b + 1) for b in bounds])
        if any(a) and fm_max_total(I.gens, a) >= k
    ]
    return minimalize(members)


class TestLpMaxWeight:
    def test_two_heavy_edges(self):
        result = lp_max_weight(F1_IDEAL, (1, 2, 1))
        assert result.optimum == 1
        assert result.coeffs == (Fraction(1, 2), Fraction(1, 2))

    def test_single_generator(self):
        assert lp_max_weight(MonomialIdeal(2, [(2, 2)]), (1, 1)).optimum == Fraction(1, 2)

    def test_triangle_plus_heavy_edge(self):
        result = lp_max_weight(F4_IDEAL, (1, 1, 1, 1, 1))
        assert result.optimum == 2
        assert result.coeffs == (Fraction(1, 2),) * 4

    def test_zero_exponent(self):
        assert lp_max_weight(F1_IDEAL, (0, 0, 0)).optimum == 0

    def test_zero_ideal_rejected(self):
        with pytest.raises(IdealError, match="nonzero"):
            lp_max_weight(MonomialIdeal(2, []), (1, 1))

    def test_unit_ideal_rejected(self):
        with pytest.raises(IdealError, match="unit"):
            lp_max_weight(MonomialIdeal(2, [(0, 0)]), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(IdealError, match="length"):
            lp_max_weight(F1_IDEAL, (1, 1))

    def test_soundness_on_random_instances(self):
        rng = random.Random(47)
        for _ in range(200):
            I = random_ideal(rng, n_max=5, max_gens=5)
            a = random_exponent(rng, I.n, entry_max=7)
            result = lp_max_weight(I, a)
            assert sum(result.coeffs) == result.optimum
            for i in range(I.n):
                assert sum(c * g[i] for c, g in zip(result.coeffs, I.gens)) <= a[i]

    def test_monotone_in_exponent(self):
        rng = random.Random(53)
        for _ in range(80):
            I = random_ideal(rng)
            a = random_exponent(rng, I.n)
            bigger = tuple(x + rng.randint(0, 2) for x in a)
            assert lp_max_weight(I, a).optimum <= lp_max_weight(I, bigger).optimum

    def test_agrees_with_fourier_motzkin(self):
        rng = random.Random(59)
        for _ in range(150):
            I = random_ideal(rng, n_max=3, max_gens=3)
            a = random_exponent(rng, I.n, entry_max=6)
            assert lp_max_weight(I, a).optimum == fm_max_total(I.gens, a)

    def test_dual_certifies_the_optimum(self):
        result = lp_max_weight(F4_IDEAL, (1, 1, 1, 1, 1))
        assert all(y >= 0 for y in result.dual)
        for g in F4_IDEAL.gens:
            assert sum(y * x for y, x in zip(result.dual, g)) >= 1
        assert sum(result.dual) == result.optimum

    def test_two_disjoint_long_odd_cycles(self):
        # A sparse LP with 202 generators and 202 rows: each 101-cycle
        # packs 101/2 edges into the all-ones vector.
        edges = [(i, i % 101 + 1, 1) for i in range(1, 102)]
        edges += [(101 + i, 101 + i % 101 + 1, 1) for i in range(1, 102)]
        I = edge_ideal(build_graph(202, edges))
        assert lp_max_weight(I, (1,) * 202).optimum == 101

    def test_suboptimal_simplex_is_rejected(self, monkeypatch):
        import nil.simplex

        real = nil.simplex.maximize_total

        def suboptimal(columns, rhs):
            # A feasible primal point (all zeros) below the true optimum,
            # returned with the true optimum's dual.
            _, (C, _), cut = real(columns, rhs)
            return (0, 1), ((0,) * len(C), 1), cut

        monkeypatch.setattr(nil.simplex, "maximize_total", suboptimal)
        with pytest.raises(RuntimeError, match="dual"):
            lp_max_weight(F1_IDEAL, (1, 2, 1))


class TestInClosurePower:
    def test_f1_witness(self):
        assert in_closure_power(F1_IDEAL, (1, 2, 1), 1)

    def test_f4_witness(self):
        assert in_closure_power(F4_IDEAL, (1, 1, 1, 1, 1), 2)

    def test_power_generators_are_members(self):
        rng = random.Random(61)
        for _ in range(25):
            I = random_ideal(rng, n_max=4, max_gens=3)
            for k in (1, 2, 3):
                for g in power(I, k).gens:
                    assert in_closure_power(I, g, k)

    def test_bad_power(self):
        with pytest.raises(IdealError):
            in_closure_power(F1_IDEAL, (1, 1, 1), 0)

    def test_matches_closure_generators(self):
        # membership iff dominated by some generator of the closure
        rng = random.Random(67)
        for _ in range(20):
            I = random_ideal(rng, n_max=3, max_gens=3)
            k = rng.randint(1, 2)
            gens = closure_power_generators(I, k).gens
            bounds = [k * max(g[i] for g in I.gens) for i in range(I.n)]
            for a in product(*[range(b + 1) for b in bounds]):
                member = in_closure_power(I, a, k)
                assert member == any(divides(g, a) for g in gens)


class TestClosurePowerGenerators:
    def test_squarefree_principal(self):
        I = MonomialIdeal(2, [(1, 1)])
        assert closure_power_generators(I, 1) == I

    def test_two_heavy_edges(self):
        assert closure_power_generators(F1_IDEAL, 1).gens == (
            (0, 2, 2),
            (1, 2, 1),
            (2, 2, 0),
        )

    def test_restriction_of_closure(self):
        closed = closure_power_generators(F1_IDEAL, 1)
        restricted = restrict(closed, {1, 2})
        assert restricted.gens == ((2, 2, 0),)
        assert restricted == closure_power_generators(restrict(F1_IDEAL, {1, 2}), 1)

    def test_budget_error_names_bound(self):
        with pytest.raises(ResourceLimitError, match="budget 10"):
            closure_power_generators(F4_IDEAL, 2, box_budget=10)

    def test_matches_brute_force(self):
        rng = random.Random(71)
        for _ in range(25):
            I = random_ideal(rng, n_max=3, max_gens=3)
            k = rng.randint(1, 2)
            assert closure_power_generators(I, k) == brute_closure_gens(I, k)

    def test_box_is_exhaustive_one_layer_out(self):
        # enumerating one layer beyond the box finds no new minimal generators
        rng = random.Random(73)
        for _ in range(12):
            I = random_ideal(rng, n_max=3, max_gens=3, entry_max=2)
            k = rng.randint(1, 2)
            assert brute_closure_gens(I, k) == brute_closure_gens(I, k, extra=1)

    def test_contains_closure_of_power(self):
        rng = random.Random(79)
        for _ in range(20):
            I = random_ideal(rng, n_max=4, max_gens=4)
            closed = closure_power_generators(I, 2)
            for g in power(I, 2).gens:
                assert contains(closed, g)

    def test_restriction_commutes_with_closure(self):
        rng = random.Random(83)
        checked = 0
        while checked < 30:
            I = random_ideal(rng, n_max=4, max_gens=4)
            V = {v for v in range(1, I.n + 1) if rng.random() < 0.7}
            IV = restrict(I, V)
            if IV.is_zero:
                continue
            checked += 1
            for k in (1, 2):
                assert closure_power_generators(IV, k) == restrict(
                    closure_power_generators(I, k), V
                )


class TestIsPowerIntegrallyClosed:
    def test_squarefree_path(self):
        G = build_graph(3, [(1, 2, 1), (2, 3, 1)])
        assert is_power_integrally_closed(edge_ideal(G), 1) == (True, None)

    def test_f1_witness(self):
        assert is_power_integrally_closed(F1_IDEAL, 1) == (False, (1, 2, 1))

    def test_f4_witness(self):
        assert is_power_integrally_closed(F4_IDEAL, 2) == (False, (1, 1, 1, 1, 1))

    def test_witness_is_first_in_canonical_order(self):
        closed, witness = is_power_integrally_closed(F1_IDEAL, 1)
        assert not closed
        failures = [
            g
            for g in closure_power_generators(F1_IDEAL, 1).gens
            if not contains(F1_IDEAL, g)
        ]
        failures.sort(key=lambda g: (sum(g), g))
        assert witness == failures[0]

        # Against the brute-force closure on random ideals, some of whose
        # lex-first failure is not the witness.
        rng = random.Random(113)
        not_closed = order_matters = 0
        for _ in range(40):
            I = random_ideal(rng, n_max=4, max_gens=4, entry_max=3)
            k = rng.randint(1, 2)
            power_gens = set(power(I, k).gens)
            failures = [
                g for g in brute_closure_gens(I, k).gens if g not in power_gens
            ]
            expected = min(failures, key=lambda g: (sum(g), g), default=None)
            assert is_power_integrally_closed(I, k) == (expected is None, expected)
            not_closed += expected is not None
            order_matters += bool(failures) and min(failures) != expected
        assert not_closed >= 5 and order_matters >= 2

    def test_large_box_makes_no_divisor_sweep(self, monkeypatch):
        # the scan calls the `divides` bound in nil.closure
        real = nil.closure.divides
        calls = []

        def spy(g, a):
            calls.append(1)
            return real(g, a)

        monkeypatch.setattr(nil.closure, "divides", spy)
        # A path on 8 vertices with weight-4 edges: a box of 5^8 points.
        I = edge_ideal(build_graph(8, [(i, i + 1, 4) for i in range(1, 8)]))
        assert len(closure_power_generators(I, 1).gens) == 210
        assert is_power_integrally_closed(I, 1) == (False, (0, 0, 0, 0, 0, 1, 4, 3))
        # the spy is reached, so the bound below the box's size can fail
        assert 0 < len(calls) < 10**5

    def test_witness_scan_stops_at_the_best_failure_degree(self, monkeypatch):
        import nil.closure

        original = nil.closure.lp_max_weight
        solves = []

        def spy(I, a):
            solves.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        # The 5^8 box of the weight-4 path on 8 vertices: 211 solves when
        # the scan walks the whole box.
        I = edge_ideal(build_graph(8, [(i, i + 1, 4) for i in range(1, 8)]))
        assert is_power_integrally_closed(I, 1) == (False, (0, 0, 0, 0, 0, 1, 4, 3))
        assert len(solves) <= 5

    def test_witness_at_the_minimum_degree_ends_the_walk(self, monkeypatch):
        import nil.closure

        real = nil.closure._staircase_rows
        drawn = []

        def counting_rows(up, width):
            for start, length in real(up, width):
                drawn.append(length)
                yield start, length

        monkeypatch.setattr(nil.closure, "_staircase_rows", counting_rows)
        # The 5^9 box of the weight-4 path on 9 vertices: its witness has
        # the minimum degree 8, so no later point can replace it.
        I = edge_ideal(build_graph(9, [(i, i + 1, 4) for i in range(1, 9)]))
        assert is_power_integrally_closed(I, 1) == (False, (0, 0, 0, 0, 0, 0, 1, 4, 3))
        assert 0 < sum(drawn) < 10**4

    def test_witness_matches_the_full_walk(self):
        # The witness scan skips points at or above the best failure's
        # degree; the full walk skips none.  Ties at the witness's degree
        # and lex-first failures of higher degree both occur below.
        rng = random.Random(5)
        not_closed = ties = order_matters = 0
        for _ in range(200):
            I = edge_ideal(random_graph_with_edge(rng, n_max=5, weights=(1, 2, 3)))
            k = rng.randint(1, 2)
            power_gens = set(power(I, k).gens)
            failures = [
                g for g in closure_power_generators(I, k).gens if g not in power_gens
            ]
            expected = min(failures, key=lambda g: (sum(g), g), default=None)
            assert is_power_integrally_closed(I, k) == (expected is None, expected)
            if expected is not None:
                not_closed += 1
                ties += sum(sum(g) == sum(expected) for g in failures) > 1
                order_matters += min(failures) != expected
        assert not_closed >= 50 and ties >= 20 and order_matters >= 20


class TestNormalityScan:
    def test_two_disjoint_triangles(self):
        G = build_graph(6, [(1, 2, 1), (2, 3, 1), (1, 3, 1), (4, 5, 1), (5, 6, 1), (4, 6, 1)])
        verdict = normality_scan(edge_ideal(G), 3)
        assert verdict.status == "counterexample"
        assert verdict.t == 3
        assert verdict.witness == (1, 1, 1, 1, 1, 1)

    def test_single_triangle_is_normal_up_to_three(self):
        G = build_graph(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        verdict = normality_scan(edge_ideal(G), 3)
        assert verdict.status == "normal_up_to"
        assert verdict.t == 3
        assert verdict.witness is None

    def test_f1_fails_at_one(self):
        verdict = normality_scan(F1_IDEAL, 1)
        assert verdict.status == "counterexample"
        assert verdict.t == 1
        assert verdict.witness == (1, 2, 1)

    def test_budget_error_names_power(self):
        with pytest.raises(ResourceLimitError, match="power t=2"):
            normality_scan(F4_IDEAL, 3, box_budget=100)

    def test_dual_cuts_save_lp_solves(self, monkeypatch):
        import nil.closure

        original = nil.closure.lp_max_weight
        solves = []

        def spy(I, a):
            solves.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        verdict = normality_scan(F4_IDEAL, 3)
        assert (verdict.status, verdict.t) == ("counterexample", 2)
        assert verdict.witness == (1, 1, 1, 1, 1)
        # 119 solves with one LP per box point; 9 plus the witness re-check
        # with the dual cuts.
        assert len(solves) <= 20

    def test_counterexample_witness_always_verifies(self):
        from nil.ideal import contains_power

        rng = random.Random(89)
        seen = 0
        while seen < 10:
            I = random_ideal(rng, n_max=4, max_gens=4)
            verdict = normality_scan(I, 2)
            if verdict.status != "counterexample":
                continue
            seen += 1
            assert in_closure_power(I, verdict.witness, verdict.t)
            assert not contains_power(I, verdict.witness, verdict.t)


class TestClosureOracle:
    def test_shared_cuts_save_lp_solves(self, monkeypatch):
        import nil.closure

        original = nil.closure.lp_max_weight
        solves = []

        def spy(I, a):
            solves.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        for scan in (is_power_integrally_closed, closure_power_generators):
            oracle = ClosureOracle(F4_IDEAL)
            shared = [scan(oracle, 1), scan(oracle, 2)]
            shared_solves = len(solves)
            solves.clear()
            fresh = [scan(F4_IDEAL, 1), scan(F4_IDEAL, 2)]
            # 15 solves for the two powers on fresh oracles; 9 through one.
            assert shared == fresh and shared_solves < len(solves)
            assert oracle.cuts
            solves.clear()

    def test_same_answers_as_an_ideal(self):
        rng = random.Random(97)
        for _ in range(15):
            I = random_ideal(rng, n_max=4, max_gens=4)
            oracle = ClosureOracle(I)
            for k in (1, 2):
                assert closure_power_generators(oracle, k) == closure_power_generators(I, k)
                assert is_power_integrally_closed(oracle, k) == is_power_integrally_closed(I, k)

    def test_each_power_built_once(self, power_calls):
        oracle = ClosureOracle(F4_IDEAL)
        square = oracle.power(2)
        is_power_integrally_closed(oracle, 2)
        closure_power_generators(oracle, 2)
        assert oracle.power(2) is square
        assert power_calls == [2]

    def test_box_refused_before_the_power_is_built(self, power_calls):
        with pytest.raises(ResourceLimitError, match="power t=2: box volume"):
            closure_power_generators(F4_IDEAL, 2, box_budget=10)
        with pytest.raises(ResourceLimitError, match="budget 10"):
            is_power_integrally_closed(ClosureOracle(F4_IDEAL), 2, box_budget=10)
        assert power_calls == []

    def test_rejects_bad_input(self):
        with pytest.raises(IdealError, match="nonzero"):
            ClosureOracle(MonomialIdeal(2, []))
        with pytest.raises(IdealError, match="unit"):
            ClosureOracle(MonomialIdeal(2, [(0, 0)]))
        for k in (0, -1, 1.5, "2", True):
            with pytest.raises(IdealError, match="power must be a positive integer"):
                ClosureOracle(F1_IDEAL).scan(k, 100)
        for t_max in (0, True):
            with pytest.raises(IdealError, match="t_max must be a positive integer"):
                normality_scan(F1_IDEAL, t_max=t_max)

    def test_rejects_a_bad_box_budget(self, power_calls):
        for budget in (None, "100", 1e7, True, 0, -1):
            with pytest.raises(IdealError, match="box_budget must be a positive integer"):
                closure_power_generators(F1_IDEAL, 1, box_budget=budget)
            with pytest.raises(IdealError, match="box_budget must be a positive integer"):
                is_power_integrally_closed(ClosureOracle(F4_IDEAL), 2, box_budget=budget)
            with pytest.raises(IdealError, match="box_budget must be a positive integer"):
                normality_scan(F4_IDEAL, box_budget=budget)
        assert power_calls == []


def assert_same_as_the_product_walk(walk, plain, k, witness_only):
    """walk.scan and product_scan on plain: the same failures and cuts, and
    in a full scan the same generators.  Returns the failures."""
    found, failures = walk.scan(k, DEFAULT_BOX_BUDGET, witness_only)
    expected_found, expected_failures = product_scan(plain, k, witness_only)
    assert failures == expected_failures
    assert walk.cuts == plain.cuts
    if not witness_only:
        assert sorted(found) == sorted(expected_found)
    return failures


class TestStaircaseWalk:
    def test_up_set_matches_divisibility(self):
        rng = random.Random(131)
        for _ in range(150):
            I = random_ideal(rng, n_max=4, max_gens=4)
            k = rng.randint(1, 3)
            gens = power(I, k).gens
            bounds = [k * max(g[i] for g in I.gens) for i in range(I.n)]
            volume = prod(b + 1 for b in bounds)
            strides = [prod(b + 1 for b in bounds[i + 1 :]) for i in range(I.n)]
            up = nil.closure._upper_set(gens, bounds, strides, volume)
            expected = "".join(
                "1" if any(divides(g, a) for g in gens) else "0"
                for a in product(*[range(b + 1) for b in bounds])
            )
            assert format(up, f"0{volume}b") == expected
            # the scan reads rows off the unpadded string, past "0b1"
            width = bounds[-1] + 1
            rows = [
                (start, row.index("1") if "1" in row else width)
                for start in range(0, volume, width)
                for row in [expected[start : start + width]]
                if row[0] == "0"
            ]
            assert list(nil.closure._staircase_rows(bin(up | 1 << volume), width)) == rows

    def test_matches_the_product_walk(self):
        # The staircase walk solves the LPs of the walk of the whole box, in
        # the same order: same failures, same cuts, and in a full scan the
        # same generators.  One oracle serves k = 1..3, so cuts carry over.
        rng = random.Random(137)
        with_failures = 0
        for _ in range(1000):
            I = random_ideal(rng, n_max=4, max_gens=4, entry_max=2)
            for witness_only in (False, True):
                walk, plain = ClosureOracle(I), ClosureOracle(I)
                for k in (1, 2, 3):
                    failures = assert_same_as_the_product_walk(walk, plain, k, witness_only)
                    with_failures += bool(failures)
        assert with_failures >= 300
        # Edge ideals on 5 and 6 vertices: rows with prefixes over several
        # axes, staircase rows skipped in bulk, and scans that hold enough
        # cuts for the scan's own rule order to part from the oracle's.
        rng = random.Random(157)
        with_failures = 0
        for n, weights, count in ((5, (1, 2, 3), 12), (6, (1, 2), 12)):
            for _ in range(count):
                G = random_graph_with_edge(rng, n_min=n, n_max=n, weights=weights)
                I = edge_ideal(G)
                for witness_only in (False, True):
                    walk, plain = ClosureOracle(I), ClosureOracle(I)
                    for k in (1, 2):
                        failures = assert_same_as_the_product_walk(walk, plain, k, witness_only)
                        with_failures += bool(failures)
        assert with_failures >= 10

    def test_rows_of_256_points_or_more(self):
        # Rows this long keep their marks in a list, not a bytearray.
        rng = random.Random(149)
        wide_failures = 0
        for _ in range(60):
            I = random_ideal(rng, n_max=3, max_gens=3, entry_max=3)
            I = MonomialIdeal(I.n, [g[:-1] + (130 * g[-1],) for g in I.gens])
            for k in (1, 2):
                bounds = nil.closure._box_bounds(I, k)
                width = bounds[max(i for i, b in enumerate(bounds) if b)] + 1
                for witness_only in (False, True):
                    walk, plain = ClosureOracle(I), ClosureOracle(I)
                    failures = assert_same_as_the_product_walk(walk, plain, k, witness_only)
                    wide_failures += width >= 256 and bool(failures)
        assert wide_failures >= 20

    def test_axes_without_room_are_walked_past(self):
        # The last variable never occurs, so rows run along the one before it.
        I = MonomialIdeal(5, [(2, 2, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 1, 1, 0)])
        for k in (1, 2):
            for witness_only in (False, True):
                found, failures = ClosureOracle(I).scan(k, DEFAULT_BOX_BUDGET, witness_only)
                expected = product_scan(ClosureOracle(I), k, witness_only)
                assert failures == expected[1]
                if not witness_only:
                    assert sorted(found) == sorted(expected[0])
        assert is_power_integrally_closed(I, 1) == (False, (1, 2, 1, 0, 0))

    def test_solves_only_outside_the_power(self, monkeypatch):
        original = nil.closure.lp_max_weight
        solved = []

        def spy(I, a):
            solved.append(a)
            return original(I, a)

        monkeypatch.setattr(nil.closure, "lp_max_weight", spy)
        rng = random.Random(139)
        total = 0
        for _ in range(150):
            I = random_ideal(rng, n_max=4, max_gens=4)
            oracle = ClosureOracle(I)
            for k in (1, 2, 3):
                for witness_only in (False, True):
                    solved.clear()
                    oracle.scan(k, DEFAULT_BOX_BUDGET, witness_only)
                    power_gens = oracle.power(k).gens
                    assert not any(divides(g, a) for a in solved for g in power_gens)
                    total += len(solved)
        assert total >= 100


class TestRebalanceEvenCycle:
    def gens(self, m, first_weight=1):
        out = []
        for j in range(m):
            g = [0] * m
            w = first_weight if j == 0 else 1
            g[j] = w
            g[(j + 1) % m] = w
            out.append(tuple(g))
        return out

    def weighted_sum(self, coeffs, gens):
        n = len(gens[0])
        return tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)
        )

    def test_trivial_four_cycle(self):
        beta = [Fraction(1), Fraction(2), Fraction(1), Fraction(3)]
        gamma = rebalance_even_cycle(beta, trivial_variant=True)
        assert sum(gamma) == 7
        assert 0 in gamma
        gens = self.gens(4)
        assert self.weighted_sum(gamma, gens) == self.weighted_sum(beta, gens)

    def test_constant_beta_zeroes_alternating(self):
        for m in (4, 6, 8):
            beta = [Fraction(5)] * m
            gamma = rebalance_even_cycle(beta, trivial_variant=True)
            assert sum(gamma) == 5 * m
            assert gamma[1::2] == [Fraction(0)] * (m // 2)

    def test_nontrivial_four_cycle(self):
        gamma = rebalance_even_cycle(
            [Fraction(1)] * 4, trivial_variant=False, a_weight=2
        )
        assert gamma == [Fraction(0), Fraction(2), Fraction(0), Fraction(2)]
        gens = self.gens(4, first_weight=2)
        old = self.weighted_sum([Fraction(1)] * 4, gens)
        new = self.weighted_sum(gamma, gens)
        assert all(x <= y for x, y in zip(new, old))

    def test_errors(self):
        with pytest.raises(IdealError, match="positive"):
            rebalance_even_cycle([Fraction(1), Fraction(0), Fraction(1), Fraction(1)])
        with pytest.raises(IdealError, match="even cycle"):
            rebalance_even_cycle([Fraction(1)] * 5)
        for a_weight in (None, 1, 2.0):
            with pytest.raises(IdealError, match="weight"):
                rebalance_even_cycle([Fraction(1)] * 4, trivial_variant=False, a_weight=a_weight)

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_conclusions_on_random_betas(self, m):
        rng = random.Random(97 + m)
        gens_trivial = self.gens(m)
        for _ in range(100):
            beta = [
                Fraction(rng.randint(1, 40), rng.randint(1, 12)) for _ in range(m)
            ]
            gamma = rebalance_even_cycle(beta, trivial_variant=True)
            assert sum(gamma) == sum(beta)
            assert any(g == 0 for g in gamma)
            assert all(g >= 0 for g in gamma)
            assert self.weighted_sum(gamma, gens_trivial) == self.weighted_sum(
                beta, gens_trivial
            )
            a = rng.randint(2, 5)
            gens_heavy = self.gens(m, first_weight=a)
            gamma = rebalance_even_cycle(beta, trivial_variant=False, a_weight=a)
            assert sum(gamma) == sum(beta)
            assert any(g == 0 for g in gamma)
            assert all(g >= 0 for g in gamma)
            new = self.weighted_sum(gamma, gens_heavy)
            old = self.weighted_sum(beta, gens_heavy)
            assert all(x <= y for x, y in zip(new, old))

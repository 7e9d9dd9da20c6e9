import random
from fractions import Fraction
from itertools import product

import pytest

from nil.closure import (
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

from _oracles import fm_max_total, random_exponent, random_ideal

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

    def test_suboptimal_simplex_is_rejected(self, monkeypatch):
        import nil.simplex

        real = nil.simplex.maximize_total

        def suboptimal(columns, rhs):
            # A feasible primal point (all zeros) below the true optimum,
            # returned with the true optimum's dual.
            _, coeffs, dual = real(columns, rhs)
            return Fraction(0), [Fraction(0)] * len(coeffs), dual

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
        with pytest.raises(IdealError, match="weight"):
            rebalance_even_cycle([Fraction(1)] * 4, trivial_variant=False)

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

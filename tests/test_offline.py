import random
from fractions import Fraction

import pytest

from rationd.flow import solve_profitable_flow
from rationd.model import (
    Agent,
    Allocation,
    Category,
    Instance,
    check_allocation,
    total_utility,
)
from rationd.offline import (
    OracleBudgetExceeded,
    TieBreakOrder,
    build_model1_network,
    solve_exact_oracle,
    solve_offline_model1,
    solve_offline_tiebroken,
)
from rationd.analysis import wasted_slots

from helpers import random_instance, tight_general, tight_model1
from oracles import best_utility, iter_allocations, allocation_value


class TestNetworkShape:
    def test_node_count_two_days_three_cats_three_agents(self):
        inst = Instance(
            agents=tuple(
                Agent(f"a{i}", Fraction(1, 2), (True, True), frozenset({f"c{i}"})) for i in (1, 2, 3)
            ),
            categories=tuple(Category(f"c{i}", (1, 1)) for i in (1, 2, 3)),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(19, 20),
        )
        network, _ = build_model1_network(inst)
        assert network.num_nodes == 1 + 2 + 6 + 3 + 1

    def test_agent_available_nowhere_has_no_incoming_arcs(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (False, False), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True, True), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        network, rmap = build_model1_network(inst)
        isolated = rmap.agent_nodes["a1"]
        assert all(arc.head != isolated for arc in network.arcs)

    def test_minimal_instance_has_four_arcs(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"})),),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        network, _ = build_model1_network(inst)
        assert len(network.arcs) == 4

    def test_assignment_arcs_respect_eligibility_and_availability(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng)
            _, rmap = build_model1_network(inst)
            agents = inst.agent_map()
            for agent_id, cat_id, day in rmap.assignment_arcs.values():
                assert agents[agent_id].availability[day - 1]
                assert cat_id in agents[agent_id].eligible


class TestOfflineSolver:
    def test_tight_example_utility(self):
        inst = tight_model1(discount=Fraction(19, 20), priority=Fraction(1, 2))
        alloc = solve_offline_model1(inst)
        assert total_utility(inst, alloc) == Fraction(1, 2) * (1 + Fraction(19, 20)) == Fraction(39, 40)

    def test_nobody_available_gives_empty_allocation(self):
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (False,), frozenset({"c1"})) for i in range(3)),
            categories=(Category("c1", (2,)),),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(1, 2),
        )
        alloc = solve_offline_model1(inst)
        assert alloc.matched_count() == 0
        assert total_utility(inst, alloc) == 0

    def test_two_agent_instance_reaches_known_maximum(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"})),
                Agent("a2", Fraction(9, 10), (True, False), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        alloc = solve_offline_model1(inst)
        assert total_utility(inst, alloc) == Fraction(23, 20)

    def test_rejects_overall_quotas(self):
        with pytest.raises(ValueError, match="overall quotas"):
            solve_offline_model1(tight_general())

    def test_flow_cost_matches_allocation_utility(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng)
            network, rmap = build_model1_network(inst)
            result = solve_profitable_flow(network)
            alloc_from_flow = {
                agent: (cat, day)
                for arc, (agent, cat, day) in rmap.assignment_arcs.items()
                if result.arc_flows[arc] == 1
            }
            assignment = {a.id: alloc_from_flow.get(a.id) for a in inst.agents}
            assert rmap.utility_of_cost(result.total_cost) == total_utility(inst, Allocation(assignment))

    def test_matches_enumeration_and_is_feasible_and_non_wasteful(self):
        rng = random.Random(99)
        for _ in range(60):
            inst = random_instance(rng, max_agents=5, max_days=3, max_cats=2, max_cap=2)
            alloc = solve_offline_model1(inst)
            assert check_allocation(inst, alloc).ok
            assert total_utility(inst, alloc) == best_utility(inst)
            assert wasted_slots(inst, alloc) == ()


class TestTieBroken:
    def symmetric_pair(self):
        return Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )

    def test_symmetric_agents_follow_the_order(self):
        inst = self.symmetric_pair()
        first = solve_offline_tiebroken(inst, TieBreakOrder(("a1", "a2")))
        assert first.slot_of("a1") is not None and first.slot_of("a2") is None
        second = solve_offline_tiebroken(inst, TieBreakOrder(("a2", "a1")))
        assert second.slot_of("a2") is not None and second.slot_of("a1") is None

    def test_unique_optimum_unchanged(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"})),
                Agent("a2", Fraction(9, 10), (True, False), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        plain = solve_offline_model1(inst)
        broken = solve_offline_tiebroken(inst, TieBreakOrder(("a2", "a1")))
        assert dict(plain.assignment) == dict(broken.assignment)

    def test_three_symmetric_agents_two_slots(self):
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (True,), frozenset({"c1"})) for i in (1, 2, 3)),
            categories=(Category("c1", (2,)),),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(1, 2),
        )
        alloc = solve_offline_tiebroken(inst, TieBreakOrder(("a3", "a1", "a2")))
        assert {a for a, _c, _d in alloc.matched()} == {"a3", "a1"}

    def test_utility_never_sacrificed_and_score_maximal(self):
        rng = random.Random(4321)
        for _ in range(40):
            inst = random_instance(rng, max_agents=5, max_days=3, max_cats=2, max_cap=2)
            ids = [a.id for a in inst.agents]
            rng.shuffle(ids)
            order = TieBreakOrder(tuple(ids))
            ranks = order.ranks()
            alloc = solve_offline_tiebroken(inst, order)
            best = best_utility(inst)
            assert total_utility(inst, alloc) == best

            def score(assignment) -> Fraction:
                return sum(
                    (Fraction(1, 2 ** (ranks[a] + 1)) for a, slot in assignment.items() if slot is not None),
                    Fraction(0),
                )

            best_score = max(
                score(candidate)
                for candidate in iter_allocations(inst)
                if allocation_value(inst, candidate) == best
            )
            assert score(alloc.assignment) == best_score

    def test_order_must_be_a_permutation(self):
        inst = self.symmetric_pair()
        with pytest.raises(ValueError):
            solve_offline_tiebroken(inst, TieBreakOrder(("a1",)))


class TestExactOracle:
    def test_agrees_with_flow_solver_on_model1(self):
        rng = random.Random(17)
        for _ in range(60):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=3, max_cap=2)
            assert total_utility(inst, solve_exact_oracle(inst)) == total_utility(
                inst, solve_offline_model1(inst)
            )

    def test_tight_general_value(self):
        inst = tight_general()
        alloc = solve_exact_oracle(inst, model2=True)
        base, peak, discount = Fraction(1, 5), Fraction(2, 5), Fraction(1, 2)
        assert total_utility(inst, alloc) == base + base * discount + peak * discount
        assert check_allocation(inst, alloc, model2=True).ok

    def test_overall_quotas_only_bind_under_model2(self):
        inst = tight_general()
        unbound = solve_exact_oracle(inst, model2=False)
        bound = solve_exact_oracle(inst, model2=True)
        assert total_utility(inst, unbound) >= total_utility(inst, bound)
        assert total_utility(inst, unbound) == best_utility(inst, model2=False)
        assert total_utility(inst, bound) == best_utility(inst, model2=True)

    def test_empty_instance(self):
        inst = Instance((), (), 1, (1,), Fraction(1, 2))
        alloc = solve_exact_oracle(inst)
        assert alloc.matched_count() == 0

    def test_budget_refusal_is_loud(self):
        rng = random.Random(3)
        inst = random_instance(rng, max_agents=8)
        with pytest.raises(OracleBudgetExceeded):
            solve_exact_oracle(inst, budget=1)

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # One search level per agent: 1,200 levels, within the default budget.
        n = 1200
        agents = tuple(
            Agent(f"a{k}", Fraction(k + 1, n + 1), (k in (0, n - 1),), frozenset({"c1"})) for k in range(n)
        )
        inst = Instance(agents, (Category("c1", (1,)),), 1, (1,), Fraction(1, 2))
        alloc = solve_exact_oracle(inst)
        assert list(alloc.matched()) == [(f"a{n - 1}", "c1", 1)]
        assert total_utility(inst, alloc) == total_utility(inst, solve_offline_model1(inst))

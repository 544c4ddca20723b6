import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rationd.flow import solve_profitable_flow
from rationd.data import GeneratorConfig, SupplyModel, generate
from rationd.model import (
    Agent,
    Category,
    Instance,
    check_allocation,
    total_utility,
    utility_scale,
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

from helpers import random_instance, tight_general, tight_model1, without_overall_quotas
from oracles import allocation_value, best_utility, flat_offline_allocation, iter_allocations

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"


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
        network, rmap = build_model1_network(inst)
        # Source, 2 days, 6 slots, 3 agents, one hub per agent-day, sink.
        assert network.num_nodes == 1 + 2 + 6 + 3 + 6 + 1
        assert len(rmap.hubs) == 6
        # Supply, quota, slot->hub, hub->agent and agent->sink arcs.
        assert len(network.arcs) == 2 + 6 + 6 + 6 + 3

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

    def test_minimal_instance_has_five_arcs(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"})),),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        network, _ = build_model1_network(inst)
        assert len(network.arcs) == 5

    def test_shared_eligibility_gives_one_hub_arc_per_available_agent_day(self):
        rng = random.Random(5)
        cats = ("c1", "c2", "c3")
        agents = tuple(
            Agent(f"a{k}", Fraction(1, 2), tuple(rng.random() < 0.6 for _ in range(4)), frozenset(cats))
            for k in range(12)
        )
        inst = Instance(agents, tuple(Category(c, (2, 1, 3, 1)) for c in cats), 4, (3, 3, 3, 3), Fraction(1, 2))
        network, rmap = build_model1_network(inst)
        available = sum(sum(a.availability) for a in agents)
        open_days = sum(1 for day in range(4) if any(a.availability[day] for a in agents))
        assert sum(len(hub.members) for hub in rmap.hubs) == available
        assert len(rmap.hubs) == open_days
        # Supply (4 days), quota (3 x 4 slots), 3 feeds per hub, hub->agent, agent->sink.
        assert len(network.arcs) == 4 + 12 + 3 * open_days + available + 12

    def test_closed_slots_get_no_arcs(self):
        # c1 is closed on day 1 and day 2 has no supply: only slot (c2, 1) is open.
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (True, True), frozenset({"c1", "c2"})) for i in (1, 2)),
            categories=(Category("c1", (0, 1)), Category("c2", (1, 1))),
            num_days=2,
            daily_supply=(1, 0),
            discount=Fraction(1, 2),
        )
        network, rmap = build_model1_network(inst)
        assert [(hub.day, [c for _arc, c in hub.feeds]) for hub in rmap.hubs] == [(1, ["c2"])]
        # Supply (day 1), quota (c2, 1), one feed, two hub->agent, two agent->sink.
        assert len(network.arcs) == 1 + 1 + 1 + 2 + 2

    def test_assignment_arcs_respect_eligibility_and_availability(self):
        rng = random.Random(11)
        for _ in range(20):
            inst = random_instance(rng)
            network, rmap = build_model1_network(inst)
            agents = inst.agent_map()
            quotas = {c.id: c.daily_quota for c in inst.categories}
            for hub in rmap.hubs:
                categories = {c for _arc, c in hub.feeds}
                assert all(quotas[c][hub.day - 1] > 0 for c in categories)
                for arc, agent_id in hub.members:
                    assert network.arcs[arc].head == rmap.agent_nodes[agent_id]
                    assert agents[agent_id].availability[hub.day - 1]
                    assert categories == agents[agent_id].eligible & {
                        c for c in quotas if quotas[c][hub.day - 1] > 0
                    }


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

    def test_optimum_is_maximal_but_not_of_maximum_cardinality(self):
        # a1 on day 1 (9/10) beats a2 on day 1 plus a1 on day 2 (1/10 +
        # 9/20), so the optimum serves one agent where two fit.
        inst = Instance(
            agents=(
                Agent("a1", Fraction(9, 10), (True, True), frozenset({"c1"})),
                Agent("a2", Fraction(1, 10), (True, False), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        alloc = solve_offline_model1(inst)
        assert dict(alloc.assignment) == {"a1": ("c1", 1), "a2": None}
        assert wasted_slots(inst, alloc) == ()

    def test_rejects_overall_quotas(self):
        with pytest.raises(ValueError, match="overall quotas"):
            solve_offline_model1(tight_general())

    def test_flow_cost_matches_allocation_utility(self):
        rng = random.Random(23)
        for _ in range(40):
            inst = random_instance(rng)
            network, rmap = build_model1_network(inst)
            result = solve_profitable_flow(network)
            alloc = rmap.allocation(result.arc_flows)
            assert check_allocation(inst, alloc).ok
            assert Fraction(-result.total_cost, utility_scale(inst).scale) == total_utility(inst, alloc)

    def test_matches_enumeration_and_is_feasible_and_non_wasteful(self):
        rng = random.Random(99)
        for _ in range(60):
            inst = random_instance(rng, max_agents=5, max_days=3, max_cats=2, max_cap=2)
            alloc = solve_offline_model1(inst)
            assert check_allocation(inst, alloc).ok
            assert total_utility(inst, alloc) == best_utility(inst)
            assert wasted_slots(inst, alloc) == ()

    def test_tie_choice_is_pinned(self):
        # a1 and a2 are worth the same and the day's supply serves a0 and one
        # of them. The choice is arbitrary but deterministic: the path each
        # flow search finds decides it. This pins it.
        inst = Instance(
            agents=(
                Agent("a0", Fraction(73, 100), (True,), frozenset({"c0", "c1", "c2"})),
                Agent("a1", Fraction(29, 50), (True,), frozenset({"c0", "c1"})),
                Agent("a2", Fraction(29, 50), (True,), frozenset({"c1", "c2"})),
            ),
            categories=(Category("c0", (1,)), Category("c1", (0,)), Category("c2", (3,))),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(19, 20),
        )
        alloc = solve_offline_model1(inst)
        assert alloc.assignment == {"a0": ("c2", 1), "a1": ("c0", 1), "a2": None}


class TestAgainstFlatReduction:
    """The hub network against the flat slot->agent network it replaces."""

    def test_same_optimum_on_the_criterion_3_batch(self):
        rng = random.Random(0xC3)
        for _ in range(500):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=3, max_cap=2)
            alloc = solve_offline_model1(inst)
            assert check_allocation(inst, alloc).ok
            assert total_utility(inst, alloc) == total_utility(inst, flat_offline_allocation(inst))

    @pytest.mark.parametrize("seed", [7, 8])
    def test_same_optimum_on_the_probe_instance_as_its_pin(self, seed):
        # The benchmark's probe instance (perfbench/workloads.py, PROBE_CONFIG)
        # and its held-out seed; pins.json holds their networkx optima.
        config = GeneratorConfig(
            num_agents=100,
            num_days=4,
            num_hospitals=4,
            availability_density=0.5,
            supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
            seed=seed,
        )
        inst = generate(config)
        pin = Fraction(json.loads(PINS.read_text())["probe"][str(seed)])
        assert total_utility(inst, solve_offline_model1(inst)) == pin
        assert total_utility(inst, flat_offline_allocation(inst)) == pin

    def test_tiebroken_matched_set_equals_flat_with_ties_forced(self):
        rng = random.Random(0x71E)
        for _ in range(150):
            inst = random_instance(rng, max_agents=8, max_days=3, max_cats=3, max_cap=2)
            priority = Fraction(rng.randint(1, 9), 10)
            agents = tuple(
                Agent(a.id, priority, a.availability, a.eligible, a.group) for a in inst.agents
            )
            inst = Instance(agents, inst.categories, inst.num_days, inst.daily_supply, inst.discount)
            ids = [a.id for a in agents]
            rng.shuffle(ids)
            hub = solve_offline_tiebroken(inst, TieBreakOrder(tuple(ids)))
            flat = flat_offline_allocation(inst, tuple(ids))
            assert check_allocation(inst, hub).ok
            assert {a for a, _c, _d in hub.matched()} == {a for a, _c, _d in flat.matched()}
            assert total_utility(inst, hub) == total_utility(inst, flat)


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
            ranks = {agent_id: rank for rank, agent_id in enumerate(order.order)}
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

    def test_takes_the_tie_breaks_the_online_run_takes(self):
        inst = self.symmetric_pair()
        assert solve_offline_tiebroken(inst, None).slot_of("a1") is not None
        assert solve_offline_tiebroken(inst, "adversarial").slot_of("a2") is not None
        with pytest.raises(ValueError, match="unknown tie-break"):
            solve_offline_tiebroken(inst, "fair")

    def test_rank_weights_pick_the_sets_of_power_of_two_bonuses(self):
        # Instances whose utility-maximal allocations serve sets of
        # different sizes, where weights n - position could part from the
        # lexicographic 2**(n - 1 - position) of the flat reference.
        priorities = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))

        def draw(rng: random.Random) -> Instance:
            n_days = rng.randint(2, 3)
            categories = tuple(
                Category(f"c{i}", tuple(rng.randint(0, 1) for _ in range(n_days))) for i in range(rng.randint(1, 2))
            )
            agents = tuple(
                Agent(
                    f"a{k}",
                    rng.choice(priorities),
                    tuple(rng.random() < 0.6 for _ in range(n_days)),
                    frozenset(c.id for c in categories if rng.random() < 0.7),
                )
                for k in range(rng.randint(3, 6))
            )
            return Instance(agents, categories, n_days, tuple(rng.randint(1, 2) for _ in range(n_days)), Fraction(1, 2))

        def optimal_set_sizes(inst: Instance) -> set[int]:
            best = best_utility(inst)
            return {
                sum(slot is not None for slot in candidate.values())
                for candidate in iter_allocations(inst)
                if allocation_value(inst, candidate) == best
            }

        rng = random.Random(11)
        kept = [inst for inst in (draw(rng) for _ in range(3000)) if len(optimal_set_sizes(inst)) > 1]
        assert len(kept) >= 20
        moved = 0
        for inst in kept:
            ids = list(inst.agent_order())
            chosen = set()
            for _ in range(6):
                rng.shuffle(ids)
                hub = solve_offline_tiebroken(inst, TieBreakOrder(tuple(ids)))
                flat = flat_offline_allocation(inst, tuple(ids))
                served = frozenset(a for a, _c, _d in hub.matched())
                assert served == {a for a, _c, _d in flat.matched()}
                assert total_utility(inst, hub) == total_utility(inst, flat)
                chosen.add(served)
            moved += len(chosen) > 1
        assert moved > 0  # some orders do change the served set

    def test_tiebroken_costs_stay_narrow_at_1000_agents(self):
        inst = generate(GeneratorConfig(num_agents=1000, num_days=10, num_hospitals=8, seed=1))
        network, _rmap = build_model1_network(inst, TieBreakOrder(inst.agent_order()))
        assert max(abs(arc.cost).bit_length() for arc in network.arcs) <= 80


class TestExactOracle:
    def test_agrees_with_flow_solver_on_model1(self):
        rng = random.Random(17)
        for _ in range(60):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=3, max_cap=2)
            assert total_utility(inst, solve_exact_oracle(inst)) == total_utility(
                inst, solve_offline_model1(inst)
            )

    @pytest.mark.parametrize("model2", [False, True], ids=["model1", "model2"])
    def test_value_equals_enumeration_on_random_batches(self, model2):
        # The shapes of the acceptance suite's model-2 batch; with model2
        # every category carries an overall quota, possibly 0.
        rng = random.Random(0x0DD + model2)
        for _ in range(400):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=3, max_cap=2, model2=model2)
            alloc = solve_exact_oracle(inst, model2=model2)
            assert check_allocation(inst, alloc, model2=model2).ok
            assert total_utility(inst, alloc) == best_utility(inst)

    @pytest.mark.parametrize("model2", [False, True], ids=["model1", "model2"])
    @pytest.mark.parametrize(
        "order, expected",
        [
            (("a1", "a2", "a3"), {"a1": ("c1", 1), "a2": None, "a3": ("c1", 2)}),
            (("a2", "a1", "a3"), {"a2": ("c1", 1), "a1": ("c1", 2), "a3": None}),
            (("a3", "a2", "a1"), {"a3": ("c1", 2), "a2": None, "a1": ("c1", 1)}),
        ],
    )
    def test_ties_go_to_the_first_optimum_found(self, model2, order, expected):
        # {a1 day 1, a3 day 2} and {a2 day 1, a1 day 2} are both worth 5/8.
        # The search tries agents in instance order, each one's days
        # earliest first, and keeps the first optimum it reaches. In model 2
        # c1's overall quota is the sum of its daily quotas, so it binds
        # nothing.
        agents = {
            "a1": Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"})),
            "a2": Agent("a2", Fraction(3, 8), (True, False), frozenset({"c1"})),
            "a3": Agent("a3", Fraction(1, 4), (False, True), frozenset({"c1"})),
        }
        category = Category("c1", (1, 1), 2 if model2 else None)
        inst = Instance(tuple(agents[a] for a in order), (category,), 2, (1, 1), Fraction(1, 2))
        assert solve_exact_oracle(inst, model2=model2).assignment == expected

    def test_ties_between_categories_go_to_the_first_in_instance_order(self):
        inst = Instance(
            (Agent("a1", Fraction(1, 2), (True,), frozenset({"c1", "c2"})),),
            (Category("c2", (1,), 1), Category("c1", (1,), 1)),
            1,
            (1,),
            Fraction(1, 2),
        )
        for instance in (without_overall_quotas(inst), inst):
            assert solve_exact_oracle(instance).assignment == {"a1": ("c2", 1)}

    def test_ties_under_overall_quotas(self):
        both = frozenset({"c1", "c2"})
        inst = Instance(
            (
                Agent("a1", Fraction(1, 2), (True, True), both),
                Agent("a2", Fraction(1, 2), (True, True), both),
                Agent("a3", Fraction(1, 2), (False, True), frozenset({"c2"})),
            ),
            (Category("c1", (1, 1), 1), Category("c2", (1, 1), 1)),
            2,
            (2, 2),
            Fraction(1, 2),
        )
        relaxed = without_overall_quotas(inst)
        assert solve_exact_oracle(relaxed).assignment == {"a1": ("c1", 1), "a2": ("c2", 1), "a3": ("c2", 2)}
        assert solve_exact_oracle(inst).assignment == {"a1": ("c1", 1), "a2": ("c2", 1), "a3": None}

    def test_a_margin_below_float_resolution_decides(self):
        # Two agents, one slot on each of two days. Serving "hi" first beats
        # the runner-up the search reaches first by (hi - lo) * (1 - 19/20),
        # about 5e-20: the two totals are equal as floats.
        low_den, high_den = 10**18 + 3, 10**18 + 7
        lo, hi = Fraction(low_den // 2, low_den), Fraction(high_den // 2 + 1, high_den)
        discount = Fraction(19, 20)
        inst = Instance(
            (Agent("lo", lo, (True, True), frozenset({"c1"})), Agent("hi", hi, (True, True), frozenset({"c1"}))),
            (Category("c1", (1, 1)),),
            2,
            (1, 1),
            discount,
        )
        best, runner_up = hi + lo * discount, lo + hi * discount
        assert best > runner_up and float(best) == float(runner_up)
        # c1's overall quota, the sum of its daily quotas, binds nothing.
        for instance in (inst, replace(inst, categories=(Category("c1", (1, 1), 2),))):
            alloc = solve_exact_oracle(instance)
            assert alloc.assignment == {"lo": ("c1", 2), "hi": ("c1", 1)}
            assert total_utility(instance, alloc) == best

    def test_tight_general_value(self):
        inst = tight_general()
        alloc = solve_exact_oracle(inst, model2=True)
        base, peak, discount = Fraction(1, 5), Fraction(2, 5), Fraction(1, 2)
        assert total_utility(inst, alloc) == base + base * discount + peak * discount
        assert check_allocation(inst, alloc, model2=True).ok

    def test_overall_quotas_only_bind_under_model2(self):
        inst = tight_general()
        relaxed = without_overall_quotas(inst)
        unbound = solve_exact_oracle(relaxed)
        bound = solve_exact_oracle(inst)
        assert total_utility(relaxed, unbound) >= total_utility(inst, bound)
        assert total_utility(relaxed, unbound) == best_utility(relaxed)
        assert total_utility(inst, bound) == best_utility(inst)

    def test_empty_instance(self):
        inst = Instance((), (), 1, (1,), Fraction(1, 2))
        alloc = solve_exact_oracle(inst)
        assert alloc.matched_count() == 0

    def test_budget_refusal_is_loud(self):
        rng = random.Random(3)
        inst = random_instance(rng, max_agents=8)
        with pytest.raises(OracleBudgetExceeded):
            solve_exact_oracle(inst, budget=1)

    def test_budget_refusal_inside_the_search(self):
        # 8 x 2 x 2 = 32 passes the size check against 50; the search then
        # needs more than 50 nodes.
        agents = tuple(Agent(f"a{k}", Fraction(1, 2), (True, True), frozenset({"c1", "c2"})) for k in range(8))
        inst = Instance(agents, (Category("c1", (2, 2)), Category("c2", (2, 2))), 2, (3, 3), Fraction(1, 2))
        with pytest.raises(OracleBudgetExceeded, match="^oracle search exceeded its budget of 50 nodes$"):
            solve_exact_oracle(inst, budget=50)

    @pytest.mark.parametrize(
        "make, smallest, refusal",
        [
            (tight_general, 12, "instance sizing 3 agents x 2 days x 2 categories"),
            (lambda: random_instance(random.Random(0)), 34, "oracle search exceeded its budget of 33 nodes"),
            (lambda: random_instance(random.Random(38), model2=True), 248, "oracle search exceeded its budget of 247 nodes"),
        ],
        ids=["tight-general", "random-seed-0", "random-seed-38-model2"],
    )
    def test_smallest_budget_is_pinned(self, make, smallest, refusal):
        # The search's node count, move order included: a change to either
        # moves the budget at which the oracle starts to refuse.
        inst = make()
        assert total_utility(inst, solve_exact_oracle(inst, budget=smallest)) == best_utility(inst)
        with pytest.raises(OracleBudgetExceeded, match=f"^{refusal}"):
            solve_exact_oracle(inst, budget=smallest - 1)

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

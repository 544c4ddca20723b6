import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from rationd import online
from rationd.analysis import availability_deviation_report
from rationd.data import GeneratorConfig, GroupSpec, SupplyModel, generate, load_fixture, read_instance, write_instance
from rationd.model import Agent, Category, Instance, check_allocation, total_utility
from rationd.offline import TieBreakOrder, solve_exact_oracle, solve_offline_model1
from rationd.online import (
    build_day_graph,
    max_weight_capped_bmatching,
    run_online,
    run_online_with_trace,
)
from rationd.analysis import max_matching_size, model1_bound, model2_bound

from helpers import random_instance, tight_general, tight_model1
from oracles import best_day_matching, day_weights, lex_first_day_matching


def fresh_graph(instance, day=1, tie_break=None):
    """The day graph with every agent still waiting."""
    return build_day_graph(instance, day, [a.id for a in instance.agents], tie_break=tie_break)


class TestBuildDayGraph:
    def test_tight_example_day_one(self):
        inst = tight_model1()
        graph = fresh_graph(inst)
        assert set(graph.agents) == {"a1", "a2"}
        assert set(graph.edges) == {("a1", "c1"), ("a1", "c2"), ("a2", "c2")}
        assert day_weights(inst, graph.day_index)["a1"] == day_weights(inst, graph.day_index)["a2"] == Fraction(1, 2)
        assert graph.size_cap == 1

    def test_no_available_agents(self):
        inst = tight_model1()
        # Only a1 is available on day 2; empty the pool of it.
        graph = build_day_graph(inst, 2, {"a2"})
        assert graph.agents == ()
        assert graph.edges == ()

    def test_exhausted_overall_quota_drops_category(self):
        inst = tight_general()
        graph = build_day_graph(inst, 2, {"a2"}, remaining_overall={"c1": 0, "c2": 1})
        assert "c1" not in graph.categories
        assert graph.capacities.get("c2") == 1
        assert graph.edges == ()  # a2 is only eligible under the exhausted c1

    def test_day_outside_horizon_rejected(self):
        inst = tight_model1()
        with pytest.raises(ValueError, match="horizon"):
            fresh_graph(inst, day=3)

    def test_discount_factor_matches_day(self):
        inst = tight_model1()
        graph = build_day_graph(inst, 2, {"a1"})
        assert graph.day_index == 2 and graph.agents == ("a1",)
        assert day_weights(inst, graph.day_index)["a1"] == Fraction(1, 2) * Fraction(19, 20)


class TestDayMatching:
    def test_tight_day_one_is_singleton_of_shared_weight(self):
        inst = tight_model1()
        graph = fresh_graph(inst)
        matched = max_weight_capped_bmatching(graph)
        assert len(matched) == 1
        assert sum(day_weights(inst, 1)[a] for a, _c in matched) == Fraction(1, 2)

    def test_empty_graph(self):
        inst = tight_model1()
        graph = build_day_graph(inst, 1, ())
        assert max_weight_capped_bmatching(graph) == frozenset()

    def test_two_best_of_three_agents(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(9, 10), (True,), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c1"})),
                Agent("a3", Fraction(2, 5), (True,), frozenset({"c1"})),
            ),
            categories=(Category("c1", (2,)),),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(1, 2),
        )
        graph = fresh_graph(inst)
        matched = max_weight_capped_bmatching(graph)
        assert {a for a, _c in matched} == {"a1", "a2"}

    def test_matches_enumeration_on_random_day_graphs(self):
        rng = random.Random(31)
        for _ in range(80):
            inst = random_instance(rng, max_agents=5, max_days=2, max_cats=3, max_cap=2)
            graph = fresh_graph(inst)
            matched = max_weight_capped_bmatching(graph)
            weight = sum((day_weights(inst, 1)[a] for a, _c in matched), Fraction(0))
            best_weight, best_size = best_day_matching(inst, graph)
            assert weight == best_weight
            # Equal-weight edges per agent make the optimum maximum-size too.
            assert len(matched) == best_size

    def test_precedence_breaks_ties_toward_earlier_agents_and_categories(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True,), frozenset({"c1", "c2"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c1", "c2"})),
            ),
            categories=(Category("c1", (1,)), Category("c2", (1,))),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        first = fresh_graph(inst, tie_break=TieBreakOrder(("a1", "a2")))
        second = fresh_graph(inst, tie_break=TieBreakOrder(("a2", "a1")))
        assert max_weight_capped_bmatching(first) == {("a1", "c1")}
        assert max_weight_capped_bmatching(second) == {("a2", "c1")}

    def test_set_is_chosen_before_categories(self):
        # Seating a0 in c0 (its first category) would leave room for a2 only;
        # the tie-break prefers the set {a0, a1} and then seats a0 in c1.
        inst = Instance(
            agents=(
                Agent("a0", Fraction(1, 2), (True,), frozenset({"c0", "c1"})),
                Agent("a1", Fraction(1, 2), (True,), frozenset({"c0"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c1"})),
            ),
            categories=(Category("c0", (1,)), Category("c1", (1,))),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(1, 2),
        )
        graph = fresh_graph(inst)
        assert max_weight_capped_bmatching(graph) == {("a0", "c1"), ("a1", "c0")}

    @pytest.mark.parametrize(
        "c0_daily_quota, remaining_overall",
        [(0, None), (2, {"c0": 0})],
        ids=["daily-quota-zero", "overall-quota-used-up"],
    )
    def test_closed_categories_are_passed_over(self, c0_daily_quota, remaining_overall):
        # c0 is closed today and listed first by a0 and a2. a1 takes c1
        # first and a0 its next open category, c1; a2 then gets in only by
        # moving a0 on to c2. The relabel pass tries a0 in c0, c1 and c2 in
        # turn and must pass over c0.
        inst = Instance(
            agents=(
                Agent("a0", Fraction(1, 2), (True,), frozenset({"c0", "c1", "c2"})),
                Agent("a1", Fraction(3, 4), (True,), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c0", "c1"})),
            ),
            categories=(Category("c0", (c0_daily_quota,)), Category("c1", (2,)), Category("c2", (1,))),
            num_days=1,
            daily_supply=(3,),
            discount=Fraction(1, 2),
        )
        graph = build_day_graph(inst, 1, {"a0", "a1", "a2"}, remaining_overall=remaining_overall)
        assert graph.categories == ("c1", "c2")
        assert graph.eligible["a0"] == ("c0", "c1", "c2")
        matched = max_weight_capped_bmatching(graph)
        assert matched == lex_first_day_matching(inst, graph) == {("a0", "c2"), ("a1", "c1"), ("a2", "c1")}

    def test_matches_lexicographic_enumeration_on_random_day_graphs(self):
        # Few distinct priorities, so weight ties are common.
        rng = random.Random(3)
        levels = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for _ in range(300):
            base = random_instance(rng, max_agents=6, max_days=2, max_cats=3, max_cap=3)
            agents = tuple(replace(a, priority=rng.choice(levels)) for a in base.agents)
            inst = replace(base, agents=agents)
            order = list(inst.agent_order())
            rng.shuffle(order)
            day = rng.randint(1, inst.num_days)
            pool = frozenset(a for a in order if rng.random() < 0.8)
            # Model 2 half the time: overall quotas left that can close a
            # category or cut its daily quota.
            remaining = None
            if rng.random() < 0.5:
                remaining = {c.id: rng.randint(0, 3) for c in inst.categories}
            graph = build_day_graph(inst, day, pool, remaining, tie_break=TieBreakOrder(tuple(order)))
            assert max_weight_capped_bmatching(graph) == lex_first_day_matching(inst, graph)


class TestRunOnline:
    def test_tight_model1_adversarial(self):
        inst = tight_model1()
        alloc = run_online(inst, tie_break="adversarial")
        assert total_utility(inst, alloc) == Fraction(1, 2)
        assert alloc.slot_of("a2") is None

    def test_tight_general_adversarial_vs_oracle(self):
        inst = tight_general()
        alloc = run_online(inst, model2=True, tie_break="adversarial")
        assert total_utility(inst, alloc) == Fraction(1, 5)
        optimum = solve_exact_oracle(inst, model2=True)
        assert total_utility(inst, optimum) == Fraction(1, 2)

    def test_explicit_precedence_equivalent_to_adversarial_here(self):
        inst = tight_model1()
        alloc = run_online(inst, tie_break=TieBreakOrder(("a1", "a2")))
        assert total_utility(inst, alloc) == Fraction(1, 2)

    def test_abundance_matches_everyone_on_day_one(self):
        inst = Instance(
            agents=tuple(
                Agent(f"a{i}", Fraction(i + 1, 10), (True, True), frozenset({"c1"})) for i in range(5)
            ),
            categories=(Category("c1", (10, 10)),),
            num_days=2,
            daily_supply=(10, 10),
            discount=Fraction(1, 2),
        )
        alloc = run_online(inst)
        assert alloc.matched_count() == 5
        assert all(day == 1 for _a, _c, day in alloc.matched())

    def test_per_day_feasibility_and_final_check(self):
        rng = random.Random(77)
        for _ in range(50):
            inst = random_instance(rng)
            alloc, trace = run_online_with_trace(inst)
            assert check_allocation(inst, alloc).ok
            for day in trace:
                per_cat: dict[str, int] = {}
                for _a, c in day.matched:
                    per_cat[c] = per_cat.get(c, 0) + 1
                assert len(day.matched) <= day.graph.size_cap
                for c, used in per_cat.items():
                    assert used <= day.graph.capacities[c]

    def test_each_day_is_maximum_cardinality(self):
        rng = random.Random(88)
        for _ in range(50):
            inst = random_instance(rng)
            _, trace = run_online_with_trace(inst)
            for day in trace:
                assert len(day.matched) == max_matching_size(day.graph)

    def test_type2_day_counts_never_exceed_online_counts(self):
        # Offline-matched agents not already served earlier online fit within
        # the online day's matching size, day by day.
        rng = random.Random(5150)
        for _ in range(60):
            inst = random_instance(rng)
            online_alloc = run_online(inst)
            offline_alloc = solve_offline_model1(inst)
            online_days = Counter(day for _a, _c, day in online_alloc.matched())
            type2_days = Counter(
                day
                for a, _c, day in offline_alloc.matched()
                if online_alloc.day_of(a) is None or online_alloc.day_of(a) >= day
            )
            for day, type2 in type2_days.items():
                assert type2 <= online_days[day]

    def test_competitive_bounds_on_random_instances(self):
        rng = random.Random(4242)
        for _ in range(80):
            inst = random_instance(rng)
            opt = total_utility(inst, solve_offline_model1(inst))
            alg = total_utility(inst, run_online(inst))
            assert opt <= model1_bound(inst) * alg
        for _ in range(50):
            inst = random_instance(rng, max_agents=6, max_days=3, model2=True)
            opt = total_utility(inst, solve_exact_oracle(inst, model2=True))
            alg = total_utility(inst, run_online(inst, model2=True))
            assert opt <= model2_bound(inst) * alg

    def test_tightness_of_both_worst_cases(self):
        inst = tight_model1()
        ratio = total_utility(inst, solve_offline_model1(inst)) / total_utility(
            inst, run_online(inst, tie_break="adversarial")
        )
        assert ratio == model1_bound(inst)

        inst2 = tight_general()
        ratio2 = total_utility(inst2, solve_exact_oracle(inst2, model2=True)) / total_utility(
            inst2, run_online(inst2, model2=True, tie_break="adversarial")
        )
        assert ratio2 == model2_bound(inst2)

    def test_no_lookahead(self):
        # Shuffling availability strictly after day k cannot change any
        # decision up to day k.
        rng = random.Random(606)
        for _ in range(30):
            inst = random_instance(rng, max_agents=6, max_days=4)
            if inst.num_days < 2:
                continue
            cut = rng.randint(1, inst.num_days - 1)
            ids = [a.id for a in inst.agents]
            shuffled = ids[:]
            rng.shuffle(shuffled)
            future = {a.id: inst.agent_map()[donor].availability for a, donor in zip(inst.agents, shuffled)}
            tweaked_agents = tuple(
                Agent(
                    a.id,
                    a.priority,
                    a.availability[:cut] + future[a.id][cut:],
                    a.eligible,
                    a.group,
                )
                for a in inst.agents
            )
            tweaked = Instance(tweaked_agents, inst.categories, inst.num_days, inst.daily_supply, inst.discount)
            _, base_trace = run_online_with_trace(inst)
            _, tweaked_trace = run_online_with_trace(tweaked)
            for day in range(cut):
                assert base_trace[day].matched == tweaked_trace[day].matched

    def test_day_weights_share_the_discount_factor(self):
        # Optimizing with raw priorities is the same as optimizing with the
        # day-discounted weights: the enumerated optimum over full weights is
        # met by the matcher, which only ever sees the shared-factor form.
        rng = random.Random(99)
        for _ in range(30):
            inst = random_instance(rng, max_agents=5, max_days=3, max_cats=2, max_cap=2)
            day = rng.randint(1, inst.num_days)
            graph = fresh_graph(inst, day)
            matched = max_weight_capped_bmatching(graph)
            full_weight = sum((day_weights(inst, day)[a] for a, _c in matched), Fraction(0))
            best_full, _ = best_day_matching(inst, graph)
            assert full_weight == best_full


# The benchmark's probe instance (perfbench's PROBE_CONFIG) and a smaller
# two-group one; read back from file, agents with equal eligible sets hold
# one frozenset.
SHARED_SET_CONFIGS = {
    "probe": GeneratorConfig(
        num_agents=100,
        num_days=4,
        num_hospitals=4,
        availability_density=0.5,
        supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
        seed=7,
    ),
    "two-groups": GeneratorConfig(
        num_agents=60,
        num_days=5,
        num_hospitals=6,
        group_specs=(GroupSpec("young", 0.7, Fraction(9, 10)), GroupSpec("old", 0.3, Fraction(19, 20))),
        discount=Fraction(4, 5),
        supply_model=SupplyModel(supply_low=3, supply_high=8, quota_low=0, quota_high=3),
        seed=11,
    ),
}


class TestSharedEligibleSets:
    """The ranking orders each distinct eligible set once; an instance
    whose agents share set objects must run exactly like one whose agents
    each hold their own."""

    @pytest.fixture(params=[*SHARED_SET_CONFIGS, "tight_model1", "tight_general"])
    def as_read(self, request, tmp_path):
        if request.param in SHARED_SET_CONFIGS:
            path = str(tmp_path / "instance.json")
            write_instance(generate(SHARED_SET_CONFIGS[request.param]), path)
            inst = read_instance(path)
            assert len({id(a.eligible) for a in inst.agents}) < len(inst.agents)
            return inst
        return load_fixture(request.param)

    @staticmethod
    def unshared(instance):
        """``instance`` with a new frozenset per agent (``frozenset(s)`` of
        a frozenset returns ``s`` itself)."""
        agents = tuple(replace(a, eligible=frozenset(list(a.eligible))) for a in instance.agents)
        copy = replace(instance, agents=agents)
        assert len({id(a.eligible) for a in copy.agents}) == len(copy.agents)
        return copy

    @pytest.mark.parametrize("tie_break", [None, "adversarial"])
    def test_shared_and_unshared_sets_run_alike(self, as_read, tie_break):
        copy = self.unshared(as_read)
        assert online._ranking(as_read, tie_break) == online._ranking(copy, tie_break)
        assert run_online_with_trace(as_read, tie_break=tie_break) == run_online_with_trace(copy, tie_break=tie_break)
        for agent in as_read.agents:
            assert availability_deviation_report(as_read, agent.id, tie_break=tie_break) == availability_deviation_report(
                copy, agent.id, tie_break=tie_break
            )

    def test_equal_sets_share_one_ordered_tuple(self, as_read):
        for inst in (as_read, self.unshared(as_read)):
            eligible = online._ranking(inst, None).eligible
            by_set: dict[frozenset[str], tuple[str, ...]] = {}
            for agent in inst.agents:
                assert by_set.setdefault(agent.eligible, eligible[agent.id]) is eligible[agent.id]
            cat_ids = [c.id for c in inst.categories]
            for cats in by_set.values():
                assert list(cats) == [c for c in cat_ids if c in cats]

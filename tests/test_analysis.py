import random
from fractions import Fraction

import pytest

from rationd.model import Agent, Allocation, Category, Instance
from rationd.offline import solve_exact_oracle, solve_offline_model1
from rationd.online import run_online
from rationd.analysis import (
    DELAYED_SELF,
    OVERFLOW,
    SAME_DAY,
    availability_deviation_report,
    build_charging_report,
    competitive_ratio,
    compute_metrics,
    day_matchings,
    decompose_symmetric_difference,
    model1_bound,
    model2_bound,
)

from helpers import random_instance, tight_general, tight_model1


class TestCompetitiveRatio:
    def test_tight_model1_is_one_plus_discount(self):
        inst = tight_model1(discount=Fraction(19, 20))
        ratio = competitive_ratio(inst, tie_break="adversarial")
        assert ratio == Fraction(39, 20)

    def test_single_agent_ratio_is_one(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (False, True, True), frozenset({"c1"})),),
            categories=(Category("c1", (1, 1, 1)),),
            num_days=3,
            daily_supply=(1, 1, 1),
            discount=Fraction(1, 2),
        )
        assert competitive_ratio(inst) == 1

    def test_tight_general_plugs_into_the_bound(self):
        inst = tight_general(discount=Fraction(1, 2))
        ratio = competitive_ratio(inst, model2=True, tie_break="adversarial")
        assert ratio == 1 + Fraction(1, 2) + Fraction(2, 5) / Fraction(1, 5) * Fraction(1, 2)
        assert ratio == Fraction(5, 2)
        assert ratio == model2_bound(inst)


class TestDecomposition:
    def test_identical_matchings_disappear(self):
        assert decompose_symmetric_difference({"a1": "c1"}, {"a1": "c1"}).components == ()

    def test_two_categories_one_agent_is_a_path(self):
        decomposition = decompose_symmetric_difference({"a1": "c1"}, {"a1": "c2"})
        (component,) = decomposition.components
        assert component.kind == "path"
        assert len(component.edges) == 2
        assert component.ends is not None
        assert {kind for kind, _v in component.ends} == {"category"}

    def test_swap_is_an_even_cycle(self):
        decomposition = decompose_symmetric_difference(
            {"a1": "c1", "a2": "c2"}, {"a1": "c2", "a2": "c1"}
        )
        (component,) = decomposition.components
        assert component.kind == "cycle"
        assert len(component.edges) == 4

    def test_rebuilds_the_symmetric_difference_exactly(self):
        rng = random.Random(13)
        for _ in range(60):
            inst = random_instance(rng)
            online_days = day_matchings(run_online(inst))
            offline_days = day_matchings(solve_offline_model1(inst))
            for day in range(1, inst.num_days + 1):
                left = online_days.get(day, {})
                right = offline_days.get(day, {})
                decomposition = decompose_symmetric_difference(left, right)
                expected = {(a, c, "online") for a, c in left.items() if right.get(a) != c}
                expected |= {(a, c, "offline") for a, c in right.items() if left.get(a) != c}
                assert decomposition.all_edges() == expected
                total = sum(len(c.edges) for c in decomposition.components)
                assert total == len(expected)  # edge-disjoint cover
                for component in decomposition.components:
                    labels = [e[2] for e in component.edges]
                    assert all(x != y for x, y in zip(labels, labels[1:]))  # alternating
                    if component.kind == "cycle":
                        assert len(component.edges) % 2 == 0


class TestChargingReport:
    def test_tight_model1_charges(self):
        inst = tight_model1()
        online_alloc = run_online(inst, tie_break="adversarial")
        offline_alloc = solve_offline_model1(inst)
        report = build_charging_report(inst, online_alloc, offline_alloc)
        assert report.bound_certified
        assert report.type1_agents == frozenset({"a1"})
        by_kind = {c.kind: c for c in report.charges}
        assert by_kind[DELAYED_SELF].charger == "a1" and by_kind[DELAYED_SELF].factor == Fraction(19, 20)
        assert by_kind[SAME_DAY].charger == "a2" and by_kind[SAME_DAY].target == "a1"
        assert by_kind[SAME_DAY].factor == 1
        assert sorted(report.per_target_load["a1"]) == [Fraction(19, 20), Fraction(1)]

    def test_identical_allocations_self_charge_at_one(self):
        inst = tight_model1()
        offline_alloc = solve_offline_model1(inst)
        report = build_charging_report(inst, offline_alloc, offline_alloc)
        assert report.bound_certified
        assert all(c.charger == c.target and c.factor == 1 for c in report.charges)

    def test_tight_general_charges(self):
        inst = tight_general()
        online_alloc = run_online(inst, model2=True, tie_break="adversarial")
        offline_alloc = solve_exact_oracle(inst, model2=True)
        report = build_charging_report(inst, online_alloc, offline_alloc, model2=True)
        assert report.bound_certified
        by_kind = {c.kind: c for c in report.charges}
        assert by_kind[DELAYED_SELF].charger == "a1" and by_kind[DELAYED_SELF].factor == Fraction(1, 2)
        assert by_kind[SAME_DAY].charger == "a3" and by_kind[SAME_DAY].target == "a1"
        assert by_kind[OVERFLOW].charger == "a2" and by_kind[OVERFLOW].target == "a1"
        assert by_kind[OVERFLOW].factor == Fraction(2, 5) / Fraction(1, 5) * Fraction(1, 2)
        assert len(report.per_target_load["a1"]) == 3

    def test_certificates_hold_on_random_pairs(self):
        rng = random.Random(2718)
        for _ in range(80):
            inst = random_instance(rng)
            online_alloc = run_online(inst)
            offline_alloc = solve_offline_model1(inst)
            report = build_charging_report(inst, online_alloc, offline_alloc)
            assert report.bound_certified, report.failure_reason
            # Same-day injection: distinct targets, lower-or-equal priority.
            priorities = {a.id: a.priority for a in inst.agents}
            same_day = [c for c in report.charges if c.kind == SAME_DAY]
            assert len({c.target for c in same_day}) == len(same_day)
            for charge in same_day:
                assert priorities[charge.charger] <= priorities[charge.target]

    def test_certificates_hold_on_random_model2_pairs(self):
        rng = random.Random(314)
        for _ in range(60):
            inst = random_instance(rng, max_agents=6, max_days=3, model2=True)
            online_alloc = run_online(inst, model2=True)
            offline_alloc = solve_exact_oracle(inst, model2=True)
            report = build_charging_report(inst, online_alloc, offline_alloc, model2=True)
            assert report.bound_certified, report.failure_reason
            spread_cap = inst.priority_spread() * inst.discount
            for charge in report.charges:
                if charge.kind == OVERFLOW:
                    assert charge.factor <= spread_cap

    def test_infeasible_pair_is_reported_not_raised(self):
        inst = tight_model1()
        # Claim both agents offline-matched on day 1 under the same slot the
        # online run used; the "offline" side here is deliberately bogus.
        bogus = Allocation({"a1": ("c1", 1), "a2": ("c1", 1)})
        online_alloc = run_online(inst, tie_break="adversarial")
        report = build_charging_report(inst, online_alloc, bogus)
        assert not report.bound_certified
        assert report.failure_day is not None


class TestDeviations:
    def test_single_available_day(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"})),),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        report = availability_deviation_report(inst, "a1")
        assert report.truthful_day == 1
        assert [o.reported_days for o in report.outcomes] == [()]
        assert report.outcomes[0].matched_day is None
        assert report.strategyproof

    def test_unknown_agent_rejected(self):
        with pytest.raises(ValueError, match="unknown agent"):
            availability_deviation_report(tight_model1(), "ghost")

    def test_tight_example_agent_two_cannot_gain(self):
        inst = tight_model1()
        report = availability_deviation_report(inst, "a2")
        assert report.strategyproof

    def test_random_instances_have_no_improving_deviation(self):
        rng = random.Random(161803)
        for _ in range(25):
            inst = random_instance(rng, max_agents=4, max_days=3)
            for agent in inst.agents:
                report = availability_deviation_report(inst, agent.id)
                assert report.strategyproof

    def test_sampling_kicks_in_beyond_the_enumeration_guard(self):
        days = 24
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True,) * days, frozenset({"c1"})),
                Agent("a2", Fraction(2, 5), (True,) * days, frozenset({"c1"})),
            ),
            categories=(Category("c1", (1,) * days),),
            num_days=days,
            daily_supply=(1,) * days,
            discount=Fraction(1, 2),
        )
        report = availability_deviation_report(inst, "a1", max_enumeration_days=20, sample_size=16)
        assert len(report.outcomes) == 16
        assert report.strategyproof

    def test_sample_covering_every_subset_enumerates_them(self):
        # Two available days have three proper subsets; asking for more
        # samples than that enumerates them instead of drawing forever.
        inst = tight_model1()
        report = availability_deviation_report(inst, "a1", max_enumeration_days=1, sample_size=8)
        assert sorted(o.reported_days for o in report.outcomes) == [(), (1,), (2,)]


class TestMetrics:
    def test_everyone_served_on_day_one(self):
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (True, True), frozenset({"c1"}), group="g") for i in range(3)),
            categories=(Category("c1", (3, 3)),),
            num_days=2,
            daily_supply=(3, 3),
            discount=Fraction(1, 2),
        )
        alloc = run_online(inst)
        series = compute_metrics(inst, alloc)
        for row in series.days:
            assert row["all"].fraction_unserved == 0
            assert row["g"].fraction_unserved == 0

    def test_unreachable_population_has_zero_fraction(self):
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (False, False), frozenset({"c1"})) for i in range(2)),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        series = compute_metrics(inst, Allocation.empty(inst))
        for row in series.days:
            assert row["all"].reachable == 0
            assert row["all"].fraction_unserved == 0

    def test_four_reachable_three_served_is_a_quarter(self):
        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (True, True), frozenset({"c1"})) for i in range(4)),
            categories=(Category("c1", (2, 2)),),
            num_days=2,
            daily_supply=(2, 1),
            discount=Fraction(1, 2),
        )
        alloc = Allocation({"a0": ("c1", 1), "a1": ("c1", 1), "a2": ("c1", 2), "a3": None})
        series = compute_metrics(inst, alloc)
        day2 = series.days[1]["all"]
        assert day2.reachable == 4 and day2.served == 3
        assert day2.fraction_unserved == Fraction(1, 4)

    def test_monotonicity_and_range(self):
        rng = random.Random(42424)
        for _ in range(30):
            inst = random_instance(rng)
            alloc = run_online(inst)
            series = compute_metrics(inst, alloc)
            for label in series.groups + ("all",):
                reach = [row[label].reachable for row in series.days]
                served = [row[label].served for row in series.days]
                assert reach == sorted(reach)
                assert served == sorted(served)
                for row in series.days:
                    stats = row[label]
                    assert stats.served <= stats.reachable
                    assert 0 <= stats.fraction_unserved <= 1

    def test_reserved_group_label(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"}), group="all"),),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        with pytest.raises(ValueError, match="reserved"):
            compute_metrics(inst, Allocation.empty(inst))

    def test_model2_reachability_respects_consumed_quota(self):
        # One slot overall; the second agent is only "reachable" while the
        # overall quota still has room on a day they can attend.
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True, False), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (False, True), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1), overall_quota=1),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        alloc = Allocation({"a1": ("c1", 1), "a2": None})
        series = compute_metrics(inst, alloc)
        assert series.days[1]["all"].reachable == 1  # a2 never had capacity left
        assert series.days[1]["all"].fraction_unserved == 0


class TestBounds:
    def test_bound_values(self):
        inst = tight_general()
        assert model1_bound(inst) == Fraction(3, 2)
        assert model2_bound(inst) == Fraction(5, 2)

    def test_priority_spread_of_empty_instance(self):
        inst = Instance((), (), 1, (0,), Fraction(1, 2))
        assert model2_bound(inst) == 1 + 2 * Fraction(1, 2)

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rationd import online
from rationd.data import GeneratorConfig, SupplyModel, generate
from rationd.model import Agent, Allocation, Category, Instance, check_allocation, total_utility, utility_scale
from rationd.offline import TieBreakOrder, solve_exact_oracle, solve_offline_model1
from rationd.online import DayGraph, run_online
from rationd.analysis import (
    DELAYED_SELF,
    OVERFLOW,
    SAME_DAY,
    Charge,
    _certify,
    availability_deviation_report,
    build_charging_report,
    compute_metrics,
    max_matching_size,
    model1_bound,
    model2_bound,
    offline_optimum,
    ratio_check,
    wasted_slots,
)

from helpers import online_ratio, random_instance, tight_general, tight_model1, without_overall_quotas
from oracles import best_utility, charging_by_target_lists, deviation_outcomes_by_rerun, injection_by_recursion, iter_allocations


# Allocations on tight_model1 that name what the instance lacks, each with
# the entry a check must name.
MISPLACED = [
    (Allocation({"a2": None, "a1": ("c1", 1), "zz": ("c2", 1)}), "allocation names unknown agent 'zz'"),
    (Allocation({"a2": None, "a1": ("zz", 1)}), "agent 'a1' matched under unknown category 'zz'"),
    (Allocation({"a2": None, "a1": ("c1", 9)}), "agent 'a1' matched on day 9, outside 1..2"),
    (Allocation({"a2": None, "a1": ("c1", 0)}), "agent 'a1' matched on day 0, outside 1..2"),
]
MISPLACED_IDS = ["unknown-agent", "unknown-category", "day-past-horizon", "day-zero"]


class TestRatioCheck:
    def test_tight_model1_is_one_plus_discount(self):
        inst = tight_model1(discount=Fraction(19, 20))
        assert online_ratio(inst, tie_break="adversarial") == Fraction(39, 20)

    def test_single_agent_ratio_is_one(self):
        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (False, True, True), frozenset({"c1"})),),
            categories=(Category("c1", (1, 1, 1)),),
            num_days=3,
            daily_supply=(1, 1, 1),
            discount=Fraction(1, 2),
        )
        assert online_ratio(inst) == 1

    def test_tight_general_plugs_into_the_bound(self):
        inst = tight_general(discount=Fraction(1, 2))
        ratio = online_ratio(inst, tie_break="adversarial")
        assert ratio == 1 + Fraction(1, 2) + Fraction(2, 5) / Fraction(1, 5) * Fraction(1, 2)
        assert ratio == Fraction(5, 2)
        assert ratio == model2_bound(inst)

    @pytest.mark.parametrize(
        "inst, bound",
        [
            (tight_model1(), model1_bound),
            (tight_general(), model2_bound),
            (without_overall_quotas(tight_general(), ["c2"]), model2_bound),
        ],
        ids=["model1", "model2", "model2-partly-capped"],
    )
    def test_the_instance_picks_the_bound(self, inst, bound):
        empty = Allocation.empty(inst)
        check = ratio_check(inst, empty, empty)
        assert check.bound == bound(inst)
        assert (check.opt, check.alg, check.ratio, check.holds) == (0, 0, 1, True)

    @pytest.mark.parametrize("inst", [tight_model1(), tight_general()], ids=["model1", "model2"])
    def test_an_online_side_that_earns_nothing_has_no_ratio(self, inst):
        # run_online never does this on an instance where anything is
        # matchable; a hand-built allocation reaches the branch.
        check = ratio_check(inst, Allocation.empty(inst), offline_optimum(inst))
        assert check.opt > 0 and check.alg == 0
        assert check.ratio is None
        assert not check.holds

    @pytest.mark.parametrize("inst", [tight_model1(), tight_general()], ids=["model1", "model2"])
    def test_the_adversarial_run_meets_the_bound(self, inst):
        check = ratio_check(inst, run_online(inst, tie_break="adversarial"), offline_optimum(inst))
        assert check.ratio == check.bound
        assert check.opt == check.bound * check.alg
        assert check.holds

    def test_a_feasible_pair_past_the_bound_does_not_hold(self):
        inst = tight_model1()
        # Only a1, on day 2: 19/40 against the optimum's 39/40.
        late = Allocation({"a1": ("c1", 2), "a2": None})
        assert check_allocation(inst, late).ok
        check = ratio_check(inst, late, offline_optimum(inst))
        assert (check.opt, check.alg) == (Fraction(39, 40), Fraction(19, 40))
        assert check.ratio == Fraction(39, 19) > check.bound == model1_bound(inst)
        assert not check.holds


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

    def test_the_empty_instance_is_certified_without_charges(self):
        inst = Instance((), (), 1, (0,), Fraction(1, 2))
        report = build_charging_report(inst, Allocation.empty(inst), Allocation.empty(inst))
        assert report.bound_certified and report.charges == ()

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


    @pytest.mark.parametrize("alloc, reason", MISPLACED, ids=MISPLACED_IDS)
    @pytest.mark.parametrize("side", ["online", "offline"])
    def test_an_entry_the_instance_lacks_is_reported_not_raised(self, side, alloc, reason):
        inst = tight_model1()
        fine = solve_offline_model1(inst)
        online_alloc, offline_alloc = (alloc, fine) if side == "online" else (fine, alloc)
        report = build_charging_report(inst, online_alloc, offline_alloc)
        assert not report.bound_certified
        assert report.failure_reason == f"{side} {reason}"
        assert report.failure_day is None and report.charges == ()

    def test_the_first_misplaced_entry_is_named(self):
        inst = tight_model1()
        both = Allocation({"a2": ("c2", 7), "a1": ("zz", 1)})
        assert build_charging_report(inst, both, both).failure_reason == "online agent 'a2' matched on day 7, outside 1..2"

    def test_a_day_matching_that_is_not_max_weight_is_rejected(self):
        # On day 2 the online side keeps "lo" while offline serves "hi",
        # of higher priority: "hi" has no same-day target of its priority.
        inst = Instance(
            agents=(
                Agent("hi", Fraction(1, 2), (False, True), frozenset({"c1"})),
                Agent("lo", Fraction(1, 5), (False, True), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        offline_alloc = Allocation({"hi": ("c1", 2), "lo": None})
        assert build_charging_report(inst, run_online(inst), offline_alloc).bound_certified
        report = build_charging_report(inst, Allocation({"hi": None, "lo": ("c1", 2)}), offline_alloc)
        assert not report.bound_certified
        assert report.failure_day == 2
        assert "'hi'" in report.failure_reason

    @staticmethod
    def certify_two_for_two(charges):
        """``_certify`` on doctored ``charges`` where h1, h2 (1/2) are served
        online on day 1 and l1 (1/5), l2 (3/10) offline; the true factors
        are l1 -> h1 at 2/5 and l2 -> h2 at 3/5."""
        priorities = {"h1": Fraction(1, 2), "h2": Fraction(1, 2), "l1": Fraction(1, 5), "l2": Fraction(3, 10)}
        inst = Instance(
            agents=tuple(Agent(a, p, (True,), frozenset({"c1"})) for a, p in priorities.items()),
            categories=(Category("c1", (2,)),),
            num_days=1,
            daily_supply=(2,),
            discount=Fraction(1, 2),
        )
        online_alloc = Allocation({"h1": ("c1", 1), "h2": ("c1", 1), "l1": None, "l2": None})
        offline_alloc = Allocation({"h1": None, "h2": None, "l1": ("c1", 1), "l2": ("c1", 1)})
        return _certify(inst, utility_scale(inst), online_alloc, offline_alloc, charges, {})

    def test_a_factor_that_is_not_the_true_ratio_names_its_charger(self):
        # Swapping the true factors 2/5 and 3/5 keeps each within its limit
        # and their sum right, but not either charge.
        def certify(f1, f2):
            return self.certify_two_for_two([Charge("l1", "h1", f1, SAME_DAY), Charge("l2", "h2", f2, SAME_DAY)])

        assert certify(Fraction(2, 5), Fraction(3, 5)).bound_certified
        report = certify(Fraction(3, 5), Fraction(2, 5))
        assert not report.bound_certified
        assert "'l1'" in report.failure_reason and "'l2'" not in report.failure_reason

    @pytest.mark.parametrize(
        "charges, reason",
        [
            (
                [Charge("l1", "h1", Fraction(2, 5), SAME_DAY)],
                "chargers do not cover the offline-matched agents exactly once",
            ),
            (
                [Charge("l1", "l2", Fraction(2, 3), SAME_DAY), Charge("l2", "h2", Fraction(3, 5), SAME_DAY)],
                "target 'l2' is not online-matched",
            ),
            (
                [Charge("l1", "h1", Fraction(2, 5), SAME_DAY), Charge("l2", "h2", Fraction(3, 2), SAME_DAY)],
                "same_day factor 3/2 of 'l2' -> 'h2' exceeds 1",
            ),
            (
                [Charge("l1", "h1", Fraction(2, 5), SAME_DAY), Charge("l2", "h1", Fraction(3, 5), SAME_DAY)],
                "target 'h1' carries repeated charge kinds ['same_day', 'same_day']",
            ),
        ],
        ids=["chargers-not-covering", "target-not-online-matched", "factor-above-limit", "repeated-kinds"],
    )
    def test_a_doctored_charge_list_is_refused(self, charges, reason):
        report = self.certify_two_for_two(charges)
        assert not report.bound_certified
        assert report.failure_reason == reason

    def test_an_overflow_charge_needs_a_capped_category(self):
        # a2 charges a1 by overflow under c1, a2's offline category.
        inst = tight_general()
        online_alloc = run_online(inst, tie_break="adversarial")
        offline_alloc = solve_exact_oracle(inst)
        report = build_charging_report(inst, online_alloc, offline_alloc)
        assert [c.charger for c in report.charges if c.kind == OVERFLOW] == ["a2"]
        inputs = (inst, utility_scale(inst), online_alloc, offline_alloc, list(report.charges))
        assert _certify(*inputs, {"c1": 1}).bound_certified
        assert _certify(*inputs, {"c2": 2}).failure_reason == "overflow charge of 'a2' under an uncapped category"

    @pytest.mark.parametrize(
        "overall, online_z, certified",
        [(1, None, True), (2, None, False), (2, ("c1", 3), False)],
        ids=["used-up", "not-used-up", "used-up-after-its-day"],
    )
    def test_overflow_needs_the_overall_quota_used_up(self, overall, online_z, certified):
        # Online serves x on day 1 (and z on day 3 when given); offline
        # serves y on day 2. y may overflow onto x only when c1's overall
        # quota is used up by the end of day 2.
        inst = Instance(
            agents=(
                Agent("x", Fraction(1, 5), (True, False, False), frozenset({"c1"})),
                Agent("y", Fraction(2, 5), (False, True, False), frozenset({"c1"})),
                Agent("z", Fraction(1, 5), (False, False, True), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1, 1), overall_quota=overall),),
            num_days=3,
            daily_supply=(1, 1, 1),
            discount=Fraction(3, 4),
        )
        online_alloc = Allocation({"x": ("c1", 1), "y": None, "z": online_z})
        offline_alloc = Allocation({"x": None, "y": ("c1", 2), "z": None})
        report = build_charging_report(inst, online_alloc, offline_alloc, model2=True)
        assert report.bound_certified == certified
        if certified:
            (charge,) = report.charges
            assert (charge.charger, charge.target, charge.kind) == ("y", "x", OVERFLOW)
            assert charge.factor == Fraction(2, 5) / Fraction(1, 5) * Fraction(3, 4)
        else:
            assert report.failure_day == 2
            assert "'y'" in report.failure_reason

    def test_a_self_charger_stays_another_chargers_overflow_target(self):
        # Online serves x on day 1 under c1, which uses c1 up; offline
        # serves x on day 1 under c2 and y on day 2 under c1. x is seated on
        # its own same-day bucket and charges itself, and x is also the only
        # member of c1's day-1 overflow bucket, which y takes.
        inst = Instance(
            agents=(
                Agent("x", Fraction(1, 2), (True, False), frozenset({"c1", "c2"})),
                Agent("y", Fraction(1, 2), (False, True), frozenset({"c1", "c2"})),
            ),
            categories=(Category("c1", (1, 1), overall_quota=1), Category("c2", (1, 0))),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        online_alloc = Allocation({"x": ("c1", 1), "y": None})
        offline_alloc = Allocation({"x": ("c2", 1), "y": ("c1", 2)})
        report = build_charging_report(inst, online_alloc, offline_alloc)
        assert report.bound_certified, report.failure_reason
        assert report.charges == (
            Charge("x", "x", Fraction(1), SAME_DAY),
            Charge("y", "x", Fraction(1, 2), OVERFLOW),
        )

    def test_agrees_with_per_target_lists_on_every_allocation_pair(self):
        # Both sides range over every feasible allocation, not only the
        # online run and the optimum; priorities from a small set make
        # many targets interchangeable.
        rng = random.Random(1812)
        pairs = uncertified = model2_pairs = 0
        for k in range(40):
            inst = random_instance(rng, max_agents=5, max_days=3, max_cats=2, max_cap=2, model2=k % 2 == 1, max_overall=2)
            if k % 3:
                levels = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
                inst = replace(inst, agents=tuple(replace(a, priority=rng.choice(levels)) for a in inst.agents))
            allocations = [Allocation(a) for a in iter_allocations(inst)]
            for online_alloc in allocations:
                for offline_alloc in allocations:
                    report = build_charging_report(inst, online_alloc, offline_alloc)
                    expected = charging_by_target_lists(inst, online_alloc, offline_alloc)
                    assert (report.bound_certified, report.failure_day) == expected
                    pairs += 1
                    uncertified += not report.bound_certified
                    model2_pairs += k % 2
        assert pairs > 10_000 and uncertified > 5_000 and model2_pairs > 4_000


def inject(candidates):
    """A distinct slot for each charger from its candidate list, or None:
    the greedy seating loop of ``online`` over slots of capacity 1."""
    capacities = {slot: 1 for options in candidates for slot in options}
    seat, _holders, _slack = online._seat_greedily(range(len(candidates)), candidates, capacities, len(candidates))
    return [seat.get(charger) for charger in range(len(candidates))]


class TestMatchOverflow:
    """The greedy seating loop the charge certificate and the day matcher
    share, on unit slots: one distinct slot per charger."""

    def test_agrees_with_the_recursive_search_on_random_cases(self):
        rng = random.Random(2718)
        found = missing = 0
        for _ in range(600):
            chargers = [(rng.randint(1, 6), f"c{i}") for i in range(rng.randint(0, 6))]
            targets = [(rng.randint(1, 6), f"t{i}") for i in range(rng.randint(0, 6))]
            rng.shuffle(chargers)
            # Each charger may take a strictly earlier target; some list one
            # twice.
            candidates = []
            for day, _name in chargers:
                options = [t for t in targets if t[0] < day]
                rng.shuffle(options)
                if options and rng.random() < 0.3:
                    options.append(options[0])
                candidates.append(options)
            seats = inject(candidates)
            assert seats.count(None) == injection_by_recursion(candidates).count(None)
            seated = [slot for slot in seats if slot is not None]
            assert len(set(seated)) == len(seated)
            assert all(slot is None or slot in options for slot, options in zip(seats, candidates))
            if None in seats:
                missing += 1
            else:
                found += 1
        assert found > 100 and missing > 100

    def test_a_chain_of_3000_displaced_chargers_needs_no_recursion(self):
        # Chargers c_n..c_2 may take t_j or t_(j-1) and each takes t_j
        # outright, leaving t_1. The last charger x may take only t_n, so it
        # gets in by shifting every c_j one target down, a path through all
        # of them.
        n = 3000
        candidates = [[f"t{j}", f"t{j - 1}"] for j in range(n, 1, -1)] + [[f"t{n}"]]
        with pytest.raises(RecursionError):
            injection_by_recursion(candidates)
        seats = inject(candidates)
        assert seats[-1] == f"t{n}"
        assert seats[:-1] == [f"t{j - 1}" for j in range(n, 1, -1)]


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

    def test_outcome_of_matches_full_reruns_on_a_24_day_horizon(self):
        days = 24
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True,) * days, frozenset({"c1"})),
                Agent("a2", Fraction(2, 5), (True,) * days, frozenset({"c1"})),
                Agent("a3", Fraction(2, 5), tuple(d % 3 != 0 for d in range(days)), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1,) * days),),
            num_days=days,
            daily_supply=(1,) * days,
            discount=Fraction(1, 2),
        )
        rng = random.Random(24)
        for agent in inst.agents:
            report = availability_deviation_report(inst, agent.id)
            available = [d for d in range(1, days + 1) if agent.availability[d - 1]]
            subsets = [(), tuple(available[1:]), tuple(available[2:])]
            subsets += [tuple(d for d in available if rng.random() < 0.3) for _ in range(13)]
            expected = deviation_outcomes_by_rerun(inst, agent.id, subsets=subsets)
            assert [report.outcome_of(s) for s in subsets] == [o.matched_day for o in expected]
            assert report.truthful_day == run_online(inst).day_of(agent.id)
            assert report.strategyproof
            # 2^24 - 1 outcomes: the list is built only when asked for.
            assert "outcomes" not in vars(report)

    def test_outcomes_list_every_proper_subset_by_size(self):
        report = availability_deviation_report(tight_model1(), "a1")
        assert report.available_days == (1, 2)
        assert report.kept_days == (2,)
        assert [(o.reported_days, o.matched_day) for o in report.outcomes] == [((), None), ((1,), None), ((2,), 2)]

    def test_outcome_of_rejects_days_the_agent_is_not_available(self):
        report = availability_deviation_report(tight_model1(), "a2")
        assert report.outcome_of([1]) == 1
        with pytest.raises(ValueError, match="not available on days \\[2\\]"):
            report.outcome_of([1, 2])

    @pytest.mark.parametrize(
        "inst, model2, tie_break",
        [
            (tight_model1(), True, None),
            (tight_general(), False, None),
            (tight_model1(), False, "sideways"),
            (tight_model1(), False, TieBreakOrder(("a1",))),
        ],
        ids=["model2-without-quotas", "model1-with-quotas", "unknown-mode", "partial-order"],
    )
    def test_rejects_what_run_online_rejects(self, inst, model2, tie_break):
        with pytest.raises(ValueError) as expected:
            run_online(inst, model2=model2, tie_break=tie_break)
        with pytest.raises(ValueError) as raised:
            availability_deviation_report(inst, "a1", model2=model2, tie_break=tie_break)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize(
        "inst, agent_id, kept, witness",
        [
            # With a1 added, day 1 keeps a2 only; a1 is kept on day 2.
            (tight_model1(), "a1", (2,), 1),
            # b is never kept: on each day the day's only agent outranks it.
            (
                Instance(
                    agents=(
                        Agent("b", Fraction(1, 4), (True, True, True), frozenset({"c1"})),
                        *(Agent(f"x{d}", Fraction(1, 2), tuple(e == d for e in range(3)), frozenset({"c1"})) for d in range(3)),
                    ),
                    categories=(Category("c1", (1, 1, 1)),),
                    num_days=3,
                    daily_supply=(1, 1, 1),
                    discount=Fraction(1, 2),
                ),
                "b",
                (),
                1,
            ),
        ],
        ids=["kept-later", "never-kept"],
    )
    def test_a_matching_changed_by_a_non_kept_agent_is_the_witness(self, monkeypatch, inst, agent_id, kept, witness):
        real = online.max_weight_capped_bmatching

        def meddling(graph):
            # Drops the whole matching on the days the probed agent is a
            # candidate and is not kept.
            matched = real(graph)
            if agent_id in graph.agents and all(a != agent_id for a, _c in matched):
                return frozenset()
            return matched

        assert availability_deviation_report(inst, agent_id).witness_day is None
        monkeypatch.setattr(online, "max_weight_capped_bmatching", meddling)
        report = availability_deviation_report(inst, agent_id)
        assert report.kept_days == kept
        assert report.witness_day == witness
        assert not report.strategyproof

    def test_replay_matches_full_reruns_on_random_cases(self):
        rng = random.Random(314159)
        cases = changed = 0
        for index in range(120):
            model2 = index % 2 == 1
            inst = random_instance(rng, max_agents=6, max_days=5, model2=model2)
            precedence = list(inst.agent_order())
            rng.shuffle(precedence)
            for tie_break in (None, "adversarial", TieBreakOrder(tuple(precedence))):
                for agent in inst.agents:
                    report = availability_deviation_report(inst, agent.id, model2=model2, tie_break=tie_break)
                    expected = deviation_outcomes_by_rerun(inst, agent.id, tie_break=tie_break)
                    assert report.outcomes == expected
                    assert report.truthful_day == run_online(inst, model2=model2, tie_break=tie_break).day_of(agent.id)
                    assert report.strategyproof
                    cases += 1
                    changed += sum(o.matched_day != report.truthful_day for o in expected)
        assert cases >= 300
        assert changed > 0  # some under-reports move the match, so replays are exercised

    def test_replay_matches_full_reruns_on_the_probe_instance(self):
        # The benchmark's probe instance (PROBE_CONFIG in perfbench/workloads.py).
        config = GeneratorConfig(
            num_agents=100,
            num_days=4,
            num_hospitals=4,
            availability_density=0.5,
            supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
            seed=7,
        )
        inst = generate(config)
        truthful = run_online(inst)
        subsets = 0
        for agent in inst.agents:
            report = availability_deviation_report(inst, agent.id)
            assert report.outcomes == deviation_outcomes_by_rerun(inst, agent.id)
            assert report.truthful_day == truthful.day_of(agent.id)
            assert report.strategyproof
            subsets += len(report.outcomes)
        assert subsets == 364

    def test_outcome_of_matches_full_reruns_on_sampled_subsets(self):
        rng = random.Random(57721)
        checked = moved = 0
        for index in range(40):
            model2 = index % 2 == 1
            inst = random_instance(rng, max_agents=5, max_days=8, density=0.8, model2=model2)
            for agent in inst.agents:
                report = availability_deviation_report(inst, agent.id, model2=model2)
                available = [d for d in range(1, inst.num_days + 1) if agent.availability[d - 1]]
                subsets = [tuple(d for d in available if rng.random() < 0.5) for _ in range(4)]
                expected = deviation_outcomes_by_rerun(inst, agent.id, subsets=subsets)
                assert [report.outcome_of(s) for s in subsets] == [o.matched_day for o in expected]
                assert report.strategyproof
                checked += len(subsets)
                moved += sum(o.matched_day != report.truthful_day for o in expected)
        assert checked > 300 and moved > 0


class TestMixedInstances:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_a_category_without_an_overall_quota_is_uncapped(self, seed, data):
        # Such a category serves at most the sum of its daily quotas, so a
        # cap there binds nothing: every entry point must answer as on that
        # sum-capped equivalent, and the model-2 bound carries over.
        capped = random_instance(random.Random(seed), max_agents=6, max_days=3, max_cap=2, model2=True)
        ids = [c.id for c in capped.categories]
        assume(len(ids) >= 2)
        mixed = without_overall_quotas(capped, data.draw(st.sets(st.sampled_from(ids), min_size=1, max_size=len(ids) - 1)))
        summed = replace(
            mixed,
            categories=tuple(
                replace(c, overall_quota=sum(c.daily_quota)) if c.overall_quota is None else c for c in mixed.categories
            ),
        )
        optimum = solve_exact_oracle(mixed)
        opt = total_utility(mixed, optimum)
        assert opt == best_utility(summed)
        assert check_allocation(mixed, optimum).ok
        for tie_break in (None, "adversarial"):
            online_alloc = run_online(mixed, tie_break=tie_break)
            assert online_alloc == run_online(summed, tie_break=tie_break)
            assert check_allocation(mixed, online_alloc).ok and wasted_slots(mixed, online_alloc) == ()
            report = build_charging_report(mixed, online_alloc, optimum)
            assert report.bound_certified, report.failure_reason
            assert opt <= model2_bound(mixed) * total_utility(mixed, online_alloc)
            for agent in mixed.agents:
                walk = availability_deviation_report(mixed, agent.id, tie_break=tie_break)
                assert walk.outcomes == deviation_outcomes_by_rerun(summed, agent.id, tie_break=tie_break)


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

    @pytest.mark.parametrize("alloc, reason", MISPLACED, ids=MISPLACED_IDS)
    def test_an_entry_the_instance_lacks_is_refused(self, alloc, reason):
        with pytest.raises(ValueError) as raised:
            compute_metrics(tight_model1(), alloc)
        assert str(raised.value) == reason

    def test_reachable_matches_its_definition_on_every_allocation(self):
        # On day j an agent is reachable once some available day d <= j had
        # an eligible category with a daily quota above 0 and, if capped,
        # overall quota left by the allocation's use before day d.
        rng = random.Random(6161)
        allocations = rows = 0
        for k in range(300):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=2, max_cap=2, model2=k % 2 == 1, max_overall=3)
            inst = replace(inst, agents=tuple(replace(a, group=rng.choice(("g", "h", None))) for a in inst.agents))
            for assignment in iter_allocations(inst):
                alloc = Allocation(assignment)

                def has_room(category, day):
                    used = sum(1 for _a, c, d in alloc.matched() if c == category.id and d < day)
                    left = category.overall_quota is None or used < category.overall_quota
                    return category.daily_quota[day - 1] > 0 and left

                open_days = {
                    a.id: [
                        d
                        for d in range(1, inst.num_days + 1)
                        if a.availability[d - 1] and any(has_room(c, d) for c in inst.categories if c.id in a.eligible)
                    ]
                    for a in inst.agents
                }
                series = compute_metrics(inst, alloc)
                for day, row in enumerate(series.days, start=1):
                    for label in series.groups + ("all",):
                        members = [a for a in inst.agents if label in ("all", a.group)]
                        assert row[label].reachable == sum(1 for a in members if open_days[a.id] and open_days[a.id][0] <= day)
                    rows += 1
                allocations += 1
        assert allocations > 1_200 and rows > 2_800


class TestWastedSlots:
    @pytest.mark.parametrize("alloc, reason", MISPLACED, ids=MISPLACED_IDS)
    def test_an_entry_the_instance_lacks_is_refused(self, alloc, reason):
        with pytest.raises(ValueError) as raised:
            wasted_slots(tight_model1(), alloc)
        assert str(raised.value) == reason

    def test_lists_exactly_the_slots_that_can_be_added(self):
        rng = random.Random(7373)
        allocations = wasteful = 0
        for k in range(300):
            inst = random_instance(rng, max_agents=6, max_days=3, max_cats=2, max_cap=2, model2=k % 2 == 1, max_overall=3)
            for assignment in iter_allocations(inst):
                alloc = Allocation(assignment)
                addable = tuple(
                    (a.id, c.id, d)
                    for a in inst.agents
                    if assignment[a.id] is None
                    for d in range(1, inst.num_days + 1)
                    for c in inst.categories
                    if check_allocation(inst, Allocation({**assignment, a.id: (c.id, d)})).ok
                )
                assert wasted_slots(inst, alloc) == addable
                allocations += 1
                wasteful += bool(addable)
        assert allocations > 1_200 and wasteful > 600


class TestBounds:
    def test_bound_values(self):
        inst = tight_general()
        assert model1_bound(inst) == Fraction(3, 2)
        assert model2_bound(inst) == Fraction(5, 2)

    def test_priority_spread_of_empty_instance(self):
        inst = Instance((), (), 1, (0,), Fraction(1, 2))
        assert model2_bound(inst) == 1 + 2 * Fraction(1, 2)


class TestMaxMatchingSize:
    @staticmethod
    def random_day_graph(rng: random.Random) -> DayGraph:
        # Agents sometimes share their ids with categories; the two must not mix.
        prefix = rng.choice("ac")
        agents = tuple(f"{prefix}{i}" for i in range(rng.randint(0, 30)))
        categories = tuple(f"c{i}" for i in range(rng.randint(1, 5)))
        density = rng.random()
        eligible = {a: tuple(c for c in categories if rng.random() < density) for a in agents}
        return DayGraph(
            day_index=1,
            size_cap=rng.randint(0, 20),
            agents=agents,
            capacities={c: rng.randint(0, 6) for c in categories},
            eligible=eligible,
            precedence={a: i for i, a in enumerate(agents)},
        )

    def test_equals_networkx_maximum_flow_on_random_day_graphs(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8128)
        for _ in range(250):
            graph = self.random_day_graph(rng)
            network = nx.DiGraph()
            network.add_edge("source", "gate", capacity=graph.size_cap)
            for a, c in graph.edges:
                network.add_edge("gate", ("agent", a), capacity=1)
                network.add_edge(("agent", a), ("category", c), capacity=1)
            for c in graph.categories:
                network.add_edge(("category", c), "sink", capacity=graph.capacities[c])
            assert max_matching_size(graph) == nx.maximum_flow_value(network, "source", "sink")

    def test_repairs_a_blocked_start(self):
        # a1 takes c1 first; only moving it to c2 lets a2 in.
        graph = DayGraph(
            day_index=1,
            size_cap=2,
            agents=("a1", "a2"),
            capacities={"c1": 1, "c2": 1},
            eligible={"a1": ("c1", "c2"), "a2": ("c1",)},
            precedence={"a1": 0, "a2": 1},
        )
        assert max_matching_size(graph) == 2

import copy
import dataclasses
import inspect
import pickle
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import rationd
from rationd.analysis import (
    availability_deviation_report,
    build_charging_report,
    compute_metrics,
    model2_bound,
    offline_optimum,
    wasted_slots,
)
from rationd.model import (
    Agent,
    Allocation,
    Category,
    Instance,
    MalformedInstance,
    ModelMismatch,
    TieBreakOrder,
    ValidationReport,
    Violation,
    check_allocation,
    overall_quotas,
    total_utility,
    utility_of,
    utility_scale,
    validate_instance,
)
from rationd.offline import solve_exact_oracle, solve_offline_model1, solve_offline_tiebroken
from rationd.online import run_online, run_online_with_trace

from helpers import online_ratio, random_instance, tight_general, tight_model1, without_overall_quotas
from oracles import best_utility


def two_agent_instance():
    """a1 flexible across both days, a2 only day 1; one category, unit caps."""
    return Instance(
        agents=(
            Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"})),
            Agent("a2", Fraction(9, 10), (True, False), frozenset({"c1"})),
        ),
        categories=(Category("c1", (1, 1)),),
        num_days=2,
        daily_supply=(1, 1),
        discount=Fraction(1, 2),
    )


def refused(*args, **kwargs) -> ValidationReport:
    """The report of the MalformedInstance that ``Instance(*args, **kwargs)``
    raises, after checking that it is the report ``validate_instance`` gives
    for those fields and that the message names its first violation."""
    with pytest.raises(MalformedInstance) as raised:
        Instance(*args, **kwargs)
    report = raised.value.report
    fields = dict(zip((f.name for f in dataclasses.fields(Instance)), args), **kwargs)
    assert report == validate_instance(SimpleNamespace(**fields))
    first = report.violations[0].message
    assert str(raised.value) == f"instance is not well-formed ({len(report.violations)} problems; first: {first})"
    return report


class TestValidateInstance:
    def test_well_formed(self):
        assert validate_instance(two_agent_instance()).ok

    def test_short_availability_vector(self):
        inst = two_agent_instance()
        report = refused(
            agents=(inst.agents[0], Agent("a2", Fraction(1, 2), (True,), frozenset({"c1"}))),
            categories=inst.categories,
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        assert len(report.violations) == 1
        assert report.violations[0].kind == "availability"
        assert "a2" in report.violations[0].subjects

    def test_discount_boundary(self):
        inst = two_agent_instance()
        assert refused(inst.agents, inst.categories, 2, (1, 1), Fraction(1)).kinds() == {"discount"}

    def test_replace_validates_again(self):
        inst = two_agent_instance()
        with pytest.raises(MalformedInstance) as raised:
            dataclasses.replace(inst, discount=Fraction(1))
        assert raised.value.report == refused(inst.agents, inst.categories, 2, (1, 1), Fraction(1))

    def test_malformed_instance_survives_pickling(self):
        with pytest.raises(MalformedInstance) as raised:
            dataclasses.replace(tight_model1(), discount=1)
        copied = pickle.loads(pickle.dumps(raised.value))
        assert type(copied) is MalformedInstance
        assert copied.report == raised.value.report
        assert str(copied) == str(raised.value)

    def test_boolean_num_days_is_flagged(self):
        assert refused((), (Category("c1", (1,)),), True, (1,), Fraction(1, 2)).kinds() == {"structure"}

    def test_priority_bounds_and_unknown_category(self):
        kinds = refused(
            agents=(Agent("a1", Fraction(0), (True,), frozenset({"ghost"})),),
            categories=(Category("c1", (1,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        ).kinds()
        assert "priority" in kinds and "eligibility" in kinds

    def test_priority_edge_values(self):
        # Fractions are checked on their integer parts, and no int lies
        # strictly between 0 and 1; the message is the same for both.
        priorities = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), 0, 1, Fraction(1, 2)]
        agents = tuple(Agent(f"a{k}", p, (True,), frozenset({"c1"})) for k, p in enumerate(priorities))
        agents += (Agent("ghost", Fraction(1, 3), (True,), frozenset({"c1", "zz", "c0"})),)

        def priority(k, shown):
            return Violation("priority", (f"a{k}",), f"agent 'a{k}' priority must lie strictly in (0, 1), got {shown}")

        def unknown(cat_id):
            return Violation("eligibility", ("ghost", cat_id), f"agent 'ghost' is eligible for unknown category {cat_id!r}")

        expected = (
            *(priority(k, shown) for k, shown in enumerate(["0", "1", "-1/2", "3/2", "0", "1"])),
            unknown("c0"),
            unknown("zz"),
        )
        assert refused(agents, (Category("c1", (1,)),), 1, (1,), Fraction(1, 2)) == ValidationReport(expected)

    def test_inexact_priority_and_discount_are_refused(self):
        # A float inside (0, 1) is still refused: utilities are exact.
        inst = two_agent_instance()
        floating = (Agent("a1", 0.5, (True, True), frozenset({"c1"})), inst.agents[1])
        assert refused(floating, inst.categories, 2, (1, 1), Fraction(1, 2)) == ValidationReport(
            (Violation("priority", ("a1",), "agent 'a1' priority must be an exact Fraction, got 0.5 (float)"),)
        )
        assert refused(inst.agents, inst.categories, 2, (1, 1), 0.5) == ValidationReport(
            (Violation("discount", (), "discount must be an exact Fraction, got 0.5 (float)"),)
        )

    @pytest.mark.parametrize("eligible", [{"c1"}, ["c1"], "c1"], ids=["set", "list", "str"])
    def test_eligible_categories_must_be_a_frozenset(self, eligible):
        # Solvers key on the eligible set, so it must be hashable as well
        # as immutable.
        inst = two_agent_instance()
        agents = (Agent("a1", Fraction(1, 2), (True, True), eligible), inst.agents[1])
        kind = type(eligible).__name__
        assert refused(agents, inst.categories, 2, (1, 1), Fraction(1, 2)) == ValidationReport(
            (Violation("eligibility", ("a1",), f"agent 'a1' eligible categories must be a frozenset, got {kind}"),)
        )

    def test_a_number_too_long_to_print_is_described(self):
        assert refused((), (), 10**4300, (), Fraction(1, 2)) == ValidationReport(
            (Violation("structure", (), "daily_supply has length 0, expected <int too long to print>"),)
        )

    def test_duplicate_ids(self):
        report = refused(
            agents=(
                Agent("a1", Fraction(1, 2), (True,), frozenset()),
                Agent("a1", Fraction(1, 2), (True,), frozenset()),
            ),
            categories=(Category("c1", (1,)), Category("c1", (1,))),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        assert sum(1 for v in report.violations if v.kind == "duplicate") == 2


class TestDataclasses:
    @pytest.mark.parametrize(
        "value",
        [two_agent_instance(), Allocation({"a1": ("c1", 2), "a2": None}), TieBreakOrder(("a2", "a1"))],
        ids=["instance", "allocation", "tie-break-order"],
    )
    def test_slotted_values_round_trip(self, value):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value
        assert dataclasses.replace(value) == value

    def test_replace_changes_one_field(self):
        inst = two_agent_instance()
        changed = dataclasses.replace(inst, discount=Fraction(3, 4))
        assert changed.discount == Fraction(3, 4) and changed.agents == inst.agents
        alloc = dataclasses.replace(Allocation.empty(inst), assignment={"a1": ("c1", 1), "a2": None})
        assert list(alloc.matched()) == [("a1", "c1", 1)]

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            two_agent_instance().num_days = 3


class TestUtilityOf:
    def test_first_day_undiscounted(self):
        assert utility_of(Fraction(96, 100), 1, Fraction(95, 100)) == Fraction(96, 100)

    def test_third_day(self):
        value = utility_of(Fraction(99, 100), 3, Fraction(95, 100))
        assert value == Fraction(893475, 1000000)

    def test_one_day_shift_multiplies_by_discount(self):
        weight, decay = Fraction(3, 7), Fraction(4, 5)
        for day in (1, 2, 5):
            assert utility_of(weight, day + 1, decay) == utility_of(weight, day, decay) * decay

    def test_day_zero_rejected(self):
        with pytest.raises(ValueError):
            utility_of(Fraction(1, 2), 0, Fraction(1, 2))

    @given(
        weight=st.integers(1, 99),
        decay=st.integers(1, 19),
        day=st.integers(1, 30),
    )
    def test_strictly_decreasing_in_day(self, weight, decay, day):
        a, d = Fraction(weight, 100), Fraction(decay, 20)
        assert utility_of(a, day, d) > utility_of(a, day + 1, d)

    @given(
        hi=st.integers(2, 99),
        lo=st.integers(1, 98),
        decay=st.integers(1, 19),
        day=st.integers(1, 20),
        later=st.integers(1, 10),
    )
    def test_priority_order_and_gap_shrinkage(self, hi, lo, decay, day, later):
        if lo >= hi:
            lo = hi - 1
        a_hi, a_lo, d = Fraction(hi, 100), Fraction(lo, 100), Fraction(decay, 20)
        assert utility_of(a_hi, day, d) > utility_of(a_lo, day, d)
        gap_now = utility_of(a_hi, day, d) - utility_of(a_lo, day, d)
        gap_later = utility_of(a_hi, day + later, d) - utility_of(a_lo, day + later, d)
        assert gap_now > gap_later


class TestUtilityScale:
    @settings(deadline=None, derandomize=True, database=None)
    @given(
        parts=st.lists(st.integers(2, 10**6).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))), max_size=6),
        discount=st.sampled_from([Fraction(19, 20), Fraction(1, 3), Fraction(999, 1000)]),
        num_days=st.integers(1, 40),
    )
    def test_integers_over_scale_are_utility_of(self, parts, discount, num_days):
        agents = tuple(Agent(f"a{k}", Fraction(n, d), (True,) * num_days, frozenset()) for k, (n, d) in enumerate(parts))
        scale = utility_scale(Instance(agents, (), num_days, (0,) * num_days, discount))
        assert scale.scale > 0 and set(scale.keys) == {a.id for a in agents}
        for agent in agents:
            for day in range(1, num_days + 1):
                assert Fraction(scale.utility(agent.id, day), scale.scale) == utility_of(agent.priority, day, discount)

    @pytest.mark.parametrize("day", [0, -1, 3])
    def test_total_utility_refuses_a_day_outside_the_horizon(self, day):
        inst = two_agent_instance()
        with pytest.raises(ValueError, match="outside 1..2"):
            total_utility(inst, Allocation({"a1": ("c1", day), "a2": None}))


class TestCheckAllocation:
    def test_empty_allocation_clean(self):
        inst = two_agent_instance()
        assert check_allocation(inst, Allocation.empty(inst)).ok

    def test_tight_fixture_online_run(self):
        inst = tight_model1()
        alloc = Allocation({"a1": ("c1", 1), "a2": None})
        assert check_allocation(inst, alloc).ok

    def test_supply_violation(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True,), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True,), frozenset({"c1"})),
            ),
            categories=(Category("c1", (2,)),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        alloc = Allocation({"a1": ("c1", 1), "a2": ("c1", 1)})
        report = check_allocation(inst, alloc)
        assert [v.kind for v in report.violations] == ["supply"]

    def test_availability_eligibility_and_quota(self):
        inst = two_agent_instance()
        report = check_allocation(inst, Allocation({"a1": ("c1", 2), "a2": ("c1", 2)}))
        kinds = report.kinds()
        assert "availability" in kinds  # a2 is not available on day 2
        assert "daily_quota" in kinds or "supply" in kinds

    def test_overall_quota_only_with_model2(self):
        inst = Instance(
            agents=(
                Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"})),
                Agent("a2", Fraction(1, 2), (True, True), frozenset({"c1"})),
            ),
            categories=(Category("c1", (1, 1), overall_quota=1),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        alloc = Allocation({"a1": ("c1", 1), "a2": ("c1", 2)})
        assert check_allocation(without_overall_quotas(inst), alloc).ok
        assert check_allocation(inst, alloc).kinds() == {"overall_quota"}


# Every public function that takes ``model2``, called with it on an instance.
TAKES_MODEL2 = {
    "availability_deviation_report": lambda inst, model2: availability_deviation_report(inst, "a1", model2=model2),
    "build_charging_report": lambda inst, model2: build_charging_report(
        inst, Allocation.empty(inst), Allocation.empty(inst), model2=model2
    ),
    "check_allocation": lambda inst, model2: check_allocation(inst, Allocation.empty(inst), model2=model2),
    "overall_quotas": lambda inst, model2: overall_quotas(inst, model2=model2),
    "run_online": lambda inst, model2: run_online(inst, model2=model2),
    "run_online_with_trace": lambda inst, model2: run_online_with_trace(inst, model2=model2),
    "solve_exact_oracle": lambda inst, model2: solve_exact_oracle(inst, model2=model2),
    "wasted_slots": lambda inst, model2: wasted_slots(inst, Allocation.empty(inst), model2=model2),
}

MODEL1_ASKED = "model 1 was asked for, but categories {} carry overall quotas (model 2)"


class TestModelRule:
    def test_every_public_model2_parameter_is_covered(self):
        public = (getattr(rationd, name) for name in rationd.__all__)
        names = {f.__name__ for f in public if inspect.isfunction(f) and "model2" in inspect.signature(f).parameters}
        assert names == set(TAKES_MODEL2)

    @pytest.mark.parametrize(
        "inst, model2, message",
        [
            (tight_model1(), True, "model 2 was asked for, but no category carries an overall quota (model 1)"),
            (tight_general(), False, MODEL1_ASKED.format(["c1", "c2"])),
        ],
        ids=["model2-on-tight_model1", "model1-on-tight_general"],
    )
    @pytest.mark.parametrize("entry_point", sorted(TAKES_MODEL2))
    def test_an_explicit_model2_must_match_the_instance(self, entry_point, inst, model2, message):
        with pytest.raises(ModelMismatch) as raised:
            TAKES_MODEL2[entry_point](inst, model2)
        assert str(raised.value) == message
        # Omitted, the instance decides.
        TAKES_MODEL2[entry_point](inst, None)

    def test_a_category_without_an_overall_quota_is_uncapped(self):
        # tight_general with c2's overall quota dropped is in model 2, with
        # c2 uncapped. c2 can serve at most the sum of its daily quotas, 2,
        # which is its overall quota in tight_general: every entry point
        # answers as it does there.
        capped = tight_general()
        mixed = without_overall_quotas(capped, ["c2"])
        assert overall_quotas(mixed) == {"c1": 1}
        optimum = solve_exact_oracle(mixed, model2=True)
        assert optimum == solve_exact_oracle(capped) == offline_optimum(mixed)
        assert check_allocation(mixed, optimum, model2=True).ok
        for tie_break in (None, "adversarial"):
            online_alloc = run_online(mixed, model2=True, tie_break=tie_break)
            assert online_alloc == run_online(capped, tie_break=tie_break)
            assert check_allocation(mixed, online_alloc).ok
            assert wasted_slots(mixed, online_alloc, model2=True) == ()
            assert build_charging_report(mixed, online_alloc, optimum, model2=True).bound_certified
            assert compute_metrics(mixed, online_alloc) == compute_metrics(capped, online_alloc)
            for agent in mixed.agents:
                report = availability_deviation_report(mixed, agent.id, model2=True, tie_break=tie_break)
                assert report == availability_deviation_report(capped, agent.id, tie_break=tie_break)
        assert online_ratio(mixed, tie_break="adversarial") == model2_bound(mixed) == Fraction(5, 2)
        # The flow solvers solve model 1 only and refuse it alike.
        for solve in (solve_offline_model1, lambda inst: solve_offline_tiebroken(inst, None)):
            with pytest.raises(ModelMismatch) as raised:
                solve(mixed)
            assert str(raised.value) == MODEL1_ASKED.format(["c1"])


class TestTotalUtility:
    def test_empty_is_zero(self):
        inst = two_agent_instance()
        assert total_utility(inst, Allocation.empty(inst)) == 0

    def test_tight_fixture_optimum(self):
        inst = tight_model1()
        alloc = Allocation({"a2": ("c2", 1), "a1": ("c1", 2)})
        priority, discount = Fraction(1, 2), Fraction(19, 20)
        assert total_utility(inst, alloc) == priority + priority * discount

    def test_two_agent_maximum(self):
        inst = two_agent_instance()
        alloc = Allocation({"a2": ("c1", 1), "a1": ("c1", 2)})
        value = total_utility(inst, alloc)
        assert value == Fraction(23, 20)  # 0.9 + 0.5 * 0.5
        assert value == best_utility(inst)

    def test_additive_over_disjoint_matched_sets(self):
        rng = random.Random(7)
        for _ in range(25):
            inst = random_instance(rng, max_agents=6)
            from rationd.offline import solve_exact_oracle

            alloc = solve_exact_oracle(inst)
            matched = list(alloc.matched())
            half = len(matched) // 2
            left = Allocation({a: s for a, s in alloc.assignment.items() if a in {m[0] for m in matched[:half]}} | {a: None for a, s in alloc.assignment.items() if a not in {m[0] for m in matched[:half]}})
            right = Allocation({a: (s if a not in {m[0] for m in matched[:half]} else None) for a, s in alloc.assignment.items()})
            assert total_utility(inst, left) + total_utility(inst, right) == total_utility(inst, alloc)

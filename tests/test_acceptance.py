"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria cover: both worst-case fixtures at their exact ratios, offline
optimality against exhaustive search, the competitive bounds and charge
certificates on large seeded batches, strategyproofness under exhaustive
under-reporting, per-day maximality, a scaled synthetic experiment, and
invariance of daily decisions under order-preserving priority changes.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from rationd.analysis import (
    availability_deviation_report,
    build_charging_report,
    compute_metrics,
    max_matching_size,
    model1_bound,
    model2_bound,
)
from rationd.data import GeneratorConfig, GroupSpec, SupplyModel, generate, load_fixture
from rationd.model import Agent, Instance, check_allocation, total_utility
from rationd.offline import solve_exact_oracle, solve_offline_model1
from rationd.online import run_online, run_online_with_trace

from helpers import online_ratio, random_instance


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} {title}: PASS ({time.perf_counter() - started:.1f}s)")


def model1_batch(seed: int, count: int, **kwargs):
    rng = random.Random(seed)
    return [random_instance(rng, **kwargs) for _ in range(count)]


def model2_batch(seed: int, count: int):
    rng = random.Random(seed)
    return [
        random_instance(rng, max_agents=6, max_days=3, max_cats=3, max_cap=2, model2=True)
        for _ in range(count)
    ]


C4_SEED, C4_COUNT = 0xC4, 1000
C5_SEED, C5_COUNT = 0xC5, 300


def test_criterion_1_tight_example_daily_quotas():
    with criterion(1, "tight example, daily quotas only"):
        started = time.perf_counter()
        inst = load_fixture("tight_model1")
        assert inst.discount == Fraction(19, 20)
        ratio = online_ratio(inst, tie_break="adversarial")
        assert ratio == Fraction(39, 20)
        assert ratio == 1 + inst.discount == model1_bound(inst)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_tight_example_overall_quotas():
    with criterion(2, "tight example, overall quotas"):
        started = time.perf_counter()
        inst = load_fixture("tight_general")
        discount = Fraction(1, 2)
        assert inst.discount == discount
        ratio = online_ratio(inst, tie_break="adversarial")
        spread = Fraction(2, 5) / Fraction(1, 5)
        assert ratio == 1 + discount + spread * discount == Fraction(5, 2)
        assert ratio == model2_bound(inst)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_offline_matches_exhaustive_search():
    with criterion(3, "offline flow solver equals exhaustive oracle (500 instances)"):
        started = time.perf_counter()
        batch = model1_batch(0xC3, 500, max_agents=6, max_days=3, max_cats=3, max_cap=2)
        for inst in batch:
            flow_value = total_utility(inst, solve_offline_model1(inst))
            oracle_value = total_utility(inst, solve_exact_oracle(inst))
            assert flow_value == oracle_value
        assert time.perf_counter() - started < 30.0


def test_criterion_4_competitive_bound_daily_quotas():
    with criterion(4, "offline <= (1+d) * online on 1000 instances"):
        started = time.perf_counter()
        for inst in model1_batch(C4_SEED, C4_COUNT, max_agents=10, max_days=4):
            opt = total_utility(inst, solve_offline_model1(inst))
            alg = total_utility(inst, run_online(inst))
            assert opt <= model1_bound(inst) * alg
        assert time.perf_counter() - started < 60.0


def test_criterion_5_competitive_bound_overall_quotas():
    with criterion(5, "offline <= (1+d+spread*d) * online on 300 instances"):
        started = time.perf_counter()
        for inst in model2_batch(C5_SEED, C5_COUNT):
            opt = total_utility(inst, solve_exact_oracle(inst, model2=True))
            alg = total_utility(inst, run_online(inst, model2=True))
            assert opt <= model2_bound(inst) * alg
        assert time.perf_counter() - started < 120.0


def test_criterion_6_charge_certificates():
    with criterion(6, "charge certificate on every bound-check instance"):
        for inst in model1_batch(C4_SEED, C4_COUNT, max_agents=10, max_days=4):
            report = build_charging_report(inst, run_online(inst), solve_offline_model1(inst))
            assert report.bound_certified, (report.failure_day, report.failure_reason)
        for inst in model2_batch(C5_SEED, C5_COUNT):
            report = build_charging_report(
                inst,
                run_online(inst, model2=True),
                solve_exact_oracle(inst, model2=True),
                model2=True,
            )
            assert report.bound_certified, (report.failure_day, report.failure_reason)


def test_criterion_7_no_improving_underreport():
    with criterion(7, "exhaustive under-reporting never helps (200 instances)"):
        started = time.perf_counter()
        rng = random.Random(0xC7)
        for _ in range(200):
            inst = random_instance(rng, max_agents=5, max_days=5, max_cats=2, max_cap=2)
            for agent in inst.agents:
                report = availability_deviation_report(inst, agent.id)
                assert report.strategyproof, (agent.id, report.witness_day)
        assert time.perf_counter() - started < 120.0


def test_criterion_8_daily_matchings_are_maximal():
    with criterion(8, "every online day matching is maximum-cardinality"):
        for inst in model1_batch(C4_SEED, C4_COUNT, max_agents=10, max_days=4):
            _, trace = run_online_with_trace(inst)
            for day in trace:
                assert len(day.matched) == max_matching_size(day.graph)


SCALED_CONFIG = GeneratorConfig(
    num_agents=2000,
    num_days=30,
    num_hospitals=24,
    cluster_radius_links=1,
    availability_density=0.5,
    group_specs=(
        GroupSpec("18-45", 0.55, Fraction(96, 100)),
        GroupSpec("45-60", 0.27, Fraction(97, 100)),
        GroupSpec("60+", 0.18, Fraction(99, 100)),
    ),
    discount=Fraction(95, 100),
    supply_model=SupplyModel(supply_low=50, supply_high=90, quota_low=0, quota_high=8),
    seed=42,
)


def test_criterion_9_scaled_synthetic_experiment():
    with criterion(9, "scaled experiment: efficiency, group curves, speed"):
        inst = generate(SCALED_CONFIG)

        started = time.perf_counter()
        online_alloc = run_online(inst)
        online_seconds = time.perf_counter() - started
        assert online_seconds < 60.0, f"online run took {online_seconds:.1f}s"

        offline_alloc = solve_offline_model1(inst)
        assert check_allocation(inst, online_alloc).ok
        assert check_allocation(inst, offline_alloc).ok

        alg = total_utility(inst, online_alloc)
        opt = total_utility(inst, offline_alloc)
        assert alg / opt >= Fraction(95, 100), f"efficiency {float(alg / opt):.4f}"

        # The highest-priority group is never worse covered than the lowest.
        for alloc in (online_alloc, offline_alloc):
            series = compute_metrics(inst, alloc)
            for row in series.days:
                assert row["60+"].fraction_unserved <= row["18-45"].fraction_unserved


def _perturbed_copy(structure: Instance, groups: list[int], vector: tuple[Fraction, ...]) -> Instance:
    n = len(structure.agents)
    epsilon = Fraction(1, 100 * 2 ** (n + 2))
    agents = tuple(
        Agent(a.id, vector[groups[k]] + epsilon * 2**k, a.availability, a.eligible, a.group)
        for k, a in enumerate(structure.agents)
    )
    return Instance(agents, structure.categories, structure.num_days, structure.daily_supply, structure.discount)


def test_criterion_10_priority_order_invariance():
    # Per-agent powers-of-two perturbations make every subset sum distinct,
    # so each day's optimal matched set is unique; replacing the group
    # priority vector by any order-preserving one must keep every day's
    # matched set identical.
    with criterion(10, "order-preserving priorities leave daily choices unchanged"):
        low_vector = (Fraction(1, 10), Fraction(5, 10), Fraction(9, 10))
        high_vector = (Fraction(96, 100), Fraction(97, 100), Fraction(99, 100))
        rng = random.Random(0xC10)
        for _ in range(100):
            structure = random_instance(rng, max_agents=10, max_days=4, max_cats=3, max_cap=3)
            groups = [rng.randrange(3) for _ in structure.agents]
            first = _perturbed_copy(structure, groups, high_vector)
            second = _perturbed_copy(structure, groups, low_vector)
            _, trace_first = run_online_with_trace(first)
            _, trace_second = run_online_with_trace(second)
            for day_first, day_second in zip(trace_first, trace_second):
                matched_first = {a for a, _c in day_first.matched}
                matched_second = {a for a, _c in day_second.matched}
                assert matched_first == matched_second

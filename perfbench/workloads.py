"""The benchmark's workloads: inputs built from a seed, one timed pass, and
the checks every pass makes.

Each workload calls rationd only through module attributes
(``online.run_online`` rather than a name imported from it), so that a
traced run can wrap those attributes from outside the package.

Every workload's inputs are fixed by its generator seed, and the run's
seed only orders the work: ``probe`` probes its agents in an order shuffled
by the seed, ``exact-small`` shuffles the cases of each block, and
``scaled`` (one solve) ignores it. So every run seed measures the same
work. Drawing inputs per run seed would let the seed, not the code, decide
much of a run's time: agent order is the online tie-break, and reordering
the agents changed a probe pass's time by up to about 15%; small-case times
are heavy-tailed (a few cases take most of the oracle's time).

``scaled`` and ``probe`` each use one generated instance whose offline
optimum every pass checks against a value pinned once per generator seed by
``pin.py`` (an independent networkx solve). ``exact-small`` uses the
exhaustive oracle as its reference instead.

A workload's work is split into ``blocks``; pass k runs block k mod
``blocks``, so a run repeats every block, every case and every timed call
several times and can report the fastest time of each (see ``run.py``).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable

from rationd import analysis, data, model, offline, online
from rationd.data import GeneratorConfig, GroupSpec, SupplyModel
from rationd.model import Agent, Category, Instance

from checkout import HERE

# The values of SCALED_CONFIG in tests/test_acceptance.py (criterion 9).
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

# 100 agents so that a pass probes at least 100 cases; 4 days keeps a pass
# near 3 s (about 500 online reruns on this instance), so that a run
# repeats every case more than ten times.
PROBE_CONFIG = GeneratorConfig(
    num_agents=100,
    num_days=4,
    num_hospitals=4,
    availability_density=0.5,
    supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
    seed=7,
)

# Generator seeds never used while the benchmark or a change is tuned;
# selected with ``run.py --held-out`` to confirm a claim on fresh inputs.
HELD_OUT_SEEDS = {"scaled": 43, "probe": 8, "exact-small": 2}
EXACT_SMALL_SEED = 1

# Small-instance shape for exact-small. From 10 agents on the oracle refuses
# some cases (budget exceeded); at 8 a rare case takes half a second, enough
# for one seed's blocks to run 1.5x slower than another's.
SMALL_MAX_AGENTS = 7
SMALL_MAX_DAYS = 5
SMALL_MAX_CATS = 3
SMALL_MAX_CAP = 3
SMALL_MAX_OVERALL = 4
CASES_PER_PASS = 150
CASE_BLOCKS = 8

EFFICIENCY_FLOOR = Fraction(95, 100)
PINS_PATH = os.path.join(HERE, "pins.json")


def load_pins() -> dict[str, dict[str, str]]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Ledger:
    """Counts checks made and failed; a call that raises counts as one failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what)

    def raised(self, exc: Exception, what: str) -> None:
        self.attempted += 1
        self._fail(f"{what}: {type(exc).__name__}: {exc}")

    def _fail(self, text: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: FAILED {text}", file=sys.stderr)


@dataclass
class PassTimes:
    """Wall times of one pass of block ``block``. ``online`` and ``optimum``
    hold (key, seconds) for the time to the online allocation and to the
    offline optimum of each instance timed, ``cases`` (key, seconds) for the
    latency of each case; equal keys mark repeats of the same work."""

    block: int
    seconds: float = 0.0
    online: list[tuple[Any, float]] = field(default_factory=list)
    optimum: list[tuple[Any, float]] = field(default_factory=list)
    cases: list[tuple[Any, float]] = field(default_factory=list)


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, float]:
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def verify_model1(
    ledger: Ledger,
    instance: Instance,
    online_alloc: model.Allocation,
    trace: tuple[online.DayTrace, ...],
    offline_alloc: model.Allocation,
    pin: Fraction,
) -> tuple[Fraction, Fraction]:
    """The ``rationd verify`` checks of one daily-quota instance, plus the
    offline optimum against its pin. Returns (online, offline) utility."""
    ledger.check(model.check_allocation(instance, online_alloc).ok, "online allocation is feasible")
    ledger.check(model.check_allocation(instance, offline_alloc).ok, "offline allocation is feasible")
    for day in trace:
        maximum = analysis.max_matching_size(day.graph)
        ledger.check(len(day.matched) == maximum, f"day {day.graph.day_index} matching is maximum-cardinality")
    wasted = analysis.wasted_slots(instance, online_alloc)
    ledger.check(not wasted, f"online allocation is non-wasteful ({len(wasted)} addable slots)")
    report = analysis.build_charging_report(instance, online_alloc, offline_alloc)
    ledger.check(report.bound_certified, f"charge certificate ({report.failure_reason})")
    alg = model.total_utility(instance, online_alloc)
    opt = model.total_utility(instance, offline_alloc)
    ledger.check(opt == pin, f"offline optimum {opt} equals the pinned {pin}")
    ledger.check(opt <= analysis.model1_bound(instance) * alg, "offline <= (1 + d) * online")
    return alg, opt


class PinnedInstance:
    """A generated instance and its pinned offline optimum."""

    name = ""
    config: GeneratorConfig
    blocks = 1

    def __init__(self, workdir: str, seed: int, held_out: bool) -> None:
        self.seed = seed
        self.generator_seed = HELD_OUT_SEEDS[self.name] if held_out else self.config.seed
        pins = load_pins().get(self.name, {})
        if str(self.generator_seed) not in pins:
            raise SystemExit(f"perfbench: {PINS_PATH} has no {self.name} pin for generator seed {self.generator_seed}")
        self.pin = Fraction(pins[str(self.generator_seed)])
        self.workdir = workdir
        self.instance_path = os.path.join(workdir, f"{self.name}.json")

    def setup(self) -> list[tuple[Any, float]]:
        """Generate and write the instance; returns its one timed part."""
        started = time.perf_counter()
        data.write_instance(data.generate(replace(self.config, seed=self.generator_seed)), self.instance_path)
        return [(self.name, time.perf_counter() - started)]


class Scaled(PinnedInstance):
    """The acceptance-scale solve: online and offline, every check, metrics."""

    name = "scaled"
    config = SCALED_CONFIG

    def run_pass(self, ledger: Ledger, block: int) -> PassTimes:
        times = PassTimes(block)
        started = time.perf_counter()
        try:
            instance = data.read_instance(self.instance_path)
            ledger.check(model.validate_instance(instance).ok, "instance is well-formed")
            (online_alloc, trace), seconds = timed(online.run_online_with_trace, instance)
            times.online.append((self.name, seconds))
            offline_alloc, seconds = timed(offline.solve_offline_model1, instance)
            times.optimum.append((self.name, seconds))
            alg, opt = verify_model1(ledger, instance, online_alloc, trace, offline_alloc, self.pin)
            ledger.check(alg >= EFFICIENCY_FLOOR * opt, f"online efficiency {float(alg / opt):.4f} >= 0.95")
            for label, alloc in (("online", online_alloc), ("offline", offline_alloc)):
                series = analysis.compute_metrics(instance, alloc)
                served = series.days[-1]["all"].served
                ledger.check(served == alloc.matched_count(), f"{label} metrics count every matched agent")
                data.export_metrics(series, os.path.join(self.workdir, f"metrics_{label}.csv"))
            data.write_allocation(online_alloc, os.path.join(self.workdir, "allocation.json"))
        except Exception as exc:  # a raised call is a failed operation; the run goes on
            ledger.raised(exc, "scaled pass")
        times.seconds = time.perf_counter() - started
        times.cases.append((self.name, times.seconds))
        return times


class Probe(PinnedInstance):
    """The ``rationd verify`` steps, then exhaustive under-reporting probes of
    every agent, in an order shuffled by the run's seed; one probed agent is
    one case.

    The online run and offline solve of this instance take a few ms, so
    the pass repeats each after every ``len(agents) // RETIMES`` probed
    agents (the repeats are checked too) to give the run many timings of
    both.
    """

    name = "probe"
    config = PROBE_CONFIG
    RETIMES = 10

    def run_pass(self, ledger: Ledger, block: int) -> PassTimes:
        times = PassTimes(block)
        started = time.perf_counter()
        try:
            instance = data.read_instance(self.instance_path)
            ledger.check(model.validate_instance(instance).ok, "instance is well-formed")
            (online_alloc, trace), seconds = timed(online.run_online_with_trace, instance)
            times.online.append((self.name, seconds))
            offline_alloc, seconds = timed(offline.solve_offline_model1, instance)
            times.optimum.append((self.name, seconds))
            verify_model1(ledger, instance, online_alloc, trace, offline_alloc, self.pin)
            agents = list(instance.agents)
            random.Random(self.seed).shuffle(agents)
            every = max(1, len(agents) // self.RETIMES)
            for done, agent in enumerate(agents, start=1):
                case_started = time.perf_counter()
                report = analysis.availability_deviation_report(instance, agent.id)
                times.cases.append((agent.id, time.perf_counter() - case_started))
                ledger.check(report.strategyproof, f"no improving under-report for {agent.id}")
                if done % every == 0:
                    again, seconds = timed(online.run_online, instance)
                    times.online.append((self.name, seconds))
                    ledger.check(again == online_alloc, "online rerun reproduces the allocation")
                    best, seconds = timed(offline.solve_offline_model1, instance)
                    times.optimum.append((self.name, seconds))
                    ledger.check(model.total_utility(instance, best) == self.pin, "offline re-solve equals the pin")
        except Exception as exc:  # a raised call is a failed operation; the run goes on
            ledger.raised(exc, "probe pass")
        times.seconds = time.perf_counter() - started
        return times


def small_instance(rng: random.Random, model2: bool) -> Instance:
    """A small random instance shaped like ``tests/helpers.random_instance``; with
    ``model2`` every category carries an overall quota (possibly zero)."""
    n_agents = rng.randint(1, SMALL_MAX_AGENTS)
    n_days = rng.randint(1, SMALL_MAX_DAYS)
    n_cats = rng.randint(1, SMALL_MAX_CATS)
    categories = tuple(
        Category(
            f"c{i}",
            tuple(rng.randint(0, SMALL_MAX_CAP) for _ in range(n_days)),
            rng.randint(0, SMALL_MAX_OVERALL) if model2 else None,
        )
        for i in range(n_cats)
    )
    agents = tuple(
        Agent(
            f"a{k}",
            Fraction(rng.randint(1, 99), 100),
            tuple(rng.random() < 0.6 for _ in range(n_days)),
            frozenset(c.id for c in categories if rng.random() < 0.7),
        )
        for k in range(n_agents)
    )
    supply = tuple(rng.randint(0, SMALL_MAX_CAP) for _ in range(n_days))
    return Instance(agents, categories, n_days, supply, Fraction(rng.randint(1, 19), 20))


class ExactSmall:
    """Small instances solved every way rationd can: flow, tie-broken flow
    and exhaustive oracle must agree on model 1; model 2 is checked against
    the oracle and its own bound. One (model 1, model 2) pair is one case.

    Setup draws ``CASE_BLOCKS`` blocks of ``CASES_PER_PASS`` pairs from the
    generator seed and shuffles each block by the run's seed; a pass solves
    one block.
    """

    name = "exact-small"
    blocks = CASE_BLOCKS

    def __init__(self, workdir: str, seed: int, held_out: bool) -> None:
        self.seed = seed
        self.generator_seed = HELD_OUT_SEEDS[self.name] if held_out else EXACT_SMALL_SEED
        self.workdir = workdir
        self.cases: list[list[tuple[int, Instance, Instance]]] = []

    def setup(self) -> list[tuple[Any, float]]:
        """Draw, shuffle and write each block; returns one timed part per block."""
        rng = random.Random(self.generator_seed)
        order = random.Random(self.seed)
        self.cases = []
        parts = []
        for number in range(CASE_BLOCKS):
            started = time.perf_counter()
            block = [(index, small_instance(rng, False), small_instance(rng, True)) for index in range(CASES_PER_PASS)]
            order.shuffle(block)
            documents = [[data.instance_to_document(inst) for inst in case[1:]] for case in block]
            with open(os.path.join(self.workdir, f"cases-{number}.json"), "w", encoding="utf-8") as handle:
                json.dump(documents, handle)
            self.cases.append(block)
            parts.append((number, time.perf_counter() - started))
        return parts

    def run_pass(self, ledger: Ledger, block: int) -> PassTimes:
        times = PassTimes(block)
        started = time.perf_counter()
        for index, daily, overall in self.cases[block]:
            key = (block, index)
            case_started = time.perf_counter()
            timings: dict[str, list[float]] = {"online": [], "optimum": []}
            try:
                self._model1(ledger, daily, timings)
                self._model2(ledger, overall, timings)
                times.online.append((key, sum(timings["online"])))
                times.optimum.append((key, sum(timings["optimum"])))
            except Exception as exc:  # a raised call (an oracle refusal too) is a failed operation
                ledger.raised(exc, f"exact-small case {index} of block {block}")
            times.cases.append((key, time.perf_counter() - case_started))
        times.seconds = time.perf_counter() - started
        return times

    @staticmethod
    def _model1(ledger: Ledger, instance: Instance, times: dict[str, list[float]]) -> None:
        ledger.check(model.validate_instance(instance).ok, "model-1 case is well-formed")
        online_alloc, seconds = timed(online.run_online, instance)
        times["online"].append(seconds)
        started = time.perf_counter()
        flow_alloc = offline.solve_offline_model1(instance)
        tiebroken_alloc = offline.solve_offline_tiebroken(instance, offline.TieBreakOrder(instance.agent_order()))
        oracle_alloc = offline.solve_exact_oracle(instance)
        times["optimum"].append(time.perf_counter() - started)
        for label, alloc in (("online", online_alloc), ("flow", flow_alloc), ("tie-broken", tiebroken_alloc), ("oracle", oracle_alloc)):
            ledger.check(model.check_allocation(instance, alloc).ok, f"model-1 {label} allocation is feasible")
        alg = model.total_utility(instance, online_alloc)
        values = {model.total_utility(instance, alloc) for alloc in (flow_alloc, tiebroken_alloc, oracle_alloc)}
        ledger.check(len(values) == 1, f"flow, tie-broken and oracle optima agree ({sorted(values)})")
        report = analysis.build_charging_report(instance, online_alloc, flow_alloc)
        ledger.check(report.bound_certified, f"model-1 charge certificate ({report.failure_reason})")
        ledger.check(max(values) <= analysis.model1_bound(instance) * alg, "offline <= (1 + d) * online")

    @staticmethod
    def _model2(ledger: Ledger, instance: Instance, times: dict[str, list[float]]) -> None:
        ledger.check(model.validate_instance(instance).ok, "model-2 case is well-formed")
        online_alloc, seconds = timed(online.run_online, instance, model2=True)
        times["online"].append(seconds)
        oracle_alloc, seconds = timed(offline.solve_exact_oracle, instance, model2=True)
        times["optimum"].append(seconds)
        for label, alloc in (("online", online_alloc), ("oracle", oracle_alloc)):
            ledger.check(model.check_allocation(instance, alloc, model2=True).ok, f"model-2 {label} allocation is feasible")
        report = analysis.build_charging_report(instance, online_alloc, oracle_alloc, model2=True)
        ledger.check(report.bound_certified, f"model-2 charge certificate ({report.failure_reason})")
        alg = model.total_utility(instance, online_alloc)
        opt = model.total_utility(instance, oracle_alloc)
        ledger.check(opt <= analysis.model2_bound(instance) * alg, "offline <= (1 + d + spread * d) * online")


WORKLOADS = {cls.name: cls for cls in (Scaled, Probe, ExactSmall)}

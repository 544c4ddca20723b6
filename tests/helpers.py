"""Shared instance builders for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

from rationd.analysis import offline_optimum, ratio_check
from rationd.model import Agent, Category, Instance, TieBreak
from rationd.online import run_online


def tight_model1(discount: Fraction = Fraction(19, 20), priority: Fraction = Fraction(1, 2)) -> Instance:
    """Two agents, one of which is flexible; matching the flexible one first
    on day 1 forfeits the other agent entirely.

    Agents are listed so the reversed (adversarial) precedence prefers the
    flexible agent; this mirrors the bundled fixture file.
    """
    return Instance(
        agents=(
            Agent("a2", priority, (True, False), frozenset({"c2"})),
            Agent("a1", priority, (True, True), frozenset({"c1", "c2"})),
        ),
        categories=(Category("c1", (1, 1)), Category("c2", (1, 1))),
        num_days=2,
        daily_supply=(1, 1),
        discount=discount,
    )


def tight_general(
    discount: Fraction = Fraction(1, 2),
    base_priority: Fraction = Fraction(1, 5),
    peak_priority: Fraction = Fraction(2, 5),
) -> Instance:
    """Overall-quota worst case: serving the flexible agent through the
    scarce category on day 1 exhausts it for the high-priority latecomer."""
    return Instance(
        agents=(
            Agent("a3", base_priority, (True, False), frozenset({"c2"})),
            Agent("a2", peak_priority, (False, True), frozenset({"c1"})),
            Agent("a1", base_priority, (True, True), frozenset({"c1", "c2"})),
        ),
        categories=(
            Category("c1", (1, 1), overall_quota=1),
            Category("c2", (1, 1), overall_quota=2),
        ),
        num_days=2,
        daily_supply=(1, 2),
        discount=discount,
    )


def online_ratio(instance: Instance, tie_break: TieBreak = None) -> Fraction | None:
    """The offline optimum's utility over the online run's, by
    :func:`~rationd.analysis.ratio_check`."""
    return ratio_check(instance, run_online(instance, tie_break=tie_break), offline_optimum(instance)).ratio


def without_overall_quotas(instance: Instance, categories=None) -> Instance:
    """``instance`` with the overall quota dropped from the named
    ``categories``, by default from all of them (its model-1 relaxation)."""
    dropped = {c.id for c in instance.categories} if categories is None else set(categories)
    return replace(
        instance,
        categories=tuple(replace(c, overall_quota=None) if c.id in dropped else c for c in instance.categories),
    )


def random_instance(
    rng: random.Random,
    max_agents: int = 8,
    max_days: int = 4,
    max_cats: int = 3,
    max_cap: int = 3,
    density: float = 0.6,
    eligibility: float = 0.7,
    model2: bool = False,
    max_overall: int = 4,
) -> Instance:
    """A small random instance; with ``model2`` every category gets an
    overall quota (possibly zero)."""
    n_agents = rng.randint(1, max_agents)
    n_days = rng.randint(1, max_days)
    n_cats = rng.randint(1, max_cats)
    categories = tuple(
        Category(
            f"c{i}",
            tuple(rng.randint(0, max_cap) for _ in range(n_days)),
            rng.randint(0, max_overall) if model2 else None,
        )
        for i in range(n_cats)
    )
    agents = tuple(
        Agent(
            f"a{k}",
            Fraction(rng.randint(1, 99), 100),
            tuple(rng.random() < density for _ in range(n_days)),
            frozenset(c.id for c in categories if rng.random() < eligibility),
        )
        for k in range(n_agents)
    )
    supply = tuple(rng.randint(0, max_cap) for _ in range(n_days))
    discount = Fraction(rng.randint(1, 19), 20)
    return Instance(agents, categories, n_days, supply, discount)


def tie_heavy_instance(rng: random.Random, n_agents: int, n_days: int, max_cap: int = 3) -> Instance:
    """A random instance whose utilities take few values (priorities in {1/8,
    1/4, 1/2}, discount 1/2), so many allocations tie."""
    priorities = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    categories = tuple(
        Category(f"c{i}", tuple(rng.randint(0, max_cap) for _ in range(n_days))) for i in range(rng.randint(1, 3))
    )
    agents = tuple(
        Agent(
            f"a{k}",
            rng.choice(priorities),
            tuple(rng.random() < 0.5 for _ in range(n_days)),
            frozenset(c.id for c in categories if rng.random() < 0.7),
        )
        for k in range(n_agents)
    )
    supply = tuple(rng.randint(1, 2 * max_cap) for _ in range(n_days))
    return Instance(agents, categories, n_days, supply, Fraction(1, 2))

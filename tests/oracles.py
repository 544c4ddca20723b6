"""Independent reference computations the tests pin expected values against.

Everything here is brute force on purpose: no pruning, no shared code with
the package's solvers beyond the data types.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

from rationd.flow import FlowNetwork
from rationd.model import Instance
from rationd.online import DayGraph


def iter_allocations(instance: Instance, model2: bool = False):
    """Yield every feasible assignment dict (agent -> (category, day) | None)."""
    agents = list(instance.agents)
    supply = list(instance.daily_supply)
    quota = {c.id: list(c.daily_quota) for c in instance.categories}
    overall = {c.id: (c.overall_quota if model2 else None) for c in instance.categories}
    assignment: dict[str, tuple[str, int] | None] = {}

    def rec(k: int):
        if k == len(agents):
            yield dict(assignment)
            return
        agent = agents[k]
        assignment[agent.id] = None
        yield from rec(k + 1)
        for day in range(1, instance.num_days + 1):
            if not agent.availability[day - 1] or supply[day - 1] == 0:
                continue
            for category in instance.categories:
                cid = category.id
                if cid not in agent.eligible or quota[cid][day - 1] == 0 or overall[cid] == 0:
                    continue
                supply[day - 1] -= 1
                quota[cid][day - 1] -= 1
                if overall[cid] is not None:
                    overall[cid] -= 1
                assignment[agent.id] = (cid, day)
                yield from rec(k + 1)
                supply[day - 1] += 1
                quota[cid][day - 1] += 1
                if overall[cid] is not None:
                    overall[cid] += 1
        assignment[agent.id] = None

    yield from rec(0)


def allocation_value(instance: Instance, assignment: dict[str, tuple[str, int] | None]) -> Fraction:
    priorities = {a.id: a.priority for a in instance.agents}
    value = Fraction(0)
    for agent_id, slot in assignment.items():
        if slot is not None:
            value += priorities[agent_id] * instance.discount ** (slot[1] - 1)
    return value


def best_utility(instance: Instance, model2: bool = False) -> Fraction:
    return max(allocation_value(instance, a) for a in iter_allocations(instance, model2))


def min_cost_by_enumeration(network: FlowNetwork, flow_cap: int | None) -> int:
    """Minimum cost over every conserving integral flow of value <= cap."""
    best = 0
    ranges = [range(a.capacity + 1) for a in network.arcs]
    for combo in itertools.product(*ranges):
        balance = [0] * network.num_nodes
        for units, arc in zip(combo, network.arcs):
            balance[arc.tail] += units
            balance[arc.head] -= units
        if any(balance[v] != 0 for v in range(network.num_nodes) if v not in (network.source, network.sink)):
            continue
        value = balance[network.source]
        if value < 0 or (flow_cap is not None and value > flow_cap):
            continue
        cost = sum(units * arc.cost for units, arc in zip(combo, network.arcs))
        if cost < best:
            best = cost
    return best


def best_day_matching(graph: DayGraph) -> tuple[Fraction, int]:
    """(max weight, max size) over all capped matchings of a day graph."""
    best_weight = Fraction(0)
    best_size = 0
    edges = list(graph.edges)
    for r in range(min(len(edges), graph.size_cap) + 1):
        for subset in itertools.combinations(edges, r):
            agents = [a for a, _c in subset]
            if len(set(agents)) != len(agents):
                continue
            per_cat = Counter(c for _a, c in subset)
            if any(count > graph.capacities.get(c, 0) for c, count in per_cat.items()):
                continue
            weight = sum((graph.weight(a) for a, _c in subset), Fraction(0))
            best_weight = max(best_weight, weight)
            best_size = max(best_size, r)
    return best_weight, best_size


def lex_first_day_matching(graph: DayGraph) -> frozenset[tuple[str, str]]:
    """The tie-broken day matching, by enumeration.

    Among the agent sets that fit (at most ``size_cap`` agents, a seating
    within the capacities), take those of maximum weight; of these, the set
    that holds the agent earliest in ``graph.precedence`` where two sets
    differ; then the seating whose categories, read in precedence order,
    come first by their position in ``graph.categories``.
    """
    ranked = sorted(graph.agents, key=lambda a: graph.precedence[a])
    edges = set(graph.edges)
    options = {a: [c for c in graph.categories if (a, c) in edges] for a in ranked}

    def first_seating(subset: tuple[str, ...]) -> tuple[str, ...] | None:
        # product() walks the seatings in lexicographic order.
        for combo in itertools.product(*(options[a] for a in subset)):
            per_cat = Counter(combo)
            if all(count <= graph.capacities[c] for c, count in per_cat.items()):
                return combo
        return None

    best_key: tuple[Fraction, tuple[bool, ...]] | None = None
    best: frozenset[tuple[str, str]] = frozenset()
    for r in range(min(len(ranked), max(graph.size_cap, 0)) + 1):
        for subset in itertools.combinations(ranked, r):
            seating = first_seating(subset)
            if seating is None:
                continue
            weight = sum((graph.weight(a) for a in subset), Fraction(0))
            key = (weight, tuple(a in subset for a in ranked))
            if best_key is None or key > best_key:
                best_key = key
                best = frozenset(zip(subset, seating))
    return best

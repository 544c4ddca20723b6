"""Independent reference computations the tests pin expected values against.

Everything here is brute force on purpose: no pruning, no shared code with
the package's solvers beyond the data types and, for the flat offline
reduction, the flow engine (which tests/test_flow.py checks against
networkx).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from typing import Iterable

from rationd.analysis import DeviationOutcome
from rationd.flow import Arc, FlowNetwork, solve_profitable_flow
from rationd.model import Allocation, Instance
from rationd.online import DayGraph, TieBreak, run_online

from helpers import arc_network


def iter_allocations(instance: Instance):
    """Yield every feasible assignment dict (agent -> (category, day) | None).

    Each category's overall quota, read off the category itself, caps its
    total; a category without one (``None``) is uncapped."""
    agents = list(instance.agents)
    supply = list(instance.daily_supply)
    quota = {c.id: list(c.daily_quota) for c in instance.categories}
    overall = {c.id: c.overall_quota for c in instance.categories}
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


def best_utility(instance: Instance) -> Fraction:
    return max(allocation_value(instance, a) for a in iter_allocations(instance))


def min_cost_by_enumeration(network: FlowNetwork) -> int:
    """Minimum cost over every conserving integral flow."""
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
        if value < 0:
            continue
        cost = sum(units * arc.cost for units, arc in zip(combo, network.arcs))
        if cost < best:
            best = cost
    return best


def unit_path_costs(network: FlowNetwork) -> list[int]:
    """The cost of each unit a min-cost profitable flow carries, in order.

    Pushes one unit at a time along a cheapest residual path, found by
    Bellman-Ford, while that path costs less than zero. The minimum cost of
    a flow of value k is convex in k, and these are its successive slopes,
    so they do not depend on which cheapest path each step takes."""
    # Residual arcs as [tail, head, capacity, cost]; arc i ^ 1 is the reverse of arc i.
    residual = []
    for arc in network.arcs:
        residual.append([arc.tail, arc.head, arc.capacity, arc.cost])
        residual.append([arc.head, arc.tail, 0, -arc.cost])
    costs = []
    while True:
        dist: list[int | None] = [None] * network.num_nodes
        via = [-1] * network.num_nodes
        dist[network.source] = 0
        for _ in range(network.num_nodes - 1):
            changed = False
            for i, (tail, head, capacity, cost) in enumerate(residual):
                if capacity > 0 and dist[tail] is not None and (dist[head] is None or dist[tail] + cost < dist[head]):
                    dist[head] = dist[tail] + cost
                    via[head] = i
                    changed = True
            if not changed:
                break
        if dist[network.sink] is None or dist[network.sink] >= 0:
            return costs
        node = network.sink
        while node != network.source:
            residual[via[node]][2] -= 1
            residual[via[node] ^ 1][2] += 1
            node = residual[via[node]][0]
        costs.append(dist[network.sink])


def flat_offline_allocation(instance: Instance, order: tuple[str, ...] | None = None) -> Allocation:
    """The model-1 offline optimum on the flat reduction: an arc from every
    (category, day) slot to every eligible agent available that day, priced
    at the negated integer-scaled utility, plus 2**(n - 1 - rank) when a
    tie-break ``order`` is given (utility scaled by 2**n first)."""
    days = range(1, instance.num_days + 1)
    n = len(instance.agents)
    source, sink = 0, 1
    day_node = {day: 1 + day for day in days}
    slot_node = {
        (category.id, day): 2 + instance.num_days + k * instance.num_days + day - 1
        for k, category in enumerate(instance.categories)
        for day in days
    }
    agent_node = {agent.id: 2 + instance.num_days + len(slot_node) + k for k, agent in enumerate(instance.agents)}

    utilities = {
        (agent.id, day): agent.priority * instance.discount ** (day - 1)
        for agent in instance.agents
        for day in days
        if agent.availability[day - 1]
    }
    scale = math.lcm(*(u.denominator for u in utilities.values())) if utilities else 1
    base = 2**n if order is not None else 1
    bonus = {agent_id: 2 ** (n - 1 - rank) for rank, agent_id in enumerate(order)} if order is not None else {}

    arcs = [Arc(source, day_node[day], instance.daily_supply[day - 1], 0) for day in days]
    arcs += [Arc(day_node[day], slot_node[(c.id, day)], c.daily_quota[day - 1], 0) for c in instance.categories for day in days]
    eligible = {agent.id: agent.eligible for agent in instance.agents}
    assignment_arcs = {}
    for (agent_id, day), utility in utilities.items():
        cost = -(utility.numerator * (scale // utility.denominator) * base + bonus.get(agent_id, 0))
        for category in instance.categories:
            if category.id in eligible[agent_id]:
                assignment_arcs[len(arcs)] = (agent_id, category.id, day)
                arcs.append(Arc(slot_node[(category.id, day)], agent_node[agent_id], 1, cost))
    arcs += [Arc(agent_node[agent.id], sink, 1, 0) for agent in instance.agents]

    num_nodes = 2 + instance.num_days + len(slot_node) + n
    flows = solve_profitable_flow(arc_network(num_nodes, source, sink, arcs)).arc_flows
    assignment: dict[str, tuple[str, int] | None] = {agent.id: None for agent in instance.agents}
    for arc, (agent_id, category_id, day) in assignment_arcs.items():
        if flows[arc]:
            assignment[agent_id] = (category_id, day)
    return Allocation(assignment)


def day_weights(instance: Instance, day: int) -> dict[str, Fraction]:
    """Each agent's weight on ``day``, from the instance:
    ``priority * discount**(day - 1)``."""
    return {a.id: a.priority * instance.discount ** (day - 1) for a in instance.agents}


def best_day_matching(instance: Instance, graph: DayGraph) -> tuple[Fraction, int]:
    """(max weight, max size) over all capped matchings of a day graph of
    ``instance``."""
    weights = day_weights(instance, graph.day_index)
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
            weight = sum((weights[a] for a, _c in subset), Fraction(0))
            best_weight = max(best_weight, weight)
            best_size = max(best_size, r)
    return best_weight, best_size


def lex_first_day_matching(instance: Instance, graph: DayGraph) -> frozenset[tuple[str, str]]:
    """The tie-broken day matching of a day graph of ``instance``, by
    enumeration.

    Among the agent sets that fit (at most ``size_cap`` agents, a seating
    within the capacities), take those of maximum weight (by
    :func:`day_weights`); of these, the set that holds the agent earliest in
    ``graph.precedence`` where two sets differ; then the seating whose
    categories, read in precedence order, come first by their position in
    ``graph.categories``.
    """
    weights = day_weights(instance, graph.day_index)
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
            weight = sum((weights[a] for a in subset), Fraction(0))
            key = (weight, tuple(a in subset for a in ranked))
            if best_key is None or key > best_key:
                best_key = key
                best = frozenset(zip(subset, seating))
    return best


def deviation_outcomes_by_rerun(
    instance: Instance,
    agent_id: str,
    tie_break: TieBreak = None,
    subsets: Iterable[tuple[int, ...]] | None = None,
) -> tuple[DeviationOutcome, ...]:
    """The outcome of each under-report in ``subsets`` (by default every
    proper subset of the agent's available days, in the order
    ``DeviationReport.outcomes`` lists them), by rebuilding the instance
    for it and rerunning the online algorithm from day 1 to the horizon."""
    agent = next(a for a in instance.agents if a.id == agent_id)
    if subsets is None:
        true_days = tuple(d for d in range(1, instance.num_days + 1) if agent.availability[d - 1])
        subsets = [combo for r in range(len(true_days)) for combo in itertools.combinations(true_days, r)]

    outcomes = []
    for reported in subsets:
        mask = tuple(d in reported for d in range(1, instance.num_days + 1))
        tweaked_agents = tuple(replace(a, availability=mask) if a.id == agent_id else a for a in instance.agents)
        result = run_online(replace(instance, agents=tweaked_agents), tie_break=tie_break)
        outcomes.append(DeviationOutcome(tuple(reported), result.day_of(agent_id)))
    return tuple(outcomes)


def injection_by_recursion(candidates: list[list[object]]) -> list[object | None]:
    """A distinct slot for each charger from its candidate list, by recursive
    augmenting paths (one frame per charger on a path), with None for the
    chargers left out; the seated ones form a maximum injection."""
    holder: dict[object, int] = {}

    def augment(ci: int, banned: set[object]) -> bool:
        for slot in candidates[ci]:
            if slot in banned:
                continue
            banned.add(slot)
            if slot not in holder or augment(holder[slot], banned):
                holder[slot] = ci
                return True
        return False

    seats: list[object | None] = [None] * len(candidates)
    for ci in range(len(candidates)):
        augment(ci, set())
    for slot, ci in holder.items():
        seats[ci] = slot
    return seats


def charging_by_target_lists(
    instance: Instance, online_alloc: Allocation, offline_alloc: Allocation
) -> tuple[bool, int | None]:
    """(certified, failure day) of the charge certificate, with a candidate
    list of single targets for every charger, seated by
    :func:`injection_by_recursion`.

    An agent the online run served on an earlier day than offline charges
    itself. Every other offline-matched agent is a charger, taken in order
    of offline day, then priority descending. A charger on day d may take:
    itself, if online served it on day d; each agent online served on day d
    with at least its priority; and, when its offline category has an
    overall quota that online used up by the end of day d, each agent online
    served under that category before day d. The witness is the day of the
    first charger left without a target."""
    priority = {a.id: a.priority for a in instance.agents}
    quota = {c.id: c.overall_quota for c in instance.categories}
    online_served = list(online_alloc.matched())
    chargers = []
    for agent_id, cat_id, day in offline_alloc.matched():
        online_day = online_alloc.day_of(agent_id)
        if online_day is None or online_day >= day:
            chargers.append((day, agent_id, cat_id))
    chargers.sort(key=lambda charger: (charger[0], -priority[charger[1]]))

    candidates = []
    for day, agent_id, cat_id in chargers:
        options: list[object] = [(agent_id, "same")] if online_alloc.day_of(agent_id) == day else []
        options += [(t, "same") for t, _c, d in online_served if d == day and priority[t] >= priority[agent_id]]
        used = sum(1 for _t, c, d in online_served if c == cat_id and d <= day)
        if quota[cat_id] is not None and used >= quota[cat_id]:
            options += [(t, "overflow") for t, c, d in online_served if c == cat_id and d < day]
        candidates.append(options)
    seats = injection_by_recursion(candidates)
    unseated = [day for (day, _a, _c), seat in zip(chargers, seats) if seat is None]
    return (not unseated, unseated[0] if unseated else None)

"""Offline solvers: the flow reduction, its tie-broken variant, and an exact
search oracle for small instances (the only exact route once overall quotas
are in play).

The flow reduction routes one unit per matched agent through
source -> day -> (category, day) slot -> hub -> agent -> sink. A hub
``(E, d)`` stands for the agents available on day ``d`` whose open eligible
categories that day are exactly the set ``E``; it is fed by the slots of
``E``'s categories and has one arc to each of its agents, priced at the
negated integer-scaled utility. So an available agent-day costs one arc,
not one per eligible category, and since every agent of a hub is eligible
for every category feeding it, the units arriving at a hub can be seated on
its matched agents in any order. Minimizing cost over profitable flows is
then exactly maximizing total utility. The optimum is maximal, since no
agent can be added to it (that would be a profitable augmentation), but not
always of maximum cardinality: one high-priority agent on day 1 can be
worth more than itself on day 2 plus a low-priority agent on day 1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .flow import Arc, FlowNetwork, solve_profitable_flow
from .model import Allocation, Instance, Slot, TieBreak, TieBreakOrder, overall_quotas, precedence, utility_scale

# Not called here. ``perfbench/spans.py`` wraps this name on this module to
# count instance validations, so the import stays until the tracer stops
# asking for it.
from .model import validate_instance  # noqa: F401

log = logging.getLogger(__name__)


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive oracle refused to run: the search budget is too small."""


# Search nodes the exhaustive oracle may visit unless its caller says otherwise.
ORACLE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Hub:
    """The arcs of one hub ``(E, d)``: ``feeds`` are its (arc index,
    category id) arcs from the slots of ``E``'s categories, ``members`` its
    (arc index, agent id) arcs to its agents, both in instance order."""

    day: int
    feeds: tuple[tuple[int, str], ...]
    members: tuple[tuple[int, str], ...]


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between flow arcs/nodes and the instance they encode:
    each agent's node (in instance order) and each hub's arcs."""

    agent_nodes: Mapping[str, int]
    hubs: tuple[Hub, ...]

    def allocation(self, flows: Sequence[int]) -> Allocation:
        """The allocation a solved flow encodes: each hub hands the units on
        its feed arcs, in order, to its matched agents in instance order."""
        assignment: dict[str, Slot] = dict.fromkeys(self.agent_nodes)
        for hub in self.hubs:
            units = [category for arc, category in hub.feeds for _ in range(flows[arc])]
            matched = [agent_id for arc, agent_id in hub.members if flows[arc]]
            for agent_id, category in zip(matched, units, strict=True):
                if assignment[agent_id] is not None:
                    raise AssertionError(f"flow matched agent {agent_id!r} twice")
                assignment[agent_id] = (category, hub.day)
        return Allocation(assignment)


def build_model1_network(
    instance: Instance, tie_break: TieBreakOrder | None = None
) -> tuple[FlowNetwork, ReductionMap]:
    """Build the day/slot/hub/agent network whose min-cost profitable flow
    is an optimal allocation.

    Its arcs: ``source -> day`` with the day's supply; ``day -> slot(c, d)``
    for each slot whose quota (and day supply) is above 0, with that quota;
    ``slot(c, d) -> hub(E, d)`` for each category ``c`` of ``E``; ``hub(E,
    d) -> agent`` (capacity 1, cost ``-utility``, as
    :class:`~rationd.model.UtilityScale` gives it) for each agent available
    on day ``d`` whose open eligible categories are ``E``; ``agent -> sink``
    (capacity 1). :meth:`ReductionMap.allocation` reads an allocation off a
    solved flow.

    With ``tie_break`` given, hub-to-agent arcs carry composite costs
    ``-(utility * B + bonus)``, where an agent's bonus is ``n - position``
    in the precedence (``n`` agents, first position 0) and ``B = n * (n +
    1) // 2 + 1`` exceeds any sum of bonuses. So cost decides utility
    first, and among optimal flows the served set with the largest sum of
    bonuses wins. That set is the lexicographically first one in the
    precedence, as with bonuses ``2**(n - 1 - position)``: optimal flows
    form a face of the flow polytope, the agent sets they serve form an
    M♮-convex set (Murota, *Discrete Convex Analysis*, 2003), and over
    such a set a greedy in precedence order maximizes every linear objective
    whose weights are positive and fall strictly with precedence. Costs stay
    about ``2 * log2(n)`` bits wider than the utilities.
    """
    days = range(1, instance.num_days + 1)

    node = 0
    source = node
    node += 1
    day_nodes = {}
    for day in days:
        day_nodes[day] = node
        node += 1
    # Open categories per day, in instance order, with their slot nodes and
    # quotas.
    open_slots: dict[int, dict[str, tuple[int, int]]] = {}
    for day in days:
        open_slots[day] = {}
        if instance.daily_supply[day - 1] == 0:
            continue
        for category in instance.categories:
            quota = category.daily_quota[day - 1]
            if quota > 0:
                open_slots[day][category.id] = (node, quota)
                node += 1
    agent_nodes = {}
    for agent in instance.agents:
        agent_nodes[agent.id] = node
        node += 1

    # Members of each hub, keyed by (E, day), in day order and then in order
    # of the hub's first agent.
    hub_members: dict[tuple[frozenset[str], int], list[str]] = {}
    for day in days:
        open_here = frozenset(open_slots[day])
        if not open_here:
            continue
        for agent in instance.agents:
            if agent.availability[day - 1]:
                shared = agent.eligible & open_here
                if shared:
                    hub_members.setdefault((shared, day), []).append(agent.id)

    scale = utility_scale(instance)
    if tie_break is not None:
        n = len(instance.agents)
        base = n * (n + 1) // 2 + 1
        bonus = {agent_id: n - position for position, agent_id in enumerate(precedence(instance, tie_break))}
    else:
        base = 1
        bonus = {}

    arcs: list[Arc] = []
    for day in days:
        supply = instance.daily_supply[day - 1]
        if supply > 0:
            arcs.append(Arc(source, day_nodes[day], supply, 0))
    for day in days:
        for slot, quota in open_slots[day].values():
            arcs.append(Arc(day_nodes[day], slot, quota, 0))

    hubs = []
    for (shared, day), members in hub_members.items():
        hub_node = node
        node += 1
        feeds = []
        for category_id, (slot, quota) in open_slots[day].items():
            if category_id in shared:
                feeds.append((len(arcs), category_id))
                arcs.append(Arc(slot, hub_node, quota, 0))
        member_arcs = []
        level = scale.levels[day - 1] * base
        for agent_id in members:
            cost = -(scale.keys[agent_id] * level + bonus.get(agent_id, 0))
            member_arcs.append((len(arcs), agent_id))
            arcs.append(Arc(hub_node, agent_nodes[agent_id], 1, cost))
        hubs.append(Hub(day, tuple(feeds), tuple(member_arcs)))

    sink = node
    node += 1
    for agent in instance.agents:
        arcs.append(Arc(agent_nodes[agent.id], sink, 1, 0))

    network = FlowNetwork(node, source, sink, tuple(arcs))
    return network, ReductionMap(agent_nodes=agent_nodes, hubs=tuple(hubs))


def solve_offline_model1(instance: Instance) -> Allocation:
    """Utility-maximal allocation when only daily quotas constrain categories.

    Among equally good allocations the choice is deterministic but otherwise
    arbitrary; use :func:`solve_offline_tiebroken` to pin it down. Raises
    :class:`~rationd.model.ModelMismatch` in model 2, which only
    :func:`solve_exact_oracle` solves.
    """
    overall_quotas(instance, model2=False)
    network, rmap = build_model1_network(instance)
    result = solve_profitable_flow(network)
    log.debug(
        "offline flow: %d nodes, %d arcs, %d matched", network.num_nodes, len(network.arcs), result.total_flow
    )
    return rmap.allocation(result.arc_flows)


def solve_offline_tiebroken(instance: Instance, tie_break: TieBreak) -> Allocation:
    """Like :func:`solve_offline_model1`, but among utility-maximal allocations
    returns the one whose matched set lexicographically prefers agents
    earlier in the precedence ``tie_break`` stands for; it takes what
    :func:`~rationd.online.run_online` takes, with the same meaning."""
    overall_quotas(instance, model2=False)
    order = TieBreakOrder(precedence(instance, tie_break))
    network, rmap = build_model1_network(instance, tie_break=order)
    result = solve_profitable_flow(network)
    return rmap.allocation(result.arc_flows)


def solve_exact_oracle(instance: Instance, model2: bool | None = None, budget: int = ORACLE_BUDGET) -> Allocation:
    """Exhaustive branch-and-bound over agent assignments. Exact and slow.

    Honors the overall quotas of :func:`~rationd.model.overall_quotas`;
    ``model2`` is only checked against the instance. Refuses (never
    approximates) once ``budget`` search nodes are exceeded or the instance
    is clearly too large for enumeration.
    """
    capped = overall_quotas(instance, model2)
    n_agents = len(instance.agents)
    if n_agents * max(1, instance.num_days) * max(1, len(instance.categories)) > budget:
        raise OracleBudgetExceeded(
            f"instance sizing {n_agents} agents x {instance.num_days} days x "
            f"{len(instance.categories)} categories exceeds the oracle budget {budget}"
        )

    cat_ids = [c.id for c in instance.categories]
    overall = [capped.get(cid) for cid in cat_ids]

    # Utilities as integers over one common denominator: scaling by a
    # positive constant keeps every comparison below, ties included, and
    # spares the search Fraction sums.
    scale = utility_scale(instance)

    # Candidate moves per agent, best-first (days ascending = utility
    # descending): (scaled utility, day, category index).
    moves = [
        [
            (scale.keys[agent.id] * level, day, ci)
            for day, level in enumerate(scale.levels, start=1)
            if agent.availability[day - 1]
            for ci, cid in enumerate(cat_ids)
            if cid in agent.eligible
        ]
        for agent in instance.agents
    ]

    optimistic = [max((value for value, _d, _c in own), default=0) for own in moves]
    tail_bound = [0] * (n_agents + 1)
    for k in range(n_agents - 1, -1, -1):
        tail_bound[k] = tail_bound[k + 1] + optimistic[k]

    supply_left = list(instance.daily_supply)
    quota_left = [list(c.daily_quota) for c in instance.categories]
    overall_left = list(overall)

    best_value = -1
    best: list[Slot] = []
    current: list[Slot] = [None] * n_agents
    visited = 0

    def enter(k: int, gathered: int) -> bool:
        """Count a search node; True when its agent's choices are to be tried."""
        nonlocal best_value, best, visited
        visited += 1
        if visited > budget:
            raise OracleBudgetExceeded(f"oracle search exceeded its budget of {budget} nodes")
        if k == n_agents:
            if gathered > best_value:
                best_value = gathered
                best = list(current)
            return False
        return gathered + tail_bound[k] > best_value

    def children(k: int, gathered: int) -> Iterator[tuple[int, int]]:
        """Agent k's choices, best move first and unmatched last. A move
        holds its slot while its child is searched and gives it back after."""
        for value, day, ci in moves[k]:
            if supply_left[day - 1] == 0 or quota_left[ci][day - 1] == 0 or overall_left[ci] == 0:
                continue
            supply_left[day - 1] -= 1
            quota_left[ci][day - 1] -= 1
            if overall_left[ci] is not None:
                overall_left[ci] -= 1
            current[k] = (cat_ids[ci], day)
            yield k + 1, gathered + value
            supply_left[day - 1] += 1
            quota_left[ci][day - 1] += 1
            if overall_left[ci] is not None:
                overall_left[ci] += 1
            current[k] = None
        yield k + 1, gathered

    # Depth-first, with an explicit stack of the agents' choices so that the
    # depth (one level per agent) is not bounded by the interpreter's
    # recursion limit.
    stack = [children(0, 0)] if enter(0, 0) else []
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif enter(*child):
            stack.append(children(*child))

    return Allocation(dict(zip((agent.id for agent in instance.agents), best)))

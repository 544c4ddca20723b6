"""Offline solvers: the flow reduction, its tie-broken variant, and an exact
search oracle for small instances (the only exact route once overall quotas
are in play).

The flow reduction routes one unit per matched agent through
source -> day -> (category, day) slot -> agent -> sink, with assignment
arcs priced at the negated integer-scaled utility. Minimizing cost over
profitable flows is then exactly maximizing total utility, and because every
augmenting path is profitable the optimum is simultaneously of maximum
cardinality (no agent can be added to it).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .flow import Arc, FlowNetwork, solve_profitable_flow
from .model import Allocation, Instance, utility_of, validate_instance

log = logging.getLogger(__name__)


class OracleBudgetExceeded(RuntimeError):
    """The exhaustive oracle refused to run: the search budget is too small."""


@dataclass(frozen=True)
class TieBreakOrder:
    """Agent precedence: position 0 is served first when utility ties."""

    order: tuple[str, ...]

    def ranks(self) -> dict[str, int]:
        return {agent_id: rank for rank, agent_id in enumerate(self.order)}

    def validate_for(self, instance: Instance) -> None:
        if sorted(self.order) != sorted(instance.agent_order()):
            raise ValueError("tie-break order must be a permutation of the instance's agent ids")


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between flow arcs/nodes and the instance they encode."""

    source: int
    sink: int
    day_nodes: Mapping[int, int]
    slot_nodes: Mapping[tuple[str, int], int]
    agent_nodes: Mapping[str, int]
    supply_arcs: Mapping[int, int]
    quota_arcs: Mapping[int, tuple[str, int]]
    assignment_arcs: Mapping[int, tuple[str, str, int]]
    drain_arcs: Mapping[int, str]
    scale: int
    tiebreak_base: int

    def utility_of_cost(self, total_cost: int) -> Fraction:
        """Recover the exact utility encoded by a solved flow's total cost."""
        return Fraction((-total_cost) // self.tiebreak_base, self.scale)


def _require_well_formed(instance: Instance) -> None:
    report = validate_instance(instance)
    if not report.ok:
        first = report.violations[0]
        raise ValueError(f"instance is not well-formed ({len(report.violations)} problems; first: {first.message})")


def build_model1_network(
    instance: Instance, tie_break: TieBreakOrder | None = None
) -> tuple[FlowNetwork, ReductionMap]:
    """Build the day/slot/agent network whose min-cost profitable flow is an
    optimal allocation.

    With ``tie_break`` given, assignment arcs carry composite costs
    ``utility * B + bonus`` with ``bonus = 2**(n - rank)`` and ``B = 2**n``,
    so cost order decides utility first and then lexicographically prefers
    serving higher-precedence agents.
    """
    _require_well_formed(instance)
    days = range(1, instance.num_days + 1)

    node = 0
    source = node
    node += 1
    day_nodes = {}
    for day in days:
        day_nodes[day] = node
        node += 1
    slot_nodes = {}
    for category in instance.categories:
        for day in days:
            slot_nodes[(category.id, day)] = node
            node += 1
    agent_nodes = {}
    for agent in instance.agents:
        agent_nodes[agent.id] = node
        node += 1
    sink = node
    node += 1

    discount_powers = [Fraction(1)] * (instance.num_days + 1)
    for j in range(1, instance.num_days + 1):
        discount_powers[j] = discount_powers[j - 1] * instance.discount

    utilities: dict[tuple[str, int], Fraction] = {}
    for agent in instance.agents:
        for day in days:
            if agent.availability[day - 1] and agent.eligible:
                utilities[(agent.id, day)] = agent.priority * discount_powers[day - 1]
    scale = math.lcm(*(u.denominator for u in utilities.values())) if utilities else 1

    if tie_break is not None:
        tie_break.validate_for(instance)
        ranks = tie_break.ranks()
        n = len(instance.agents)
        base = 2**n
        bonus = {agent_id: 2 ** (n - 1 - rank) for agent_id, rank in ranks.items()}
    else:
        base = 1
        bonus = {}

    arcs: list[Arc] = []
    supply_arcs: dict[int, int] = {}
    quota_arcs: dict[int, tuple[str, int]] = {}
    assignment_arcs: dict[int, tuple[str, str, int]] = {}
    drain_arcs: dict[int, str] = {}

    for day in days:
        supply = instance.daily_supply[day - 1]
        if supply > 0:
            supply_arcs[len(arcs)] = day
            arcs.append(Arc(source, day_nodes[day], supply, 0))
    for category in instance.categories:
        for day in days:
            quota = category.daily_quota[day - 1]
            if quota > 0:
                quota_arcs[len(arcs)] = (category.id, day)
                arcs.append(Arc(day_nodes[day], slot_nodes[(category.id, day)], quota, 0))
    for agent in instance.agents:
        for day in days:
            if not agent.availability[day - 1]:
                continue
            utility = utilities.get((agent.id, day))
            if utility is None:
                continue
            scaled = utility.numerator * (scale // utility.denominator)
            cost = -(scaled * base + bonus.get(agent.id, 0))
            for category in instance.categories:
                if category.id in agent.eligible:
                    assignment_arcs[len(arcs)] = (agent.id, category.id, day)
                    arcs.append(Arc(slot_nodes[(category.id, day)], agent_nodes[agent.id], 1, cost))
    for agent in instance.agents:
        drain_arcs[len(arcs)] = agent.id
        arcs.append(Arc(agent_nodes[agent.id], sink, 1, 0))

    network = FlowNetwork(node, source, sink, tuple(arcs))
    rmap = ReductionMap(
        source=source,
        sink=sink,
        day_nodes=day_nodes,
        slot_nodes=slot_nodes,
        agent_nodes=agent_nodes,
        supply_arcs=supply_arcs,
        quota_arcs=quota_arcs,
        assignment_arcs=assignment_arcs,
        drain_arcs=drain_arcs,
        scale=scale,
        tiebreak_base=base,
    )
    return network, rmap


def _extract_allocation(instance: Instance, flows: tuple[int, ...], rmap: ReductionMap) -> Allocation:
    assignment: dict[str, tuple[str, int] | None] = {a.id: None for a in instance.agents}
    for arc_idx, (agent_id, cat_id, day) in rmap.assignment_arcs.items():
        if flows[arc_idx] == 1:
            if assignment[agent_id] is not None:
                raise AssertionError(f"flow matched agent {agent_id!r} twice")
            assignment[agent_id] = (cat_id, day)
    return Allocation(assignment)


def _reject_overall_quotas(instance: Instance) -> None:
    quota_bearing = [c.id for c in instance.categories if c.overall_quota is not None]
    if quota_bearing:
        raise ValueError(
            "the flow solver ignores overall quotas and so refuses instances that carry them "
            f"(categories {quota_bearing}); use solve_exact_oracle(model2=True) instead"
        )


def solve_offline_model1(instance: Instance) -> Allocation:
    """Utility-maximal allocation when only daily quotas constrain categories.

    Among equally good allocations the choice is deterministic but otherwise
    arbitrary; use :func:`solve_offline_tiebroken` to pin it down.
    """
    _reject_overall_quotas(instance)
    network, rmap = build_model1_network(instance)
    result = solve_profitable_flow(network)
    log.debug(
        "offline flow: %d nodes, %d arcs, %d matched", network.num_nodes, len(network.arcs), result.total_flow
    )
    return _extract_allocation(instance, result.arc_flows, rmap)


def solve_offline_tiebroken(instance: Instance, order: TieBreakOrder) -> Allocation:
    """Like :func:`solve_offline_model1`, but among utility-maximal allocations
    returns the one whose matched set lexicographically prefers agents ranked
    earlier in ``order``."""
    _reject_overall_quotas(instance)
    network, rmap = build_model1_network(instance, tie_break=order)
    result = solve_profitable_flow(network)
    return _extract_allocation(instance, result.arc_flows, rmap)


def solve_exact_oracle(instance: Instance, model2: bool = False, budget: int = 1_000_000) -> Allocation:
    """Exhaustive branch-and-bound over agent assignments. Exact and slow.

    Honors overall quotas when ``model2`` is set. Refuses (never
    approximates) once ``budget`` search nodes are exceeded or the instance
    is clearly too large for enumeration.
    """
    _require_well_formed(instance)
    n_agents = len(instance.agents)
    if n_agents * max(1, instance.num_days) * max(1, len(instance.categories)) > budget:
        raise OracleBudgetExceeded(
            f"instance sizing {n_agents} agents x {instance.num_days} days x "
            f"{len(instance.categories)} categories exceeds the oracle budget {budget}"
        )

    cat_ids = [c.id for c in instance.categories]
    cat_index = {cid: i for i, cid in enumerate(cat_ids)}
    overall = [
        (c.overall_quota if (model2 and c.overall_quota is not None) else None) for c in instance.categories
    ]

    # Candidate moves per agent, best-first (days ascending = utility descending).
    moves: list[list[tuple[Fraction, int, int]]] = []  # (utility, day, cat index)
    for agent in instance.agents:
        own: list[tuple[Fraction, int, int]] = []
        for day in range(1, instance.num_days + 1):
            if not agent.availability[day - 1]:
                continue
            value = utility_of(agent.priority, day, instance.discount)
            for cid in cat_ids:
                if cid in agent.eligible:
                    own.append((value, day, cat_index[cid]))
        moves.append(own)

    optimistic = [max((value for value, _d, _c in own), default=Fraction(0)) for own in moves]
    tail_bound = [Fraction(0)] * (n_agents + 1)
    for k in range(n_agents - 1, -1, -1):
        tail_bound[k] = tail_bound[k + 1] + optimistic[k]

    supply_left = list(instance.daily_supply)
    quota_left = [list(c.daily_quota) for c in instance.categories]
    overall_left = list(overall)

    best_value = Fraction(-1)
    best: list[tuple[str, int, int] | None] = []
    current: list[tuple[str, int, int] | None] = [None] * n_agents
    visited = 0

    def enter(k: int, gathered: Fraction) -> bool:
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

    # Depth-first, with an explicit stack so that the depth (one level per
    # agent) is not bounded by the interpreter's recursion limit. A frame is
    # [agent index, value gathered, next move to try, move it holds].
    stack: list[list] = [[0, Fraction(0), 0, None]] if enter(0, Fraction(0)) else []
    while stack:
        frame = stack[-1]
        k, gathered, i, held = frame
        if held is not None:
            day, ci = held
            supply_left[day - 1] += 1
            quota_left[ci][day - 1] += 1
            if overall_left[ci] is not None:
                overall_left[ci] += 1
            current[k] = None
            frame[3] = None
        own = moves[k]
        child: tuple[int, Fraction] | None = None
        while i < len(own):
            value, day, ci = own[i]
            i += 1
            if supply_left[day - 1] == 0 or quota_left[ci][day - 1] == 0 or overall_left[ci] == 0:
                continue
            supply_left[day - 1] -= 1
            quota_left[ci][day - 1] -= 1
            if overall_left[ci] is not None:
                overall_left[ci] -= 1
            current[k] = (cat_ids[ci], day, ci)
            frame[3] = (day, ci)
            child = (k + 1, gathered + value)
            break
        else:
            if i == len(own):  # last, leave the agent unmatched
                i += 1
                child = (k + 1, gathered)
        frame[2] = i
        if child is None:
            stack.pop()
        elif enter(*child):
            stack.append([*child, 0, None])

    assignment: dict[str, tuple[str, int] | None] = {}
    for agent, chosen in zip(instance.agents, best):
        assignment[agent.id] = None if chosen is None else (chosen[0], chosen[1])
    return Allocation(assignment)

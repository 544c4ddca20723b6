"""Day-by-day greedy allocation.

Each day the still-unmatched agents available that day are matched to the
categories with capacity left, at most the day's supply of them, and the
loop moves on without ever reading future availability.

Every edge of one agent carries the same weight, ``priority *
discount**(day - 1)``, and the day's supply truncates, so the sets of agents
that can be matched together on one day form a truncated transversal
matroid. A maximum-weight matching is therefore found greedily: candidates
are tried in order of priority (highest first, ties by precedence) and each
is kept when one augmenting-path search over the categories and their
capacities fits it in, until the supply is used up. With positive weights
the kept set is also of maximum cardinality, which the analysis machinery
re-checks independently. The order is computed once per run with integer
keys; it serves every day because a day's weights share the factor
``discount**(day - 1)``.

Ties fall to agents earlier in the precedence, then to earlier-listed
categories, in that order: the matched set is the lexicographically first
one of maximum weight, and then, going through that set in precedence
order, each agent takes the earliest-listed category that still lets the
rest of the set be matched. This makes each day's assignment unique, which
keeps reruns (and deviation experiments) stable.
``tie_break="adversarial"`` inverts the default input-order precedence; the
bundled worst-case fixtures are laid out so that this mode reproduces their
bad runs, where the ratio to the offline optimum meets the bound exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Mapping, Sequence

# Not called here. ``perfbench/spans.py`` wraps this name on this module to
# count flow solves, so the import stays until the tracer stops asking for it.
from .flow import solve_profitable_flow  # noqa: F401
from .model import Allocation, Instance, validate_instance
from .offline import TieBreakOrder

TieBreak = TieBreakOrder | str | None

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DayGraph:
    """The bipartite matching problem of a single day.

    ``agents`` lists the candidates in the order the matcher tries them:
    priority descending, then ``precedence`` (position in the tie-break
    order; lower wins). ``base_weights`` maps at least every candidate to
    its priority.
    """

    day_index: int
    size_cap: int
    agents: tuple[str, ...]
    base_weights: Mapping[str, Fraction]
    discount: Fraction
    categories: tuple[str, ...]
    capacities: Mapping[str, int]
    edges: tuple[tuple[str, str], ...]
    precedence: Mapping[str, int]

    @property
    def day_factor(self) -> Fraction:
        return self.discount ** (self.day_index - 1)

    def weight(self, agent_id: str) -> Fraction:
        """Edge weight for this agent; equal across all its edges."""
        return self.base_weights[agent_id] * self.day_factor


@dataclass(frozen=True)
class DailyMatchState:
    """Progress snapshot fed into a day's graph construction."""

    day_index: int
    unmatched_pool: frozenset[str]
    remaining_overall: Mapping[str, int] | None
    allocation_so_far: Allocation


@dataclass(frozen=True)
class DayTrace:
    graph: DayGraph
    matched: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class _Ranking:
    """What every day graph of one run reads: the greedy order, each
    agent's precedence position, priority and eligible categories (in
    instance order)."""

    order: tuple[str, ...]
    precedence: Mapping[str, int]
    priorities: Mapping[str, Fraction]
    eligible: Mapping[str, tuple[str, ...]]


def _effective_precedence(instance: Instance, tie_break: TieBreak) -> tuple[str, ...]:
    if tie_break is None:
        return instance.agent_order()
    if isinstance(tie_break, str):
        if tie_break == "adversarial":
            return tuple(reversed(instance.agent_order()))
        raise ValueError(f"unknown tie-break mode {tie_break!r} (expected 'adversarial' or a TieBreakOrder)")
    tie_break.validate_for(instance)
    return tie_break.order


def _ranking(instance: Instance, tie_break: TieBreak) -> _Ranking:
    precedence = _effective_precedence(instance, tie_break)
    priorities = {a.id: a.priority for a in instance.agents}
    # Integer keys: every priority over a common denominator. The sort is
    # stable (also reversed), so equal priorities keep the precedence.
    scale = math.lcm(*(p.denominator for p in priorities.values()))
    key = {a: p.numerator * (scale // p.denominator) for a, p in priorities.items()}
    order = tuple(sorted(precedence, key=key.__getitem__, reverse=True))
    cat_ids = tuple(c.id for c in instance.categories)
    eligible = {a.id: tuple(c for c in cat_ids if c in a.eligible) for a in instance.agents}
    return _Ranking(order, {a: i for i, a in enumerate(precedence)}, priorities, eligible)


def _day_graph(
    instance: Instance,
    day_index: int,
    candidates: tuple[str, ...],
    remaining_overall: Mapping[str, int] | None,
    ranking: _Ranking,
) -> DayGraph:
    capacities: dict[str, int] = {}
    for category in instance.categories:
        cap = category.daily_quota[day_index - 1]
        if remaining_overall is not None:
            cap = min(cap, remaining_overall.get(category.id, cap))
        if cap > 0:
            capacities[category.id] = cap

    edges = tuple((a, c) for a in candidates for c in ranking.eligible[a] if c in capacities)
    return DayGraph(
        day_index=day_index,
        size_cap=instance.daily_supply[day_index - 1],
        agents=candidates,
        base_weights=ranking.priorities,
        discount=instance.discount,
        categories=tuple(capacities),
        capacities=capacities,
        edges=edges,
        precedence=ranking.precedence,
    )


def build_day_graph(
    state: DailyMatchState, instance: Instance, model2: bool = False, tie_break: TieBreak = None
) -> DayGraph:
    """Graph for ``state.day_index``: available pool agents vs. categories at
    their effective capacity (daily quota, additionally clipped by remaining
    overall quota when ``model2``). ``tie_break`` sets the precedence, as in
    :func:`run_online`."""
    if not (1 <= state.day_index <= instance.num_days):
        raise ValueError(f"day_index {state.day_index} outside horizon 1..{instance.num_days}")
    if model2 and state.remaining_overall is None:
        raise ValueError("model2 day graphs need the remaining overall quotas in the state")
    ranking = _ranking(instance, tie_break)
    available = {a.id for a in instance.agents if a.availability[state.day_index - 1]}
    candidates = tuple(a for a in ranking.order if a in state.unmatched_pool and a in available)
    remaining = state.remaining_overall if model2 else None
    return _day_graph(instance, state.day_index, candidates, remaining, ranking)


def _augmenting_path(
    agent: str,
    entries: Sequence[str],
    eligible: Mapping[str, Sequence[str]],
    holders: Mapping[str, list[str]],
    slack: Mapping[str, int],
    closed: AbstractSet[str],
    fixed: AbstractSet[str],
) -> tuple[str | None, dict[str, str]]:
    """Breadth-first search for a way to seat ``agent`` in one of
    ``entries``, moving other agents along an alternating path to a category
    with slack. Skips ``closed`` categories and never moves ``fixed`` agents.

    Returns the category where the path ends (None if there is none) and,
    for every category reached, the agent that would move into it.
    """
    parent: dict[str, str] = {}
    queue: list[str] = []
    for category in entries:
        if category in closed:
            continue
        parent[category] = agent
        if slack[category] > 0:
            return category, parent
        queue.append(category)
    for category in queue:  # grows while it is walked
        for holder in holders[category]:
            if holder in fixed:
                continue
            for target in eligible[holder]:
                if target not in parent and target not in closed:
                    parent[target] = holder
                    if slack[target] > 0:
                        return target, parent
                    queue.append(target)
    return None, parent


def _shift(
    end: str,
    parent: Mapping[str, str],
    seat: dict[str, str],
    holders: Mapping[str, list[str]],
    slack: dict[str, int],
) -> None:
    """Apply the path ending at ``end``: each agent on it moves one step, and
    the agent that has no seat yet takes the first one."""
    slack[end] -= 1
    category = end
    while True:
        mover = parent[category]
        holders[category].append(mover)
        previous = seat.get(mover)
        seat[mover] = category
        if previous is None:
            return
        holders[previous].remove(mover)
        category = previous


def max_weight_capped_bmatching(graph: DayGraph) -> frozenset[tuple[str, str]]:
    """Maximum-weight matching with per-category capacities and at most
    ``size_cap`` edges; each agent is matched at most once.

    Candidates are tried in ``graph.agents`` order and kept when an
    augmenting path seats them (matroid greedy). The result is unique: the
    lexicographically first maximum-weight set in ``graph.precedence``, then,
    agent by agent in that precedence, the earliest-listed category that
    still lets the rest of the set be matched.
    """
    if graph.size_cap <= 0 or not graph.edges:
        return frozenset()

    eligible: dict[str, list[str]] = {}
    for agent, category in graph.edges:
        eligible.setdefault(agent, []).append(category)
    slack = dict(graph.capacities)
    holders: dict[str, list[str]] = {c: [] for c in graph.categories}
    seat: dict[str, str] = {}
    fixed: set[str] = set()  # stays empty until the categories are chosen
    limit = min(graph.size_cap, sum(slack.values()))
    # Categories a failed search reached are full, and so is every category
    # their holders could move to; no later path can get through them.
    dead: set[str] = set()
    for agent in graph.agents:
        if len(seat) == limit:
            break
        entries = eligible.get(agent)
        if entries is None:
            continue
        end, parent = _augmenting_path(agent, entries, eligible, holders, slack, dead, fixed)
        if end is None:
            dead.update(parent)
        else:
            _shift(end, parent, seat, holders, slack)

    # Set first, then categories: going through the kept agents in
    # precedence order, each takes its earliest-listed category that still
    # lets the agents after it be matched.
    for agent in sorted(seat, key=graph.precedence.__getitem__):
        fixed.add(agent)
        current = seat[agent]
        if eligible[agent][0] == current:
            continue
        # Free the agent's seat; the search then succeeds at ``current`` at
        # the latest, which has slack again.
        del seat[agent]
        holders[current].remove(agent)
        slack[current] += 1
        failed: set[str] = set()
        for category in eligible[agent]:
            if category in failed:
                continue
            end, parent = _augmenting_path(agent, (category,), eligible, holders, slack, failed, fixed)
            if end is not None:
                _shift(end, parent, seat, holders, slack)
                break
            failed.update(parent)
    return frozenset(seat.items())


def run_online_with_trace(
    instance: Instance, model2: bool = False, tie_break: TieBreak = None
) -> tuple[Allocation, tuple[DayTrace, ...]]:
    """Run the greedy day loop and keep each day's graph and matching."""
    report = validate_instance(instance)
    if not report.ok:
        raise ValueError(f"instance is not well-formed: {report.violations[0].message}")
    if model2 and not instance.has_overall_quotas():
        missing = [c.id for c in instance.categories if c.overall_quota is None]
        raise ValueError(f"model2 run needs an overall quota on every category; missing on {missing}")

    ranking = _ranking(instance, tie_break)
    availability = {a.id: a.availability for a in instance.agents}
    pool = list(ranking.order)  # unmatched agents, in greedy order
    remaining: dict[str, int] | None = None
    if model2:
        remaining = {c.id: c.overall_quota for c in instance.categories}  # type: ignore[misc]
    assignment: dict[str, tuple[str, int] | None] = {a.id: None for a in instance.agents}
    traces: list[DayTrace] = []

    for day in range(1, instance.num_days + 1):
        # Availability is consumed one day at a time: only today's entry of
        # each agent is read.
        candidates = tuple(a for a in pool if availability[a][day - 1])
        graph = _day_graph(instance, day, candidates, remaining, ranking)
        matched = max_weight_capped_bmatching(graph)
        for agent_id, cat_id in matched:
            assignment[agent_id] = (cat_id, day)
            if remaining is not None:
                remaining[cat_id] -= 1
        if matched:
            pool = [a for a in pool if assignment[a] is None]
        log.debug("day=%d candidates=%d matched=%d pool=%d", day, len(candidates), len(matched), len(pool))
        traces.append(DayTrace(graph=graph, matched=matched))

    return Allocation(assignment), tuple(traces)


def run_online(instance: Instance, model2: bool = False, tie_break: TieBreak = None) -> Allocation:
    """Allocation produced by the day-by-day greedy algorithm."""
    allocation, _ = run_online_with_trace(instance, model2=model2, tie_break=tie_break)
    return allocation

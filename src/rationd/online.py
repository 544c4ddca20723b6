"""Day-by-day greedy allocation.

Each day the still-unmatched agents available that day are matched to the
categories with capacity left, at most the day's supply of them, and the
loop moves on without ever reading future availability.

A day's :class:`DayGraph` holds that day's candidates and the capacities of
the categories open that day. A category is closed when its daily quota is
0 that day or its overall quota is used up; it is then missing
from the capacities. Category lists are not rebuilt per day: every day
graph of a run shares one mapping from each agent to all its eligible
categories in instance order, and the matcher passes over closed ones. The
edge list (``DayGraph.edges``) is derived on request for the independent
checkers; the matcher never builds it.

Every edge of one agent is worth the same, ``priority * discount**(day -
1)``, and the day's supply truncates, so the sets of agents that can be
matched together on one day form a truncated transversal matroid. A
maximum-weight matching is therefore found greedily, and the matcher reads
an order, not weights: candidates come in ``DayGraph.agents`` order
(priority highest first, ties by ``DayGraph.precedence``) and each is kept
when one augmenting-path search over the categories and their capacities
fits it in, until the supply is used up. With positive weights the kept set
is also of maximum cardinality, which the analysis machinery re-checks
independently. The order is computed once per run with integer keys; it
serves every day because a day's weights share the factor
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
from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Iterator, Mapping, Sequence

from .model import Allocation, Instance, TieBreak, overall_quotas, precedence, priority_keys

# Not called here. ``perfbench/spans.py`` wraps these names on this module to
# count flow solves and instance validations, so the imports stay until the
# tracer stops asking for them.
from .flow import solve_profitable_flow  # noqa: F401
from .model import validate_instance  # noqa: F401

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DayGraph:
    """The bipartite matching problem of a single day.

    ``agents`` lists the candidates in the order the matcher tries them:
    priority descending, then ``precedence`` (position in the tie-break
    order; lower wins); the matcher reads this order and no weights.
    ``capacities`` maps each category open today to its capacity, in
    instance order; a category missing from it is closed today.
    ``eligible`` maps at least every candidate to all its eligible
    categories in instance order, closed ones included; every day graph of
    one run shares the same mapping. ``edges`` and ``categories`` are
    derived from these fields.
    """

    day_index: int
    size_cap: int
    agents: tuple[str, ...]
    capacities: Mapping[str, int]
    eligible: Mapping[str, tuple[str, ...]]
    precedence: Mapping[str, int]

    @property
    def categories(self) -> tuple[str, ...]:
        """The categories open today, in instance order."""
        return tuple(self.capacities)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every (candidate, eligible category open today) pair."""
        return tuple((a, c) for a in self.agents for c in self.eligible[a] if c in self.capacities)


@dataclass(frozen=True)
class DayTrace:
    graph: DayGraph
    matched: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class _Ranking:
    """What every day graph of one run reads: the greedy order, each
    agent's precedence position and eligible categories (in instance
    order)."""

    order: tuple[str, ...]
    precedence: Mapping[str, int]
    eligible: Mapping[str, tuple[str, ...]]


def _ranking(instance: Instance, tie_break: TieBreak) -> _Ranking:
    by_precedence = precedence(instance, tie_break)
    # The sort is stable (also reversed), so equal priorities keep the
    # precedence.
    order = tuple(sorted(by_precedence, key=priority_keys(instance)[1].__getitem__, reverse=True))
    cat_ids = tuple(c.id for c in instance.categories)
    # Each distinct eligible set is put in instance order once, and agents
    # with equal sets share the tuple; a frozenset caches its hash, so an
    # agent whose set another agent holds too costs one lookup.
    ordered: dict[frozenset[str], tuple[str, ...]] = {}
    eligible: dict[str, tuple[str, ...]] = {}
    for a in instance.agents:
        cats = ordered.get(a.eligible)
        if cats is None:
            cats = ordered[a.eligible] = tuple(c for c in cat_ids if c in a.eligible)
        eligible[a.id] = cats
    return _Ranking(order, dict(zip(by_precedence, range(len(by_precedence)))), eligible)


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
        if remaining_overall:
            cap = min(cap, remaining_overall.get(category.id, cap))
        if cap > 0:
            capacities[category.id] = cap
    return DayGraph(
        day_index=day_index,
        size_cap=instance.daily_supply[day_index - 1],
        agents=candidates,
        capacities=capacities,
        eligible=ranking.eligible,
        precedence=ranking.precedence,
    )


def build_day_graph(
    instance: Instance,
    day_index: int,
    pool: Iterable[str],
    remaining_overall: Mapping[str, int] | None = None,
    tie_break: TieBreak = None,
) -> DayGraph:
    """Graph for ``day_index``: the agents of ``pool`` (those still waiting)
    available that day vs. the categories open that day, each at its daily
    quota, clipped by its entry in ``remaining_overall`` if it has one.
    ``tie_break`` sets the precedence, as in :func:`run_online`."""
    if not (1 <= day_index <= instance.num_days):
        raise ValueError(f"day_index {day_index} outside horizon 1..{instance.num_days}")
    ranking = _ranking(instance, tie_break)
    waiting = set(pool)
    available = {a.id for a in instance.agents if a.availability[day_index - 1]}
    candidates = tuple(a for a in ranking.order if a in waiting and a in available)
    return _day_graph(instance, day_index, candidates, remaining_overall, ranking)


def _augmenting_path(
    agent: Hashable,
    entries: Sequence[Hashable],
    eligible: Mapping[Hashable, Sequence[Hashable]],
    holders: Mapping[Hashable, list[Hashable]],
    slack: Mapping[Hashable, int],
    closed: AbstractSet[Hashable],
    fixed: AbstractSet[Hashable],
) -> tuple[Hashable | None, dict[Hashable, Hashable]]:
    """Breadth-first search for a way to seat ``agent`` in one of
    ``entries``, moving other agents along an alternating path to a category
    with slack. Skips the categories in ``closed`` and those with no capacity
    today (missing from ``slack``), and never moves ``fixed`` agents.

    Returns the category where the path ends (None if there is none) and,
    for every category reached, the agent that would move into it.
    """
    parent: dict[str, str] = {}
    queue: list[str] = []
    for category in entries:
        if category in closed or category not in slack:
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
                if target not in parent and target not in closed and target in slack:
                    parent[target] = holder
                    if slack[target] > 0:
                        return target, parent
                    queue.append(target)
    return None, parent


def _shift(
    end: Hashable,
    parent: Mapping[Hashable, Hashable],
    seat: dict[Hashable, Hashable],
    holders: Mapping[Hashable, list[Hashable]],
    slack: dict[Hashable, int],
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


def _seat_greedily(
    agents: Iterable[Hashable],
    eligible: Mapping[Hashable, Sequence[Hashable]],
    capacities: Mapping[Hashable, int],
    limit: int,
) -> tuple[dict[Hashable, Hashable], dict[Hashable, list[Hashable]], dict[Hashable, int]]:
    """Seat ``agents`` in order, each on one of its ``eligible`` categories
    within their ``capacities``, until ``limit`` are seated: an agent is
    kept when an augmenting path fits it in (matroid greedy), so the kept
    agents are the first maximum set in this order.

    Returns each kept agent's seat, each category's holders and its slack
    left. Agents and categories may be any hashable values: the day matcher
    seats candidates on categories, the charge certificate seats chargers on
    buckets of interchangeable targets.
    """
    slack = dict(capacities)
    holders: dict[Hashable, list[Hashable]] = {c: [] for c in slack}
    seat: dict[Hashable, Hashable] = {}
    # Categories a failed search reached are full, and so is every category
    # their holders could move to; no later path can get through them.
    dead: set[Hashable] = set()
    for agent in agents:
        if len(seat) == limit:
            break
        end, parent = _augmenting_path(agent, eligible[agent], eligible, holders, slack, dead, frozenset())
        if end is None:
            dead.update(parent)
        else:
            _shift(end, parent, seat, holders, slack)
    return seat, holders, slack


def max_weight_capped_bmatching(graph: DayGraph) -> frozenset[tuple[str, str]]:
    """Maximum-weight matching with per-category capacities and at most
    ``size_cap`` edges; each agent is matched at most once.

    Candidates are tried in ``graph.agents`` order and kept when an
    augmenting path seats them (matroid greedy). The result is unique: the
    lexicographically first maximum-weight set in ``graph.precedence``, then,
    agent by agent in that precedence, the earliest-listed category that
    still lets the rest of the set be matched. Categories closed today are
    never reached.
    """
    limit = min(graph.size_cap, sum(graph.capacities.values()))
    if limit <= 0:
        return frozenset()

    eligible = graph.eligible
    seat, holders, slack = _seat_greedily(graph.agents, eligible, graph.capacities, limit)

    # Set first, then categories: going through the kept agents in
    # precedence order, each takes its earliest-listed open category that
    # still lets the agents after it be matched.
    fixed: set[str] = set()
    for agent in sorted(seat, key=graph.precedence.__getitem__):
        fixed.add(agent)
        current = seat[agent]
        if next(c for c in eligible[agent] if c in slack) == current:
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


def _run_days(instance: Instance, ranking: _Ranking, pool: list[str], remaining: dict[str, int]) -> Iterator[DayTrace]:
    """The greedy day loop over the whole horizon, one trace per day,
    yielded once the day is matched and before it is committed.

    ``pool`` lists the agents taking part, in greedy order; ``remaining``
    holds the overall quotas left of the capped categories and is updated
    in place.
    """
    availability = {a.id: a.availability for a in instance.agents}
    for day in range(1, instance.num_days + 1):
        candidates = tuple([a for a in pool if availability[a][day - 1]])
        graph = _day_graph(instance, day, candidates, remaining, ranking)
        matched = max_weight_capped_bmatching(graph)
        yield DayTrace(graph=graph, matched=matched)
        if matched:
            taken = {a for a, _c in matched}
            pool = [a for a in pool if a not in taken]
            for _a, cat_id in matched:
                if cat_id in remaining:
                    remaining[cat_id] -= 1
        log.debug("day=%d candidates=%d matched=%d pool=%d", day, len(candidates), len(matched), len(pool))


def run_online_with_trace(
    instance: Instance, model2: bool | None = None, tie_break: TieBreak = None
) -> tuple[Allocation, tuple[DayTrace, ...]]:
    """Run the greedy day loop and keep each day's graph and matching; the
    overall quotas are those of :func:`~rationd.model.overall_quotas`.
    Raises ValueError for an unknown tie-break or a ``model2`` that
    disagrees with the instance."""
    ranking, remaining = _ranking(instance, tie_break), overall_quotas(instance, model2)
    traces = tuple(_run_days(instance, ranking, list(ranking.order), remaining))
    assignment: dict[str, tuple[str, int] | None] = {a.id: None for a in instance.agents}
    for trace in traces:
        for agent_id, cat_id in trace.matched:
            assignment[agent_id] = (cat_id, trace.graph.day_index)
    return Allocation(assignment), traces


def run_online(instance: Instance, model2: bool | None = None, tie_break: TieBreak = None) -> Allocation:
    """Allocation produced by the day-by-day greedy algorithm."""
    allocation, _ = run_online_with_trace(instance, model2=model2, tie_break=tie_break)
    return allocation

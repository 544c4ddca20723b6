"""Verification and measurement machinery.

This module certifies, on concrete instances, the guarantees the allocators
are designed around:

* competitive ratios of the online run against the offline optimum, and the
  worst-case bounds they must respect;
* a charge certificate pairing every offline-matched agent with an
  online-matched one at a bounded utility ratio, reconstructed per day from
  the symmetric difference of the two day matchings;
* deviation probing: no agent can get matched strictly earlier by reporting
  a subset of their true availability. One walk per agent runs the day
  loop without it and matches each of its available days again with it
  added; the days it would be kept on settle every under-report, and the
  days it would not be kept on must show an unchanged matching, or the
  report names the first that does not as its witness;
* coverage metrics (reachable vs. served counts, per priority group).

Everything here is exact; certificates either hold or carry a witness day.
"""

from __future__ import annotations

import bisect
import itertools
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .model import Allocation, Instance, total_utility, utility_of
from .offline import solve_exact_oracle, solve_offline_model1
from . import online
from .online import DayGraph, TieBreak, run_online

ONLINE = "online"
OFFLINE = "offline"


class InfiniteRatioError(ArithmeticError):
    """Online utility is zero while the offline optimum is positive."""


# ---------------------------------------------------------------------------
# Competitive ratio


def model1_bound(instance: Instance) -> Fraction:
    """Worst-case offline/online ratio when categories have daily quotas only."""
    return 1 + instance.discount


def model2_bound(instance: Instance) -> Fraction:
    """Worst-case ratio with overall quotas: 1 + d + (max/min priority) * d."""
    return 1 + instance.discount + instance.priority_spread() * instance.discount


def competitive_ratio(
    instance: Instance,
    model2: bool = False,
    tie_break: TieBreak = None,
    oracle_budget: int = 1_000_000,
) -> Fraction:
    """Offline-optimal utility divided by online utility (at least 1).

    The offline side is the flow solver, or the exhaustive oracle when
    ``model2``. Raises :class:`InfiniteRatioError` if the online run earns
    nothing while the optimum is positive (the worst-case bounds rule this
    out for well-formed inputs).
    """
    if model2:
        best = solve_exact_oracle(instance, model2=True, budget=oracle_budget)
    else:
        best = solve_offline_model1(instance)
    online_alloc = run_online(instance, model2=model2, tie_break=tie_break)
    opt = total_utility(instance, best)
    alg = total_utility(instance, online_alloc)
    if alg == 0:
        if opt == 0:
            return Fraction(1)
        raise InfiniteRatioError(f"online utility 0 against optimum {opt}")
    return opt / alg


def day_matchings(alloc: Allocation) -> dict[int, dict[str, str]]:
    """Split an allocation into per-day {agent: category} matchings."""
    by_day: dict[int, dict[str, str]] = defaultdict(dict)
    for agent_id, cat_id, day in alloc.matched():
        by_day[day][agent_id] = cat_id
    return dict(by_day)


# ---------------------------------------------------------------------------
# Symmetric-difference decomposition

Edge = tuple[str, str, str]  # (agent, category, label)
End = tuple[str, str]  # ("agent" | "category", vertex id)


@dataclass(frozen=True)
class Component:
    """One alternating piece of a symmetric difference.

    ``edges`` follow the walk order; labels alternate. ``ends`` gives the
    two exposed vertices for paths and is ``None`` for cycles.
    """

    kind: str  # "path" | "cycle"
    edges: tuple[Edge, ...]
    ends: tuple[End, End] | None


@dataclass(frozen=True)
class Decomposition:
    components: tuple[Component, ...]

    def all_edges(self) -> set[Edge]:
        out: set[Edge] = set()
        for component in self.components:
            out.update(component.edges)
        return out


def decompose_symmetric_difference(
    day_online: Mapping[str, str], day_offline: Mapping[str, str]
) -> Decomposition:
    """Decompose the symmetric difference of two one-day matchings into
    alternating paths and even cycles.

    Inputs map each matched agent to its category (one entry per agent per
    side, matching the day-graph construction). Edges present on both sides
    cancel and appear in no component.
    """
    online_edges = {(a, c) for a, c in day_online.items()}
    offline_edges = {(a, c) for a, c in day_offline.items()}
    only_online = online_edges - offline_edges
    only_offline = offline_edges - online_edges

    edges: list[Edge] = [(a, c, ONLINE) for a, c in sorted(only_online)]
    edges += [(a, c, OFFLINE) for a, c in sorted(only_offline)]

    # Agent junction: the two opposite-label edges of one agent.
    by_agent: dict[str, dict[str, Edge]] = defaultdict(dict)
    for edge in edges:
        agent, _cat, label = edge
        by_agent[agent][label] = edge

    # Category junction: pair off opposite-label edges, index by index.
    links: dict[Edge, dict[str, Edge]] = {edge: {} for edge in edges}
    at_category: dict[str, dict[str, list[Edge]]] = defaultdict(lambda: {ONLINE: [], OFFLINE: []})
    for edge in edges:
        at_category[edge[1]][edge[2]].append(edge)
    for cat_id in sorted(at_category):
        online_side = sorted(at_category[cat_id][ONLINE])
        offline_side = sorted(at_category[cat_id][OFFLINE])
        for e_on, e_off in zip(online_side, offline_side):
            links[e_on]["category"] = e_off
            links[e_off]["category"] = e_on
    for agent_id, pair in by_agent.items():
        if len(pair) == 2:
            links[pair[ONLINE]]["agent"] = pair[OFFLINE]
            links[pair[OFFLINE]]["agent"] = pair[ONLINE]

    def junction_between(a: Edge, b: Edge) -> str:
        return "agent" if a[0] == b[0] and links[a].get("agent") == b else "category"

    visited: set[Edge] = set()
    components: list[Component] = []
    for start in edges:
        if start in visited:
            continue
        # Walk as far as possible through the "agent" junction first.
        chain = [start]
        seen_cycle = False
        junction = "agent"
        current = start
        while True:
            nxt = links[current].get(junction)
            if nxt is None:
                break
            if nxt == start:
                seen_cycle = True
                break
            chain.append(nxt)
            current = nxt
            junction = "category" if junction == "agent" else "agent"
        if seen_cycle:
            component = Component("cycle", tuple(chain), None)
            visited.update(chain)
            components.append(component)
            continue
        # ``current`` is one true end; rewalk from it to get path order.
        first_junction = junction_between(chain[-1], chain[-2]) if len(chain) > 1 else None
        ordered = [current]
        junction = first_junction or "category"
        # The free side of the end edge is the one we did NOT arrive through;
        # for a singleton edge both sides are free and the walk is trivial.
        while True:
            nxt = links[ordered[-1]].get(junction)
            if nxt is None:
                break
            ordered.append(nxt)
            junction = "category" if junction == "agent" else "agent"
        # Exposed vertices: the junction missing at each extreme.
        head = ordered[0]
        tail = ordered[-1]

        def free_end(edge: Edge, neighbour: Edge) -> End:
            used = junction_between(edge, neighbour)
            return ("category", edge[1]) if used == "agent" else ("agent", edge[0])

        if len(ordered) == 1:
            ends = (("agent", head[0]), ("category", head[1]))
        else:
            ends = (free_end(head, ordered[1]), free_end(tail, ordered[-2]))
        component = Component("path", tuple(ordered), ends)
        visited.update(ordered)
        components.append(component)

    return Decomposition(tuple(components))


# ---------------------------------------------------------------------------
# Charging certificate

SAME_DAY = "same_day"
DELAYED_SELF = "delayed_self"
OVERFLOW = "overflow"


@dataclass(frozen=True)
class Charge:
    charger: str
    target: str
    factor: Fraction
    kind: str


@dataclass(frozen=True)
class ChargingReport:
    """Reconstruction of the worst-case ratio argument on one concrete
    (online, offline) pair.

    When ``bound_certified`` every offline-matched agent charges exactly one
    online-matched agent, each target carries at most one charge of each
    kind, and factors respect 1 / discount / spread*discount. The exact
    identity ``sum(factor * online utility of target) == offline utility``
    is part of the certificate.
    """

    type1_agents: frozenset[str]
    charges: tuple[Charge, ...]
    per_target_load: Mapping[str, tuple[Fraction, ...]]
    bound_certified: bool
    failure_day: int | None = None
    failure_reason: str | None = None


def _report(
    type1: frozenset[str], charges: list[Charge], day: int | None = None, reason: str | None = None
) -> ChargingReport:
    """The report on ``charges``: certified unless a failure ``reason`` is
    given."""
    loads: dict[str, list[Fraction]] = defaultdict(list)
    for charge in charges:
        loads[charge.target].append(charge.factor)
    return ChargingReport(
        type1_agents=type1,
        charges=tuple(charges),
        per_target_load={t: tuple(fs) for t, fs in loads.items()},
        bound_certified=reason is None,
        failure_day=day,
        failure_reason=reason,
    )


def build_charging_report(
    instance: Instance,
    online_alloc: Allocation,
    offline_alloc: Allocation,
    model2: bool = False,
) -> ChargingReport:
    """Assign every offline-matched agent a unique online-matched target.

    Agents served earlier online than offline charge themselves with the
    exact discount gap. The rest are charged day by day through the
    symmetric-difference decomposition; offline-surplus paths fall back to
    any free same-day target when the day's supply is saturated and, with
    overall quotas, to an earlier agent of the exhausted category otherwise.
    Failures are reported (with a witness day), never raised.
    """
    priorities = {a.id: a.priority for a in instance.agents}
    categories = instance.category_map()
    online_by_day = day_matchings(online_alloc)
    offline_by_day = day_matchings(offline_alloc)
    online_slot = {a: online_alloc.slot_of(a) for a in priorities}
    offline_slot = {a: offline_alloc.slot_of(a) for a in priorities}

    type1 = frozenset(
        a
        for a in priorities
        if online_slot[a] is not None
        and offline_slot[a] is not None
        and online_slot[a][1] < offline_slot[a][1]
    )

    charges: list[Charge] = []
    for a in sorted(type1):
        gap = offline_slot[a][1] - online_slot[a][1]
        charges.append(Charge(a, a, instance.discount**gap, DELAYED_SELF))

    # Online consumption per category and day, for quota-exhaustion checks
    # and overflow targets.
    online_under_cat: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for agent_id, cat_id, day in online_alloc.matched():
        online_under_cat[cat_id].append((day, agent_id))
    for cat_id in online_under_cat:
        online_under_cat[cat_id].sort()

    overflow_chargers: list[tuple[int, str, str]] = []  # (day, agent, category)

    for day in range(1, instance.num_days + 1):
        online_today = online_by_day.get(day, {})
        offline_today_full = offline_by_day.get(day, {})
        offline_today = {a: c for a, c in offline_today_full.items() if a not in type1}
        if not offline_today:
            continue

        same_day_taken: set[str] = set()

        def charge_same_day(charger: str, target: str) -> None:
            same_day_taken.add(target)
            charges.append(Charge(charger, target, priorities[charger] / priorities[target], SAME_DAY))

        # Agents matched identically on both sides cancel out of the
        # decomposition; they self-charge at factor 1.
        for a in sorted(offline_today):
            if online_today.get(a) == offline_today[a]:
                charge_same_day(a, a)

        decomposition = decompose_symmetric_difference(online_today, offline_today)
        pending_free: list[str] = []  # offline-surplus chargers needing any free target

        for component in decomposition.components:
            offline_agents = sorted({e[0] for e in component.edges if e[2] == OFFLINE})
            if component.kind == "cycle":
                for a in offline_agents:
                    charge_same_day(a, a)
                continue
            assert component.ends is not None
            (head_kind, head_id), (tail_kind, tail_id) = component.ends
            end_kinds = sorted((head_kind, tail_kind))
            if end_kinds == ["agent", "agent"]:
                # Even path: the end edge's label says which side its agent
                # belongs to; the offline-only endpoint charges the
                # online-only one.
                if component.edges[0][2] == OFFLINE:
                    charger_end, target_end = head_id, tail_id
                else:
                    charger_end, target_end = tail_id, head_id
                for a in offline_agents:
                    charge_same_day(a, target_end if a == charger_end else a)
                continue
            if end_kinds == ["category", "category"]:
                for a in offline_agents:
                    charge_same_day(a, a)
                continue
            # Agent/category ends (odd path): both exposed edges carry the
            # same label.
            if component.edges[0][2] == ONLINE:
                # Online-surplus path: every offline agent on it is matched
                # both ways today.
                for a in offline_agents:
                    charge_same_day(a, a)
                continue
            # Offline-surplus path: one more offline edge than online edges.
            if head_kind == "category":
                cat_end, agent_end = head_id, tail_id
                boundary_agent = component.edges[0][0]
            else:
                cat_end, agent_end = tail_id, head_id
                boundary_agent = component.edges[-1][0]
            online_at_cat = sum(1 for c in online_today.values() if c == cat_end)
            day_cap = categories[cat_end].daily_quota[day - 1]
            effective_cap = day_cap
            overall = categories[cat_end].overall_quota
            consumed_before = sum(1 for d, _a in online_under_cat.get(cat_end, ()) if d < day)
            if model2 and overall is not None:
                effective_cap = min(day_cap, overall - consumed_before)
            if online_at_cat < effective_cap:
                # The terminal category had room, so only a saturated day
                # supply can explain the surplus; the endpoint may charge
                # any free online agent of the day (chosen after the loop).
                if len(online_today) != instance.daily_supply[day - 1]:
                    return _report(
                        type1,
                        charges,
                        day,
                        f"offline-surplus path at category {cat_end!r} on day {day} with slack "
                        "supply and slack capacity: the day matching was not maximal",
                    )
                for a in offline_agents:
                    if a != agent_end:
                        charge_same_day(a, a)
                pending_free.append(agent_end)
                continue
            # Terminal category saturated. Feasibility of the offline side
            # rules out the daily quota, so the overall quota must be
            # exhausted by the online run on or before this day.
            if not model2 or overall is None or consumed_before + online_at_cat != overall:
                return _report(
                    type1,
                    charges,
                    day,
                    f"offline-surplus path at saturated category {cat_end!r} on day {day} "
                    "without an exhausted overall quota",
                )
            # The agent beside the exhausted category redirects across days;
            # the far endpoint takes its place today (they coincide on
            # single-edge paths).
            for a in offline_agents:
                if a == boundary_agent:
                    continue
                charge_same_day(a, boundary_agent if a == agent_end else a)
            overflow_chargers.append((day, boundary_agent, cat_end))

        # Resolve "charge anyone free" surplus agents deterministically.
        for charger in sorted(pending_free):
            free = sorted(t for t in online_today if t not in same_day_taken)
            if not free:
                return _report(type1, charges, day, f"no free online target left for surplus agent {charger!r}")
            charge_same_day(charger, free[0])

    # Overflow charges: per category, match each charger to a distinct
    # online agent served under that category on an earlier day.
    by_category: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for day, agent_id, cat_id in overflow_chargers:
        by_category[cat_id].append((day, agent_id))
    for cat_id in sorted(by_category):
        chargers = sorted(by_category[cat_id])
        targets = online_under_cat.get(cat_id, [])
        assignment = _match_overflow(chargers, targets)
        if assignment is None:
            worst = chargers[0][0]
            return _report(
                type1, charges, worst, f"cannot injectively assign overflow charges for category {cat_id!r}"
            )
        for (day, agent_id), (target_day, target_id) in assignment:
            factor = (priorities[agent_id] / priorities[target_id]) * instance.discount ** (day - target_day)
            charges.append(Charge(agent_id, target_id, factor, OVERFLOW))

    return _certify(instance, online_alloc, offline_alloc, type1, charges, model2)


def _match_overflow(
    chargers: list[tuple[int, str]], targets: list[tuple[int, str]]
) -> list[tuple[tuple[int, str], tuple[int, str]]] | None:
    """Injectively map each (day, charger) to a strictly earlier (day, target).

    Augmenting paths are searched depth first with an explicit stack, so a
    long chain of chargers displacing one another needs no recursion.
    """
    taken: dict[int, int] = {}  # target index -> charger index
    for start in range(len(chargers)):
        banned: set[int] = set()
        stack = [[start, 0]]  # [charger, next target index to try]
        chosen: list[int] = []  # the target each frame below the top is trying
        while stack:
            frame = stack[-1]
            ci, ti = frame
            day = chargers[ci][0]
            while ti < len(targets) and (ti in banned or targets[ti][0] >= day):
                ti += 1
            if ti == len(targets):
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            frame[1] = ti + 1
            banned.add(ti)
            chosen.append(ti)
            holder = taken.get(ti)
            if holder is None:
                for (mover, _next), target in zip(stack, chosen):
                    taken[target] = mover
                break
            stack.append([holder, 0])
        else:
            return None
    return [(chargers[ci], targets[ti]) for ti, ci in sorted(taken.items())]


def _certify(
    instance: Instance,
    online_alloc: Allocation,
    offline_alloc: Allocation,
    type1: frozenset[str],
    charges: list[Charge],
    model2: bool,
) -> ChargingReport:
    priorities = {a.id: a.priority for a in instance.agents}
    spread = instance.priority_spread()
    limit = {
        SAME_DAY: Fraction(1),
        DELAYED_SELF: instance.discount,
        OVERFLOW: spread * instance.discount,
    }
    online_matched = {a for a, _c, _d in online_alloc.matched()}
    offline_matched = [a for a, _c, _d in offline_alloc.matched()]

    kinds_per_target: dict[str, list[str]] = defaultdict(list)
    chargers = [c.charger for c in charges]
    for charge in charges:
        kinds_per_target[charge.target].append(charge.kind)

    if sorted(chargers) != sorted(offline_matched):
        return _report(type1, charges, reason="chargers do not cover the offline-matched agents exactly once")
    for charge in charges:
        if charge.target not in online_matched:
            return _report(type1, charges, reason=f"target {charge.target!r} is not online-matched")
        if charge.kind == OVERFLOW and not model2:
            return _report(type1, charges, reason="overflow charge outside model2")
        if charge.factor > limit[charge.kind]:
            return _report(
                type1,
                charges,
                reason=f"{charge.kind} factor {charge.factor} of {charge.charger!r} -> {charge.target!r} "
                f"exceeds {limit[charge.kind]}",
            )
    for target, kinds in kinds_per_target.items():
        if len(kinds) != len(set(kinds)):
            return _report(type1, charges, reason=f"target {target!r} carries repeated charge kinds {kinds}")
        if len(kinds) > (3 if model2 else 2):
            return _report(type1, charges, reason=f"target {target!r} carries {len(kinds)} charges")

    # The factors must reproduce the offline utility exactly.
    online_value = {a: utility_of(priorities[a], d, instance.discount) for a, _c, d in online_alloc.matched()}
    recovered = sum((charge.factor * online_value[charge.target] for charge in charges), Fraction(0))
    if recovered != total_utility(instance, offline_alloc):
        return _report(type1, charges, reason="charge factors do not reconstruct the offline utility")
    return _report(type1, charges)


# ---------------------------------------------------------------------------
# Strategyproofness probing


@dataclass(frozen=True)
class DeviationOutcome:
    reported_days: tuple[int, ...]
    matched_day: int | None


@dataclass(frozen=True)
class DeviationReport:
    """Where one agent ends up under every report of a subset of its truly
    available days.

    ``kept_days`` (M) are the available days on which the day's matching
    keeps the agent when it is added to the run without it. A report S ends
    on ``min(S & M)``, or None, and the truthful day is ``min(M)``, so no
    under-report ends earlier. This is exact when ``witness_day`` is None:
    on every available day outside M, adding the agent left the day's
    matching unchanged. Otherwise ``witness_day`` is the first day where it
    did not, and the report is not strategyproof.
    """

    agent: str
    available_days: tuple[int, ...]
    kept_days: tuple[int, ...]
    witness_day: int | None

    @property
    def truthful_day(self) -> int | None:
        return self.kept_days[0] if self.kept_days else None

    def outcome_of(self, reported: Iterable[int]) -> int | None:
        """Day the agent is matched on when it reports ``reported``, or None."""
        days = set(reported)
        if not days <= set(self.available_days):
            raise ValueError(f"{self.agent!r} is not available on days {sorted(days - set(self.available_days))}")
        return next((d for d in self.kept_days if d in days), None)

    @cached_property
    def outcomes(self) -> tuple[DeviationOutcome, ...]:
        """Every proper subset of the available days with its outcome, by
        size, then in lexicographic order. Built on first access: an agent
        with k available days has 2^k - 1 of them."""
        kept = set(self.kept_days)
        days = self.available_days
        return tuple(
            DeviationOutcome(reported, next((d for d in reported if d in kept), None))
            for size in range(len(days))
            for reported in itertools.combinations(days, size)
        )

    @property
    def improving(self) -> tuple[DeviationOutcome, ...]:
        """Under-reports that end strictly before the truthful day. A report
        ends on its earliest kept day and the truthful day is the earliest
        kept day of all, so there are none; ``witness_day`` is None when
        the kept days are certified."""
        return ()

    @property
    def strategyproof(self) -> bool:
        return self.witness_day is None and not self.improving


def availability_deviation_report(
    instance: Instance,
    agent_id: str,
    model2: bool = False,
    tie_break: TieBreak = None,
) -> DeviationReport:
    """Settle every under-report of one agent's availability with one walk.

    The walk runs the online day loop without the agent and, on each of its
    truly available days, matches that day's graph again with the agent
    inserted at its rank. Each day is a greedy over a matroid, so adding a
    candidate the greedy does not keep leaves the day's matching as it was;
    until it is kept, the agent therefore changes nothing, whatever it
    reports. The walk checks this on every available day where the agent
    is not kept (see :class:`DeviationReport`). Raises ValueError as
    :func:`run_online` does, and for an unknown agent.
    """
    agent = next((a for a in instance.agents if a.id == agent_id), None)
    if agent is None:
        raise ValueError(f"unknown agent {agent_id!r}")
    ranking, remaining = online._start(instance, model2, tie_break)
    position = {a: i for i, a in enumerate(ranking.order)}
    rank = position[agent_id]
    pool = [a for a in ranking.order if a != agent_id]

    available: list[int] = []
    kept: list[int] = []
    witness: int | None = None
    for trace in online._run_days(instance, ranking, pool, remaining):
        graph = trace.graph
        day = graph.day_index
        if not agent.availability[day - 1]:
            continue
        available.append(day)
        at = bisect.bisect(graph.agents, rank, key=position.__getitem__)
        agents = graph.agents[:at] + (agent_id,) + graph.agents[at:]
        matched = online.max_weight_capped_bmatching(replace(graph, agents=agents))
        if any(a == agent_id for a, _c in matched):
            kept.append(day)
        elif matched != trace.matched and witness is None:
            witness = day
    return DeviationReport(agent_id, tuple(available), tuple(kept), witness)


# ---------------------------------------------------------------------------
# Coverage metrics


@dataclass(frozen=True)
class GroupDayStats:
    reachable: int
    served: int
    fraction_unserved: Fraction
    matched_today: int
    cumulative_utility: Fraction


@dataclass(frozen=True)
class MetricsSeries:
    """Per-day, per-group coverage counts; the key "all" aggregates everyone."""

    groups: tuple[str, ...]
    days: tuple[Mapping[str, GroupDayStats], ...]


def compute_metrics(instance: Instance, alloc: Allocation) -> MetricsSeries:
    """Reachable vs. served counts by day and priority group.

    An agent is reachable on day ``j`` once available on some day ``<= j``
    on which an eligible category had capacity left (daily quota, clipped by
    the overall quota remaining under this very allocation). Unlabelled
    agents count toward "all" only.
    """
    if any(a.group == "all" for a in instance.agents):
        raise ValueError('group label "all" is reserved for the aggregate row')
    labels = sorted({a.group for a in instance.agents if a.group is not None})

    categories = instance.category_map()
    consumed_before: dict[str, list[int]] = {
        c.id: [0] * (instance.num_days + 1) for c in instance.categories
    }
    for _a, cat_id, day in alloc.matched():
        consumed_before[cat_id][day] += 1
    for cat_id, counts in consumed_before.items():
        for day in range(1, instance.num_days + 1):
            counts[day] += counts[day - 1]

    def capacity(cat_id: str, day: int) -> int:
        category = categories[cat_id]
        cap = category.daily_quota[day - 1]
        if category.overall_quota is not None:
            cap = min(cap, category.overall_quota - consumed_before[cat_id][day - 1])
        return cap
    reach_day: dict[str, int | None] = {}
    for agent in instance.agents:
        reach_day[agent.id] = None
        for day in range(1, instance.num_days + 1):
            if not agent.availability[day - 1]:
                continue
            if any(capacity(c, day) > 0 for c in agent.eligible if c in categories):
                reach_day[agent.id] = day
                break

    matched_day = {a.id: alloc.day_of(a.id) for a in instance.agents}
    utilities = {
        a.id: utility_of(a.priority, matched_day[a.id], instance.discount)
        for a in instance.agents
        if matched_day[a.id] is not None
    }

    def members(label: str) -> list[str]:
        if label == "all":
            return [a.id for a in instance.agents]
        return [a.id for a in instance.agents if a.group == label]

    days: list[dict[str, GroupDayStats]] = []
    for day in range(1, instance.num_days + 1):
        row: dict[str, GroupDayStats] = {}
        for label in labels + ["all"]:
            ids = members(label)
            reachable = sum(1 for a in ids if reach_day[a] is not None and reach_day[a] <= day)
            served = sum(1 for a in ids if matched_day[a] is not None and matched_day[a] <= day)
            today = sum(1 for a in ids if matched_day[a] == day)
            value = sum(
                (utilities[a] for a in ids if matched_day[a] is not None and matched_day[a] <= day),
                Fraction(0),
            )
            fraction = Fraction(0) if reachable == 0 else 1 - Fraction(served, reachable)
            row[label] = GroupDayStats(reachable, served, fraction, today, value)
        days.append(row)
    return MetricsSeries(tuple(labels), tuple(days))


# ---------------------------------------------------------------------------
# Independent feasibility / maximality checks


def max_matching_size(graph: DayGraph) -> int:
    """Maximum-cardinality capped matching size, by breadth-first max flow.

    Deliberately independent of the online matcher: used to cross-check
    that committed day matchings are as large as they can be. The network is
    source -> gate (capacity ``size_cap``) -> each agent (1) -> each of its
    categories (1) -> sink (the category's capacity), on integer-numbered
    nodes. The flow starts from the source-to-sink paths that are free
    outright and grows along shortest augmenting paths; the last search,
    which finds none, certifies the maximum whatever the start.
    """
    edges = graph.edges
    if graph.size_cap <= 0 or not edges:
        return 0
    agents = sorted({a for a, _c in edges})
    categories = graph.categories
    agent_node = {a: 2 + i for i, a in enumerate(agents)}
    category_node = {c: 2 + len(agents) + i for i, c in enumerate(categories)}
    source, gate, sink = 0, 1, 2 + len(agents) + len(categories)
    # Arc k and its reverse k ^ 1 are stored side by side.
    heads: list[int] = []
    residual: list[int] = []
    out: list[list[int]] = [[] for _ in range(sink + 1)]

    def add(u: int, v: int, cap: int) -> int:
        out[u].append(len(heads))
        heads.append(v)
        residual.append(cap)
        out[v].append(len(heads))
        heads.append(u)
        residual.append(0)
        return len(heads) - 2

    def push(*arcs: int) -> None:
        for arc in arcs:
            residual[arc] -= 1
            residual[arc ^ 1] += 1

    supply = add(source, gate, graph.size_cap)
    entry = {a: add(gate, agent_node[a], 1) for a in agents}
    edge_arcs = [(a, add(agent_node[a], category_node[c], 1), c) for a, c in sorted(edges)]
    exit_arc = {c: add(category_node[c], sink, graph.capacities[c]) for c in categories}

    total = 0
    for a, arc, c in edge_arcs:
        if residual[supply] and residual[entry[a]] and residual[exit_arc[c]]:
            push(supply, entry[a], arc, exit_arc[c])
            total += 1

    while True:
        via = [-1] * (sink + 1)  # arc each node was reached by; -1 while unreached
        via[source] = supply  # any arc: marks the source reached
        queue = [source]
        for u in queue:  # grows while it is walked
            for arc in out[u]:
                v = heads[arc]
                if residual[arc] > 0 and via[v] < 0:
                    via[v] = arc
                    queue.append(v)
            if via[sink] >= 0:
                break
        if via[sink] < 0:
            return total
        path = []
        node = sink
        while node != source:
            path.append(via[node])
            node = heads[via[node] ^ 1]
        push(*path)
        total += 1


def wasted_slots(instance: Instance, alloc: Allocation, model2: bool = False) -> tuple[tuple[str, str, int], ...]:
    """(agent, category, day) triples that could be added outright.

    Empty means the allocation is non-wasteful: nobody eligible and available
    is left out while supply and quotas have room.
    """
    used_day: dict[int, int] = defaultdict(int)
    used_cat_day: dict[tuple[str, int], int] = defaultdict(int)
    used_cat: dict[str, int] = defaultdict(int)
    for _a, cat_id, day in alloc.matched():
        used_day[day] += 1
        used_cat_day[(cat_id, day)] += 1
        used_cat[cat_id] += 1

    additions: list[tuple[str, str, int]] = []
    for agent in instance.agents:
        if alloc.slot_of(agent.id) is not None:
            continue
        for day in range(1, instance.num_days + 1):
            if not agent.availability[day - 1]:
                continue
            if used_day[day] >= instance.daily_supply[day - 1]:
                continue
            for category in instance.categories:
                if category.id not in agent.eligible:
                    continue
                if used_cat_day[(category.id, day)] >= category.daily_quota[day - 1]:
                    continue
                if model2 and category.overall_quota is not None and used_cat[category.id] >= category.overall_quota:
                    continue
                additions.append((agent.id, category.id, day))
    return tuple(additions)

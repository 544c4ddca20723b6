"""Verification and measurement machinery.

This module certifies, on concrete instances, the guarantees the allocators
are designed around:

* the ratio of the offline optimum to an online run, checked against the
  worst-case bound of the instance's model;
* a charge certificate pairing every offline-matched agent with an
  online-matched one at a bounded utility ratio, found as one injective
  matching of the offline-matched agents to same-day and, with overall
  quotas, overflow slots of online-matched ones;
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
from typing import Container, Iterable, Mapping

from .model import Allocation, Instance, TieBreak, UtilityScale, overall_quotas, total_utility, utility_scale
from .offline import ORACLE_BUDGET, solve_exact_oracle, solve_offline_model1
from . import online
from .online import DayGraph

# Not called here. ``perfbench/spans.py`` wraps this name on this module to
# count online runs, so the import stays until the tracer stops asking for it.
from .online import run_online  # noqa: F401


# ---------------------------------------------------------------------------
# Competitive ratio


def model1_bound(instance: Instance) -> Fraction:
    """Worst-case offline/online ratio when categories have daily quotas only."""
    return 1 + instance.discount


def model2_bound(instance: Instance) -> Fraction:
    """Worst-case ratio with overall quotas: 1 + d + (max/min priority) * d."""
    return 1 + instance.discount + instance.priority_spread() * instance.discount


def offline_optimum(instance: Instance, budget: int = ORACLE_BUDGET) -> Allocation:
    """The offline side every ratio is taken against: the flow optimum, or
    in model 2 (:func:`~rationd.model.overall_quotas`) the exhaustive
    oracle, which raises :class:`~rationd.offline.OracleBudgetExceeded` past
    ``budget``."""
    if overall_quotas(instance):
        return solve_exact_oracle(instance, budget=budget)
    return solve_offline_model1(instance)


@dataclass(frozen=True)
class RatioCheck:
    """Offline utility ``opt`` against online utility ``alg`` under the
    worst-case ``bound`` of the instance's model."""

    opt: Fraction
    alg: Fraction
    bound: Fraction

    @property
    def ratio(self) -> Fraction | None:
        """``opt / alg``; 1 when both are 0, None when only ``alg`` is."""
        return self.opt / self.alg if self.alg else None if self.opt else Fraction(1)

    @property
    def holds(self) -> bool:
        return self.opt <= self.bound * self.alg


def ratio_check(instance: Instance, online_alloc: Allocation, offline_alloc: Allocation) -> RatioCheck:
    """``offline_alloc``'s utility against ``online_alloc``'s, under
    :func:`model2_bound` if some category has an overall quota, else :func:`model1_bound`."""
    bound = model2_bound(instance) if overall_quotas(instance) else model1_bound(instance)
    return RatioCheck(total_utility(instance, offline_alloc), total_utility(instance, online_alloc), bound)


def _misplaced(instance: Instance, alloc: Allocation, agents: Container[str], categories: Container[str]) -> str | None:
    """What the first matched entry of ``alloc`` names that ``instance``
    lacks: an agent not in ``agents``, a category not in ``categories`` or a
    day outside 1..num_days. None when every entry fits."""
    for agent_id, cat_id, day in alloc.matched():
        if agent_id not in agents:
            return f"allocation names unknown agent {agent_id!r}"
        if cat_id not in categories:
            return f"agent {agent_id!r} matched under unknown category {cat_id!r}"
        if not 1 <= day <= instance.num_days:
            return f"agent {agent_id!r} matched on day {day}, outside 1..{instance.num_days}"
    return None


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
    kind, and factors respect 1 / discount / spread*discount. Each charge's
    exact identity ``factor * online utility of target == offline utility
    of charger`` is part of the certificate; summed over the charges, it
    gives the offline utility.

    Why the charges exist. Agents the online run served on an earlier day
    than offline (``type1_agents``) charge themselves at ``discount**gap``.
    The other agents offline serves on day j were still waiting online on
    day j and available then, so they are online candidates of that day.
    The online day matching is the greedy basis of a truncated transversal
    matroid over those candidates, and with daily quotas only the offline
    agents form an independent set of the same matroid. A greedy basis
    dominates every independent set by priority: it has an injection from
    the set into itself that never lowers the priority. So each of them has
    its own same-day target of at least its priority, at factor at most 1.
    With overall quotas, an offline agent may sit in a category the online
    run has used up by the end of day j; it then charges an agent served
    online under that category on an earlier day, at factor at most
    spread*discount. :func:`build_charging_report` finds all of these in one
    matching, and the checks above are made again independently of it.
    """

    charges: tuple[Charge, ...]
    failure_day: int | None = None
    failure_reason: str | None = None

    @property
    def bound_certified(self) -> bool:
        return self.failure_reason is None

    @property
    def type1_agents(self) -> frozenset[str]:
        return frozenset(c.charger for c in self.charges if c.kind == DELAYED_SELF)

    @property
    def per_target_load(self) -> dict[str, tuple[Fraction, ...]]:
        """Each target's factors, in charge order."""
        loads: dict[str, list[Fraction]] = defaultdict(list)
        for charge in self.charges:
            loads[charge.target].append(charge.factor)
        return {t: tuple(fs) for t, fs in loads.items()}


def build_charging_report(
    instance: Instance,
    online_alloc: Allocation,
    offline_alloc: Allocation,
    model2: bool | None = None,
) -> ChargingReport:
    """Assign every offline-matched agent a unique online-matched target.

    Agents served earlier online than offline charge themselves with the
    exact discount gap. Every other offline-matched agent is a charger. In
    order of offline day, then priority descending, one matching seats the
    chargers on buckets of interchangeable targets (see
    :class:`ChargingReport` for why they suffice), each seating as many
    chargers as it has members:

    * ``(SAME_DAY, day, key)``, the agents matched online on ``day`` with
      priority key ``key``: open to the chargers of that offline day with
      at most that key;
    * ``(OVERFLOW, category, day)``, the agents matched online on ``day``
      under a capped ``category``: open to its chargers of later days once
      the online run has used up its overall quota by the end of theirs.

    A charger seated on its own same-day bucket charges itself, and the
    others take their bucket's remaining members in allocation order. A
    charger left without a seat makes the report uncertified, with its day
    as the witness. So does, with no day, the first entry of either
    allocation that names an agent, category or day the instance lacks.
    Failures are reported, never raised.
    """
    capped = overall_quotas(instance, model2)
    scale = utility_scale(instance)
    key = scale.keys
    cat_ids = {c.id for c in instance.categories}
    for side, alloc in (("online", online_alloc), ("offline", offline_alloc)):
        reason = _misplaced(instance, alloc, key, cat_ids)
        if reason is not None:
            return ChargingReport((), failure_reason=f"{side} {reason}")

    members: dict[tuple, list[str]] = defaultdict(list)
    for agent_id, cat_id, day in online_alloc.matched():
        members[(SAME_DAY, day, key[agent_id])].append(agent_id)
        if cat_id in capped:
            members[(OVERFLOW, cat_id, day)].append(agent_id)
    # Each day's same-day buckets by key, each category's overflow by day.
    groups: dict[tuple, list[tuple]] = defaultdict(list)
    for bucket in sorted(members):
        groups[bucket[:2]].append(bucket)

    charges: list[Charge] = []
    chargers: list[tuple[int, str, str]] = []  # (offline day, agent, offline category)
    for agent_id, cat_id, day in offline_alloc.matched():
        online_day = online_alloc.day_of(agent_id)
        if online_day is not None and online_day < day:
            charges.append(Charge(agent_id, agent_id, instance.discount ** (day - online_day), DELAYED_SELF))
        else:
            chargers.append((day, agent_id, cat_id))
    chargers.sort(key=lambda charger: (charger[0], -key[charger[1]]))

    options: dict[str, list[tuple]] = {}
    for day, agent_id, cat_id in chargers:
        options[agent_id] = [b for b in groups[(SAME_DAY, day)] if b[2] >= key[agent_id]]
        overflow = groups[(OVERFLOW, cat_id)]
        if cat_id in capped and sum(len(members[b]) for b in overflow if b[2] <= day) >= capped[cat_id]:
            options[agent_id] += [b for b in overflow if b[2] < day]
    capacities = {bucket: len(ts) for bucket, ts in members.items()}
    seat = online._seat_greedily((a for _d, a, _c in chargers), options, capacities, len(chargers))[0]

    selves = {a for d, a, _c in chargers if seat.get(a) == (SAME_DAY, d, key[a]) and online_alloc.day_of(a) == d}
    spare = {b: iter([t for t in ts if b[0] == OVERFLOW or t not in selves]) for b, ts in members.items()}
    for day, agent_id, _cat in chargers:
        bucket = seat.get(agent_id)
        if bucket is None:
            return ChargingReport(tuple(charges), day, f"no online target left for {agent_id!r}, offline-matched on day {day}")
        target = agent_id if agent_id in selves else next(spare[bucket])
        factor = Fraction(key[agent_id], key[target])
        if bucket[0] == OVERFLOW:
            factor *= instance.discount ** (day - bucket[2])
        charges.append(Charge(agent_id, target, factor, bucket[0]))
    return _certify(instance, scale, online_alloc, offline_alloc, charges, capped)


def _certify(
    instance: Instance,
    scale: UtilityScale,
    online_alloc: Allocation,
    offline_alloc: Allocation,
    charges: list[Charge],
    capped: Mapping[str, int],
) -> ChargingReport:
    def refused(reason: str) -> ChargingReport:
        return ChargingReport(tuple(charges), failure_reason=reason)

    # Each kind's factor limit as integers (top, bottom): 1, the discount
    # x/y, and the priority spread times it, (max key * x) / (min key * y).
    x, y = instance.discount.numerator, instance.discount.denominator
    keys = scale.keys.values()
    limit = {SAME_DAY: (1, 1), DELAYED_SELF: (x, y), OVERFLOW: (max(keys, default=1) * x, min(keys, default=1) * y)}
    online_day = {a: d for a, _c, d in online_alloc.matched()}
    offline_slot = {a: (c, d) for a, c, d in offline_alloc.matched()}

    kinds_per_target: dict[str, list[str]] = defaultdict(list)
    for charge in charges:
        kinds_per_target[charge.target].append(charge.kind)

    if sorted(c.charger for c in charges) != sorted(offline_slot):
        return refused("chargers do not cover the offline-matched agents exactly once")
    for charge in charges:
        if charge.target not in online_day:
            return refused(f"target {charge.target!r} is not online-matched")
        if charge.kind == OVERFLOW and offline_slot[charge.charger][0] not in capped:
            return refused(f"overflow charge of {charge.charger!r} under an uncapped category")
        top, bottom = limit[charge.kind]
        if charge.factor.numerator * bottom > top * charge.factor.denominator:
            pair = f"{charge.charger!r} -> {charge.target!r}"
            return refused(f"{charge.kind} factor {charge.factor} of {pair} exceeds {Fraction(top, bottom)}")
    for target, kinds in kinds_per_target.items():
        if len(kinds) != len(set(kinds)):
            return refused(f"target {target!r} carries repeated charge kinds {kinds}")

    # Each factor carries its target's online utility to its charger's
    # offline utility exactly; summed, they reconstruct the offline utility.
    for charge in charges:
        carried = charge.factor.numerator * scale.utility(charge.target, online_day[charge.target])
        if carried != charge.factor.denominator * scale.utility(charge.charger, offline_slot[charge.charger][1]):
            pair = f"{charge.charger!r} -> {charge.target!r}"
            return refused(f"{charge.kind} factor {charge.factor} of {pair} is not their utility ratio")
    return ChargingReport(tuple(charges))


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
    def strategyproof(self) -> bool:
        return self.witness_day is None


def availability_deviation_report(
    instance: Instance,
    agent_id: str,
    model2: bool | None = None,
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
    ranking, remaining = online._ranking(instance, tie_break), overall_quotas(instance, model2)
    position = dict(zip(ranking.order, range(len(ranking.order))))
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


def check_group_labels(labels: Iterable[str]) -> None:
    """Raise ValueError naming the first of ``labels`` that cannot name a
    coverage-metrics group: "all" names the aggregate row, and a CSV row
    cannot hold a comma or a newline."""
    for label in labels:
        if label == "all":
            raise ValueError(f"group label {label!r} is reserved for the aggregate row")
        if "," in label or "\n" in label:
            raise ValueError(f"group label {label!r} cannot be written to CSV")


def compute_metrics(instance: Instance, alloc: Allocation) -> MetricsSeries:
    """Reachable vs. served counts by day and priority group.

    An agent is reachable on day ``j`` once available on some day ``<= j``
    on which an eligible category had capacity left (daily quota, clipped by
    the overall quota remaining under this very allocation). Unlabelled
    agents count toward "all" only. Raises ValueError for a label that
    :func:`check_group_labels` refuses, and naming the first matched entry
    of ``alloc`` whose agent, category or day the instance lacks.
    """
    labels = sorted({a.group for a in instance.agents if a.group is not None})
    check_group_labels(labels)
    reason = _misplaced(instance, alloc, instance.agent_map(), {c.id for c in instance.categories})
    if reason is not None:
        raise ValueError(reason)

    # The categories open on each day: a daily quota above 0 and, if capped,
    # overall quota left under this allocation at the start of the day.
    left = overall_quotas(instance)
    used_on = [dict.fromkeys((c.id for c in instance.categories), 0) for _ in range(instance.num_days)]
    for _a, cat_id, day in alloc.matched():
        used_on[day - 1][cat_id] += 1
    open_on: list[frozenset[str]] = []
    for day, used in enumerate(used_on):
        open_on.append(
            frozenset(c.id for c in instance.categories if c.daily_quota[day] > 0 and (c.id not in left or left[c.id] > 0))
        )
        for cat_id in left:
            left[cat_id] -= used[cat_id]

    # Per row and day: agents first reachable, agents matched, and their
    # utility times scale.scale.
    scale = utility_scale(instance)
    rows = labels + ["all"]
    per_day = {label: [[0, 0, 0] for _ in range(instance.num_days + 1)] for label in rows}
    for agent in instance.agents:
        first = next(
            (d for d, cats in enumerate(open_on, start=1) if agent.availability[d - 1] and not cats.isdisjoint(agent.eligible)),
            None,
        )
        matched_day = alloc.day_of(agent.id)
        for label in ("all",) if agent.group is None else (agent.group, "all"):
            if first is not None:
                per_day[label][first][0] += 1
            if matched_day is not None:
                per_day[label][matched_day][1] += 1
                per_day[label][matched_day][2] += scale.utility(agent.id, matched_day)

    days: list[dict[str, GroupDayStats]] = [{} for _ in range(instance.num_days)]
    for label in rows:
        reachable = served = value = 0
        for day, (reached, today, gained) in enumerate(per_day[label][1:], start=1):
            reachable += reached
            served += today
            value += gained
            fraction = Fraction(0) if reachable == 0 else 1 - Fraction(served, reachable)
            days[day - 1][label] = GroupDayStats(reachable, served, fraction, today, Fraction(value, scale.scale))
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


def wasted_slots(instance: Instance, alloc: Allocation, model2: bool | None = None) -> tuple[tuple[str, str, int], ...]:
    """(agent, category, day) triples that could be added outright.

    Empty means the allocation is non-wasteful: nobody eligible and available
    is left out while supply and quotas have room. Raises ValueError naming
    the first matched entry of ``alloc`` whose agent, category or day the
    instance lacks.
    """
    capped = overall_quotas(instance, model2)
    reason = _misplaced(instance, alloc, instance.agent_map(), {c.id for c in instance.categories})
    if reason is not None:
        raise ValueError(reason)
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
                if category.id in capped and used_cat[category.id] >= capped[category.id]:
                    continue
                additions.append((agent.id, category.id, day))
    return tuple(additions)

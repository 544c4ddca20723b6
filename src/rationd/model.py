"""Problem domain: instances, allocations, feasibility checks and utilities.

An instance describes a rationing horizon: agents with priorities and
day-by-day availability, categories with per-day quotas (and optionally an
overall quota), a per-day supply, and a multiplicative discount applied to
the value of later allocations. An allocation maps every agent either to a
(category, day) slot or to ``None`` (unmatched). All numeric quantities that
enter comparisons are exact ``fractions.Fraction`` values; nothing in this
package rounds.

Days are 1-based throughout: matching on day 1 is undiscounted, day ``j``
is worth ``priority * discount**(j - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Container, Iterable, Iterator, Mapping, Optional

# (category id, 1-based day) for matched agents, None for unmatched.
Slot = Optional[tuple[str, int]]


@dataclass(frozen=True, slots=True)
class Agent:
    """One participant. ``priority`` must be a Fraction strictly between 0 and 1."""

    id: str
    priority: Fraction
    availability: tuple[bool, ...]
    eligible: frozenset[str]
    group: str | None = None


@dataclass(frozen=True, slots=True)
class Category:
    """A rationing channel with a per-day quota vector.

    ``overall_quota`` caps the total across all days; leaving it ``None``
    means the category is only day-constrained, in either model. An instance
    is in model 2 when some category carries an overall quota
    (:func:`overall_quotas`).
    """

    id: str
    daily_quota: tuple[int, ...]
    overall_quota: int | None = None


@dataclass(frozen=True, slots=True)
class Instance:
    """A rationing horizon, well-formed by construction: building one, by
    ``dataclasses.replace`` too, runs :func:`validate_instance`. The fields
    are immutable as typed, so nothing checks an instance again."""

    agents: tuple[Agent, ...]
    categories: tuple[Category, ...]
    num_days: int
    daily_supply: tuple[int, ...]
    discount: Fraction

    def __post_init__(self) -> None:
        report = validate_instance(self)
        if not report.ok:
            raise MalformedInstance(report)

    def agent_map(self) -> dict[str, Agent]:
        return {a.id: a for a in self.agents}

    def category_map(self) -> dict[str, Category]:
        return {c.id: c for c in self.categories}

    def agent_order(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    def priority_spread(self) -> Fraction:
        """max/min priority ratio across agents; 1 for the empty instance."""
        if not self.agents:
            return Fraction(1)
        priorities = [a.priority for a in self.agents]
        return max(priorities) / min(priorities)


class ModelMismatch(ValueError):
    """An explicit ``model2`` that disagrees with the instance's overall quotas."""


def overall_quotas(instance: Instance, model2: bool | None = None) -> dict[str, int]:
    """The capped categories of ``instance``, each with its overall quota.

    This is the model rule every entry point reads: a category without an
    overall quota is uncapped, and the instance is in model 2 exactly when
    some category is capped (the dict is non-empty). ``model2``, when given,
    decides nothing; raises :class:`ModelMismatch` when it disagrees.
    """
    quotas = {c.id: c.overall_quota for c in instance.categories if c.overall_quota is not None}
    if model2 is not None and model2 != bool(quotas):
        if quotas:
            raise ModelMismatch(f"model 1 was asked for, but categories {list(quotas)} carry overall quotas (model 2)")
        raise ModelMismatch("model 2 was asked for, but no category carries an overall quota (model 1)")
    return quotas


@dataclass(frozen=True, slots=True)
class TieBreakOrder:
    """Agent precedence: position 0 is served first when utility ties."""

    order: tuple[str, ...]


# None (instance order), "adversarial" (reversed instance order), or an
# explicit order; :func:`precedence` resolves it.
TieBreak = TieBreakOrder | str | None


def precedence(instance: Instance, tie_break: TieBreak) -> tuple[str, ...]:
    """The agent precedence, first served first, that every solver reads
    ``tie_break`` as. Raises ValueError for an order that is not a
    permutation of the agents and for any other kind of value."""
    if tie_break is None:
        return instance.agent_order()
    if tie_break == "adversarial":
        return tuple(reversed(instance.agent_order()))
    if not isinstance(tie_break, TieBreakOrder):
        raise ValueError(f"unknown tie-break mode {tie_break!r} (expected 'adversarial' or a TieBreakOrder)")
    if sorted(tie_break.order) != sorted(instance.agent_order()):
        raise ValueError("tie-break order must be a permutation of the instance's agent ids")
    return tie_break.order


def priority_keys(instance: Instance) -> tuple[int, dict[str, int]]:
    """The priorities' common denominator, and each agent's priority as an
    integer over it, so priorities compare without rational arithmetic."""
    denominator = math.lcm(*(a.priority.denominator for a in instance.agents))
    return denominator, {a.id: a.priority.numerator * (denominator // a.priority.denominator) for a in instance.agents}


@dataclass(frozen=True, slots=True)
class UtilityScale:
    """Every agent-day utility as an integer over one common denominator.

    With priorities ``K_a / D`` (:func:`priority_keys`) and the discount
    ``x / y`` over ``T`` days, ``scale`` is ``D * y**(T - 1)``, and the
    utility of agent ``a`` on day ``d``, times ``scale``, is ``keys[a]``
    (``K_a``) times ``levels[d - 1]`` (``x**(d - 1) * y**(T - d)``)."""

    scale: int
    keys: Mapping[str, int]
    levels: tuple[int, ...]

    def utility(self, agent_id: str, day: int) -> int:
        """``scale`` times the utility of matching ``agent_id`` on 1-based ``day``."""
        if not 1 <= day <= len(self.levels):
            raise ValueError(f"day {day} is outside 1..{len(self.levels)}")
        return self.keys[agent_id] * self.levels[day - 1]


def utility_scale(instance: Instance) -> UtilityScale:
    """The :class:`UtilityScale` of ``instance``, in closed form."""
    denominator, keys = priority_keys(instance)
    x, y, days = instance.discount.numerator, instance.discount.denominator, instance.num_days
    levels = tuple(x ** (d - 1) * y ** (days - d) for d in range(1, days + 1))
    return UtilityScale(denominator * y ** max(days - 1, 0), keys, levels)


@dataclass(frozen=True, slots=True)
class Allocation:
    """A (partial) assignment of agents to (category, day) slots.

    Every agent of the instance appears as a key; unmatched agents map to
    ``None`` explicitly so files round-trip the full agent universe.
    """

    assignment: Mapping[str, Slot]

    def matched(self) -> Iterator[tuple[str, str, int]]:
        """Yield (agent id, category id, day) for matched agents, in key order."""
        for agent_id, slot in self.assignment.items():
            if slot is not None:
                yield agent_id, slot[0], slot[1]

    def matched_count(self) -> int:
        return sum(1 for slot in self.assignment.values() if slot is not None)

    def day_of(self, agent_id: str) -> int | None:
        slot = self.assignment.get(agent_id)
        return None if slot is None else slot[1]

    def slot_of(self, agent_id: str) -> Slot:
        return self.assignment.get(agent_id)

    @staticmethod
    def empty(instance: Instance) -> "Allocation":
        return Allocation({a.id: None for a in instance.agents})


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    subjects: tuple[str, ...]
    message: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set[str]:
        return {v.kind for v in self.violations}


class MalformedInstance(ValueError):
    """An instance that :func:`validate_instance` flags; ``report`` holds
    every problem, and the message names the first."""

    def __init__(self, report: ValidationReport) -> None:
        first = report.violations[0]
        super().__init__(f"instance is not well-formed ({len(report.violations)} problems; first: {first.message})")
        self.report = report

    def __reduce__(self):
        return type(self), (self.report,)


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def shown(value: object) -> str:
    """``value`` for an error message: a Fraction as ``p/q``, anything else
    by its ``repr``. A number with more digits than Python prints (4,300 by
    default) is described instead."""
    try:
        return str(value) if isinstance(value, Fraction) else repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _unit_interval_problem(value: object, rule: str) -> str | None:
    """What is wrong with ``value`` as a Fraction strictly between 0 and 1,
    ``rule`` wording the range, or None. A Fraction (normalized, so its
    denominator is positive) or an int is checked on its integer parts."""
    if not isinstance(value, (Fraction, int)):
        return f"must be an exact Fraction, got {shown(value)} ({type(value).__name__})"
    return None if 0 < value.numerator < value.denominator else f"{rule}, got {shown(value)}"


def validate_instance(instance: Instance) -> ValidationReport:
    """Report every structural problem of an instance; empty report == well-formed.

    Nothing is raised: this is the report :class:`Instance` runs at
    construction, so every instance that exists has an empty one.
    """
    bad: list[Violation] = []

    def flag(kind: str, subjects: tuple[str, ...], message: str) -> None:
        bad.append(Violation(kind, subjects, message))

    if not _is_count(instance.num_days) or instance.num_days < 1:
        flag("structure", (), f"num_days must be a positive integer, got {shown(instance.num_days)}")
    if len(instance.daily_supply) != instance.num_days:
        flag(
            "structure",
            (),
            f"daily_supply has length {len(instance.daily_supply)}, expected {shown(instance.num_days)}",
        )
    for day, supply in enumerate(instance.daily_supply, start=1):
        if not _is_count(supply):
            flag("structure", (str(day),), f"daily supply for day {day} must be a non-negative integer")
    if problem := _unit_interval_problem(instance.discount, "must lie strictly between 0 and 1"):
        flag("discount", (), f"discount {problem}")

    seen_categories: set[str] = set()
    for category in instance.categories:
        if category.id in seen_categories:
            flag("duplicate", (category.id,), f"duplicate category id {category.id!r}")
        seen_categories.add(category.id)
        if len(category.daily_quota) != instance.num_days:
            flag(
                "structure",
                (category.id,),
                f"category {category.id!r} has {len(category.daily_quota)} daily quotas, expected {shown(instance.num_days)}",
            )
        if any(not _is_count(q) for q in category.daily_quota):
            flag("structure", (category.id,), f"category {category.id!r} has a negative or non-integer daily quota")
        if category.overall_quota is not None and not _is_count(category.overall_quota):
            flag(
                "overall_quota",
                (category.id,),
                f"category {category.id!r} overall quota must be a non-negative integer",
            )

    seen_agents: set[str] = set()
    for agent in instance.agents:
        if agent.id in seen_agents:
            flag("duplicate", (agent.id,), f"duplicate agent id {agent.id!r}")
        seen_agents.add(agent.id)
        if len(agent.availability) != instance.num_days:
            flag(
                "availability",
                (agent.id,),
                f"agent {agent.id!r} has an availability vector of length {len(agent.availability)}, expected {shown(instance.num_days)}",
            )
        if problem := _unit_interval_problem(agent.priority, "must lie strictly in (0, 1)"):
            flag("priority", (agent.id,), f"agent {agent.id!r} priority {problem}")
        if not isinstance(agent.eligible, frozenset):
            flag("eligibility", (agent.id,), f"agent {agent.id!r} eligible categories must be a frozenset, got {type(agent.eligible).__name__}")
        elif not agent.eligible <= seen_categories:
            for cat_id in sorted(agent.eligible - seen_categories):
                flag("eligibility", (agent.id, cat_id), f"agent {agent.id!r} is eligible for unknown category {cat_id!r}")

    return ValidationReport(tuple(bad))


def utility_of(priority: Fraction, day_index: int, discount: Fraction) -> Fraction:
    """Value of matching an agent of the given priority on a 1-based day."""
    if day_index < 1:
        raise ValueError(f"day_index is 1-based and must be >= 1, got {day_index}")
    return priority * discount ** (day_index - 1)


def _misplacement(num_days: int, agents: Container[str], categories: Container[str], agent_id: str, cat_id: str, day: int) -> Violation | None:
    """The one rule for what a matched entry may name: the violation it makes, or None when it fits."""
    if agent_id not in agents:
        return Violation("unknown_agent", (agent_id,), f"allocation names unknown agent {agent_id!r}")
    if cat_id not in categories:
        return Violation("unknown_category", (agent_id, cat_id), f"agent {agent_id!r} matched under unknown category {cat_id!r}")
    if not 1 <= day <= num_days:
        return Violation("structure", (agent_id,), f"agent {agent_id!r} matched on day {day}, outside 1..{num_days}")
    return None


def first_misplaced(instance: Instance, alloc: Allocation) -> str | None:
    """What the first matched entry of ``alloc`` names that ``instance`` lacks,
    worded as :func:`check_allocation` words it; None when every entry fits."""
    agents, categories = {a.id for a in instance.agents}, {c.id for c in instance.categories}
    for entry in alloc.matched():
        if (violation := _misplacement(instance.num_days, agents, categories, *entry)) is not None:
            return violation.message
    return None


def units_used(entries: Iterable[tuple[str, str, int]]) -> tuple[dict[int, int], dict[tuple[str, int], int], dict[str, int]]:
    """The matched (agent, category, day) ``entries`` counted per day, per slot and per category."""
    per_day, per_slot, per_category = {}, {}, {}
    for _agent_id, cat_id, day in entries:
        per_day[day] = per_day.get(day, 0) + 1
        per_slot[cat_id, day] = per_slot.get((cat_id, day), 0) + 1
        per_category[cat_id] = per_category.get(cat_id, 0) + 1
    return per_day, per_slot, per_category


def check_allocation(instance: Instance, alloc: Allocation, model2: bool | None = None) -> ValidationReport:
    """Verify an allocation against supply, quota, availability and eligibility.

    The overall quotas of :func:`overall_quotas` are enforced as well; a
    category without one is uncapped. All violations are reported; nothing
    is raised but :class:`ModelMismatch` for a ``model2`` that disagrees with
    the instance.
    """
    capped = overall_quotas(instance, model2)
    bad: list[Violation] = []
    agents = instance.agent_map()
    categories = instance.category_map()

    placed: list[tuple[str, str, int]] = []
    for agent_id, cat_id, day in alloc.matched():
        if (misplaced := _misplacement(instance.num_days, agents, categories, agent_id, cat_id, day)) is not None:
            bad.append(misplaced)
            continue
        agent = agents[agent_id]
        if not agent.availability[day - 1]:
            bad.append(Violation("availability", (agent_id,), f"agent {agent_id!r} matched on day {day} but is unavailable then"))
        if cat_id not in agent.eligible:
            bad.append(Violation("eligibility", (agent_id, cat_id), f"agent {agent_id!r} is not eligible for category {cat_id!r}"))
        placed.append((agent_id, cat_id, day))
    used_per_day, used_per_cat_day, used_per_cat = units_used(placed)

    for day, used in sorted(used_per_day.items()):
        if used > instance.daily_supply[day - 1]:
            bad.append(
                Violation(
                    "supply",
                    (str(day),),
                    f"day {day} serves {used} agents but supply is {instance.daily_supply[day - 1]}",
                )
            )
    for (cat_id, day), used in sorted(used_per_cat_day.items()):
        quota = categories[cat_id].daily_quota[day - 1]
        if used > quota:
            bad.append(
                Violation(
                    "daily_quota",
                    (cat_id, str(day)),
                    f"category {cat_id!r} serves {used} agents on day {day} but its quota is {quota}",
                )
            )
    for cat_id, used in sorted(used_per_cat.items()):
        if cat_id in capped and used > capped[cat_id]:
            bad.append(
                Violation(
                    "overall_quota",
                    (cat_id,),
                    f"category {cat_id!r} serves {used} agents in total but its overall quota is {capped[cat_id]}",
                )
            )

    return ValidationReport(tuple(bad))


def total_utility(instance: Instance, alloc: Allocation) -> Fraction:
    """Sum of discounted priorities over matched agents.

    The allocation is assumed feasible; run :func:`check_allocation` first
    when in doubt. Raises ValueError naming the first entry whose agent or
    day the instance lacks; the category is not read.
    """
    scale = utility_scale(instance)
    try:
        total = sum(scale.utility(agent_id, day) for agent_id, _cat, day in alloc.matched())
    except (KeyError, ValueError):
        # Utility does not read the category, so each entry's own passes.
        found = (_misplacement(instance.num_days, scale.keys, (c,), a, c, d) for a, c, d in alloc.matched())
        raise ValueError(next(violation.message for violation in found if violation is not None)) from None
    return Fraction(total, scale.scale)

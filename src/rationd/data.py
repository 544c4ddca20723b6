"""Instance and allocation files, the synthetic instance generator, and
metric export.

File formats are schema-versioned JSON documents. Rationals travel as
strings: an exact decimal when the denominator divides a power of ten
("0.95"), the plain fraction otherwise ("1/3"); parsing is exact either way.
Writing is deterministic, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from itertools import accumulate
from typing import Any

from .analysis import MetricsSeries, check_group_labels
from .model import Agent, Allocation, Category, Instance, shown

SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """A document failed to parse; the message names the offending field."""


# ---------------------------------------------------------------------------
# Exact rational <-> string


@lru_cache(maxsize=256)
def _decimal_places(den: int) -> int | None:
    """How many decimal places 1/den takes (den = 2^a 5^b), or None when
    its decimal does not end. Cached: an instance uses a few denominators."""
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    return max(twos, fives) if rest == 1 else None


def format_rational(value: Fraction) -> str:
    """Shortest exact decimal if one exists, else "numerator/denominator"."""
    num, den = value.numerator, value.denominator
    places = _decimal_places(den)
    if places is None:
        return f"{num}/{den}"
    if places == 0:
        return str(num)
    digits = str(abs(num) * 10**places // den).rjust(places + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


# Largest decimal exponent a rational string may carry. Fraction("1e1000000000")
# would build a billion-digit power of ten; this bound matches Python's
# default limit on the digits of an integer read from a string.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def parse_rational(text: object, where: str) -> Fraction:
    if isinstance(text, bool) or not isinstance(text, (str, int)):
        raise DataFormatError(f"{where}: expected a rational encoded as a string, got {shown(text)}")
    try:
        text = str(text)
        exponent = _EXPONENT.search(text)
        if exponent is not None:
            digits = exponent.group(1).replace("_", "").lstrip("0")
            if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
                raise ValueError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DataFormatError(f"{where}: cannot parse rational {shown(text)}: {exc}") from None


# ---------------------------------------------------------------------------
# Instance documents


def _name(value: Any, where: str) -> str:
    """An id or label as text: a string, or a JSON number read by its digits.
    Booleans, null, lists and objects are refused."""
    if isinstance(value, str):
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return str(value)
        except ValueError:  # an integer past the interpreter's digit limit
            pass
    raise DataFormatError(f"{where}: {shown(value)} cannot be used as a name")


def _expect(document: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in document:
        raise DataFormatError(f"{where}: missing field {key!r}")
    return document[key]


# A 0/1 flag: JSON 0 or 1, or a value equal to one of them (true, false, 1.0).
_FLAGS = frozenset((0, 1))


def _is_flags(value: Any) -> bool:
    """Whether ``value`` is a list of 0/1 flags."""
    if not isinstance(value, list):
        return False
    try:
        return _FLAGS.issuperset(value)
    except TypeError:  # an unhashable entry: a list or an object
        return False


def _check_version(document: Mapping[str, Any], where: str) -> None:
    version = _expect(document, "schema_version", where)
    if version != SCHEMA_VERSION:
        raise DataFormatError(f"{where}: schema_version {shown(version)} is not supported (expected {SCHEMA_VERSION})")


def instance_to_document(instance: Instance, provenance: Mapping[str, Any] | None = None) -> dict[str, Any]:
    # The agents of a generated or read instance share a few priority and
    # eligible-set objects: format and sort each one once. Keys are object
    # ids, which cost nothing to hash; the instance keeps every key alive.
    priorities: dict[int, str] = {}
    eligible: dict[int, list[str]] = {}
    agents = []
    for a in instance.agents:
        priority = priorities.get(id(a.priority))
        if priority is None:
            priority = priorities[id(a.priority)] = format_rational(a.priority)
        names = eligible.get(id(a.eligible))
        if names is None:
            names = eligible[id(a.eligible)] = sorted(a.eligible)
        else:
            names = names.copy()
        agents.append(
            {
                "id": a.id,
                "priority": priority,
                "availability": [1 if bit else 0 for bit in a.availability],
                "eligible": names,
                "group": a.group,
            }
        )
    document: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": "instance",
        "discount": format_rational(instance.discount),
        "num_days": instance.num_days,
        "daily_supply": list(instance.daily_supply),
        "categories": [
            {
                "id": c.id,
                "daily_quota": list(c.daily_quota),
                "overall_quota": c.overall_quota,
            }
            for c in instance.categories
        ],
        "agents": agents,
    }
    if provenance is not None:
        document["provenance"] = dict(provenance)
    return document


def instance_from_document(document: Mapping[str, Any], where: str = "instance") -> Instance:
    if not isinstance(document, Mapping):
        raise DataFormatError(f"{where}: expected an object")
    _check_version(document, where)
    if _expect(document, "kind", where) != "instance":
        raise DataFormatError(f"{where}: kind is {shown(document['kind'])}, expected 'instance'")
    num_days = _integer(_expect(document, "num_days", where), f"{where}.num_days")
    supply = _expect(document, "daily_supply", where)
    if not isinstance(supply, list) or not all(isinstance(s, int) for s in supply):
        raise DataFormatError(f"{where}.daily_supply: expected a list of integers")
    discount = parse_rational(_expect(document, "discount", where), f"{where}.discount")

    # Inside a record, errors name the field from the record ("", ".id");
    # the record's own place is put in front only when one is raised.
    categories: list[Category] = []
    raw_categories = _expect(document, "categories", where)
    if not isinstance(raw_categories, list):
        raise DataFormatError(f"{where}.categories: expected a list")
    for i, raw in enumerate(raw_categories):
        try:
            if not isinstance(raw, Mapping):
                raise DataFormatError(": expected an object")
            quota = _expect(raw, "daily_quota", "")
            if not isinstance(quota, list) or not all(isinstance(q, int) for q in quota):
                raise DataFormatError(".daily_quota: expected a list of integers")
            overall = raw.get("overall_quota")
            if overall is not None and not isinstance(overall, int):
                raise DataFormatError(".overall_quota: expected an integer or null")
            categories.append(Category(_name(_expect(raw, "id", ""), ".id"), tuple(quota), overall))
        except DataFormatError as exc:
            raise DataFormatError(f"{where}.categories[{i}]{exc}") from None

    # Each distinct priority string is parsed once and each distinct list of
    # category names made a set once, so agents that share one share it.
    priorities: dict[str, Fraction] = {}
    eligible_sets: dict[tuple[str, ...], frozenset[str]] = {}
    agents: list[Agent] = []
    raw_agents = _expect(document, "agents", where)
    if not isinstance(raw_agents, list):
        raise DataFormatError(f"{where}.agents: expected a list")
    for i, raw in enumerate(raw_agents):
        try:
            if not isinstance(raw, Mapping):
                raise DataFormatError(": expected an object")
            bits = _expect(raw, "availability", "")
            if not _is_flags(bits):
                raise DataFormatError(".availability: expected a list of 0/1 flags")
            eligible = _expect(raw, "eligible", "")
            if not isinstance(eligible, list):
                raise DataFormatError(".eligible: expected a list of category ids")
            group = raw.get("group")
            if group is not None and not isinstance(group, str):
                raise DataFormatError(".group: expected a string or null")
            agent_id = _name(_expect(raw, "id", ""), ".id")
            text = _expect(raw, "priority", "")
            if not isinstance(text, str):
                priority = parse_rational(text, ".priority")
            elif (priority := priorities.get(text)) is None:
                priority = priorities[text] = parse_rational(text, ".priority")
            key = tuple(eligible)
            try:
                names = eligible_sets.get(key)
            except TypeError:  # an unhashable entry, which _name refuses
                names = None
            if names is None:
                names = frozenset(_name(e, ".eligible") for e in eligible)
                # Only lists of strings are kept: (1,) equals (True,), which
                # is refused, and (1.0,), which names "1.0".
                if all(isinstance(e, str) for e in key):
                    eligible_sets[key] = names
            agents.append(Agent(agent_id, priority, tuple(map(bool, bits)), names, group))
        except DataFormatError as exc:
            raise DataFormatError(f"{where}.agents[{i}]{exc}") from None

    return Instance(
        agents=tuple(agents),
        categories=tuple(categories),
        num_days=num_days,
        daily_supply=tuple(supply),
        discount=discount,
    )


def _write_document(document: Mapping[str, Any], path: str, records: tuple[str, ...]) -> None:
    """Write ``document`` with one line per top-level field, except that the
    fields named in ``records`` (each a list or an object) get one line per
    entry. Every piece is encoded by ``json.dumps`` with no indent, which runs
    the C encoder; ``json.dump`` always runs the pure-Python one."""
    dumps = json.dumps
    fields = []
    for key, value in document.items():
        head = f"  {dumps(key)}: "
        if key in records and isinstance(value, list) and value:
            fields.append(head + "[\n    " + ",\n    ".join([dumps(entry) for entry in value]) + "\n  ]")
        elif key in records and isinstance(value, dict) and value:
            # A one-entry object with its braces cut: keys are coerced as json.dump does.
            entries = [dumps({name: entry})[1:-1] for name, entry in value.items()]
            fields.append(head + "{\n    " + ",\n    ".join(entries) + "\n  }")
        else:
            fields.append(head + dumps(value))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(fields) + "\n}\n")


def write_instance(instance: Instance, path: str, provenance: Mapping[str, Any] | None = None) -> None:
    _write_document(instance_to_document(instance, provenance), path, ("categories", "agents"))


def _read_json(path: str) -> Any:
    """The JSON document in ``path``; text that is not UTF-8 or not JSON, an
    integer longer than Python reads (4,300 digits by default) and nesting
    deeper than the interpreter's recursion limit raise
    :class:`DataFormatError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
        except ValueError as exc:
            # Python's advice on raising the limit is cut: it names an API.
            raise DataFormatError(f"{path}: {str(exc).split(';')[0]}") from None
        except RecursionError:
            raise DataFormatError(f"{path}: nested too deeply") from None


def read_instance(path: str) -> Instance:
    return instance_from_document(_read_json(path), where=path)


# ---------------------------------------------------------------------------
# Allocation documents


def allocation_to_document(alloc: Allocation) -> dict[str, Any]:
    assignment: dict[str, Any] = {}
    for agent_id, slot in alloc.assignment.items():
        assignment[agent_id] = None if slot is None else {"category": slot[0], "day": slot[1]}
    return {"schema_version": SCHEMA_VERSION, "kind": "allocation", "assignment": assignment}


def allocation_from_document(document: Mapping[str, Any], where: str = "allocation") -> Allocation:
    if not isinstance(document, Mapping):
        raise DataFormatError(f"{where}: expected an object")
    _check_version(document, where)
    if _expect(document, "kind", where) != "allocation":
        raise DataFormatError(f"{where}: kind is {shown(document['kind'])}, expected 'allocation'")
    raw = _expect(document, "assignment", where)
    if not isinstance(raw, Mapping):
        raise DataFormatError(f"{where}.assignment: expected an object")
    assignment: dict[str, tuple[str, int] | None] = {}
    for agent_id, slot in raw.items():
        if slot is None:
            assignment[str(agent_id)] = None
            continue
        try:
            if not isinstance(slot, Mapping):
                raise DataFormatError(": expected null or an object")
            day = _integer(_expect(slot, "day", ""), ".day")
            assignment[str(agent_id)] = (_name(_expect(slot, "category", ""), ".category"), day)
        except DataFormatError as exc:
            raise DataFormatError(f"{where}.assignment[{agent_id!r}]{exc}") from None
    return Allocation(assignment)


def write_allocation(alloc: Allocation, path: str) -> None:
    _write_document(allocation_to_document(alloc), path, ("assignment",))


def read_allocation(path: str) -> Allocation:
    return allocation_from_document(_read_json(path), where=path)


# ---------------------------------------------------------------------------
# Synthetic instance generation


@dataclass(frozen=True)
class GroupSpec:
    label: str
    weight: float
    priority: Fraction


@dataclass(frozen=True)
class SupplyModel:
    """Uniform integer ranges for per-day supply and per-category-day quotas."""

    supply_low: int = 40
    supply_high: int = 80
    quota_low: int = 0
    quota_high: int = 8


DEFAULT_GROUPS = (
    GroupSpec("18-45", 0.55, Fraction(96, 100)),
    GroupSpec("45-60", 0.27, Fraction(97, 100)),
    GroupSpec("60+", 0.18, Fraction(99, 100)),
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic generator.

    Facilities are placed uniformly at random in the unit square and joined
    into a geometric graph; each facility's category serves every facility
    within ``cluster_radius_links`` hops, so nearby categories overlap. An
    agent picks a home facility uniformly and is eligible for exactly the
    categories whose cluster contains it.
    """

    num_agents: int
    num_days: int
    num_hospitals: int
    cluster_radius_links: int = 1
    availability_density: float = 0.5
    group_specs: tuple[GroupSpec, ...] = DEFAULT_GROUPS
    discount: Fraction = Fraction(95, 100)
    supply_model: SupplyModel = field(default_factory=SupplyModel)
    seed: int = 0

    def validate(self) -> None:
        if self.num_agents < 0 or self.num_days < 1 or self.num_hospitals < 1:
            raise ValueError("num_agents must be >= 0, num_days and num_hospitals >= 1")
        if self.cluster_radius_links < 0:
            raise ValueError("cluster_radius_links must be >= 0")
        if not (0.0 <= self.availability_density <= 1.0):
            raise ValueError("availability_density must lie in [0, 1]")
        if not self.group_specs:
            raise ValueError("at least one group is required")
        labels: set[str] = set()
        for spec in self.group_specs:
            if spec.label in labels:
                raise ValueError(f"group label {spec.label!r} appears more than once")
            labels.add(spec.label)
            if not 0 < spec.weight < math.inf:
                raise ValueError(f"group {spec.label!r} weight must be a finite positive number")
            if not (0 < spec.priority < 1):
                raise ValueError(f"group {spec.label!r} priority must lie strictly in (0, 1)")
        if not sum(spec.weight for spec in self.group_specs) < math.inf:
            raise ValueError("group weights must have a finite total")
        check_group_labels(spec.label for spec in self.group_specs)
        if not (0 < self.discount < 1):
            raise ValueError("discount must lie strictly in (0, 1)")
        sm = self.supply_model
        if not (0 <= sm.supply_low <= sm.supply_high and 0 <= sm.quota_low <= sm.quota_high):
            raise ValueError("supply/quota ranges must be ordered and non-negative")


def _hop_clusters(positions: list[tuple[float, float]], radius_links: int) -> list[frozenset[int]]:
    n = len(positions)
    # Connection radius chosen to keep the expected degree moderate for any
    # facility count.
    reach = min(1.0, 1.5 * math.sqrt(1.0 / max(n, 1)))
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        xi, yi = positions[i]
        for j in range(i + 1, n):
            xj, yj = positions[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= reach**2:
                neighbours[i].append(j)
                neighbours[j].append(i)
    clusters: list[frozenset[int]] = []
    for start in range(n):
        seen = {start}
        frontier = deque([(start, 0)])
        while frontier:
            node, hops = frontier.popleft()
            if hops == radius_links:
                continue
            for other in neighbours[node]:
                if other not in seen:
                    seen.add(other)
                    frontier.append((other, hops + 1))
        clusters.append(frozenset(seen))
    return clusters


def generate(config: GeneratorConfig) -> Instance:
    """Deterministically build an instance from a generator config."""
    config.validate()
    rng = random.Random(config.seed)

    positions = [(rng.random(), rng.random()) for _ in range(config.num_hospitals)]
    clusters = _hop_clusters(positions, config.cluster_radius_links)
    width = max(2, len(str(max(1, config.num_hospitals - 1))))
    cat_ids = [f"h{i:0{width}d}" for i in range(config.num_hospitals)]

    sm = config.supply_model
    categories = tuple(
        Category(
            cat_ids[i],
            tuple(rng.randint(sm.quota_low, sm.quota_high) for _ in range(config.num_days)),
            None,
        )
        for i in range(config.num_hospitals)
    )
    daily_supply = tuple(rng.randint(sm.supply_low, sm.supply_high) for _ in range(config.num_days))

    # Which categories serve a given home facility (symmetric hop distance).
    serving: list[frozenset[str]] = [frozenset(cat_ids[c] for c in cluster) for cluster in clusters]

    # choices(cum_weights=...) draws exactly as choices(weights=...), which
    # accumulates the same weights on every call.
    specs = config.group_specs
    cum_weights = list(accumulate(spec.weight for spec in specs))
    days = range(config.num_days)
    density = config.availability_density
    randrange, choices, draw = rng.randrange, rng.choices, rng.random

    agent_width = max(1, len(str(max(1, config.num_agents - 1))))
    agents = []
    for k in range(config.num_agents):
        home = randrange(config.num_hospitals)
        spec = choices(specs, cum_weights=cum_weights)[0]
        availability = tuple([draw() < density for _ in days])
        agents.append(Agent(f"a{k:0{agent_width}d}", spec.priority, availability, serving[home], spec.label))

    return Instance(
        agents=tuple(agents),
        categories=categories,
        num_days=config.num_days,
        daily_supply=daily_supply,
        discount=config.discount,
    )


def config_to_document(config: GeneratorConfig) -> dict[str, Any]:
    return {
        "num_agents": config.num_agents,
        "num_days": config.num_days,
        "num_hospitals": config.num_hospitals,
        "cluster_radius_links": config.cluster_radius_links,
        "availability_density": config.availability_density,
        "groups": [
            {"label": g.label, "weight": g.weight, "priority": format_rational(g.priority)}
            for g in config.group_specs
        ],
        "discount": format_rational(config.discount),
        "supply_model": {
            "supply_low": config.supply_model.supply_low,
            "supply_high": config.supply_model.supply_high,
            "quota_low": config.supply_model.quota_low,
            "quota_high": config.supply_model.quota_high,
        },
        "seed": config.seed,
    }


def _integer(value: Any, where: str) -> int:
    """A JSON integer; booleans and non-integral numbers are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataFormatError(f"{where}: expected int, got {shown(value)}")
    return value


def _real(value: Any, where: str) -> float:
    """A JSON number (not a boolean), as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataFormatError(f"{where}: expected float, got {shown(value)}")
    try:
        return float(value)
    except OverflowError:
        raise DataFormatError(f"{where}: {shown(value)} is out of float range") from None


def config_from_document(document: Mapping[str, Any], where: str = "config") -> GeneratorConfig:
    if not isinstance(document, Mapping):
        raise DataFormatError(f"{where}: expected an object")
    raw_groups = document.get("groups", [])
    if not isinstance(raw_groups, list):
        raise DataFormatError(f"{where}.groups: expected a list")
    groups = []
    for i, raw in enumerate(raw_groups):
        spot = f"{where}.groups[{i}]"
        if not isinstance(raw, Mapping):
            raise DataFormatError(f"{spot}: expected an object")
        groups.append(
            GroupSpec(
                label=_name(_expect(raw, "label", spot), f"{spot}.label"),
                weight=_real(_expect(raw, "weight", spot), f"{spot}.weight"),
                priority=parse_rational(_expect(raw, "priority", spot), f"{spot}.priority"),
            )
        )
    raw_sm = document.get("supply_model", {})
    if not isinstance(raw_sm, Mapping):
        raise DataFormatError(f"{where}.supply_model: expected an object")
    supply = {
        name: _integer(raw_sm.get(name, getattr(SupplyModel, name)), f"{where}.supply_model.{name}")
        for name in ("supply_low", "supply_high", "quota_low", "quota_high")
    }
    return GeneratorConfig(
        num_agents=_integer(_expect(document, "num_agents", where), f"{where}.num_agents"),
        num_days=_integer(_expect(document, "num_days", where), f"{where}.num_days"),
        num_hospitals=_integer(_expect(document, "num_hospitals", where), f"{where}.num_hospitals"),
        cluster_radius_links=_integer(document.get("cluster_radius_links", 1), f"{where}.cluster_radius_links"),
        availability_density=_real(document.get("availability_density", 0.5), f"{where}.availability_density"),
        group_specs=tuple(groups) if groups else DEFAULT_GROUPS,
        discount=parse_rational(document.get("discount", "0.95"), f"{where}.discount"),
        supply_model=SupplyModel(**supply),
        seed=_integer(document.get("seed", 0), f"{where}.seed"),
    )


def read_generator_config(path: str) -> GeneratorConfig:
    return config_from_document(_read_json(path), where=path)


# ---------------------------------------------------------------------------
# Metric export


def export_metrics(series: MetricsSeries, path: str) -> None:
    """Write the per-day, per-group coverage table as CSV.

    One row per (day, group) plus an "all" row per day; days ascending,
    group labels in lexicographic order.
    """
    check_group_labels(series.groups)
    lines = ["day,group,gamma,eta,fraction_unvaccinated,matched_today,cumulative_utility"]
    for day, row in enumerate(series.days, start=1):
        for label in sorted(row):
            stats = row[label]
            lines.append(
                ",".join(
                    [
                        str(day),
                        label,
                        str(stats.reachable),
                        str(stats.served),
                        repr(float(stats.fraction_unserved)),
                        str(stats.matched_today),
                        repr(float(stats.cumulative_utility)),
                    ]
                )
            )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Bundled worst-case fixtures


def fixture_names() -> tuple[str, ...]:
    return ("tight_model1", "tight_general")


def load_fixture(name: str) -> Instance:
    """Parse one of the bundled worst-case instances by name."""
    if name not in fixture_names():
        raise ValueError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    payload = resources.files("rationd").joinpath(f"fixtures/{name}.json").read_text(encoding="utf-8")
    return instance_from_document(json.loads(payload), where=f"fixture {name}")

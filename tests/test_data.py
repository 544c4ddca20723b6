import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rationd.data import (
    DataFormatError,
    allocation_from_document,
    allocation_to_document,
    GeneratorConfig,
    GroupSpec,
    SupplyModel,
    config_from_document,
    config_to_document,
    export_metrics,
    format_rational,
    generate,
    instance_from_document,
    instance_to_document,
    load_fixture,
    parse_rational,
    read_allocation,
    read_instance,
    write_allocation,
    write_instance,
)
from rationd.model import Allocation, MalformedInstance, validate_instance
from rationd.analysis import compute_metrics
from rationd.offline import solve_offline_model1
from rationd.online import run_online

from helpers import random_instance, tight_general, tight_model1
from test_acceptance import SCALED_CONFIG


class TestRationalStrings:
    @pytest.mark.parametrize(
        "value,text",
        [
            (Fraction(19, 20), "0.95"),
            (Fraction(1, 2), "0.5"),
            (Fraction(3), "3"),
            (Fraction(-7, 4), "-1.75"),
            (Fraction(1, 3), "1/3"),
            (Fraction(893475, 1000000), "0.893475"),
        ],
    )
    def test_round_trip(self, value, text):
        assert format_rational(value) == text
        assert parse_rational(text, "x") == value

    def test_parse_errors_name_the_spot(self):
        with pytest.raises(DataFormatError, match="agents\\[0\\].priority"):
            parse_rational("zero point five", "agents[0].priority")

    @given(num=st.integers(-10**9, 10**9), den=st.integers(1, 10**9))
    def test_any_rational_round_trips(self, num, den):
        value = Fraction(num, den)
        assert parse_rational(format_rational(value), "x") == value


class TestInstanceFiles:
    def test_round_trip_random(self, tmp_path):
        rng = random.Random(1)
        for i in range(20):
            inst = random_instance(rng, model2=bool(i % 2))
            path = tmp_path / f"inst{i}.json"
            write_instance(inst, str(path))
            assert read_instance(str(path)) == inst

    def test_missing_field_is_loud(self, tmp_path):
        document = instance_to_document(tight_model1())
        del document["daily_supply"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(document))
        with pytest.raises(DataFormatError, match="daily_supply"):
            read_instance(str(path))
        # JSON's true is an int to Python, but no day count.
        document = instance_to_document(tight_model1())
        document["num_days"] = True
        path.write_text(json.dumps(document))
        with pytest.raises(DataFormatError, match="num_days: expected int, got True"):
            read_instance(str(path))

    def test_version_mismatch_is_loud(self, tmp_path):
        document = instance_to_document(tight_model1())
        document["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(document))
        with pytest.raises(DataFormatError, match="schema_version"):
            read_instance(str(path))

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "syntax.json"
        path.write_text('{"schema_version": 1,,}')
        with pytest.raises(DataFormatError, match="line"):
            read_instance(str(path))

    def test_fixtures_parse_to_the_expected_instances(self):
        assert load_fixture("tight_model1") == tight_model1()
        assert load_fixture("tight_general") == tight_general()
        with pytest.raises(ValueError, match="unknown fixture"):
            load_fixture("nope")

    def test_provenance_is_embedded(self, tmp_path):
        config = GeneratorConfig(num_agents=5, num_days=2, num_hospitals=2, seed=3)
        inst = generate(config)
        path = tmp_path / "with_prov.json"
        write_instance(inst, str(path), provenance=config_to_document(config))
        document = json.loads(path.read_text())
        assert document["provenance"]["seed"] == 3
        assert instance_from_document(document) == inst

    def test_rationals_survive_non_decimal_priorities(self, tmp_path):
        inst = tight_model1(priority=Fraction(1, 3), discount=Fraction(2, 3))
        path = tmp_path / "thirds.json"
        write_instance(inst, str(path))
        again = read_instance(str(path))
        assert again.discount == Fraction(2, 3)
        assert again.agents[0].priority == Fraction(1, 3)


class TestNames:
    """Ids, eligible entries and allocation categories are strings or JSON
    numbers read by their digits; no other JSON value names anything."""

    @pytest.mark.parametrize("value", [None, True, False, [1], {"k": 1}], ids=repr)
    @pytest.mark.parametrize(
        "path",
        [("agents", 0, "id"), ("agents", 0, "eligible", 0), ("categories", 0, "id")],
        ids=["agent-id", "eligible-entry", "category-id"],
    )
    def test_instance_names_refuse_other_json_values(self, path, value):
        document = _replaced(instance_to_document(tight_general()), path, value)
        with pytest.raises(DataFormatError, match="cannot be used as a name"):
            instance_from_document(document)

    def test_a_null_category_does_not_match_a_null_eligible_entry(self):
        document = instance_to_document(tight_general())
        document["categories"][0]["id"] = None
        document["agents"][1]["eligible"] = [None]
        with pytest.raises(DataFormatError, match=r"categories\[0\]\.id: None cannot be used as a name"):
            instance_from_document(document)

    def test_a_number_list_read_before_is_not_reused_for_equal_values(self):
        # (True,) == (1,): the reader must not answer [true] with the set it made for [1].
        document = instance_to_document(tight_general())
        document["categories"][0]["id"] = "1"
        document["agents"][0]["eligible"] = [1]
        document["agents"][1]["eligible"] = [True]
        with pytest.raises(DataFormatError, match=r"agents\[1\]\.eligible: True cannot be used as a name"):
            instance_from_document(document)

    @pytest.mark.parametrize("value", [None, True, [1]], ids=repr)
    def test_allocation_category_refuses_other_json_values(self, value):
        document = {"schema_version": 1, "kind": "allocation", "assignment": {"a1": {"category": value, "day": 1}}}
        with pytest.raises(DataFormatError, match=r"assignment\['a1'\]\.category: .* cannot be used as a name"):
            allocation_from_document(document)

    def test_numbers_are_read_by_their_digits(self):
        document = instance_to_document(tight_general())
        document["agents"][0]["id"] = 7
        document["agents"][1]["id"] = 2.5
        assert [a.id for a in instance_from_document(document).agents[:2]] == ["7", "2.5"]


def _written_cases():
    """(writer, reader, to_document, value, extra writer args) for every
    writer test: both fixtures, a generated instance with provenance, and
    online and offline allocations that leave agents unmatched."""
    config = GeneratorConfig(
        num_agents=30,
        num_days=3,
        num_hospitals=3,
        supply_model=SupplyModel(supply_low=1, supply_high=3, quota_low=0, quota_high=2),
        seed=4,
    )
    scarce = generate(config)
    online = run_online(tight_model1(), tie_break="adversarial")
    offline = solve_offline_model1(scarce)
    assert online.matched_count() < len(online.assignment)
    assert offline.matched_count() < len(offline.assignment)
    instance = (write_instance, read_instance, instance_to_document)
    allocation = (write_allocation, read_allocation, allocation_to_document)
    return {
        "fixture-tight_model1": (*instance, load_fixture("tight_model1"), ()),
        "fixture-tight_general": (*instance, load_fixture("tight_general"), ()),
        "generated-with-provenance": (*instance, scarce, (config_to_document(config),)),
        "online-allocation": (*allocation, online, ()),
        "offline-allocation": (*allocation, offline, ()),
    }


WRITTEN = _written_cases()


class TestWriters:
    @pytest.mark.parametrize("case", sorted(WRITTEN))
    def test_written_file_is_the_document_one_line_per_record(self, tmp_path, case):
        write, read, to_document, value, extra = WRITTEN[case]
        path = tmp_path / "out.json"
        write(value, str(path), *extra)
        text = path.read_text(encoding="utf-8")
        document = to_document(value, *extra)
        assert json.loads(text) == document
        assert read(str(path)) == value
        assert text.endswith("}\n") and not text.endswith("\n\n")
        lines = [line.strip().rstrip(",") for line in text.splitlines()]
        records = [json.dumps(entry) for key in ("categories", "agents") for entry in document.get(key, ())]
        records += [json.dumps({name: slot})[1:-1] for name, slot in document.get("assignment", {}).items()]
        assert records and all(record in lines for record in records)
        # Braces, one line per field, and one more per record list's closing bracket.
        record_lists = sum(1 for key in ("categories", "agents", "assignment") if document.get(key))
        assert len(lines) == 2 + len(document) + len(records) + record_lists


class TestAllocationFiles:
    def test_round_trip_preserves_unmatched(self, tmp_path):
        inst = tight_model1()
        alloc = run_online(inst, tie_break="adversarial")
        assert alloc.slot_of("a2") is None
        path = tmp_path / "alloc.json"
        write_allocation(alloc, str(path))
        again = read_allocation(str(path))
        assert dict(again.assignment) == dict(alloc.assignment)

    def test_allocation_schema_errors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "allocation", "assignment": {"a1": {"day": 1}}}))
        with pytest.raises(DataFormatError, match="category"):
            read_allocation(str(path))
        path.write_text(json.dumps({"schema_version": 1, "kind": "allocation", "assignment": {"a1": {"category": "c1", "day": True}}}))
        with pytest.raises(DataFormatError, match="day: expected int, got True"):
            read_allocation(str(path))


class TestGenerator:
    def config(self, **overrides):
        base = dict(
            num_agents=200,
            num_days=10,
            num_hospitals=8,
            cluster_radius_links=1,
            availability_density=0.5,
            seed=11,
        )
        base.update(overrides)
        return GeneratorConfig(**base)

    def test_deterministic_and_byte_identical(self, tmp_path):
        config = self.config()
        first, second = generate(config), generate(config)
        assert first == second
        p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
        write_instance(first, str(p1), provenance=config_to_document(config))
        write_instance(second, str(p2), provenance=config_to_document(config))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        assert generate(self.config(seed=1)) != generate(self.config(seed=2))

    def test_generated_instances_validate(self):
        for seed in range(5):
            inst = generate(self.config(seed=seed))
            assert validate_instance(inst).ok

    def test_zero_density_means_never_available(self):
        inst = generate(self.config(availability_density=0.0))
        assert all(not any(a.availability) for a in inst.agents)

    def test_empirical_density_within_three_standard_errors(self):
        config = self.config(num_agents=400, num_days=30, availability_density=0.5, seed=7)
        inst = generate(config)
        draws = 400 * 30
        hits = sum(sum(a.availability) for a in inst.agents)
        rate = hits / draws
        stderr = (0.5 * 0.5 / draws) ** 0.5
        assert abs(rate - 0.5) <= 3 * stderr

    def test_eligibility_is_cluster_shaped(self):
        inst = generate(self.config(cluster_radius_links=0))
        # Radius zero: every agent belongs to exactly their home facility.
        assert all(len(a.eligible) == 1 for a in inst.agents)

    def test_groups_follow_specs(self):
        config = self.config(
            group_specs=(
                GroupSpec("low", 1.0, Fraction(1, 10)),
                GroupSpec("high", 1.0, Fraction(9, 10)),
            )
        )
        inst = generate(config)
        for agent in inst.agents:
            assert agent.group in {"low", "high"}
            assert agent.priority == (Fraction(1, 10) if agent.group == "low" else Fraction(9, 10))

    def test_invalid_configs_are_rejected(self):
        with pytest.raises(ValueError):
            self.config(availability_density=1.5).validate()
        with pytest.raises(ValueError):
            self.config(num_days=0).validate()
        with pytest.raises(ValueError):
            GeneratorConfig(
                num_agents=1,
                num_days=1,
                num_hospitals=1,
                group_specs=(GroupSpec("g", 1.0, Fraction(3, 2)),),
            ).validate()
        with pytest.raises(ValueError):
            self.config(supply_model=SupplyModel(supply_low=5, supply_high=2)).validate()
        with pytest.raises(ValueError, match="cluster_radius_links must be >= 0"):
            self.config(cluster_radius_links=-1).validate()
        with pytest.raises(ValueError, match="at least one group is required"):
            self.config(group_specs=()).validate()
        with pytest.raises(ValueError, match=re.escape("discount must lie strictly in (0, 1)")):
            self.config(discount=Fraction(3, 2)).validate()

    @pytest.mark.parametrize(
        "weights, reason",
        [
            ((float("nan"), 1.0), "group 'g0' weight must be a finite positive number"),
            ((1.0, float("inf")), "group 'g1' weight must be a finite positive number"),
            ((1e308, 1e308), "group weights must have a finite total"),
        ],
        ids=["nan", "inf", "total-overflows"],
    )
    def test_weights_must_be_finite(self, weights, reason):
        specs = tuple(GroupSpec(f"g{i}", w, Fraction(1, 2)) for i, w in enumerate(weights))
        with pytest.raises(ValueError) as raised:
            generate(self.config(group_specs=specs))
        assert str(raised.value) == reason

    def test_config_missing_field_is_loud(self, tmp_path):
        from rationd.data import read_generator_config

        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"num_days": 3, "num_hospitals": 2}))
        with pytest.raises(DataFormatError, match="num_agents"):
            read_generator_config(str(path))

    def test_config_document_round_trip(self):
        config = self.config()
        assert config_from_document(config_to_document(config)) == config


# The values of PROBE_CONFIG in perfbench/workloads.py.
PROBE_CONFIG = GeneratorConfig(
    num_agents=100,
    num_days=4,
    num_hospitals=4,
    availability_density=0.5,
    supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
    seed=7,
)
TWO_GROUPS_CONFIG = GeneratorConfig(
    num_agents=300,
    num_days=6,
    num_hospitals=9,
    cluster_radius_links=2,
    availability_density=0.4,
    group_specs=(GroupSpec("young", 2.0, Fraction(1, 3)), GroupSpec("old", 1.0, Fraction(9, 10))),
    discount=Fraction(2, 3),
    seed=5,
)


@pytest.mark.parametrize(
    "config,digest",
    [
        (PROBE_CONFIG, "361d156872af9edbf8080b5149e3ebcdad781a93324aae3ff65e7f44685ac5f9"),
        (replace(PROBE_CONFIG, seed=8), "03effbf2ce606026ebdb112122ec1f083db86541dcec10d0bf83c4ae43127550"),
        (SCALED_CONFIG, "3226e44616b729f0884aceb803deaacc8eaef34e63abb203b13166cf6aaea0f5"),
        (TWO_GROUPS_CONFIG, "0cae7c20124a0e2d5f8d568bd6b3cde70676d05e27d05aa5d12f894fcfeedb03"),
    ],
    ids=["probe-seed-7", "probe-seed-8", "scaled-seed-42", "two-groups-radius-2"],
)
def test_generated_instances_are_pinned(config, digest):
    """The generator draws exactly these instances; the benchmark's pinned
    optima (perfbench/pins.json) hold only for them."""
    canonical = json.dumps(instance_to_document(generate(config)), sort_keys=True)
    assert hashlib.sha256(canonical.encode("utf-8")).hexdigest() == digest


class TestExportMetrics:
    HEADER = "day,group,gamma,eta,fraction_unvaccinated,matched_today,cumulative_utility"

    def test_empty_series_is_header_only(self, tmp_path):
        from rationd.analysis import MetricsSeries

        path = tmp_path / "empty.csv"
        export_metrics(MetricsSeries((), ()), str(path))
        assert path.read_text() == self.HEADER + "\n"

    def test_two_days_one_group_gives_four_rows(self, tmp_path):
        from rationd.model import Agent, Category, Instance

        inst = Instance(
            agents=(Agent("a1", Fraction(1, 2), (True, True), frozenset({"c1"}), group="g"),),
            categories=(Category("c1", (1, 1)),),
            num_days=2,
            daily_supply=(1, 1),
            discount=Fraction(1, 2),
        )
        series = compute_metrics(inst, run_online(inst))
        path = tmp_path / "mini.csv"
        export_metrics(series, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 4
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["1", "all"],
            ["1", "g"],
            ["2", "all"],
            ["2", "g"],
        ]

    def test_quarter_fraction_rendered(self, tmp_path):
        from rationd.model import Agent, Allocation, Category, Instance

        inst = Instance(
            agents=tuple(Agent(f"a{i}", Fraction(1, 2), (True, True), frozenset({"c1"})) for i in range(4)),
            categories=(Category("c1", (2, 2)),),
            num_days=2,
            daily_supply=(2, 1),
            discount=Fraction(1, 2),
        )
        alloc = Allocation({"a0": ("c1", 1), "a1": ("c1", 1), "a2": ("c1", 2), "a3": None})
        path = tmp_path / "quarter.csv"
        export_metrics(compute_metrics(inst, alloc), str(path))
        day2 = [line for line in path.read_text().splitlines() if line.startswith("2,all")]
        assert day2 == ["2,all,4,3,0.25,1,1.25"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
DELETE = object()
# One of each JSON type, and values past the edges of what the fields take.
EDGE_VALUES = (
    None, True, False, 0, -1, 2.5, 10**400, 10**4300, float("nan"), float("inf"),
    "", "x", "1/0", "1e1000000000", [], {}, [1], {"k": 1},
)


def _paths(document, prefix=()):
    """Every path into a JSON document, the empty path (the root) first."""
    yield prefix
    if isinstance(document, dict):
        for key, value in document.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(document, list):
        for index, value in enumerate(document):
            yield from _paths(value, prefix + (index,))


def _replaced(document, path, value):
    """A copy of ``document`` with the value at ``path`` replaced, or removed
    when ``value`` is DELETE."""
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy


READERS = {
    "instance": (instance_from_document, instance_to_document(tight_general())),
    "allocation": (allocation_from_document, allocation_to_document(run_online(tight_general(), model2=True))),
    "config": (config_from_document, config_to_document(GeneratorConfig(num_agents=5, num_days=2, num_hospitals=2))),
}


def _read_or_refuse(reader, document):
    """Read ``document``; a DataFormatError, or a MalformedInstance for a
    parsed instance that breaks a model rule, is a refusal, and any other
    exception fails the test."""
    try:
        reader(document)
    except (DataFormatError, MalformedInstance):
        pass


class TestReaderFuzz:
    """Whatever JSON arrives, a reader returns a value or raises
    DataFormatError, or MalformedInstance for a parsed instance that breaks
    a model rule."""

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_every_value_replaced_by_every_edge_value(self, kind):
        reader, valid = READERS[kind]
        for path in _paths(valid):
            for value in EDGE_VALUES + ((DELETE,) if path else ()):
                _read_or_refuse(reader, _replaced(valid, path, value))

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(document=JSON_VALUES)
    def test_arbitrary_json(self, kind, document):
        _read_or_refuse(READERS[kind][0], document)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_valid_document_with_one_value_changed(self, kind, data):
        reader, valid = READERS[kind]
        path = data.draw(st.sampled_from(list(_paths(valid))))
        value = data.draw(JSON_VALUES | st.just(DELETE)) if path else data.draw(JSON_VALUES)
        _read_or_refuse(reader, _replaced(valid, path, value))

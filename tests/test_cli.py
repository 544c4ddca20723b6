import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from rationd import analysis, cli, data
from rationd.data import instance_to_document, read_allocation, read_instance, write_allocation
from rationd.model import Agent, Allocation, Category, Instance

from helpers import tight_model1

FIXDIR = Path(__file__).resolve().parents[1] / "src" / "rationd" / "fixtures"
TIGHT_M1 = str(FIXDIR / "tight_model1.json")
TIGHT_GEN = str(FIXDIR / "tight_general.json")


def run(argv):
    return cli.main(argv)


class TestGenerate:
    def config_file(self, tmp_path, **overrides):
        document = {
            "num_agents": 40,
            "num_days": 5,
            "num_hospitals": 4,
            "cluster_radius_links": 1,
            "availability_density": 0.5,
            "discount": "0.95",
            "supply_model": {"supply_low": 2, "supply_high": 6, "quota_low": 0, "quota_high": 3},
            "seed": 5,
        }
        document.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_generate_writes_an_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        assert run(["generate", "--config", self.config_file(tmp_path), "--out", str(out)]) == 0
        assert out.exists()
        assert "40 agents" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        config = self.config_file(tmp_path)
        out1, out2 = tmp_path / "one.json", tmp_path / "two.json"
        assert run(["generate", "--config", config, "--out", str(out1)]) == 0
        assert run(["generate", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        config = self.config_file(tmp_path)
        base, override = tmp_path / "base.json", tmp_path / "override.json"
        assert run(["generate", "--config", config, "--out", str(base)]) == 0
        assert run(["generate", "--config", config, "--out", str(override), "--seed", "123"]) == 0
        assert base.read_bytes() != override.read_bytes()

    @pytest.mark.parametrize(
        "override, reason",
        [
            ({"availability_density": 2.0}, "availability_density must lie in [0, 1]"),
            ({"cluster_radius_links": -1}, "cluster_radius_links must be >= 0"),
            ({"discount": "1.5"}, "discount must lie strictly in (0, 1)"),
        ],
        ids=["density", "negative-radius", "discount"],
    )
    def test_invalid_config_fails(self, tmp_path, capsys, override, reason):
        config = self.config_file(tmp_path, **override)
        code = run(["generate", "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"invalid generator config: {reason}\n"

    def test_duplicate_group_label_is_refused(self, tmp_path, capsys):
        # Two specs under one label would leave every such agent the last
        # spec's priority.
        groups = [{"label": "g", "weight": 0.5, "priority": "0.5"}, {"label": "g", "weight": 0.5, "priority": "0.9"}]
        out = tmp_path / "x.json"
        assert run(["generate", "--config", self.config_file(tmp_path, groups=groups), "--out", str(out)]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid generator config: group label 'g' appears more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "weights, reason",
        [
            ((float("nan"), 0.5), "group 'g0' weight must be a finite positive number"),
            ((0.5, float("inf")), "group 'g1' weight must be a finite positive number"),
            ((1e308, 1e308), "group weights must have a finite total"),
        ],
        ids=["nan", "inf", "total-overflows"],
    )
    def test_weights_that_are_not_finite_are_refused(self, tmp_path, capsys, weights, reason):
        # The config file carries the JSON literals NaN and Infinity.
        groups = [{"label": f"g{i}", "weight": w, "priority": "0.5"} for i, w in enumerate(weights)]
        out = tmp_path / "x.json"
        assert run(["generate", "--config", self.config_file(tmp_path, groups=groups), "--out", str(out)]) == cli.EXIT_INVALID
        assert capsys.readouterr().err == f"invalid generator config: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, where",
        [
            ({"num_agents": True}, "num_agents: expected int, got True"),
            ({"num_days": 2.9}, "num_days: expected int, got 2.9"),
            ({"num_hospitals": "2"}, "num_hospitals: expected int, got '2'"),
            ({"seed": 1.0}, "seed: expected int, got 1.0"),
            ({"supply_model": {"quota_high": False}}, "supply_model.quota_high: expected int, got False"),
            ({"availability_density": True}, "availability_density: expected float, got True"),
        ],
        ids=["bool-agents", "fractional-days", "string-hospitals", "float-seed", "bool-quota", "bool-density"],
    )
    def test_numeric_fields_take_only_json_numbers(self, tmp_path, capsys, override, where):
        config = self.config_file(tmp_path, **override)
        out = tmp_path / "x.json"
        assert run(["generate", "--config", config, "--out", str(out)]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "malformed input" in err and where in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, where",
        [
            ({"groups": [1]}, "groups[0]: expected an object"),
            ({"supply_model": 3}, "supply_model: expected an object"),
            ({"supply_model": {"supply_low": "x"}}, "supply_model.supply_low: expected int"),
            ({"groups": [{"label": "g", "weight": "x", "priority": "1/2"}]}, "groups[0].weight: expected float"),
        ],
        ids=["group-not-an-object", "supply-model-not-an-object", "supply-not-a-number", "weight-not-a-number"],
    )
    def test_malformed_config_is_malformed_input(self, tmp_path, capsys, override, where):
        config = self.config_file(tmp_path, **override)
        code = run(["generate", "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert "malformed input" in err and where in err

    def test_invalid_generated_instance_is_not_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "generate", lambda config: replace(tight_model1(), discount=Fraction(1)))
        out = tmp_path / "inst.json"
        assert run(["generate", "--config", self.config_file(tmp_path), "--out", str(out)]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "invalid instance: discount must lie strictly between 0 and 1, got 1\n"
        assert not out.exists()


class TestSolve:
    def test_adversarial_online_on_tight_fixture(self, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        code = run(["solve", TIGHT_M1, "--algorithm", "online", "--tie-break", "adversarial", "--out", str(out)])
        assert code == 0
        assert "utility   : 0.500000" in capsys.readouterr().out
        assert out.exists()

    def test_offline_on_tight_fixture(self, capsys):
        assert run(["solve", TIGHT_M1, "--algorithm", "offline", "--exact"]) == 0
        out = capsys.readouterr().out
        assert "utility   : 0.975000 (exact 39/40)" in out

    def test_empty_instance(self, tmp_path, capsys):
        inst_doc = {
            "schema_version": 1,
            "kind": "instance",
            "discount": "0.5",
            "num_days": 1,
            "daily_supply": [1],
            "categories": [],
            "agents": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(inst_doc))
        assert run(["solve", str(path), "--algorithm", "oracle"]) == 0
        out = capsys.readouterr().out
        assert "matched   : 0 / 0" in out
        assert "utility   : 0.000000" in out
        # No category carries an overall quota, so this is model 1.
        assert run(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solver    : online1" in out and "solver    : offline1" in out
        assert "worst-case bound     : 1.500000" in out

    def test_incompatible_algorithm(self, capsys):
        code = run(["solve", TIGHT_GEN, "--algorithm", "offline"])
        assert code == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot solve: ") and "overall quotas" in captured.err
        assert "use --algorithm oracle" in captured.err and "solve_exact_oracle" not in captured.err

    @pytest.mark.parametrize(
        "instance, algorithm, label",
        [
            (TIGHT_GEN, "online", "online2"),
            (TIGHT_M1, "online", "online1"),
            (TIGHT_GEN, "oracle", "oracle2"),
            (TIGHT_M1, "oracle", "oracle"),
            (TIGHT_M1, "offline", "offline1"),
        ],
        ids=["online-general", "online-model1", "oracle-general", "oracle-model1", "offline-model1"],
    )
    def test_solver_label_follows_the_model(self, capsys, instance, algorithm, label):
        assert run(["solve", instance, "--algorithm", algorithm]) == 0
        assert f"solver    : {label}\n" in capsys.readouterr().out

    def test_infeasible_solver_output_is_neither_printed_nor_written(self, tmp_path, monkeypatch, capsys):
        # Both agents on day 1, whose supply is 1.
        monkeypatch.setattr(cli, "run_online", lambda instance, **kwargs: Allocation({"a2": ("c2", 1), "a1": ("c1", 1)}))
        out = tmp_path / "alloc.json"
        assert run(["solve", TIGHT_M1, "--algorithm", "online", "--out", str(out)]) == cli.EXIT_CERTIFICATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "solver produced an infeasible allocation (bug)\n"
        assert not out.exists()

    def test_oracle_budget_exit(self, tmp_path, capsys):
        code = run(["solve", TIGHT_GEN, "--algorithm", "oracle", "--budget", "1"])
        assert code == cli.EXIT_BUDGET
        assert "budget exceeded" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["solve", "no-such-file.json", "--algorithm", "online"]) == cli.EXIT_INVALID

    def test_directory_is_refused_by_name(self, tmp_path, capsys):
        assert run(["solve", str(tmp_path), "--algorithm", "online"]) == cli.EXIT_INVALID
        assert f"cannot open {tmp_path}" in capsys.readouterr().err

    def test_instance_that_is_not_utf8_is_malformed_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "instance", "note": "café"}'.encode("latin-1"))
        assert run(["solve", str(path), "--algorithm", "online"]) == cli.EXIT_INVALID
        assert "malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ('"num_days": 1, "daily_supply": [1], "discount": "1e1000000000"', "decimal exponent beyond"),
            ('"discount": "0.5", "num_days": ' + "1" * 5000, "value has 5000 digits"),
            ('"discount": "0.5", "num_days": ' + "[" * 100_000 + "]" * 100_000, "nested too deeply"),
        ],
        ids=["huge-decimal-exponent", "integer-past-digit-limit", "deep-nesting"],
    )
    def test_oversized_values_are_malformed_input(self, tmp_path, capsys, text, where):
        path = tmp_path / "instance.json"
        path.write_text('{"schema_version": 1, "kind": "instance", ' + text + "}")
        assert run(["solve", str(path), "--algorithm", "online"]) == cli.EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("malformed input: ") and where in err

    def test_boolean_day_count_is_malformed_input(self, tmp_path, capsys):
        document = instance_to_document(tight_model1())
        document["num_days"] = True
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document))
        assert run(["solve", str(path), "--algorithm", "online"]) == cli.EXIT_INVALID
        assert "num_days: expected int, got True" in capsys.readouterr().err

    def test_explicit_tie_break_order(self, capsys):
        # Preferring a1 on the tight fixture reproduces the bad run.
        assert run(["solve", TIGHT_M1, "--algorithm", "online", "--tie-break", "a1,a2"]) == 0
        assert "utility   : 0.500000" in capsys.readouterr().out
        assert run(["solve", TIGHT_M1, "--algorithm", "online", "--tie-break", "a2,a1"]) == 0
        assert "utility   : 0.975000" in capsys.readouterr().out

    def test_tie_break_must_be_a_permutation(self, capsys):
        code = run(["solve", TIGHT_M1, "--algorithm", "online", "--tie-break", "a1"])
        assert code == cli.EXIT_INVALID

    def symmetric_pair(self, tmp_path, overall_quota=None):
        instance = Instance(
            agents=tuple(Agent(a, Fraction(1, 2), (True,), frozenset({"c1"})) for a in ("a1", "a2")),
            categories=(Category("c1", (1,), overall_quota),),
            num_days=1,
            daily_supply=(1,),
            discount=Fraction(1, 2),
        )
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(instance_to_document(instance)))
        return str(path)

    def test_offline_follows_the_tie_break(self, tmp_path, capsys):
        path = self.symmetric_pair(tmp_path)
        served = []
        for order in ("a1,a2", "a2,a1"):
            out = tmp_path / f"{order}.json"
            assert run(["solve", path, "--algorithm", "offline", "--tie-break", order, "--out", str(out)]) == 0
            served.append({a for a, _c, _d in read_allocation(str(out)).matched()})
        assert served == [{"a1"}, {"a2"}]

    @pytest.mark.parametrize("overall_quota", [None, 1], ids=["oracle", "oracle2"])
    def test_the_oracles_refuse_a_tie_break(self, tmp_path, capsys, overall_quota):
        path = self.symmetric_pair(tmp_path, overall_quota)
        assert run(["solve", path, "--algorithm", "oracle", "--tie-break", "a1,a2"]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("bad tie-break: ")


class TestCompare:
    @pytest.mark.parametrize("instance, ratio", [(TIGHT_M1, "1.950000"), (TIGHT_GEN, "2.500000")], ids=["model1", "general"])
    def test_adversarial_run_is_tight_on_both_fixtures(self, capsys, instance, ratio):
        assert run(["compare", instance, "--tie-break", "adversarial"]) == 0
        out = capsys.readouterr().out
        assert f"optimal/online ratio : {ratio} [tight]" in out
        assert f"worst-case bound     : {ratio}" in out

    def test_budget_exceeded(self, capsys):
        assert run(["compare", TIGHT_GEN, "--budget", "1"]) == cli.EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("budget exceeded: ")

    def test_single_agent_ratio_one(self, tmp_path, capsys):
        document = {
            "schema_version": 1,
            "kind": "instance",
            "discount": "0.5",
            "num_days": 2,
            "daily_supply": [1, 1],
            "categories": [{"id": "c1", "daily_quota": [1, 1], "overall_quota": None}],
            "agents": [
                {"id": "a1", "priority": "0.5", "availability": [1, 1], "eligible": ["c1"], "group": None}
            ],
        }
        path = tmp_path / "solo.json"
        path.write_text(json.dumps(document))
        assert run(["compare", str(path)]) == 0
        assert "optimal/online ratio : 1.000000" in capsys.readouterr().out

    def test_generated_instance_ratio_within_bound(self, tmp_path, capsys):
        config = {
            "num_agents": 200,
            "num_days": 8,
            "num_hospitals": 6,
            "availability_density": 0.5,
            "discount": "0.95",
            "supply_model": {"supply_low": 10, "supply_high": 25, "quota_low": 0, "quota_high": 6},
            "seed": 99,
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        inst_path = tmp_path / "inst.json"
        assert run(["generate", "--config", str(config_path), "--out", str(inst_path)]) == 0
        capsys.readouterr()
        assert run(["compare", str(inst_path), "--exact"]) == 0
        out = capsys.readouterr().out
        ratio_line = next(line for line in out.splitlines() if line.startswith("optimal/online ratio"))
        from fractions import Fraction

        exact = Fraction(re.search(r"\(exact (\d+(?:/\d+)?)\)", ratio_line).group(1))
        assert 1 <= exact <= 1 + Fraction(19, 20)

    def test_online_earning_nothing_stops_after_both_summaries(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_online", lambda instance, **kwargs: Allocation.empty(instance))
        assert run(["compare", TIGHT_M1]) == cli.EXIT_CERTIFICATE
        captured = capsys.readouterr()
        assert "solver    : online1" in captured.out and "solver    : offline1" in captured.out
        assert "ratio" not in captured.out
        assert captured.err == "ratio     : infinite (online earned nothing)\n"

    def test_ratio_above_the_bound_stops_after_printing_it(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "model1_bound", lambda instance: Fraction(1))
        assert run(["compare", TIGHT_M1, "--tie-break", "adversarial"]) == cli.EXIT_CERTIFICATE
        captured = capsys.readouterr()
        assert "optimal/online ratio : 1.950000\n" in captured.out
        assert "worst-case bound     : 1.000000\n" in captured.out
        assert captured.err == "ratio exceeds the worst-case bound (bug)\n"

    def test_model2_compare_with_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert run(["compare", TIGHT_GEN, "--tie-break", "adversarial", "--metrics-dir", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "optimal/online ratio : 2.500000 [tight]" in out
        assert (metrics / "metrics_online.csv").exists()
        assert (metrics / "metrics_offline.csv").exists()

    @pytest.mark.parametrize("label", ["all", "x,y", "x\ny"], ids=["reserved-all", "comma", "newline"])
    def test_unexportable_group_label_is_refused_before_any_step(self, tmp_path, capsys, label):
        document = instance_to_document(tight_model1())
        document["agents"][0]["group"] = label
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(document))
        metrics = tmp_path / "metrics"
        assert run(["compare", str(path), "--metrics-dir", str(metrics)]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cannot compare: ")
        assert repr(label) in captured.err and "--metrics-dir" in captured.err
        assert "Traceback" not in captured.err
        assert not metrics.exists()

    def test_metrics_dir_that_is_a_file_is_refused_before_any_step(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("x")
        assert run(["compare", TIGHT_M1, "--metrics-dir", str(taken)]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot open {taken}: File exists\n"
        assert taken.read_text() == "x"


# Parses, but products of it pass the interpreter's 4,300-digit limit on
# turning an int into text.
NINES = "1/" + "9" * 3000


@pytest.mark.parametrize(
    "command, discount, priorities, overall_quota, expected",
    [
        (
            ["solve", "--algorithm", "online", "--exact"],
            NINES,
            [NINES],
            None,
            "utility   : 0.000000 (exact about 1-digit / 6001-digit fraction, too long to print)",
        ),
        (
            ["compare", "--exact"],
            NINES,
            [NINES],
            None,
            "utility   : 0.000000 (exact about 1-digit / 6001-digit fraction, too long to print)",
        ),
        (["compare"], "0.5", [NINES, "0.5"], 2, "worst-case bound     : beyond float range"),
    ],
    ids=["solve-exact", "compare-exact", "compare-model2-bound"],
)
def test_values_too_long_to_print_are_described(tmp_path, capsys, command, discount, priorities, overall_quota, expected):
    document = {
        "schema_version": 1,
        "kind": "instance",
        "discount": discount,
        "num_days": 2,
        "daily_supply": [0, 2],
        "categories": [{"id": "c1", "daily_quota": [2, 2], "overall_quota": overall_quota}],
        "agents": [
            {"id": f"a{k}", "priority": p, "availability": [1, 1], "eligible": ["c1"], "group": None}
            for k, p in enumerate(priorities)
        ],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(document))
    assert run([command[0], str(path), *command[1:]]) == 0
    out = capsys.readouterr().out
    assert expected in out
    assert out.rstrip().splitlines()[-1].startswith("empirical efficiency" if command[0] == "compare" else "wall-clock")


@pytest.mark.parametrize("command", ["solve", "compare", "verify"])
@pytest.mark.parametrize(
    "fixture, category, overall_quota, bound",
    [(TIGHT_M1, 0, 1, "2.900000"), (TIGHT_GEN, 1, None, "2.500000")],
    ids=["overall-quotas-without-model2", "model2-without-overall-quotas"],
)
def test_model_mismatch_is_refused_before_any_step(tmp_path, capsys, command, fixture, category, overall_quota, bound):
    # Only some categories carry an overall quota: the instance is in model
    # 2, the other categories are uncapped, and only the flow solver refuses.
    document = json.loads(Path(fixture).read_text())
    document["categories"][category]["overall_quota"] = overall_quota
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(document))
    if command == "solve":
        assert run(["solve", str(path), "--algorithm", "offline"]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot solve: offline ignores the overall quotas this instance carries; use --algorithm oracle\n"
    elif command == "compare":
        assert run(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solver    : online2" in out and "solver    : oracle2" in out
        assert f"worst-case bound     : {bound}\n" in out
    else:
        assert run(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] charge certificate" in out and "[PASS] worst-case ratio bound" in out
        assert "all verification steps passed" in out


class TestVerify:
    def test_fixture_passes(self, capsys):
        assert run(["verify", TIGHT_GEN]) == 0
        out = capsys.readouterr().out
        assert "[PASS] charge certificate" in out
        assert "all verification steps passed" in out

    @pytest.mark.parametrize(
        "bogus, line",
        [
            (
                Allocation({"a1": ("c1", 2), "a2": ("c1", 2), "a3": ("c2", 2)}),
                "[FAIL] supplied allocation feasible (agent 'a3' matched on day 2 but is unavailable then; "
                "day 2 serves 3 agents but supply is 2; category 'c1' serves 2 agents on day 2 but its quota is 1)\n",
            ),
            (
                Allocation({"a1": ("zz", 1), "a2": ("c1", 9), "ghost": ("c2", 1), "a3": None}),
                "[FAIL] supplied allocation feasible (agent 'a1' matched under unknown category 'zz'; "
                "agent 'a2' matched on day 9, outside 1..2; allocation names unknown agent 'ghost')\n",
            ),
        ],
        ids=["infeasible", "misplaced"],
    )
    def test_corrupted_allocation_fails_feasibility(self, tmp_path, capsys, bogus, line):
        path = tmp_path / "bogus_alloc.json"
        write_allocation(bogus, str(path))
        code = run(["verify", TIGHT_GEN, "--allocation", str(path)])
        assert code == cli.EXIT_CERTIFICATE
        out = capsys.readouterr().out
        assert line in out

    def test_budget_skips_both_steps_that_need_the_optimum(self, capsys):
        assert run(["verify", TIGHT_GEN, "--budget", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        reason = "(budget exceeded: instance sizing 3 agents x 2 days x 2 categories exceeds the oracle budget 1)"
        assert [line for line in lines if line.startswith("[SKIP]")] == [
            f"[SKIP] charge certificate {reason}",
            f"[SKIP] worst-case ratio bound {reason}",
        ]
        assert lines[-1] == "all verification steps passed (2 skipped)"

    def test_failed_ratio_step_names_its_numbers(self, monkeypatch, capsys):
        monkeypatch.setattr(analysis, "model1_bound", lambda instance: Fraction(1, 2))
        assert run(["verify", TIGHT_M1]) == cli.EXIT_CERTIFICATE
        captured = capsys.readouterr()
        assert "[PASS] charge certificate\n" in captured.out
        assert "[FAIL] worst-case ratio bound (optimum 39/40 > bound 1/2 x online 39/40)\n" in captured.out
        assert captured.err == "1 verification step(s) failed\n"

    def test_seed_picks_the_probed_agents(self, monkeypatch, capsys):
        probed = []
        real = analysis.availability_deviation_report

        def spy(instance, agent_id, **kwargs):
            probed.append(agent_id)
            return real(instance, agent_id, **kwargs)

        monkeypatch.setattr(analysis, "availability_deviation_report", spy)
        agent_ids = [a.id for a in read_instance(TIGHT_M1).agents]
        picks = set()
        for seed in range(8):
            probed.clear()
            assert run(["verify", TIGHT_M1, "--seed", str(seed), "--deviation-agents", "1"]) == 0
            expected = list(agent_ids)
            random.Random(seed).shuffle(expected)
            assert probed == expected[:1]
            picks.update(probed)
        assert picks == set(agent_ids)

    def test_uncertified_probe_prints_its_witness_day(self, monkeypatch, capsys):
        real = analysis.availability_deviation_report

        def uncertified(instance, agent_id, **kwargs):
            return replace(real(instance, agent_id, **kwargs), witness_day=1)

        monkeypatch.setattr(analysis, "availability_deviation_report", uncertified)
        assert run(["verify", TIGHT_M1, "--deviation-agents", "1"]) == cli.EXIT_CERTIFICATE
        out = capsys.readouterr().out
        assert "[FAIL] no improving under-reports (1 agents probed)" in out
        assert "witness day 1" in out

    def test_invalid_instance_exits_early(self, tmp_path, capsys):
        document = instance_to_document(tight_model1())
        document["discount"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert run(["verify", str(path)]) == cli.EXIT_INVALID
        assert "invalid instance" in capsys.readouterr().err

    def test_negative_deviation_agents_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", TIGHT_M1, "--deviation-agents", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_zero_deviation_agents_probes_nobody(self, capsys):
        assert run(["verify", TIGHT_M1, "--deviation-agents", "0"]) == 0
        assert "under-reports" not in capsys.readouterr().out


@pytest.mark.parametrize("command", [["solve", "--algorithm", "oracle"], ["compare"], ["verify"]])
def test_malformed_instance_lists_every_violation(tmp_path, capsys, command):
    document = instance_to_document(tight_model1())
    document["discount"] = "1"
    next(agent for agent in document["agents"] if agent["id"] == "a2")["priority"] = "3/2"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    assert run([command[0], str(path), *command[1:]]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invalid instance: discount must lie strictly between 0 and 1, got 1\n"
        "invalid instance: agent 'a2' priority must lie strictly in (0, 1), got 3/2\n"
    )


@pytest.mark.parametrize("command", [["solve", "--algorithm", "oracle"], ["compare"], ["verify"]])
def test_negative_budget_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run([command[0], TIGHT_M1, *command[1:], "--budget", "-3"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_log_level_env_var(monkeypatch, capsys):
    monkeypatch.setenv("RATIOND_LOG", "debug")
    assert run(["solve", TIGHT_M1, "--algorithm", "offline"]) == 0
    capsys.readouterr()


GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
GOLDEN_COMMANDS = {
    "solve-online": ["solve", "--algorithm", "online"],
    "solve-online-exact": ["solve", "--algorithm", "online", "--exact"],
    "solve-offline": ["solve", "--algorithm", "offline"],
    "solve-offline-exact": ["solve", "--algorithm", "offline", "--exact"],
    "solve-oracle": ["solve", "--algorithm", "oracle"],
    "solve-oracle-exact": ["solve", "--algorithm", "oracle", "--exact"],
    "compare-adversarial-exact": ["compare", "--tie-break", "adversarial", "--exact"],
    "verify": ["verify"],
    "solve-bad-tie-break": ["solve", "--algorithm", "online", "--tie-break", "a1"],
    "compare-bad-tie-break": ["compare", "--tie-break", "a1"],
    "solve-budget-1": ["solve", "--algorithm", "oracle", "--budget", "1"],
    "compare-budget-1": ["compare", "--budget", "1"],
    "verify-budget-1": ["verify", "--budget", "1"],
}


@pytest.mark.parametrize("command", list(GOLDEN_COMMANDS))
@pytest.mark.parametrize("fixture", ["tight_model1", "tight_general"])
def test_output_is_pinned(capsys, fixture, command):
    # The whole of stdout (wall-clock masked), stderr and the exit code, as
    # recorded in cli_golden.json.
    argv = GOLDEN_COMMANDS[command]
    code = run([argv[0], str(FIXDIR / f"{fixture}.json"), *argv[1:]])
    captured = capsys.readouterr()
    stdout = re.sub(r"wall-clock: \d+\.\d{3} s", "wall-clock: <masked> s", captured.out)
    expected = GOLDEN[f"{fixture}-{command}"]
    assert (code, stdout.splitlines(), captured.err.splitlines()) == (expected["exit"], expected["stdout"], expected["stderr"])
    assert stdout.endswith("\n") == bool(stdout) and captured.err.endswith("\n") == bool(captured.err)

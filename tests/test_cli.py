import json
from pathlib import Path

import pytest

from rationd import analysis, cli
from rationd.data import instance_to_document, write_allocation
from rationd.model import Allocation

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

    def test_invalid_config_fails(self, tmp_path, capsys):
        config = self.config_file(tmp_path, availability_density=2.0)
        code = run(["generate", "--config", config, "--out", str(tmp_path / "x.json")])
        assert code == cli.EXIT_INVALID
        assert "invalid generator config" in capsys.readouterr().err


class TestSolve:
    def test_adversarial_online_on_tight_fixture(self, tmp_path, capsys):
        out = tmp_path / "alloc.json"
        code = run(["solve", TIGHT_M1, "--algorithm", "online1", "--tie-break", "adversarial", "--out", str(out)])
        assert code == 0
        assert "utility   : 0.500000" in capsys.readouterr().out
        assert out.exists()

    def test_offline_on_tight_fixture(self, capsys):
        assert run(["solve", TIGHT_M1, "--algorithm", "offline1", "--exact"]) == 0
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

    def test_incompatible_algorithm(self, capsys):
        code = run(["solve", TIGHT_GEN, "--algorithm", "offline1"])
        assert code == cli.EXIT_INVALID
        assert "overall quotas" in capsys.readouterr().err

    def test_oracle_budget_exit(self, tmp_path, capsys):
        code = run(["solve", TIGHT_GEN, "--algorithm", "oracle2", "--budget", "1"])
        assert code == cli.EXIT_BUDGET
        assert "budget exceeded" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run(["solve", "no-such-file.json", "--algorithm", "online1"]) == cli.EXIT_INVALID

    def test_explicit_tie_break_order(self, capsys):
        # Preferring a1 on the tight fixture reproduces the bad run.
        assert run(["solve", TIGHT_M1, "--algorithm", "online1", "--tie-break", "a1,a2"]) == 0
        assert "utility   : 0.500000" in capsys.readouterr().out
        assert run(["solve", TIGHT_M1, "--algorithm", "online1", "--tie-break", "a2,a1"]) == 0
        assert "utility   : 0.975000" in capsys.readouterr().out

    def test_tie_break_must_be_a_permutation(self, capsys):
        code = run(["solve", TIGHT_M1, "--algorithm", "online1", "--tie-break", "a1"])
        assert code == cli.EXIT_INVALID


class TestCompare:
    def test_tight_model1_flags_tightness(self, capsys):
        assert run(["compare", TIGHT_M1, "--tie-break", "adversarial"]) == 0
        out = capsys.readouterr().out
        assert "optimal/online ratio : 1.950000 [tight]" in out
        assert "worst-case bound     : 1.950000" in out

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
        import re
        from fractions import Fraction

        exact = Fraction(re.search(r"\(exact (\d+(?:/\d+)?)\)", ratio_line).group(1))
        assert 1 <= exact <= 1 + Fraction(19, 20)

    def test_model2_compare_with_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "metrics"
        assert run(["compare", TIGHT_GEN, "--model2", "--tie-break", "adversarial", "--metrics-dir", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "optimal/online ratio : 2.500000 [tight]" in out
        assert (metrics / "metrics_online.csv").exists()
        assert (metrics / "metrics_offline.csv").exists()


class TestVerify:
    def test_fixture_passes(self, capsys):
        assert run(["verify", TIGHT_GEN, "--model2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] charge certificate" in out
        assert "all verification steps passed" in out

    def test_corrupted_allocation_fails_feasibility(self, tmp_path, capsys):
        bogus = Allocation({"a1": ("c1", 2), "a2": ("c1", 2), "a3": ("c2", 2)})
        path = tmp_path / "bogus_alloc.json"
        write_allocation(bogus, str(path))
        code = run(["verify", TIGHT_GEN, "--model2", "--allocation", str(path)])
        assert code == cli.EXIT_CERTIFICATE
        out = capsys.readouterr().out
        assert "[FAIL] supplied allocation feasible" in out

    def test_seed_reaches_the_deviation_sampler(self, monkeypatch, capsys):
        seeds = []
        real = analysis.availability_deviation_report

        def spy(*args, **kwargs):
            seeds.append(kwargs.get("seed"))
            return real(*args, **kwargs)

        monkeypatch.setattr(analysis, "availability_deviation_report", spy)
        assert run(["verify", TIGHT_M1, "--seed", "17"]) == 0
        assert seeds and set(seeds) == {17}

    def test_invalid_instance_exits_early(self, tmp_path, capsys):
        document = instance_to_document(tight_model1())
        document["discount"] = "1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert run(["verify", str(path)]) == cli.EXIT_INVALID
        assert "invalid instance" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_log_level_env_var(monkeypatch, capsys):
    monkeypatch.setenv("RATIOND_LOG", "debug")
    assert run(["solve", TIGHT_M1, "--algorithm", "offline1"]) == 0
    capsys.readouterr()

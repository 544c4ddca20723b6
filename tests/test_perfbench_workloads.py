"""The benchmark's workloads call rationd by module attribute; one pass of
each declared workload here makes a refactor that drops or renames one of
those names fail in the test suite, not in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling ``checkout`` as a top-level module, and
    # its dataclasses look their module up in sys.modules.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["probe", "exact-small"])
def test_one_pass_makes_checks_and_fails_none(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](str(tmp_path), seed=1, held_out=False)
    workload.setup()
    ledger = workloads.Ledger()
    times = workload.run_pass(ledger, 0)
    assert ledger.attempted > 0
    assert ledger.failed == 0
    assert times.cases

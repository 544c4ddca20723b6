"""The benchmark's tracer wraps rationd's module attributes by name; a
refactor that drops or renames one should fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

from rationd import analysis, offline, online

from helpers import tight_model1

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_counts_the_online_layers():
    spans = load_spans()
    originals = {(m, name): getattr(m, name) for m, name, _span, _count in spans.WRAPPED}
    tracer = spans.install()
    try:
        inst = tight_model1()
        online.run_online_with_trace(inst)
        analysis.availability_deviation_report(inst, "a1")
        summary = tracer.summary(1)
    finally:
        tracer.remove()
    assert summary["online.match.calls"] > 0
    assert summary["online.run.calls"] > 0
    assert summary["analysis.deviation.calls"] == 1
    assert all(getattr(m, name) is original for (m, name), original in originals.items())


def test_deviation_replays_go_through_the_traced_matcher():
    spans = load_spans()
    inst = tight_model1()
    tracer = spans.install()
    try:
        report = analysis.availability_deviation_report(inst, "a2")
        summary = tracer.summary(1)
    finally:
        tracer.remove()
    # The walk matches both days without a2, then day 1, a2's only available
    # day, again with it; it makes no run_online call.
    assert report.truthful_day == 1
    assert [(o.reported_days, o.matched_day) for o in report.outcomes] == [((), None)]
    assert summary["online.match.calls"] == inst.num_days + 1
    assert summary.get("analysis.deviation.reruns", 0) == 0


def test_tracer_counts_the_offline_build_and_solve():
    spans = load_spans()
    inst = tight_model1()
    network, _rmap = offline.build_model1_network(inst)
    tracer = spans.install()
    try:
        offline.solve_offline_model1(inst)
        summary = tracer.summary(1)
    finally:
        tracer.remove()
    assert summary["offline.build_network.calls"] == 1
    assert summary["flow.solve.calls"] == 1
    assert summary["flow.arcs"] == summary["offline.build_network.arcs"] == len(network.arcs)
    assert summary["flow.nodes"] == network.num_nodes


def test_analysis_exposes_the_names_the_tracer_wraps():
    for name in ("run_online", "total_utility", "solve_offline_model1", "solve_exact_oracle"):
        assert callable(getattr(analysis, name))

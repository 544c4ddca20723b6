"""rationd benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload scaled|probe|exact-small --seed N
                             --seconds S --trace 0|1 [--held-out]

A run measures whole cycles of the workload's blocks (pass k runs block
k mod blocks) until the passes' times add up to ``--seconds``, at least one
cycle, so every block, case and timed call is repeated. Each time metric is
built from the fastest repeat of each piece of work: on a shared host the
same work runs up to half again as long in some stretches as in others, and
the fastest of several repeats spread over the run is far steadier from run
to run than their median. Set-up is repeated in bursts spread over the run,
the first before the first pass, and ``setup_s`` adds up the fastest repeat
of each of its parts. Every pass checks its results; failed checks and
raised calls are counted in ``failed``. A ``scaled`` run (a workload run by
hand, not listed in BENCHMARK.json) measures one pass of 30-40 s.

With ``--trace 0`` the last line of standard output is one JSON object whose
metrics are the ``end_to_end`` metrics of BENCHMARK.json. With ``--trace 1``
the run measures untraced passes for the first half of ``--seconds``, then
traced ones for the second half, and reports the ``per_layer`` metrics (per
traced pass), the tracing overhead, and the spans in
``perfbench/out/spans-<workload>.json``. ``--held-out`` switches to the
workload's held-out generator seed (see ``workloads.HELD_OUT_SEEDS``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Iterable

import checkout

SETUP_BURSTS = 16
SETUP_BURST_SECONDS = 0.3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="use the workload's held-out generator seed")
    return parser.parse_args(argv)


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def p90(values: list[float]) -> float:
    """90th percentile by linear interpolation (``statistics.quantiles``,
    inclusive method); the value itself for one sample, 0 for none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def fastest(samples: Iterable[tuple[Any, float]]) -> dict[Any, float]:
    """The smallest time of each key, for (key, seconds) samples."""
    best: dict[Any, float] = {}
    for key, seconds in samples:
        best[key] = min(seconds, best.get(key, seconds))
    return best


def pass_times(passes: list[Any]) -> list[float]:
    """One time per block: the fastest repeat of each of its cases plus the
    fastest repeat of the rest of its pass (the work between cases).

    A whole pass lasts seconds, and in some stretches of a shared host no
    window that long runs undisturbed, while a case lasts milliseconds and
    finds one; summing the parts keeps ``pass_s`` as steady as the cases.
    """
    cases = fastest(case for p in passes for case in p.cases)
    rest = fastest((p.block, p.seconds - sum(seconds for _key, seconds in p.cases)) for p in passes)
    keys = {p.block: [key for key, _seconds in p.cases] for p in passes}
    return [rest[block] + sum(cases[key] for key in keys[block]) for block in rest]


def setup_burst(workload: Any) -> list[tuple[Any, float]]:
    """(part, seconds) of set-ups repeated for ``SETUP_BURST_SECONDS``, at
    least twice."""
    parts: list[tuple[Any, float]] = []
    started = time.perf_counter()
    repeats = 0
    while repeats < 2 or time.perf_counter() - started < SETUP_BURST_SECONDS:
        parts.extend(workload.setup())
        repeats += 1
    return parts


def measure_passes(
    workload: Any, ledger: Any, seconds: float, tracer: Any = None, setup_times: list[tuple[Any, float]] | None = None
) -> list[Any]:
    """Passes until their wall times add up to ``seconds`` and every block
    has run equally often, at least once.

    With ``setup_times``, the workload is also set up in ``SETUP_BURSTS``
    bursts whose (part, seconds) are appended there: burst k once the passes have
    taken k / (SETUP_BURSTS - 1) of ``seconds``, so burst 0 comes first and
    any burst still due when the passes end runs then. Without, the inputs
    must already be set up.
    """
    passes = []
    measured = 0.0
    bursts = 0
    while True:
        while setup_times is not None and bursts < SETUP_BURSTS and measured >= seconds * bursts / (SETUP_BURSTS - 1):
            setup_times.extend(setup_burst(workload))
            bursts += 1
        block = len(passes) % workload.blocks
        if passes and block == 0 and measured >= seconds:
            return passes
        started = time.perf_counter()
        if tracer is None:
            passes.append(workload.run_pass(ledger, block))
        else:
            with tracer.span("bench.pass"):
                passes.append(workload.run_pass(ledger, block))
        measured += time.perf_counter() - started


def median(values: list[float]) -> float:
    """Median, or 0 when a failed pass timed nothing (the run then reports
    ``correct: false``)."""
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: float, passes: list[Any]) -> dict[str, float]:
    """Medians and percentiles over blocks, instances and cases of the
    fastest repeat of each."""
    cases_ms = [seconds * 1000 for seconds in fastest(case for p in passes for case in p.cases).values()]
    return {
        "setup_s": setup_s,
        "pass_s": median(pass_times(passes)),
        "time_to_online_s": median(list(fastest(timing for p in passes for timing in p.online).values())),
        "time_to_optimum_s": median(list(fastest(timing for p in passes for timing in p.optimum).values())),
        "case_p50_ms": median(cases_ms),
        "case_p90_ms": p90(cases_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(workload: Any, ledger: Any, seconds: float, untraced: list[Any], args: argparse.Namespace) -> dict[str, float]:
    import spans

    setup_tracer = spans.Tracer()
    for module, attr, name, count in spans.WRAPPED:
        if name.startswith("data."):
            setup_tracer.wrap(module, attr, name, count)
    try:
        workload.setup()
    finally:
        setup_tracer.remove()
    tracer = spans.install()
    try:
        traced = measure_passes(workload, ledger, seconds, tracer)
    finally:
        tracer.remove()
    tracer.write(
        os.path.join(checkout.OUT, f"spans-{args.workload}.json"),
        {"workload": args.workload, "seed": args.seed, "held_out": args.held_out, "passes": len(traced)},
    )
    metrics = spans.zeros()
    metrics.update(tracer.summary(len(traced)))
    metrics["data.generate.s"] = setup_tracer.summary(1).get("data.generate.s", 0.0)
    subsets = metrics["analysis.deviation.subsets"]
    # Each report also makes one truthful run; only the reruns per probed
    # subset count.
    reruns = metrics["analysis.deviation.reruns"] - metrics["analysis.deviation.calls"]
    metrics["analysis.deviation.reruns_per_subset"] = reruns / subsets if subsets else 0.0
    metrics["trace.pass_s"] = metrics["bench.pass.s"]
    metrics["trace.untraced_pass_s"] = statistics.fmean(p.seconds for p in untraced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - metrics["trace.untraced_pass_s"]
    # The benchmark's own code between layer calls: the part of the traced
    # pass that no layer's self time covers.
    metrics["trace.remainder_s"] = metrics["bench.self_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkout.load_rationd()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    units = declared_metrics("per_layer" if args.trace else "end_to_end")

    os.makedirs(checkout.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=checkout.OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.held_out)
        ledger = workloads.Ledger()
        setup_times: list[tuple[Any, float]] = []
        # A traced run splits its time between untraced and traced passes.
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = measure_passes(workload, ledger, seconds, setup_times=setup_times)
        if args.trace:
            values = per_layer(workload, ledger, seconds, passes, args)
        else:
            values = end_to_end(sum(fastest(setup_times).values()), passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"perfbench: workload {args.workload} computed no value for {missing}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

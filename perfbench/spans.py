"""Span tracing around rationd's public functions, installed from outside.

A :class:`Tracer` replaces module attributes (``rationd.online.run_online``
and so on) with wrappers that record a span (name, start, end, parent) per
call and update counters from the call's arguments and result. Wrappers go
on the attribute each caller looks up: ``rationd.offline`` and
``rationd.online`` each hold their own reference to
``solve_profitable_flow``, and ``rationd.analysis`` its own
``total_utility``, ``run_online`` and offline solvers, so each reference is
wrapped. :meth:`Tracer.remove` puts the originals back.

Counting runs inside a ``trace.count`` span, so its cost shows as the
``trace`` layer instead of inflating the layer that made the call. Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Iterator

from rationd import analysis, data, model, offline, online

CountHook = Callable[["Tracer", tuple, dict, Any, BaseException | None], None]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._originals: list[tuple[ModuleType, str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module: ModuleType, attr: str, name: str, count: CountHook | None = None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            # run_online calls run_online_with_trace: one run, one span.
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == name:
                return original(*args, **kwargs)
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if count is not None:
                    with tracer.span("trace.count"):
                        count(tracer, args, kwargs, None, exc)
                raise
            if count is not None:
                with tracer.span("trace.count"):
                    count(tracer, args, kwargs, result, None)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def summary(self, passes: int) -> dict[str, float]:
        """Per-pass metrics: ``<span>.calls``, ``<span>.s`` (inclusive),
        ``<span>.self_s``, ``<layer>.self_s``, and the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent), children in zip(self.spans, child_time):
            own = end - start - children
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        for key, value in self.counts.items():
            out[key] += value
        result = {key: value / passes for key, value in out.items()}
        result.update(self.maxima)
        return result

    def write(self, path: str, header: dict[str, Any]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": ["name", "start", "end", "parent"], "spans": self.spans}, handle)


def _count_match(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    graph = args[0]
    tracer.counts["online.match.candidates"] += len(graph.agents)
    tracer.counts["online.match.edges"] += len(graph.edges)
    if result is not None:
        tracer.counts["online.match.matched"] += len(result)


def _count_flow(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    network = args[0]
    tracer.counts["flow.nodes"] += network.num_nodes
    tracer.counts["flow.arcs"] += len(network.arcs)
    bits = max((abs(arc.cost).bit_length() for arc in network.arcs), default=0)
    tracer.maxima["flow.cost_bits_max"] = max(tracer.maxima["flow.cost_bits_max"], bits)
    if result is not None:
        tracer.counts["flow.units"] += result.total_flow


def _count_network(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    if result is not None:
        tracer.counts["offline.build_network.arcs"] += len(result[0].arcs)


def _count_oracle(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    if isinstance(exc, offline.OracleBudgetExceeded):
        tracer.counts["offline.oracle.refused"] += 1


def _count_rerun(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    tracer.counts["analysis.deviation.reruns"] += 1


def _count_deviation(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    if result is not None:
        tracer.counts["analysis.deviation.subsets"] += len(result.outcomes)


def _count_read(tracer: Tracer, args: tuple, kwargs: dict, result: Any, exc: BaseException | None) -> None:
    tracer.counts["data.read_instance.bytes"] += os.path.getsize(args[0])


# (module, attribute the callers look up, span name, counter)
WRAPPED: tuple[tuple[ModuleType, str, str, CountHook | None], ...] = (
    (data, "generate", "data.generate", None),
    (data, "write_instance", "data.write_instance", None),
    (data, "read_instance", "data.read_instance", _count_read),
    (data, "write_allocation", "data.write_allocation", None),
    (data, "export_metrics", "data.export_metrics", None),
    (model, "validate_instance", "model.validate_instance", None),
    (online, "validate_instance", "model.validate_instance", None),
    (offline, "validate_instance", "model.validate_instance", None),
    (model, "check_allocation", "model.check_allocation", None),
    (model, "total_utility", "model.total_utility", None),
    (analysis, "total_utility", "model.total_utility", None),
    (online, "run_online", "online.run", None),
    (online, "run_online_with_trace", "online.run", None),
    (analysis, "run_online", "online.run", _count_rerun),
    (online, "max_weight_capped_bmatching", "online.match", _count_match),
    (online, "solve_profitable_flow", "flow.solve", _count_flow),
    (offline, "solve_profitable_flow", "flow.solve", _count_flow),
    (offline, "build_model1_network", "offline.build_network", _count_network),
    (offline, "solve_offline_model1", "offline.solve_model1", None),
    (analysis, "solve_offline_model1", "offline.solve_model1", None),
    (offline, "solve_offline_tiebroken", "offline.tiebroken", None),
    (offline, "solve_exact_oracle", "offline.oracle", _count_oracle),
    (analysis, "solve_exact_oracle", "offline.oracle", _count_oracle),
    (analysis, "availability_deviation_report", "analysis.deviation", _count_deviation),
    (analysis, "build_charging_report", "analysis.certificate", None),
    (analysis, "max_matching_size", "analysis.max_matching_size", None),
    (analysis, "wasted_slots", "analysis.wasted_slots", None),
    (analysis, "compute_metrics", "analysis.compute_metrics", None),
)


COUNTERS = (
    "online.match.candidates",
    "online.match.edges",
    "online.match.matched",
    "flow.nodes",
    "flow.arcs",
    "flow.units",
    "flow.cost_bits_max",
    "offline.build_network.arcs",
    "offline.oracle.refused",
    "analysis.deviation.reruns",
    "analysis.deviation.subsets",
    "data.read_instance.bytes",
)


def zeros() -> dict[str, float]:
    """Every metric :meth:`Tracer.summary` can report, at zero, so a layer
    a workload never calls still reports its metrics."""
    names = {name for _module, _attr, name, _count in WRAPPED} | {"bench.pass", "trace.count"}
    out = {f"{name}.{kind}": 0.0 for name in names for kind in ("calls", "s", "self_s")}
    out.update({f"{name.split('.')[0]}.self_s": 0.0 for name in names})
    out.update({name: 0.0 for name in COUNTERS})
    return out


def install() -> Tracer:
    """A tracer with every wrapper of :data:`WRAPPED` in place."""
    tracer = Tracer()
    for module, attr, name, count in WRAPPED:
        tracer.wrap(module, attr, name, count)
    return tracer

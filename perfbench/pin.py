"""Pin the exact offline optimum of each ``scaled`` and ``probe`` generator
seed, independently of rationd's flow code.

The day/slot/agent network is built here from the instance (not through
``rationd.offline.build_model1_network``) and solved with networkx's network
simplex. A zero-cost source->sink bypass arc lets unused supply skip the
agents, so the fixed demand never forces an unprofitable assignment. The
optimum is stored as an exact fraction string in ``pins.json``; every pass
of the benchmark compares rationd's flow optimum against it.

Usage (one-off, about a minute per scaled seed):

    python3 perfbench/pin.py [scaled] [probe]
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import checkout

checkout.load_rationd()

import networkx as nx  # noqa: E402

from rationd import data  # noqa: E402
from rationd.model import Instance  # noqa: E402

import workloads  # noqa: E402


def offline_optimum(instance: Instance) -> Fraction:
    """Maximum total utility under daily supply and daily category quotas."""
    utilities = {
        (agent.id, day): agent.priority * instance.discount ** (day - 1)
        for agent in instance.agents
        for day in range(1, instance.num_days + 1)
        if agent.availability[day - 1]
    }
    scale = math.lcm(*(u.denominator for u in utilities.values())) if utilities else 1
    quotas = {c.id: c.daily_quota for c in instance.categories}
    total_supply = sum(instance.daily_supply)

    graph = nx.DiGraph()
    graph.add_node("source", demand=-total_supply)
    graph.add_node("sink", demand=total_supply)
    graph.add_edge("source", "sink", capacity=total_supply, weight=0)
    for day in range(1, instance.num_days + 1):
        graph.add_edge("source", ("day", day), capacity=instance.daily_supply[day - 1], weight=0)
        for cat_id, quota in quotas.items():
            graph.add_edge(("day", day), ("slot", cat_id, day), capacity=quota[day - 1], weight=0)
    for agent in instance.agents:
        graph.add_edge(("agent", agent.id), "sink", capacity=1, weight=0)
        for day in range(1, instance.num_days + 1):
            if not agent.availability[day - 1]:
                continue
            utility = utilities[(agent.id, day)]
            cost = -(utility.numerator * (scale // utility.denominator))
            for cat_id in sorted(agent.eligible & quotas.keys()):
                graph.add_edge(("slot", cat_id, day), ("agent", agent.id), capacity=1, weight=cost)
    cost, _flows = nx.network_simplex(graph)
    return Fraction(-cost, scale)


def main(argv: list[str]) -> int:
    names = argv or ["scaled", "probe"]
    pins = workloads.load_pins()
    for name in names:
        cls = workloads.WORKLOADS[name]
        for seed in (cls.config.seed, workloads.HELD_OUT_SEEDS[name]):
            started = time.perf_counter()
            value = offline_optimum(data.generate(replace(cls.config, seed=seed)))
            pins.setdefault(name, {})[str(seed)] = str(value)
            print(f"{name} seed {seed}: {float(value):.6f} ({time.perf_counter() - started:.1f}s)")
            with open(workloads.PINS_PATH, "w", encoding="utf-8") as handle:
                json.dump(pins, handle, indent=2, sort_keys=True)
                handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

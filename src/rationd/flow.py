"""Integer min-cost flow via successive shortest augmenting paths.

The solver answers one question: among all integral flows, of any value,
which one has minimum total cost? It augments along cheapest residual
source-to-sink paths while those paths have strictly negative cost, so
zero-profit flow is never pushed. Costs are exact integers (arbitrary
precision); callers scale rational weights to integers before building a
network.

Potentials keep reduced costs non-negative after the first iteration, which
uses a label-correcting pass to absorb negative arc costs (and to reject
networks containing a negative-cost cycle). Augmentation is batched: after
each shortest-path computation a blocking flow is pushed through the
zero-reduced-cost subgraph, so large assignment-shaped networks need one
Dijkstra per distinct path-cost level rather than one per unit of flow.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple


class NegativeCycleError(ValueError):
    """The network contains a negative-cost directed cycle."""


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: int
    cost: int


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with integer capacities and integer costs.

    Construction validates shape: node ids in range, no self-loops, no arc
    entering the source or leaving the sink, non-negative capacities.
    Parallel arcs are allowed.
    """

    num_nodes: int
    source: int
    sink: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("a flow network needs at least a source and a sink")
        if not (0 <= self.source < self.num_nodes and 0 <= self.sink < self.num_nodes):
            raise ValueError("source/sink out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        for i, arc in enumerate(self.arcs):
            if not (0 <= arc.tail < self.num_nodes and 0 <= arc.head < self.num_nodes):
                raise ValueError(f"arc {i} references a node out of range")
            if arc.tail == arc.head:
                raise ValueError(f"arc {i} is a self-loop")
            if arc.head == self.source:
                raise ValueError(f"arc {i} enters the source")
            if arc.tail == self.sink:
                raise ValueError(f"arc {i} leaves the sink")
            if not isinstance(arc.capacity, int) or isinstance(arc.capacity, bool) or arc.capacity < 0:
                raise ValueError(f"arc {i} capacity must be a non-negative integer")
            if not isinstance(arc.cost, int) or isinstance(arc.cost, bool):
                raise ValueError(f"arc {i} cost must be an integer")


@dataclass(frozen=True)
class FlowResult:
    arc_flows: tuple[int, ...]
    total_flow: int
    total_cost: int


def _initial_potentials(n: int, adj: list[list[int]], head: list[int], cap: list[int], cost: list[int], source: int) -> list[int]:
    # Label-correcting (SPFA). A shortest path is simple, so any tentative
    # path of n or more arcs certifies a negative cycle.
    INF = None
    dist: list[int | None] = [INF] * n
    dist[source] = 0
    hops = [0] * n
    in_queue = [False] * n
    queue: deque[int] = deque([source])
    in_queue[source] = True
    while queue:
        u = queue.popleft()
        in_queue[u] = False
        du = dist[u]
        for e in adj[u]:
            if cap[e] <= 0:
                continue
            v = head[e]
            nd = du + cost[e]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                hops[v] = hops[u] + 1
                if hops[v] >= n:
                    raise NegativeCycleError("negative-cost cycle reachable from the source")
                if not in_queue[v]:
                    queue.append(v)
                    in_queue[v] = True
    return [0 if d is None else d for d in dist]


def solve_profitable_flow(network: FlowNetwork) -> FlowResult:
    """Minimum-cost integral flow, of whatever value that takes.

    Augmentation stops as soon as the cheapest residual path cost is
    non-negative, so the result minimizes cost over *all* flows and carries
    no zero-cost padding. Raises :class:`NegativeCycleError` for networks
    with a reachable negative-cost cycle.
    """
    n = network.num_nodes
    m = len(network.arcs)
    source, sink = network.source, network.sink

    # Residual arcs: 2*i forward, 2*i + 1 backward.
    head = [0] * (2 * m)
    cap = [0] * (2 * m)
    cost = [0] * (2 * m)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, arc in enumerate(network.arcs):
        head[2 * i] = arc.head
        cap[2 * i] = arc.capacity
        cost[2 * i] = arc.cost
        adj[arc.tail].append(2 * i)
        head[2 * i + 1] = arc.tail
        cap[2 * i + 1] = 0
        cost[2 * i + 1] = -arc.cost
        adj[arc.head].append(2 * i + 1)

    if any(arc.cost < 0 for arc in network.arcs):
        potential = _initial_potentials(n, adj, head, cap, cost, source)
    else:
        potential = [0] * n

    total_flow = 0
    total_cost = 0
    unreached = object()

    while True:
        # Dijkstra on reduced costs; stops once the sink is settled.
        dist: list = [unreached] * n
        dist[source] = 0
        settled = [False] * n
        heap: list[tuple[int, int]] = [(0, source)]
        sink_dist = None
        while heap:
            d, u = heapq.heappop(heap)
            if settled[u]:
                continue
            settled[u] = True
            if u == sink:
                sink_dist = d
                break
            pu = potential[u]
            for e in adj[u]:
                if cap[e] <= 0:
                    continue
                v = head[e]
                if settled[v]:
                    continue
                nd = d + cost[e] + pu - potential[v]
                if dist[v] is unreached or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if sink_dist is None:
            break
        # Cost of the cheapest residual path in original costs.
        path_cost = sink_dist + potential[sink] - potential[source]
        if path_cost >= 0:
            break
        # Settled nodes got their exact distance; everything else is at
        # least as far as the sink, so capping at sink_dist keeps reduced
        # costs non-negative.
        for v in range(n):
            if settled[v] and dist[v] is not unreached:
                potential[v] += dist[v] if dist[v] < sink_dist else sink_dist
            else:
                potential[v] += sink_dist

        pushed = _blocking_flow(n, adj, head, cap, cost, potential, source, sink)
        if pushed == 0:
            break
        total_flow += pushed
        total_cost += pushed * path_cost

    flows = tuple(cap[2 * i + 1] for i in range(m))
    return FlowResult(flows, total_flow, total_cost)


def _blocking_flow(
    n: int,
    adj: list[list[int]],
    head: list[int],
    cap: list[int],
    cost: list[int],
    potential: list[int],
    source: int,
    sink: int,
) -> int:
    """Push as much flow as possible through zero-reduced-cost residual arcs.

    Every source-to-sink path in this subgraph has the same original cost,
    so the caller can account cost per unit pushed.
    """

    def admissible(u: int, e: int) -> bool:
        return cap[e] > 0 and cost[e] + potential[u] - potential[head[e]] == 0

    pushed_total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue: deque[int] = deque([source])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = head[e]
                if level[v] < 0 and admissible(u, e):
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[sink] < 0:
            break

        # Iterative advance/retreat search over the level graph.
        iters = [0] * n
        path: list[int] = []
        progressed = False
        node = source
        while True:
            if node == sink:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                pushed_total += bottleneck
                progressed = True
                # Restart the walk from just before the first saturated hop
                # (pushing the bottleneck saturates at least one).
                cut = next(i for i, e in enumerate(path) if cap[e] == 0)
                del path[cut:]
                node = head[path[-1]] if path else source
                continue
            advanced = False
            while iters[node] < len(adj[node]):
                e = adj[node][iters[node]]
                v = head[e]
                if level[v] == level[node] + 1 and admissible(node, e):
                    path.append(e)
                    node = v
                    advanced = True
                    break
                iters[node] += 1
            if advanced:
                continue
            # Dead end: prune the node and step back.
            level[node] = -1
            if not path:
                break
            e = path.pop()
            node = head[e ^ 1]
            iters[node] += 1
        if not progressed:
            break
    return pushed_total

"""Integer min-cost flow via successive shortest augmenting paths.

The solver answers one question: among all integral flows, of any value,
which one has minimum total cost? It augments along cheapest residual
source-to-sink paths while those paths have strictly negative cost, so
zero-profit flow is never pushed. Costs are exact integers (arbitrary
precision); callers scale rational weights to integers before building a
network.

Each round runs one shortest-path search and pushes the bottleneck along
the path it found. The first round's search is label correcting: it takes
negative arc costs, rejects networks containing a negative-cost cycle and
sets the node potentials that keep reduced costs non-negative, so every
later search is a Dijkstra search. Once a search returns the same path cost
as the round before, the network has shown a cost level that holds more
than one path; from then on every round also drains its level with a
blocking flow through the zero-reduced-cost subgraph. So a network whose
path costs are all distinct takes one search per unit of flow and never
builds a level graph, and one whose levels hold many paths takes one search
per distinct path cost plus at most two: the search that first repeats a
cost and the last, which finds no profitable path.

Every Dijkstra search and every level search of a blocking flow stops at
the sink. A Dijkstra search ends once no node on its heap is nearer than
the sink's label. The nodes tied with the sink stay unsettled: they would
take the sink's distance as their potential either way, and a predecessor
changes only on a strict improvement, so the path and the potentials are
those of a search run until it pops the sink. A level search ends when it
labels the sink and keeps only the sink on that level. A node's
zero-reduced-cost arcs are listed when a level search or an advance first
needs them.
"""

from __future__ import annotations

import heapq
import operator
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple


class NegativeCycleError(ValueError):
    """The network contains a negative-cost directed cycle."""


class Arc(NamedTuple):
    tail: int
    head: int
    capacity: int
    cost: int


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class FlowNetwork:
    """A directed network with integer capacities and integer costs, held as
    four columns: arc ``i`` runs from ``tails[i]`` to ``heads[i]`` with
    capacity ``capacities[i]`` at ``costs[i]`` per unit.

    Construction stores each column as a tuple and validates shape: columns
    of equal length, integer node ids in range, no self-loops, no arc
    entering the source or leaving the sink, non-negative integer
    capacities and integer costs. Parallel arcs are allowed.
    """

    num_nodes: int
    source: int
    sink: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    capacities: tuple[int, ...]
    costs: tuple[int, ...]

    def __post_init__(self) -> None:
        n, source, sink = self.num_nodes, self.source, self.sink
        if not (_is_int(n) and _is_int(source) and _is_int(sink)):
            raise ValueError("num_nodes, source and sink must be integers")
        if n < 2:
            raise ValueError("a flow network needs at least a source and a sink")
        if not (0 <= source < n and 0 <= sink < n):
            raise ValueError("source/sink out of range")
        if source == sink:
            raise ValueError("source and sink must differ")
        columns = tuple(map(tuple, (self.tails, self.heads, self.capacities, self.costs)))
        tails, heads, caps, costs = columns
        for name, column in zip(("tails", "heads", "capacities", "costs"), columns):
            object.__setattr__(self, name, column)
        if not len(tails) == len(heads) == len(caps) == len(costs):
            raise ValueError("arc columns must have equal lengths")
        if not tails:
            return
        # A few passes over the columns accept every well-formed network;
        # only a network that fails one is walked arc by arc, to name the
        # first bad arc (or to accept int subclasses, which the type pass
        # does not).
        nodes = tails + heads
        if (
            {*map(type, nodes), *map(type, caps), *map(type, costs)} == {int}
            and min(nodes) >= 0
            and max(nodes) < n
            and not any(map(operator.eq, tails, heads))
            and source not in heads
            and sink not in tails
            and min(caps) >= 0
        ):
            return
        for i, (tail, head, capacity, cost) in enumerate(zip(*columns)):
            if not (_is_int(tail) and _is_int(head)):
                raise ValueError(f"arc {i} node ids must be integers")
            if not (0 <= tail < n and 0 <= head < n):
                raise ValueError(f"arc {i} references a node out of range")
            if tail == head:
                raise ValueError(f"arc {i} is a self-loop")
            if head == source:
                raise ValueError(f"arc {i} enters the source")
            if tail == sink:
                raise ValueError(f"arc {i} leaves the sink")
            if not _is_int(capacity) or capacity < 0:
                raise ValueError(f"arc {i} capacity must be a non-negative integer")
            if not _is_int(cost):
                raise ValueError(f"arc {i} cost must be an integer")

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs, one :class:`Arc` per column position, built on each read."""
        return tuple(map(Arc, self.tails, self.heads, self.capacities, self.costs))


@dataclass(frozen=True)
class FlowResult:
    """A solved flow; ``rounds`` counts the shortest-path searches it took,
    the last of which found no profitable path (none run when no arc has a
    negative cost)."""

    arc_flows: tuple[int, ...]
    total_flow: int
    total_cost: int
    rounds: int


def _first_search(
    n: int, adj: list[list[int]], head: list[int], cap: list[int], cost: list[int], source: int, pred: list[int]
) -> list[int | None]:
    """Shortest distances from the source, by label correcting (SPFA), which
    takes negative arc costs; records each node's predecessor arc. A
    shortest path is simple, so any tentative path of n or more arcs
    certifies a negative cycle."""
    dist: list[int | None] = [None] * n
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
                pred[v] = e
                hops[v] = hops[u] + 1
                if hops[v] >= n:
                    raise NegativeCycleError("negative-cost cycle reachable from the source")
                if not in_queue[v]:
                    queue.append(v)
                    in_queue[v] = True
    return dist


def solve_profitable_flow(network: FlowNetwork) -> FlowResult:
    """Minimum-cost integral flow, of whatever value that takes.

    Augmentation stops as soon as the cheapest residual path cost is
    non-negative, so the result minimizes cost over *all* flows and carries
    no zero-cost padding. Raises :class:`NegativeCycleError` for networks
    with a reachable negative-cost cycle.
    """
    n = network.num_nodes
    source, sink = network.source, network.sink
    tails, heads, caps, costs = network.tails, network.heads, network.capacities, network.costs
    m = len(tails)
    if min(costs, default=0) >= 0:
        # Without a negative arc no path is profitable; no search runs.
        return FlowResult((0,) * m, 0, 0, 0)

    # Residual arcs: 2*i forward, 2*i + 1 backward.
    head = [0] * (2 * m)
    head[0::2] = heads
    head[1::2] = tails
    cap = [0] * (2 * m)
    cap[0::2] = caps
    cost = [0] * (2 * m)
    cost[0::2] = costs
    cost[1::2] = [-c for c in costs]
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, u, v in zip(range(0, 2 * m, 2), tails, heads):
        adj[u].append(e)
        adj[v].append(e + 1)

    # The first round's search also sets the potentials: exact distances
    # from the source make every residual arc's reduced cost non-negative
    # and those of every shortest path zero.
    pred = [-1] * n
    first = _first_search(n, adj, head, cap, cost, source, pred)
    potential = [0 if d is None else d for d in first]
    path_cost = first[sink]
    rounds = 1
    total_flow = 0
    total_cost = 0
    last_cost = None
    drain = False
    # Infinity compares above every int, however large.
    unreached = float("inf")

    while path_cost is not None and path_cost < 0:
        path = []
        v = sink
        while v != source:
            e = pred[v]
            path.append(e)
            v = head[e ^ 1]
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        # Two searches in a row at one cost show levels that hold several
        # paths; draining a level costs a level graph, so start only then.
        drain = drain or path_cost == last_cost
        last_cost = path_cost
        if drain:
            pushed += _blocking_flow(n, adj, head, cap, cost, potential, source, sink)
        total_flow += pushed
        total_cost += pushed * path_cost

        # Dijkstra on reduced costs, recording each node's predecessor arc;
        # stops once no node on the heap is nearer than the sink's label,
        # which is then final. Reduced costs are non-negative, so an arc into
        # a settled node never improves its distance.
        rounds += 1
        dist: list = [unreached] * n
        dist[source] = 0
        heap: list[tuple[int, int]] = [(0, source)]
        while heap and heap[0][0] < dist[sink]:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            base = d + potential[u]
            for e in adj[u]:
                if cap[e] > 0:
                    v = head[e]
                    nd = base + cost[e] - potential[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        pred[v] = e
                        heapq.heappush(heap, (nd, v))
        d = dist[sink]
        if d == unreached:
            break
        # Cost of the cheapest residual path in original costs.
        path_cost = d + potential[sink] - potential[source]
        # Nodes nearer than the sink were settled with their exact distance;
        # everything else is at least as far as the sink, so capping at d
        # keeps reduced costs non-negative. Every arc of the path found now
        # has reduced cost zero.
        if path_cost < 0:
            potential = [p + (x if x < d else d) for p, x in zip(potential, dist)]

    flows = tuple(cap[1::2])
    return FlowResult(flows, total_flow, total_cost, rounds)


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
    # Each node's zero-reduced-cost arcs, listed when a search first needs
    # them. Potentials stay fixed here, and an arc's reverse has reduced
    # cost zero when it has, so pushing flow changes only which of these
    # arcs have capacity.
    tight: list[list[int] | None] = [None] * n

    def tight_arcs(u: int) -> list[int]:
        arcs = tight[u]
        if arcs is None:
            pu = potential[u]
            arcs = tight[u] = [e for e in adj[u] if cost[e] + pu == potential[head[e]]]
        return arcs

    pushed_total = 0
    while True:
        level = _levels(n, head, cap, tight_arcs, source, sink)
        if level is None:
            return pushed_total

        # Advance/retreat search over the level graph. A node comes back to
        # the top of the path only when its path arc saturated or led to a
        # dead end, so its scan resumes after that arc.
        scans: list = [None] * n
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                bottleneck = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= bottleneck
                    cap[e ^ 1] += bottleneck
                pushed_total += bottleneck
                # Restart the walk from just before the first saturated hop
                # (pushing the bottleneck saturates at least one).
                cut = next(i for i, e in enumerate(path) if cap[e] == 0)
                del path[cut:]
                node = head[path[-1]] if path else source
                continue
            scan = scans[node]
            if scan is None:
                scan = scans[node] = iter(tight_arcs(node))
            next_level = level[node] + 1
            for e in scan:
                if cap[e] > 0 and level[head[e]] == next_level:
                    path.append(e)
                    node = head[e]
                    break
            else:
                # Dead end: prune the node and step back.
                level[node] = -1
                if not path:
                    break
                node = head[path.pop() ^ 1]


def _levels(
    n: int, head: list[int], cap: list[int], tight_arcs: Callable[[int], list[int]], source: int, sink: int
) -> list[int] | None:
    """Breadth-first levels over the zero-reduced-cost arcs with capacity,
    or None when the sink is unreachable. The search stops when it labels
    the sink; the other nodes of the sink's level cannot lead to it, so they
    stay unlabelled (-1)."""
    level = [-1] * n
    level[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for u in frontier:
            for e in tight_arcs(u):
                if cap[e] > 0:
                    v = head[e]
                    if level[v] < 0:
                        if v == sink:
                            for w in reached:
                                level[w] = -1
                            level[sink] = depth
                            return level
                        level[v] = depth
                        reached.append(v)
        frontier = reached
    return None

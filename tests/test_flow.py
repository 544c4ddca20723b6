import hashlib
import random
import re

import pytest

from rationd.data import GeneratorConfig, SupplyModel, generate
from rationd.flow import Arc, FlowNetwork, NegativeCycleError, solve_profitable_flow
from rationd.offline import TieBreakOrder, build_model1_network

from helpers import tie_heavy_instance
from oracles import min_cost_by_enumeration, unit_path_costs


def twin_arc_network():
    # s -> v (cap 2, cost 0); v -> t twice (cap 1 at cost -3 and cap 1 at cost -1)
    return FlowNetwork(3, 0, 2, (Arc(0, 1, 2, 0), Arc(1, 2, 1, -3), Arc(1, 2, 1, -1)))


def test_unbounded_takes_both_profitable_arcs():
    result = solve_profitable_flow(twin_arc_network())
    assert result.total_flow == 2
    assert result.total_cost == -4


def test_zero_profit_flow_is_not_pushed():
    network = FlowNetwork(3, 0, 2, (Arc(0, 1, 5, 0), Arc(1, 2, 5, 0)))
    result = solve_profitable_flow(network)
    assert result.total_flow == 0 and result.total_cost == 0


def test_negative_cycle_rejected():
    network = FlowNetwork(
        4, 0, 3, (Arc(0, 1, 1, 0), Arc(1, 2, 1, -2), Arc(2, 1, 1, 1), Arc(2, 3, 1, 0))
    )
    with pytest.raises(NegativeCycleError):
        solve_profitable_flow(network)


MALFORMED_NETWORKS = [
    ((2, 0, 1, (Arc(1, 1, 1, 0),)), "arc 0 is a self-loop"),
    ((2, 0, 1, (Arc(1, 0, 1, 0),)), "arc 0 enters the source"),
    ((1, 0, 0, ()), "at least a source and a sink"),
    ((3, 0, 2, (Arc(0, 3, 1, 0),)), "arc 0 references a node out of range"),
    ((3, 0, 2, (Arc(-1, 1, 1, 0),)), "arc 0 references a node out of range"),
    ((2, 0, 1, (Arc(0, 1, True, 0),)), "arc 0 capacity must be a non-negative integer"),
    ((2, 0, 1, (Arc(0, 1, 1, False),)), "arc 0 cost must be an integer"),
    ((2, 0, 1, (Arc(0, 1, 1, 0.5),)), "arc 0 cost must be an integer"),
    ((3, 0, 2, (Arc(2, 1, 1, 0),)), "arc 0 leaves the sink"),
    ((2, 0, 0, ()), "source and sink must differ"),
    ((2, 0, 5, ()), "source/sink out of range"),
    ((2, 0, 1, (Arc(0, 1, -1, 0),)), "arc 0 capacity must be a non-negative integer"),
    # The first bad arc is named, wherever it sits and whatever else is wrong.
    ((4, 0, 3, (Arc(0, 1, 1, 0), Arc(1, 2, 1, 0), Arc(2, 0, 1, 0), Arc(3, 3, 1, 0))), "arc 2 enters the source"),
]


def test_construction_rejects_malformed_networks():
    for args, message in MALFORMED_NETWORKS:
        with pytest.raises(ValueError, match=re.escape(message)):
            FlowNetwork(*args)


def test_construction_rejects_node_ids_that_are_not_ints():
    # Float node ids used to pass construction and fail in the solver with
    # a bare TypeError; bools are refused as they are for capacities.
    cases = [
        ((3, 0, 2, (Arc(0, 1.0, 1, 0), Arc(1.0, 2, 1, -3))), "arc 0 node ids must be integers"),
        ((3, 0, 2, (Arc(0, 1, 1, 0), Arc(True, 2, 1, -3))), "arc 1 node ids must be integers"),
        ((3.0, 0, 2, ()), "num_nodes, source and sink must be integers"),
        ((3, False, 2, ()), "num_nodes, source and sink must be integers"),
        ((3, 0, 2.0, ()), "num_nodes, source and sink must be integers"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            FlowNetwork(*args)


def test_construction_accepts_int_subclasses():
    class Units(int):
        pass

    network = FlowNetwork(3, 0, 2, (Arc(0, Units(1), Units(2), 0), Arc(Units(1), 2, 1, Units(-3))))
    assert solve_profitable_flow(network).total_cost == -3


def random_layered_network(rng: random.Random) -> FlowNetwork:
    """Small random DAG-ish network with mixed-sign costs, caps <= 2."""
    nodes = rng.randint(3, 6)
    arcs = []
    for _ in range(rng.randint(2, 8)):
        tail = rng.randrange(0, nodes - 1)
        head = rng.randrange(tail + 1, nodes)  # forward only: no cycles
        if tail == head or head == 0 or tail == nodes - 1:
            continue
        arcs.append(Arc(tail, head, rng.randint(0, 2), rng.randint(-4, 2)))
    return FlowNetwork(nodes, 0, nodes - 1, tuple(arcs))


def check_result_invariants(network: FlowNetwork, result):
    balance = [0] * network.num_nodes
    for units, arc in zip(result.arc_flows, network.arcs):
        assert 0 <= units <= arc.capacity
        balance[arc.tail] += units
        balance[arc.head] -= units
    for node in range(network.num_nodes):
        if node not in (network.source, network.sink):
            assert balance[node] == 0
    assert balance[network.source] == result.total_flow
    assert result.total_cost == sum(u * a.cost for u, a in zip(result.arc_flows, network.arcs))


def test_optimal_against_enumeration_on_random_networks():
    rng = random.Random(2024)
    for _ in range(300):
        network = random_layered_network(rng)
        result = solve_profitable_flow(network)
        check_result_invariants(network, result)
        assert result.total_cost == min_cost_by_enumeration(network)


def test_big_integer_costs_are_exact():
    huge = 10**40
    network = FlowNetwork(3, 0, 2, (Arc(0, 1, 1, 0), Arc(1, 2, 1, -huge - 7)))
    result = solve_profitable_flow(network)
    assert result.total_cost == -huge - 7


def random_network_without_negative_cycles(rng: random.Random) -> FlowNetwork:
    """Small random network with cycles, parallel arcs and mixed-sign costs.
    Each cost is a non-negative reduced cost plus a node-potential
    difference, so every cycle costs its reduced costs' sum, never less
    than zero."""
    nodes = rng.randint(2, 7)
    potential = [rng.randint(-6, 6) for _ in range(nodes)]
    arcs = []
    for _ in range(rng.randint(1, 12)):
        tail, head = rng.sample(range(nodes), 2)
        if head == 0 or tail == nodes - 1:
            continue
        reduced = rng.randint(0, 4)
        arcs.append(Arc(tail, head, rng.randint(0, 3), reduced + potential[tail] - potential[head]))
    return FlowNetwork(nodes, 0, nodes - 1, tuple(arcs))


def networkx_graph(nx, network: FlowNetwork):
    """The network as a networkx DiGraph; arc i runs through its own middle
    node ``num_nodes + i``, so parallel arcs stay apart."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(network.num_nodes + len(network.arcs)))
    for i, arc in enumerate(network.arcs):
        middle = network.num_nodes + i
        graph.add_edge(arc.tail, middle, capacity=arc.capacity, weight=arc.cost)
        graph.add_edge(middle, arc.head, capacity=arc.capacity, weight=0)
    return graph


def networkx_min_cost(nx, network: FlowNetwork) -> int:
    """The least cost of any flow, by networkx: the graph sends exactly all
    the source can give, and the units the network should not carry take a
    zero-cost bypass from source to sink."""
    limit = sum(a.capacity for a in network.arcs if a.tail == network.source)
    graph = networkx_graph(nx, network)
    bypass = network.num_nodes + len(network.arcs)
    graph.add_edge(network.source, bypass, capacity=limit, weight=0)
    graph.add_edge(bypass, network.sink, capacity=limit, weight=0)
    graph.nodes[network.source]["demand"] = -limit
    graph.nodes[network.sink]["demand"] = limit
    return nx.min_cost_flow_cost(graph)


def test_min_cost_agrees_with_networkx_on_random_networks():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1990)
    profitable = 0
    for _ in range(300):
        network = random_network_without_negative_cycles(rng)
        result = solve_profitable_flow(network)
        check_result_invariants(network, result)
        assert result.total_cost == networkx_min_cost(nx, network)
        profitable += result.total_cost < 0
    assert profitable >= 40


def test_min_cost_agrees_with_networkx_on_tie_heavy_hub_networks():
    # Offline networks whose cost levels hold many paths, so most solves
    # drain levels with a blocking flow; tie-broken networks give nearly
    # every path its own cost. Every path ends on a capacity-1 agent arc,
    # so a solve that pushed more units than it made profitable searches
    # drained a level.
    nx = pytest.importorskip("networkx")
    rng = random.Random(314)
    drained = 0
    for _ in range(40):
        instance = tie_heavy_instance(rng, rng.randint(20, 60), rng.randint(2, 5))
        order = list(instance.agent_order())
        rng.shuffle(order)
        for tie_break in (None, TieBreakOrder(tuple(order))):
            network, _rmap = build_model1_network(instance, tie_break)
            result = solve_profitable_flow(network)
            check_result_invariants(network, result)
            assert result.total_cost == networkx_min_cost(nx, network)
            drained += result.rounds <= result.total_flow
    assert drained >= 20


def test_tie_free_network_takes_one_search_per_unit():
    # Every unit has its own path cost (-6, -5, ..., -1): no level holds a
    # second path, so each search pushes one unit and the last finds none.
    arcs = [Arc(0, 1, 6, 0)] + [Arc(1, 2, 1, -k) for k in range(1, 7)]
    result = solve_profitable_flow(FlowNetwork(3, 0, 2, tuple(arcs)))
    assert result.total_flow == 6 and result.total_cost == -21
    assert result.rounds == result.total_flow + 1


def test_tie_heavy_network_takes_about_one_search_per_cost_level():
    rng = random.Random(0)
    instance = tie_heavy_instance(rng, 300, 10, max_cap=10)
    network, _rmap = build_model1_network(instance)
    result = solve_profitable_flow(network)
    costs = unit_path_costs(network)
    levels = len(set(costs))
    assert sum(costs) == result.total_cost
    assert len(costs) > 2 * levels + 1  # one search per unit would fail below
    assert result.rounds <= 2 * levels


def test_max_flow_min_cost_agrees_with_networkx_on_random_networks():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1991)
    flowing = 0
    for _ in range(300):
        network = random_network_without_negative_cycles(rng)
        # A bonus on every unit leaving the source that outweighs any cost
        # difference makes the cheapest flow a maximum one.
        bonus = 1 + sum(abs(a.cost) * a.capacity for a in network.arcs)
        boosted = FlowNetwork(
            network.num_nodes,
            network.source,
            network.sink,
            tuple(Arc(a.tail, a.head, a.capacity, a.cost - bonus) if a.tail == network.source else a for a in network.arcs),
        )
        result = solve_profitable_flow(boosted)
        check_result_invariants(boosted, result)
        graph = networkx_graph(nx, network)
        flows = nx.max_flow_min_cost(graph, network.source, network.sink)
        assert result.total_flow == nx.maximum_flow_value(graph, network.source, network.sink)
        assert result.total_cost + bonus * result.total_flow == nx.cost_of_flow(graph, flows)
        flowing += result.total_flow > 0
    assert flowing > 100


# sha256 of every (arc_flows, rounds, total_cost) of the networks below, in
# order. A change to the search or drain rules that moves any flow, or any
# search count, changes it; re-pin only for a change meant to do that.
SOLVER_DIGEST = "c096d9c4640ca5a397f6e3fa61ce23e437b5763d32c0d7c02110d6dca2776eda"


def pinned_networks():
    rng = random.Random(2024)
    yield from (random_layered_network(rng) for _ in range(300))
    rng = random.Random(1990)
    yield from (random_network_without_negative_cycles(rng) for _ in range(300))
    rng = random.Random(314)
    for _ in range(40):
        instance = tie_heavy_instance(rng, rng.randint(20, 60), rng.randint(2, 5))
        order = list(instance.agent_order())
        rng.shuffle(order)
        for tie_break in (None, TieBreakOrder(tuple(order))):
            yield build_model1_network(instance, tie_break)[0]
    # The benchmark's probe instance (PROBE_CONFIG in perfbench/workloads.py).
    probe = generate(
        GeneratorConfig(
            num_agents=100,
            num_days=4,
            num_hospitals=4,
            availability_density=0.5,
            supply_model=SupplyModel(supply_low=4, supply_high=7, quota_low=0, quota_high=2),
            seed=7,
        )
    )
    for tie_break in (None, TieBreakOrder(tuple(probe.agent_order()))):
        yield build_model1_network(probe, tie_break)[0]


def test_solver_results_match_their_pinned_digest():
    digest = hashlib.sha256()
    for network in pinned_networks():
        result = solve_profitable_flow(network)
        digest.update(repr((result.arc_flows, result.rounds, result.total_cost)).encode())
    assert digest.hexdigest() == SOLVER_DIGEST

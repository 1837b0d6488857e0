"""Stage pricing: the per-graph indices, the per-stage topology and the
per-trial node re-estimate against the quadratic scans they replaced
(kept here as references), and the DP's integer price of a candidate
against :func:`optimal_mapping`."""

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiler.partition as partition
from repro.compiler import (
    CostModel,
    build_geometries,
    condense,
    dp_partition,
    optimal_mapping,
)
from repro.compiler.closures import closure_masks
from repro.compiler.cost import spill_flags, stage_mask_of, stage_topology
from repro.compiler.partition import shard_graph, stage_pricer
from repro.config import default_arch, small_test_arch
from repro.graph import GraphBuilder
from repro.graph.models import get_model

_BLOCKS = ("conv", "conv_relu", "pool", "diamond", "residual")


@st.composite
def condensed_graphs(draw):
    """Random chains of conv / pool / diamond / residual blocks."""
    b = GraphBuilder("random")
    x = b.input((8, 8, 4))
    for block in draw(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=6)):
        if block == "conv":
            x = b.conv(x, 4, 3, padding=1)
        elif block == "conv_relu":
            x = b.relu(b.conv(x, 4, 3, padding=1))
        elif block == "pool":
            x = b.maxpool(x, 3, 1, 1)
        elif block == "diamond":
            x = b.add(b.relu(b.conv(x, 4, 3, padding=1)), b.conv(x, 4, 1))
        else:
            x = b.add(b.conv(x, 4, 3, padding=1), x)
    b.output(x)
    return condense(b.build())


@st.composite
def stages(draw):
    """A condensed graph, a non-empty node subset of it and its geometries."""
    cgraph = draw(condensed_graphs())
    indices = draw(st.sets(st.sampled_from(range(len(cgraph))), min_size=1))
    arch = small_test_arch(num_cores=16)
    geometries = build_geometries(cgraph, arch)
    nodes = sorted(indices)
    return cgraph, nodes, [geometries[cgraph.nodes[i].name] for i in nodes], arch


def _scan_consumers(cgraph, node):
    return sorted(
        other.index
        for other in cgraph.nodes
        if any(ni.tensor == node.output for ni in other.inputs)
    )


def _scan_spill(cgraph, nodes):
    """A node spills when a node outside the stage reads it, the graph
    marks it as an output, or nothing reads it."""
    inside = {node.index for node in nodes}
    return {
        node.name: cgraph.is_graph_output(node)
        or not _scan_consumers(cgraph, node)
        or any(c not in inside for c in _scan_consumers(cgraph, node))
        for node in nodes
    }


def _scan_topology(cgraph, nodes):
    outputs = {node.output for node in nodes}
    spill = _scan_spill(cgraph, nodes)
    return [
        (
            node.main_input.tensor not in outputs,
            spill[node.name],
            sum(
                1
                for other in nodes
                if other is not node
                and any(ni.tensor == node.output for ni in other.inputs)
            ),
        )
        for node in nodes
    ]


def _rescan_mapping(geoms, arch, cost_model, topology):
    """The greedy duplication law, every trial priced from scratch."""
    replicas = {g.node.name: 1 for g in geoms}
    estimate = cost_model.estimate_stage(geoms, replicas, topology)
    cores_used = sum(g.cores_min for g in geoms)
    blocked = set()
    for _ in range(4 * arch.num_cores):
        candidates = [
            (cost.latency, geom)
            for cost, geom in zip(estimate.node_costs, geoms)
            if geom.node.name not in blocked
            and replicas[geom.node.name] < geom.max_replicas
            and cores_used + geom.cores_min <= arch.num_cores
        ]
        candidates.sort(key=lambda item: (-item[0], item[1].node.name))
        for _, geom in candidates:
            trial = dict(replicas)
            trial[geom.node.name] += 1
            trial_estimate = cost_model.estimate_stage(geoms, trial, topology)
            if trial_estimate.cost < estimate.cost:
                replicas, estimate = trial, trial_estimate
                cores_used += geom.cores_min
                break
            blocked.add(geom.node.name)
        else:
            break
    return replicas, estimate


@settings(max_examples=60, deadline=None)
@given(condensed_graphs())
def test_consumer_index_equals_scan(cgraph):
    for node in cgraph.nodes:
        assert cgraph.consumers(node) == _scan_consumers(cgraph, node)


@settings(max_examples=60, deadline=None)
@given(stages())
def test_stage_topology_equals_scan(stage):
    cgraph, nodes, geoms, _ = stage
    stage_nodes = [g.node for g in geoms]
    assert stage_topology(cgraph, stage_mask_of(nodes)) == _scan_topology(
        cgraph, stage_nodes
    )
    assert spill_flags(cgraph, nodes) == _scan_spill(cgraph, stage_nodes)


@settings(max_examples=60, deadline=None)
@given(stages(), st.data())
def test_one_node_at_a_time_equals_from_scratch(stage, data):
    """Replacing single node estimates under a fixed topology reaches the
    from-scratch stage estimate of any replica vector."""
    cgraph, nodes, geoms, arch = stage
    cost_model = CostModel(arch)
    replicas = {
        g.node.name: data.draw(st.integers(1, g.max_replicas)) for g in geoms
    }
    topology = stage_topology(cgraph, stage_mask_of(nodes))
    node_costs = [
        cost_model.estimate_node(g, 1, *topo) for g, topo in zip(geoms, topology)
    ]
    for i, geom in enumerate(geoms):
        node_costs[i] = cost_model.estimate_node(
            geom, replicas[geom.node.name], *topology[i]
        )
    incremental = cost_model.fold_stage(node_costs)
    scratch = CostModel(arch).estimate_stage(geoms, replicas, topology)
    assert incremental.latency == scratch.latency
    assert repr(incremental.energy_pj) == repr(scratch.energy_pj)


@settings(max_examples=60, deadline=None)
@given(stages())
def test_optimal_mapping_equals_rescanning_greedy(stage):
    cgraph, nodes, geoms, arch = stage
    topology = stage_topology(cgraph, stage_mask_of(nodes))
    replicas, estimate = optimal_mapping(
        geoms, arch, CostModel(arch), topology=topology
    )
    ref_replicas, ref_estimate = _rescan_mapping(
        geoms, arch, CostModel(arch), topology
    )
    assert replicas == ref_replicas
    assert estimate.latency == ref_estimate.latency
    assert repr(estimate.energy_pj) == repr(ref_estimate.energy_pj)
    assert estimate.node_costs == ref_estimate.node_costs


def _whole_graph_stage(builder, num_cores=16):
    """Every condensed node of ``builder``'s graph as one stage."""
    cgraph = condense(builder.build())
    arch = small_test_arch(num_cores=num_cores)
    geometries = build_geometries(cgraph, arch)
    geoms = [geometries[node.name] for node in cgraph.nodes]
    return geoms, arch, stage_topology(cgraph, (1 << len(cgraph)) - 1)


def _assert_equals_rescan(geoms, arch, topology, expected_replicas):
    replicas, estimate = optimal_mapping(
        geoms, arch, CostModel(arch), topology=topology
    )
    assert replicas == expected_replicas
    ref_replicas, ref_estimate = _rescan_mapping(
        geoms, arch, CostModel(arch), topology
    )
    assert replicas == ref_replicas
    assert estimate.latency == ref_estimate.latency
    assert repr(estimate.energy_pj) == repr(ref_estimate.energy_pj)
    assert estimate.node_costs == ref_estimate.node_costs


def test_tied_bottlenecks_are_not_duplicated():
    """Two equally slow nodes: a replica of either leaves the other
    bounding the stage, so none is granted although both have room."""
    b = GraphBuilder("tied")
    x = b.input((8, 8, 4))
    b.output(b.conv(x, 4, 3, padding=1, name="left"))
    b.output(b.conv(x, 4, 3, padding=1, name="right"))
    geoms, arch, topology = _whole_graph_stage(b)
    assert all(g.max_replicas > 1 for g in geoms)
    _assert_equals_rescan(geoms, arch, topology, {"left": 1, "right": 1})


def test_bottleneck_out_of_rows_stops_the_greedy():
    """The one slowest node has a single output row to split; the faster
    node has rows and cores to spare and still gets no replica."""
    b = GraphBuilder("capped")
    b.output(b.conv(b.input((1, 64, 4), name="wide"), 4, 1, name="one_row"))
    b.output(b.conv(b.input((4, 2, 4), name="tall"), 4, 1, name="four_rows"))
    geoms, arch, topology = _whole_graph_stage(b)
    assert [g.max_replicas for g in geoms] == [1, 4]
    _assert_equals_rescan(geoms, arch, topology, {"one_row": 1, "four_rows": 1})


def _line(n):
    """``n`` 1x1 convs of distinct widths: no two nodes tie as bottleneck."""
    b = GraphBuilder("line")
    x = b.input((8, 8, 4))
    for i in range(n):
        x = b.conv(x, 4 + i, 1)
    b.output(x)
    return condense(b.build())


def test_trials_estimate_one_node_each():
    """A trial costs one node estimate, not one per stage node."""
    n = 40
    cgraph = _line(n)
    arch = small_test_arch(num_cores=2 * n)
    geometries = build_geometries(cgraph, arch)
    geoms = [geometries[node.name] for node in cgraph.nodes]
    cost_model = CostModel(arch)
    calls = []
    estimate_node = cost_model.estimate_node
    cost_model.estimate_node = lambda *args: calls.append(1) or estimate_node(*args)
    replicas, _ = optimal_mapping(
        geoms, arch, cost_model, topology=stage_topology(cgraph, (1 << n) - 1)
    )
    accepted = sum(replicas.values()) - n
    assert accepted >= 2  # the greedy really ran
    # n initial estimates, one per accepted trial, and the one rejected
    # trial that ends the greedy.
    assert len(calls) <= n + accepted + 1


@settings(max_examples=40, deadline=None)
@given(condensed_graphs(), st.sampled_from([2, 4, 16]), st.booleans())
def test_dp_price_equals_optimal_mapping(cgraph, num_cores, duplicate):
    """Every candidate stage ``D[i] - D[j]`` the DP can form: its integer
    latency and replicas are ``optimal_mapping``'s, and a candidate that
    cannot fit is ``None`` on both sides."""
    arch = small_test_arch(num_cores=num_cores)
    geometries = build_geometries(cgraph, arch)
    cost_model = CostModel(arch)
    price = stage_pricer(cgraph, geometries, arch, cost_model, duplicate)
    masks = closure_masks(cgraph.dep_list())
    seen = set()
    for outer in masks:
        for inner in masks:
            if inner == outer or inner & outer != inner:
                continue
            stage_mask = outer ^ inner
            if stage_mask in seen:
                continue
            seen.add(stage_mask)
            nodes = [n for n in cgraph.nodes if stage_mask >> n.index & 1]
            mapped = optimal_mapping(
                [geometries[n.name] for n in nodes], arch, CostModel(arch),
                duplicate=duplicate,
                topology=stage_topology(cgraph, stage_mask),
            )
            priced = price(stage_mask)
            if mapped is None:
                assert priced is None
                continue
            replicas, latency = priced
            assert replicas == [mapped[0][n.name] for n in nodes]
            assert latency == mapped[1].latency
    assert seen


def _count_mappings(monkeypatch):
    calls = []
    mapping = partition.optimal_mapping
    monkeypatch.setattr(
        partition, "optimal_mapping",
        lambda *args, **kwargs: calls.append(1) or mapping(*args, **kwargs),
    )
    return calls


def test_dp_maps_only_the_kept_stages_of_a_line(monkeypatch):
    cgraph = _line(40)
    arch = small_test_arch(num_cores=16)
    calls = _count_mappings(monkeypatch)
    result = dp_partition(cgraph, build_geometries(cgraph, arch), arch)
    assert len(result.stages) > 1
    assert len(calls) == len(result.stages)


def test_dp_maps_only_the_kept_stages_of_a_shard(monkeypatch):
    """One shard of the 16-chip mobilenetv2@224 pipeline."""
    shard = shard_graph(get_model("mobilenetv2", input_size=224), 16).shards[8]
    cgraph = condense(shard.graph)
    arch = default_arch()
    calls = _count_mappings(monkeypatch)
    result = dp_partition(cgraph, build_geometries(cgraph, arch), arch)
    assert len(result.stages) >= 1
    assert len(calls) == len(result.stages)

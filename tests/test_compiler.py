"""Tests for geometry, partitioning, mapping, and code generation."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import golden_plans
from repro.compiler import (
    CostModel,
    build_geometries,
    compile_graph,
    condense,
    dp_partition,
    greedy_partition,
    optimal_mapping,
    partition_with_strategy,
)
from repro.compiler.pipeline import plan_graph
from repro.compiler.plan import assign_cores_and_rows, split_rows
from repro.config import default_arch, small_test_arch
from repro.errors import CapacityError, CompileError
from repro.graph import GraphBuilder
from repro.graph.models import get_model
from repro.graph.ops import OpKind
from repro.isa import encode


def _geoms(model, arch, **kwargs):
    graph = get_model(model, **kwargs) if isinstance(model, str) else model
    cgraph = condense(graph)
    return cgraph, build_geometries(cgraph, arch)


class TestGeometry:
    def test_conv_tiles_cover_weight_matrix(self, table1_arch):
        cgraph, geoms = _geoms("resnet18", table1_arch, input_size=32,
                               num_classes=10)
        for node in cgraph.nodes:
            if node.anchor.kind is not OpKind.CONV:
                continue
            geom = geoms[node.name]
            k = node.anchor.attrs["kernel"]
            c_in = node.anchor.weight.shape[2]
            matrix = node.anchor.weight.reshape(k * k * c_in, -1)
            rebuilt = np.zeros_like(matrix)
            for tile in geom.pack_tiles():
                rebuilt[
                    tile.vec_lo:tile.vec_lo + tile.rows_used,
                    tile.col_lo:tile.col_hi,
                ] = geom.tile_data(tile)
            assert np.array_equal(rebuilt, matrix)

    def test_dwconv_block_diagonal_packing(self, table1_arch):
        cgraph, geoms = _geoms("mobilenetv2", table1_arch, input_size=32,
                               num_classes=10)
        node = next(n for n in cgraph.nodes if n.anchor.kind is OpKind.DWCONV)
        geom = geoms[node.name]
        k = node.anchor.attrs["kernel"]
        for tile in geom.pack_tiles():
            group = tile.channel_hi - tile.channel_lo
            data = geom.tile_data(tile)
            assert data.shape == (group * k * k, group)
            # every nonzero sits on its own channel's column
            rows, cols = np.nonzero(data)
            assert ((rows % group) == cols).all()

    def test_core_roles_partition_channels(self, table1_arch):
        cgraph, geoms = _geoms("vgg19", table1_arch, input_size=32,
                               num_classes=10)
        for node in cgraph.nodes:
            geom = geoms[node.name]
            if not node.is_cim:
                continue
            roles = geom.core_roles()
            assert len(roles) == geom.cores_min
            bands = [r.band for r in roles]
            assert bands[0][0] == 0 and bands[-1][1] == geom.out_c
            for (a, b), (c, d) in zip(bands, bands[1:]):
                assert b == c  # contiguous, non-overlapping

    def test_multipass_for_giant_gemm(self, table1_arch):
        graph = get_model("vgg19", input_size=224, num_classes=1000)
        cgraph, geoms = _geoms(graph, table1_arch)
        fc1 = geoms["fc1"]
        assert fc1.multipass
        assert fc1.row_tiles > table1_arch.mgs_per_core

    def test_kernel_too_large_for_small_macro(self):
        arch = small_test_arch()
        b = GraphBuilder("big_dw")
        x = b.input((16, 16, 8))
        b.output(b.dwconv(x, 9, 1, 4))  # 81 taps > 64 macro rows
        with pytest.raises(CapacityError):
            _geoms(b.build(), arch)


class TestPartitioning:
    def test_split_rows_balanced(self):
        ranges = split_rows(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        assert split_rows(2, 5) == [(0, 1), (1, 2)]

    def test_dp_never_worse_than_greedy(self, arch):
        for model in ("tiny_cnn", "tiny_resnet"):
            cgraph, geoms = _geoms(model, arch)
            cm = CostModel(arch)
            greedy = greedy_partition(cgraph, geoms, arch, cm, duplicate=True)
            dp = dp_partition(cgraph, geoms, arch, cm)
            assert dp.total_cost <= greedy.total_cost + 1e-9

    def test_dp_beats_no_duplication_when_possible(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        cm = CostModel(arch)
        generic = greedy_partition(cgraph, geoms, arch, cm, duplicate=False)
        dp = dp_partition(cgraph, geoms, arch, cm)
        assert dp.total_cost < generic.total_cost

    def test_stages_cover_all_nodes_once(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        result = partition_with_strategy("dp", cgraph, geoms, arch)
        seen = [i for s in result.stages for i in s.node_indices]
        assert sorted(seen) == list(range(len(cgraph)))

    def test_stages_respect_dependencies(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        result = partition_with_strategy("dp", cgraph, geoms, arch)
        position = {}
        for stage_idx, stage in enumerate(result.stages):
            for node_idx in stage.node_indices:
                position[node_idx] = stage_idx
        for node in cgraph.nodes:
            for dep in cgraph.deps(node):
                assert position[dep] <= position[node.index]

    def test_unknown_strategy(self, arch):
        cgraph, geoms = _geoms("tiny_mlp", arch)
        with pytest.raises(CompileError):
            partition_with_strategy("magic", cgraph, geoms, arch)


    def test_golden_plans_unchanged(self):
        """Stages, replicas, latencies and float energies are pinned
        exactly (tests/golden_plans.py regenerates the file)."""
        golden = json.loads(golden_plans.GOLDEN_PATH.read_text())
        current = golden_plans.current_plans()
        assert sorted(current) == sorted(golden)
        for name in golden:
            assert current[name] == golden[name], name

    def test_cost_model_shared_across_graphs(self, table1_arch):
        """Two graphs with the same node names must not share estimates."""
        small = get_model("resnet18", input_size=32, num_classes=10)
        large = get_model("resnet18", input_size=64, num_classes=10)
        fresh = plan_graph(small, table1_arch, "dp").partition
        shared = CostModel(table1_arch)
        plan_graph(large, table1_arch, "dp", cost_model=shared)
        reused = plan_graph(small, table1_arch, "dp", cost_model=shared)
        assert ([s.estimate.latency for s in reused.partition.stages]
                == [s.estimate.latency for s in fresh.stages])
        assert reused.partition.total_energy_pj == fresh.total_energy_pj


class TestMapping:
    def test_respects_core_budget(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        cm = CostModel(arch)
        all_geoms = [geoms[n.name] for n in cgraph.nodes]
        priced = optimal_mapping(all_geoms, arch, cm, duplicate=True)
        if priced is not None:
            replicas, _ = priced
            used = sum(
                replicas[g.node.name] * g.cores_min for g in all_geoms
            )
            assert used <= arch.num_cores

    def test_infeasible_returns_none(self):
        arch = small_test_arch(num_cores=1)
        cgraph, geoms = _geoms("tiny_resnet", arch)
        cm = CostModel(arch)
        all_geoms = [geoms[n.name] for n in cgraph.nodes]
        assert optimal_mapping(all_geoms, arch, cm) is None

    def test_assignment_is_disjoint(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        result = partition_with_strategy("dp", cgraph, geoms, arch)
        stages = assign_cores_and_rows(cgraph, geoms, result, arch)
        for stage in stages:
            cores = [c for m in stage.mappings.values() for c in m.all_cores]
            assert len(cores) == len(set(cores))
            assert max(cores) < arch.num_cores

    def test_replica_rows_partition_output(self, arch):
        cgraph, geoms = _geoms("tiny_resnet", arch)
        result = partition_with_strategy("dp", cgraph, geoms, arch)
        stages = assign_cores_and_rows(cgraph, geoms, result, arch)
        for stage in stages:
            for mapping in stage.mappings.values():
                covered = []
                for replica in mapping.replicas:
                    covered.extend(range(*replica.rows))
                assert covered == list(range(mapping.geometry.out_h))


class TestCodegen:
    def test_programs_for_all_cores(self, arch):
        compiled = compile_graph(get_model("tiny_cnn"), arch, "dp")
        assert set(compiled.programs) == set(range(arch.num_cores))
        for program in compiled.programs.values():
            assert program.instructions[-1].mnemonic == "HALT"

    def test_all_programs_encode(self, arch):
        compiled = compile_graph(get_model("tiny_resnet"), arch, "dp")
        for program in compiled.programs.values():
            words = [encode(instr, program.registry) for instr in program]
            assert all(0 <= w < (1 << 32) for w in words)

    def test_register_convention_bounds(self, arch):
        compiled = compile_graph(get_model("tiny_resnet"), arch, "generic")
        for program in compiled.programs.values():
            for instr in program:
                for field in ("rs", "rt", "rd", "re"):
                    assert 0 <= instr.get(field) < 32

    def test_barrier_counts_match(self, arch):
        compiled = compile_graph(get_model("tiny_cnn"), arch, "dp")
        counts = {
            cid: sum(1 for i in p if i.mnemonic == "BARRIER")
            for cid, p in compiled.programs.items()
        }
        assert len(set(counts.values())) == 1  # same barrier count everywhere

    def test_global_image_contains_weights(self, arch):
        graph = get_model("tiny_mlp")
        compiled = compile_graph(graph, arch, "generic")
        assert compiled.global_image.any()
        assert len(compiled.global_image) == compiled.plan.global_bytes

    def test_local_memory_overflow_detected(self):
        arch = small_test_arch()
        b = GraphBuilder("wide")
        x = b.input((64, 64, 16))  # 64 KiB rows blow the 4 KiB segment
        b.output(b.conv(x, 8, 3, 1, 1))
        with pytest.raises(CapacityError):
            compile_graph(b.build(), arch, "generic")


#: Every zoo model at its smallest pinned size (``test_graph``'s
#: ``PARAMETER_DIGESTS`` sizes), compiled for the Table I chip.
_SMALL = {"input_size": 32, "num_classes": 10}
ZOO_SMALL = {
    "resnet18": _SMALL, "mobilenetv2": _SMALL, "efficientnetb0": _SMALL,
    "vgg19": _SMALL, "tiny_mlp": {}, "tiny_cnn": {}, "tiny_resnet": {},
    "weight_stream": {},
}
COMPILED_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "compiled_digests.json").read_text()
)


def _compiled_digests(compiled):
    """SHA-256 of the global image and of every core's instruction stream
    (mnemonic + non-zero fields, the artifact's canonical form -- encoded
    words would drop ``weight_stream``'s out-of-range ``li`` immediates)."""
    programs = hashlib.sha256()
    for core_id in sorted(compiled.programs):
        for instr in compiled.programs[core_id]:
            fields = sorted(
                (k, int(v)) for k, v in instr.fields.items() if v != 0
            )
            programs.update(repr((core_id, instr.mnemonic, fields)).encode())
    return {
        "image": hashlib.sha256(compiled.global_image.tobytes()).hexdigest(),
        "programs": programs.hexdigest(),
    }


@pytest.mark.parametrize("strategy", ["generic", "dp"])
@pytest.mark.parametrize("name", ZOO_SMALL)
def test_zoo_compiled_digests(name, strategy, table1_arch):
    """Image bytes and programs are pinned from before tile boxes lost
    their arrays: how a weight byte reaches the image is free to change,
    which byte lands where is not."""
    graph = get_model(name, **ZOO_SMALL[name])
    compiled = compile_graph(graph, table1_arch, strategy)
    assert _compiled_digests(compiled) == COMPILED_DIGESTS[f"{name}/{strategy}"]


def _reference_tile(geom, tile):
    """What a tile holds, written the long way (the oracle ``tile_data``
    is held to): a box of the im2col matrix, or for dwconv the
    block-diagonal tile with tap ``kk`` of channel ``g`` at
    ``[kk * group + g, g]``."""
    anchor = geom.node.anchor
    if anchor.kind is OpKind.DWCONV:
        k = anchor.attrs["kernel"]
        group = tile.channel_hi - tile.channel_lo
        data = np.zeros((group * k * k, group), dtype=np.int8)
        for kk in range(k * k):
            kr, kc = divmod(kk, k)
            for g in range(group):
                data[kk * group + g, g] = anchor.weight[
                    kr, kc, tile.channel_lo + g
                ]
        return data
    matrix = anchor.weight.reshape(-1, anchor.weight.shape[-1])
    return matrix[
        tile.vec_lo:tile.vec_lo + tile.rows_used, tile.col_lo:tile.col_hi
    ]


@pytest.mark.parametrize("name", ZOO_SMALL)
def test_tile_boxes_are_shapes_with_one_byte_cutter(name, table1_arch):
    cgraph, geoms = _geoms(name, table1_arch, **ZOO_SMALL[name])
    for node in cgraph.nodes:
        if not node.is_cim:
            continue
        geom = geoms[node.name]
        for tile in geom.pack_tiles():
            assert not any(
                isinstance(value, np.ndarray) for value in vars(tile).values()
            )
            data = geom.tile_data(tile)
            assert data.dtype == np.int8
            assert data.shape == (tile.rows_used, tile.cols_used)
            assert data.nbytes == tile.nbytes
            assert np.array_equal(data, _reference_tile(geom, tile))

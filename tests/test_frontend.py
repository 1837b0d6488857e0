"""Tests for CG-level preprocessing: condensation and linearization."""

import pytest

from repro.compiler import condense
from repro.errors import CompileError
from repro.graph import GraphBuilder
from repro.graph.models import get_model
from repro.graph.ops import OpKind


class TestCondensation:
    def test_relu_fuses_into_conv(self):
        cg = condense(get_model("tiny_cnn"))
        conv1 = next(n for n in cg.nodes if n.name == "conv1")
        assert [op.kind for op in conv1.fused] == [OpKind.RELU]

    def test_residual_add_fuses_with_residual_input(self):
        cg = condense(get_model("tiny_resnet"))
        conv2 = next(n for n in cg.nodes if n.name == "block_conv2")
        kinds = [op.kind for op in conv2.fused]
        assert kinds == [OpKind.ADD, OpKind.RELU]
        roles = [ni.role for ni in conv2.inputs]
        assert "residual" in roles

    def test_residual_aliasing_node_input_blocks_fusion(self):
        """add(relu(conv(x)), x) must keep the add standalone.

        Regression (found by the engine-equivalence fuzzer): fusing the
        add into the conv node would make tensor ``x`` feed two buffer
        roles (main + residual) of one node, and a same-stage producer's
        row stream cannot serve two differently-paced readers over one
        channel -- rows land in the wrong buffers and outputs corrupt.
        """
        b = GraphBuilder("aliased_residual", seed=1)
        x = b.input((8, 8, 4))
        p = b.maxpool(x, 2, 2, name="pool")
        y = b.conv(p, 4, 3, 1, 1, name="conv")
        y = b.relu(y, name="relu")
        y = b.add(y, p, name="add")
        b.output(y)
        cg = condense(b.build())
        add = next(n for n in cg.nodes if n.anchor.kind is OpKind.ADD)
        assert add.name == "add"  # standalone, not fused into conv
        conv = next(n for n in cg.nodes if n.name == "conv")
        assert OpKind.ADD not in [op.kind for op in conv.fused]

    def test_aliased_residual_graph_validates_bit_exactly(self, arch):
        from repro import Deployment

        b = GraphBuilder("aliased_residual_e2e", seed=2)
        x = b.input((8, 8, 4))
        p = b.maxpool(x, 2, 2, name="pool")
        y = b.conv(p, 4, 3, 1, 1, name="conv")
        y = b.relu(y, name="relu")
        y = b.add(y, p, name="add")
        b.output(y)
        result = Deployment(b.build(), arch=arch, strategy="dp").run()
        assert result.validated

    def test_pool_is_standalone_vector_node(self):
        cg = condense(get_model("tiny_cnn"))
        pool = next(n for n in cg.nodes if n.anchor.kind is OpKind.MAXPOOL)
        assert not pool.is_cim

    def test_flatten_is_aliased_away(self):
        cg = condense(get_model("vgg19", input_size=32, num_classes=10))
        assert not any(
            n.anchor.kind is OpKind.FLATTEN for n in cg.nodes
        )
        fc1 = next(n for n in cg.nodes if n.name == "fc1")
        # fc1's input resolves through the flatten alias to the pooled map
        assert fc1.main_input.mode == "full"

    def test_linearization_is_topological(self):
        cg = condense(get_model("resnet18", input_size=32, num_classes=10))
        for i, node in enumerate(cg.nodes):
            assert all(d < i for d in cg.deps(node))

    def test_multi_consumer_blocks_fusion(self):
        b = GraphBuilder("branchy")
        x = b.input((4, 4, 8))
        y = b.conv(x, 8, 3, 1, 1, name="c1")
        r = b.relu(y, name="r1")  # y also consumed by c2 below -> no fusion
        z1 = b.conv(y, 8, 1, name="c2")
        out = b.add(r, z1)
        b.output(out)
        cg = condense(b.build())
        c1 = next(n for n in cg.nodes if n.name == "c1")
        assert not c1.fused  # r1 could not fuse: c1's output has 2 consumers

    def test_rows_needed_window(self):
        cg = condense(get_model("tiny_cnn"))
        conv1 = next(n for n in cg.nodes if n.name == "conv1")
        spec = conv1.main_input
        # 3x3 stride-1 pad-1 window, clipped to real input rows
        assert spec.rows_needed(0, 1, 100) == range(0, 2)
        assert spec.rows_needed(2, 4, 100) == range(1, 5)
        assert spec.rows_needed(99, 100, 100) == range(98, 100)

    def test_consumers_and_outputs(self):
        cg = condense(get_model("tiny_mlp"))
        fc1 = next(n for n in cg.nodes if n.name == "fc1")
        fc2 = next(n for n in cg.nodes if n.name == "fc2")
        assert fc2.index in cg.consumers(fc1)
        assert cg.is_graph_output(fc2)
        assert not cg.is_graph_output(fc1)

    def test_empty_model_rejected(self):
        b = GraphBuilder("empty")
        x = b.input((4,))
        b.output(x)
        with pytest.raises(CompileError):
            condense(b.build())

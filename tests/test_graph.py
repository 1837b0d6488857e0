"""Tests for the computation-graph IR, model zoo and serialisation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import (
    GraphBuilder,
    OpKind,
    QuantParams,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.graph.models import PAPER_SUITE, available_models, get_model
from repro.graph.quantize import (
    RELU6_CLIP,
    SIGMOID_LUT,
    SILU_LUT,
    add_i8,
    apply_lut,
    cmul_i8,
    default_qparams,
    requantize,
    saturate_i8,
)
from repro.graph.shape_inference import conv_output_hw, infer_output_shape


class TestShapeInference:
    def test_conv_shapes(self):
        assert conv_output_hw(32, 32, 3, 1, 1) == (32, 32)
        assert conv_output_hw(32, 32, 3, 2, 1) == (16, 16)
        assert conv_output_hw(224, 224, 7, 2, 3) == (112, 112)

    def test_window_too_large(self):
        with pytest.raises(GraphError):
            conv_output_hw(2, 2, 5, 1, 0)

    def test_add_shape_mismatch(self):
        with pytest.raises(GraphError):
            infer_output_shape(OpKind.ADD, [(4, 4, 8), (4, 4, 16)], {})

    def test_flatten(self):
        assert infer_output_shape(OpKind.FLATTEN, [(2, 3, 4)], {}) == (24,)

    def test_mul_channel_scale_check(self):
        with pytest.raises(GraphError):
            infer_output_shape(OpKind.MUL_CHANNEL, [(4, 4, 8), (4,)], {})


class TestGraphBuilder:
    def test_builds_valid_graph(self):
        b = GraphBuilder("t", seed=1)
        x = b.input((8, 8, 4))
        x = b.conv(x, 8, 3, 1, 1)
        x = b.relu(x)
        b.output(x)
        g = b.build()
        assert len(g.operators) == 3
        assert g.tensor(g.outputs[0]).shape == (8, 8, 8)

    def test_weights_are_int8_with_bias(self):
        b = GraphBuilder("t")
        x = b.input((4, 4, 4))
        b.output(b.conv(x, 8, 3, 1, 1))
        conv = b.build().operators[1]
        assert conv.weight.dtype == np.int8
        assert conv.weight.shape == (3, 3, 4, 8)
        assert conv.bias.dtype == np.int32

    def test_gemm_requires_flat(self):
        b = GraphBuilder("t")
        x = b.input((4, 4, 4))
        with pytest.raises(GraphError):
            b.gemm(x, 10)

    def test_cycle_detection(self):
        from repro.graph.graph import ComputationGraph
        from repro.graph.ops import Operator
        from repro.graph.tensor import TensorInfo

        g = ComputationGraph("cyclic")
        g.add_tensor(TensorInfo("a", (4,)))
        g.add_tensor(TensorInfo("b", (4,)))
        g.add_operator(Operator("r1", OpKind.RELU, ["b"], "a"))
        g.add_operator(Operator("r2", OpKind.RELU, ["a"], "b"))
        with pytest.raises(GraphError):
            g.topological_order()

    def test_duplicate_names_rejected(self):
        b = GraphBuilder("t")
        x = b.input((4,))
        b.gemm(x, 4, name="fc")
        with pytest.raises(GraphError):
            b.gemm(x, 4, name="fc")


class TestModelZoo:
    def test_registry(self):
        assert set(PAPER_SUITE) <= set(available_models())
        with pytest.raises(GraphError):
            get_model("alexnet")

    @pytest.mark.parametrize("name", PAPER_SUITE)
    def test_paper_models_build(self, name):
        g = get_model(name, input_size=32, num_classes=10)
        g.validate()
        assert g.mvm_operators(), f"{name} has no MVM operators"

    def test_resnet18_structure(self):
        g = get_model("resnet18", input_size=224, num_classes=1000)
        convs = [o for o in g.operators if o.kind is OpKind.CONV]
        assert len(convs) == 20  # 16 block convs + stem + 3 downsamples
        assert g.tensor(g.outputs[0]).shape == (1000,)

    def test_vgg19_structure(self):
        g = get_model("vgg19", input_size=224, num_classes=1000)
        convs = [o for o in g.operators if o.kind is OpKind.CONV]
        gemms = [o for o in g.operators if o.kind is OpKind.GEMM]
        assert len(convs) == 16 and len(gemms) == 3

    def test_mobilenet_uses_depthwise(self):
        g = get_model("mobilenetv2", input_size=32)
        assert any(o.kind is OpKind.DWCONV for o in g.operators)

    def test_efficientnet_has_squeeze_excite(self):
        g = get_model("efficientnetb0", input_size=32)
        assert any(o.kind is OpKind.MUL_CHANNEL for o in g.operators)
        assert any(o.kind is OpKind.SIGMOID for o in g.operators)

    def test_width_mult_shrinks(self):
        full = get_model("resnet18", input_size=32).total_weight_bytes()
        slim = get_model("resnet18", input_size=32, width_mult=0.25).total_weight_bytes()
        assert slim < full / 4

    def test_seeded_reproducibility(self):
        a = get_model("tiny_cnn", seed=7)
        b = get_model("tiny_cnn", seed=7)
        wa = a.operators[1].weight
        wb = b.operators[1].weight
        assert np.array_equal(wa, wb)


#: SHA-256 over every operator's weight then bias bytes, in graph order,
#: at each zoo model's smallest pinned size.  The seeded stream is part of
#: every golden output, cycle count and artifact byte downstream.
_SMALL = {"input_size": 32, "num_classes": 10}
PARAMETER_DIGESTS = {
    "resnet18": (_SMALL, "838f0e5917fb1b6590824b853237c2524baf89000ad6146fb24fbaeee8e2841c"),
    "vgg19": (_SMALL, "5f89236d090514e052580528be1424baf683e399d1afb9db6d27f7dbc6fca387"),
    "mobilenetv2": (_SMALL, "44bed4182deac80439bda811c7a52e2641cb9ad4fe6bb9c42b47acc61999cbf4"),
    "efficientnetb0": (_SMALL, "4cddca9730fd19fb2c2d742c856a50e89294b62298bfbfa152ba7721449af3a6"),
    "tiny_cnn": ({}, "23c51bf22e46670bd31eb4a0e92cb949e1cfb391cc1692491d5bb59e99d8ec0e"),
    "tiny_mlp": ({}, "081119208cea2ec0401aea92f855224b2e79ec4ba5e4897a922626b0bab7e266"),
    "tiny_resnet": ({}, "248ff9a98925e319b23db297cf18853195856c217414c84ea62fb949e4f92b3b"),
    "weight_stream": ({}, "701a4b2674761062d81e00ed9a3bf750b15355178b967377e3801653ccd90dd2"),
}


def _parameter_digest(graph):
    digest = hashlib.sha256()
    for op in graph.operators:
        for array in (op.weight, op.bias):
            if array is not None:
                digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", PARAMETER_DIGESTS)
def test_zoo_parameter_digests(name):
    kwargs, expected = PARAMETER_DIGESTS[name]
    assert _parameter_digest(get_model(name, **kwargs)) == expected


class TestParametersDrawnOnFirstRead:
    def test_planning_draws_nothing(self, rng_calls):
        from repro.compiler.pipeline import plan_graph
        from repro.config import small_test_arch
        from repro.sim.fastmodel import analyze_plan

        graph = get_model("tiny_resnet")
        report = analyze_plan(plan_graph(graph, small_test_arch(), "dp"))
        assert report.cycles > 0
        assert graph.total_weight_bytes() > 0
        assert rng_calls == []

    def test_first_read_draws_every_parameter_once(self, rng_calls):
        graph = get_model("tiny_resnet")
        mvm = graph.mvm_operators()
        assert mvm[-1].bias.dtype == np.int32  # any operator, either array
        assert len(rng_calls) == 1
        for op in mvm:
            assert op.weight.shape == op.weight_shape
            assert op.bias.shape == (op.weight_shape[-1],)
        assert len(rng_calls) == 1
        expected = PARAMETER_DIGESTS["tiny_resnet"][1]
        assert _parameter_digest(graph) == expected

    def test_read_through_a_shard_draws_for_the_whole_model(self, rng_calls):
        from repro.compiler import shard_graph

        graph = get_model("tiny_resnet")
        shard = shard_graph(graph, 2).shards[1].graph
        assert rng_calls == []
        assert shard.mvm_operators()[0].weight.dtype == np.int8
        expected = PARAMETER_DIGESTS["tiny_resnet"][1]
        assert _parameter_digest(graph) == expected
        assert len(rng_calls) == 1

    def test_graphs_draw_independently(self, rng_calls):
        first = get_model("tiny_cnn", seed=7)
        second = get_model("tiny_cnn", seed=7)
        weight = first.operators[1].weight
        assert len(rng_calls) == 1
        assert np.array_equal(weight, second.operators[1].weight)
        assert weight is not second.operators[1].weight
        assert len(rng_calls) == 2

    def test_explicit_arrays_are_kept(self, rng_calls):
        from repro.graph.ops import Operator

        weight = np.ones((4, 2), dtype=np.int8)
        bias = np.zeros(2, dtype=np.int32)
        op = Operator(
            "fc", OpKind.GEMM, ["x"], "y", {"out_features": 2},
            weight=weight, bias=bias,
        )
        assert op.weight is weight and op.bias is bias
        assert op.weight_shape == (4, 2) and op.weight_bytes() == 8
        assert rng_calls == []


class TestQuantize:
    def test_requantize_matches_reference(self):
        acc = np.array([1024, -1024, 70000], dtype=np.int32)
        out = requantize(acc, QuantParams(qmul=1, qshift=4))
        assert list(out) == [64, -64, 127]

    def test_saturate(self):
        assert list(saturate_i8(np.array([300, -300, 5]))) == [127, -128, 5]

    def test_add_saturates(self):
        a = np.array([120, -120], dtype=np.int8)
        assert list(add_i8(a, a)) == [127, -128]

    def test_luts_are_bounded_and_monotone(self):
        for lut in (SIGMOID_LUT, SILU_LUT):
            assert lut.dtype == np.int8
            assert len(lut) == 256
        diffs = np.diff(SIGMOID_LUT.astype(int))
        assert (diffs >= 0).all()  # sigmoid is monotone

    def test_relu6_clip_value(self):
        assert 0 < RELU6_CLIP <= 127

    def test_cmul_identity_at_q7_one(self):
        x = np.array([10, -20, 30], dtype=np.int8)
        nearly_one = np.array([127, 127, 127], dtype=np.int8)
        out = cmul_i8(x, nearly_one)
        assert np.abs(out.astype(int) - x.astype(int)).max() <= 1

    @given(st.integers(1, 10**6))
    def test_default_qparams_valid(self, fan_in):
        params = default_qparams(fan_in)
        assert params.qmul >= 1 and 0 <= params.qshift < 32

    @given(st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=50))
    def test_requantize_always_int8(self, values):
        acc = np.array(values, dtype=np.int32)
        out = requantize(acc, default_qparams(64))
        assert out.dtype == np.int8


class TestSerialization:
    def test_round_trip_with_weights(self):
        g = get_model("tiny_resnet")
        restored = graph_from_dict(graph_to_dict(g))
        assert restored.name == g.name
        assert len(restored.operators) == len(g.operators)
        for a, b in zip(g.operators, restored.operators):
            assert a.kind == b.kind
            if a.weight is not None:
                assert np.array_equal(a.weight, b.weight)

    def test_file_round_trip(self, tmp_path):
        g = get_model("tiny_mlp")
        path = tmp_path / "model.json"
        save_graph(g, path)
        assert load_graph(path).summary() == g.summary()

    def test_corrupted_shape_rejected(self):
        g = get_model("tiny_mlp")
        data = graph_to_dict(g)
        data["tensors"][-1]["shape"] = [999]
        with pytest.raises(GraphError):
            graph_from_dict(data)

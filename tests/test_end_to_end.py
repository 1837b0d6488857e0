"""End-to-end integration: compile + simulate + bit-exact validation."""

import numpy as np
import pytest

from repro import Deployment, compile_model
from repro.config import default_arch, small_test_arch, with_mg_size
from repro.sim.functional import golden_outputs, random_input

TINY_MODELS = ("tiny_mlp", "tiny_cnn", "tiny_resnet")
STRATEGIES = ("generic", "duplication", "dp")


class TestTinyModels:
    @pytest.mark.parametrize("model", TINY_MODELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_bit_exact_on_test_arch(self, model, strategy, arch):
        result = Deployment(model, arch=arch, strategy=strategy).run()
        assert result.validated
        assert result.report.cycles > 0
        assert result.report.total_energy_pj > 0

    def test_strategies_agree_functionally(self, arch):
        outs = []
        for strategy in STRATEGIES:
            result = Deployment(
                "tiny_resnet", arch=arch, strategy=strategy
            ).run()
            outs.append(result.outputs[result.graph.outputs[0]])
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[1], outs[2])

    def test_dp_not_slower_than_generic(self, arch):
        generic = Deployment("tiny_resnet", arch=arch, strategy="generic").run()
        dp = Deployment("tiny_resnet", arch=arch, strategy="dp").run()
        assert dp.report.cycles <= generic.report.cycles

    def test_deterministic_simulation(self, arch):
        a = Deployment("tiny_cnn", arch=arch, strategy="dp").run(seed=5)
        b = Deployment("tiny_cnn", arch=arch, strategy="dp").run(seed=5)
        assert a.report.cycles == b.report.cycles
        assert a.report.total_energy_pj == b.report.total_energy_pj

    def test_different_inputs_change_outputs(self, arch):
        compiled = compile_model("tiny_mlp", arch, "generic")
        deployment = Deployment(compiled)
        r1 = deployment.run(random_input(compiled.graph, seed=1))
        r2 = deployment.run(random_input(compiled.graph, seed=2))
        name = compiled.graph.outputs[0]
        assert not np.array_equal(r1.outputs[name], r2.outputs[name])


def _conv(b, x):
    return b.conv(x, 8, 3, padding=1)


def _outer_conv_of_relu(b, x):
    r = b.relu(x)
    return b.add(_conv(b, r), b.add(r, x))


def _three_adds(b, x):
    r = b.relu(x)
    return b.add(_conv(b, x), b.add(r, b.add(r, x)))


def _pooled_pair(b, x):
    r = b.relu(x)
    return b.avgpool(b.add(b.add(_conv(b, r), x), b.add(r, x)), 2, 2)


#: Graphs where an ADD's operand is itself an ADD: condensation fuses the
#: outer add into the inner one's node, whose epilogue must read the
#: outer add's operand, not the anchor's own again.
NESTED_ADDS = {
    "outer_conv": lambda b, x: b.add(_conv(b, x), b.add(b.relu(x), x)),
    "outer_conv_of_relu": _outer_conv_of_relu,
    "relu_between": lambda b, x: b.add(
        _conv(b, x), b.relu(b.add(b.relu(x), x))
    ),
    "inner_first": lambda b, x: b.add(b.add(b.relu(x), x), _conv(b, x)),
    "three_adds": _three_adds,
    "pooled_pair": _pooled_pair,
    "relu_outer": lambda b, x: b.relu(
        b.add(_conv(b, x), b.add(b.relu(x), x))
    ),
    "sigmoid_inner": lambda b, x: b.add(_conv(b, x), b.add(b.sigmoid(x), x)),
    "single_add": lambda b, x: b.add(_conv(b, x), x),
    "fused_chain": lambda b, x: b.add(b.relu(_conv(b, x)), x),
}


class TestNestedAdds:
    @pytest.mark.parametrize("strategy", ("generic", "dp"))
    @pytest.mark.parametrize("name", NESTED_ADDS)
    def test_bit_exact(self, name, strategy):
        from repro.graph import GraphBuilder

        b = GraphBuilder(name, seed=5)
        x = b.input((6, 6, 8))
        b.output(NESTED_ADDS[name](b, x))
        result = Deployment(
            b.build(), arch=small_test_arch(), strategy=strategy
        ).run()
        assert result.validated


class TestPaperModelsSmallScale:
    """The four-paper-model suite at reduced resolution on Table I."""

    @pytest.mark.parametrize(
        "model,input_size",
        [
            ("resnet18", 16),
            ("vgg19", 32),  # five 2x2 pools need at least 32 px
            ("mobilenetv2", 16),
            ("efficientnetb0", 16),
        ],
    )
    def test_bit_exact_small_inputs(self, model, input_size, table1_arch):
        result = Deployment(
            model, arch=table1_arch, strategy="generic",
            input_size=input_size, num_classes=10,
        ).run()
        assert result.validated

    def test_resnet18_dp_at_32px(self, table1_arch):
        result = Deployment(
            "resnet18", arch=table1_arch, strategy="dp",
            input_size=32, num_classes=10,
        ).run()
        assert result.validated

    def test_mg_size_variant_still_exact(self, table1_arch):
        arch = with_mg_size(table1_arch, 4)
        result = Deployment(
            "resnet18", arch=arch, strategy="generic",
            input_size=16, num_classes=10,
        ).run()
        assert result.validated


class TestGoldenModel:
    def test_conv_of_zero_input_is_requantized_bias(self):
        from repro.graph import GraphBuilder

        b = GraphBuilder("bias_only", seed=4)
        x = b.input((4, 4, 4))
        b.output(b.conv(x, 8, 3, 1, 1))
        graph = b.build()
        conv = graph.operators[1]
        zero = np.zeros((4, 4, 4), dtype=np.int8)
        out = golden_outputs(graph, {graph.input_operators[0].output: zero})
        from repro.graph.quantize import requantize

        expected = requantize(conv.bias.astype(np.int32), conv.qparams)
        value = next(iter(out.values()))
        assert np.array_equal(value[0, 0], expected)

    def test_shape_mismatch_rejected(self):
        from repro.errors import ValidationError
        from repro.graph.models import get_model

        graph = get_model("tiny_mlp")
        with pytest.raises(ValidationError):
            golden_outputs(graph, {"input_out": np.zeros(3, np.int8)})

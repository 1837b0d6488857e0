"""The golden model runs batch-major: one implementation of each op over a
stacked ``(B, ...)`` activation, executed in byte-bounded groups.

The pins below were taken per input (``golden_outputs``) before the model
learned to stack; the batched path is held to the same bytes.
"""

import hashlib
import math

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph.models import get_model
from repro.graph.ops import OpKind
from repro.serve import Deployment
from repro.sim import functional
from repro.sim.functional import golden_batch, golden_outputs, random_input

_SMALL = {"input_size": 32, "num_classes": 10}
#: Each zoo model at its smallest pinned size (``test_graph.PARAMETER_DIGESTS``).
ZOO_SMALL = {
    "resnet18": _SMALL, "mobilenetv2": _SMALL, "efficientnetb0": _SMALL,
    "vgg19": _SMALL, "tiny_mlp": {}, "tiny_cnn": {}, "tiny_resnet": {},
    "weight_stream": {},
}

#: SHA-256 over name, dtype, shape and bytes of every golden output of
#: inputs seeded 0, 1, 2 (``weight_stream`` x128: seeds 0..127, the batch
#: ``repro serve weight_stream --batch 128`` validates).
GOLDEN_DIGESTS = {
    "resnet18": "7466b21ae11ba3b959daa04575359262ff56e9829dd2eebb51fc19ee4399017d",
    "mobilenetv2": "b6d39c02d63e94622408b151d02a90208eda93565060e87670cbc86f6f31176c",
    "efficientnetb0": "27a682c33eb06a668b4ce5ca14cc59b374f3ec4a473175e98e279f2401e51cbe",
    "vgg19": "10ce5dd2a28e18e785d2b4cfc8dc241d9921c615c054d7a4efcc3e0ac955fd72",
    "tiny_mlp": "9101bacc9926c5e8b79c60695c0abe5df745afa66a3a4c94cb09222ce55dd77d",
    "tiny_cnn": "95d232aef1c75c46e6e14a995d4186a77a91cbe773e82e1ba986830b71e927a2",
    "tiny_resnet": "8e6659b2b52d57f0ffe16cd4cd30bc1ae630a51e099d04c625244c845fa7e573",
    "weight_stream": "584b9d63c77c493be1935ef84e06aee9d8c6db59057bbcfd0a0541ae125e0c58",
}
STREAM_128_DIGEST = (
    "47c25b194b72984b10c615315666b28dffb31d44e01647ff107f1ffdd405dccd"
)


def _digest(graph, goldens):
    h = hashlib.sha256()
    for golden in goldens:
        for name in graph.outputs:
            value = golden[name]
            h.update(f"{name}|{value.dtype}|{value.shape}|".encode())
            h.update(value.tobytes())
    return h.hexdigest()


def _feeds(graph, count):
    tensor = graph.input_operators[0].output
    return [{tensor: random_input(graph, seed)} for seed in range(count)]


def _per_input(graph, feeds):
    return [golden_outputs(graph, feed) for feed in feeds]


@pytest.mark.parametrize("name", ZOO_SMALL)
def test_zoo_golden_digests(name):
    graph = get_model(name, **ZOO_SMALL[name])
    assert _digest(graph, _per_input(graph, _feeds(graph, 3))) == (
        GOLDEN_DIGESTS[name]
    )


def test_weight_stream_batch_digest():
    graph = get_model("weight_stream")
    assert _digest(graph, _per_input(graph, _feeds(graph, 128))) == (
        STREAM_128_DIGEST
    )


@pytest.mark.parametrize("name", ZOO_SMALL)
def test_zoo_golden_batch_digests(name):
    graph = get_model(name, **ZOO_SMALL[name])
    assert _digest(graph, golden_batch(graph, _feeds(graph, 3))) == (
        GOLDEN_DIGESTS[name]
    )


def test_weight_stream_golden_batch_digest():
    graph = get_model("weight_stream")
    assert _digest(graph, golden_batch(graph, _feeds(graph, 128))) == (
        STREAM_128_DIGEST
    )


@pytest.mark.parametrize("name", ZOO_SMALL)
def test_golden_batch_is_per_input_golden(name):
    """Values, dtype and shape at B = 1, 2, one group and one past it."""
    graph = get_model(name, **ZOO_SMALL[name])
    group = functional._group_size(graph)
    feeds = _feeds(graph, group + 1)
    expected = _per_input(graph, feeds)
    for batch in sorted({1, 2, group, group + 1}):
        got = list(golden_batch(graph, feeds[:batch]))
        assert len(got) == batch
        for want, have in zip(expected, got):
            assert list(have) == graph.outputs
            for tensor in graph.outputs:
                assert have[tensor].dtype == want[tensor].dtype
                assert have[tensor].shape == want[tensor].shape
                assert np.array_equal(have[tensor], want[tensor])


def test_weight_stream_group_is_twenty():
    """A 7x7x1024 input is its own widest tensor: 1 MiB // 50 176 B."""
    assert functional._group_size(get_model("weight_stream")) == 20
    assert functional._group_size(get_model("vgg19", **_SMALL)) == 1


def _bad_inputs(graph):
    tensor = graph.input_operators[0].output
    shape = graph.tensor(tensor).shape
    return [
        {tensor: np.zeros(shape[:-1] + (shape[-1] + 1,), np.int8)},
        {tensor: np.zeros(shape, np.float32)},
        {tensor: np.full(shape, 300, np.int16)},
        {"no_such_tensor": np.zeros(shape, np.int8)},
    ]


@pytest.mark.parametrize("name", ["tiny_cnn", "weight_stream"])
@pytest.mark.parametrize("case", range(4))
def test_bad_input_inside_a_batch_raises_the_same_error(name, case):
    """Wrong shape, float, out-of-range and missing inputs fail inside a
    batch -- here in the second group -- with the per-input message."""
    graph = get_model(name)
    bad = _bad_inputs(graph)[case]
    with pytest.raises(ValidationError) as alone:
        golden_outputs(graph, bad)
    feeds = _feeds(graph, functional._group_size(graph) + 1) + [bad]
    with pytest.raises(ValidationError) as batched:
        list(golden_batch(graph, feeds))
    assert str(batched.value) == str(alone.value)


def test_served_batch_multiplies_once_per_group(monkeypatch):
    """Validating ``submit(batch=128)`` on weight_stream makes one golden
    product per conv per group (7 x 4 = 28), not one per input (512)."""
    calls = []
    int_matmul = functional.int_matmul

    def counting(a, b):
        calls.append(a.shape)
        return int_matmul(a, b)

    monkeypatch.setattr(functional, "int_matmul", counting)
    dep = Deployment("weight_stream", resident_weights=True)
    report = dep.submit(batch=128)
    assert report.validated
    graph = dep.graph
    convs = sum(op.kind is OpKind.CONV for op in graph.operators)
    group = functional._group_size(graph)
    assert convs == 4 and group == 20
    assert len(calls) == math.ceil(128 / group) * convs == 28


@pytest.mark.parametrize("name", ZOO_SMALL)
def test_stacked_im2col_stays_within_the_group_bound(name, monkeypatch):
    """Every window stack a group builds holds at most ``_GROUP_BYTES``,
    unless the group is a single input."""
    graph = get_model(name, **ZOO_SMALL[name])
    stacks = []
    window_view = functional._window_view

    def recording(x, *args):
        windows = window_view(x, *args)
        stacks.append((len(x), windows.nbytes))
        return windows

    monkeypatch.setattr(functional, "_window_view", recording)
    group = functional._group_size(graph)
    list(golden_batch(graph, _feeds(graph, group + 1)))
    assert all(
        nbytes <= functional._GROUP_BYTES for rows, nbytes in stacks
        if rows > 1
    )
    windowed = any(op.kind in functional._WINDOWED for op in graph.operators)
    assert (group > 1 and windowed) == any(rows > 1 for rows, _ in stacks)

"""Model zoo: the paper's evaluation suite plus small test models.

Every builder takes ``input_size`` so benchmarks can run the full-depth
layer stacks at reduced resolution (compilation and simulation behaviour
depend on topology and shapes, not on trained weights) and ``seed`` for
reproducible synthetic INT8 weights.  See ``docs/ARCHITECTURE.md``
("Graph IR and model zoo").
"""

import inspect
from typing import TYPE_CHECKING, List

from repro.errors import GraphError
from repro.utils.lazy import lazy_exports

if TYPE_CHECKING:  # the table below, spelled out for static tools
    from repro.graph.graph import ComputationGraph
    from repro.graph.models.efficientnet import efficientnet_b0
    from repro.graph.models.mobilenet import mobilenet_v2
    from repro.graph.models.resnet import resnet18
    from repro.graph.models.simple import (
        tiny_cnn,
        tiny_mlp,
        tiny_resnet,
        weight_stream,
    )
    from repro.graph.models.vgg import vgg19

_EXPORTS = {
    "repro.graph.models.efficientnet": ("efficientnet_b0",),
    "repro.graph.models.mobilenet": ("mobilenet_v2",),
    "repro.graph.models.resnet": ("resnet18",),
    "repro.graph.models.simple": (
        "tiny_cnn", "tiny_mlp", "tiny_resnet", "weight_stream",
    ),
    "repro.graph.models.vgg": ("vgg19",),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

#: Zoo name -> builder (one of the lazy exports above), so names resolve
#: without importing a builder (``available_models``, the CLI's help).
_REGISTRY = {
    "resnet18": "resnet18",
    "vgg19": "vgg19",
    "mobilenetv2": "mobilenet_v2",
    "efficientnetb0": "efficientnet_b0",
    "tiny_cnn": "tiny_cnn",
    "tiny_mlp": "tiny_mlp",
    "tiny_resnet": "tiny_resnet",
    "weight_stream": "weight_stream",
}

#: The four DNNs of the paper's evaluation suite (Sec. IV-A).
PAPER_SUITE = ("resnet18", "vgg19", "mobilenetv2", "efficientnetb0")


def available_models() -> List[str]:
    """Names accepted by :func:`get_model`."""
    return sorted(_REGISTRY)


#: Sweep axes every builder is assumed to understand; silently dropped for
#: builders that don't take them (tiny_mlp has a flat input, so sweeping
#: input_size over the whole zoo must not crash on it).
_AXIS_KWARGS = ("input_size", "num_classes")


def get_model(name: str, **kwargs) -> "ComputationGraph":
    """Build a model from the zoo by name.

    The sweep-axis kwargs (``input_size``, ``num_classes``) are dropped
    for builders whose signature lacks them; any other unknown kwarg
    still fails loudly.
    """
    if name not in _REGISTRY:
        raise GraphError(
            f"unknown model {name!r}; available: {available_models()}"
        )
    builder = __getattr__(_REGISTRY[name])
    accepted = set(inspect.signature(builder).parameters)
    for axis in _AXIS_KWARGS:
        if axis in kwargs and axis not in accepted:
            kwargs.pop(axis)
    return builder(**kwargs)


__all__ = [
    "resnet18",
    "vgg19",
    "mobilenet_v2",
    "efficientnet_b0",
    "tiny_cnn",
    "tiny_mlp",
    "tiny_resnet",
    "weight_stream",
    "get_model",
    "available_models",
    "PAPER_SUITE",
]

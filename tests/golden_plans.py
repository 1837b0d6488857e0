"""Golden planner pins: the cases and the record format.

``tests/data/dp_plans_golden.json`` holds, for a fixed set of graphs,
every chosen stage's node indices, replica map, estimated latency and
the ``repr`` of its estimated energy.  ``tests/test_compiler.py``
asserts the planner still produces exactly that; a planner change that
is meant to move plans regenerates the file with::

    PYTHONPATH=src python tests/golden_plans.py
"""

import json
from pathlib import Path

from repro.compiler import shard_graph
from repro.compiler.pipeline import plan_graph
from repro.config import (
    default_arch, small_test_arch, with_flit_bytes, with_mg_size)
from repro.graph.models import get_model

GOLDEN_PATH = Path(__file__).parent / "data" / "dp_plans_golden.json"


def plan_record(plan):
    """The pinned facts of one execution plan, JSON-ready."""
    return [
        {
            "nodes": list(stage.node_indices),
            "replicas": dict(stage.replicas),
            "latency": stage.estimate.latency,
            "energy_pj": repr(stage.estimate.energy_pj),
        }
        for stage in plan.partition.stages
    ]


def golden_cases():
    """Yield ``(case name, graph, arch, strategy)`` for every pinned plan."""
    small = small_test_arch()
    yield "tiny_cnn/dp", get_model("tiny_cnn"), small, "dp"
    yield "tiny_mlp/dp", get_model("tiny_mlp"), small, "dp"
    yield "tiny_resnet/dp", get_model("tiny_resnet"), small, "dp"
    resnet = get_model("resnet18", input_size=64, num_classes=10)
    for strategy in ("dp", "duplication"):
        yield f"resnet18@64/{strategy}", resnet, default_arch(), strategy
    # The sweep_cold / Fig. 7 shape: a deep linear graph, 16 shards.
    sharding = shard_graph(get_model("mobilenetv2", input_size=224), 16)
    for flit in (8, 16):
        arch = with_flit_bytes(with_mg_size(default_arch(), 8), flit)
        for shard in sharding.shards:
            yield (f"mobilenetv2@224/chip{shard.index}of16/flit{flit}/dp",
                   shard.graph, arch, "dp")


def current_plans():
    return {
        name: plan_record(plan_graph(graph, arch, strategy))
        for name, graph, arch, strategy in golden_cases()
    }


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(current_plans(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")

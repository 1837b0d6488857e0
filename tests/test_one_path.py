"""One execution path: a single chip is a one-shard pipeline.

``Deployment`` runs every compile product through
:class:`~repro.sim.multichip.MultiChipSimulator` and never asks which
one it holds.  That rests on one fact, pinned here for every zoo model
under every strategy: sharding onto one chip *is* the single-chip
compile -- ``compile_sharded(g, arch, 1).chips[0]`` equals
``compile_graph(g, arch)`` in encoded programs and global image -- and a
deployment over either product yields the same cycles, energy breakdown
and output bytes, one-shot, streamed and with resident weights.
"""

import numpy as np
import pytest

from repro import Deployment, MultiChipSimulator, compile_sharded
from repro.compiler import compile_graph
from repro.config import default_arch, small_test_arch
from repro.graph.models import get_model
from repro.isa import encode

STRATEGIES = ("generic", "duplication", "dp")

TINY = {"input_size": 8, "num_classes": 10}
PAPER = {"input_size": 16, "num_classes": 10}

#: (model, zoo kwargs, architecture, strategies): the tiny models under
#: every strategy, two paper models on Table I under the default one.
MODELS = (
    ("tiny_mlp", {}, small_test_arch, STRATEGIES),
    ("tiny_cnn", TINY, small_test_arch, STRATEGIES),
    ("tiny_resnet", TINY, small_test_arch, STRATEGIES),
    ("weight_stream", {"branches": 4, "in_channels": 64, "width": 4,
                       "kernel": 4}, small_test_arch, STRATEGIES),
    ("resnet18", PAPER, default_arch, ("dp",)),
    ("mobilenetv2", PAPER, default_arch, ("dp",)),
)


@pytest.fixture(scope="module", params=[
    pytest.param((model, kwargs, make_arch, strategy),
                 id=f"{model}-{strategy}")
    for model, kwargs, make_arch, strategies in MODELS
    for strategy in strategies
])
def products(request):
    """``(compile_graph product, compile_sharded(..., 1) product)``."""
    model, kwargs, make_arch, strategy = request.param
    arch = make_arch()
    graph = get_model(model, **kwargs)
    return (
        compile_graph(graph, arch, strategy),
        compile_sharded(graph, arch, 1, strategy),
    )


def _words(compiled):
    return {
        core: [encode(instr, compiled.registry) for instr in program]
        for core, program in compiled.programs.items()
    }


def _assert_same_outputs(got, want):
    assert set(got) == set(want)
    for name, value in want.items():
        assert got[name].tobytes() == value.tobytes(), name


def test_one_shard_is_the_single_chip_compile(products):
    single, sharded = products
    assert sharded.num_chips == 1 and not sharded.transfers
    shard = sharded.chips[0]
    assert _words(shard) == _words(single)
    assert np.array_equal(shard.global_image, single.global_image)
    # ...and the single-chip product shows the same pipeline surface
    assert single.chips == [single] and single.num_chips == 1
    assert not single.transfers and single.interchip_bytes() == 0
    assert single.input_placements() == sharded.input_placements()
    for name in single.graph.outputs:
        assert single.output_placement(name) == sharded.output_placement(name)


def test_run_is_identical_over_either_product(products):
    single, sharded = products
    a = Deployment(single).run()
    b = Deployment(sharded).run()
    assert a.validated and b.validated
    # a lone shard reports as itself, whichever product holds it
    assert a.report.to_dict() == b.report.to_dict()
    assert a.report.cycles == b.report.cycles
    assert a.report.energy_breakdown_pj == b.report.energy_breakdown_pj
    _assert_same_outputs(a.outputs, b.outputs)


@pytest.mark.parametrize("resident", (False, True))
def test_submit_is_identical_over_either_product(products, resident):
    single, sharded = products
    a = Deployment(single, resident_weights=resident).submit(batch=3)
    b = Deployment(sharded, resident_weights=resident).submit(batch=3)
    assert a.validated and b.validated
    assert a.to_dict() == b.to_dict()
    assert a.energy_breakdown_pj == b.energy_breakdown_pj
    [a], [b] = a.replica_reports, b.replica_reports
    assert a.stream_report.to_dict() == b.stream_report.to_dict()
    assert a.load_cycles == b.load_cycles
    for got, want in zip(a.per_input_outputs, b.per_input_outputs):
        _assert_same_outputs(got, want)


def test_simulator_runs_a_bare_compiled_model(arch):
    """``MultiChipSimulator`` takes the single-chip product directly."""
    compiled = compile_graph(
        get_model("tiny_cnn", input_size=8, num_classes=10), arch
    )
    from repro.sim.functional import golden_outputs, random_input

    data = random_input(compiled.graph, seed=4)
    sim = MultiChipSimulator(compiled)
    [reports], [outputs] = sim.execute_stream([data])
    assert len(reports) == 1 and compiled.interchip_bytes() == 0
    report = Deployment(compiled).run(data, validate=False).report
    assert report.num_chips == 1 and report.interchip_bytes == 0
    assert report.cycles == report.chip_reports[0].cycles == reports[0].cycles
    golden = golden_outputs(
        compiled.graph, {compiled.graph.input_operators[0].output: data}
    )
    for name, expected in golden.items():
        assert np.array_equal(outputs[name], expected)
        assert np.array_equal(sim.read_output(name), expected)

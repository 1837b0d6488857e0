"""The memory law: a weight byte is copied once per place it lives.

graph -> global image -> simulated global memory -> macro-group register,
one int8 byte each.  These are deterministic counts (``tracemalloc``
bytes, parameter reads), not RSS readings: the process-level numbers are
``benchmarks/perf``'s ``peak_rss_mib``.
"""

import gc
import tracemalloc

import pytest

from repro import Deployment
from repro.compiler import compile_graph
from repro.compiler.codegen import lowering
from repro.errors import CapacityError
from repro.graph.models import get_model
from repro.graph.ops import Operator
from repro.sim.multichip import MultiChipSimulator


def _resnet18_small():
    return get_model("resnet18", input_size=32, num_classes=10)


def test_run_allocates_one_byte_per_loaded_weight(table1_arch):
    """Net allocation across a cycle-tier run is the registers -- a byte
    per CIM-loaded weight -- plus small change (block programs, reports).
    With 4-byte registers the ratio read 4.1."""
    compiled = compile_graph(_resnet18_small(), table1_arch, "dp")
    sim = MultiChipSimulator(compiled)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    loaded = sum(chip.acct.cim_load_bytes for chip in sim.chips)
    assert loaded >= compiled.graph.total_weight_bytes()
    assert grown <= 1.25 * loaded


def test_compile_reads_values_only_to_build_the_image(
    table1_arch, rng_calls, monkeypatch
):
    """Planning, layout and lowering ask shapes; the one reader of
    ``Operator.weight`` / ``.bias`` values is ``build_global_image``."""
    reads = {"inside": 0, "outside": 0}
    where = ["outside"]

    def counted(prop):
        def read(op):
            reads[where[0]] += 1
            return prop.fget(op)
        return property(read)

    monkeypatch.setattr(Operator, "weight", counted(Operator.weight))
    monkeypatch.setattr(Operator, "bias", counted(Operator.bias))
    build_global_image = lowering.build_global_image

    def entered(plan):
        assert rng_calls == []  # nothing drawn before the image is built
        where[0] = "inside"
        try:
            return build_global_image(plan)
        finally:
            where[0] = "outside"

    monkeypatch.setattr(lowering, "build_global_image", entered)
    compiled = compile_graph(_resnet18_small(), table1_arch, "dp")
    assert compiled.global_image.any()
    assert reads["outside"] == 0 and reads["inside"] > 0
    assert len(rng_calls) == 1


def test_oversized_model_fails_in_lowering_before_any_draw(rng_calls):
    """resnet18@224 still dies on its activation slab (ROADMAP item 3),
    now without drawing its 11 M weights first."""
    with pytest.raises(CapacityError, match="stem_pool: segment 'input'"):
        Deployment("resnet18", input_size=224, strategy="dp")
    assert rng_calls == []

"""The memory law: a weight byte is copied once per place it lives.

graph -> global image -> macro-group register, one int8 byte each:
three copies.  Simulated global memory borrows the image's parameter
segment as a read-only view and owns only the activation window
(``tests/test_laws.py`` holds chip construction to that), and a replaced
chip set is freed at once.  These are deterministic counts
(``tracemalloc`` bytes, parameter reads, weakrefs), not RSS readings:
the process-level numbers are ``benchmarks/perf``'s ``peak_rss_mib``.
"""

import asyncio
import gc
import tracemalloc
import weakref

import pytest

from repro import Deployment, Fleet
from repro.compiler import compile_graph
from repro.compiler.codegen import lowering
from repro.compiler.pipeline import compile_model
from repro.config import small_test_arch
from repro.console import drive_session
from repro.errors import CapacityError
from repro.graph.models import get_model
from repro.graph.ops import Operator
from repro.sim.functional import random_input
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


def test_a_replaced_chip_set_is_freed_at_once(monkeypatch):
    """A non-resident stream builds fresh chips per input.  With the
    cyclic collector off, input ``i``'s chips are gone once input
    ``i + 1`` starts: a replaced set is unlinked, not left to the GC."""
    compiled = compile_model(
        "tiny_resnet", small_test_arch(), "dp", chips=2,
        input_size=8, num_classes=10,
    )
    sim = MultiChipSimulator(compiled)
    replaced = []
    execute = sim._execute_pipeline

    def spied():
        assert [ref() for ref in replaced] == [None] * len(replaced)
        replaced.extend(weakref.ref(chip) for chip in sim.chips)
        return execute()

    monkeypatch.setattr(sim, "_execute_pipeline", spied)
    inputs = [random_input(compiled.graph, seed=s) for s in range(3)]
    gc.disable()
    try:
        sim.execute_stream(inputs)
    finally:
        gc.enable()
    assert len(replaced) == 3 * compiled.num_chips


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


def test_a_live_session_keeps_no_event_objects():
    """A live session's memory is the fleet step's records and the
    report, not a second copy of them as events: the event stream is
    replayed from those records on demand.  With the cyclic collector
    off, a clean 20 000-request session grew ~503 B per request while
    the handle kept its events, and grows ~294 B without them."""
    fleet = Fleet(
        "tiny_mlp", small_test_arch(), tier="fast", replicas=3,
        policy="rr", input_size=8, num_classes=10,
    )
    row, _ = fleet._service_profile()
    releases = [i * max(row) // 2 for i in range(20_000)]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handle = asyncio.run(drive_session(fleet, releases))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert handle.report.completed == len(releases)
    assert grown / len(releases) < 400

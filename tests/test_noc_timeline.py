"""Golden NoC-timeline regression battery.

A multipass weight-streaming conv workload is run with per-link
reservation capture (``noc.timeline``) and diffed field-by-field against
a fixture checked into ``tests/data/``.  The timeline is the
finest-grained observable of the NoC model -- every message's head
cycle, link-hold window, size and endpoints on every directed link of
its route -- so any change to routing, serialization, reservation
arithmetic or the iteration-major replay that alters link-level timing
fails here with a precise pointer at the first diverging field.

Capturing a timeline disables batched NoC replay by design (the replay
elides per-link events); a companion test asserts the batched run still
lands on the exact aggregate report of the certified schedule, tying the
closed-form replay to the golden timeline.

Regenerate the fixture after an *intentional* NoC-model change with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/test_noc_timeline.py -q
"""

import json
import os
from pathlib import Path

import pytest

from repro.config import small_test_arch
from repro.sim.chip import ChipSimulator
from repro import compile_model

GOLDEN = Path(__file__).parent / "data" / "noc_timeline_weight_stream_v1.json"

#: The captured workload: two multipass conv branches on adjacent cores,
#: each streaming weight tiles from the global-memory port every pass.
WORKLOAD = dict(branches=2, in_channels=64, width=4, kernel=4)


def _link_key(link) -> str:
    return ",".join(str(x) for x in link) if link else "port"


@pytest.fixture(scope="module")
def compiled():
    return compile_model(
        "weight_stream", small_test_arch(), "generic", **WORKLOAD
    )


def _capture(compiled, engine):
    sim = ChipSimulator.from_compiled(compiled, engine=engine)
    sim.noc.timeline = {}
    report = sim.run()
    links = {
        _link_key(link): [list(rec) for rec in records]
        for link, records in sim.noc.timeline.items()
    }
    return links, report


def _payload(compiled):
    links, report = _capture(compiled, "block")
    return {
        "workload": dict(WORKLOAD, model="weight_stream",
                         arch="small_test_arch", strategy="generic"),
        "record_fields": ["head_cycle", "free_until", "nbytes", "src", "dst"],
        "links": links,
        "aggregates": {
            "cycles": report.cycles,
            "noc_bytes": report.noc_bytes,
            "noc_byte_hops": report.noc_byte_hops,
        },
    }


def test_golden_timeline_fixture_exists(compiled):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN.write_text(json.dumps(_payload(compiled), indent=1) + "\n")
    assert GOLDEN.exists(), (
        f"missing golden fixture {GOLDEN}; regenerate with "
        f"REPRO_REGEN_GOLDEN=1"
    )


def test_timeline_matches_golden_field_by_field(compiled):
    """Every link, every record, every field against the fixture."""
    golden = json.loads(GOLDEN.read_text())
    fields = golden["record_fields"]
    links, _ = _capture(compiled, "block")
    assert sorted(links) == sorted(golden["links"]), (
        f"link set diverged: got {sorted(links)}, "
        f"golden {sorted(golden['links'])}"
    )
    for key in sorted(golden["links"]):
        want = golden["links"][key]
        got = links[key]
        assert len(got) == len(want), (
            f"link {key}: {len(got)} reservation records, "
            f"golden has {len(want)}"
        )
        for i, (g, w) in enumerate(zip(got, want)):
            for f, gv, wv in zip(fields, g, w):
                assert gv == wv, (
                    f"link {key} record {i} field {f!r}: "
                    f"got {gv}, golden {wv}"
                )


def test_interpreter_timeline_identical(compiled):
    """Both engines must emit the same per-link event stream."""
    links_b, _ = _capture(compiled, "block")
    links_i, _ = _capture(compiled, "interp")
    assert links_b == links_i


def test_batched_replay_matches_certified_aggregates(compiled):
    """The batched run (timeline off, NoC replay active) must land on
    the exact aggregate counters of the golden schedule."""
    from repro.sim import blockengine as be

    golden = json.loads(GOLDEN.read_text())
    be.reset_stats()
    report = ChipSimulator.from_compiled(compiled, engine="block").run()
    assert be.ENGINE_STATS["noc_batch_successes"] > 0, (
        "the multipass workload no longer batches its NoC windows"
    )
    agg = golden["aggregates"]
    assert report.cycles == agg["cycles"]
    assert report.noc_bytes == agg["noc_bytes"]
    assert report.noc_byte_hops == agg["noc_byte_hops"]

"""Cycle-level simulator perf-regression harness: engine vs interpreter.

Times the hot-block execution engine (:mod:`repro.sim.blockengine`, the
default) against the legacy per-instruction interpreter
(``REPRO_SIM_ENGINE=interp``) on three workload classes and writes
``BENCH_cyclesim.json`` so the performance trajectory is tracked
PR-over-PR (CI uploads it as a non-gating artifact):

- ``hot_loop``: every core runs a counted conv-style inner loop (the
  paper's generated-code hot path: ``CIM_MVM`` + requantise + pointer
  bumps + ``BLT``).  Dispatch-bound, so it isolates what the engine is
  for; gated at >= 10x.
- compiled models (``resnet18``, ``mobilenetv2``): end-to-end compiled
  stacks where per-instruction dataflow and NoC modelling, which both
  engines pay, bound the achievable speedup; gated only on bit-identical
  reports.  Two pairs of numbers each: ``engine_cold_s`` /
  ``interp_cold_s`` are what one ``repro run`` pays -- chip
  construction plus the first run with every in-process cache empty, so
  decoding, block discovery and loop compilation are on the clock --
  and ``engine_s`` / ``interp_s`` are the best ``run()`` alone over the
  timed rounds after an untimed warm-up run: loops already compiled and
  straight-line code on the interpreter's handlers, which is what every
  input of a long serving session pays.  The golden model's pass over
  the same graph is timed next to them (``golden_s``), so the "Exec.
  Result Check" has a tracked number of its own.
- ``weight_stream``: multipass weight-streaming conv branches whose
  loop bodies carry a global ``MEM_CPY`` + ``CIM_LOAD`` per pass -- the
  iteration-major NoC replay path.  The ``noc_batch_*`` engine stats
  are asserted non-degenerate here so a silent bailout-to-stepped
  regression fails this job instead of just slowing the engine down.
- the historical fast-model anchor (bit-exact golden validation plus an
  order-of-magnitude latency agreement between the cycle simulator and
  the analytic model).

Every timed pair also asserts the exactness contract: identical
``SimulationReport`` fields (cycles, energy breakdown, utilization, NoC
counters, instruction counts) from both engines.

``REPRO_BENCH_TINY=1`` switches the harness to smoke scale: shorter
loops and smaller model inputs with relaxed speedup gates (the
bit-identity asserts are unchanged).  CI runs this tiny invocation as a
separate fast job so every PR records a ``BENCH_cyclesim.json``
artifact even when the full tier-1 run stops early.
"""

import json
import os
import time
import timeit
from pathlib import Path

import numpy as np
import pytest

from repro import compile_model
from repro.config import default_arch
from repro.config.arch import GLOBAL_BASE
from repro.isa import ProgramBuilder, SReg
from repro.sim import blockengine
from repro.sim.chip import ChipSimulator
from repro.sim.fastmodel import analyze_plan
from repro.sim.functional import golden_outputs, random_input

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_cyclesim.json"
_RESULTS = {}

#: Timing rounds per engine (minimum is reported).
ROUNDS = 2

#: Smoke scale: short loops, small inputs, relaxed speedup gates.
TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

#: (hot-loop iterations, model input size, model classes, anchor input).
HOT_ITERS, MODEL_INPUT, MODEL_CLASSES, ANCHOR_INPUT = (
    (150, 16, 10, 16) if TINY else (1500, 64, 100, 32)
)

#: Parallel multipass conv branches in the weight-streaming workload.
STREAM_BRANCHES = 4 if TINY else 16

#: Speedup floors, re-derived once every matrix product went through
#: ``quantize.int_matmul`` (float32 BLAS; both engines got faster, the
#: engine more).  Each was about 0.6x the slowest of nine runs on the
#: 2-core reference box.  The interpreter has since become 1.5-1.8x
#: faster (its handlers are the block emitter's rendering), so the
#: ratios fell while the floors stayed.  Re-measured on a loaded
#: session of that box, where the hand-written handlers read hot loop
#: interp 5.96 s (188x) and weight_stream@16x interp 0.13 s (4.8x):
#: hot loop interp 3.6-3.9 s, engine 0.039-0.044 s (88-102x);
#: weight_stream@16x interp 0.08-0.09 s, engine 0.024-0.029 s
#: (3.0-3.3x).  Smoke scale: 13.9x and 1.5-2.1x (16.2x and 2.3x with
#: the hand-written handlers), so ``STREAM_FLOOR``'s smoke margin is
#: thin.  Both workloads are loop-bound: tiering the straight-line
#: blocks left them where they were.
HOT_LOOP_FLOOR = 8.0 if TINY else 10.0
STREAM_FLOOR = 1.4 if TINY else 2.0


def _report_fields(report):
    return {
        "cycles": report.cycles,
        "instructions": report.instructions,
        "macs": report.macs,
        "energy_breakdown_pj": report.energy_breakdown_pj,
        "utilization": report.utilization,
        "noc_bytes": report.noc_bytes,
        "noc_byte_hops": report.noc_byte_hops,
    }


def _time_engine(make_sim, engine):
    best = None
    report = None
    for _ in range(ROUNDS):
        sim = make_sim(engine)
        t0 = time.perf_counter()
        report = sim.run()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, report


def _time_cold(make_sim, engine, programs):
    """Construction + first run as a new process would pay them: no
    decoded program, no block table, no compiled shape."""
    blockengine._BP_CACHE.clear()
    blockengine._SHAPE_CACHE.clear()
    for program in programs:
        program._translated = None
    t0 = time.perf_counter()
    report = make_sim(engine).run()
    return time.perf_counter() - t0, report


def _bench_pair(name, make_sim, cold_programs=None):
    """Time both engines, assert bit-identical reports, record results.

    ``cold_programs`` (the model's programs) adds the process-cold pair.
    """
    cold = {}
    if cold_programs is not None:
        reports = {}
        for engine in ("block", "interp"):
            cold[engine], reports[engine] = _time_cold(
                make_sim, engine, cold_programs
            )
        assert (_report_fields(reports["interp"])
                == _report_fields(reports["block"])), (
            f"{name}: cold engine report diverges from the interpreter"
        )
    # One untimed run first: it compiles the loops and handlers and
    # absorbs the process's first-call stalls (a threaded sgemm's worker
    # wake-up can cost a fresh process 0.3-0.5 s over two runs).
    make_sim("block").run()
    blockengine.reset_stats()
    t_block, r_block = _time_engine(make_sim, "block")
    stats = dict(blockengine.ENGINE_STATS)
    t_interp, r_interp = _time_engine(make_sim, "interp")
    assert _report_fields(r_interp) == _report_fields(r_block), (
        f"{name}: engine reports diverge from the interpreter"
    )
    speedup = t_interp / t_block
    entry = {
        "interp_s": round(t_interp, 4),
        "engine_s": round(t_block, 4),
        "speedup": round(speedup, 2),
        "instructions": int(r_block.instructions),
        "cycles": int(r_block.cycles),
        "interp_instr_per_s": round(r_block.instructions / t_interp),
        "engine_instr_per_s": round(r_block.instructions / t_block),
        "interp_cycles_per_s": round(r_block.cycles / t_interp),
        "engine_cycles_per_s": round(r_block.cycles / t_block),
        "engine_stats": stats,  # accumulated over the timing rounds
    }
    _RESULTS[name] = entry
    print(
        f"\n{name}: interp {t_interp:.2f}s vs engine {t_block:.3f}s "
        f"-> {speedup:.1f}x ({r_block.instructions:,} instructions, "
        f"{r_block.cycles:,} cycles, bit-identical)"
    )
    if cold:
        entry["interp_cold_s"] = round(cold["interp"], 4)
        entry["engine_cold_s"] = round(cold["block"], 4)
        entry["cold_speedup"] = round(cold["interp"] / cold["block"], 2)
        print(
            f"{name}: process-cold construct + first run: interp "
            f"{cold['interp']:.2f}s vs engine {cold['block']:.2f}s "
            f"-> {entry['cold_speedup']:.1f}x"
        )
    return entry


def _hot_loop_program(iters=HOT_ITERS, rows=64, cols=16):
    """Per-core counted loop mirroring the paper's generated inner loop."""
    b = ProgramBuilder()
    b.li(1, GLOBAL_BASE)
    b.li(2, 0)
    b.li(3, rows * cols)
    b.emit("MEM_CPY", rs=1, rt=2, rd=3)             # weight tile -> local
    b.set_sreg(SReg.MVM_ROWS, 10, rows)
    b.set_sreg(SReg.MVM_COLS, 10, cols)
    b.li(4, 0)
    b.li(5, 0)
    b.emit("CIM_LOAD", rs=4, rt=5)
    b.set_sreg(SReg.QMUL, 10, 3)
    b.set_sreg(SReg.QSHIFT, 10, 8)
    b.li(6, 4096)                                   # input pointer
    b.li(7, 8192)                                   # accumulator
    b.li(8, 10000)                                  # output pointer
    b.li(21, cols)
    b.li(1, 0)
    b.li(2, iters)
    with b.loop(1, 2):
        b.emit("CIM_MVM", rs=6, rt=5, re=7, flags=0)
        b.emit("VEC_QNT", rs=7, rd=8, re=21)
        b.emit("SC_ADDIW", rs=6, rt=6, offset=1)
        b.emit("SC_ADDIW", rs=8, rt=8, offset=cols)
    b.halt()
    return b.finalize()


def test_bench_hot_loop_engine_speedup():
    """Dispatch-bound hot path: the engine must be >= 10x the interpreter."""
    arch = default_arch()
    rng = np.random.default_rng(7)
    image = rng.integers(-128, 128, 64 * 16, dtype=np.int8).view(np.uint8)
    program = _hot_loop_program()
    programs = {cid: program for cid in range(arch.chip.num_cores)}

    def make_sim(engine):
        return ChipSimulator(
            arch, programs, global_image=image, engine=engine
        )

    entry = _bench_pair("hot_loop", make_sim)
    assert entry["speedup"] >= HOT_LOOP_FLOOR, (
        f"hot-block engine regressed to {entry['speedup']:.1f}x on the "
        f"dispatch-bound loop workload (>= {HOT_LOOP_FLOOR}x required)"
    )


@pytest.mark.parametrize("model", ["resnet18", "mobilenetv2"])
def test_bench_model_engine_speedup(model):
    """End-to-end compiled models: bit-identical, speedup tracked."""
    compiled = compile_model(
        model, arch=default_arch(), strategy="generic",
        input_size=MODEL_INPUT, num_classes=MODEL_CLASSES,
    )

    def make_sim(engine):
        sim = ChipSimulator.from_compiled(compiled, engine=engine)
        return sim

    entry = _bench_pair(
        f"{model}@{MODEL_INPUT}", make_sim,
        cold_programs=list(compiled.programs.values()),
    )
    # End-to-end stacks include per-instruction dataflow + NoC modelling
    # both engines pay, and wall-clock ratios near 1 are noise-prone on
    # shared CI runners -- gate only against catastrophic engine
    # regressions; the magnitude is tracked (non-gating) in
    # BENCH_cyclesim.json.
    assert entry["speedup"] > (0.2 if TINY else 0.3)

    graph = compiled.graph
    inputs = {graph.input_operators[0].output: random_input(graph)}
    golden_s = min(timeit.repeat(
        lambda: golden_outputs(graph, inputs), number=1, repeat=ROUNDS
    ))
    entry["golden_s"] = round(golden_s, 4)
    print(f"{model}@{MODEL_INPUT}: golden model {golden_s:.3f}s")


def test_bench_weight_stream_engine_speedup():
    """Multipass weight-streaming convs: the iteration-major NoC replay
    path must engage (non-zero batched NoC windows, zero contention
    bailouts on this contention-free mapping) and beat the interpreter.
    """
    compiled = compile_model(
        "weight_stream", arch=default_arch(), strategy="generic",
        branches=STREAM_BRANCHES,
    )

    def make_sim(engine):
        return ChipSimulator.from_compiled(compiled, engine=engine)

    entry = _bench_pair(f"weight_stream@{STREAM_BRANCHES}x", make_sim)
    stats = entry["engine_stats"]
    assert stats["noc_batch_attempts"] > 0, (
        "weight-streaming loops never attempted NoC replay -- the "
        "multipass bodies regressed to per-iteration stepping"
    )
    assert stats["noc_batch_successes"] == stats["noc_batch_attempts"], (
        f"NoC replay silently bailed out on a contention-free workload: "
        f"{stats['noc_batch_successes']}/{stats['noc_batch_attempts']} "
        f"windows committed"
    )
    assert stats["noc_batch_contention_bailouts"] == 0
    assert entry["speedup"] >= STREAM_FLOOR, (
        f"weight-streaming engine speedup regressed to "
        f"{entry['speedup']:.1f}x (>= {STREAM_FLOOR}x required)"
    )


def test_bench_cyclesim_fastmodel_anchor():
    """Historical anchor: golden-validated run + fast-model agreement."""
    from repro import Deployment

    result = Deployment(
        "resnet18", arch=default_arch(), strategy="generic",
        input_size=ANCHOR_INPUT, num_classes=MODEL_CLASSES,
    ).run()
    assert result.validated
    fast = analyze_plan(result.compiled.plan)
    ratio = fast.cycles / result.report.cycles
    r = result.report
    print(
        f"\nresnet18@{ANCHOR_INPUT}: cycle-sim {r.cycles:,} cycles / "
        f"{r.total_energy_mj:.3f} mJ / {r.instructions:,} instructions; "
        f"fast model {fast.cycles:,} cycles (ratio {ratio:.2f})"
    )
    # At small inputs the per-instruction scalar set-up dominates, so the
    # row-granular fast model under-predicts; the anchor only requires
    # order-of-magnitude agreement here.
    assert 0.02 < ratio < 20.0
    assert r.macs > 0
    assert r.utilization["cim"] > 0


def test_bench_resident_serving_warm_rate():
    """Resident-weights serving on the weight-streaming workload: the
    warm sustained rate (weights already loaded) must strictly beat the
    reload-per-input baseline, with bit-identical outputs and the
    steady-state law ``cold = load + warm`` exact.  The warm-rate gain
    is recorded in ``BENCH_cyclesim.json`` so the amortisation
    trajectory is tracked PR-over-PR.

    The gain is structurally small here: multipass cores re-stream
    their weight tiles every pass by design, so only single-stage
    cores' prologues are hoistable -- but it must stay strictly > 1x
    (integer cycle counts make this deterministic, not noise-gated).
    """
    from repro.serve import Deployment

    compiled = compile_model(
        "weight_stream", arch=default_arch(), strategy="generic",
        branches=STREAM_BRANCHES,
    )
    batch = 4
    plain = Deployment(compiled).submit(batch=batch, seed=11)
    session = Deployment(compiled, resident_weights=True)
    # First submission pays the one-time weight load; the second replays
    # activation traffic only.
    cold = session.submit(batch=batch, seed=11)
    warm = session.submit(batch=batch, seed=11)

    for a, b in zip(
        warm.replica_reports[0].per_input_outputs,
        plain.replica_reports[0].per_input_outputs,
    ):
        assert set(a) == set(b)
        for tensor in a:
            np.testing.assert_array_equal(a[tensor], b[tensor])
    [load] = cold.replica_load_cycles
    assert load > 0
    assert warm.replica_load_cycles == [0]
    assert cold.makespan_cycles == load + warm.makespan_cycles
    gain = warm.throughput_inf_per_s / plain.throughput_inf_per_s
    assert gain > 1.0, (
        f"resident warm rate regressed to {gain:.3f}x the reload-per-"
        f"input baseline (must be strictly > 1x)"
    )
    _RESULTS[f"weight_stream_resident@{STREAM_BRANCHES}x"] = {
        "batch": batch,
        "load_cycles": int(load),
        "cold_makespan_cycles": int(cold.makespan_cycles),
        "warm_makespan_cycles": int(warm.makespan_cycles),
        "plain_inf_per_s": round(plain.throughput_inf_per_s),
        "warm_inf_per_s": round(warm.throughput_inf_per_s),
        "warm_rate_gain": round(gain, 3),
    }
    print(
        f"\nweight_stream_resident@{STREAM_BRANCHES}x: warm "
        f"{warm.throughput_inf_per_s:,.0f} inf/s vs reload-per-input "
        f"{plain.throughput_inf_per_s:,.0f} inf/s -> {gain:.2f}x "
        f"(load {load:,} cycles, bit-identical)"
    )


def test_bench_write_results():
    """Persist BENCH_cyclesim.json (runs last; non-gating artifact)."""
    if not _RESULTS:
        pytest.skip("no benchmark results collected")
    payload = {
        "benchmark": "cyclesim_engine_vs_interp",
        "rounds": ROUNDS,
        "tiny": TINY,
        "workloads": _RESULTS,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {RESULTS_PATH}")

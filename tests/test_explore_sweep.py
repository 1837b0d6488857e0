"""Tests for the design-space exploration engine and its result cache."""

import itertools
import json
from dataclasses import replace

import pytest

from repro.config import (
    arch_fingerprint,
    default_arch,
    small_test_arch,
    with_flit_bytes,
    with_mg_size,
)
from repro.errors import ConfigError
from repro.explore import (
    AXES,
    DesignPoint,
    PointSpec,
    SweepSpec,
    evaluate_fast,
    run_sweep,
)
from repro.explore_cache import CACHE_SCHEMA_VERSION, ResultCache, point_key
from repro.sim.fastmodel import FastReport


def tiny_spec(**overrides):
    base = dict(
        models=("tiny_cnn", "tiny_resnet"),
        strategies=("generic", "dp"),
        mg_sizes=(2,),
        flit_sizes=(8, 16),
        input_sizes=(8,),
        num_classes=10,
        base_arch=small_test_arch(),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestArchFingerprint:
    def test_stable_across_instances(self):
        assert arch_fingerprint(default_arch()) == arch_fingerprint(
            default_arch()
        )

    def test_sensitive_to_every_swept_axis(self):
        base = default_arch()
        prints = {
            arch_fingerprint(base),
            arch_fingerprint(with_mg_size(base, 4)),
            arch_fingerprint(with_flit_bytes(base, 16)),
        }
        assert len(prints) == 3


class TestSweepSpec:
    def test_cross_product_size_and_order(self):
        spec = tiny_spec()
        points = spec.points()
        assert len(points) == len(spec) == 2 * 2 * 1 * 2
        # model is the outermost axis, MG the innermost
        assert [p.model for p in points[:4]] == ["tiny_cnn"] * 4
        assert points[0].flit_bytes == 8 and points[1].flit_bytes == 16

    def test_none_axes_keep_base_arch(self):
        spec = tiny_spec(mg_sizes=None, flit_sizes=None)
        (first, *_) = spec.points()
        assert first.mg_size is None and first.flit_bytes is None
        assert first.resolve_arch(spec.arch()) == spec.arch()

    def test_per_model_closure_limits(self):
        spec = tiny_spec(
            closure_limit={"tiny_cnn": 4, "tiny_resnet": None}
        )
        limits = {p.model: p.closure_limit for p in spec.points()}
        assert limits == {"tiny_cnn": 4, "tiny_resnet": None}

    def test_spec_is_hashable_even_with_limit_map(self):
        plain = tiny_spec()
        mapped = tiny_spec(closure_limit={"tiny_cnn": 4})
        assert len({plain, mapped, tiny_spec()}) == 2

    def test_models_without_input_size_kwarg_sweep_fine(self):
        """tiny_mlp has a flat input; axis kwargs must not crash it."""
        result = run_sweep(tiny_spec(models=("tiny_mlp",), mg_sizes=None,
                                     flit_sizes=None))
        assert len(result) == 2  # two strategies
        assert all(p.cycles > 0 for p in result.points)

    def test_rejects_empty_axes(self):
        with pytest.raises(ConfigError):
            tiny_spec(models=())

    def test_normalises_lists_to_tuples(self):
        spec = tiny_spec(models=["tiny_cnn"], mg_sizes=[2])
        assert spec.models == ("tiny_cnn",)
        assert spec.mg_sizes == (2,)


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = FastReport(
            cycles=123, energy_breakdown_pj={"noc": 1.5}, macs=42,
            clock_mhz=1000, stage_cycles={0: 123},
        )
        key = point_key("tiny_cnn", small_test_arch(), "dp", 8, 10, None)
        assert cache.lookup(key) is None
        cache.store(key, report, meta={"model": "tiny_cnn"})
        assert cache.lookup(key) == report
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_key_distinguishes_every_coordinate(self):
        arch = small_test_arch()
        keys = {
            point_key("tiny_cnn", arch, "dp", 8, 10, None),
            point_key("tiny_resnet", arch, "dp", 8, 10, None),
            point_key("tiny_cnn", arch, "generic", 8, 10, None),
            point_key("tiny_cnn", arch, "dp", 16, 10, None),
            point_key("tiny_cnn", arch, "dp", 8, 2, None),
            point_key("tiny_cnn", arch, "dp", 8, 10, 4),
            point_key("tiny_cnn", with_mg_size(arch, 4), "dp", 8, 10, None),
            point_key("tiny_cnn", arch, "dp", 8, 10, None, chips=2),
            point_key("tiny_cnn", arch, "dp", 8, 10, None, batch=4),
            point_key("tiny_cnn", arch, "dp", 8, 10, None, chips=2, batch=4),
        }
        assert len(keys) == 10

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("tiny_cnn", small_test_arch(), "dp", 8, 10, None)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.lookup(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = point_key("tiny_cnn", small_test_arch(), "dp", 8, 10, None)
        report = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        )
        path = cache.store(key, report)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.lookup(key) is None

    def test_schema_bump_invalidates_existing_entries(
        self, tmp_path, monkeypatch
    ):
        """A CACHE_SCHEMA_VERSION bump must orphan every stored entry."""
        import repro.explore_cache as explore_cache

        cache = ResultCache(tmp_path)
        report = FastReport(
            cycles=9, energy_breakdown_pj={"noc": 1.0}, macs=3,
            clock_mhz=1000,
        )
        key = "ab" + "0" * 62
        cache.store(key, report)
        assert cache.lookup(key) == report
        monkeypatch.setattr(
            explore_cache, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cache.lookup(key) is None
        assert cache.misses == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        )
        cache.store("ab" + "0" * 62, report)
        cache.store("cd" + "0" * 62, report)
        assert cache.clear() == 2
        assert len(cache) == 0


class TestRunSweep:
    def test_negative_worker_count_is_rejected(self):
        """It used to run serially (``max(1, workers or 1)``)."""
        with pytest.raises(ConfigError, match="workers must be >= 0"):
            run_sweep(tiny_spec(), workers=-1)

    def test_matches_direct_evaluation(self):
        spec = tiny_spec()
        result = run_sweep(spec)
        assert len(result) == len(spec)
        direct = evaluate_fast(
            "tiny_cnn",
            with_flit_bytes(with_mg_size(small_test_arch(), 2), 8),
            "generic", 8, 10,
        )
        assert result.points[0].report == direct.report
        assert result.points[0].plan is None  # engine drops plans

    def test_cache_miss_then_full_hit(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, cache=ResultCache(tmp_path))
        assert first.stats.cache_hits == 0
        assert first.stats.evaluated == len(spec)
        second = run_sweep(spec, cache=ResultCache(tmp_path))
        assert second.stats.cache_hits == len(spec)
        assert second.stats.evaluated == 0
        assert second.stats.hit_rate == 1.0
        assert all(p.cached for p in second.points)
        assert [p.report for p in first.points] == [
            p.report for p in second.points
        ]

    def test_cache_keys_differ_across_strategies(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep(tiny_spec(strategies=("generic",)), cache=cache)
        result = run_sweep(tiny_spec(strategies=("dp",)), cache=cache)
        assert result.stats.cache_hits == 0

    def test_parallel_equals_serial(self):
        spec = tiny_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert parallel.stats.workers == 2
        assert [p.report for p in parallel.points] == [
            p.report for p in serial.points
        ]
        assert [(p.model, p.strategy, p.mg_size, p.flit_bytes)
                for p in parallel.points] == [
            (p.model, p.strategy, p.mg_size, p.flit_bytes)
            for p in serial.points
        ]

    def test_parallel_with_cache_populates_and_hits(self, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, workers=2, cache=ResultCache(tmp_path))
        assert first.stats.evaluated == len(spec)
        second = run_sweep(spec, workers=2, cache=ResultCache(tmp_path))
        assert second.stats.cache_hits == len(spec)

    def test_progress_callback_sees_every_point(self):
        spec = tiny_spec()
        seen = []
        run_sweep(spec, progress=lambda done, total, pt: seen.append(
            (done, total, pt.model)
        ))
        assert len(seen) == len(spec)
        assert seen[-1][0] == len(spec)
        assert all(total == len(spec) for _, total, _ in seen)

    def test_grouping_helpers_and_best(self):
        result = run_sweep(tiny_spec())
        by_model = result.by_model()
        assert set(by_model) == {"tiny_cnn", "tiny_resnet"}
        nested = result.by_model_strategy()
        assert set(nested["tiny_cnn"]) == {"generic", "dp"}
        best = result.best("tops")
        assert best.tops == max(p.tops for p in result.points)
        fastest = result.best("cycles")
        assert fastest.cycles == min(p.cycles for p in result.points)
        with pytest.raises(ConfigError):
            result.best("nope")

    def test_result_to_dict_is_json_safe(self):
        result = run_sweep(tiny_spec(models=("tiny_cnn",)))
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["spec"]["models"] == ["tiny_cnn"]
        assert len(payload["points"]) == len(result)
        restored = FastReport.from_dict(payload["points"][0]["report"])
        assert restored == result.points[0].report


class TestDesignPoint:
    def test_plan_is_optional(self):
        report = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        )
        point = DesignPoint(
            model="m", strategy="dp", mg_size=8, flit_bytes=8, report=report,
        )
        assert point.plan is None

    def test_evaluate_fast_keeps_plan(self):
        point = evaluate_fast(
            "tiny_cnn", small_test_arch(), "dp", input_size=8, num_classes=10,
        )
        assert point.plan is not None
        assert point.input_size == 8 and point.num_classes == 10


class TestPointSpec:
    def test_resolve_arch_applies_overrides(self):
        base = small_test_arch()
        pspec = PointSpec(
            model="tiny_cnn", strategy="dp", input_size=8, num_classes=10,
            mg_size=4, flit_bytes=16,
        )
        arch = pspec.resolve_arch(base)
        assert arch.chip.core.cim_unit.macro_group.num_macros == 4
        assert arch.chip.noc.flit_bytes == 16

    def test_cache_key_matches_point_key(self):
        base = small_test_arch()
        pspec = PointSpec(
            model="tiny_cnn", strategy="dp", input_size=8, num_classes=10,
            mg_size=4, flit_bytes=16,
        )
        assert pspec.cache_key(base) == point_key(
            "tiny_cnn", pspec.resolve_arch(base), "dp", 8, 10, None
        )

    def test_a_fast_point_keys_as_before_the_tier_axis(self):
        """A fast point keys exactly as it did before the ``tier``
        coordinate existed: the pin is the v8 key material with no
        ``tier`` field (at schema 7 the same material gave
        ``3fb46e8a...``, the key a checkout without the axis wrote)."""
        pspec = PointSpec(
            model="tiny_cnn", strategy="dp", input_size=8, num_classes=10,
            chips=2, batch=4, arrival_rate=250000.0, replicas=2,
            resident_weights=True,
        )
        assert pspec.cache_key(small_test_arch()) == (
            "23f9e19e7e506d0802815a1102942081c704f65223400c03932050750a582d4c"
        )
        assert replace(pspec, tier="cyclesim").cache_key(
            small_test_arch()) != pspec.cache_key(small_test_arch())


class TestAdaptiveScheduling:
    def test_cost_estimate_orders_heavy_points_first(self):
        from repro.explore import estimate_point_cost

        heavy = PointSpec(model="vgg19", strategy="dp",
                          input_size=224, num_classes=1000)
        light = PointSpec(model="tiny_mlp", strategy="generic",
                          input_size=8, num_classes=10)
        assert estimate_point_cost(heavy) > 10 * estimate_point_cost(light)

    def test_closure_limit_discounts_dp_cost(self):
        from repro.explore import estimate_point_cost

        capped = PointSpec(model="efficientnetb0", strategy="dp",
                           input_size=224, num_classes=1000,
                           closure_limit=64)
        uncapped = PointSpec(model="efficientnetb0", strategy="dp",
                             input_size=224, num_classes=1000)
        assert estimate_point_cost(capped) < estimate_point_cost(uncapped)

    def test_parallel_results_identical_despite_reordering(self):
        spec = tiny_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert [p.to_dict() for p in serial] == [
            p.to_dict() for p in parallel
        ]


class TestCacheGC:
    def _fill(self, cache, report, n):
        for i in range(n):
            cache.store(f"{i:04x}" + "0" * 60, report)

    def test_lru_prune_on_write(self, tmp_path):
        report = evaluate_fast(
            "tiny_mlp", small_test_arch(), "generic",
            input_size=8, num_classes=10,
        ).report
        cache = ResultCache(tmp_path, max_bytes=4096)
        self._fill(cache, report, 64)
        assert cache.size_bytes() <= 4096
        assert cache.evictions > 0

    def test_lookup_refreshes_recency(self, tmp_path):
        import os
        import time

        report = evaluate_fast(
            "tiny_mlp", small_test_arch(), "generic",
            input_size=8, num_classes=10,
        ).report
        cache = ResultCache(tmp_path, max_bytes=0)  # no pruning yet
        keys = [f"{i:04x}" + "0" * 60 for i in range(6)]
        for key in keys:
            cache.store(key, report)
        # age everything, then touch the first entry via lookup
        past = time.time() - 3600
        for key in keys:
            os.utime(cache.path_for(key), (past, past))
        assert cache.lookup(keys[0]) is not None
        entry = cache.path_for(keys[0]).stat().st_size
        cache.max_bytes = 3 * entry
        removed = cache.gc()
        assert removed > 0
        assert cache.lookup(keys[0]) is not None      # recently used survives
        assert cache.lookup(keys[1]) is None          # oldest went first

    def test_zero_cap_disables_gc(self, tmp_path):
        report = evaluate_fast(
            "tiny_mlp", small_test_arch(), "generic",
            input_size=8, num_classes=10,
        ).report
        cache = ResultCache(tmp_path, max_bytes=0)
        self._fill(cache, report, 40)
        assert len(cache) == 40
        assert cache.gc() == 0

    def test_env_default_cap(self, monkeypatch, tmp_path):
        from repro.explore_cache import cache_max_bytes

        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert cache_max_bytes() == 256 * 1024 * 1024
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        assert ResultCache(tmp_path).max_bytes == 1024 * 1024

    def test_env_cap_drives_lru_eviction(self, monkeypatch, tmp_path):
        """End-to-end: REPRO_CACHE_MAX_MB alone caps an env-configured
        cache, and the oldest entries are the ones evicted."""
        import os
        import time

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        cache = ResultCache(tmp_path)  # max_bytes from the environment
        # ~34 KB per entry so a few dozen stores cross the 1 MB cap
        # within one GC interval.
        fat = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
            stage_cycles={i: i for i in range(3000)},
        )
        keys = [f"{i:04x}" + "0" * 60 for i in range(40)]
        past = time.time() - 3600
        for i, key in enumerate(keys):
            path = cache.store(key, fat)
            if i < 20:  # age the first half so LRU order is unambiguous
                os.utime(path, (past, past))
        cache.gc()
        assert cache.size_bytes() <= 1024 * 1024
        assert cache.evictions > 0
        assert cache.lookup(keys[-1]) is not None   # newest survives
        assert cache.lookup(keys[0]) is None        # oldest evicted

    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", " "])
    def test_malformed_env_cap_is_a_config_error(
        self, raw, monkeypatch, tmp_path
    ):
        from repro.explore_cache import cache_max_bytes

        monkeypatch.setenv("REPRO_CACHE_MAX_MB", raw)
        with pytest.raises(ConfigError, match="REPRO_CACHE_MAX_MB") as exc:
            cache_max_bytes()
        assert repr(raw) in str(exc.value)
        with pytest.raises(ConfigError):
            ResultCache(tmp_path)

    def test_zero_env_cap_means_unlimited(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
        assert ResultCache(tmp_path).max_bytes == 0

    def test_a_600_store_fill_scans_the_tree_once(self, monkeypatch, tmp_path):
        from pathlib import Path

        report = FastReport(
            cycles=1, energy_breakdown_pj={"cim": 1.0}, macs=1,
            clock_mhz=1000,
        )
        scans = []
        real_glob = Path.glob

        def counting_glob(self, pattern):
            scans.append(pattern)
            return real_glob(self, pattern)

        monkeypatch.setattr(Path, "glob", counting_glob)
        cache = ResultCache(tmp_path)  # the default 256 MB cap
        self._fill(cache, report, 600)
        assert scans == ["??/*.json"]
        monkeypatch.undo()
        assert len(cache) == 600

    def test_overwriting_keys_stays_under_the_cap(self, tmp_path):
        from repro.explore_cache import _GC_STORE_INTERVAL

        fat = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
            stage_cycles={i: i for i in range(200)},
        )
        probe = ResultCache(tmp_path / "probe", max_bytes=0)
        entry = probe.store("0" * 64, fat).stat().st_size
        cache = ResultCache(tmp_path / "cache", max_bytes=3 * entry)
        keys = [f"{i:04x}" + "0" * 60 for i in range(5)]
        for i in range(3 * _GC_STORE_INTERVAL):
            cache.store(keys[i % len(keys)], fat)
        assert cache.size_bytes() <= cache.max_bytes
        cache.gc()
        assert cache.size_bytes() <= cache.max_bytes
        assert cache.evictions > 0

    def test_another_writers_bytes_are_pruned_at_the_rescan(
        self, monkeypatch, tmp_path
    ):
        import repro.explore_cache as explore_cache

        every = explore_cache._GC_STORE_INTERVAL
        monkeypatch.setattr(explore_cache, "_GC_RESCAN_INTERVAL", 2 * every)
        report = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        )
        probe = ResultCache(tmp_path / "probe", max_bytes=0)
        entry = probe.store("0" * 64, report).stat().st_size
        ours = ResultCache(tmp_path / "shared", max_bytes=4 * every * entry)
        theirs = ResultCache(tmp_path / "shared", max_bytes=0)
        for i in range(every):  # the first scan: well under the cap
            ours.store(f"{i:064x}", report)
        for i in range(every, 7 * every):  # another process fills past it
            theirs.store(f"{i:064x}", report)
        assert ours.size_bytes() > ours.max_bytes
        # Our own total stays under the cap; the rescan still prunes.
        for i in range(7 * every, 9 * every):
            ours.store(f"{i:064x}", report)
        assert ours.size_bytes() <= ours.max_bytes
        assert ours.evictions > 0

    def test_a_removed_shard_directory_is_recreated(self, tmp_path):
        import shutil

        report = FastReport(
            cycles=1, energy_breakdown_pj={}, macs=1, clock_mhz=1000,
        )
        cache = ResultCache(tmp_path)
        first, second = "ab" + "0" * 62, "ab" + "1" * 62
        cache.store(first, report)
        shutil.rmtree(cache.path_for(first).parent)
        cache.store(second, report)
        assert cache.lookup(second) == report
        assert cache.lookup(first) is None


class TestRankingTable:
    """``best``, ``rank`` and ``report`` rank through one table."""

    @pytest.fixture(scope="class")
    def result(self):
        # Batch and replicas split the per-inference metrics from the
        # per-run ones, so the five rankings disagree.
        return run_sweep(tiny_spec(
            models=("tiny_cnn",), flit_sizes=(8,), batch_sizes=(1, 4),
            replica_counts=(1, 2), arrival_rates=(None, 250000.0),
        ))

    def test_the_table(self):
        from repro.explore import PARETO, RANKINGS

        assert RANKINGS == {
            "tops": True, "throughput_inf_s": True, "energy_mj": False,
            "energy_per_inf_mj": False, "cycles": False,
        }
        assert set(PARETO) <= set(RANKINGS)

    def test_the_metrics_pick_different_points(self, result):
        from repro.explore import RANKINGS

        picks = {result.points.index(result.best(m)) for m in RANKINGS}
        assert len(picks) >= 3

    def test_rows_rank_as_points_do(self, result):
        from operator import itemgetter

        from repro.explore import PARETO, RANKINGS, pareto_filter, rank

        rows = [point.to_dict() for point in result.points]
        for metric in RANKINGS:
            assert [rows.index(r) for r in rank(rows, metric, itemgetter)] == [
                result.points.index(p) for p in rank(result.points, metric)
            ]
        front = pareto_filter(rows, itemgetter(*PARETO))
        assert [rows.index(r) for r in front] == [
            result.points.index(p) for p in result.pareto_front()
        ]

    def test_one_unknown_metric_text(self, result):
        from repro.explore import rank

        messages = []
        for attempt in (
            lambda: result.best("watts"),
            lambda: rank([{"watts": 1}], "watts"),
        ):
            with pytest.raises(ConfigError) as exc:
                attempt()
            messages.append(str(exc.value))
        assert messages == [
            "unknown metric 'watts'; expected tops/throughput_inf_s/"
            "energy_mj/energy_per_inf_mj/cycles"
        ] * 2


class TestParetoFront:
    def _point(self, energy, tops, model="tiny_cnn"):
        # tops = 2 * macs / seconds / 1e12; pick macs so tops comes out
        # exactly: cycles=1000 @ 1000 MHz -> 1 us -> macs = tops * 5e5.
        report = FastReport(
            cycles=1000,
            energy_breakdown_pj={"noc": energy * 1e9},
            macs=int(tops * 5e5),
            clock_mhz=1000,
        )
        return DesignPoint(
            model=model, strategy="dp", mg_size=2, flit_bytes=8,
            report=report, input_size=8, num_classes=10,
        )

    def _result(self, coords):
        from repro.explore import SweepResult, SweepStats

        points = [self._point(e, t) for e, t in coords]
        spec = tiny_spec(models=("tiny_cnn",), strategies=("dp",))
        return SweepResult(spec=spec, points=points,
                           stats=SweepStats(total_points=len(points)))

    def test_dominated_points_are_dropped(self):
        result = self._result([
            (1.0, 10.0),   # front (cheapest)
            (2.0, 20.0),   # front (fastest)
            (2.0, 10.0),   # dominated by both
            (1.5, 15.0),   # front (knee)
            (3.0, 19.0),   # dominated by (2.0, 20.0)
        ])
        front = result.pareto_front()
        assert [(p.energy_mj, p.tops) for p in front] == [
            (1.0, 10.0), (1.5, 15.0), (2.0, 20.0),
        ]

    def test_single_point_is_its_own_front(self):
        result = self._result([(1.0, 1.0)])
        assert len(result.pareto_front()) == 1

    def test_duplicate_coordinates_kept_once(self):
        result = self._result([(1.0, 10.0), (1.0, 10.0)])
        assert len(result.pareto_front()) == 1

    def test_empty_sweep_has_empty_front(self):
        from repro.explore import pareto_filter

        assert pareto_filter([], lambda p: (0.0, 0.0)) == []
        result = self._result([])
        assert result.pareto_front() == []

    def test_empty_sweep_best_raises_config_error(self):
        from repro.errors import ConfigError

        result = self._result([])
        with pytest.raises(ConfigError, match="no points"):
            result.best("tops")

    def test_tied_cost_keeps_only_higher_benefit(self):
        # Equal energy: the higher-throughput point strictly dominates.
        result = self._result([(1.0, 10.0), (1.0, 20.0)])
        front = result.pareto_front()
        assert [(p.energy_mj, p.tops) for p in front] == [(1.0, 20.0)]

    def test_tied_benefit_keeps_only_lower_cost(self):
        result = self._result([(2.0, 10.0), (1.0, 10.0)])
        front = result.pareto_front()
        assert [(p.energy_mj, p.tops) for p in front] == [(1.0, 10.0)]

    def test_all_points_tied_keeps_exactly_one(self):
        result = self._result([(1.0, 10.0)] * 5)
        assert len(result.pareto_front()) == 1

    def test_duplicates_of_a_dominated_point_all_drop(self):
        result = self._result([(2.0, 5.0), (2.0, 5.0), (1.0, 10.0)])
        front = result.pareto_front()
        assert [(p.energy_mj, p.tops) for p in front] == [(1.0, 10.0)]

    def test_front_from_real_sweep_is_nonempty_and_nondominated(self):
        result = run_sweep(tiny_spec())
        front = result.pareto_front()
        assert front
        for p in front:
            assert not any(
                (q.energy_mj <= p.energy_mj and q.tops >= p.tops)
                and (q.energy_mj < p.energy_mj or q.tops > p.tops)
                for q in result.points
            )


def _crash_plan():
    from repro.faults import FaultPlan, ReplicaCrash, RetryPolicy

    return FaultPlan(
        events=(ReplicaCrash(replica=0, at_cycle=200),),
        retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
    )


class TestAxisLaw:
    """What must hold of *every* sweep coordinate, walked over
    ``AXES`` -- the ``PointSpec`` fields are the one declaration, so a
    new axis is held to all of this the moment its field exists.  The
    literal tables below are the test's only per-axis knowledge; each
    must cover ``AXES`` exactly."""

    BASE = dict(model="tiny_cnn", strategy="dp", input_size=8, num_classes=10)
    #: A second legal value per coordinate (none is the default).
    OTHER = {
        "model": "tiny_resnet", "strategy": "generic", "mg_size": 4,
        "flit_bytes": 16, "input_size": 12, "num_classes": 100,
        "closure_limit": 4, "chips": 2, "batch": 4,
        "arrival_rate": 250000.0, "replicas": 2, "fault_plan": _crash_plan(),
        "resident_weights": True, "tier": "cyclesim",
    }
    #: A value the coordinate's rule rejects (coordinates with a rule).
    BAD = {
        "chips": 0, "batch": 0, "arrival_rate": float("nan"), "replicas": -1,
        "fault_plan": "plan.json", "resident_weights": "yes", "tier": "slow",
    }
    FLAG = {
        "model": "--models", "strategy": "--strategies",
        "mg_size": "--mg-sizes", "flit_bytes": "--flit-sizes",
        "input_size": "--input-sizes", "num_classes": "--num-classes",
        "closure_limit": "--closure-limit", "chips": "--chips",
        "batch": "--batch", "arrival_rate": "--arrival-rates",
        "replicas": "--replicas", "fault_plan": "--fault-plans",
        "resident_weights": "--resident-modes", "tier": "--tiers",
    }

    every_axis = pytest.mark.parametrize("axis", AXES, ids=lambda a: a.name)
    swept_axis = pytest.mark.parametrize(
        "axis", [a for a in AXES if a.metadata["plural"]],
        ids=lambda a: a.name,
    )

    def test_tables_cover_the_axes(self):
        names = {axis.name for axis in AXES}
        assert set(self.OTHER) == set(self.FLAG) == names
        assert set(self.BAD) == {
            a.name for a in AXES if a.metadata["rule"] is not None
        }
        assert len(names) == 14

    def test_one_declaration_per_coordinate(self):
        import dataclasses

        assert AXES == dataclasses.fields(PointSpec)
        assert [f.name for f in dataclasses.fields(DesignPoint)] == [
            *(axis.name for axis in AXES), "report", "plan", "cached",
        ]
        for name in ("__post_init__", "to_dict"):
            assert name not in vars(PointSpec)  # no per-point validation

    @every_axis
    def test_changing_it_changes_the_cache_key(self, axis):
        from dataclasses import replace

        arch = small_test_arch()
        base = PointSpec(**self.BASE)
        moved = replace(base, **{axis.name: self.OTHER[axis.name]})
        assert moved != base
        assert moved.cache_key(arch) != base.cache_key(arch)

    @every_axis
    def test_rows_list_it(self, axis):
        point = evaluate_fast("tiny_cnn", small_test_arch(), "dp", 8, 10)
        assert (axis.name in point.to_dict()) == axis.metadata["row"]
        assert axis.metadata["row"] or axis.name == "closure_limit"

    @pytest.fixture(scope="class")
    def round_trip(self, tmp_path_factory):
        """One sweep with every coordinate off its default, saved as
        JSON + CSV, and the CSV ``repro report`` re-renders from the JSON."""
        from repro.cli import main
        from repro.faults import save_fault_plan

        tmp = tmp_path_factory.mktemp("axis-law")
        save_fault_plan(self.OTHER["fault_plan"], tmp / "plan.json")
        value = {
            name: str(other).lower() for name, other in self.OTHER.items()
        }
        value["fault_plan"] = str(tmp / "plan.json")
        argv = ["sweep", "--preset", "small", "--no-cache", "--quiet",
                "--json", str(tmp / "a.json"), "--csv", str(tmp / "a.csv")]
        for name, flag in self.FLAG.items():
            argv += [flag, value[name]]
        assert main(argv) == 0
        assert main(["report", str(tmp / "a.json"),
                     "--csv", str(tmp / "b.csv")]) == 0
        return tmp

    @every_axis
    def test_it_survives_json_to_report_csv(self, axis, round_trip):
        import csv

        (row,) = json.loads((round_trip / "a.json").read_text())["points"]
        assert (round_trip / "a.csv").read_bytes() == (
            (round_trip / "b.csv").read_bytes()
        )
        with open(round_trip / "b.csv", newline="") as fh:
            (cells,) = csv.DictReader(fh)
        if not axis.metadata["row"]:
            assert axis.name not in row and axis.name not in cells
            return
        expected = self.OTHER[axis.name]
        if axis.name == "fault_plan":
            expected = expected.describe()
        assert row[axis.name] == expected
        assert cells[axis.name] == str(expected)

    @every_axis
    def test_sweep_spec_field_entry_and_flag(self, axis, capsys):
        import dataclasses

        from repro.cli import main

        swept_as = axis.metadata["plural"] or axis.name
        assert swept_as in {f.name for f in dataclasses.fields(SweepSpec)}
        assert swept_as in SweepSpec(models=("tiny_cnn",)).to_dict()
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        assert self.FLAG[axis.name] in capsys.readouterr().out

    def _sweep_of(self, axis):
        """``BASE`` at batch 2 with ``axis`` swept over two values."""
        first = self.BASE.get(axis.name, axis.default)
        kwargs = dict(
            models=("tiny_cnn",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, batch_sizes=(2,), base_arch=small_test_arch(),
        )
        kwargs[axis.metadata["plural"]] = (first, self.OTHER[axis.name])
        return SweepSpec(**kwargs), first

    @swept_axis
    def test_len_is_the_cross_product(self, axis):
        spec, first = self._sweep_of(axis)
        points = spec.points()
        assert len(spec) == len(points) == 2
        assert [getattr(p, axis.name) for p in points] == [
            first, self.OTHER[axis.name],
        ]

    def test_an_unswept_axis_takes_the_coordinate_default(self):
        assert SweepSpec(models=("m",)).points() == [
            PointSpec(model="m", strategy="dp")
        ]

    def test_base_spec_resets_exactly_the_continuation_axes(self):
        from repro.explore import _base_spec

        moved = PointSpec(**self.OTHER)
        base = _base_spec(moved)
        for axis in AXES:
            if axis.metadata["continuation"]:
                assert getattr(base, axis.name) == axis.default
            else:
                assert getattr(base, axis.name) == self.OTHER[axis.name]
        assert {a.name for a in AXES if a.metadata["continuation"]} == {
            "batch", "arrival_rate", "replicas", "fault_plan",
        }

    @swept_axis
    def test_shared_base_equals_evaluating_from_scratch(self, axis):
        """A sweep derives the variant from the base point's analysis
        (``_derive_report``); ``evaluate_fast`` plans it on its own."""
        spec, _ = self._sweep_of(axis)
        swept = run_sweep(spec).points[-1]
        coords = dict(self.BASE, batch=2)
        coords[axis.name] = self.OTHER[axis.name]
        direct = evaluate_fast(arch=spec.arch(), **coords)
        assert swept.report == direct.report
        assert swept.to_dict() == direct.to_dict()

    @pytest.mark.parametrize("name", sorted(BAD))
    def test_one_rule_one_message(self, name):
        (axis,) = [a for a in AXES if a.name == name]
        plural = axis.metadata["plural"]
        messages = []
        for build in (
            lambda: SweepSpec(models=("tiny_cnn",), **{plural: ()}),
            lambda: SweepSpec(
                models=("tiny_cnn",),
                **{plural: (self.OTHER[name], self.BAD[name])},
            ),
            lambda: evaluate_fast(
                "tiny_cnn", small_test_arch(), **{name: self.BAD[name]}
            ),
        ):
            with pytest.raises(ConfigError) as exc:
                build()
            messages.append(str(exc.value))
        assert messages == [axis.metadata["message"]] * 3


#: (chips, resident, batch, rate, replicas) of the two-tier grid.
_GRID = list(itertools.product((1, 2), (False, True), (1, 4), (None, 2e6),
                               (1, 2)))


class TestCyclesimRows:
    """A ``tiers=("cyclesim",)`` row is the cycle tier's own run at its
    coordinates: one measured input per base point, continued by the
    sweep's one law, equals a ``Fleet`` of the same compiled model
    serving the whole stream."""

    COORDS = "chips,resident,batch,rate,replicas"

    @pytest.fixture(scope="class")
    def pairs(self):
        from repro import Fleet, compile_model
        from repro.arrivals import FixedRate

        arch = small_test_arch()
        result = run_sweep(SweepSpec(
            models=("tiny_resnet",), strategies=("dp",), input_sizes=(8,),
            num_classes=10, base_arch=arch, chip_counts=(1, 2),
            resident_modes=(False, True), batch_sizes=(1, 4),
            arrival_rates=(None, 2e6), replica_counts=(1, 2),
            tiers=("cyclesim",),
        ))
        compiled = {
            chips: compile_model("tiny_resnet", arch, chips=chips,
                                 input_size=8, num_classes=10)
            for chips in (1, 2)
        }
        pairs = {}
        for point in result:
            fleet = Fleet(compiled[point.chips], replicas=point.replicas,
                          resident_weights=point.resident_weights)
            served = fleet.submit(
                batch=point.batch, seed=0,
                arrivals=point.arrival_rate and FixedRate(point.arrival_rate),
            )
            assert served.validated
            coords = (point.chips, point.resident_weights, point.batch,
                      point.arrival_rate, point.replicas)
            pairs[coords] = (point.report, served)
        return pairs

    @pytest.mark.parametrize(COORDS, _GRID)
    def test_cycles_load_drops_and_retries(self, pairs, chips, resident,
                                           batch, rate, replicas):
        row, run = pairs[chips, resident, batch, rate, replicas]
        assert (row.cycles, row.load_cycles, row.dropped, row.retries) == (
            run.makespan_cycles, max(run.replica_load_cycles, default=0),
            run.dropped, run.retries,
        )

    @pytest.mark.parametrize(COORDS, _GRID)
    def test_latency_percentiles(self, pairs, chips, resident, batch, rate,
                                 replicas):
        row, run = pairs[chips, resident, batch, rate, replicas]
        assert (row.p50_latency_cycles, row.p95_latency_cycles,
                row.p99_latency_cycles) == (
            run.p50_latency_cycles, run.p95_latency_cycles,
            run.p99_latency_cycles,
        )

    @pytest.mark.parametrize(COORDS, _GRID)
    def test_energy(self, pairs, chips, resident, batch, rate, replicas):
        """Equal to float rounding: the cycle tier sums per input where
        the law multiplies."""
        row, run = pairs[chips, resident, batch, rate, replicas]
        measured = run.energy_breakdown_pj
        assert set(row.energy_breakdown_pj) == set(measured)
        for key, value in row.energy_breakdown_pj.items():
            assert value == pytest.approx(measured[key], rel=1e-9, abs=0)

    def test_the_measured_input_is_checked_against_the_golden_model(
        self, monkeypatch
    ):
        from repro import serve
        from repro.errors import ValidationError

        def mismatch(graph, outputs, golden, label):
            raise ValidationError(f"checked: {label}")

        monkeypatch.setattr(serve, "check_outputs", mismatch)
        with pytest.raises(ValidationError, match="checked: dp, 1 chip"):
            evaluate_fast("tiny_cnn", small_test_arch(), "dp", 8, 10,
                          tier="cyclesim")

    def test_a_point_that_does_not_fit_names_itself(self):
        from repro.errors import CapacityError

        with pytest.raises(CapacityError) as exc:
            evaluate_fast("resnet18", strategy="generic", input_size=112,
                          tier="cyclesim")
        assert str(exc.value).startswith(
            "resnet18 generic at 112 px on 1 chip(s) does not fit: "
        )


class TestHostileCoordinates:
    """``evaluate_fast`` used to accept what a sweep rejects, and a bare
    string for an axis was swept letter by letter."""

    @pytest.mark.parametrize("coords", [
        {"chips": 0}, {"chips": -1}, {"resident_weights": "yes"},
        {"batch": 0}, {"replicas": 0}, {"arrival_rate": float("inf")},
        {"chips": True}, {"batch": True}, {"replicas": True},
        {"arrival_rate": True},
    ])
    def test_evaluate_fast_rejects_what_a_sweep_rejects(self, coords):
        with pytest.raises(ConfigError):
            evaluate_fast("tiny_cnn", small_test_arch(), "dp", 8, 10, **coords)

    def test_unknown_coordinate_is_a_type_error(self):
        with pytest.raises(TypeError, match="chip_count"):
            evaluate_fast("tiny_cnn", small_test_arch(), chip_count=2)

    @pytest.mark.parametrize("axis", ["models", "strategies"])
    def test_bare_string_axis_names_the_field(self, axis):
        kwargs = {"models": ("tiny_cnn",), axis: "tiny_cnn"}
        with pytest.raises(ConfigError, match=f"{axis} must be a sequence"):
            SweepSpec(**kwargs)

    @pytest.mark.parametrize("flag", [
        ("--chips", "0"), ("--chips", "-1"), ("--batch", "0"),
        ("--replicas", "0"), ("--resident-modes", "yes,maybe"),
    ])
    def test_cli_exits_2_without_traceback(self, flag, capsys):
        from repro.cli import main

        code = None
        try:
            code = main(["sweep", "--models", "tiny_cnn", "--preset", "small",
                         "--no-cache", "--quiet", *flag])
        except SystemExit as exc:  # argparse rejects a malformed list
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error:" in err


class TestArrivalRateAxis:
    def test_rate_axis_in_cross_product(self):
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(1, 4),
            arrival_rates=(None, 250000.0),
        )
        assert len(spec) == 4
        coords = [(p.batch, p.arrival_rate) for p in spec.points()]
        assert coords == [
            (1, None), (1, 250000.0), (4, None), (4, 250000.0),
        ]

    def test_rate_points_match_direct_evaluation(self):
        arch = small_test_arch()
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(1, 4),
            arrival_rates=(None, 250000.0),
        )
        result = run_sweep(spec)
        for point in result.points:
            direct = evaluate_fast(
                "tiny_cnn", arch, "dp", 8, 10, batch=point.batch,
                arrival_rate=point.arrival_rate,
            )
            assert point.report == direct.report
        served = [p for p in result.points if p.arrival_rate is not None]
        assert all(p.report.arrival_rate_inf_s == 250000.0 for p in served)
        assert all(
            p.report.p99_latency_cycles > 0 for p in served
        )

    def test_rate_points_share_one_base_analysis(self, monkeypatch):
        import repro.compiler.pipeline as pipeline

        calls = []
        real_plan_graph = pipeline.plan_graph

        def counting_plan_graph(*args, **kwargs):
            calls.append(1)
            return real_plan_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "plan_graph", counting_plan_graph)
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(1, 8),
            arrival_rates=(None, 100000.0, 400000.0),
        )
        result = run_sweep(spec)
        assert len(result.points) == 6
        assert len(calls) == 1

    def test_parallel_rate_sweep_equals_serial(self):
        spec = tiny_spec(
            models=("tiny_cnn", "tiny_resnet"), strategies=("dp",),
            mg_sizes=None, flit_sizes=None, batch_sizes=(4,),
            arrival_rates=(None, 250000.0),
        )
        serial = run_sweep(spec)
        parallel = run_sweep(spec, workers=2)
        for a, b in zip(serial.points, parallel.points):
            assert a.report == b.report
            assert a.arrival_rate == b.arrival_rate

    def test_rate_in_cache_key_and_round_trip(self, tmp_path):
        arch = small_test_arch()
        assert point_key("tiny_cnn", arch, "dp", 8, 10, None, 1, 4, None) != \
            point_key("tiny_cnn", arch, "dp", 8, 10, None, 1, 4, 250000.0)
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(4,), arrival_rates=(250000.0,),
        )
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert second.stats.cache_hits == 1
        assert first.points[0].report == second.points[0].report
        assert second.points[0].report.p99_latency_cycles > 0

    def test_point_dict_has_latency_columns(self):
        arch = small_test_arch()
        point = evaluate_fast(
            "tiny_cnn", arch, "dp", 8, 10, batch=4, arrival_rate=250000.0
        )
        row = point.to_dict()
        assert row["arrival_rate"] == 250000.0
        assert row["p99_latency_ms"] == pytest.approx(
            point.report.p99_latency_cycles
            / (point.report.clock_mhz * 1e3)
        )
        plain = evaluate_fast("tiny_cnn", arch, "dp", 8, 10).to_dict()
        assert plain["arrival_rate"] is None
        assert plain["p99_latency_ms"] is None

    def test_invalid_rates_rejected(self):
        with pytest.raises(ConfigError, match="arrival rates"):
            tiny_spec(arrival_rates=(0.0,))
        with pytest.raises(ConfigError, match="arrival rates"):
            tiny_spec(arrival_rates=())
        with pytest.raises(ConfigError, match="arrival rates"):
            tiny_spec(arrival_rates=(True,))
        with pytest.raises(ConfigError, match="batch sizes"):
            tiny_spec(batch_sizes=(True,))

    def test_equal_rates_share_one_cache_key(self):
        arch = small_test_arch()
        whole = PointSpec(model="tiny_cnn", strategy="dp", arrival_rate=500)
        real = PointSpec(model="tiny_cnn", strategy="dp", arrival_rate=500.0)
        assert whole == real
        assert whole.cache_key(arch) == real.cache_key(arch)
        # A sweep stores what it prices under that key: the same bytes.
        spec = tiny_spec(arrival_rates=(None, 500))
        assert spec.arrival_rates == (None, 500.0)
        assert type(spec.points()[-1].arrival_rate) is float
        floats = tiny_spec(arrival_rates=(None, 500.0))
        assert spec.to_dict() == floats.to_dict()

    def test_integer_rate_sweep_hits_what_a_float_sweep_stored(self, tmp_path):
        axes = dict(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(4,),
        )
        cache = ResultCache(tmp_path)
        stored = run_sweep(tiny_spec(**axes, arrival_rates=(250000.0,)),
                           cache=cache)
        served = run_sweep(tiny_spec(**axes, arrival_rates=(250000,)),
                           cache=ResultCache(tmp_path))
        assert served.stats.cache_hits == served.stats.total_points == 1
        assert served.points[0].report == stored.points[0].report


class TestSweepResume:
    def _spec(self):
        return tiny_spec(
            models=("tiny_cnn", "tiny_resnet"), strategies=("dp", "generic"),
            mg_sizes=None, flit_sizes=None,
        )

    class _Interrupt(RuntimeError):
        pass

    def _interrupt_after(self, n):
        def progress(done, total, point):
            if done >= n:
                raise self._Interrupt()
        return progress

    def test_interrupted_sweep_resumes_mid_cross_product(self, tmp_path):
        spec = self._spec()
        cache = ResultCache(tmp_path)
        with pytest.raises(self._Interrupt):
            run_sweep(spec, cache=cache, progress=self._interrupt_after(3))
        manifests = list(tmp_path.glob("manifests/*.jsonl"))
        assert len(manifests) == 1
        # restart: the three journalled points are resumed, the last
        # point is evaluated, and the manifest is cleaned up on success.
        result = run_sweep(spec, cache=ResultCache(tmp_path))
        assert result.stats.resumed_points == 3
        assert result.stats.evaluated == 1
        assert result.stats.cache_hits == 3
        assert not list(tmp_path.glob("manifests/*.jsonl"))
        # resumed results are bit-identical to a cold sweep
        cold = run_sweep(self._spec())
        for a, b in zip(result.points, cold.points):
            assert a.report == b.report

    @pytest.mark.parametrize("k", [1, 3])
    def test_failed_sweep_journals_k_keys_and_closes(
        self, k, tmp_path, monkeypatch
    ):
        import repro.explore as explore
        from repro.explore_cache import SweepManifest

        opened = []

        class Recording(SweepManifest):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(explore, "SweepManifest", Recording)
        spec = self._spec()
        with pytest.raises(self._Interrupt):
            run_sweep(spec, cache=ResultCache(tmp_path),
                      progress=self._interrupt_after(k))
        [manifest] = opened
        assert manifest._fh is None  # the failed sweep closed its journal
        lines = manifest.path.read_text().splitlines()
        assert len(lines) == 1 + k
        assert len(manifest.load()) == k
        result = run_sweep(spec, cache=ResultCache(tmp_path))
        assert result.stats.resumed_points == k
        assert result.stats.evaluated == len(spec) - k
        assert not manifest.path.exists()
        assert opened[1]._fh is None

    def test_different_spec_does_not_resume(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(self._Interrupt):
            run_sweep(
                self._spec(), cache=cache, progress=self._interrupt_after(2)
            )
        other = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",),
            mg_sizes=None, flit_sizes=None,
        )
        result = run_sweep(other, cache=ResultCache(tmp_path))
        # the point itself is served from the shared result cache, but
        # it is not counted as resumed sweep progress
        assert result.stats.resumed_points == 0

    def test_resume_disabled_writes_no_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(self._Interrupt):
            run_sweep(
                self._spec(), cache=cache,
                progress=self._interrupt_after(2), resume=False,
            )
        assert not list(tmp_path.glob("manifests/*.jsonl"))

    def test_corrupt_manifest_is_ignored(self, tmp_path):
        from repro.explore_cache import SweepManifest, sweep_fingerprint

        spec = self._spec()
        fingerprint = sweep_fingerprint(spec.to_dict())
        path = tmp_path / "manifests" / f"{fingerprint}.jsonl"
        path.parent.mkdir(parents=True)
        path.write_text("not json\n{\"key\": \"zzz\"}\n")
        assert SweepManifest(tmp_path, fingerprint).load() == frozenset()
        result = run_sweep(spec, cache=ResultCache(tmp_path))
        assert result.stats.resumed_points == 0
        assert len(result.points) == len(spec)

    def test_torn_tail_line_is_skipped(self, tmp_path):
        from repro.explore_cache import SweepManifest

        manifest = SweepManifest(tmp_path, "f" * 64)
        manifest.mark("a" * 64)
        manifest.mark("b" * 64)
        with open(manifest.path, "a") as fh:
            fh.write('{"key": "c')  # torn write from a crash
        assert SweepManifest(tmp_path, "f" * 64).load() == \
            frozenset({"a" * 64, "b" * 64})


class TestReplicasAxis:
    """The PR-6 fleet axis: replicas in the cross product and the cache."""

    def test_replicas_axis_in_cross_product(self):
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(4,), replica_counts=(1, 2, 4),
        )
        assert len(spec) == 3
        assert [p.replicas for p in spec.points()] == [1, 2, 4]

    def test_rejects_nonpositive_replica_counts(self):
        with pytest.raises(ConfigError, match="replica"):
            tiny_spec(replica_counts=(0,))

    def test_replica_points_match_direct_evaluation(self):
        arch = small_test_arch()
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(8,),
            arrival_rates=(None, 250000.0), replica_counts=(1, 2),
        )
        result = run_sweep(spec)
        assert len(result.points) == 4
        for point in result.points:
            direct = evaluate_fast(
                "tiny_cnn", arch, "dp", 8, 10, batch=8,
                arrival_rate=point.arrival_rate, replicas=point.replicas,
            )
            assert point.report == direct.report
            assert point.replicas == direct.replicas

    def test_fleet_throughput_scales_linearly(self):
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(8,), replica_counts=(1, 4),
        )
        single, fleet = run_sweep(spec).points
        assert fleet.throughput_inf_s == pytest.approx(
            4 * single.throughput_inf_s, rel=1e-9
        )

    def test_replica_points_share_one_base_analysis(self, monkeypatch):
        import repro.compiler.pipeline as pipeline

        calls = []
        real_plan_graph = pipeline.plan_graph

        def counting_plan_graph(*args, **kwargs):
            calls.append(1)
            return real_plan_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "plan_graph", counting_plan_graph)
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(8,),
            arrival_rates=(None, 250000.0), replica_counts=(1, 2, 4),
        )
        result = run_sweep(spec)
        assert len(result.points) == 6
        assert len(calls) == 1

    def test_replicas_in_cache_key(self):
        arch = small_test_arch()
        assert point_key("tiny_cnn", arch, "dp", 8, 10, None, 1, 4, None) != \
            point_key(
                "tiny_cnn", arch, "dp", 8, 10, None, 1, 4, None, replicas=2
            )

    def test_replica_sweep_round_trips_through_cache(self, tmp_path):
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(4,), replica_counts=(1, 2),
        )
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=cache)
        assert second.stats.cache_hits == 2
        for a, b in zip(first.points, second.points):
            assert a.report == b.report
            assert b.replicas == a.replicas
        assert second.points[1].replicas == 2

    def test_schema_v5_carries_the_replica_count(self):
        # The schema bump that introduced the replicas key: the version
        # participates in every key, so all v4 entries are misses now.
        assert CACHE_SCHEMA_VERSION >= 5

    def test_point_dict_has_replicas_column(self):
        arch = small_test_arch()
        row = evaluate_fast(
            "tiny_cnn", arch, "dp", 8, 10, batch=4, replicas=2
        ).to_dict()
        assert row["replicas"] == 2
        plain = evaluate_fast("tiny_cnn", arch, "dp", 8, 10).to_dict()
        assert plain["replicas"] == 1


class TestFaultPlanAxis:
    """The PR-7 availability axis: fault plans in the cross product."""

    def _plan(self):
        from repro.faults import FaultPlan, ReplicaCrash, RetryPolicy

        return FaultPlan(
            events=(ReplicaCrash(replica=1, at_cycle=200),),
            retry=RetryPolicy(max_attempts=3, backoff_cycles=10),
        )

    def test_fault_axis_in_cross_product(self):
        plan = self._plan()
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(4,), replica_counts=(3,),
            fault_plans=(None, plan),
        )
        assert len(spec) == 2
        assert [p.fault_plan for p in spec.points()] == [None, plan]

    def test_rejects_non_plan_entries(self):
        with pytest.raises(ConfigError, match="fault plans"):
            tiny_spec(fault_plans=("plan.json",))
        with pytest.raises(ConfigError, match="fault plans"):
            tiny_spec(fault_plans=())

    def test_fault_plan_in_cache_key(self):
        arch = small_test_arch()
        plain = point_key("tiny_cnn", arch, "dp", 8, 10, None, 1, 4, None, 3)
        faulted = point_key(
            "tiny_cnn", arch, "dp", 8, 10, None, 1, 4, None, 3,
            fault_fingerprint=self._plan().fingerprint(),
        )
        assert plain != faulted

    def test_fault_points_match_direct_evaluation(self):
        arch = small_test_arch()
        plan = self._plan()
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(6,), replica_counts=(3,),
            fault_plans=(None, plan),
        )
        result = run_sweep(spec)
        for point in result.points:
            direct = evaluate_fast(
                "tiny_cnn", arch, "dp", 8, 10, batch=6, replicas=3,
                fault_plan=point.fault_plan,
            )
            assert point.report == direct.report

    def test_fault_points_share_one_base_analysis(self, monkeypatch):
        import repro.compiler.pipeline as pipeline

        calls = []
        real_plan_graph = pipeline.plan_graph

        def counting_plan_graph(*args, **kwargs):
            calls.append(1)
            return real_plan_graph(*args, **kwargs)

        monkeypatch.setattr(pipeline, "plan_graph", counting_plan_graph)
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(6,), replica_counts=(1, 3),
            fault_plans=(None, self._plan()),
        )
        result = run_sweep(spec)
        assert len(result.points) == 4
        assert len(calls) == 1

    def test_fault_sweep_round_trips_through_cache(self, tmp_path):
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None, batch_sizes=(6,), replica_counts=(3,),
            fault_plans=(None, self._plan()),
        )
        cache = ResultCache(tmp_path)
        first = run_sweep(spec, cache=cache)
        second = run_sweep(spec, cache=ResultCache(tmp_path))
        assert second.stats.cache_hits == 2
        for a, b in zip(first.points, second.points):
            assert a.report == b.report

    def test_point_dict_has_fault_columns(self):
        arch = small_test_arch()
        row = evaluate_fast(
            "tiny_cnn", arch, "dp", 8, 10, batch=6, replicas=3,
            fault_plan=self._plan(),
        ).to_dict()
        assert "crash" in row["fault_plan"]
        assert row["dropped"] == 0
        assert row["goodput_inf_s"] > 0
        plain = evaluate_fast("tiny_cnn", arch, "dp", 8, 10).to_dict()
        assert plain["fault_plan"] is None
        assert plain["dropped"] == 0

    def test_spec_to_dict_is_json_safe(self):
        spec = tiny_spec(fault_plans=(None, self._plan()))
        payload = json.dumps(spec.to_dict())
        assert "replica_crash" in payload

    def test_schema_v6_carries_the_fault_fingerprint(self):
        assert CACHE_SCHEMA_VERSION >= 6


class TestCacheCorruptionRecovery:
    """A corrupt cache entry is evicted and recomputed, never fatal."""

    TRIALS = 32

    def _store_one(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = tiny_spec(
            models=("tiny_cnn",), strategies=("dp",), mg_sizes=None,
            flit_sizes=None,
        )
        run_sweep(spec, cache=cache)
        key = spec.points()[0].cache_key(spec.arch())
        return spec, key, cache.path_for(key)

    def test_seeded_fuzz_recovers_from_any_corruption(self, tmp_path):
        import random

        spec, key, path = self._store_one(tmp_path)
        blob = path.read_bytes()
        rng = random.Random(1234)
        for trial in range(self.TRIALS):
            data = bytearray(blob)
            if trial % 2 == 0:
                cut = rng.randrange(0, len(data))
                data = data[:cut]
            else:
                pos = rng.randrange(0, len(data))
                data[pos] ^= 1 << rng.randrange(8)
            path.write_bytes(bytes(data))
            cache = ResultCache(tmp_path)
            report = cache.lookup(key)  # must never raise
            if report is None:
                # either a clean miss or a corrupt eviction; either way
                # the sweep recomputes and the cache heals itself
                result = run_sweep(spec, cache=cache)
                assert len(result.points) == 1
                assert path.exists()
                assert cache.lookup(key) is not None

    def test_corrupt_entry_is_evicted_with_warning(self, tmp_path, caplog):
        import logging

        _, key, path = self._store_one(tmp_path)
        path.write_text('{"schema":')
        cache = ResultCache(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.explore_cache"):
            assert cache.lookup(key) is None
        assert cache.corrupt_evictions == 1
        assert not path.exists()
        assert any("corrupt" in r.message for r in caplog.records)

    def test_missing_entry_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.lookup("0" * 64) is None
        assert cache.corrupt_evictions == 0

    def test_stale_schema_is_not_treated_as_corruption(self, tmp_path,
                                                       monkeypatch):
        import repro.explore_cache as explore_cache

        _, key, path = self._store_one(tmp_path)
        cache = ResultCache(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(
                explore_cache, "CACHE_SCHEMA_VERSION",
                CACHE_SCHEMA_VERSION + 1,
            )
            assert cache.lookup(key) is None
        assert cache.corrupt_evictions == 0
        assert path.exists()


class TestManifestTornWrites:
    """A crash mid-append never breaks the next resume."""

    def test_torn_multibyte_tail_is_discarded(self, tmp_path):
        from repro.explore_cache import SweepManifest

        manifest = SweepManifest(tmp_path, "e" * 64)
        manifest.mark("a" * 64)
        manifest.mark("b" * 64)
        # a torn write that ends mid-way through a multibyte UTF-8
        # sequence: decoding must not raise, the tail is dropped
        with open(manifest.path, "ab") as fh:
            fh.write(b'{"key": "caf\xc3')
        assert SweepManifest(tmp_path, "e" * 64).load() == \
            frozenset({"a" * 64, "b" * 64})

    def test_binary_garbage_journal_yields_empty_set(self, tmp_path):
        from repro.explore_cache import SweepManifest

        manifest = SweepManifest(tmp_path, "d" * 64)
        manifest.path.parent.mkdir(parents=True, exist_ok=True)
        manifest.path.write_bytes(b"\xff\xfe\x00garbage\x80")
        assert manifest.load() == frozenset()

"""Field-cache correctness: identity on hits, isolation across keys, and
bit-identical RunMetrics between memoized and fresh world builds."""

import pytest

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.runner import build_world, run_experiment
from repro.net.fieldcache import (
    FieldCache,
    cached_field,
    default_field_cache,
    field_cache_key,
)
from repro.net.topology import generate_field
import random

from repro.sim.rng import derive_seed


class TestFieldCache:
    def test_same_key_returns_same_object(self):
        cache = FieldCache(maxsize=8)
        f1, hit1 = cached_field(40, seed=7, cache=cache)
        f2, hit2 = cached_field(40, seed=7, cache=cache)
        assert f2 is f1
        assert (hit1, hit2) == (False, True)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_different_keys_do_not_collide(self):
        cache = FieldCache(maxsize=8)
        base, _ = cached_field(40, seed=7, cache=cache)
        for kwargs in (
            dict(n=41, seed=7),
            dict(n=40, seed=8),
            dict(n=40, seed=7, field_size=150.0),
            dict(n=40, seed=7, range_m=50.0),
        ):
            other, hit = cached_field(**{"field_size": 200.0, "range_m": 40.0, **kwargs}, cache=cache)
            assert not hit
            assert other is not base

    def test_matches_uncached_generate_field(self):
        # A miss must reproduce exactly what RngRegistry(seed).stream("topology")
        # fed into generate_field before the cache existed.
        cache = FieldCache(maxsize=8)
        fld, _ = cached_field(40, seed=11, cache=cache)
        rng = random.Random(derive_seed(11, "topology"))
        fresh = generate_field(40, rng, field_size=200.0, range_m=40.0)
        assert fresh.positions == fld.positions
        assert fresh.redraws == fld.redraws

    def test_lru_eviction_is_bounded(self):
        cache = FieldCache(maxsize=2)
        cached_field(30, seed=1, cache=cache)
        cached_field(30, seed=2, cache=cache)
        cached_field(30, seed=3, cache=cache)  # evicts seed=1
        assert len(cache) == 2
        _, hit = cached_field(30, seed=1, cache=cache)
        assert not hit  # evicted, rebuilt

    def test_maxsize_zero_disables_caching(self):
        cache = FieldCache(maxsize=0)
        f1, hit1 = cached_field(30, seed=1, cache=cache)
        f2, hit2 = cached_field(30, seed=1, cache=cache)
        assert not hit1 and not hit2
        assert f1 is not f2
        assert len(cache) == 0

    def test_clear_resets_entries_and_stats(self):
        cache = FieldCache(maxsize=4)
        cached_field(30, seed=1, cache=cache)
        cached_field(30, seed=1, cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0, "misses": 0, "hit_rate": 0.0, "size": 0, "maxsize": 4,
        }

    def test_key_includes_connectivity_knobs(self):
        assert field_cache_key(50, 1, 200.0, 40.0) != field_cache_key(
            50, 1, 200.0, 40.0, require_connected=False
        )


class TestMemoizedRuns:
    def test_build_world_reuses_field_across_schemes(self):
        default_field_cache().clear()
        profile = smoke()
        opp = ExperimentConfig.from_profile(profile, "opportunistic", 50, seed=42)
        greedy = ExperimentConfig.from_profile(profile, "greedy", 50, seed=42)
        w1 = build_world(opp)
        w2 = build_world(greedy)
        assert w2.field is w1.field
        assert not w1.field_cache_hit
        assert w2.field_cache_hit
        w1.close()
        w2.close()

    def test_memoized_run_metrics_bit_identical(self):
        # The acceptance criterion: a cached paired cell reproduces the
        # unoptimized path's RunMetrics exactly on a fixed seed.
        profile = smoke()
        cache = default_field_cache()
        configs = [
            ExperimentConfig.from_profile(profile, scheme, 50, seed=1234)
            for scheme in ("opportunistic", "greedy")
        ]
        cache.clear()
        cached_metrics = [run_experiment(cfg) for cfg in configs]
        assert cache.stats()["hits"] == 1  # second scheme reused the field
        for cfg, cached in zip(configs, cached_metrics):
            cache.clear()  # a fresh field for every run
            assert run_experiment(cfg) == cached
            assert cache.stats()["hits"] == 0

    def test_default_cache_is_per_process_singleton(self):
        assert default_field_cache() is default_field_cache()

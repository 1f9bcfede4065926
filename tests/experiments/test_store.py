"""Tests for the resumable content-addressed run store: hashing,
atomic round-trip persistence, ls/gc/rm maintenance, sweep integration,
and the acceptance scenario — an interrupted sweep resumed against the
same store completes only the missing runs and reproduces the
uninterrupted result bit for bit."""

import dataclasses
import json
import os
import time
from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, FailureModel, smoke
from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.metrics import RunMetrics
from repro.experiments.store import (
    STORE_VERSION,
    TMP_LITTER_MIN_AGE_S,
    RunStore,
    canonical_json,
    config_payload,
    open_store,
    run_key,
)
from repro.experiments.sweeps import RunFailure, SweepError, run_configs

from ..helpers import count_store_work

#: an entry file that is not UTF-8 text (it opens with a UTF-16 byte-order mark)
NOT_UTF8 = b"\xff\xfe{}"


def _tiny(scheme: str = "greedy", n: int = 50, seed: int = 1, **overrides):
    return ExperimentConfig.from_profile(
        smoke(), scheme, n, seed=seed, duration=8.0, warmup=3.0, **overrides
    )


def _metrics(cfg: ExperimentConfig, energy: float = 1e-4) -> RunMetrics:
    return RunMetrics(
        scheme=cfg.scheme,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        avg_dissipated_energy=energy,
        avg_delay=0.123456789,
        delivery_ratio=0.875,
        total_energy_j=0.5,
        distinct_delivered=7,
        events_sent=8,
        mean_degree=4.2,
        counters={"phy.tx": 100, "mac.collision": 3},
    )


class TestRunKey:
    def test_stable_within_process(self):
        cfg = _tiny()
        assert run_key(cfg) == run_key(cfg)
        assert run_key(cfg) == run_key(replace(cfg))

    def test_keys_match_those_of_existing_stores(self):
        # Computed before the payload stopped going through
        # dataclasses.asdict: any change here orphans every stored entry.
        # A version bump or a new constant moves them on purpose.
        greedy = ExperimentConfig.from_profile(smoke(), "greedy", 50, seed=1)
        assert run_key(greedy) == (
            "2123d706ce78316c1625b8a9d398e41cb5a35548efaf4ee832ae82b13896f2ec"
        )
        opportunistic = ExperimentConfig.from_profile(
            smoke(), "opportunistic", 350, seed=7, failures=FailureModel(0.2, 6.0)
        )
        assert run_key(opportunistic) == (
            "adabec87bbc0ec2e10d48c2439930aa200ff759eb8d588a10c3a26f46cc17b58"
        )

    def test_equal_configs_of_different_leaf_types_keep_their_keys(self):
        # duration=15 equals duration=15.0 (same hash too) but serializes
        # differently, so a key memo by config value would hand one of them
        # the other's key, depending on which the process saw first.
        as_int = replace(_tiny(), duration=15)
        as_float = replace(_tiny(), duration=15.0)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        int_key, float_key = run_key(as_int), run_key(as_float)
        assert int_key != float_key
        assert (run_key(as_float), run_key(as_int)) == (float_key, int_key)

    def test_hex_sha256_shape(self):
        key = run_key(_tiny())
        assert len(key) == 64
        int(key, 16)  # raises if not hex

    def test_includes_constants_and_code_version(self):
        payload = config_payload(_tiny())
        assert payload["store_version"] == STORE_VERSION
        assert "code_version" in payload
        assert payload["constants"]["EVENT_SIZE"] == 64
        assert payload["constants"]["CONTROL_SIZE"] == 36

    def test_failure_model_changes_key(self):
        base = _tiny()
        with_failures = replace(base, failures=FailureModel(fraction=0.2, epoch=6.0))
        other_fraction = replace(base, failures=FailureModel(fraction=0.5, epoch=6.0))
        keys = {run_key(base), run_key(with_failures), run_key(other_fraction)}
        assert len(keys) == 3

    def test_canonical_json_sorts_keys(self):
        a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
        b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b


class TestRunStoreRoundTrip:
    def test_put_get_exact(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        metrics = _metrics(cfg)
        path = store.put(cfg, metrics)
        assert path.exists()
        assert store.contains(cfg)
        loaded = RunStore(tmp_path).get(cfg)
        assert loaded == metrics  # dataclass equality: every field, bit for bit

    def test_miss_returns_none_and_counts(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get(_tiny()) is None
        assert store.stats.misses == 1
        assert store.registry.counter("store.miss").value == 1

    def test_hit_counts(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        store.get(cfg)
        assert store.stats.hits == 1
        assert store.stats.persisted == 1
        assert store.registry.counter("store.hit").value == 1
        assert store.registry.counter("store.persist").value == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        store.path_for(run_key(cfg)).write_text("{ not json")
        assert RunStore(tmp_path).get(cfg) is None

    def test_open_store_coerces(self, tmp_path):
        assert open_store(None) is None
        handle = RunStore(tmp_path)
        assert open_store(handle) is handle
        opened = open_store(tmp_path / "sub")
        assert isinstance(opened, RunStore)
        assert opened.runs_dir.is_dir()


class TestEntryNotUtf8:
    """A ``runs/`` file that is not UTF-8 text is a corrupt entry, not a crash."""

    def test_get_counts_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.path_for(run_key(cfg)).write_bytes(NOT_UTF8)
        assert store.get(cfg) is None
        assert store.stats.misses == 1

    def test_ls_skips_it(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        (store.runs_dir / "abc.json").write_bytes(NOT_UTF8)
        assert [row["key"] for row in store.ls()] == [run_key(cfg)]

    def test_gc_removes_it_as_corrupt(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        planted = store.runs_dir / "abc.json"
        planted.write_bytes(NOT_UTF8)
        stats = store.gc()
        assert (stats["corrupt_removed"], stats["kept"]) == (1, 1)
        assert not planted.exists()


def _make_stale(path) -> None:
    """Rewrite an entry in place as another package version wrote it."""
    entry = json.loads(path.read_text())
    entry["identity"]["code_version"] = "0.0.1"
    path.write_text(json.dumps(entry))


class TestMemo:
    """A handle parses each entry once, and never serves from memory what
    ``runs/`` no longer holds."""

    def test_repeated_get_reads_the_file_once(self, tmp_path, monkeypatch):
        cfg = _tiny()
        RunStore(tmp_path).put(cfg, _metrics(cfg))
        counts = count_store_work(monkeypatch)
        store = RunStore(tmp_path)
        first, second = store.get(cfg), store.get(cfg)
        assert first == _metrics(cfg)
        assert second is first
        assert counts["read"] == 1
        assert store.stats.hits == 2

    def test_put_remembers_what_a_read_returns(self, tmp_path, monkeypatch):
        # an int where the entry reads back a float: the memo must hold
        # the read-back form, not the caller's object
        cfg = _tiny()
        metrics = replace(_metrics(cfg), avg_delay=0)
        store = RunStore(tmp_path)
        store.put(cfg, metrics)
        counts = count_store_work(monkeypatch)
        remembered = store.get(cfg)
        assert counts["read"] == 0
        fresh = RunStore(tmp_path).get(cfg)
        assert json.dumps(dataclasses.asdict(remembered)) == json.dumps(
            dataclasses.asdict(fresh)
        )

    @pytest.mark.parametrize(
        "how", ["rm-other-handle", "rm-same-handle", "gc-other-handle", "gc-same-handle", "unlink"]
    )
    def test_deleted_entry_is_a_counted_miss(self, tmp_path, how):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.get(cfg) is not None
        path = store.path_for(run_key(cfg))
        verb, _, handle = how.partition("-")
        deleter = store if handle == "same-handle" else RunStore(tmp_path)
        if verb == "rm":
            assert deleter.rm([run_key(cfg)]) == 1
        elif verb == "gc":
            _make_stale(path)
            assert deleter.gc()["stale_removed"] == 1
        else:
            path.unlink()
        assert store.get(cfg) is None
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_entry_corrupted_in_place_is_a_counted_miss(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.get(cfg) is not None
        store.path_for(run_key(cfg)).write_text("{ not json")
        assert store.get(cfg) is None
        assert (store.stats.hits, store.stats.misses) == (1, 1)

    def test_put_through_another_handle_is_served(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.get(cfg) == _metrics(cfg)
        # the same number of bytes: only the new file's inode tells them apart
        newer = _metrics(cfg, energy=2e-4)
        RunStore(tmp_path).put(cfg, newer)
        assert store.get(cfg) == newer

    def test_rm_and_gc_forget_what_they_delete(self, tmp_path):
        store = RunStore(tmp_path)
        cfgs = [_tiny(seed=s) for s in (1, 2)]
        for cfg in cfgs:
            store.put(cfg, _metrics(cfg))
        assert store.rm([run_key(cfgs[0])]) == 1
        _make_stale(store.path_for(run_key(cfgs[1])))
        assert store.gc()["stale_removed"] == 1
        assert store._memo == {}


class TestMaintenance:
    def test_ls_lists_entries(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (1, 2, 3):
            cfg = _tiny(seed=seed)
            store.put(cfg, _metrics(cfg))
        rows = store.ls()
        assert len(rows) == 3
        assert {row["seed"] for row in rows} == {1, 2, 3}
        assert all(len(row["key"]) == 64 for row in rows)

    def test_repeated_put_is_listed_once(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        store.put(cfg, _metrics(cfg))
        assert [row["key"] for row in store.ls()] == [run_key(cfg)]

    def test_entry_carries_identity_and_metrics(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        key = run_key(cfg)
        entry = store.entry(key)
        assert entry is not None
        assert entry["key"] == key
        assert entry["identity"]["config"]["seed"] == cfg.seed
        assert entry["metrics"]["delivery_ratio"] == 0.875
        assert store.entry("0" * 64) is None

    def test_root_holds_only_entry_directories(self, tmp_path):
        # the runs/ scan is the only listing: no index file beside it
        store = RunStore(tmp_path)
        cfgs = [_tiny(seed=s) for s in (1, 2)]
        for cfg in cfgs:
            store.put(cfg, _metrics(cfg))
        store.rm([run_key(cfgs[0])])
        store.gc()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs"]
        store.put_timeline(cfgs[1], {"t": [0.0], "series": {}})
        store.gc()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["runs", "timelines"]

    def test_rm_removes_keys(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.rm([run_key(cfg), "deadbeef"]) == 1
        assert not store.contains(cfg)

    def test_rm_accepts_unambiguous_prefix(self, tmp_path):
        # `store ls` displays truncated keys; rm must accept them
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.rm([run_key(cfg)[:16]]) == 1
        assert not store.contains(cfg)

    @pytest.mark.parametrize("pattern", ["", "[0-9a-f]", "*"])
    def test_rm_ignores_non_key_patterns(self, tmp_path, pattern):
        # keys are hex, never glob patterns: these match no entry
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        assert store.rm([pattern]) == 0
        assert store.contains(cfg)

    def test_rm_skips_ambiguous_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        path = store.put(cfg, _metrics(cfg))
        # a second entry sharing an 8-digit prefix makes that prefix ambiguous
        prefix = run_key(cfg)[:8]
        (store.runs_dir / f"{prefix}fake.json").write_text(path.read_text())
        assert store.rm([prefix]) == 0
        assert store.contains(cfg)

    def test_gc_prunes_litter_corruption_and_stale_versions(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        store.put(cfg, _metrics(cfg))
        # temp litter from a killed writer (old enough to be collectable)
        litter = store.runs_dir / "abc.tmpXYZ"
        litter.write_text("partial")
        stale_mtime = time.time() - 2 * TMP_LITTER_MIN_AGE_S
        os.utime(litter, (stale_mtime, stale_mtime))
        # a *fresh* tmp may be a live writer mid-put — gc must leave it
        fresh = store.runs_dir / "def.tmpABC"
        fresh.write_text("in flight")
        # corrupt payload
        (store.runs_dir / ("f" * 64 + ".json")).write_text("{ nope")
        # stale code version: unreachable by construction (version is in the key)
        stale_cfg = _tiny(seed=99)
        stale_path = store.put(stale_cfg, _metrics(stale_cfg))
        entry = json.loads(stale_path.read_text())
        entry["identity"]["code_version"] = "0.0.1"
        stale_path.write_text(json.dumps(entry))
        stats = store.gc()
        assert stats == {
            "tmp_removed": 1,
            "corrupt_removed": 1,
            "stale_removed": 1,
            "kept": 1,
            "timelines_removed": 0,
            "timelines_kept": 0,
        }
        assert store.contains(cfg)
        assert not litter.exists()
        assert fresh.exists()

    def test_gc_keep_stale(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = _tiny()
        path = store.put(cfg, _metrics(cfg))
        entry = json.loads(path.read_text())
        entry["identity"]["code_version"] = "0.0.1"
        path.write_text(json.dumps(entry))
        stats = store.gc(prune_stale_versions=False)
        assert stats["stale_removed"] == 0
        assert stats["kept"] == 1


class TestSweepIntegration:
    def test_second_pass_all_hits_and_identical(self, tmp_path):
        cfgs = [_tiny(scheme, 50, 1) for scheme in ("greedy", "opportunistic")]
        store = RunStore(tmp_path)
        first = run_configs(cfgs, store=store)
        assert store.stats.misses == 2 and store.stats.persisted == 2
        resumed = RunStore(tmp_path)
        second = run_configs(cfgs, store=resumed)
        assert resumed.stats.hits == 2 and resumed.stats.persisted == 0
        assert second == first
        assert second == run_configs(cfgs)  # and identical to store-less runs

    def test_progress_counts_hits_up_front(self, tmp_path):
        cfgs = [_tiny(seed=s) for s in (1, 2)]
        store = RunStore(tmp_path)
        run_configs([cfgs[0]], store=store)
        seen = []
        run_configs(cfgs, store=store, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 2), (2, 2)]

    def test_parallel_sweep_persists_and_resumes(self, tmp_path):
        cfgs = [_tiny(seed=s) for s in (1, 2, 3)]
        store = RunStore(tmp_path)
        parallel = run_configs(cfgs, workers=2, store=store)
        assert store.stats.persisted == 3
        # a fresh handle resumes without running anything
        resumed = RunStore(tmp_path)
        again = run_configs(cfgs, workers=2, store=resumed)
        assert resumed.stats.hits == 3 and resumed.stats.misses == 0
        assert again == parallel == run_configs(cfgs)

    def test_sweep_hashes_each_config_once(self, tmp_path, monkeypatch):
        import repro.experiments.sweeps as sweeps_mod

        monkeypatch.setattr(sweeps_mod, "run_experiment", _metrics)
        cfgs = [_tiny(seed=s) for s in (1, 2, 3)]
        counts = count_store_work(monkeypatch)
        cold = run_configs(cfgs, store=RunStore(tmp_path))
        assert counts["run_key"] == len(cfgs)
        warm = run_configs(cfgs, store=RunStore(tmp_path))
        assert counts["run_key"] == 2 * len(cfgs)
        assert warm == cold

    def test_failures_are_not_persisted(self, tmp_path, monkeypatch):
        import repro.experiments.sweeps as sweeps_mod

        real_run = sweeps_mod.run_experiment

        def exploding(cfg):
            if cfg.seed == 2:
                raise RuntimeError("boom")
            return real_run(cfg)

        monkeypatch.setattr(sweeps_mod, "run_experiment", exploding)
        store = RunStore(tmp_path)
        cfgs = [_tiny(seed=s) for s in (1, 2)]
        results = run_configs(cfgs, store=store, return_failures=True)
        assert isinstance(results[1], RunFailure)
        assert results[1].index == 1  # position in the original config list
        assert store.stats.persisted == 1
        assert store.stats.skipped == 1
        assert not store.contains(cfgs[1])

    def test_failure_index_is_global_after_store_prefilter(self, tmp_path, monkeypatch):
        # With the first config already stored, a failure in the second
        # must still report index 1, not its position in the miss subset.
        import repro.experiments.sweeps as sweeps_mod

        store = RunStore(tmp_path)
        cfgs = [_tiny(seed=s) for s in (1, 2)]
        run_configs([cfgs[0]], store=store)

        def exploding(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweeps_mod, "run_experiment", exploding)
        results = run_configs(cfgs, store=store, return_failures=True)
        assert isinstance(results[0], RunMetrics)  # the hit — never re-run
        assert isinstance(results[1], RunFailure)
        assert results[1].index == 1


class TestInterruptedFigureResume:
    """The acceptance scenario: kill a sweep partway (injected worker
    exception), re-run with the same store, get a bit-identical figure."""

    def test_resumed_figure_bit_identical_to_uninterrupted(self, tmp_path, monkeypatch):
        import repro.experiments.sweeps as sweeps_mod

        profile = smoke()
        densities = [50, 60]
        real_run = sweeps_mod.run_experiment

        # Pass 1: every opportunistic run dies mid-sweep.
        def dying(cfg):
            if cfg.scheme == "opportunistic":
                raise RuntimeError("simulated crash")
            return real_run(cfg)

        monkeypatch.setattr(sweeps_mod, "run_experiment", dying)
        store = RunStore(tmp_path)
        fplan = figure_plan("fig5", profile, trials=1, xs=densities)
        with pytest.raises(SweepError):
            run_figure_plan(fplan, store=store)
        completed_first_pass = store.stats.persisted
        assert 0 < completed_first_pass < 2 * len(densities)

        # Pass 2: healed code, same store — only the missing tail runs.
        monkeypatch.setattr(sweeps_mod, "run_experiment", real_run)
        resumed_store = RunStore(tmp_path)
        resumed = run_figure_plan(fplan, store=resumed_store)
        assert resumed_store.stats.hits == completed_first_pass
        assert resumed_store.stats.misses == 2 * len(densities) - completed_first_pass

        # Reference: one uninterrupted serial run, no store involved.
        reference = run_figure_plan(fplan)
        assert resumed == reference  # frozen dataclasses: bit-identical floats

    def test_resume_runs_only_missing_tail(self, tmp_path, monkeypatch):
        import repro.experiments.sweeps as sweeps_mod

        real_run = sweeps_mod.run_experiment
        executed: list[int] = []

        def counting(cfg):
            executed.append(cfg.seed)
            return real_run(cfg)

        monkeypatch.setattr(sweeps_mod, "run_experiment", counting)
        cfgs = [_tiny(seed=s) for s in (1, 2, 3, 4)]
        store = RunStore(tmp_path)
        run_configs(cfgs[:2], store=store)
        executed.clear()
        run_configs(cfgs, store=store)
        assert sorted(executed) == [3, 4]  # the stored prefix never re-ran


class TestManifestStoreBlock:
    def test_figure_manifest_records_store_accounting(self, tmp_path):
        from repro.experiments.persistence import build_figure_manifest

        profile = smoke()
        store = RunStore(tmp_path)
        result = run_figure_plan(figure_plan("fig5", profile, trials=1, xs=[50]), store=store)
        manifest = build_figure_manifest(
            result,
            profile,
            wall_time_s=1.0,
            trials=1,
            store={"path": str(tmp_path), **store.stats.as_dict()},
        )
        block = manifest["store"]
        assert block["misses"] == 2 and block["persisted"] == 2
        assert block["hits"] == 0
        assert block["path"] == str(tmp_path)

    def test_metrics_survive_json_round_trip_via_manifest_format(self, tmp_path):
        # The stored payload uses the same asdict serialization as run
        # manifests; float fields must round-trip repr-exactly.
        cfg = _tiny()
        metrics = _metrics(cfg, energy=0.1 + 0.2)  # a float with ugly repr
        store = RunStore(tmp_path)
        store.put(cfg, metrics)
        loaded = store.get(cfg)
        assert loaded is not None
        assert dataclasses.asdict(loaded) == dataclasses.asdict(metrics)

"""LocalDirBackend: RunStore pass-through + sqlite listing index."""

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.metrics import RunMetrics
from repro.experiments.store import RunStore, run_key
from repro.service.backend import LocalDirBackend


def _cfg(seed=1):
    return ExperimentConfig.from_profile(
        smoke(), "greedy", 50, seed=seed, duration=8.0, warmup=3.0
    )


def _metrics(cfg, ratio=0.9):
    return RunMetrics(
        scheme=cfg.scheme,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        avg_dissipated_energy=1e-4,
        avg_delay=0.1,
        delivery_ratio=ratio,
        total_energy_j=0.5,
        distinct_delivered=7,
        events_sent=8,
        mean_degree=4.2,
    )


class TestLocalDirBackend:
    def test_put_then_get_round_trips(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        cfg = _cfg()
        assert backend.get(cfg) is None
        assert not backend.contains(cfg)
        path = backend.put(cfg, _metrics(cfg))
        assert path == backend.store.path_for(run_key(cfg))
        assert backend.contains(cfg)
        assert backend.get(cfg) == _metrics(cfg)
        backend.close()

    def test_sqlite_index_tracks_puts(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        for seed in (1, 2, 3):
            backend.put(_cfg(seed), _metrics(_cfg(seed)))
        rows = backend.summaries()
        assert {row["key"] for row in rows} == {run_key(_cfg(s)) for s in (1, 2, 3)}
        assert all(row["scheme"] == "greedy" for row in rows)
        assert backend.stats()["entries"] == 3
        backend.close()

    def test_put_is_idempotent_in_index(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        cfg = _cfg()
        backend.put(cfg, _metrics(cfg))
        backend.put(cfg, _metrics(cfg))
        assert len(backend.summaries()) == 1
        backend.close()

    def test_entry_carries_identity_and_metrics(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        cfg = _cfg()
        backend.put(cfg, _metrics(cfg))
        key = run_key(cfg)
        entry = backend.entry(key)
        assert entry is not None
        assert entry["key"] == key
        assert entry["identity"]["config"]["seed"] == cfg.seed
        assert entry["metrics"]["delivery_ratio"] == 0.9
        assert backend.entry("0" * 64) is None
        backend.close()

    def test_reopen_over_warm_store_reindexes(self, tmp_path):
        """A store warmed by direct sweeps lists fully on first open."""
        root = tmp_path / "store"
        store = RunStore(root)
        for seed in (1, 2):
            store.put(_cfg(seed), _metrics(_cfg(seed)))
        backend = LocalDirBackend(root)
        assert len(backend.summaries()) == 2
        backend.close()

    def test_reindex_drops_removed_entries(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        cfg = _cfg()
        backend.put(cfg, _metrics(cfg))
        key = run_key(cfg)
        backend.store.rm([key])
        assert backend.reindex() == 0
        assert backend.summaries() == []
        backend.close()

    def test_timeline_pass_through(self, tmp_path):
        backend = LocalDirBackend(tmp_path / "store")
        cfg = _cfg()
        backend.put(cfg, _metrics(cfg))
        key = run_key(cfg)
        assert backend.timeline(key) is None
        backend.store.put_timeline(key, {"t": [0.0, 1.0], "series": {}})
        timeline = backend.timeline(key)
        assert timeline is not None and timeline["key"] == key
        backend.close()

"""Cross-process RunStore safety without a lock.

The ``runs/`` directory is the store's only index.  Two writers (N
service workers, or a sweep running beside ``store gc``) never touch a
shared file: each entry is written to a unique temp file and renamed
into place, and gc spares young temp files.  So every entry either
writer put must be listed afterwards.
"""

import multiprocessing

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.metrics import RunMetrics
from repro.experiments.store import RunStore, run_key


def _cfg(seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_profile(
        smoke(), "greedy", 50, seed=seed, duration=8.0, warmup=3.0
    )


def _metrics(cfg: ExperimentConfig) -> RunMetrics:
    return RunMetrics(
        scheme=cfg.scheme,
        n_nodes=cfg.n_nodes,
        seed=cfg.seed,
        avg_dissipated_energy=1e-4,
        avg_delay=0.1,
        delivery_ratio=0.9,
        total_energy_j=0.5,
        distinct_delivered=7,
        events_sent=8,
        mean_degree=4.2,
    )


def _writer(root: str, seeds, barrier) -> None:
    store = RunStore(root)
    configs = [_cfg(seed) for seed in seeds]
    barrier.wait()
    for cfg in configs:
        store.put(cfg, _metrics(cfg))


def _gc_loop(root: str, barrier, rounds: int) -> None:
    store = RunStore(root)
    barrier.wait()
    for _ in range(rounds):
        store.gc()


class TestConcurrentIndexWriters:
    def test_two_writers_lose_no_entries(self, tmp_path):
        """Two processes putting disjoint entries -> ls lists all of them."""
        root = tmp_path / "store"
        n_each = 25
        seeds_a = list(range(1, n_each + 1))
        seeds_b = list(range(1001, 1001 + n_each))
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(target=_writer, args=(str(root), seeds, barrier))
            for seeds in (seeds_a, seeds_b)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        expected = {run_key(_cfg(s)) for s in seeds_a + seeds_b}
        assert len(expected) == 2 * n_each
        assert {row["key"] for row in RunStore(root).ls()} == expected

    def test_writer_concurrent_with_gc_keeps_all_entries(self, tmp_path):
        """A writer racing `store gc` ends with every entry listed."""
        root = tmp_path / "store"
        seeds = list(range(1, 21))
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        writer = ctx.Process(target=_writer, args=(str(root), seeds, barrier))
        sweeper = ctx.Process(target=_gc_loop, args=(str(root), barrier, 10))
        writer.start()
        sweeper.start()
        for p in (writer, sweeper):
            p.join(timeout=120)
            assert p.exitcode == 0
        expected = {run_key(_cfg(s)) for s in seeds}
        assert {row["key"] for row in RunStore(root).ls()} == expected

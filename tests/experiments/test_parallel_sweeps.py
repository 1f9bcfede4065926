"""Run-executor tests: parallel == serial bit-for-bit, failure
placeholders instead of pool-wide crashes, progress reporting."""

import multiprocessing
import os
import signal

import pytest

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.figures import FigurePlan, figure_from_results
from repro.experiments.metrics import RunMetrics
from repro.experiments.store import RunStore
from repro.experiments.sweeps import (
    RunFailure,
    SweepError,
    paired_plan,
    run_configs,
)


def _tiny(scheme: str, n: int, seed: int, **overrides) -> ExperimentConfig:
    return ExperimentConfig.from_profile(
        smoke(), scheme, n, seed=seed, duration=8.0, warmup=3.0, **overrides
    )


def _make_config_factory():
    def make(scheme, x, seed):
        return _tiny(scheme, x, seed)

    return make


class TestParallelEqualsSerial:
    def test_run_configs_workers_bit_identical(self):
        plan = paired_plan(smoke(), [50, 60], _make_config_factory(), trials=1)
        configs = [cfg for _scheme, _x, cfg in plan]
        serial = run_configs(configs, workers=0)
        parallel = run_configs(configs, workers=2)
        assert parallel == serial

    def test_run_configs_preserves_order(self):
        configs = [_tiny("greedy", 50, seed) for seed in (3, 1, 2)]
        serial = run_configs(configs)
        parallel = run_configs(configs, workers=2)
        assert [m.seed for m in parallel] == [3, 1, 2]
        assert parallel == serial


class TestFailureIsolation:
    def test_crashed_config_yields_placeholder_and_summary(self, monkeypatch):
        # Serial path shares the same per-run capture as workers, so the
        # monkeypatch (which cannot cross a process boundary) exercises it.
        import repro.experiments.sweeps as sweeps_mod

        good = _tiny("greedy", 50, 1)
        bad = _tiny("greedy", 50, 2)
        real_run = sweeps_mod.run_experiment

        def exploding(cfg):
            if cfg.seed == 2:
                raise RuntimeError("boom")
            return real_run(cfg)

        monkeypatch.setattr(sweeps_mod, "run_experiment", exploding)

        # return_failures: the mixed list comes back, order preserved.
        results = run_configs([good, bad, good], return_failures=True)
        assert isinstance(results[0], RunMetrics)
        assert isinstance(results[1], RunFailure)
        assert isinstance(results[2], RunMetrics)
        assert "boom" in results[1].error
        assert results[1].index == 1

        # default: one SweepError summary at the end, carrying everything.
        with pytest.raises(SweepError) as exc_info:
            run_configs([good, bad])
        err = exc_info.value
        assert len(err.failures) == 1
        assert len(err.results) == 2
        assert isinstance(err.results[0], RunMetrics)
        assert "boom" in str(err)

    def test_failure_in_worker_process_survives_sweep(self):
        # A config that genuinely raises inside a worker (too many random
        # sources for the node count): the pool must not die with it.
        good = _tiny("greedy", 50, 1)
        bad = _tiny("greedy", 50, 2, n_sources=50, source_placement="random")
        results = run_configs([good, bad, good], workers=2, return_failures=True)
        assert isinstance(results[0], RunMetrics)
        assert isinstance(results[1], RunFailure)
        assert isinstance(results[2], RunMetrics)
        assert results[0] == results[2]
        assert "ValueError" in results[1].error

    def test_figure_from_results_skips_failed_runs(self, monkeypatch):
        import repro.experiments.sweeps as sweeps_mod

        real_run = sweeps_mod.run_experiment
        calls = {"n": 0}

        def flaky(cfg):
            calls["n"] += 1
            if cfg.scheme == "opportunistic":
                raise RuntimeError("scheme down")
            return real_run(cfg)

        monkeypatch.setattr(sweeps_mod, "run_experiment", flaky)
        plan = paired_plan(smoke(), [50], _make_config_factory(), trials=1)
        fplan = FigurePlan("t", "t", "x", tuple(plan))
        results = run_configs(fplan.configs(), return_failures=True)
        figure = figure_from_results(fplan, results)
        assert [c.scheme for c in figure.cells] == ["greedy"]
        assert calls["n"] == 2  # the failure did not abort the sweep


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the kill switch reaches the workers through fork",
)
class TestWorkerDeath:
    def test_dead_worker_fails_only_runs_on_the_pool(self, tmp_path, monkeypatch):
        """SIGKILL one worker mid-sweep: only the runs handed to the pool
        at that moment fail, the rebuilt pool completes the rest, and a
        re-run against the store executes only the failed runs."""
        import repro.experiments.sweeps as sweeps_mod

        workers = 2
        configs = [_tiny("greedy", 50, seed) for seed in range(1, 9)]
        serial = run_configs(configs)
        real_run = sweeps_mod.run_experiment

        def killing(cfg):
            if cfg.seed == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(cfg)

        # the forked pool workers inherit the patched module
        monkeypatch.setattr(sweeps_mod, "run_experiment", killing)
        store = RunStore(tmp_path)
        results = run_configs(configs, workers=workers, store=store, return_failures=True)
        failed = [i for i, r in enumerate(results) if isinstance(r, RunFailure)]
        assert isinstance(results[1], RunFailure)
        assert "worker process died" in results[1].error
        assert len(failed) <= workers + 1
        assert all(r == serial[i] for i, r in enumerate(results) if i not in failed)
        assert results[-2:] == serial[-2:]  # dispatched after the rebuild
        assert store.stats.persisted == len(configs) - len(failed)

        monkeypatch.undo()
        resumed_store = RunStore(tmp_path)
        resumed = run_configs(configs, workers=workers, store=resumed_store)
        assert resumed_store.stats.misses == len(failed)
        assert resumed_store.stats.persisted == len(failed)
        assert resumed == serial


class TestProgressAndKnobs:
    def test_progress_reaches_total_serial(self):
        seen = []
        run_configs(
            [_tiny("greedy", 50, s) for s in (1, 2)],
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_progress_reaches_total_parallel(self):
        seen = []
        run_configs(
            [_tiny("greedy", 50, s) for s in (1, 2, 3)],
            workers=2,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert [d for d, _t in seen] and seen[-1] == (3, 3)
        assert [d for d, _t in seen] == sorted(d for d, _t in seen)

    def test_empty_sweep(self):
        assert run_configs([]) == []
        assert run_configs([], workers=4) == []

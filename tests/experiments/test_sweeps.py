"""Tests for sweep plumbing (paired seeds, summaries)."""

from dataclasses import replace

import pytest

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.metrics import RunMetrics
from repro.experiments.sweeps import (
    CellSummary,
    cell_seed,
    paired_plan,
    run_configs,
    summarize_paired,
)


def fake_run(scheme="greedy", n=50, seed=1, energy=0.001, delay=0.3, ratio=0.9):
    return RunMetrics(
        scheme=scheme,
        n_nodes=n,
        seed=seed,
        avg_dissipated_energy=energy,
        avg_delay=delay,
        delivery_ratio=ratio,
        total_energy_j=1.0,
        distinct_delivered=10,
        events_sent=11,
        mean_degree=6.0,
    )


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(0, 150, 2) == cell_seed(0, 150, 2)

    def test_varies_with_x_and_trial(self):
        assert cell_seed(0, 150, 0) != cell_seed(0, 150, 1)
        assert cell_seed(0, 150, 0) != cell_seed(0, 200, 0)

    def test_within_31_bits(self):
        assert 0 <= cell_seed(0, 350, 9) < 2**31


class TestCellSummary:
    def test_means(self):
        runs = [fake_run(energy=0.001), fake_run(energy=0.003)]
        s = CellSummary.from_runs("greedy", 50, runs)
        assert s.energy == pytest.approx(0.002)
        assert s.n_runs == 2
        assert s.energy_stdev > 0

    def test_single_run_zero_stdev(self):
        s = CellSummary.from_runs("greedy", 50, [fake_run()])
        assert s.energy_stdev == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CellSummary.from_runs("greedy", 50, [])


class TestPairedSweep:
    def test_pairing_and_grouping(self):
        profile = smoke()
        base = ExperimentConfig.from_profile(profile, "greedy", 50, seed=0)
        seen: list[ExperimentConfig] = []

        def make(scheme, x, seed):
            cfg = replace(base, scheme=scheme, n_nodes=x, seed=seed)
            seen.append(cfg)
            return cfg

        plan = paired_plan(profile, [50, 60], make, trials=2)
        cells = summarize_paired(plan, run_configs([cfg for _s, _x, cfg in plan]))
        # 2 x-values x 2 trials x 2 schemes = 8 configs.
        assert len(seen) == 8
        # Paired: same seed for both schemes within a (x, trial).
        by_key = {}
        for cfg in seen:
            by_key.setdefault((cfg.n_nodes, cfg.seed), []).append(cfg.scheme)
        assert all(sorted(v) == ["greedy", "opportunistic"] for v in by_key.values())
        # Summaries: one per (scheme, x).
        assert len(cells) == 4
        assert {(c.scheme, c.x) for c in cells} == {
            ("greedy", 50.0),
            ("greedy", 60.0),
            ("opportunistic", 50.0),
            ("opportunistic", 60.0),
        }

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            paired_plan(smoke(), [50], lambda s, x, seed: None, trials=0)


class TestRunConfigs:
    def test_serial_runs(self):
        profile = smoke()
        cfgs = [
            ExperimentConfig.from_profile(profile, "greedy", 50, seed=1, n_sources=2)
        ]
        results = run_configs(cfgs)
        assert len(results) == 1
        assert results[0].scheme == "greedy"

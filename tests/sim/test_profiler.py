"""Unit tests for the stack-sampling layer profiler."""

import dataclasses
import json
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy
import pytest

from repro.cli import main
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, smoke
from repro.obs import ObsOptions, Profiler, format_profile
from repro.obs.profiler import (
    LAYER_MODULES,
    PACKAGE_DIR,
    SWITCH_INTERVAL_S,
    Classifier,
    layer_of_module,
)
from repro.sim import Simulator

PACKAGE = Path(PACKAGE_DIR)


def busy_callback(seconds=0.002):
    # Burn wall time so the sampler thread takes samples during the run.
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(200))


def small_cfg():
    profile = smoke()
    return ExperimentConfig(
        scheme="greedy",
        n_nodes=30,
        seed=2,
        duration=profile.duration,
        warmup=profile.warmup,
        diffusion=profile.diffusion,
    )


class TestProfiler:
    def test_report_counts_events_and_throughput(self):
        sim = Simulator()
        for i in range(100):
            sim.schedule(i * 0.1, busy_callback, 0.0005)
        with Profiler(sim) as prof:
            sim.run()
        report = prof.report()
        assert report["events"] == 100
        assert report["events_per_sec"] > 0
        assert report["wall_time_s"] > 0
        assert report["sim_time_s"] == 9.9

    def test_heap_depth_sampling(self):
        sim = Simulator()
        for i in range(64):
            sim.schedule(float(i), busy_callback)
        with Profiler(sim) as prof:
            sim.run()
        report = prof.report()
        assert report["samples"] > 0
        assert 0 <= report["heap_min"] <= report["heap_mean"] <= report["heap_max"] <= 64

    def test_cancelled_churn_counted(self):
        sim = Simulator()
        keep = [sim.schedule(float(i), lambda: None) for i in range(10)]
        for ev in keep[:4]:
            ev.cancel()
        with Profiler(sim) as prof:
            sim.run()
        report = prof.report()
        assert report["events"] == 6
        assert report["cancelled_churn"] == 4

    def test_format_profile_mentions_headline_numbers(self):
        sim = Simulator()
        for i in range(20):
            sim.schedule(float(i), busy_callback)
        with Profiler(sim) as prof:
            sim.run()
        text = format_profile(prof.report())
        assert "events/sec" in text
        assert "heap depth" in text
        # a callback outside the package is charged to the engine that ran it
        assert "sim.engine" in text

    def test_simulator_without_profiler_has_no_note_overhead_state(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 1  # plain path still works
        assert not [name for name in dir(sim) if "profiler" in name]

    def test_profiling_leaves_run_metrics_bit_identical(self):
        plain = runner.run_observed(small_cfg(), None)
        profiled = runner.run_observed(small_cfg(), ObsOptions(profile=True))
        assert profiled.profile is not None and profiled.profile["samples"] > 0
        assert dataclasses.asdict(profiled.metrics) == dataclasses.asdict(plain.metrics)

    def test_raising_callback_stops_sampler_and_restores_switch_interval(
        self, monkeypatch
    ):
        seen = {}

        def boom():
            busy_callback(0.02)
            seen["threads"] = [
                t for t in threading.enumerate() if t.name == "layer-sampler"
            ]
            seen["switch"] = sys.getswitchinterval()
            raise RuntimeError("callback failed")

        real_build_world = runner.build_world

        def build_world(cfg):
            world = real_build_world(cfg)
            world.sim.schedule(cfg.warmup / 2, boom)
            return world

        monkeypatch.setattr(runner, "build_world", build_world)
        before = sys.getswitchinterval()
        with pytest.raises(RuntimeError, match="callback failed"):
            runner.run_observed(small_cfg(), ObsOptions(profile=True))
        # the sampler was running while the callback raised...
        assert len(seen["threads"]) == 1
        assert seen["switch"] == SWITCH_INTERVAL_S
        # ...and nothing of it survives the run
        for thread in seen["threads"]:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert not [t for t in threading.enumerate() if t.name == "layer-sampler"]
        assert sys.getswitchinterval() == before

    def test_run_profile_reports_a_layer_table(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        assert main(["run", "-n", "150", "--profile", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        layers = json.loads(manifest.read_text())["profile"]["layers"]
        for layer in ("sim.engine", "net.radio", "net.mac", "diffusion"):
            assert layers[layer]["samples"] > 0
            assert any(line.split()[:1] == [layer] for line in out.splitlines())
        assert sum(row["share"] for row in layers.values()) == pytest.approx(1.0, abs=1e-9)


def frame(filename, back=None):
    return SimpleNamespace(f_code=SimpleNamespace(co_filename=filename), f_back=back)


class TestAttribution:
    def test_foreign_frames_are_charged_to_the_calling_layer(self):
        classifier = Classifier(PACKAGE_DIR)
        mac = frame(str(PACKAGE / "net" / "mac.py"), back=frame(__file__))
        for foreign in (json.__file__, numpy.__file__, "<built-in>"):
            assert classifier.layer_of_frame(frame(foreign, back=mac)) == "net.mac"

    def test_stack_without_package_frame_is_other(self):
        classifier = Classifier(PACKAGE_DIR)
        stack = frame(json.__file__, back=frame(numpy.__file__, back=frame(__file__)))
        assert classifier.layer_of_frame(stack) == "other"


class TestLayerTable:
    def test_every_prefix_names_an_existing_module(self):
        for prefixes in LAYER_MODULES.values():
            for prefix in prefixes:
                path = PACKAGE.joinpath(*prefix.split("."))
                assert path.with_suffix(".py").is_file() or (path / "__init__.py").is_file(), (
                    prefix
                )

    @pytest.mark.parametrize("package", ["sim", "net", "diffusion", "core", "aggregation"])
    def test_simulation_modules_map_to_a_layer(self, package):
        # package __init__ files hold imports only, so no sample lands in them
        modules = sorted(p for p in (PACKAGE / package).glob("*.py") if p.stem != "__init__")
        assert modules
        for path in modules:
            assert layer_of_module(f"{package}.{path.stem}") != "other", path.name

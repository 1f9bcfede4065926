"""Tests for world construction and the experiment runner."""

import gc
import weakref

import pytest

from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, FailureModel, smoke
from repro.experiments.runner import build_world, run_experiment, run_observed
from repro.net.channel import ChannelSpec
from repro.obs import ObsOptions


def cfg(**overrides):
    scheme = overrides.pop("scheme", "greedy")
    return ExperimentConfig.from_profile(smoke(), scheme, 60, seed=4, **overrides)


class TestBuildWorld:
    def test_world_shape(self):
        w = build_world(cfg())
        assert len(w.nodes) == 60
        assert len(w.agents) == 60
        assert len(w.sources) == 5
        assert len(w.sinks) == 1
        assert not set(w.sources) & set(w.sinks)

    def test_sources_in_corner_square(self):
        w = build_world(cfg())
        for s in w.sources:
            x, y = w.field.positions[s]
            assert x <= 80.0 + 1e-9 and y <= 80.0 + 1e-9

    def test_source_attributes_match_interest(self):
        from repro.experiments.runner import TRACKING_SPEC

        w = build_world(cfg())
        for s in w.sources:
            assert TRACKING_SPEC.matches(w.agents[s].attributes)
        non_sources = set(range(60)) - set(w.sources)
        for n in list(non_sources)[:10]:
            assert not TRACKING_SPEC.matches(w.agents[n].attributes)

    def test_multi_sink_world(self):
        w = build_world(cfg(n_sinks=3))
        assert len(w.sinks) == 3
        for sink in w.sinks:
            assert sink in w.agents[sink].own_interests

    def test_failure_driver_attached(self):
        w = build_world(cfg(failures=FailureModel(epoch=5.0)))
        assert w.failure_driver is not None

    def test_scheme_selects_agent_class(self):
        from repro.core.greedy import GreedyAgent
        from repro.diffusion.opportunistic import OpportunisticAgent

        assert isinstance(build_world(cfg()).agents[0], GreedyAgent)
        w = build_world(cfg(scheme="opportunistic"))
        assert isinstance(w.agents[0], OpportunisticAgent)

    def test_same_seed_same_world(self):
        a = build_world(cfg())
        b = build_world(cfg())
        assert a.field.positions == b.field.positions
        assert a.sources == b.sources
        assert a.sinks == b.sinks


class TestRunExperiment:
    def test_run_produces_sane_metrics(self):
        r = run_experiment(cfg())
        assert r.scheme == "greedy"
        assert r.n_nodes == 60
        assert 0.0 <= r.delivery_ratio <= 1.0
        assert r.delivery_ratio > 0.5
        assert r.avg_dissipated_energy > 0
        assert r.avg_delay > 0
        assert r.distinct_delivered > 0
        assert r.events_sent > 0

    def test_determinism(self):
        a = run_experiment(cfg())
        b = run_experiment(cfg())
        assert a.avg_dissipated_energy == b.avg_dissipated_energy
        assert a.avg_delay == b.avg_delay
        assert a.delivery_ratio == b.delivery_ratio
        assert a.counters == b.counters

    def test_different_seeds_differ(self):
        a = run_experiment(cfg())
        b = run_experiment(
            ExperimentConfig.from_profile(smoke(), "greedy", 60, seed=5)
        )
        assert a.avg_dissipated_energy != b.avg_dissipated_energy

    def test_include_idle_raises_energy(self):
        lean = run_experiment(cfg())
        full = run_experiment(cfg(include_idle=True))
        assert full.avg_dissipated_energy > lean.avg_dissipated_energy

    def test_failures_reduce_delivery(self):
        clean = run_experiment(cfg())
        faulty = run_experiment(cfg(failures=FailureModel(fraction=0.2, epoch=5.0)))
        assert faulty.delivery_ratio < clean.delivery_ratio
        assert faulty.counters.get("node.fail", 0) > 0

    def test_sinks_exempt_from_failures(self):
        w = build_world(cfg(failures=FailureModel(epoch=2.0)))
        w.sim.run(until=w.config.duration)
        for sink in w.sinks:
            assert w.nodes[sink].first_down_at is None

    def test_linear_aggregation_runs(self):
        r = run_experiment(cfg(aggregation="linear"))
        assert r.delivery_ratio > 0.5

    def test_random_placement_runs(self):
        r = run_experiment(cfg(source_placement="random"))
        assert r.distinct_delivered > 0

    def test_event_radius_placement_runs(self):
        r = run_experiment(cfg(source_placement="event-radius"))
        assert r.distinct_delivered > 0


class TestPublishCounters:
    """The PHY and MAC count in plain ints; ``Channel.publish_counters``
    puts them in the registry, for ``run_observed`` and for a caller
    that drives ``build_world`` + ``sim.run`` itself."""

    def test_bare_run_publishes_what_run_experiment_reports(self):
        w = build_world(cfg())
        w.sim.run(until=w.config.duration)
        assert "radio.rx" not in w.tracer.counters
        assert "mac.tx" not in w.tracer.counters
        w.channel.publish_counters()
        assert dict(w.tracer.counters) == run_experiment(cfg()).counters

    def test_publishing_twice_leaves_counters_unchanged(self):
        w = build_world(cfg())
        w.sim.run(until=w.config.duration)
        w.channel.publish_counters()
        first = dict(w.tracer.counters)
        w.channel.publish_counters()
        assert dict(w.tracer.counters) == first


class TestEnergyAccountingGuards:
    def test_warmup_at_or_past_duration_rejected_at_config(self):
        # Silent-zero energy bug: if the warmup snapshot never fired, the
        # energy zip iterated zero pairs and total_energy came out 0.0.
        # The config layer must refuse such runs outright.
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme="greedy", n_nodes=50, seed=1, duration=10.0, warmup=10.0
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                scheme="greedy", n_nodes=50, seed=1, duration=10.0, warmup=12.0
            )

    def test_missing_snapshot_fails_loudly(self, monkeypatch):
        # Defense in depth: if the scheduler stops before the warmup
        # snapshot fires, the run must raise instead of silently
        # reporting zero energy.
        from repro.sim.engine import Simulator

        real_run = Simulator.run

        def truncated_run(self, until=None):
            return real_run(self, until=1.0)  # well before warmup=12.0

        monkeypatch.setattr(Simulator, "run", truncated_run)
        with pytest.raises(RuntimeError, match="snapshot incomplete"):
            run_experiment(cfg())


class TestFieldProvenance:
    def test_manifest_records_redraws_and_cache_hit(self, tmp_path):
        from repro.experiments.runner import run_observed
        from repro.net.fieldcache import default_field_cache
        from repro.obs import ObsOptions

        default_field_cache().clear()
        c = cfg()
        obs = ObsOptions(manifest_path=tmp_path / "m.json")
        first = run_observed(c, obs)
        assert first.manifest["field"] == {"redraws": 0, "cache_hit": False}
        second = run_observed(c, obs)
        assert second.manifest["field"]["cache_hit"] is True
        assert second.field_cache_hit
        assert second.events_processed > 0


class TestKernelShim:
    """``run_observed`` and ``resolve_kernel`` still take a kernel name,
    but the scalar fan-out is the only PHY kernel left."""

    def test_vector_kernel_rejected(self):
        from repro.experiments.runner import run_observed

        with pytest.raises(ValueError, match="vector kernel was removed"):
            run_observed(cfg(), kernel="vector")

    def test_auto_resolves_to_scalar_at_any_size(self):
        from repro.experiments.runner import resolve_kernel

        assert resolve_kernel("auto", 5000) == "scalar"
        assert resolve_kernel("scalar", 50) == "scalar"

    def test_auto_runs_the_default_path(self):
        from repro.experiments.runner import run_observed

        assert run_observed(cfg(), kernel="auto").metrics == run_experiment(cfg())


class TestWorldIsFreed:
    """``run_observed`` closes its world, so refcounting frees a finished
    run instead of leaving cyclic garbage for a full collection."""

    #: a 150-node world leaves about 10,000 unreachable objects when
    #: nothing unlinks its cycles
    MAX_UNREACHABLE = 300

    @staticmethod
    def config(**overrides):
        scheme = overrides.pop("scheme", "greedy")
        return ExperimentConfig(
            scheme=scheme, n_nodes=150, seed=3, duration=20.0, warmup=8.0, **overrides
        )

    @pytest.mark.parametrize(
        "overrides, obs",
        [
            ({}, None),
            ({}, ObsOptions(audit=True)),
            ({}, ObsOptions(timeline=True)),
            ({"channel": ChannelSpec(model="pathloss")}, None),
            ({"failures": FailureModel(0.2, 5.0)}, None),
            ({"scheme": "opportunistic"}, None),
        ],
        ids=["plain", "audit", "timeline", "pathloss", "failures", "opportunistic"],
    )
    def test_finished_run_leaves_no_cyclic_garbage(self, overrides, obs):
        c = self.config(**overrides)
        gc.collect()
        run_experiment(c, obs)
        assert gc.collect() < self.MAX_UNREACHABLE

    def test_world_closed_when_a_callback_raises(self, monkeypatch):
        built = []

        def boom():
            raise RuntimeError("boom")

        def build_and_plant(c):
            world = build_world(c)
            world.sim.schedule(1.0, boom)
            built.append(world)
            return world

        monkeypatch.setattr(runner, "build_world", build_and_plant)
        with pytest.raises(RuntimeError, match="boom"):
            run_observed(cfg())
        (world,) = built
        assert world.sim.pending_count() == 0
        for node in world.nodes:
            assert node.protocol is None and node.mac.receive_callback is None
            assert node.radio.deliver is None and node.radio.channel is None
        assert all(a.node is None for a in world.agents)

    def test_second_close_does_nothing(self):
        c = cfg()
        world = build_world(c)
        world.sim.run(until=5.0)
        world.close()
        world.close()
        assert world.sim.pending_count() == 0
        assert all(n.radio.channel is None for n in world.nodes)

    def test_kept_timeline_lets_its_world_go(self, monkeypatch):
        from repro.obs import Timeline, format_timeline
        from repro.obs.diff import diff_timelines

        first_nodes = []

        def build_and_watch(c):
            world = build_world(c)
            first_nodes.append(weakref.ref(world.nodes[0]))
            return world

        monkeypatch.setattr(runner, "build_world", build_and_watch)
        c = self.config()
        timeline = run_observed(c, ObsOptions(timeline=True)).timeline
        gc.collect()
        assert first_nodes[0]() is None
        # what a kept timeline is read for still works
        data = timeline.as_dict()
        reloaded = Timeline.from_dict(data)
        assert reloaded.as_dict() == data
        assert format_timeline(timeline) == format_timeline(reloaded)
        again = run_observed(c, ObsOptions(timeline=True)).timeline
        assert diff_timelines(data, again.as_dict())["equal"]

    def test_close_leaves_what_outlives_the_run(self):
        c = cfg()
        params = c.diffusion
        first = run_experiment(c)
        world = build_world(c)
        world.close()
        assert c.diffusion is params and c.diffusion == cfg().diffusion
        assert world.field.is_connected()
        assert run_experiment(c) == first

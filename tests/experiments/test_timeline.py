"""Runner/store/CLI integration of the probe timeline, plus the
determinism contract: attaching a timeline never perturbs the run, and
the same seed yields byte-identical timelines everywhere."""

import json
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.experiments.config import ExperimentConfig, FailureModel, smoke
from repro.experiments.runner import run_observed
from repro.experiments.store import RunStore
from repro.obs import ObsOptions

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def cfg(**overrides):
    scheme = overrides.pop("scheme", "greedy")
    return ExperimentConfig.from_profile(
        smoke(), scheme, 50, seed=4, duration=20.0, warmup=8.0, **overrides
    )


def save_figure_manifest(path, channel=None):
    """A real saved fig5 (smoke profile, no cells) written to ``path``."""
    from repro.experiments.figures import FigureResult
    from repro.experiments.persistence import build_figure_manifest, save_manifest

    result = FigureResult("fig5", "Greedy vs opportunistic", "nodes", ())
    return save_manifest(
        build_figure_manifest(result, smoke(), wall_time_s=0.0, channel=channel), path
    )


def timeline_dict(config, interval=None) -> dict:
    obs = ObsOptions(timeline=True, timeline_interval=interval)
    return run_observed(config, obs).timeline.as_dict()


class TestRunnerIntegration:
    def test_observed_run_carries_a_populated_timeline(self):
        observed = run_observed(cfg(), ObsOptions(timeline=True))
        tl = observed.timeline
        assert tl is not None
        # default cadence duration/10 plus the closing sample
        assert list(tl.times) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]
        names = tl.names()
        for expected in (
            "sim.pending_events",
            "nodes.alive",
            "data.delivered",
            "gradients.entries",
            "mac.collisions",
            "energy.total",
            "energy.data",
        ):
            assert expected in names
        # cumulative counters are nondecreasing
        for probe in ("sim.events_processed", "data.delivered", "energy.total"):
            _, vals = tl.series(probe)
            assert vals == sorted(vals)
        # the closing sample reflects the finished run
        _, delivered = tl.series("data.delivered")
        assert delivered[-1] > 0
        # the collision probe reads the channel's live count, which the
        # run publishes to the registry only after the last sample
        _, collisions = tl.series("mac.collisions")
        assert collisions[-1] == observed.metrics.counters.get("radio.collision", 0)
        assert collisions[-1] > 0

    def test_no_timeline_by_default(self):
        observed = run_observed(cfg(), ObsOptions(profile=True))
        assert observed.timeline is None

    def test_custom_interval_and_persistence(self, tmp_path):
        out = tmp_path / "tl.json"
        obs = ObsOptions(timeline_interval=5.0, timeline_path=out)
        observed = run_observed(cfg(), obs)  # timeline_path implies timeline
        assert list(observed.timeline.times) == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert observed.timeline_path == out
        saved = json.loads(out.read_text())
        assert saved == observed.timeline.as_dict()

    def test_manifest_carries_timeline_block(self, tmp_path):
        obs = ObsOptions(timeline=True, manifest_path=tmp_path / "m.json")
        observed = run_observed(cfg(), obs)
        manifest = json.loads(observed.manifest_path.read_text())
        block = manifest["timeline"]
        assert block["samples"] == observed.timeline.n_samples
        assert block["probes"] == observed.timeline.names()
        assert block["bytes"] == observed.timeline.nbytes()
        # the timeline is the run's only periodic sampler: no gauges block;
        # counters sit only under metrics, the histograms beside them
        assert "metrics_snapshot" not in manifest and "gauges" not in manifest
        assert manifest["metrics"]["counters"] == observed.metrics.counters
        assert sorted(manifest["histograms"]) == [
            "agg.merge_size",
            "mac.backoff_slots",
            "mac.queue_depth",
            "radio.frame_bytes",
        ]

    def test_first_death_scalar_matches_failure_schedule(self):
        config = cfg(failures=FailureModel(fraction=0.3, epoch=6.0))
        observed = run_observed(config, ObsOptions(timeline=True))
        m = observed.metrics
        # the failure driver flips its first batch at t=0 (no settling time)
        assert m.time_to_first_death == 0.0
        n_total = config.n_nodes
        _, dead = observed.timeline.series("nodes.dead")
        assert max(dead) > 0
        _, alive = observed.timeline.series("nodes.alive")
        assert all(a + d == n_total for a, d in zip(alive, dead))

    def test_no_failures_means_no_first_death(self):
        observed = run_observed(cfg(), ObsOptions(timeline=True))
        assert observed.metrics.time_to_first_death is None
        assert observed.timeline.derived()["time_to_first_death"] is None
        assert observed.timeline.derived()["min_alive"] == 50.0

    def test_half_delivery_scalar_present_without_timeline(self):
        m = run_observed(cfg()).metrics
        assert m.time_to_half_delivery is not None
        assert 0 < m.time_to_half_delivery <= 20.0


class TestDeterminism:
    def test_metrics_bit_identical_with_and_without_timeline(self):
        plain = run_observed(cfg()).metrics
        timed = run_observed(cfg(), ObsOptions(timeline=True)).metrics
        assert timed == plain

    def test_metrics_identical_with_and_without_audit_on_a_long_run(self):
        # The tracer keeps no records, so however many the audit sees
        # (here more than 262,144) the run reports the same counters.
        config = ExperimentConfig.from_profile(
            smoke(), "greedy", 350, seed=7919, duration=30.0, warmup=12.0
        )
        plain = run_observed(config).metrics
        audited = run_observed(config, ObsOptions(audit=True))
        assert audited.audit["records_seen"] > 262_144
        assert audited.metrics == plain

    def test_timeline_identical_with_audit_or_trace(self, tmp_path):
        # an observer schedules no simulator events, so it cannot move the run
        base = run_observed(cfg(), ObsOptions(timeline=True))
        for observer in ({"audit": True}, {"trace_path": tmp_path / "t.jsonl"}):
            observed = run_observed(cfg(), ObsOptions(timeline=True, **observer))
            assert observed.timeline.as_dict() == base.timeline.as_dict(), observer
            assert observed.events_processed == base.events_processed, observer

    def test_timeline_identical_serial_vs_subprocess(self):
        if "fork" not in mp.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        serial = timeline_dict(cfg())
        with ProcessPoolExecutor(
            max_workers=1, mp_context=mp.get_context("fork")
        ) as pool:
            parallel = pool.submit(timeline_dict, cfg()).result()
        assert parallel == serial

    def test_same_seed_same_timeline(self):
        assert timeline_dict(cfg()) == timeline_dict(cfg())


class TestStoreTimelines:
    def test_put_get_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        config = cfg()
        observed = run_observed(config, ObsOptions(timeline=True))
        store.put(config, observed.metrics)
        store.put_timeline(config, observed.timeline)
        back = store.get_timeline(config)
        assert back is not None
        for key in ("times", "probes", "interval", "duration"):
            assert back[key] == observed.timeline.as_dict()[key]

    def test_missing_timeline_is_a_miss(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get_timeline(cfg()) is None

    def test_rm_removes_the_sibling_timeline(self, tmp_path):
        from repro.experiments.store import run_key

        store = RunStore(tmp_path)
        config = cfg()
        observed = run_observed(config, ObsOptions(timeline=True))
        store.put(config, observed.metrics)
        store.put_timeline(config, observed.timeline)
        assert store.rm([run_key(config)]) == 1
        assert store.get_timeline(config) is None
        assert not any(store.timelines_dir.glob("*.json"))

    def test_gc_prunes_orphan_timelines(self, tmp_path):
        store = RunStore(tmp_path)
        config = cfg()
        observed = run_observed(config, ObsOptions(timeline=True))
        store.put(config, observed.metrics)
        store.put_timeline(config, observed.timeline)
        store.timelines_dir.joinpath("0" * 64 + ".json").write_text(
            json.dumps(observed.timeline.as_dict())
        )
        stats = store.gc()
        assert stats["timelines_kept"] == 1
        assert stats["timelines_removed"] == 1
        assert store.get_timeline(config) is not None


class TestCli:
    def test_run_timeline_prints_sparkline_summary(self, capsys):
        rc = main(
            ["run", "-n", "40", "--duration", "15", "--warmup", "6", "--timeline"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "timeline:" in out
        assert "nodes.alive" in out

    def test_timeline_verb_renders_saved_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "tl.json"
        assert main(
            [
                "run", "-n", "40", "--duration", "15", "--warmup", "6",
                "--timeline-out", str(out_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["timeline", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "source: timeline artifact" in out
        assert "energy.total" in out

    def test_timeline_verb_json_and_chrome_trace(self, tmp_path, capsys):
        tl_path = tmp_path / "tl.json"
        main(
            [
                "run", "-n", "40", "--duration", "15", "--warmup", "6",
                "--timeline-out", str(tl_path),
            ]
        )
        capsys.readouterr()
        trace_out = tmp_path / "chrome.json"
        assert main(
            ["timeline", str(tl_path), "--json", "--chrome-trace", str(trace_out)]
        ) == 0
        out = capsys.readouterr().out
        saved = json.loads(tl_path.read_text())
        assert json.loads(out) == saved
        # one counter track per probe, one event per sample, and no copy
        # of the timeline beside them: the export is for viewing only
        chrome = json.loads(trace_out.read_text())
        assert "otherData" not in chrome
        counters = [e for e in chrome["traceEvents"] if e.get("ph") == "C"]
        assert sorted({e["name"] for e in counters}) == sorted(
            p["name"] for p in saved["probes"]
        )
        assert len(counters) == len(saved["times"]) * len(saved["probes"])

    def test_timeline_verb_reads_store_entry(self, tmp_path, capsys):
        from repro.experiments.store import run_key

        store_dir = tmp_path / "runs"
        assert main(
            [
                "run", "-n", "40", "--duration", "15", "--warmup", "6",
                "--timeline", "--store", str(store_dir),
            ]
        ) == 0
        capsys.readouterr()
        from repro.experiments.config import fast

        config = ExperimentConfig.from_profile(
            fast(), "greedy", 40, seed=1, duration=15.0, warmup=6.0
        )
        entry = store_dir / "runs" / f"{run_key(config)}.json"
        assert entry.exists()
        assert main(["timeline", str(entry)]) == 0
        out = capsys.readouterr().out
        assert "source: store timeline" in out
        assert "data.delivered" in out

    @pytest.mark.parametrize("miss", ["corrupt", "other-version"])
    def test_timeline_verb_reruns_a_store_entry_whose_timeline_is_a_miss(
        self, tmp_path, capsys, monkeypatch, miss
    ):
        # the verb and RunStore.get_timeline (the daemon's timeline endpoint)
        # agree on what a stored timeline is: these siblings are misses
        import repro.cli
        from repro.experiments.store import STORE_VERSION, run_key

        store = RunStore(tmp_path / "store")
        config = cfg()
        observed = run_observed(config, ObsOptions(timeline=True))
        entry = store.put(config, observed.metrics)
        sibling = store.put_timeline(config, observed.timeline)
        if miss == "corrupt":
            sibling.write_text('{"timeline_version": 1, "times": [\x00')
        else:
            data = json.loads(sibling.read_text())
            sibling.write_text(json.dumps({**data, "store_version": STORE_VERSION - 1}))
        assert store.get_timeline(run_key(config)) is None
        rebuilt = []

        def rerun(config, interval):
            rebuilt.append(config)
            return observed.timeline

        monkeypatch.setattr(repro.cli, "_timeline_from_live_run", rerun)
        before = sorted(tmp_path.rglob("*"))
        assert main(["timeline", str(entry)]) == 0
        assert "source: live re-run (store entry)" in capsys.readouterr().out
        assert [run_key(c) for c in rebuilt] == [run_key(config)]
        assert sorted(tmp_path.rglob("*")) == before

    def test_timeline_verb_creates_no_store_directories(self, tmp_path, capsys, monkeypatch):
        import repro.cli

        config = cfg()
        observed = run_observed(config, ObsOptions(timeline=True))
        entry = RunStore(tmp_path / "store").put(config, observed.metrics)
        loose = tmp_path / "copies" / "entry.json"  # not under a store's runs/
        loose.parent.mkdir()
        loose.write_text(entry.read_text())
        monkeypatch.setattr(
            repro.cli, "_timeline_from_live_run", lambda config, interval: observed.timeline
        )
        before = sorted(tmp_path.rglob("*"))
        assert main(["timeline", str(loose)]) == 0
        assert "source: live re-run (store entry)" in capsys.readouterr().out
        assert sorted(tmp_path.rglob("*")) == before

    def test_timeline_verb_rejects_figure_without_cell(self, tmp_path, capsys):
        fig = save_figure_manifest(tmp_path / "fig.json")
        assert main(["timeline", str(fig)]) == 2
        assert "--cell" in capsys.readouterr().err

    def test_timeline_verb_rejects_a_cell_outside_the_figure(self, tmp_path, capsys):
        fig = save_figure_manifest(tmp_path / "fig.json")
        assert main(["timeline", str(fig), "--cell", "flooding@150"]) == 2
        assert "no 'flooding' cells" in capsys.readouterr().err

    @pytest.mark.parametrize("channel", [None, "pathloss"])
    def test_timeline_verb_rebuilds_a_cell_on_the_manifest_channel(
        self, tmp_path, capsys, monkeypatch, channel
    ):
        import repro.cli
        from repro.experiments.figures import figure_plan
        from repro.experiments.store import run_key
        from repro.experiments.sweeps import cell_seed
        from repro.net.channel import ChannelSpec
        from repro.obs import Timeline

        spec = None if channel is None else ChannelSpec(model=channel, n_bands=2)
        fig = save_figure_manifest(tmp_path / "fig.json", channel=spec)
        if spec is None:  # a manifest written before the channel key reads as disc
            data = json.loads(fig.read_text())
            del data["channel"]
            fig.write_text(json.dumps(data))
        rebuilt = []

        def capture(config, interval):
            rebuilt.append(config)
            return Timeline.from_dict({
                "timeline_version": 1, "interval": 1.0, "duration": 1.0,
                "times": [], "probes": [],
            })

        monkeypatch.setattr(repro.cli, "_timeline_from_live_run", capture)
        assert main(["timeline", str(fig), "--cell", "greedy@150", "--trial", "1"]) == 0
        assert "profile smoke" in capsys.readouterr().out
        [planned] = [
            config
            for label, x, config in figure_plan("fig5", smoke(), trials=2, channel=spec).plan
            if (label, x, config.seed) == ("greedy", 150, cell_seed(0, 150, 1))
        ]
        assert run_key(rebuilt[0]) == run_key(planned)
        assert rebuilt[0].channel.model == (channel or "disc")

    def test_timeline_verb_rejects_chrome_trace_without_counters(self, tmp_path, capsys):
        # what `client trace --chrome-trace` writes without --timeline-key:
        # span slices only.  A Chrome trace is for viewing, so no verb reads
        # it, with counters or without
        from repro.obs import write_chrome_trace

        trace = write_chrome_trace(tmp_path / "spans.json", spans=[{
            "trace_id": "a" * 16, "span_id": "b" * 16, "parent_id": None,
            "name": "http.request", "start_s": 1.0, "end_s": 2.0,
            "duration_s": 1.0, "status": "ok", "attributes": {},
        }])
        assert main(["timeline", str(trace)]) == 2
        captured = capsys.readouterr()
        assert f"{trace}: unrecognized artifact" in captured.err
        assert "samples" not in captured.out

    def test_timeline_verb_rejects_jsonl_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps({"type": "meta", "trace_version": 1}) + "\n"
            + json.dumps({"type": "record", "t": 1.0, "cat": "phy.tx", "fields": {}})
            + "\n"
        )
        assert main(["timeline", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "holds records, not a timeline" in err
        assert "--timeline-out" in err

    def test_timeline_verb_unknown_file(self, capsys):
        assert main(["timeline", "/nonexistent/tl.json"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_diff_detects_timeline_divergence(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path, n in ((a, "40"), (b, "45")):
            main(
                [
                    "run", "-n", n, "--duration", "15", "--warmup", "6",
                    "--timeline-out", str(path),
                ]
            )
        capsys.readouterr()
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1

"""Run provenance manifests and the ``repro stats`` command."""

import json

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig, run_observed
from repro.experiments.config import smoke
from repro.obs import ObsOptions
from repro.obs.manifest import (
    MANIFEST_VERSION,
    format_manifest,
    load_manifest,
    save_manifest,
)


def small_cfg(seed=2):
    profile = smoke()
    return ExperimentConfig(
        scheme="greedy",
        n_nodes=30,
        seed=seed,
        duration=profile.duration,
        warmup=profile.warmup,
        diffusion=profile.diffusion,
    )


class TestRunManifest:
    def test_run_observed_writes_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        observed = run_observed(small_cfg(), ObsOptions(manifest_path=path))
        assert observed.manifest_path == path
        data = load_manifest(path)
        assert data["manifest_version"] == MANIFEST_VERSION
        assert data["kind"] == "run"
        assert data["config"]["scheme"] == "greedy"
        assert data["config"]["n_nodes"] == 30
        assert data["seed"] == 2
        assert data["wall_time_s"] > 0
        # metrics in the manifest mirror the returned metrics object
        assert data["metrics"]["events_sent"] == observed.metrics.events_sent
        assert data["metrics"]["delivery_ratio"] == pytest.approx(
            observed.metrics.delivery_ratio
        )
        # simulator block is always present for runs
        assert data["simulator"]["events_processed"] > 0
        # each counter once, under metrics; the histograms beside them
        assert "metrics_snapshot" not in data
        assert data["metrics"]["counters"] == observed.metrics.counters
        assert [k for k, v in data.items() if isinstance(v, dict) and "counters" in v] == [
            "metrics"
        ]
        assert set(data["histograms"]) == {
            "radio.frame_bytes",
            "mac.backoff_slots",
            "mac.queue_depth",
            "agg.merge_size",
        }
        assert data["histograms"]["radio.frame_bytes"]["count"] > 0

    def test_manifest_embeds_profile_and_trace_pointers(self, tmp_path):
        manifest = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        obs = ObsOptions(profile=True, trace_path=trace, manifest_path=manifest)
        observed = run_observed(small_cfg(), obs)
        data = load_manifest(manifest)
        assert data["trace_path"] == str(trace)
        assert data["profile"]["events"] == observed.profile["events"]
        assert data["profile"]["layers"], "layer table missing"
        assert "callbacks" not in data["profile"]

    def test_load_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        save_manifest({"manifest_version": 999, "kind": "run"}, path)
        with pytest.raises(ValueError, match="manifest version"):
            load_manifest(path)

    def test_manifest_is_plain_json(self, tmp_path):
        path = tmp_path / "m.json"
        run_observed(small_cfg(), ObsOptions(manifest_path=path))
        # full decode/encode round trip without custom hooks
        data = json.loads(path.read_text())
        json.dumps(data)

    def test_format_manifest_mentions_headlines(self, tmp_path):
        path = tmp_path / "m.json"
        run_observed(small_cfg(), ObsOptions(manifest_path=path))
        text = format_manifest(load_manifest(path))
        assert "run manifest" in text
        assert "greedy" in text
        assert "delivery ratio" in text
        assert "top counters" in text


class TestCli:
    def test_run_with_observability_flags(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        rc = main(
            [
                "run",
                "-n",
                "30",
                "--duration",
                "20",
                "--warmup",
                "8",
                "--profile",
                "--trace-out",
                str(trace),
                "--trace-categories",
                "phy.tx",
                "phy.rx",
                "--manifest",
                str(manifest),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "events/sec" in out
        assert manifest.exists() and trace.exists()

    def test_stats_on_manifest_and_trace(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        trace = tmp_path / "t.jsonl"
        obs = ObsOptions(
            trace_path=trace, trace_categories=("phy.tx",), manifest_path=manifest
        )
        run_observed(small_cfg(), obs)
        capsys.readouterr()

        assert main(["stats", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out

        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phy.tx" in out

    @pytest.mark.parametrize(
        "artifact, kind, reader",
        [
            ({"timeline_version": 1, "kind": "timeline", "times": [], "probes": []},
             "timeline", "repro timeline"),
            ({"store_version": 1, "key": "0" * 64, "metrics": {}},
             "store entry", "repro audit"),
        ],
        ids=["timeline", "store-entry"],
    )
    def test_stats_names_the_reader_of_other_artifacts(
        self, tmp_path, capsys, artifact, kind, reader
    ):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        assert main(["stats", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"is a {kind}" in captured.err
        assert reader in captured.err
        assert captured.out == ""

    def test_stats_on_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "nope.json")])
        assert rc != 0
        assert capsys.readouterr().err

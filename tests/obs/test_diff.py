"""Tests for artifact loading, classification, and structured diffs."""

import json

import pytest

from repro.obs.diff import (
    diff_artifacts,
    diff_figure_cells,
    diff_run_metrics,
    format_diff,
    load_artifact,
)


def run_metrics(**overrides):
    base = {
        "scheme": "greedy",
        "n_nodes": 60,
        "seed": 4,
        "avg_dissipated_energy": 0.0001,
        "avg_delay": 0.2,
        "delivery_ratio": 0.99,
        "total_energy_j": 3.0,
        "distinct_delivered": 100,
        "events_sent": 101,
        "mean_degree": 7.5,
        "counters": {"radio.tx": 50, "radio.rx": 70},
        "energy_by_class": {"data": 2.0, "interest": 1.0},
    }
    base.update(overrides)
    return base


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


class TestLoadArtifact:
    def test_run_manifest(self, tmp_path):
        p = write_json(tmp_path / "m.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": run_metrics()})
        kind, data = load_artifact(p)
        assert kind == "run"
        assert data["metrics"]["scheme"] == "greedy"

    def test_store_entry(self, tmp_path):
        p = write_json(tmp_path / "e.json", {"store_version": 2, "key": "ab",
                                             "metrics": run_metrics()})
        assert load_artifact(p)[0] == "store-entry"

    def test_figure_result(self, tmp_path):
        # a saved figure is its manifest; the old separate result file is no artifact
        p = write_json(tmp_path / "f.json", {"manifest_version": 1, "kind": "figure",
                                             "cells": []})
        assert load_artifact(p)[0] == "figure"
        old = write_json(tmp_path / "old.json", {"format_version": 1, "cells": []})
        with pytest.raises(ValueError, match="unrecognized artifact"):
            load_artifact(old)

    def test_chrome_trace(self, tmp_path):
        # a Chrome trace is for viewing only: no verb reads it back
        p = write_json(tmp_path / "t.json", {"traceEvents": [], "displayTimeUnit": "ms"})
        with pytest.raises(ValueError, match="unrecognized artifact"):
            load_artifact(p)
        with pytest.raises(ValueError, match="unrecognized artifact"):
            diff_artifacts(p, p)

    def test_jsonl_trace_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"type": "meta", "trace_version": 1}\n{"type": "record"}\n')
        assert load_artifact(p) == ("trace", {"type": "meta", "trace_version": 1})
        with pytest.raises(ValueError, match="cannot diff trace against trace"):
            diff_artifacts(p, p)

    def test_trace_classified_from_its_first_line_only(self, tmp_path):
        # the meta header decides; the torn line after it is never read
        p = tmp_path / "t.jsonl"
        p.write_text('{"type": "meta", "trace_version": 1}\nnot json at all\n')
        assert load_artifact(p)[0] == "trace"

    def test_jsonl_without_meta_header_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"type": "record"}\n{"type": "record"}\n')
        with pytest.raises(ValueError, match="unrecognized"):
            load_artifact(p)

    def test_unknown_shape_rejected(self, tmp_path):
        p = write_json(tmp_path / "x.json", {"hello": 1})
        with pytest.raises(ValueError, match="unrecognized"):
            load_artifact(p)


class TestDiffRunMetrics:
    def test_identical(self):
        d = diff_run_metrics(run_metrics(), run_metrics())
        assert d["equal"] is True

    def test_metric_and_identity_changes(self):
        d = diff_run_metrics(run_metrics(), run_metrics(seed=5, total_energy_j=4.0))
        assert d["equal"] is False
        assert "seed" in d["identity"]
        assert d["metrics"]["total_energy_j"]["delta"] == pytest.approx(1.0)
        assert d["metrics"]["total_energy_j"]["rel"] == pytest.approx(1 / 3)

    def test_energy_class_changes(self):
        d = diff_run_metrics(
            run_metrics(),
            run_metrics(energy_by_class={"data": 2.5, "ack": 0.1}),
        )
        assert set(d["energy_by_class"]) == {"data", "interest", "ack"}
        assert d["energy_by_class"]["interest"]["b"] == 0.0

    def test_counter_added_removed_changed(self):
        d = diff_run_metrics(
            run_metrics(counters={"radio.tx": 50, "old": 1}),
            run_metrics(counters={"radio.tx": 60, "new": 2}),
        )
        assert d["counters"]["added"] == {"new": 2}
        assert d["counters"]["removed"] == {"old": 1}
        assert d["counters"]["changed"]["radio.tx"]["delta"] == 10


class TestDiffFigureCells:
    def cells(self):
        return [
            {"scheme": "greedy", "x": 50.0, "energy": 1.0, "energy_stdev": 0.1,
             "delay": 0.2, "ratio": 0.9, "n_runs": 2, "distinct_delivered": 10},
            {"scheme": "opportunistic", "x": 50.0, "energy": 2.0, "energy_stdev": 0.1,
             "delay": 0.3, "ratio": 0.8, "n_runs": 2, "distinct_delivered": 9},
        ]

    def test_identical(self):
        assert diff_figure_cells(self.cells(), self.cells())["equal"] is True

    def test_changed_cell_and_missing_cell(self):
        a = self.cells()
        b = [dict(a[0], energy=1.5)]
        d = diff_figure_cells(a, b)
        assert d["equal"] is False
        assert d["only_a"] == ["opportunistic@50"]
        assert d["cells"]["greedy@50"]["energy"]["delta"] == pytest.approx(0.5)


class TestDiffArtifacts:
    def test_manifest_vs_store_entry(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": run_metrics()})
        b = write_json(tmp_path / "b.json", {"store_version": 2,
                                             "metrics": run_metrics(seed=5)})
        d = diff_artifacts(a, b)
        assert d["kind"] == "run"
        assert d["a"]["kind"] == "run"
        assert d["b"]["kind"] == "store-entry"
        assert "seed" in d["identity"]

    def test_mixed_families_rejected(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": run_metrics()})
        b = write_json(tmp_path / "b.json", {"manifest_version": 1, "kind": "figure",
                                             "cells": []})
        with pytest.raises(ValueError, match="per-run"):
            diff_artifacts(a, b)

    def test_json_round_trip(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": run_metrics()})
        d = diff_artifacts(a, a)
        json.loads(json.dumps(d))  # machine mode must serialize cleanly
        assert d["equal"] is True


class TestFormatDiff:
    def make_diff(self, tmp_path, metrics_b):
        a = write_json(tmp_path / "a.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": run_metrics()})
        b = write_json(tmp_path / "b.json", {"manifest_version": 1, "kind": "run",
                                             "metrics": metrics_b})
        return diff_artifacts(a, b)

    def test_identical_message(self, tmp_path):
        text = format_diff(self.make_diff(tmp_path, run_metrics()))
        assert "identical" in text

    def test_changes_rendered(self, tmp_path):
        text = format_diff(self.make_diff(
            tmp_path, run_metrics(total_energy_j=4.0, seed=9)))
        assert "total_energy_j" in text
        assert "different experiments" in text
        assert "+33.33%" in text

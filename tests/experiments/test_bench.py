"""`repro bench` harness: deterministic workload, payload schema, artifact."""

import json

import pytest

from repro.cli import main
from repro.experiments.bench import (
    BENCH_VERSION,
    bench_configs,
    format_bench,
    run_bench,
    save_bench,
)


class TestBenchConfigs:
    def test_deterministic_and_paired(self):
        a = bench_configs(profile="quick")
        b = bench_configs(profile="quick")
        assert a == b
        # paired: consecutive scheme pair shares its seed
        assert a[0].seed == a[1].seed
        assert {a[0].scheme, a[1].scheme} == {"opportunistic", "greedy"}

    def test_canonical_shape(self):
        configs = bench_configs()
        # 3 densities x 2 trials x 2 schemes
        assert len(configs) == 12
        assert {c.n_nodes for c in configs} == {50, 150, 250}

    def test_quick_is_smaller(self):
        assert len(bench_configs(profile="quick")) < len(bench_configs())


class TestRunBench:
    def test_quick_payload_schema_and_artifact(self, tmp_path):
        payload = run_bench(profile="quick")
        for key in (
            "bench_version",
            "wall_time_s",
            "runs_per_sec",
            "events_processed",
            "events_per_sec",
            "cancelled_skipped",
            "cancelled_churn",
            "field_cache",
            "per_run",
            "environment",
        ):
            assert key in payload, key
        assert payload["bench_version"] == BENCH_VERSION
        assert payload["profile"] == "quick"
        assert "quick" not in payload
        assert payload["n_runs"] == len(payload["per_run"]) == 4
        assert payload["wall_time_s"] > 0
        assert payload["events_processed"] > 0
        # paired schemes: the second run of each cell hits the field cache
        cache = payload["field_cache"]
        assert cache["hits"] == 2
        assert cache["misses"] == 2
        assert cache["hit_rate"] == 0.5

        out = save_bench(payload, tmp_path / "BENCH_sweep.json")
        reloaded = json.loads(out.read_text())
        assert reloaded["kind"] == "bench-trajectory"
        assert reloaded["entries"] == [payload]

        # a second save appends rather than overwrites
        save_bench(payload, out)
        assert json.loads(out.read_text())["entries"] == [payload, payload]

        text = format_bench(payload)
        assert "field cache" in text
        assert "wall time" in text

    def test_parallel_pass_is_identical(self):
        payload = run_bench(profile="quick", workers=2)
        assert payload["parallel"]["identical"] is True
        assert payload["parallel"]["workers"] == 2


def _payload(i: int) -> dict:
    return {"kind": "bench", "profile": "quick", "runs_per_sec": float(i)}


class TestSaveBenchKeepsHistory:
    """A trajectory file that does not parse as one must never be
    replaced by a one-entry trajectory: that silently drops every
    committed bench result."""

    def _trajectory(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        save_bench(_payload(1), path)
        save_bench(_payload(2), path)
        assert len(json.loads(path.read_text())["entries"]) == 2
        return path

    def test_merge_conflict_marker_raises_and_leaves_file(self, tmp_path):
        path = self._trajectory(tmp_path)
        path.write_text("<<<<<<< HEAD\n" + path.read_text())
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not valid JSON"):
            save_bench(_payload(3), path)
        assert path.read_bytes() == before

    def test_json_list_raises_and_leaves_file(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(json.dumps([_payload(1), _payload(2)]))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a bench-trajectory"):
            save_bench(_payload(3), path)
        assert path.read_bytes() == before

    def test_single_payload_file_is_not_converted(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(json.dumps(_payload(1)))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a bench-trajectory"):
            save_bench(_payload(2), path)
        assert path.read_bytes() == before

    def test_cli_exits_1_naming_the_path(self, tmp_path, monkeypatch, capsys):
        import repro.experiments.bench as bench

        path = self._trajectory(tmp_path)
        path.write_text("<<<<<<< HEAD\n" + path.read_text())
        before = path.read_bytes()
        monkeypatch.setattr(bench, "run_bench", lambda **kw: _payload(3))
        assert main(["bench", "--profile", "quick", "--out", str(path)]) == 1
        assert str(path) in capsys.readouterr().err
        assert path.read_bytes() == before

"""End-to-end daemon behavior: correctness, coalescing, failure isolation.

These tests run a real daemon on an ephemeral port and talk to it with
the bundled blocking client.  Everything uses the smoke profile over
tiny fields so the whole file stays test-suite-friendly.
"""

import dataclasses
import json
import time

import pytest

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.figures import figure_plan, run_figure_plan
from repro.experiments.metrics import RunMetrics
from repro.experiments.persistence import figure_payload
from repro.experiments.store import RunStore, run_key
from repro.service.client import ServiceError

from ..helpers import count_store_work
from .helpers import with_daemon

FIG_SPEC = {
    "kind": "figure",
    "figure": "fig5",
    "profile": "smoke",
    "xs": [50],
    "trials": 1,
}


def _failing_config_dict():
    """Valid at construction, impossible to place at runtime."""
    cfg = ExperimentConfig.from_profile(
        smoke(), "greedy", 2, seed=1, n_sources=5, n_sinks=5
    )
    return dataclasses.asdict(cfg)


def _store_fig_spec_runs(root) -> list:
    """Store made-up metrics for FIG_SPEC's runs; returns its configs."""
    configs = list(figure_plan("fig5", smoke(), trials=1, xs=[50]).configs())
    store = RunStore(root)
    for i, cfg in enumerate(configs):
        store.put(
            cfg,
            RunMetrics(
                scheme=cfg.scheme,
                n_nodes=cfg.n_nodes,
                seed=cfg.seed,
                avg_dissipated_energy=1e-4 * (i + 1),
                avg_delay=0.1,
                delivery_ratio=0.9,
                total_energy_j=0.5,
                distinct_delivered=7,
                events_sent=8,
                mean_degree=4.2,
                counters={"radio.tx": 100 + i},
            ),
        )
    return configs


class TestFigureBitIdentity:
    def test_cold_then_warm_match_direct_run(self, tmp_path):
        """The figure served on a cold miss AND a warm hit equals the
        figure computed directly by the in-process harness."""
        fplan = figure_plan("fig5", smoke(), trials=1, xs=[50])
        direct = figure_payload(run_figure_plan(fplan))

        def scenario(client, daemon):
            cold = client.submit(FIG_SPEC)
            job_id = cold["job"]["id"]
            assert cold["job"]["status"] == "queued"
            status = client.wait(job_id, timeout=180)
            assert status["status"] == "done"
            assert status["runs"]["executed"] == len(fplan.plan)
            cold_result = client.result(job_id)

            warm = client.submit(FIG_SPEC)
            assert warm["job"]["status"] == "done"
            assert warm["job"]["from_cache"] is True
            assert warm["job"]["runs"]["hits"] == len(fplan.plan)
            warm_result = client.result(warm["job"]["id"])
            return cold_result, warm_result

        cold_result, warm_result = with_daemon(tmp_path / "store", scenario)
        assert cold_result["figure"] == direct
        assert warm_result["figure"] == direct
        assert [r["key"] for r in cold_result["runs"]] == [
            r["key"] for r in warm_result["runs"]
        ]
        assert all("metrics" in r for r in cold_result["runs"])


class TestCoalescing:
    def test_duplicate_concurrent_submissions_execute_once(self, tmp_path):
        def scenario(client, daemon):
            first = client.submit(FIG_SPEC)
            second = client.submit(FIG_SPEC)  # while the first is in flight
            assert second["coalesced"] is True
            assert second["job"]["id"] == first["job"]["id"]
            client.wait(first["job"]["id"], timeout=180)
            registry = daemon.registry
            return {
                "executed": registry.value("service.runs_executed"),
                "persisted": registry.value("store.persist"),
                "jobs_coalesced": registry.value("service.jobs_coalesced"),
            }

        counters = with_daemon(tmp_path / "store", scenario)
        n_runs = len(figure_plan("fig5", smoke(), trials=1, xs=[50]).plan)
        assert counters["executed"] == n_runs  # exactly one execution per run
        assert counters["persisted"] == n_runs
        assert counters["jobs_coalesced"] == 1

    def test_overlapping_jobs_share_runs(self, tmp_path):
        """Distinct requests overlapping on content keys never re-execute."""
        superset = {**FIG_SPEC, "xs": [50, 100]}
        n_unique = len(figure_plan("fig5", smoke(), trials=1, xs=[50, 100]).plan)

        def scenario(client, daemon):
            a = client.submit(superset)
            b = client.submit(FIG_SPEC)  # subset of a's runs
            assert b["coalesced"] is False  # different request, shared runs
            client.wait(a["job"]["id"], timeout=300)
            status_b = client.wait(b["job"]["id"], timeout=300)
            assert status_b["status"] == "done"
            return daemon.registry.value("service.runs_executed")

        executed = with_daemon(tmp_path / "store", scenario)
        assert executed == n_unique


class TestStoreAccounting:
    def test_cold_run_counts_one_store_miss(self, tmp_path):
        """Regression: a cold run used to count two store misses (one at
        submission, one at dispatch), so cold-then-warm read a hit ratio
        of 1/3 instead of 1/2."""
        n_runs = len(figure_plan("fig5", smoke(), trials=1, xs=[50]).plan)

        def scenario(client, daemon):
            cold = client.submit(FIG_SPEC)
            assert client.wait(cold["job"]["id"], timeout=180)["status"] == "done"
            warm = client.submit(FIG_SPEC)
            assert warm["job"]["from_cache"] is True
            return daemon.registry.value("store.miss"), client.metrics()["derived"]

        misses, derived = with_daemon(tmp_path / "store", scenario)
        assert misses == n_runs
        assert derived["store_lookups"] == 2 * n_runs
        assert derived["hit_ratio"] == 0.5


class TestRunListing:
    def test_listing_follows_store_changes_between_sessions(self, tmp_path):
        """Regression: the daemon used to list runs from its own sqlite
        index, so after a restart it still listed a run that another
        process deleted and missed one that another process stored."""
        root = tmp_path / "store"
        cfg_a, cfg_b = (
            ExperimentConfig.from_profile(
                smoke(), "greedy", 50, seed=seed, duration=8.0, warmup=3.0
            )
            for seed in (1, 2)
        )

        def store_a(client, daemon):
            job = client.submit({"kind": "run", "config": dataclasses.asdict(cfg_a)})
            assert client.wait(job["job"]["id"], timeout=180)["status"] == "done"

        with_daemon(root, store_a, run_workers=1)
        store = RunStore(root)
        store.put(
            cfg_b,
            RunMetrics(
                scheme=cfg_b.scheme,
                n_nodes=cfg_b.n_nodes,
                seed=cfg_b.seed,
                avg_dissipated_energy=1e-4,
                avg_delay=0.1,
                delivery_ratio=0.9,
                total_energy_j=0.5,
                distinct_delivered=7,
                events_sent=8,
                mean_degree=4.2,
            ),
        )
        store.put_timeline(cfg_b, {"t": [0.0], "series": {}})
        assert store.rm([run_key(cfg_a)]) == 1

        def listing(client, daemon):
            # the entry and timeline routes read the same files the listing scans
            assert client.run(run_key(cfg_b))["key"] == run_key(cfg_b)
            assert client.run_timeline(run_key(cfg_b))["key"] == run_key(cfg_b)
            with pytest.raises(ServiceError) as excinfo:
                client.run(run_key(cfg_a))
            assert excinfo.value.code == 404
            return client.runs(), client.metrics()["backend"]

        runs, backend = with_daemon(root, listing, run_workers=1)
        assert [row["key"] for row in runs] == [run_key(cfg_b)]
        assert backend["entries"] == 1

    def test_listing_skips_an_entry_that_is_not_utf8(self, tmp_path):
        """Regression: one runs/ file that is not UTF-8 text made the
        listing answer HTTP 500."""
        root = tmp_path / "store"
        configs = _store_fig_spec_runs(root)
        (RunStore(root).runs_dir / "abc.json").write_bytes(b"\xff\xfe{}")
        runs = with_daemon(root, lambda client, daemon: client.runs(), run_workers=1)
        assert sorted(row["key"] for row in runs) == sorted(run_key(c) for c in configs)


class TestHashOnceParseOnce:
    """A stored run costs one ``run_key`` per request and one parse per
    store handle, and warm jobs share the handle's parsed runs."""

    def test_cold_request_hashes_each_run_once(self, tmp_path, monkeypatch):
        n_runs = len(figure_plan("fig5", smoke(), trials=1, xs=[50]).plan)
        counts = count_store_work(monkeypatch)

        def scenario(client, daemon):
            job = client.submit(FIG_SPEC)["job"]
            status = client.wait(job["id"], timeout=180)
            assert (status["status"], status["runs"]["executed"]) == ("done", n_runs)
            return counts.copy()

        cold = with_daemon(tmp_path / "store", scenario)
        assert cold["run_key"] == n_runs  # parse only: probe, re-probe and put reuse it

    def test_warm_request_hashes_once_and_a_repeat_reads_nothing(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        n_runs = len(_store_fig_spec_runs(root))
        counts = count_store_work(monkeypatch)

        def scenario(client, daemon):
            spent = []
            for _ in range(2):
                before = counts.copy()
                job = client.submit(FIG_SPEC)["job"]
                assert job["from_cache"] is True
                spent.append(counts - before)
            return spent

        first, repeat = with_daemon(root, scenario)
        assert (first["run_key"], first["read"]) == (n_runs, n_runs)
        assert (repeat["run_key"], repeat["read"]) == (n_runs, 0)

    def test_warm_jobs_share_runs_and_serve_what_a_fresh_read_serves(self, tmp_path):
        root = tmp_path / "store"
        configs = _store_fig_spec_runs(root)

        def scenario(client, daemon):
            ids = [client.submit(FIG_SPEC)["job"]["id"] for _ in range(2)]
            return [daemon.scheduler.get(job_id) for job_id in ids]

        first, second = with_daemon(root, scenario)
        assert all(a is b for a, b in zip(first.results, second.results))
        # what a handle that parses every entry afresh serves
        fresh = RunStore(root)
        reread = [fresh.get(cfg) for cfg in configs]
        for job in (first, second):
            twin = dataclasses.replace(job, results=reread)
            assert json.dumps(job.result_payload(), sort_keys=True) == json.dumps(
                twin.result_payload(), sort_keys=True
            )


class TestFailureIsolation:
    def test_failing_run_fails_job_but_daemon_serves(self, tmp_path):
        def scenario(client, daemon):
            bad = client.submit({"kind": "run", "config": _failing_config_dict()})
            status = client.wait(bad["job"]["id"], timeout=120)
            assert status["status"] == "failed"
            assert "1 of 1 runs failed" in status["error"]
            with pytest.raises(ServiceError) as excinfo:
                client.result(bad["job"]["id"])
            assert excinfo.value.code == 409
            # the daemon is unharmed: a good job still completes
            good = client.submit(FIG_SPEC)
            assert client.wait(good["job"]["id"], timeout=180)["status"] == "done"
            return daemon.registry.value("service.runs_failed")

        assert with_daemon(tmp_path / "store", scenario) == 1

    def test_bad_spec_is_400_and_daemon_serves(self, tmp_path):
        def scenario(client, daemon):
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "figure", "figure": "fig99"})
            assert excinfo.value.code == 400
            assert client.health()["ok"] is True
            return True

        assert with_daemon(tmp_path / "store", scenario)

    def test_list_valued_figure_is_400_not_500(self, tmp_path):
        def scenario(client, daemon):
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"kind": "figure", "figure": ["fig5"]})
            assert excinfo.value.code == 400
            assert client.health()["ok"] is True
            return True

        assert with_daemon(tmp_path / "store", scenario, run_workers=1)

    def test_crashed_worker_fails_job_pool_recovers(self, tmp_path):
        """SIGKILLing the pool workers mid-run fails that job with a
        worker-death error; the rebuilt pool serves the next job."""
        slow = ExperimentConfig.from_profile(
            smoke(), "greedy", 150, seed=1, duration=120.0, warmup=10.0
        )

        def scenario(client, daemon):
            job = client.submit({"kind": "run", "config": dataclasses.asdict(slow)})
            job_id = job["job"]["id"]
            deadline = time.monotonic() + 60
            pool = None
            while time.monotonic() < deadline:
                pool = daemon.scheduler.executor._pool
                if (
                    client.job(job_id)["status"] == "running"
                    and pool is not None
                    and pool._processes
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("job never started running")
            time.sleep(0.2)  # let the run actually enter the worker
            for proc in list(pool._processes.values()):
                proc.kill()
            status = client.wait(job_id, timeout=120)
            assert status["status"] == "failed"
            assert "worker process died" in status["error"]
            # pool was rebuilt: the daemon still executes fresh work
            good = client.submit(FIG_SPEC)
            assert client.wait(good["job"]["id"], timeout=180)["status"] == "done"
            return daemon.registry.value("service.pool_rebuilds")

        assert with_daemon(tmp_path / "store", scenario, run_workers=1) >= 1


class TestRouteLabels:
    def test_unserved_methods_cannot_mint_request_series(self, tmp_path):
        """A method no route serves is labelled ``unknown``, so clients cannot
        push ``service.requests`` past the registry's per-name series cap."""

        def scenario(client, daemon):
            for i in range(1030):
                with pytest.raises(ServiceError) as excinfo:
                    client._request(f"M{i}", "/api/v1/jobs")
                assert excinfo.value.code == 405
            assert client.health()["ok"] is True
            return daemon.registry

        # read after the daemon stopped: every handler has counted by then
        registry = with_daemon(tmp_path / "store", scenario)
        assert len(registry.series("service.requests")) == 2
        assert registry.value("service.requests", route="unknown", code="405") == 1030
        assert registry.value("service.requests", route="/healthz", code="200") == 1


class TestApiSurface:
    def test_metrics_jobs_runs_and_sse(self, tmp_path):
        def scenario(client, daemon):
            submitted = client.submit(FIG_SPEC)
            job_id = submitted["job"]["id"]
            snapshots = list(client.stream(job_id))
            assert snapshots[-1]["status"] == "done"
            assert snapshots[-1]["progress"]["done"] == snapshots[-1]["progress"]["total"]

            jobs = client.jobs()
            assert [j["id"] for j in jobs] == [job_id]

            runs = client.runs()
            result = client.result(job_id)
            assert {r["key"] for r in runs} == {r["key"] for r in result["runs"]}
            key = runs[0]["key"]
            entry = client.run(key)
            assert entry["key"] == key and "metrics" in entry

            metrics = client.metrics()
            derived = metrics["derived"]
            assert 0.0 <= (derived["hit_ratio"] or 0.0) <= 1.0
            assert derived["store_lookups"] > 0
            counters = metrics["registry"]["counters"]
            assert any(k.startswith("service.requests{") for k in counters)
            histograms = metrics["registry"]["histograms"]
            latency = [
                v
                for k, v in histograms.items()
                if k.startswith("service.request_latency_s{")
            ]
            assert latency and all(h["count"] >= 1 for h in latency)

            with pytest.raises(ServiceError) as excinfo:
                client.job("job-999999")
            assert excinfo.value.code == 404
            with pytest.raises(ServiceError) as excinfo:
                client.run("0" * 64)
            assert excinfo.value.code == 404
            return True

        assert with_daemon(tmp_path / "store", scenario)

    def test_priority_orders_queue(self, tmp_path):
        """With one job worker, a later low-priority-number submission
        drains before earlier default-priority ones."""

        def scenario(client, daemon):
            background = [
                client.submit({**FIG_SPEC, "xs": [50 + 50 * i]})["job"]["id"]
                for i in range(3)
            ]
            urgent = client.submit({**FIG_SPEC, "xs": [300], "priority": 1})["job"]["id"]
            done_order = []
            seen = set()
            deadline = time.monotonic() + 600
            while len(seen) < 4 and time.monotonic() < deadline:
                for job_id in background + [urgent]:
                    if job_id not in seen:
                        status = client.job(job_id)
                        if status["status"] == "done":
                            seen.add(job_id)
                            done_order.append(job_id)
                time.sleep(0.05)
            assert len(seen) == 4, "jobs did not finish in time"
            # the first background job was already running when the
            # urgent one arrived; the urgent job must beat the rest
            assert done_order.index(urgent) <= 1
            return True

        assert with_daemon(tmp_path / "store", scenario, run_workers=2, job_workers=1)

"""End-to-end request tracing through the live daemon.

The acceptance contract: one submitted figure job yields a complete
parent-linked span tree via ``GET /api/v1/jobs/{id}/trace`` — queue
wait, a dedup verdict per run key, worker execution carrying run
content keys, store writes — exportable to a Chrome/Perfetto trace,
with store-hit and cold-miss requests distinguishable from spans alone,
and RunMetrics bit-identical with tracing on or off.
"""

import json
import time

import pytest

from repro.obs.export import write_chrome_trace
from repro.obs.spans import SpanStore, span_tree
from repro.obs.timeline import TIMELINE_VERSION, Timeline
from repro.service.client import ServiceError

from .helpers import with_daemon

FIG_SPEC = {
    "kind": "figure",
    "figure": "fig5",
    "profile": "smoke",
    "xs": [50],
    "trials": 1,
}


def _by_name(spans, name):
    return [s for s in spans if s["name"] == name]


def _children(tree_node):
    return {c["name"] for c in tree_node["children"]}


class TestTraceEndToEnd:
    def test_cold_and_warm_span_trees(self, tmp_path):
        def scenario(client, daemon):
            cold = client.submit(FIG_SPEC)
            cold_id = cold["job"]["id"]
            assert cold["job"]["trace_id"]  # correlation id in the status payload
            client.wait(cold_id, timeout=180)
            warm = client.submit(FIG_SPEC)
            assert warm["job"]["from_cache"] is True
            return {
                "cold": client.trace(cold_id),
                "warm": client.trace(warm["job"]["id"]),
                "recent": client.recent_spans(limit=500, name="dedup"),
                "metrics": client.metrics(),
                "run_keys": [r["key"] for r in client.result(cold_id)["runs"]],
            }

        out = with_daemon(tmp_path / "store", scenario)
        run_keys = out["run_keys"]

        # --- cold job: complete parent-linked tree -------------------
        cold = out["cold"]
        assert cold["tracing_enabled"] is True
        names = [s["name"] for s in cold["spans"]]
        for expected in ("http.request", "http.parse", "job", "store.probe",
                         "queue.wait", "run", "dedup", "worker.execute",
                         "worker.run", "store.put", "response.write"):
            assert expected in names, f"missing {expected} in {names}"

        (root,) = cold["tree"]  # single root: the submitting http request
        assert root["name"] == "http.request"
        assert root["trace_id"] == cold["trace_id"]
        assert {"http.parse", "job", "response.write"} <= _children(root)
        job_node = next(c for c in root["children"] if c["name"] == "job")
        assert {"store.probe", "queue.wait", "run"} <= _children(job_node)

        # every run key appears on a run span AND its worker.execute span
        runs = _by_name(cold["spans"], "run")
        assert sorted(s["attributes"]["run.key"] for s in runs) == sorted(run_keys)
        executes = _by_name(cold["spans"], "worker.execute")
        assert sorted(s["attributes"]["run.key"] for s in executes) == sorted(run_keys)
        # in-worker spans crossed the process boundary with a pid
        workers = _by_name(cold["spans"], "worker.run")
        assert len(workers) == len(run_keys)
        assert all(s["attributes"]["worker.pid"] > 0 for s in workers)
        assert {s["parent_id"] for s in workers} == {s["span_id"] for s in executes}
        # one store write per executed run
        puts = _by_name(cold["spans"], "store.put")
        assert sorted(s["attributes"]["run.key"] for s in puts) == sorted(run_keys)
        # cold miss: one "miss" dedup verdict per run key
        cold_verdicts = {
            s["attributes"]["run.key"]: s["attributes"]["verdict"]
            for s in _by_name(cold["spans"], "dedup")
        }
        assert cold_verdicts == {k: "miss" for k in run_keys}
        # queue wait ended before the first worker execution started
        (queue_span,) = _by_name(cold["spans"], "queue.wait")
        assert queue_span["end_s"] <= min(s["start_s"] for s in executes) + 1e-6

        # --- warm job: store hits, no execution ----------------------
        warm = out["warm"]
        assert warm["trace_id"] != cold["trace_id"]
        warm_names = [s["name"] for s in warm["spans"]]
        assert "worker.execute" not in warm_names
        assert "queue.wait" not in warm_names  # never queued
        warm_verdicts = {
            s["attributes"]["run.key"]: s["attributes"]["verdict"]
            for s in _by_name(warm["spans"], "dedup")
        }
        assert warm_verdicts == {k: "store-hit" for k in run_keys}
        job_span = next(s for s in warm["spans"] if s["name"] == "job")
        assert job_span["attributes"]["from_cache"] is True

        # --- /api/v1/trace: filterable recent spans ------------------
        recent = out["recent"]
        assert all(s["name"] == "dedup" for s in recent["spans"])
        assert recent["stats"]["retained"] > 0
        assert recent["stats"]["dropped"] == 0

        # --- /metrics: percentile summaries + span stats -------------
        metrics = out["metrics"]
        submit_latency = metrics["latency"]["POST /api/v1/jobs"]
        assert submit_latency["count"] >= 2
        for q in ("p50", "p95", "p99"):
            assert submit_latency[q] is not None
            assert submit_latency[q] >= 0.0
        assert metrics["spans"]["retained"] > 0

    def test_trace_routes_errors(self, tmp_path):
        def scenario(client, daemon):
            with pytest.raises(ServiceError) as e404:
                client.trace("job-999999")
            assert e404.value.code == 404
            with pytest.raises(ServiceError) as e400:
                client._request("GET", "/api/v1/trace?limit=zero")
            assert e400.value.code == 400
            assert e400.value.correlation_id
            return True

        assert with_daemon(tmp_path / "store", scenario)


class TestUnhandledErrorsAreJson500s:
    def test_handler_crash_yields_json_500_with_correlation_id(self, tmp_path):
        """Regression: an unhandled handler exception must come back as a
        JSON 500 carrying the request's correlation id (not a dropped
        connection), bump ``http.errors``, and leave the daemon serving."""

        def scenario(client, daemon):
            def boom():
                raise RuntimeError("metrics backend exploded")

            daemon._metrics_payload = boom  # instance shadow, this daemon only
            with pytest.raises(ServiceError) as excinfo:
                client.metrics()
            err = excinfo.value
            assert err.code == 500
            assert "RuntimeError" in str(err)
            assert err.correlation_id  # the span's trace id, echoed back
            assert err.payload["correlation_id"] == err.correlation_id

            # the crash was counted against the resolved route...
            assert daemon.registry.value("http.errors", route="/metrics") == 1
            # ...its span is marked error and shares the correlation id
            # (the span ends just after the response hits the wire, so
            # give the daemon a beat to finish the handler)
            deadline = time.monotonic() + 5
            errored = []
            while not errored and time.monotonic() < deadline:
                errored = [
                    s
                    for s in daemon.spans.recent(name="http.request")
                    if s["status"] == "error"
                ]
                time.sleep(0.02)
            (err_span,) = errored
            assert err_span["trace_id"] == err.correlation_id
            assert err_span["attributes"]["code"] == 500

            # one bad request must not kill the daemon
            del daemon._metrics_payload
            assert client.metrics()["derived"] is not None
            assert client.health()["ok"] is True
            return True

        assert with_daemon(tmp_path / "store", scenario)


class TestChromeRoundTrip:
    def test_job_trace_exports_and_merges_with_timeline(self, tmp_path):
        def scenario(client, daemon):
            job = client.submit(FIG_SPEC)["job"]
            client.wait(job["id"], timeout=180)
            return client.trace(job["id"])

        trace = with_daemon(tmp_path / "store", scenario)
        timeline = Timeline.from_dict(
            {
                "timeline_version": TIMELINE_VERSION,
                "interval": 1.0,
                "duration": 1.0,
                "times": [0.0, 1.0],
                "probes": [
                    {"name": "nodes.alive", "kind": "int", "values": [5, 4]}
                ],
            }
        )
        out = write_chrome_trace(
            tmp_path / "trace.json", spans=trace["spans"], timeline=timeline
        )
        data = json.loads(out.read_text())
        slices = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert {"queue.wait", "worker.execute", "store.put"} <= {
            e["name"] for e in slices
        }
        # service spans and in-sim probe series share one Perfetto view
        counters = [e for e in data["traceEvents"] if e.get("ph") == "C"]
        assert [(e["name"], e["args"]["value"]) for e in counters] == [
            ("nodes.alive", 5),
            ("nodes.alive", 4),
        ]
        # each slice carries its ids in args, so the tree reassembles from them
        roots = span_tree(
            {
                "name": e["name"],
                "span_id": e["args"]["span_id"],
                "parent_id": e["args"]["parent_id"],
                "start_s": e["ts"] / 1e6,
            }
            for e in slices
        )
        assert [r["name"] for r in roots] == ["http.request"]
        assert len(slices) == len(trace["spans"])
        assert "otherData" not in data


class TestBitIdentityTracingOnOff:
    def test_metrics_identical_with_and_without_spans(self, tmp_path):
        def scenario(client, daemon):
            job = client.submit(FIG_SPEC)["job"]
            client.wait(job["id"], timeout=180)
            return client.result(job["id"])

        traced = with_daemon(tmp_path / "on", scenario)
        untraced = with_daemon(tmp_path / "off", scenario, spans=SpanStore(0))
        assert [r["key"] for r in traced["runs"]] == [
            r["key"] for r in untraced["runs"]
        ]
        assert [r["metrics"] for r in traced["runs"]] == [
            r["metrics"] for r in untraced["runs"]
        ]
        assert traced["figure"] == untraced["figure"]

    def test_disabled_spans_daemon_reports_empty_trace(self, tmp_path):
        def scenario(client, daemon):
            job = client.submit(FIG_SPEC)["job"]
            client.wait(job["id"], timeout=180)
            return client.trace(job["id"]), client.metrics()

        trace, metrics = with_daemon(
            tmp_path / "store", scenario, spans=SpanStore(0)
        )
        assert trace["tracing_enabled"] is False
        assert trace["spans"] == [] and trace["tree"] == []
        assert trace["trace_id"]  # correlation ids still flow when disabled
        assert metrics["spans"]["retained"] == 0

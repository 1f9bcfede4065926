"""Unit tests for repro.obs.spans: ids, parenting, the bounded ring,
ingest across a (simulated) process boundary, tree assembly, and the
Chrome exporter."""

import json

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.spans import (
    DEFAULT_SPAN_CAPACITY,
    Span,
    SpanContext,
    SpanStore,
    make_span,
    new_span_id,
    new_trace_id,
    span_tree,
)
from repro.obs.export import write_chrome_trace


class TestIdsAndLinks:
    def test_fresh_root_gets_new_trace_id(self):
        store = SpanStore()
        a = store.start("a")
        b = store.start("b")
        assert a.trace_id != b.trace_id
        assert a.parent_id is None

    def test_child_inherits_trace_and_links_parent(self):
        store = SpanStore()
        root = store.start("root")
        child = store.start("child", parent=root)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_span_context_parents_like_a_span(self):
        store = SpanStore()
        ctx = SpanContext(new_trace_id(), new_span_id())
        child = store.start("child", parent=ctx)
        assert child.trace_id == ctx.trace_id
        assert child.parent_id == ctx.span_id

    def test_ids_are_hex_strings(self):
        assert len(new_trace_id()) == 16
        int(new_trace_id(), 16)
        int(new_span_id(), 16)

    def test_end_is_idempotent(self):
        store = SpanStore()
        span = store.start("x")
        span.end()
        first_end = span.end_s
        span.end(status="error")
        assert span.end_s == first_end
        assert span.status == "ok"
        assert len(store) == 1

    def test_attributes_via_set_and_end(self):
        store = SpanStore()
        span = store.start("x", a=1).set(b=2)
        span.end(c=3)
        (payload,) = store.recent()
        assert payload["attributes"] == {"a": 1, "b": 2, "c": 3}


class TestSpanStore:
    def test_ring_is_bounded_and_counts_drops(self):
        registry = MetricsRegistry()
        store = SpanStore(capacity=4, registry=registry)
        for i in range(10):
            store.start(f"s{i}").end()
        assert len(store) == 4
        assert store.dropped == 6
        assert registry.value("spans.dropped") == 6
        assert registry.value("spans.started") == 10
        # oldest fell off the back, newest retained
        assert [s["name"] for s in store.recent()] == ["s9", "s8", "s7", "s6"]

    def test_active_gauge_tracks_open_spans(self):
        registry = MetricsRegistry()
        store = SpanStore(registry=registry)
        a = store.start("a")
        b = store.start("b")
        assert registry.value("spans.active") == 2
        a.end()
        b.end()
        assert registry.value("spans.active") == 0

    def test_trace_includes_active_spans(self):
        store = SpanStore()
        root = store.start("root")
        store.start("done", parent=root).end()
        spans = store.trace(root.trace_id)
        assert {s["name"] for s in spans} == {"root", "done"}
        in_flight = next(s for s in spans if s["name"] == "root")
        assert in_flight["in_flight"] is True

    def test_recent_filters_by_name_prefix_and_trace(self):
        store = SpanStore()
        r1 = store.start("http.request")
        store.start("http.parse", parent=r1).end()
        r1.end()
        store.start("job").end()
        assert [s["name"] for s in store.recent(name="job")] == ["job"]
        assert {s["name"] for s in store.recent(name="http.")} == {
            "http.request",
            "http.parse",
        }
        assert all(
            s["trace_id"] == r1.trace_id for s in store.recent(trace_id=r1.trace_id)
        )
        assert len(store.recent(limit=1)) == 1

    def test_disabled_store_records_nothing_but_ids_work(self):
        store = SpanStore(capacity=0)
        assert not store.enabled
        span = store.start("x")
        child = store.start("y", parent=span)
        assert child.trace_id == span.trace_id  # propagation still works
        span.end()
        child.end()
        assert len(store) == 0
        assert store.recent() == []
        assert store.trace(span.trace_id) == []
        assert store.ingest([make_span("z", "t", "s", None, 0.0, 1.0)]) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanStore(capacity=-1)

    def test_default_capacity(self):
        assert SpanStore().capacity == DEFAULT_SPAN_CAPACITY

    def test_ingest_adopts_worker_payloads(self):
        store = SpanStore()
        parent = store.start("worker.execute")
        worker_payload = make_span(
            "worker.run",
            parent.trace_id,
            new_span_id(),
            parent.span_id,
            1.0,
            2.5,
            {"worker.pid": 1234},
        )
        kept = store.ingest([worker_payload, {"not": "a span"}, "junk"])
        assert kept == 1
        parent.end()
        spans = store.trace(parent.trace_id)
        assert {s["name"] for s in spans} == {"worker.execute", "worker.run"}
        ingested = next(s for s in spans if s["name"] == "worker.run")
        assert ingested["duration_s"] == pytest.approx(1.5)

    def test_event_is_zero_duration(self):
        store = SpanStore()
        span = store.event("dedup", verdict="store-hit")
        assert span.ended
        (payload,) = store.recent()
        assert payload["duration_s"] < 0.1
        assert payload["attributes"]["verdict"] == "store-hit"

    def test_stats(self):
        store = SpanStore(capacity=8)
        store.start("a").end()
        live = store.start("b")
        stats = store.stats()
        assert stats == {
            "capacity": 8,
            "retained": 1,
            "active": 1,
            "started": 2,
            "dropped": 0,
        }
        live.end()


class TestSpanTree:
    def _payload(self, name, trace, sid, parent, start):
        return make_span(name, trace, sid, parent, start, start + 1.0)

    def test_nests_children_under_parents(self):
        t = new_trace_id()
        spans = [
            self._payload("root", t, "r", None, 0.0),
            self._payload("b", t, "b", "r", 2.0),
            self._payload("a", t, "a", "r", 1.0),
            self._payload("a.1", t, "a1", "a", 1.5),
        ]
        (root,) = span_tree(spans)
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["a", "b"]  # start order
        assert root["children"][0]["children"][0]["name"] == "a.1"

    def test_orphans_become_roots(self):
        t = new_trace_id()
        spans = [self._payload("orphan", t, "o", "evicted-parent", 5.0)]
        roots = span_tree(spans)
        assert [r["name"] for r in roots] == ["orphan"]

    def test_empty(self):
        assert span_tree([]) == []


class TestChromeExport:
    def test_export_and_reload(self, tmp_path):
        store = SpanStore()
        root = store.start("http.request")
        store.start("job", parent=root, job="job-000001").end()
        root.end()
        out = write_chrome_trace(tmp_path / "spans.json", spans=store.recent())
        data = json.loads(out.read_text())
        xs = [e for e in data["traceEvents"] if e.get("ph") == "X"]
        assert {e["name"] for e in xs} == {"http.request", "job"}
        # ids, status and attributes ride in args; no second copy of the spans
        job_ev = next(e for e in xs if e["name"] == "job")
        assert job_ev["args"]["job"] == "job-000001"
        assert job_ev["args"]["trace_id"] == root.trace_id
        assert job_ev["args"]["parent_id"] == root.span_id
        assert job_ev["args"]["status"] == "ok"
        assert "otherData" not in data
        # all spans of one trace share a track; timestamps rebased to 0
        assert len({e["tid"] for e in xs}) == 1
        assert min(e["ts"] for e in xs) == 0.0

    def test_export_merges_timeline_counters(self, tmp_path):
        store = SpanStore()
        store.start("run").end()
        timeline = {
            "times": [0.0, 1.0],
            "probes": [{"name": "nodes.alive", "kind": "int", "values": [5, 4]}],
            "interval": 1.0,
            "duration": 1.0,
        }
        out = write_chrome_trace(
            tmp_path / "merged.json", spans=store.recent(), timeline=timeline
        )
        data = json.loads(out.read_text())
        phases = {e.get("ph") for e in data["traceEvents"]}
        assert "X" in phases and "C" in phases
        counters = [e for e in data["traceEvents"] if e.get("ph") == "C"]
        assert [(e["name"], e["ts"], e["args"]["value"]) for e in counters] == [
            ("nodes.alive", 0.0, 5),
            ("nodes.alive", 1e6, 4),
        ]
        assert "otherData" not in data

    def test_names_each_trace_track_once(self, tmp_path):
        store = SpanStore()
        for _ in range(2):
            root = store.start("http.request")
            store.start("http.parse", parent=root).end()
            store.start("job", parent=root).end()
            root.end()
        spans = store.recent()
        assert len(spans) == 6
        data = json.loads(
            write_chrome_trace(tmp_path / "spans.json", spans=spans).read_text()
        )
        names = [e for e in data["traceEvents"] if e["name"] == "thread_name"]
        assert len(names) == len({s["trace_id"] for s in spans}) == 2
        assert len({e["tid"] for e in names}) == 2

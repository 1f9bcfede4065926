"""The service daemon: a stdlib-asyncio HTTP/1.1 JSON API.

No web framework — the container ships only the standard library, so
the daemon speaks a deliberately small slice of HTTP/1.1 over
``asyncio.start_server``: one request per connection (the daemon always
answers ``Connection: close``), JSON bodies, and ``text/event-stream``
for progress streaming.  That slice is all the bundled client, the load
tester, and ``curl`` need.

Routes (all under ``/api/v1`` except the operational pair)::

    POST /api/v1/jobs               submit a run/sweep/figure request
    GET  /api/v1/jobs               list jobs
    GET  /api/v1/jobs/<id>          job status
    GET  /api/v1/jobs/<id>/events   SSE progress stream (until terminal)
    GET  /api/v1/jobs/<id>/result   results of a finished job
    GET  /api/v1/jobs/<id>/trace    the job's span tree (request tracing)
    GET  /api/v1/trace              recent spans (?limit=&name=&trace=)
    GET  /api/v1/runs               stored-run summaries (directory scan)
    GET  /api/v1/runs/<key>         one stored entry (identity+metrics)
    GET  /api/v1/runs/<key>/timeline  stored probe timeline
    GET  /metrics                   registry snapshot + derived ratios
    GET  /healthz                   liveness probe

Every request increments ``service.requests{route=...,code=...}`` and
observes ``service.request_latency_s{route=...}`` — a route label is
the *template* of a route the daemon serves for the request's method
(``GET /api/v1/jobs/{id}``), never the raw path or method, and every
other request is ``unknown``, so label cardinality stays bounded.

Every request also opens an ``http.request`` span whose trace id is the
request's **correlation id**: error payloads echo it, structured logs
carry it, and a submission's whole job tree (queue wait, dedup verdicts,
worker execution, store writes) parents under it — see
:mod:`repro.obs.spans` and ``GET /api/v1/jobs/<id>/trace``.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Optional
from urllib.parse import parse_qs

from ..experiments.store import RunStore
from ..obs.registry import MetricsRegistry, summarize_histogram
from ..obs.spans import DEFAULT_SPAN_CAPACITY, SpanStore, span_tree
from .jobs import RequestError, parse_request
from .logs import JsonLogger
from .scheduler import JobScheduler

__all__ = ["ServiceDaemon", "build_service"]

#: submission bodies above this are rejected (413) before parsing
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}

#: request-latency histogram edges (seconds): service calls are fast
_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

#: every route the daemon serves, as (method, path template, route label);
#: a ``{...}`` template segment matches any one path segment
_ROUTES = tuple(
    (method, tuple(template.strip("/").split("/")), label)
    for method, template, label in (
        ("GET", "/healthz", "/healthz"),
        ("GET", "/metrics", "/metrics"),
        ("POST", "/api/v1/jobs", "POST /api/v1/jobs"),
        ("GET", "/api/v1/jobs", "GET /api/v1/jobs"),
        ("GET", "/api/v1/jobs/{id}", "GET /api/v1/jobs/{id}"),
        ("GET", "/api/v1/jobs/{id}/result", "GET /api/v1/jobs/{id}/result"),
        ("GET", "/api/v1/jobs/{id}/trace", "GET /api/v1/jobs/{id}/trace"),
        ("GET", "/api/v1/jobs/{id}/events", "GET /api/v1/jobs/{id}/events"),
        ("GET", "/api/v1/trace", "GET /api/v1/trace"),
        ("GET", "/api/v1/runs", "GET /api/v1/runs"),
        ("GET", "/api/v1/runs/{key}", "GET /api/v1/runs/{key}"),
        ("GET", "/api/v1/runs/{key}/timeline", "GET /api/v1/runs/{key}/timeline"),
    )
)


class _HttpError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class ServiceDaemon:
    """One listening socket over a run store + scheduler pair."""

    def __init__(
        self,
        store: RunStore,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        sse_keepalive: float = 15.0,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.registry = scheduler.registry
        self.spans = scheduler.spans
        self.log = scheduler.log
        self.host = host
        self.port = port
        self.sse_keepalive = sse_keepalive
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket (port 0 picks an ephemeral port) and serve."""
        await self.scheduler.start()
        self._server = await asyncio.start_server(self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "daemon not started"
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.perf_counter()
        route = "unknown"
        code = 500
        # the span's trace id doubles as the request correlation id:
        # error payloads echo it, log lines and the job's span tree join on it
        span = self.spans.start("http.request")
        try:
            parse_span = self.spans.start("http.parse", parent=span)
            parsed = await self._read_request(reader)
            if parsed is None:
                parse_span.end(empty=True)
                code = 0  # connection probe, no request to answer
                return
            method, path, query, body = parsed
            parse_span.end(method=method, path=path)
            span.set(method=method, path=path)
            # resolve the route label up front so a handler that raises is
            # still attributed to its route (error counters, access logs)
            parts = [p for p in path.split("/") if p]
            route = self._route_label(method, parts)
            code, payload, stream = self._dispatch(
                route, parts, method, path, query, body, span
            )
            if stream is not None:
                code = 200
                await stream(writer)
            else:
                write_span = self.spans.start("response.write", parent=span, code=code)
                self._send_json(writer, code, payload)
                write_span.end()
        except _HttpError as exc:
            code = exc.code
            self._send_json(
                writer,
                exc.code,
                {"error": str(exc), "correlation_id": span.trace_id},
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client went away mid-request; nothing to answer
        except Exception as exc:  # noqa: BLE001 - one bad request must not kill the daemon
            code = 500
            self.registry.counter("http.errors", route=route).inc()
            self.log.error(
                "http.error",
                route=route,
                correlation_id=span.trace_id,
                error=f"{type(exc).__name__}: {exc}",
            )
            try:
                self._send_json(
                    writer,
                    500,
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "correlation_id": span.trace_id,
                    },
                )
            except ConnectionError:
                pass
        finally:
            duration = time.perf_counter() - started
            span.end(
                "error" if code >= 500 else "ok", route=route, code=code
            )
            self.registry.counter("service.requests", route=route, code=str(code)).inc()
            self.registry.histogram(
                "service.request_latency_s", _LATENCY_BUCKETS, route=route
            ).observe(duration)
            self.log.log(
                "http.request",
                route=route,
                code=code,
                duration_s=round(duration, 6),
                correlation_id=span.trace_id,
            )
            try:
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> Optional[tuple[str, str, dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError as exc:
            raise _HttpError(400, "bad content-length") from exc
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length > 0 else b""
        path, _, query_string = target.partition("?")
        query = {k: v[-1] for k, v in parse_qs(query_string).items()}
        return method, path, query, body

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(
        self,
        route: str,
        parts: list[str],
        method: str,
        path: str,
        query: dict[str, str],
        body: bytes,
        span=None,
    ):
        """Returns ``(code, payload, sse_coroutine_or_None)`` for one request."""
        if route == "/healthz":
            return 200, {"ok": True, "started_at": self.started_at}, None
        if route == "/metrics":
            return 200, self._metrics_payload(), None
        if route == "POST /api/v1/jobs":
            return *self._submit(body, span), None
        if route == "GET /api/v1/jobs":
            jobs = [j.as_dict() for j in self.scheduler.list_jobs()]
            return 200, {"jobs": jobs}, None
        if route == "GET /api/v1/trace":
            return 200, self._trace_payload(query), None
        if route == "GET /api/v1/runs":
            return 200, {"runs": self.store.ls()}, None
        if route.startswith("GET /api/v1/jobs/{id}"):
            job = self.scheduler.get(parts[3])
            if job is None:
                raise _HttpError(404, f"no such job {parts[3]!r}")
            if route == "GET /api/v1/jobs/{id}":
                return 200, job.as_dict(), None
            if route == "GET /api/v1/jobs/{id}/result":
                if job.status == "failed":
                    raise _HttpError(409, f"job {job.id} failed: {job.error}")
                if job.status != "done":
                    raise _HttpError(409, f"job {job.id} is {job.status}")
                return 200, job.result_payload(), None
            if route == "GET /api/v1/jobs/{id}/trace":
                return 200, self._job_trace_payload(job), None
            # GET /api/v1/jobs/{id}/events
            stream = lambda w: self._stream_events(w, job)  # noqa: E731
            return 200, None, stream
        if route == "GET /api/v1/runs/{key}":
            entry = self.store.entry(parts[3])
            if entry is None:
                raise _HttpError(404, f"no stored run {parts[3]!r}")
            return 200, entry, None
        if route == "GET /api/v1/runs/{key}/timeline":
            timeline = self.store.get_timeline(parts[3])
            if timeline is None:
                raise _HttpError(404, f"no stored timeline for {parts[3]!r}")
            return 200, timeline, None
        if parts == ["api", "v1", "jobs"]:
            raise _HttpError(405, f"{method} not allowed on /api/v1/jobs")
        raise _HttpError(404, f"no route for {method} {path}")

    @staticmethod
    def _route_label(method: str, parts: list[str]) -> str:
        """The label of the route serving ``method`` on the path ``parts``.

        Pure table matching — no lookups, no side effects — so it can
        run before dispatch; a method or path no route serves collapses
        to ``"unknown"`` rather than minting one counter series per
        client-chosen method or garbage URL.
        """
        for route_method, template, label in _ROUTES:
            if (
                route_method == method
                and len(template) == len(parts)
                and all(t == p or t[0] == "{" for t, p in zip(template, parts))
            ):
                return label
        return "unknown"

    def _submit(self, body: bytes, span=None) -> tuple[int, dict[str, Any]]:
        try:
            data = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        try:
            request = parse_request(data)
        except RequestError as exc:
            raise _HttpError(400, str(exc)) from exc
        job, coalesced = self.scheduler.submit(request, parent=span)
        return 200, {"job": job.as_dict(), "coalesced": coalesced}

    def _job_trace_payload(self, job) -> dict[str, Any]:
        spans = self.spans.trace(job.trace_id) if job.trace_id else []
        return {
            "job_id": job.id,
            "trace_id": job.trace_id,
            "tracing_enabled": self.spans.enabled,
            "spans": spans,
            "tree": span_tree(spans),
        }

    def _trace_payload(self, query: dict[str, str]) -> dict[str, Any]:
        raw_limit = query.get("limit", "100")
        try:
            limit = int(raw_limit)
        except ValueError as exc:
            raise _HttpError(400, f"bad limit {raw_limit!r}") from exc
        if limit < 1:
            raise _HttpError(400, f"limit must be positive, got {limit}")
        spans = self.spans.recent(
            limit=limit, name=query.get("name"), trace_id=query.get("trace")
        )
        return {"spans": spans, "stats": self.spans.stats()}

    def _metrics_payload(self) -> dict[str, Any]:
        hits = self.registry.value("store.hit")
        misses = self.registry.value("store.miss")
        lookups = hits + misses
        snapshot = self.registry.snapshot()
        # percentile summaries derived from the histogram buckets, so
        # dashboards don't have to re-implement the interpolation
        latency: dict[str, Any] = {}
        prefix = "service.request_latency_s{route="
        for key, sample in snapshot["histograms"].items():
            if key.startswith(prefix) and key.endswith("}"):
                latency[key[len(prefix):-1]] = summarize_histogram(sample)
        job_wall = snapshot["histograms"].get("service.job_wall_s")
        return {
            "derived": {
                "hit_ratio": (hits / lookups) if lookups else None,
                "store_lookups": lookups,
                "queue_depth": self.registry.value("service.queue_depth"),
                "workers_busy": self.registry.value("service.workers_busy"),
                "jobs": len(self.scheduler.jobs),
            },
            "latency": latency,
            "job_wall": summarize_histogram(job_wall) if job_wall else None,
            "spans": self.spans.stats(),
            "backend": {
                # counted, not parsed: /metrics stays cheap on a large store
                "entries": sum(1 for _ in self.store.runs_dir.glob("*.json")),
                **self.store.stats.as_dict(),
            },
            "registry": snapshot,
        }

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------
    @staticmethod
    def _send_json(writer: asyncio.StreamWriter, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = _REASONS.get(code, "Unknown")
        head = (
            f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    async def _stream_events(self, writer: asyncio.StreamWriter, job) -> None:
        """SSE: emit the job snapshot on every change until terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        last = -1
        while True:
            if job.version != last:
                snapshot = job.as_dict()
                last = snapshot["version"]
                writer.write(
                    f"data: {json.dumps(snapshot, sort_keys=True)}\n\n".encode("utf-8")
                )
                await writer.drain()
                if job.terminal:
                    return
            changed = await self.scheduler.wait_change(
                job, last, timeout=self.sse_keepalive
            )
            if not changed:
                writer.write(b": keep-alive\n\n")
                await writer.drain()


def build_service(
    store_root,
    host: str = "127.0.0.1",
    port: int = 0,
    run_workers: int = 2,
    registry: Optional[MetricsRegistry] = None,
    spans: bool = True,
    span_capacity: int = DEFAULT_SPAN_CAPACITY,
    log_json: bool = False,
) -> ServiceDaemon:
    """Wire run store + scheduler + daemon over one store directory.

    Request tracing is on by default (``spans=False`` or
    ``span_capacity=0`` disables retention without touching the serving
    path); ``log_json`` turns on structured JSON logs on stderr.
    """
    store = RunStore(store_root, registry=registry)
    span_store = SpanStore(span_capacity if spans else 0, registry=store.registry)
    log = JsonLogger(enabled=log_json)
    scheduler = JobScheduler(store, run_workers=run_workers, spans=span_store, log=log)
    return ServiceDaemon(store, scheduler, host=host, port=port)

"""Async job scheduler: the daemon's priority queue of jobs.

The scheduler keeps only job concerns: a **priority queue** of accepted
jobs (``(priority, seq)`` order, so equal priorities drain FIFO) drained
by N async job workers, job coalescing, progress notification for SSE
streams, the job-lifecycle JSON log lines, and the ``job`` /
``store.probe`` / ``queue.wait`` / ``run`` spans of each job's trace.
Dedup happens at three prices, cheapest first:

1. *store hits* — every run is probed at submission, so a warm request
   finishes without queueing at all (``from_cache``); a hit on a run the
   daemon's store handle has parsed before is a memory lookup plus one
   stat, and jobs share that one parsed copy;
2. *job coalescing* — a submission whose request key matches a
   queued/running job returns that job's id instead of a duplicate;
3. *run coalescing* — jobs that overlap on individual runs share one
   in-flight execution per content key.

Every run goes to the :class:`~repro.experiments.sweeps.RunExecutor`
that CLI sweeps use too, which owns the process pool: it persists each
result the moment it resolves (a crash loses at most the runs in
flight), fails only the runs on the pool when a worker dies, and
rebuilds the pool so the daemon keeps serving.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Optional

from ..experiments.store import RunStore
from ..experiments.sweeps import RunExecutor, RunFailure
from ..obs.registry import MetricsRegistry
from ..obs.spans import SpanStore
from .jobs import Job, JobRequest
from .logs import JsonLogger

__all__ = ["JobScheduler"]

#: job wall-clock histogram edges (seconds) — jobs run longer than the
#: default latency-oriented buckets
JOB_WALL_BUCKETS = (0.005, 0.02, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)


class JobScheduler:
    """Priority job queue + job coalescing over one :class:`RunExecutor`."""

    def __init__(
        self,
        store: RunStore,
        run_workers: int = 2,
        job_workers: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        spans: Optional[SpanStore] = None,
        log: Optional[JsonLogger] = None,
    ) -> None:
        self.registry = registry if registry is not None else store.registry
        #: span sink — on by default (bounded ring); SpanStore(0) disables
        self.spans = spans if spans is not None else SpanStore(registry=self.registry)
        self.log = log if log is not None else JsonLogger(enabled=False)
        self.run_workers = max(1, run_workers)
        #: concurrent jobs in flight; more than pool slots so an
        #: all-coalesced job cannot starve behind a pool-bound one
        self.job_workers = job_workers if job_workers is not None else self.run_workers + 1
        self.jobs: dict[str, Job] = {}
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._job_seq = itertools.count(1)
        #: queued/running jobs by request key (job-level coalescing)
        self._active: dict[str, Job] = {}
        self.executor = RunExecutor(
            self.run_workers, store, spans=self.spans, registry=self.registry
        )
        self._tasks: list[asyncio.Task] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._gauge_queue = self.registry.gauge("service.queue_depth")
        self._gauge_busy = self.registry.gauge("service.workers_busy")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._wakeup = asyncio.Event()
        self.executor.start()
        self.registry.gauge("service.run_workers").set(self.run_workers)
        self.registry.gauge("service.job_workers").set(self.job_workers)
        self._tasks = [
            asyncio.create_task(self._job_worker(), name=f"job-worker-{i}")
            for i in range(self.job_workers)
        ]

    async def stop(self) -> None:
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._tasks = []
        await self.executor.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, request: JobRequest, parent: Optional[object] = None
    ) -> tuple[Job, bool]:
        """Accept a parsed request; returns ``(job, coalesced)``.

        Runs already in the store resolve immediately; a request whose
        every run is stored completes synchronously (``from_cache``)
        without touching the queue.  A request key matching an active
        job coalesces onto it instead of enqueueing a duplicate.

        ``parent`` (a span or span context, usually the daemon's
        ``http.request`` span) roots the job's span tree in the
        submitting request's trace.
        """
        existing = self._active.get(request.request_key)
        if existing is not None:
            self.registry.counter("service.jobs_coalesced").inc()
            if parent is not None:
                self.spans.event(
                    "dedup",
                    parent=parent,
                    verdict="coalesced",
                    job=existing.id,
                    request_key=request.request_key,
                )
            self.log.log(
                "job.coalesced", job=existing.id, request_key=request.request_key
            )
            return existing, True

        job = Job(id=f"job-{next(self._job_seq):06d}", request=request)
        span = self.spans.start(
            "job",
            parent=parent,
            job=job.id,
            kind=request.kind,
            request_key=request.request_key,
            priority=request.priority,
        )
        job.span = span
        job.trace_id = span.trace_id
        job.results = [None] * job.total
        self.registry.counter("service.jobs_submitted", kind=request.kind).inc()
        probe = self.spans.start("store.probe", parent=span, runs=job.total)
        for i, (cfg, key) in enumerate(zip(request.configs, request.run_keys)):
            cached = self.executor.probe(cfg, key)
            if cached is not None:
                job.results[i] = cached
                job.hits += 1
                job.done += 1
                # submit-time store hit: this run never reaches the queue
                self.spans.event("dedup", parent=span, verdict="store-hit", **{"run.key": key})
            else:
                job.pending.append((i, cfg))
        probe.end(hits=job.hits, misses=len(job.pending))
        self.jobs[job.id] = job
        self.log.log(
            "job.submitted",
            job=job.id,
            kind=request.kind,
            correlation_id=span.trace_id,
            runs=job.total,
            store_hits=job.hits,
        )
        if not job.pending:
            job.from_cache = True
            job.finished_at = time.time()
            self._finish(job, "done")
        else:
            self._active[request.request_key] = job
            job.queue_span = self.spans.start("queue.wait", parent=span, job=job.id)
            self._queue.put_nowait((request.priority, next(self._seq), job.id))
            self._gauge_queue.inc()
            self._touch(job)
        return job, False

    def get(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        return sorted(self.jobs.values(), key=lambda j: j.id)

    # ------------------------------------------------------------------
    # change notification (SSE)
    # ------------------------------------------------------------------
    async def wait_change(
        self, job: Job, last_version: int, timeout: float = 30.0
    ) -> bool:
        """Block until ``job.version`` moves past ``last_version``.

        Returns True on a change, False on timeout (SSE keep-alive).
        """
        deadline = time.monotonic() + timeout
        while job.version == last_version:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            event = self._wakeup
            assert event is not None, "scheduler not started"
            try:
                await asyncio.wait_for(event.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return False
        return True

    def _touch(self, job: Job) -> None:
        job.version += 1
        if self._wakeup is not None:
            event, self._wakeup = self._wakeup, asyncio.Event()
            event.set()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _job_worker(self) -> None:
        while True:
            _prio, _seq, job_id = await self._queue.get()
            self._gauge_queue.dec()
            job = self.jobs[job_id]
            self._gauge_busy.inc()
            job.status = "running"
            job.started_at = time.time()
            if job.queue_span is not None:
                job.queue_span.end()
            self.log.log("job.started", job=job.id, correlation_id=job.trace_id)
            self._touch(job)
            try:
                await self._execute(job)
                status = "failed" if job.error else "done"
            except asyncio.CancelledError:
                job.error = "daemon shut down"
                job.finished_at = time.time()
                self._finish(job, "failed")
                self._gauge_busy.dec()
                raise
            except BaseException as exc:  # pragma: no cover - defensive
                job.error = f"{type(exc).__name__}: {exc}"
                status = "failed"
            job.finished_at = time.time()
            self._finish(job, status)
            self._gauge_busy.dec()
            self._queue.task_done()

    def _finish(self, job: Job, status: str) -> None:
        job.status = status
        self._active.pop(job.request.request_key, None)
        self.registry.counter(f"service.jobs_{status}").inc()
        if job.finished_at is not None:
            self.registry.histogram("service.job_wall_s", JOB_WALL_BUCKETS).observe(
                job.finished_at - job.submitted_at
            )
        if job.queue_span is not None:
            job.queue_span.end()
        if job.span is not None:
            job.span.end(
                "error" if status == "failed" else "ok",
                job_status=status,
                from_cache=job.from_cache,
                hits=job.hits,
                executed=job.executed,
                coalesced=job.coalesced,
            )
        self.log.log(
            "job.finished",
            job=job.id,
            correlation_id=job.trace_id,
            status=status,
            from_cache=job.from_cache,
            hits=job.hits,
            executed=job.executed,
            coalesced=job.coalesced,
            error=job.error,
        )
        self._touch(job)

    async def _execute(self, job: Job) -> None:
        await asyncio.gather(
            *(self._run_one(job, i, cfg) for i, cfg in job.pending)
        )
        failures = [r for r in job.results if isinstance(r, RunFailure)]
        if failures:
            job.error = (
                f"{len(failures)} of {job.total} runs failed: {failures[0]}"
            )

    async def _run_one(self, job: Job, index: int, cfg) -> None:
        key = job.request.run_keys[index]
        run_span = self.spans.start(
            "run", parent=job.span, **{"run.key": key, "index": index}
        )
        outcome, how = await self.executor.run(index, cfg, key=key, parent=run_span)
        failed = isinstance(outcome, RunFailure)
        fields = {"job": job.id, "correlation_id": job.trace_id, "run.key": key}
        if how == "coalesced":
            self.registry.counter("service.runs_coalesced").inc()
            job.coalesced += 1
            self.log.log("run.coalesced", **fields)
        elif how == "hit":
            job.hits += 1
            self.log.log("run.hit", **fields)
        else:
            self.registry.counter("service.runs_executed").inc()
            if failed:
                self.registry.counter("service.runs_failed").inc()
            job.executed += 1
            self.log.log("run.executed", ok=not failed, **fields)
        run_span.end("error" if failed else "ok")
        job.results[index] = outcome
        job.done += 1
        self._touch(job)

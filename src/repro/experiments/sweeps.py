"""Parameter sweeps: run cells of (scheme x sweep-value x trials).

Comparisons are **paired**: for a given (sweep value, trial index) both
schemes run with the same seed, hence the same field, the same source and
sink draws, and the same failure schedule — the paper's "our results are
averaged over ten different generated fields" with variance reduced by
pairing.

Every batch of runs — a CLI sweep through :func:`run_configs` or a job of
the :mod:`repro.service` daemon — goes through one :class:`RunExecutor`:

* the store is probed first, and a run found there is never executed;
* identical in-flight runs (same content key) share one execution;
* runs execute one at a time in this process (``workers`` of 0), or on a
  process pool with at most ``workers + 1`` runs handed to it at once;
* each result is persisted the moment it resolves, so a re-run against
  the same store executes only what is missing;
* a config that raises becomes a :class:`RunFailure` placeholder at its
  position, and so does every run on the pool when a worker dies hard
  (signal, OOM); the pool is then rebuilt and later runs complete.

Results are identical serial or parallel because each run is fully
determined by its config.  :func:`run_configs` raises one
:class:`SweepError` summary after the whole sweep (or hands the
placeholders back with ``return_failures=True``).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
import traceback as _traceback
from concurrent.futures import ProcessPoolExecutor

# ``wait`` is unused here; it stays importable because the wall-clock
# benchmark (``perfbench/sweep.py --trace 1``) wraps ``sweeps.wait`` and
# ``sweeps._run_parallel`` by name.
from concurrent.futures import wait  # noqa: F401
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from ..obs.registry import MetricsRegistry
from ..obs.spans import SpanStore, make_span, new_span_id
from ..sim.rng import derive_seed
from .config import ExperimentConfig, Profile
from .metrics import RunMetrics
from .runner import run_experiment
from .store import RunStore, open_store, run_key

#: a ``store=`` argument: an open handle, a directory path, or disabled
StoreArg = Union[RunStore, str, Path, None]

#: the two schemes the paper's figures compare (ablation variants are
#: swept explicitly by the ablation benchmarks)
COMPARISON_SCHEMES = ("opportunistic", "greedy")

__all__ = [
    "CellSummary",
    "RunFailure",
    "SweepError",
    "RunExecutor",
    "run_configs",
    "paired_plan",
    "summarize_paired",
    "cell_seed",
]


def cell_seed(base_seed: int, x: object, trial: int) -> int:
    """Stable per-(sweep value, trial) seed, shared by both schemes."""
    return derive_seed(base_seed, f"cell:{x}:{trial}") % (2**31)


@dataclass(frozen=True)
class CellSummary:
    """Mean metrics of one (scheme, sweep value) cell."""

    scheme: str
    x: float
    energy: float
    energy_stdev: float
    delay: float
    ratio: float
    n_runs: int
    distinct_delivered: float

    @staticmethod
    def from_runs(scheme: str, x: float, runs: Sequence[RunMetrics]) -> "CellSummary":
        if not runs:
            raise ValueError("cannot summarize an empty cell")
        energies = [r.avg_dissipated_energy for r in runs]
        return CellSummary(
            scheme=scheme,
            x=x,
            energy=statistics.fmean(energies),
            energy_stdev=statistics.stdev(energies) if len(energies) > 1 else 0.0,
            delay=statistics.fmean(r.avg_delay for r in runs),
            ratio=statistics.fmean(r.delivery_ratio for r in runs),
            n_runs=len(runs),
            distinct_delivered=statistics.fmean(r.distinct_delivered for r in runs),
        )


@dataclass(frozen=True)
class RunFailure:
    """Placeholder for one run that raised instead of producing metrics."""

    index: int
    config: ExperimentConfig
    error: str
    traceback: str = ""

    def __str__(self) -> str:
        return f"run[{self.index}] {self.config.scheme}/n={self.config.n_nodes}: {self.error}"


class SweepError(RuntimeError):
    """Some runs of a sweep failed; the rest completed.

    Carries the full order-preserving result list (``RunMetrics`` for
    completed runs, :class:`RunFailure` placeholders for failed ones) so
    a caller can salvage the survivors.
    """

    def __init__(self, failures: Sequence[RunFailure], results: Sequence) -> None:
        self.failures = list(failures)
        self.results = list(results)
        shown = "; ".join(str(f) for f in self.failures[:5])
        more = f" (+{len(self.failures) - 5} more)" if len(self.failures) > 5 else ""
        super().__init__(
            f"{len(self.failures)} of {len(self.results)} sweep runs failed: {shown}{more}"
        )


def _traced_safe_run(index: int, cfg: ExperimentConfig, ctx: Optional[dict[str, Any]]):
    """The pool entry point: one experiment, any exception turned into a
    :class:`RunFailure` placeholder, plus an in-worker span.

    The worker process cannot reach the parent's :class:`SpanStore`, so
    it returns ``(outcome, [span payload])`` built against the
    propagated ids (``ctx``: trace_id + parent span id + run key); the
    executor ingests the payloads and the tree crosses the process
    boundary seamlessly.  With ``ctx=None`` (tracing off) the span list
    is empty — the simulation itself is untouched either way, which is
    what keeps RunMetrics bit-identical.
    """
    start_s = time.time()
    try:
        outcome = run_experiment(cfg)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:  # noqa: BLE001 - isolate *any* run failure
        error = f"{type(exc).__name__}: {exc}"
        outcome = RunFailure(index, cfg, error, _traceback.format_exc())
    if ctx is None:
        return outcome, []
    failed = isinstance(outcome, RunFailure)
    span = make_span(
        "worker.run",
        ctx["trace_id"],
        new_span_id(),
        ctx["parent_id"],
        start_s,
        time.time(),
        {"run.key": ctx.get("run_key"), "worker.pid": os.getpid()},
        "error" if failed else "ok",
    )
    return outcome, [span]


class RunExecutor:
    """Store probe → in-flight dedup → process pool → persist on resolve.

    ``workers`` pool processes execute the runs (``0``: one at a time in
    this process).  ``store`` is the :class:`~repro.experiments.store.RunStore`
    that runs are probed in and persisted to (None: neither), for a CLI
    sweep and the daemon alike.  ``spans`` records ``dedup``, ``worker.execute``
    (``worker.run`` under it) and ``store.put`` below each run's parent
    span.  ``registry`` counts ``service.pool_rebuilds``.

    Callers :meth:`probe` each run (its one counted hit or miss), then
    await :meth:`run` for the misses, passing each run's content key:
    the executor never hashes a config itself.  ``asyncio`` is imported
    where it is used: the import costs ~26 ms, and an all-hit sweep
    never needs it.
    """

    def __init__(
        self,
        workers: int = 0,
        store: Optional[RunStore] = None,
        spans: Optional[SpanStore] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.workers = workers
        self.store = store
        self.spans = spans if spans is not None else SpanStore(0)
        self.registry = registry
        self._pool: Optional[ProcessPoolExecutor] = None
        #: bounds the runs handed to the pool, so a dead worker fails at
        #: most ``workers + 1`` of them (created inside the event loop)
        self._slots: Any = None
        #: in-flight runs by content key, each resolving to its outcome
        self._inflight: dict[str, Any] = {}

    def probe(self, cfg: ExperimentConfig, key: str) -> Optional[RunMetrics]:
        """The stored metrics for ``cfg`` (``key = run_key(cfg)``), or None;
        counts one hit or miss."""
        return self.store.get(cfg, key=key) if self.store is not None else None

    def start(self) -> None:
        """Create the worker pool now rather than at the first run."""
        if self.workers and self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)

    async def close(self) -> None:
        """Shut the pool down and join its workers."""
        import asyncio

        if self._pool is not None:
            pool, self._pool = self._pool, None
            # join the pool off-loop: wait=False would leave its
            # management thread racing the interpreter's atexit hook
            # (an "Exception ignored ... Bad file descriptor" at exit)
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True, cancel_futures=True)
            )

    async def run(
        self,
        index: int,
        cfg: ExperimentConfig,
        key: str,
        parent: Optional[object] = None,
    ) -> tuple[Union[RunMetrics, RunFailure], str]:
        """Resolve one probed miss: ``(outcome, how)``.

        ``how`` is ``"coalesced"`` (an identical run was in flight),
        ``"hit"`` (the store gained the entry since the probe — another
        job persisted it) or ``"executed"``.  The re-probe first checks
        that the entry exists, so a cold run still counts one store miss.
        ``key`` is ``run_key(cfg)``: the in-flight table, the re-probe
        and the store write all use it.  A :class:`RunFailure` carries
        this call's ``index``.
        """
        import asyncio

        shared = self._inflight.get(key)
        # another job may have stored the run since the caller's probe;
        # checking existence first keeps a cold run at one counted miss
        cached = None
        if shared is None and self.store is not None and self.store.contains(cfg, key=key):
            cached = self.store.get(cfg, key=key)
        if shared is not None:
            self.spans.event("dedup", parent=parent, verdict="in-flight", **{"run.key": key})
            outcome, how = await shared, "coalesced"
        elif cached is not None:
            self.spans.event("dedup", parent=parent, verdict="store-hit", **{"run.key": key})
            outcome, how = cached, "hit"
        else:
            self.spans.event("dedup", parent=parent, verdict="miss", **{"run.key": key})
            future = asyncio.get_running_loop().create_future()
            self._inflight[key] = future
            outcome, how = None, "executed"
            try:
                outcome = await self._execute(index, cfg, key, parent)
                # persist before waiters resume: whoever sees the run
                # resolved finds it in the store
                if self.store is not None:
                    if isinstance(outcome, RunFailure):
                        self.store.note_skipped()
                    else:
                        put = self.spans.start("store.put", parent=parent, **{"run.key": key})
                        self.store.put(cfg, outcome, key=key)
                        put.end()
            finally:
                self._inflight.pop(key, None)
                if outcome is None:  # cancelled before the run resolved
                    outcome = RunFailure(index, cfg, "run aborted")
                if not future.done():
                    future.set_result(outcome)
        if isinstance(outcome, RunFailure) and outcome.index != index:
            outcome = dataclasses.replace(outcome, index=index)
        return outcome, how

    async def _execute(
        self, index: int, cfg: ExperimentConfig, key: str, parent
    ) -> Union[RunMetrics, RunFailure]:
        """One simulation; a dead worker becomes a failure and a new pool."""
        import asyncio

        if self._slots is None:
            self._slots = asyncio.Semaphore(self.workers + 1)
        async with self._slots:
            span = self.spans.start("worker.execute", parent=parent, **{"run.key": key})
            # propagate ids into the worker so its in-worker span parents
            # under this one; skip the pickle round trip when off
            ctx = (
                {"trace_id": span.trace_id, "parent_id": span.span_id, "run_key": key}
                if self.spans.enabled
                else None
            )
            worker_spans: list = []
            if not self.workers:
                # blocks the loop: in-process mode is for a loop that
                # runs nothing else (``run_configs``)
                outcome, worker_spans = _traced_safe_run(index, cfg, ctx)
            else:
                self.start()
                pool = self._pool
                loop = asyncio.get_running_loop()
                try:
                    outcome, worker_spans = await loop.run_in_executor(
                        pool, _traced_safe_run, index, cfg, ctx
                    )
                except BrokenProcessPool as exc:
                    self._rebuild(pool)
                    outcome = RunFailure(index, cfg, f"worker process died: {exc}")
                except Exception as exc:  # pragma: no cover - defensive (pickling)
                    error = f"{type(exc).__name__}: {exc}"
                    outcome = RunFailure(index, cfg, error, _traceback.format_exc())
            self.spans.ingest(worker_spans)
            if isinstance(outcome, RunFailure):
                span.end("error", error=outcome.error)
            else:
                span.end("ok")
        return outcome

    def _rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken pool so later runs keep executing."""
        if self._pool is not broken:
            return  # another run already replaced it
        broken.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self.start()
        if self.registry is not None:
            self.registry.counter("service.pool_rebuilds").inc()


def _run_parallel(
    executor: RunExecutor,
    runs: Sequence[tuple[int, ExperimentConfig, str]],
    resolved: Callable[[int, object], None],
) -> None:
    """Drive probed misses through ``executor`` on a private event loop.

    ``runs`` are ``(index, config, run key)`` triples;
    ``resolved(index, outcome)`` fires as each run resolves, after its
    store write.  The executor's pool is shut down before this returns.
    """
    import asyncio

    async def one(index: int, cfg: ExperimentConfig, key: str) -> None:
        outcome, _how = await executor.run(index, cfg, key)
        resolved(index, outcome)

    async def main() -> None:
        try:
            await asyncio.gather(*(one(*run) for run in runs))
        finally:
            await executor.close()

    asyncio.run(main())


def run_configs(
    configs: Sequence[ExperimentConfig],
    workers: int = 0,
    *,
    progress: Optional[Callable[[int, int], None]] = None,
    return_failures: bool = False,
    store: StoreArg = None,
) -> list:
    """Run many experiments through a :class:`RunExecutor`.

    ``workers`` above 1 runs them on that many pool processes, otherwise
    in this process.  Results come back in config order.  Every config
    runs to completion even when some fail: failures become
    :class:`RunFailure` placeholders at their positions, and one
    :class:`SweepError` summarizing them is raised *after* the sweep
    (``return_failures=True`` returns the mixed list instead).

    ``store`` (a :class:`~repro.experiments.store.RunStore` or a
    directory path) makes the sweep resumable: stored configs are *not*
    re-run, and every fresh result is persisted as soon as it resolves,
    so a re-run after an interruption executes only the missing tail.  A
    sweep whose every config is stored starts neither an event loop nor
    a pool.  ``progress(done, total)`` fires once for the store hits,
    then as each remaining run completes.  Each config is hashed once.
    """
    configs = list(configs)
    total = len(configs)
    keys = [run_key(cfg) for cfg in configs]
    executor = RunExecutor(workers if workers > 1 else 0, open_store(store))
    results: list = [executor.probe(cfg, key) for cfg, key in zip(configs, keys)]
    misses = [(i, cfg, keys[i]) for i, cfg in enumerate(configs) if results[i] is None]
    done = total - len(misses)
    if progress is not None and done:
        progress(done, total)

    def resolved(index: int, outcome: object) -> None:
        nonlocal done
        results[index] = outcome
        done += 1
        if progress is not None:
            progress(done, total)

    if misses:
        _run_parallel(executor, misses, resolved)
    failures = [r for r in results if isinstance(r, RunFailure)]
    if failures and not return_failures:
        raise SweepError(failures, results)
    return results


def paired_plan(
    profile: Profile,
    xs: Iterable,
    make_config: Callable[[str, object, int], ExperimentConfig],
    trials: int | None = None,
    schemes: Sequence[str] = COMPARISON_SCHEMES,
) -> list[tuple[str, object, ExperimentConfig]]:
    """Enumerate a paired sweep's ``(scheme, x, config)`` plan.

    ``make_config(scheme, x, seed)`` builds the run config for one cell
    member; the plan holds every (x, trial, scheme) combination, with
    one seed per (x, trial) shared by all schemes.  The CLI's figures
    and the :mod:`repro.service` daemon's jobs run the same plan through
    :func:`run_configs` / :class:`RunExecutor`, so both produce
    bit-identical figures.
    """
    trials = profile.trials if trials is None else trials
    if trials < 1:
        raise ValueError("need at least one trial")
    plan: list[tuple[str, object, ExperimentConfig]] = []
    for x in xs:
        for trial in range(trials):
            seed = cell_seed(0, x, trial)
            for scheme in schemes:
                plan.append((scheme, x, make_config(scheme, x, seed)))
    return plan


def summarize_paired(
    plan: Sequence[tuple[str, object, ExperimentConfig]],
    results: Sequence,
) -> list[CellSummary]:
    """Group a plan's run outcomes into sorted per-cell summaries.

    ``results`` is the order-preserving outcome list for ``plan``
    (:class:`RunFailure` placeholders are dropped; cells with no
    survivors disappear).
    """
    grouped: dict[tuple[str, object], list[RunMetrics]] = {}
    for (scheme, x, _cfg), run in zip(plan, results):
        if isinstance(run, RunFailure):
            continue
        grouped.setdefault((scheme, x), []).append(run)
    return [
        CellSummary.from_runs(scheme, float(x), runs)  # type: ignore[arg-type]
        for (scheme, x), runs in sorted(grouped.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    ]

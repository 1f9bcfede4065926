"""``repro.service`` — the async sweep/results service.

The experiment layer answers "run this figure *here*, *now*"; this
package turns the same machinery into a long-lived daemon: submit a
run, sweep, or figure spec over HTTP, get a job id, poll or stream its
progress, and fetch results that are **bit-identical** to an in-process
``repro figure`` run — the daemon executes the exact
:class:`~repro.experiments.figures.FigurePlan` configs through the same
:class:`~repro.experiments.sweeps.RunExecutor` that CLI sweeps use and
reassembles them through the same summarization path.

Runs are kept in a plain :class:`~repro.experiments.store.RunStore`,
the same directory ``--store`` sweeps read and write.
``/api/v1/runs`` lists it with the store's own directory scan, so a
daemon and the ``repro store`` verbs working on one root always agree.

Layering (each module only looks down):

* :mod:`.jobs` — untrusted-JSON request parsing into immutable
  :class:`JobRequest` specs, request-key hashing, the mutable
  :class:`Job` record.
* :mod:`.scheduler` — :class:`JobScheduler`: priority queue, store-hit
  short-circuit, job coalescing; it hands every run to the shared
  ``RunExecutor`` (process pool, run coalescing, persist-on-resolve).
* :mod:`.http` — :class:`ServiceDaemon`: the stdlib-asyncio HTTP/1.1
  JSON API with SSE progress streams and ``/metrics``.
* :mod:`.client` — blocking :class:`ServiceClient` for scripts and the
  ``repro client`` CLI verbs.
* :mod:`.loadtest` — :func:`run_load_test`, the concurrent replay tool
  behind ``repro loadtest``.
* :mod:`.logs` — :class:`JsonLogger`, line-oriented structured logs
  with request/job/run correlation ids (``repro serve --log-json``).
* :mod:`.top` — :func:`run_top`, the live terminal dashboard behind
  ``repro top``.

Every request is traced end to end through these layers via
:mod:`repro.obs.spans`: the daemon roots an ``http.request`` span, the
scheduler hangs queue-wait/dedup/execute/store spans under it (including
in-worker spans propagated across the process boundary), and
``GET /api/v1/jobs/<id>/trace`` serves the assembled tree.
"""

from .client import ServiceClient, ServiceError
from .http import ServiceDaemon, build_service
from .jobs import DEFAULT_PRIORITY, Job, JobRequest, RequestError, parse_request
from .loadtest import run_load_test
from .logs import JsonLogger
from .scheduler import JobScheduler
from .top import render_top, run_top

__all__ = [
    "RequestError",
    "JobRequest",
    "Job",
    "parse_request",
    "DEFAULT_PRIORITY",
    "JobScheduler",
    "ServiceDaemon",
    "build_service",
    "ServiceClient",
    "ServiceError",
    "run_load_test",
    "JsonLogger",
    "render_top",
    "run_top",
]

"""Service request specs and job bookkeeping.

A request arrives as untrusted JSON and is parsed **once**, at
submission, into an immutable :class:`JobRequest`: the fully resolved
list of :class:`~repro.experiments.config.ExperimentConfig` runs plus
(for figures) the :class:`~repro.experiments.figures.FigurePlan` that
reassembles them into a figure.  Parsing is strict — unknown fields,
unknown config keys, and malformed values raise :class:`RequestError`
(HTTP 400) rather than silently executing a different experiment.

Every request gets a **request key**: the canonical hash of its kind,
presentation metadata, and the ordered content keys of its runs.  Two
byte-different JSON bodies that resolve to the same experiment hash the
same, which is what lets the scheduler coalesce concurrent duplicate
submissions onto one in-flight job.

:class:`Job` is the mutable execution record behind a job id: status,
progress, hit/executed/coalesced counts, and the order-preserving
result slots the scheduler fills in.  ``version`` bumps on every
mutation so SSE streams know when to emit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ..experiments.config import DENSITY_SWEEP, PROFILES, config_from_dict
from ..experiments.figures import FIGURES, FigurePlan, figure_from_results, figure_plan
from ..experiments.persistence import figure_payload
from ..experiments.store import canonical_json, run_key
from ..experiments.sweeps import RunFailure
from ..net.channel import ChannelSpec

__all__ = [
    "RequestError",
    "JobRequest",
    "Job",
    "parse_request",
    "DEFAULT_PRIORITY",
]

#: lower numbers drain first; interactive clients can jump the queue
DEFAULT_PRIORITY = 100

KINDS = ("run", "sweep", "figure")

_COMMON_FIELDS = {"kind", "priority"}
_FIELDS = {
    "run": _COMMON_FIELDS | {"config"},
    "sweep": _COMMON_FIELDS | {"configs"},
    "figure": _COMMON_FIELDS | {"figure", "profile", "trials", "n_nodes", "xs", "channel"},
}


class RequestError(ValueError):
    """A submission that cannot be turned into runs (HTTP 400)."""


@dataclass(frozen=True)
class JobRequest:
    """One parsed, validated submission."""

    kind: str
    priority: int
    #: normalized spec echoed back in status payloads
    spec: dict[str, Any]
    configs: tuple[Any, ...]
    #: content hash of each config, in plan order
    run_keys: tuple[str, ...]
    #: set for ``kind == "figure"``; reassembles results into the figure
    fplan: Optional[FigurePlan]
    #: canonical hash of (kind, spec metadata, run keys)
    request_key: str


@dataclass
class Job:
    """Execution record of one accepted request."""

    id: str
    request: JobRequest
    status: str = "queued"  # queued | running | done | failed
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: int = 0
    hits: int = 0
    executed: int = 0
    coalesced: int = 0
    error: Optional[str] = None
    #: order-preserving outcome slots (RunMetrics / RunFailure / None)
    results: list = field(default_factory=list)
    #: (position, config) pairs still to run when the job was queued
    pending: list = field(default_factory=list)
    #: resolved entirely from the store at submission time
    from_cache: bool = False
    #: bumped on every visible mutation (SSE change detection)
    version: int = 0
    #: trace id of the submitting request — the whole span tree of this
    #: job (queue wait, dedup verdicts, worker execution, store writes)
    #: resolves under it via ``GET /api/v1/jobs/<id>/trace``
    trace_id: Optional[str] = None
    #: live span handles (scheduler-internal; not part of job identity)
    span: Optional[Any] = field(default=None, repr=False, compare=False)
    queue_span: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def total(self) -> int:
        return len(self.request.configs)

    @property
    def terminal(self) -> bool:
        return self.status in ("done", "failed")

    def as_dict(self) -> dict[str, Any]:
        """The status payload (``GET /api/v1/jobs/<id>`` and SSE events)."""
        return {
            "id": self.id,
            "kind": self.request.kind,
            "status": self.status,
            "priority": self.request.priority,
            "request_key": self.request.request_key,
            "spec": self.request.spec,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "progress": {"done": self.done, "total": self.total},
            "runs": {
                "hits": self.hits,
                "executed": self.executed,
                "coalesced": self.coalesced,
                "failed": sum(1 for r in self.results if isinstance(r, RunFailure)),
            },
            "from_cache": self.from_cache,
            "error": self.error,
            "version": self.version,
            "trace_id": self.trace_id,
        }

    def result_payload(self) -> dict[str, Any]:
        """The results payload of a finished job.

        ``runs`` always carries the per-run outcomes keyed by content
        hash; figure jobs additionally reassemble their
        :class:`FigureResult` through the exact same
        ``figure_from_results``/``figure_payload`` path the in-process
        harness uses, so the figure dict is bit-identical to a direct
        ``repro figure`` run against the same store.
        """
        runs = []
        for key, outcome in zip(self.request.run_keys, self.results):
            if isinstance(outcome, RunFailure):
                runs.append(
                    {"key": key, "error": outcome.error, "traceback": outcome.traceback}
                )
            elif outcome is None:  # pragma: no cover - unfinished job defensive
                runs.append({"key": key, "error": "run did not complete"})
            else:
                runs.append({"key": key, "metrics": dataclasses.asdict(outcome)})
        payload: dict[str, Any] = {"id": self.id, "kind": self.request.kind, "runs": runs}
        if self.request.fplan is not None:
            ok = [r for r in self.results if not isinstance(r, RunFailure)]
            if len(ok) == len(self.results):
                payload["figure"] = figure_payload(
                    figure_from_results(self.request.fplan, self.results)
                )
        return payload


def request_key(kind: str, meta: dict[str, Any], run_keys: Sequence[str]) -> str:
    """Canonical identity of one request (dedup/coalescing key)."""
    body = {"kind": kind, "meta": meta, "runs": list(run_keys)}
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def parse_request(data: Any) -> JobRequest:
    """Validate an untrusted JSON submission into a :class:`JobRequest`."""
    if not isinstance(data, dict):
        raise RequestError("request body must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise RequestError(f"kind must be one of {KINDS}, got {kind!r}")
    unknown = set(data) - _FIELDS[kind]
    if unknown:
        raise RequestError(f"unknown request fields for kind {kind!r}: {sorted(unknown)}")
    priority = data.get("priority", DEFAULT_PRIORITY)
    if not _is_int(priority):
        raise RequestError(f"priority must be an integer, got {priority!r}")

    if kind == "run":
        configs = (_parse_config(data.get("config"), "config"),)
        meta: dict[str, Any] = {}
        fplan = None
        spec = {"config": dataclasses.asdict(configs[0])}
    elif kind == "sweep":
        raw = data.get("configs")
        if not isinstance(raw, list) or not raw:
            raise RequestError("sweep needs a non-empty 'configs' list")
        configs = tuple(
            _parse_config(item, f"configs[{i}]") for i, item in enumerate(raw)
        )
        meta = {}
        fplan = None
        spec = {"n_configs": len(configs)}
    else:  # figure
        fplan = _parse_figure_plan(data)
        configs = tuple(fplan.configs())
        meta = {
            "figure": fplan.figure_id,
            "title": fplan.title,
            "x_label": fplan.x_label,
            "labels": [label for label, _x, _cfg in fplan.plan],
        }
        spec = {
            "figure": fplan.figure_id,
            "profile": data.get("profile", "fast"),
            "trials": data.get("trials"),
            "n_nodes": data.get("n_nodes", DENSITY_SWEEP[-1]),
            "n_configs": len(configs),
        }

    keys = tuple(run_key(cfg) for cfg in configs)
    return JobRequest(
        kind=kind,
        priority=priority,
        spec={"kind": kind, **spec},
        configs=configs,
        run_keys=keys,
        fplan=fplan,
        request_key=request_key(kind, meta, keys),
    )


def _parse_config(raw: Any, where: str):
    if not isinstance(raw, dict):
        raise RequestError(f"{where} must be a config object")
    try:
        return config_from_dict(raw)
    except (TypeError, ValueError, KeyError) as exc:
        raise RequestError(f"bad {where}: {exc}") from exc


def _is_int(value: Any) -> bool:
    """Whether a JSON value is an integer (``true`` and ``1.0`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_figure_plan(data: dict[str, Any]) -> FigurePlan:
    figure_id = data.get("figure")
    if not isinstance(figure_id, str) or figure_id not in FIGURES:
        raise RequestError(f"unknown figure {figure_id!r} (have {sorted(FIGURES)})")
    profile_name = data.get("profile", "fast")
    if not isinstance(profile_name, str) or profile_name not in PROFILES:
        raise RequestError(
            f"unknown profile {profile_name!r} (have {sorted(PROFILES)})"
        )
    trials = data.get("trials")
    if trials is not None and (not _is_int(trials) or trials < 1):
        raise RequestError(f"trials must be a positive integer, got {trials!r}")
    n_nodes = data.get("n_nodes", DENSITY_SWEEP[-1])
    if not _is_int(n_nodes) or n_nodes < 1:
        raise RequestError(f"n_nodes must be a positive integer, got {n_nodes!r}")
    xs = data.get("xs")
    if xs is not None and (
        not isinstance(xs, list) or not xs or not all(_is_int(x) for x in xs)
    ):
        raise RequestError(f"xs must be a non-empty list of integers, got {xs!r}")
    channel = data.get("channel")
    if channel is not None:
        if not isinstance(channel, dict):
            raise RequestError("channel must be a channel-spec object")
        try:
            channel = ChannelSpec(**channel)
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad channel spec: {exc}") from exc
    try:
        return figure_plan(
            figure_id,
            PROFILES[profile_name](),
            trials=trials,
            channel=channel,
            n_nodes=n_nodes,
            xs=xs,
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise RequestError(f"cannot plan figure {figure_id!r}: {exc}") from exc

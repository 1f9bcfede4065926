"""Run and figure provenance manifests.

A manifest ties a result back to exactly what produced it: the full
config (every knob, not just the swept ones), the seed, the package
version, host/interpreter info, wall-clock cost, and the metrics summary.
``repro stats manifest.json`` pretty-prints one.  A run manifest holds
each counter once, under ``metrics``, and the simulator's histograms
under ``histograms``.  A saved figure is one ``kind: "figure"``
manifest: its ``cells`` are the figure's results, beside the profile,
channel and run-store hit/miss accounting of the sweep that made them
(``store=`` / ``--store``).  The config/version identity block captured
here is the same information the run store hashes into its content keys
(:mod:`repro.experiments.store`).

The schema is versioned (:data:`MANIFEST_VERSION`); loaders reject
versions they do not understand rather than misreading them.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import socket
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.config import ExperimentConfig, Profile
    from ..experiments.figures import FigureResult
    from ..experiments.metrics import RunMetrics
    from ..net.channel import ChannelSpec
    from ..sim.engine import Simulator
    from .registry import MetricsRegistry

__all__ = [
    "MANIFEST_VERSION",
    "build_run_manifest",
    "build_figure_manifest",
    "save_manifest",
    "load_manifest",
    "format_manifest",
]

MANIFEST_VERSION = 1


def _package_version() -> str:
    import repro  # late import: repro/__init__ may still be initializing at import time

    return getattr(repro, "__version__", "unknown")


def _environment() -> dict[str, Any]:
    return {
        "package": {"name": "repro", "version": _package_version()},
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "hostname": socket.gethostname(),
    }


def build_run_manifest(
    cfg: "ExperimentConfig",
    metrics: "RunMetrics",
    *,
    wall_time_s: float,
    sim: Optional["Simulator"] = None,
    registry: Optional["MetricsRegistry"] = None,
    profile_report: Optional[dict[str, Any]] = None,
    trace_path: Optional[Union[str, Path]] = None,
    field_info: Optional[dict[str, Any]] = None,
    audit: Optional[dict[str, Any]] = None,
    timeline: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble the provenance manifest for one experiment run.

    ``field_info`` records sensor-field provenance (connected-redraw
    count, whether the field came from the per-process cache) so cached
    and fresh fields are distinguishable when comparing runs.  ``audit``
    is an :meth:`~repro.obs.audit.Auditor.report` dict when the run was
    audited online.  ``timeline`` is a
    :meth:`~repro.obs.timeline.Timeline.accounting` block (probe list,
    cadence, sample count, bytes, artifact path) when the run sampled a
    probe timeline — mirroring the ``field``/``store`` blocks.
    """
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "run",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": _environment(),
        "config": dataclasses.asdict(cfg),
        "seed": cfg.seed,
        "wall_time_s": wall_time_s,
        "metrics": dataclasses.asdict(metrics),
    }
    if sim is not None:
        manifest["simulator"] = {
            "events_processed": sim.events_processed,
            "events_per_sec": sim.events_processed / wall_time_s if wall_time_s > 0 else 0.0,
            "cancelled_skipped": sim.cancelled_skipped,
            "sim_time_s": sim.now,
        }
    if field_info is not None:
        manifest["field"] = dict(field_info)
    if registry is not None:  # its counters and gauges are already in ``metrics``
        manifest["histograms"] = registry.snapshot()["histograms"]
    if profile_report is not None:
        manifest["profile"] = dict(profile_report)
    if trace_path is not None:
        manifest["trace_path"] = str(trace_path)
    if audit is not None:
        manifest["audit"] = dict(audit)
    if timeline is not None:
        manifest["timeline"] = dict(timeline)
    return manifest


def build_figure_manifest(
    result: "FigureResult",
    profile: "Profile",
    *,
    wall_time_s: float,
    trials: Optional[int] = None,
    workers: int = 0,
    store: Optional[dict[str, Any]] = None,
    channel: Optional["ChannelSpec"] = None,
) -> dict[str, Any]:
    """Assemble the provenance manifest for one figure sweep.

    ``repro fig --save`` writes it as the saved figure, the only file:
    its ``cells`` equal :func:`~repro.experiments.persistence.figure_payload`'s,
    and :func:`~repro.experiments.persistence.load_figure_json` reads it
    back into the :class:`~repro.experiments.figures.FigureResult`.
    ``channel`` is the sweep's channel spec, recorded as its asdict block
    (``null`` when the sweep ran its figure's default channel), so
    ``repro timeline <manifest> --cell`` re-runs a cell on the channel
    the figure used.  ``store`` records run-store accounting when the
    sweep consulted a content-addressed
    :class:`~repro.experiments.store.RunStore`:
    ``{"path": ..., "hits": ..., "misses": ..., "persisted": ...,
    "skipped": ...}`` — so a resumed figure is distinguishable from one
    computed in a single pass.
    """
    manifest: dict[str, Any] = {
        "manifest_version": MANIFEST_VERSION,
        "kind": "figure",
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": _environment(),
        "figure_id": result.figure_id,
        "title": result.title,
        "x_label": result.x_label,
        "profile": {
            "name": profile.name,
            "trials": trials if trials is not None else profile.trials,
            "duration": profile.duration,
            "warmup": profile.warmup,
        },
        "channel": dataclasses.asdict(channel) if channel is not None else None,
        "workers": workers,
        "wall_time_s": wall_time_s,
        "cells": [dataclasses.asdict(c) for c in result.cells],
    }
    if store is not None:
        manifest["store"] = dict(store)
    return manifest


def save_manifest(manifest: dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a manifest as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return path


def load_manifest(path: Union[str, Path]) -> dict[str, Any]:
    """Reload a manifest, validating its schema version."""
    data = json.loads(Path(path).read_text())
    version = data.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(f"unsupported manifest version: {version!r}")
    return data


def _fmt_kv(pairs: list[tuple[str, Any]]) -> list[str]:
    width = max(len(k) for k, _v in pairs)
    return [f"{k:<{width}}  {v}" for k, v in pairs]


def format_manifest(data: dict[str, Any], top_counters: int = 12) -> str:
    """Pretty-print a manifest (the ``repro stats`` backend)."""
    env = data.get("environment", {})
    pkg = env.get("package", {})
    lines: list[str] = [f"{data.get('kind', '?')} manifest (v{data.get('manifest_version')})"]
    pairs: list[tuple[str, Any]] = [
        ("created", data.get("created_at")),
        ("package", f"{pkg.get('name')} {pkg.get('version')}"),
        ("python", f"{env.get('python')} ({env.get('implementation')})"),
        ("host", f"{env.get('hostname')} / {env.get('platform')}"),
        ("wall time", f"{data.get('wall_time_s', 0.0):.3f} s"),
    ]
    if data.get("kind") == "run":
        cfg = data.get("config", {})
        m = data.get("metrics", {})
        pairs += [
            ("scheme", cfg.get("scheme")),
            ("nodes", cfg.get("n_nodes")),
            ("seed", data.get("seed")),
            ("duration", f"{cfg.get('duration')} s (warmup {cfg.get('warmup')} s)"),
            ("avg energy", f"{m.get('avg_dissipated_energy', 0.0):.6f} J/node/event"),
            ("avg delay", f"{m.get('avg_delay', 0.0):.4f} s"),
            ("delivery ratio", f"{m.get('delivery_ratio', 0.0):.3f}"),
            ("delivered/sent", f"{m.get('distinct_delivered')} / {m.get('events_sent')}"),
        ]
        ttfd = m.get("time_to_first_death")
        if ttfd is not None:
            pairs.append(("first death", f"{ttfd:.3f} s"))
        tthd = m.get("time_to_half_delivery")
        if tthd is not None:
            pairs.append(("half delivery", f"{tthd:.3f} s"))
        tl = data.get("timeline")
        if tl:
            pairs.append(
                (
                    "timeline",
                    f"{tl.get('samples')} samples @ {tl.get('interval')} s, "
                    f"{len(tl.get('probes', []))} probes, {tl.get('bytes', 0)} bytes",
                )
            )
        sim = data.get("simulator")
        if sim:
            pairs += [
                ("events", sim.get("events_processed")),
                ("events/sec", f"{sim.get('events_per_sec', 0.0):,.0f}"),
            ]
        audit = data.get("audit")
        if audit:
            pairs.append(
                (
                    "audit",
                    ("ok" if audit.get("ok") else "FAILED")
                    + f" ({audit.get('n_findings', 0)} findings, "
                    f"{audit.get('records_seen', 0)} records)",
                )
            )
        lines += _fmt_kv(pairs)
        by_class = m.get("energy_by_class") or {}
        if by_class:
            lines.append("")
            lines.append("energy by message class (post-warmup):")
            total = sum(by_class.values()) or 1.0
            width = max(len(k) for k in by_class)
            for k, v in sorted(by_class.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {k:<{width}}  {v:12.6f} J  ({100 * v / total:5.1f}%)")
        counters = m.get("counters") or {}
        if counters:
            lines.append("")
            lines.append(f"top counters ({min(top_counters, len(counters))} of {len(counters)}):")
            ranked = sorted(counters.items(), key=lambda kv: -kv[1])[:top_counters]
            width = max(len(k) for k, _ in ranked)
            lines += [f"  {k:<{width}}  {v}" for k, v in ranked]
        if "profile" in data:
            prof = data["profile"]
            layers = prof.get("layers") or {}
            top = ", ".join(
                f"{layer} {layers[layer]['share']:.1%}"
                for layer in sorted(layers, key=lambda k: -layers[k]["share"])[:4]
            )
            lines.append("")
            lines.append(
                f"profile: {prof.get('events_per_sec', 0.0):,.0f} events/sec, "
                f"heap max {prof.get('heap_max')}, top layers {top or '(none)'}"
            )
    elif data.get("kind") == "figure":
        prof = data.get("profile", {})
        pairs += [
            ("figure", f"{data.get('figure_id')}: {data.get('title')}"),
            ("profile", f"{prof.get('name')} (trials={prof.get('trials')})"),
            ("cells", len(data.get("cells", ()))),
        ]
        st = data.get("store")
        if st:
            pairs.append(
                (
                    "run store",
                    f"{st.get('hits', 0)} hits / {st.get('misses', 0)} misses "
                    f"({st.get('path')})",
                )
            )
        lines += _fmt_kv(pairs)
    else:
        lines += _fmt_kv(pairs)
    return "\n".join(lines)

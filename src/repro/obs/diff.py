"""Artifact classification and structured diffs between artifacts.

:func:`load_artifact` is the one place that decides what a file is; every
artifact verb (``stats``, ``audit``, ``diff``, ``timeline``) dispatches
on the kind it returns.

``repro diff a b`` compares two run manifests or store entries, two
saved figures, or two timelines.  Run manifests and store entries both
embed a ``RunMetrics`` asdict, so either diffs against the other.

The output is a plain JSON-ready dict (machine mode) with a table
renderer on top (human mode).  ``equal`` is strict: any metric, counter,
per-class energy bucket, or cell delta makes it False; environment and
timestamps are deliberately ignored (two runs of the same config on
different hosts should diff clean).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

__all__ = [
    "load_artifact",
    "diff_run_metrics",
    "diff_figure_cells",
    "diff_timelines",
    "diff_artifacts",
    "format_diff",
]

#: identity fields surfaced separately (a diff across these is a
#: different experiment, not a regression)
_IDENTITY_FIELDS = ("scheme", "n_nodes", "seed")

#: RunMetrics keys that are not scalars compared one by one
_RUN_NON_SCALARS = (*_IDENTITY_FIELDS, "counters", "energy_by_class")

#: the keys that match cells up between two figures
_CELL_KEYS = ("scheme", "x")


def load_artifact(path: Union[str, Path]) -> tuple[str, dict[str, Any]]:
    """Load an artifact and classify it: the one classifier of every verb.

    Returns ``(kind, payload)`` with kind one of ``"run"`` (run manifest),
    ``"figure"`` (a saved figure: its manifest), ``"store-entry"``,
    ``"timeline"`` (a saved probe timeline) or ``"trace"`` (a JSONL
    trace).  A trace is recognized by its first line, the ``meta``
    header, which is its payload: the rest of the file is left for the
    streaming readers.  Raises ``OSError`` for a file it cannot open
    (``FileNotFoundError`` for a missing one) and ``ValueError`` for one
    that is no artifact.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    try:
        with path.open() as fh:
            first = fh.readline()
            try:
                data = json.loads(first)
            except ValueError:  # e.g. the "{" opening a pretty-printed document
                data = None
            if isinstance(data, dict) and data.get("type") == "meta":
                return "trace", data
            rest = fh.read()
            if data is None or rest.strip():  # the first line was not the whole file
                data = json.loads(first + rest)
    except ValueError as exc:  # not JSON, or not text
        raise ValueError(
            f"{path}: unrecognized artifact (neither JSON nor a JSONL trace)"
        ) from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    if "timeline_version" in data:
        return "timeline", data
    if "manifest_version" in data:
        kind = data.get("kind")
        if kind in ("run", "figure"):
            return kind, data
        raise ValueError(f"{path}: unknown manifest kind {kind!r}")
    if "store_version" in data and "metrics" in data:
        return "store-entry", data
    raise ValueError(f"{path}: unrecognized artifact shape")


def _num_delta(a: Any, b: Any) -> dict[str, Any]:
    entry: dict[str, Any] = {"a": a, "b": b}
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        entry["delta"] = b - a
        if a:
            entry["rel"] = (b - a) / a
    return entry


def diff_run_metrics(
    metrics_a: dict[str, Any], metrics_b: dict[str, Any]
) -> dict[str, Any]:
    """Diff two RunMetrics asdicts (identity, scalars, classes, counters).

    Every key outside the identity fields, ``counters`` and
    ``energy_by_class`` is compared as a scalar.
    """
    identity = {
        name: {"a": metrics_a.get(name), "b": metrics_b.get(name)}
        for name in _IDENTITY_FIELDS
        if metrics_a.get(name) != metrics_b.get(name)
    }
    metrics = {
        name: _num_delta(metrics_a.get(name), metrics_b.get(name))
        for name in {**metrics_a, **metrics_b}
        if name not in _RUN_NON_SCALARS
        and metrics_a.get(name) != metrics_b.get(name)
    }

    cls_a = metrics_a.get("energy_by_class") or {}
    cls_b = metrics_b.get("energy_by_class") or {}
    energy_by_class = {
        cls: _num_delta(cls_a.get(cls, 0.0), cls_b.get(cls, 0.0))
        for cls in sorted(set(cls_a) | set(cls_b))
        if cls_a.get(cls, 0.0) != cls_b.get(cls, 0.0)
    }

    cnt_a = metrics_a.get("counters") or {}
    cnt_b = metrics_b.get("counters") or {}
    counters = {
        "added": {k: cnt_b[k] for k in sorted(set(cnt_b) - set(cnt_a))},
        "removed": {k: cnt_a[k] for k in sorted(set(cnt_a) - set(cnt_b))},
        "changed": {
            k: _num_delta(cnt_a[k], cnt_b[k])
            for k in sorted(set(cnt_a) & set(cnt_b))
            if cnt_a[k] != cnt_b[k]
        },
    }
    equal = not (
        identity
        or metrics
        or energy_by_class
        or counters["added"]
        or counters["removed"]
        or counters["changed"]
    )
    return {
        "kind": "run",
        "equal": equal,
        "identity": identity,
        "metrics": metrics,
        "energy_by_class": energy_by_class,
        "counters": counters,
    }


def diff_figure_cells(
    cells_a: list[dict[str, Any]], cells_b: list[dict[str, Any]]
) -> dict[str, Any]:
    """Diff two figure cell lists, matched on ``(scheme, x)``.

    Every other key of a cell is compared.
    """
    index_a = {(c["scheme"], c["x"]): c for c in cells_a}
    index_b = {(c["scheme"], c["x"]): c for c in cells_b}
    only_a = sorted(f"{s}@{x:g}" for (s, x) in set(index_a) - set(index_b))
    only_b = sorted(f"{s}@{x:g}" for (s, x) in set(index_b) - set(index_a))
    cells: dict[str, Any] = {}
    for key in sorted(set(index_a) & set(index_b)):
        ca, cb = index_a[key], index_b[key]
        changed = {
            name: _num_delta(ca.get(name), cb.get(name))
            for name in {**ca, **cb}
            if name not in _CELL_KEYS and ca.get(name) != cb.get(name)
        }
        if changed:
            cells[f"{key[0]}@{key[1]:g}"] = changed
    return {
        "kind": "figure",
        "equal": not (only_a or only_b or cells),
        "only_a": only_a,
        "only_b": only_b,
        "cells": cells,
    }


def diff_timelines(
    timeline_a: dict[str, Any], timeline_b: dict[str, Any]
) -> dict[str, Any]:
    """Diff two serialized timelines (cadence, probe sets, sampled series).

    ``equal`` means bit-identical: same sample times and, per probe, the
    exact same value column.  Per-probe deltas report how many samples
    differ, the largest absolute delta, and the final-value change —
    enough to see *when* two runs diverged without dumping every row.
    """
    times_a = list(timeline_a.get("times", []))
    times_b = list(timeline_b.get("times", []))
    probes_a = {p["name"]: p for p in timeline_a.get("probes", ())}
    probes_b = {p["name"]: p for p in timeline_b.get("probes", ())}
    shape: dict[str, Any] = {}
    for name, va, vb in (
        ("interval", timeline_a.get("interval"), timeline_b.get("interval")),
        ("duration", timeline_a.get("duration"), timeline_b.get("duration")),
        ("samples", len(times_a), len(times_b)),
    ):
        if va != vb:
            shape[name] = _num_delta(va, vb)
    if times_a != times_b and "samples" not in shape:
        shape["times"] = {"a": "differ", "b": "differ"}
    only_a = sorted(set(probes_a) - set(probes_b))
    only_b = sorted(set(probes_b) - set(probes_a))
    probes: dict[str, Any] = {}
    for name in sorted(set(probes_a) & set(probes_b)):
        va = list(probes_a[name].get("values", []))
        vb = list(probes_b[name].get("values", []))
        if va == vb:
            continue
        paired = list(zip(va, vb))
        n_diffs = sum(1 for a, b in paired if a != b) + abs(len(va) - len(vb))
        entry = {
            "n_diffs": n_diffs,
            "final": _num_delta(va[-1] if va else None, vb[-1] if vb else None),
        }
        numeric = [abs(b - a) for a, b in paired if a != b]
        if numeric:
            entry["max_abs_delta"] = max(numeric)
            first = next(i for i, (a, b) in enumerate(paired) if a != b)
            if first < min(len(times_a), len(times_b)):
                entry["first_diff_t"] = times_a[first]
        probes[name] = entry
    return {
        "kind": "timeline",
        "equal": not (shape or only_a or only_b or probes),
        "shape": shape,
        "only_a": only_a,
        "only_b": only_b,
        "probes": probes,
    }


def diff_artifacts(
    path_a: Union[str, Path], path_b: Union[str, Path]
) -> dict[str, Any]:
    """Load, classify, and diff two artifacts of compatible families."""
    kind_a, data_a = load_artifact(path_a)
    kind_b, data_b = load_artifact(path_b)
    run_like = {"run", "store-entry"}
    if kind_a == kind_b == "timeline":
        out = diff_timelines(data_a, data_b)
    elif kind_a in run_like and kind_b in run_like:
        out = diff_run_metrics(data_a.get("metrics", {}), data_b.get("metrics", {}))
    elif kind_a == kind_b == "figure":
        out = diff_figure_cells(data_a.get("cells", []), data_b.get("cells", []))
    else:
        raise ValueError(
            f"cannot diff {kind_a} against {kind_b}: per-run, per-figure, and "
            "timeline artifacts only diff within their family"
        )
    out["a"] = {"path": str(path_a), "kind": kind_a}
    out["b"] = {"path": str(path_b), "kind": kind_b}
    return out


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _fmt_delta(entry: dict[str, Any]) -> str:
    out = f"{_fmt_value(entry.get('a'))} -> {_fmt_value(entry.get('b'))}"
    if "rel" in entry:
        out += f"  ({entry['rel']:+.2%})"
    elif "delta" in entry:
        out += f"  ({entry['delta']:+g})"
    return out


def format_diff(diff: dict[str, Any], max_counters: int = 20) -> str:
    """Human-readable rendering of a :func:`diff_artifacts` result."""
    a, b = diff.get("a", {}), diff.get("b", {})
    lines = [f"diff {a.get('path')} ({a.get('kind')})  vs  {b.get('path')} ({b.get('kind')})"]
    if diff["equal"]:
        lines.append("identical (ignoring environment/timestamps)")
        return "\n".join(lines)
    if diff["kind"] == "run":
        if diff["identity"]:
            lines.append("identity (different experiments!):")
            for name, entry in diff["identity"].items():
                lines.append(f"  {name:<24} {_fmt_value(entry['a'])} -> {_fmt_value(entry['b'])}")
        if diff["metrics"]:
            lines.append("metrics:")
            for name, entry in diff["metrics"].items():
                lines.append(f"  {name:<24} {_fmt_delta(entry)}")
        if diff["energy_by_class"]:
            lines.append("energy by class (J):")
            for cls, entry in diff["energy_by_class"].items():
                lines.append(f"  {cls:<24} {_fmt_delta(entry)}")
        counters = diff["counters"]
        shown = 0
        if counters["changed"]:
            lines.append("counters changed:")
            for name, entry in counters["changed"].items():
                if shown >= max_counters:
                    lines.append(f"  ... {len(counters['changed']) - shown} more")
                    break
                lines.append(f"  {name:<40} {_fmt_delta(entry)}")
                shown += 1
        for label in ("added", "removed"):
            if counters[label]:
                names = ", ".join(list(counters[label])[:8])
                more = len(counters[label]) - 8
                lines.append(
                    f"counters only in {'b' if label == 'added' else 'a'} "
                    f"({len(counters[label])}): {names}{' ...' if more > 0 else ''}"
                )
    elif diff["kind"] == "timeline":
        if diff["shape"]:
            lines.append("shape:")
            for name, entry in diff["shape"].items():
                lines.append(f"  {name:<12} {_fmt_value(entry.get('a'))} -> {_fmt_value(entry.get('b'))}")
        for label, key in (("only in a", "only_a"), ("only in b", "only_b")):
            if diff[key]:
                lines.append(f"probes {label}: {', '.join(diff[key])}")
        for name, entry in diff["probes"].items():
            detail = f"{entry['n_diffs']} samples differ"
            if "first_diff_t" in entry:
                detail += f", first at t={_fmt_value(entry['first_diff_t'])}"
            if "max_abs_delta" in entry:
                detail += f", max |delta| {_fmt_value(entry['max_abs_delta'])}"
            lines.append(f"probe {name}: {detail}")
            lines.append(f"  {'final':<20} {_fmt_delta(entry['final'])}")
    else:
        for label, key in (("only in a", "only_a"), ("only in b", "only_b")):
            if diff[key]:
                lines.append(f"cells {label}: {', '.join(diff[key])}")
        for cell, changed in diff["cells"].items():
            lines.append(f"cell {cell}:")
            for name, entry in changed.items():
                lines.append(f"  {name:<20} {_fmt_delta(entry)}")
    return "\n".join(lines)

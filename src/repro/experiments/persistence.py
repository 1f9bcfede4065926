"""Result persistence: save and reload figure results as JSON/CSV,
plus run/figure provenance manifests.

Two complementary mechanisms persist sweep work:

* **Figure checkpoints** (this module): a finished
  :class:`~repro.experiments.figures.FigureResult` round-trips through
  JSON for later reporting or cross-profile comparison (EXPERIMENTS.md's
  tables are generated this way); CSV is a convenience export with one
  row per (scheme, sweep value).
* **The run store** (:mod:`repro.experiments.store`):
  per-run, content-addressed persistence that makes long sweeps
  crash-safe and incremental — each completed
  :class:`~repro.experiments.metrics.RunMetrics` is written atomically
  under its config's content hash, and ``run_configs(..., store=...)``
  skips runs already stored.

Provenance: every saved artifact can carry a ``manifest.json`` tying it
to the exact config/seed/version/host that produced it — the builders
and (re)loaders live in :mod:`repro.obs.manifest` and are re-exported
here so persistence stays the one-stop module for disk formats.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union, get_type_hints

from ..obs.manifest import (
    build_figure_manifest,
    build_run_manifest,
    load_manifest,
    save_manifest,
)
from .figures import FigureResult
from .sweeps import CellSummary

__all__ = [
    "figure_payload",
    "figure_from_payload",
    "save_figure_json",
    "load_figure_json",
    "export_figure_csv",
    "save_manifest",
    "load_manifest",
    "build_run_manifest",
    "build_figure_manifest",
    "manifest_path_for",
]


def manifest_path_for(result_path: Union[str, Path]) -> Path:
    """Conventional manifest location next to a saved result file."""
    p = Path(result_path)
    return p.with_name(p.stem + ".manifest.json")

_FORMAT_VERSION = 1

#: ``(name, type)`` of each :class:`CellSummary` field, in declaration
#: order: the one list of a cell's JSON keys and CSV columns
_CELL_FIELDS = tuple(get_type_hints(CellSummary).items())


def figure_payload(result: FigureResult) -> dict:
    """The JSON-friendly dict of one figure result (lossless).

    Shared by :func:`save_figure_json` and the :mod:`repro.service`
    results API, so a figure fetched over HTTP is byte-identical to one
    saved locally.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "figure_id": result.figure_id,
        "title": result.title,
        "x_label": result.x_label,
        "cells": [
            {name: getattr(c, name) for name, _type in _CELL_FIELDS}
            for c in result.cells
        ],
    }


def save_figure_json(result: FigureResult, path: Union[str, Path]) -> Path:
    """Serialize a figure result (lossless round trip)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(figure_payload(result), indent=2, sort_keys=True))
    return path


def load_figure_json(path: Union[str, Path]) -> FigureResult:
    """Reload a figure result saved by :func:`save_figure_json`."""
    return figure_from_payload(json.loads(Path(path).read_text()))


def figure_from_payload(payload: dict) -> FigureResult:
    """Rebuild a :class:`FigureResult` from its :func:`figure_payload` dict."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported figure file version: {version!r}")
    cells = tuple(
        CellSummary(**{name: kind(c[name]) for name, kind in _CELL_FIELDS})
        for c in payload["cells"]
    )
    return FigureResult(
        figure_id=payload["figure_id"],
        title=payload["title"],
        x_label=payload["x_label"],
        cells=cells,
    )


def export_figure_csv(result: FigureResult, path: Union[str, Path]) -> Path:
    """Write one CSV row per cell (for spreadsheets / plotting tools)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rest = [name for name, _type in _CELL_FIELDS if name not in ("scheme", "x")]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["figure_id", result.x_label, "scheme", *rest])
        for c in sorted(result.cells, key=lambda c: (c.x, c.scheme)):
            writer.writerow(
                [result.figure_id, c.x, c.scheme, *(getattr(c, name) for name in rest)]
            )
    return path

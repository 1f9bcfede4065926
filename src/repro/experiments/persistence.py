"""Figure persistence: the saved figure, its CSV export and the payload
the service serves, plus the run/figure manifest builders.

Two complementary mechanisms persist sweep work:

* **The saved figure**: ``repro fig --save PATH`` writes one file, the
  figure manifest (:func:`~repro.obs.manifest.build_figure_manifest`).
  Its ``cells`` are the figure's results, next to the profile, channel
  and store accounting of the sweep that made them, and
  :func:`load_figure_json` reads it back into the same
  :class:`~repro.experiments.figures.FigureResult` (EXPERIMENTS.md's
  tables are generated this way).  :func:`figure_payload` is the dict
  the :mod:`repro.service` results API serves, with the same cells; CSV
  is a convenience export with one row per (scheme, sweep value).
* **The run store** (:mod:`repro.experiments.store`):
  per-run, content-addressed persistence that makes long sweeps
  crash-safe and incremental — each completed
  :class:`~repro.experiments.metrics.RunMetrics` is written atomically
  under its config's content hash, and ``run_configs(..., store=...)``
  skips runs already stored.

The manifest builders and (re)loaders live in :mod:`repro.obs.manifest`
and are re-exported here so persistence stays the one-stop module for
disk formats.
"""

from __future__ import annotations

import csv
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
    "load_figure_json",
    "export_figure_csv",
    "save_manifest",
    "load_manifest",
    "build_run_manifest",
    "build_figure_manifest",
]

_FORMAT_VERSION = 1

#: ``(name, type)`` of each :class:`CellSummary` field, in declaration
#: order: the one list of a cell's JSON keys and CSV columns
_CELL_FIELDS = tuple(get_type_hints(CellSummary).items())


def figure_payload(result: FigureResult) -> dict:
    """The JSON-friendly dict of one figure result.

    The :mod:`repro.service` results API serves it; its ``cells`` equal
    those of the figure ``repro fig --save`` writes.
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


def load_figure_json(path: Union[str, Path]) -> FigureResult:
    """Reload the figure that ``repro fig --save`` wrote at ``path``.

    Rejects another manifest version or kind with ``ValueError`` and
    coerces each cell value to its :class:`CellSummary` field type.
    """
    data = load_manifest(path)
    if data.get("kind") != "figure":
        raise ValueError(f"{path}: a {data.get('kind')!r} manifest, not a saved figure")
    cells = tuple(
        CellSummary(**{name: kind(c[name]) for name, kind in _CELL_FIELDS})
        for c in data["cells"]
    )
    return FigureResult(
        figure_id=data["figure_id"],
        title=data["title"],
        x_label=data["x_label"],
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

"""Tests for figure persistence: the saved figure and its CSV export."""

import json

import pytest

from repro.experiments.config import smoke
from repro.experiments.figures import FigureResult
from repro.experiments.persistence import (
    build_figure_manifest,
    export_figure_csv,
    load_figure_json,
    save_manifest,
)
from repro.experiments.sweeps import CellSummary


def figure():
    cells = tuple(
        CellSummary(
            scheme=scheme,
            x=float(x),
            energy=0.001 * x / 100 + (0.0001 if scheme == "opportunistic" else 0.0),
            energy_stdev=0.00001,
            delay=0.25,
            ratio=0.98,
            n_runs=3,
            distinct_delivered=400.0,
        )
        for x in (50, 350)
        for scheme in ("opportunistic", "greedy")
    )
    return FigureResult("fig5", "density sweep", "nodes", cells)


def save_figure(result, path):
    """What ``repro fig --save`` writes: the figure manifest, one file."""
    return save_manifest(build_figure_manifest(result, smoke(), wall_time_s=1.0), path)


class TestJsonRoundTrip:
    def test_round_trip_identity(self, tmp_path):
        original = figure()
        path = save_figure(original, tmp_path / "fig5.json")
        loaded = load_figure_json(path)
        assert loaded == original

    def test_savings_preserved(self, tmp_path):
        original = figure()
        loaded = load_figure_json(save_figure(original, tmp_path / "f.json"))
        assert loaded.energy_savings(350) == pytest.approx(original.energy_savings(350))

    def test_creates_parent_dirs(self, tmp_path):
        path = save_figure(figure(), tmp_path / "a" / "b" / "f.json")
        assert path.exists()

    def test_version_check(self, tmp_path):
        path = save_figure(figure(), tmp_path / "f.json")
        payload = json.loads(path.read_text())
        payload["manifest_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_figure_json(path)

    def test_kind_check(self, tmp_path):
        path = save_figure(figure(), tmp_path / "f.json")
        payload = json.loads(path.read_text())
        payload["kind"] = "run"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not a saved figure"):
            load_figure_json(path)

    def test_cells_coerced_to_field_types(self, tmp_path):
        path = save_figure(figure(), tmp_path / "f.json")
        payload = json.loads(path.read_text())
        for cell in payload["cells"]:
            cell["x"] = int(cell["x"])  # JSON written by hand may drop the .0
        path.write_text(json.dumps(payload))
        loaded = load_figure_json(path)
        assert all(type(c.x) is float for c in loaded.cells)
        assert loaded == figure()


class TestCsvExport:
    def test_csv_rows(self, tmp_path):
        path = export_figure_csv(figure(), tmp_path / "f.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + 4 cells
        assert lines[0].startswith("figure_id,nodes,scheme")

    def test_csv_sorted_by_x_then_scheme(self, tmp_path):
        path = export_figure_csv(figure(), tmp_path / "f.csv")
        rows = path.read_text().strip().splitlines()[1:]
        keys = [(float(r.split(",")[1]), r.split(",")[2]) for r in rows]
        assert keys == sorted(keys)

"""The figure table, its plans, and small-scale runs of them (full
fidelity runs live in benchmarks/)."""

import hashlib
import json

import pytest

from repro.experiments.config import fast, paper, smoke
from repro.experiments.figures import (
    FIGURES,
    figure_cell_config,
    figure_plan,
    git_vs_spt_table,
    run_figure_plan,
)
from repro.experiments.store import run_key

#: sha256 prefixes of every default plan's title, x label and ordered
#: ``(label, x, run_key)`` triples (8 ids x 3 profiles, 1,484 configs):
#: a changed plan, title or store key changes its digest
PLAN_DIGESTS = {
    "channel-density/fast": "8c406d2a88323f6b",
    "channel-density/paper": "fa86cde019739120",
    "channel-density/smoke": "0a78280b380e9d26",
    "fig10/fast": "ea5487b9caccedf3",
    "fig10/paper": "0096b092ce983f16",
    "fig10/smoke": "ccf084e8153824c1",
    "fig5/fast": "c551aaa7e02c17a4",
    "fig5/paper": "cb5a5d45d729918c",
    "fig5/smoke": "8ea3e1be4b8b8f38",
    "fig6/fast": "fa647b02f230c262",
    "fig6/paper": "c536cd188424edd2",
    "fig6/smoke": "dbea4724bbdf6c2b",
    "fig7/fast": "fa97038381bc8a9c",
    "fig7/paper": "e735817d2bda8d91",
    "fig7/smoke": "79962a5644698efb",
    "fig8/fast": "6f3aa87fa7c729b9",
    "fig8/paper": "0132d79adf89d06b",
    "fig8/smoke": "9940eeb0e54775db",
    "fig9/fast": "26cc850be6f9cc9b",
    "fig9/paper": "9fdb8d2831587ad8",
    "fig9/smoke": "ce03f13c01978f4b",
    "large-density/fast": "303d4efabc244b4e",
    "large-density/paper": "254af87a739b9521",
    "large-density/smoke": "a9eca8a9ac5f064d",
}

PROFILES = {"smoke": smoke, "fast": fast, "paper": paper}


def plan_digest(fplan) -> str:
    payload = [
        fplan.title,
        fplan.x_label,
        [[label, x, run_key(cfg)] for label, x, cfg in fplan.plan],
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


class TestFigureHarness:
    def test_registry_covers_all_evaluation_figures(self):
        assert set(FIGURES) == {
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "large-density",
            "channel-density",
        }

    def test_figure5_tiny(self):
        result = run_figure_plan(figure_plan("fig5", smoke(), trials=1, xs=(50,)))
        assert result.figure_id == "fig5"
        assert result.xs() == [50.0]
        assert {c.scheme for c in result.cells} == {"opportunistic", "greedy"}
        for c in result.cells:
            assert c.energy > 0
            assert 0 <= c.ratio <= 1

    def test_figure9_tiny(self):
        fplan = figure_plan("fig9", smoke(), trials=1, n_nodes=60, xs=(2,))
        result = run_figure_plan(fplan)
        assert result.xs() == [2.0]
        assert all(c.n_runs == 1 for c in result.cells)

    def test_savings_computable(self):
        result = run_figure_plan(figure_plan("fig5", smoke(), trials=1, xs=(60,)))
        s = result.energy_savings(60)
        assert -1.0 < s < 1.0


class TestFigurePlan:
    def test_every_plan_matches_its_recorded_digest(self):
        digests = {
            f"{figure_id}/{name}": plan_digest(figure_plan(figure_id, make()))
            for figure_id in FIGURES
            for name, make in PROFILES.items()
        }
        assert digests == PLAN_DIGESTS

    def test_n_nodes_and_xs_override_the_row(self):
        fplan = figure_plan("fig9", smoke(), trials=1, n_nodes=60, xs=[2])
        assert fplan.title == "Impact of the number of sources (60 nodes)"
        assert [(label, x) for label, x, _cfg in fplan.plan] == [
            ("opportunistic", 2),
            ("greedy", 2),
        ]
        assert {(cfg.n_nodes, cfg.n_sources) for cfg in fplan.configs()} == {(60, 2)}

    def test_unknown_figure_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown figure"):
            figure_plan("fig11", smoke())


class TestFigureCellConfig:
    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_first_cell_matches_the_plan(self, figure_id):
        label, x, cfg = figure_plan(figure_id, smoke()).plan[0]
        assert figure_cell_config(figure_id, smoke(), label, float(x)) == cfg

    @pytest.mark.parametrize("figure_id", sorted(FIGURES))
    def test_label_outside_the_row_raises(self, figure_id):
        with pytest.raises(ValueError, match="no 'flooding' cells"):
            figure_cell_config(figure_id, smoke(), "flooding", 150)

    def test_channel_density_needs_a_channel_label(self):
        with pytest.raises(ValueError):
            figure_cell_config("channel-density", smoke(), "greedy", 150)
        cfg = figure_cell_config("channel-density", smoke(), "greedy@pathloss", 150)
        assert cfg.channel.model == "pathloss"


class TestGitVsSptTable:
    def test_rows_cover_all_placements(self):
        rows = git_vs_spt_table(n_nodes=(80,), n_sources=3, trials=2, seed=1)
        assert {r["placement"] for r in rows} == {
            "event-radius",
            "random-sources",
            "corner",
        }
        for r in rows:
            assert r["mean_spt_cost"] >= r["mean_git_cost"] > 0

"""Tests for the command-line driver."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scheme == "greedy"
        assert args.nodes == 150

    def test_fig_choices(self):
        args = build_parser().parse_args(["fig", "fig5", "--profile", "smoke"])
        assert args.figure == "fig5"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "fig99"])

    def test_trees_args(self):
        args = build_parser().parse_args(["trees", "--nodes", "100", "200"])
        assert args.nodes == [100, 200]

    def test_unknown_trace_category_is_a_usage_error(self, tmp_path, capsys):
        # rejected before the run starts, so no half-written trace is left
        trace = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--trace-out", str(trace), "--trace-categories", "phy.txx"])
        assert excinfo.value.code == 2
        assert "phy.txx" in capsys.readouterr().err
        assert not trace.exists()


class TestExecution:
    def test_run_command(self, capsys):
        rc = main(
            [
                "run",
                "--scheme",
                "opportunistic",
                "-n",
                "50",
                "--duration",
                "25",
                "--warmup",
                "10",
                "--seed",
                "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "avg dissipated energy" in out
        assert "delivery ratio" in out

    def test_trees_command(self, capsys):
        rc = main(["trees", "--nodes", "80", "--trials", "2", "--sources", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "corner" in out
        assert "event-radius" in out

    def test_all_command_parses(self):
        args = build_parser().parse_args(["all", "--profile", "smoke", "--trials", "1"])
        assert args.profile == "smoke"
        assert args.trials == 1

    def test_all_command_runs_the_paper_rows_in_id_order(self, monkeypatch, capsys):
        import repro.cli as cli

        ran = []

        def fake_run(fplan, **_kwargs):
            ran.append((fplan.figure_id, len(fplan.plan)))
            return fplan.figure_id

        monkeypatch.setattr(cli, "run_figure_plan", fake_run)
        monkeypatch.setattr(cli, "format_figure", lambda result: f"figure {result}")
        monkeypatch.setattr(cli, "git_vs_spt_table", lambda: [])
        monkeypatch.setattr(cli, "format_tree_table", lambda rows: "trees")
        assert main(["all", "--profile", "smoke", "--trials", "1"]) == 0
        assert [figure_id for figure_id, _n in ran] == [
            "fig10", "fig5", "fig6", "fig7", "fig8", "fig9"
        ]
        # one trial: 7 densities or 5 sink/source counts, 2 schemes each
        assert dict(ran) == {
            "fig10": 10, "fig5": 14, "fig6": 14, "fig7": 14, "fig8": 10, "fig9": 10
        }
        out = capsys.readouterr().out
        assert out.index("figure fig10") < out.index("figure fig9") < out.index("trees")

    def test_client_submit_figure_sends_the_figure_spec(self, monkeypatch, capsys):
        from repro.service.client import ServiceClient

        sent = []

        def fake_submit(self, spec):
            sent.append(spec)
            return {"job": {"id": "job-000001"}, "coalesced": False}

        monkeypatch.setattr(ServiceClient, "submit", fake_submit)
        rc = main([
            "client", "submit", "--figure", "fig9", "--profile", "smoke",
            "--n-nodes", "60", "--xs", "2", "5", "--priority", "3",
            "--channel", "pathloss", "--bands", "2",
        ])
        assert rc == 0
        (spec,) = sent
        channel = spec.pop("channel")
        assert spec == {
            "kind": "figure", "figure": "fig9", "profile": "smoke",
            "n_nodes": 60, "xs": [2, 5], "priority": 3,
        }
        assert channel["model"] == "pathloss" and channel["n_bands"] == 2
        assert "job-000001" in capsys.readouterr().out

    RUN = ["run", "-n", "40", "--duration", "15", "--warmup", "6"]

    def test_run_store_second_run_is_a_hit(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = [*self.RUN, "--store", str(store)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        [entry] = (store / "runs").glob("*.json")
        stored = entry.read_bytes()
        assert main(argv) == 0
        # the hit prints the stored metrics exactly as the run did
        assert capsys.readouterr().out == f"run store: hit ({store})\n" + first
        assert list((store / "runs").glob("*.json")) == [entry]
        assert entry.read_bytes() == stored

    def test_failing_stored_run_exits_nonzero_and_names_its_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import sweeps

        def boom(cfg, obs=None):
            raise RuntimeError("no field today")

        monkeypatch.setattr(sweeps, "run_experiment", boom)
        store = tmp_path / "store"
        assert main([*self.RUN, "--store", str(store)]) == 1
        assert "run: RuntimeError: no field today" in capsys.readouterr().err
        assert not list(store.glob("runs/*.json"))

    def test_inspect_command(self, capsys):
        rc = main(["inspect", "-n", "60", "--sources", "3", "--duration", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live tree" in out
        assert "centralized references" in out
        assert "->" in out


#: which verbs read which artifact kind; every other verb exits 2 and
#: names these (mirrors ``repro.cli._ARTIFACT_READERS``)
READERS = {
    "run": {"stats", "audit", "diff", "timeline"},
    "figure": {"stats", "audit", "diff", "timeline"},
    "store-entry": {"audit", "diff", "timeline"},
    "timeline": {"diff", "timeline"},
    "trace": {"stats", "audit"},
}

#: files that are no artifact, by name, and what every verb says about
#: each: the fixture writes them (leaving "missing" absent)
NOT_ARTIFACTS = {
    "missing": "no such file",
    "metrics-only": "unrecognized",
    "cells-only": "unrecognized",
    "not-json": "unrecognized",
    # a figure result as older checkouts saved it, beside its manifest
    "old-figure-json": "unrecognized",
    # a Chrome trace is for viewing only, with counter tracks or without
    "chrome-export": "unrecognized",
}


def figure_result():
    from repro.experiments.figures import FigureResult
    from repro.experiments.sweeps import CellSummary

    cells = tuple(
        CellSummary(scheme, x, 1e-4 * x / 50, 0.0, 0.2, 0.9, 1, 10.0)
        for x in (50.0, 150.0)
        for scheme in ("opportunistic", "greedy")
    )
    return FigureResult("fig5", "Greedy vs opportunistic", "nodes", cells)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One file of each kind, from a real run and a real saved figure."""
    from repro.experiments.config import smoke
    from repro.experiments.persistence import (
        build_figure_manifest,
        figure_payload,
        save_manifest,
    )
    from repro.obs import Timeline, write_chrome_trace

    root = tmp_path_factory.mktemp("artifacts")
    store = root / "store"
    assert main([
        "run", "-n", "30", "--duration", "10", "--warmup", "4",
        "--trace-out", str(root / "trace.jsonl"),
        "--manifest", str(root / "run.json"),
        "--timeline-out", str(root / "timeline.json"),
        "--store", str(store),
    ]) == 0
    timeline = Timeline.from_dict(json.loads((root / "timeline.json").read_text()))
    result = figure_result()
    save_manifest(build_figure_manifest(result, smoke(), wall_time_s=1.0), root / "fig5.json")
    [entry] = (store / "runs").glob("*.json")
    paths = {
        "run": root / "run.json",
        "figure": root / "fig5.json",
        "store-entry": entry,
        "timeline": root / "timeline.json",
        "trace": root / "trace.jsonl",
    }
    contents = {
        "metrics-only": '{"metrics": {}}',
        "cells-only": '{"cells": []}',
        "not-json": "this is not JSON\n",
        "old-figure-json": json.dumps(figure_payload(result), indent=2, sort_keys=True),
    }
    for name in NOT_ARTIFACTS:
        paths[name] = root / f"{name}.json"
        if name in contents:
            paths[name].write_text(contents[name])
    write_chrome_trace(paths["chrome-export"], timeline=timeline)
    return paths, timeline


class TestArtifactVerbs:
    def test_the_table_is_the_cli_table(self):
        from repro.cli import _ARTIFACT_READERS

        assert {kind: set(verbs) for kind, verbs in _ARTIFACT_READERS.items()} == READERS

    @pytest.mark.parametrize("name", [*READERS, *NOT_ARTIFACTS])
    @pytest.mark.parametrize("verb", ["stats", "audit", "diff", "timeline"])
    def test_verb_reads_its_kinds_and_names_the_readers_of_others(
        self, artifacts, monkeypatch, capsys, verb, name
    ):
        import repro.cli

        paths, timeline = artifacts
        # a figure cell re-run is the only live run a verb can start here
        monkeypatch.setattr(repro.cli, "_timeline_from_live_run", lambda cfg, i: timeline)
        path = str(paths[name])
        argv = {"diff": ["diff", path, path], "timeline": ["timeline", path]}.get(
            verb, [verb, path]
        )
        if verb == "timeline" and name == "figure":
            argv += ["--cell", "greedy@50"]
        rc = main(argv)
        err = capsys.readouterr().err
        if name in NOT_ARTIFACTS:
            assert rc == 2
            assert NOT_ARTIFACTS[name] in err
        elif verb in READERS[name]:
            assert (rc, err) == (0, "")
        else:
            assert rc == 2
            assert f"is a {name.replace('-', ' ')}" in err
            for reader in READERS[name]:
                assert f"'repro {reader}'" in err

    @pytest.mark.parametrize("verb", ["stats", "audit"])
    def test_torn_trace_line_exits_2(self, tmp_path, capsys, verb):
        path = tmp_path / "t.jsonl"
        path.write_text('{"type": "meta", "trace_version": 1}\n{"type": "rec\n')
        assert main([verb, str(path)]) == 2
        assert "bad trace line" in capsys.readouterr().err


class TestSavedFigure:
    def test_fig_save_writes_one_document_that_every_verb_reads(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.cli
        from repro.experiments.persistence import figure_payload, load_figure_json
        from repro.obs import Timeline

        result = figure_result()
        plans = []

        def sweep(plan, **kwargs):
            plans.append(plan)
            return result

        monkeypatch.setattr(repro.cli, "run_figure_plan", sweep)
        out = tmp_path / "out"
        save, csv = out / "fig5.json", out / "fig5.csv"
        assert main([
            "fig", "fig5", "--profile", "smoke", "--trials", "1",
            "--save", str(save), "--csv", str(csv),
        ]) == 0
        assert len(plans) == 1
        assert f"saved: {save}" in capsys.readouterr().out
        # one JSON document, beside the CSV export
        assert sorted(path.name for path in out.iterdir()) == ["fig5.csv", "fig5.json"]
        assert load_figure_json(save) == result
        data = json.loads(save.read_text())
        assert data["kind"] == "figure"
        assert data["cells"] == figure_payload(result)["cells"]
        assert data["profile"]["name"] == "smoke" and data["profile"]["trials"] == 1
        assert "result_path" not in data and "n_cells" not in data

        timeline = Timeline.from_dict({
            "timeline_version": 1, "interval": 1.0, "duration": 1.0,
            "times": [0.0], "probes": [{"name": "nodes.alive", "kind": "int", "values": [4]}],
        })
        monkeypatch.setattr(repro.cli, "_timeline_from_live_run", lambda cfg, i: timeline)
        for argv in (
            ["stats", str(save)],
            ["audit", str(save)],
            ["diff", str(save), str(save)],
            ["timeline", str(save), "--cell", "greedy@150"],
        ):
            assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "figure manifest" in captured.out
        assert re.search(r"^cells +4$", captured.out, re.M)
        assert "source: live re-run (fig5 greedy@150 trial 0, profile smoke)" in captured.out

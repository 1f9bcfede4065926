"""Tests for the command-line driver."""

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

    def test_inspect_command(self, capsys):
        rc = main(["inspect", "-n", "60", "--sources", "3", "--duration", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live tree" in out
        assert "centralized references" in out
        assert "->" in out

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

    def test_inspect_command(self, capsys):
        rc = main(["inspect", "-n", "60", "--sources", "3", "--duration", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "live tree" in out
        assert "centralized references" in out
        assert "->" in out

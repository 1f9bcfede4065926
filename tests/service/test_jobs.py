"""Request parsing: untrusted JSON -> validated JobRequest."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentConfig, smoke
from repro.experiments.figures import figure_plan
from repro.experiments.store import run_key
from repro.service.jobs import DEFAULT_PRIORITY, RequestError, parse_request


def _smoke_config_dict(seed=1, **overrides):
    cfg = ExperimentConfig.from_profile(smoke(), "greedy", 50, seed=seed, **overrides)
    return dataclasses.asdict(cfg)


class TestParseRun:
    def test_round_trips_config(self):
        raw = _smoke_config_dict()
        request = parse_request({"kind": "run", "config": raw})
        assert request.kind == "run"
        assert request.priority == DEFAULT_PRIORITY
        assert len(request.configs) == 1
        assert dataclasses.asdict(request.configs[0]) == raw
        assert request.run_keys == (run_key(request.configs[0]),)
        assert request.fplan is None

    def test_unknown_config_key_rejected(self):
        raw = _smoke_config_dict()
        raw["surprise"] = 7
        with pytest.raises(RequestError, match="surprise"):
            parse_request({"kind": "run", "config": raw})

    def test_bad_value_rejected(self):
        raw = _smoke_config_dict()
        raw["scheme"] = "magic"
        with pytest.raises(RequestError, match="scheme"):
            parse_request({"kind": "run", "config": raw})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(RequestError, match="unknown request fields"):
            parse_request({"kind": "run", "config": _smoke_config_dict(), "mode": "x"})


class TestParseSweep:
    def test_preserves_order_and_keys(self):
        raws = [_smoke_config_dict(seed=s) for s in (1, 2, 3)]
        request = parse_request({"kind": "sweep", "configs": raws})
        assert [c.seed for c in request.configs] == [1, 2, 3]
        assert request.run_keys == tuple(run_key(c) for c in request.configs)

    def test_empty_sweep_rejected(self):
        with pytest.raises(RequestError, match="non-empty"):
            parse_request({"kind": "sweep", "configs": []})


class TestParseFigure:
    def test_matches_in_process_plan(self):
        """The service must enumerate exactly the harness's run plan."""
        request = parse_request(
            {"kind": "figure", "figure": "fig5", "profile": "smoke", "xs": [50, 100]}
        )
        fplan = figure_plan("fig5", smoke(), xs=[50, 100])
        assert request.fplan is not None
        assert request.configs == tuple(fplan.configs())
        assert request.spec["figure"] == "fig5"

    def test_unknown_figure_rejected(self):
        with pytest.raises(RequestError, match="unknown figure"):
            parse_request({"kind": "figure", "figure": "fig99"})

    def test_unknown_profile_rejected(self):
        with pytest.raises(RequestError, match="unknown profile"):
            parse_request({"kind": "figure", "figure": "fig5", "profile": "warp"})

    def test_bad_channel_rejected(self):
        with pytest.raises(RequestError, match="channel"):
            parse_request(
                {"kind": "figure", "figure": "fig5", "channel": {"model": "psychic"}}
            )

    def test_bad_trials_rejected(self):
        with pytest.raises(RequestError, match="trials"):
            parse_request({"kind": "figure", "figure": "fig5", "trials": 0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("figure", ["fig5"]),
            ("profile", ["smoke"]),
            ("xs", ["a"]),
            ("xs", [{}]),
            ("xs", [50.7]),
            ("trials", True),
            ("n_nodes", True),
        ],
        ids=["list-figure", "list-profile", "str-x", "object-x", "float-x",
             "bool-trials", "bool-n_nodes"],
    )
    def test_malformed_field_is_a_request_error(self, field, value):
        """Not a TypeError/ValueError (HTTP 500), nor silently coerced."""
        with pytest.raises(RequestError, match=field):
            parse_request(
                {"kind": "figure", "figure": "fig5", "profile": "smoke", field: value}
            )


class TestRequestKey:
    def test_same_experiment_same_key(self):
        """Byte-different JSON resolving to the same runs coalesces."""
        a = parse_request(
            {"kind": "figure", "figure": "fig5", "profile": "smoke", "xs": [50]}
        )
        b = parse_request(
            {"xs": [50], "profile": "smoke", "figure": "fig5", "kind": "figure"}
        )
        assert a.request_key == b.request_key

    def test_different_runs_different_key(self):
        a = parse_request(
            {"kind": "figure", "figure": "fig5", "profile": "smoke", "xs": [50]}
        )
        b = parse_request(
            {"kind": "figure", "figure": "fig5", "profile": "smoke", "xs": [100]}
        )
        assert a.request_key != b.request_key

    def test_priority_does_not_change_identity(self):
        a = parse_request({"kind": "run", "config": _smoke_config_dict()})
        b = parse_request({"kind": "run", "config": _smoke_config_dict(), "priority": 1})
        assert a.request_key == b.request_key

    def test_kind_in_identity(self):
        raw = _smoke_config_dict()
        a = parse_request({"kind": "run", "config": raw})
        b = parse_request({"kind": "sweep", "configs": [raw]})
        assert a.run_keys == b.run_keys
        assert a.request_key != b.request_key


class TestShapeErrors:
    def test_non_object_rejected(self):
        with pytest.raises(RequestError, match="JSON object"):
            parse_request([1, 2, 3])

    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="kind"):
            parse_request({"kind": "meta-analysis"})

    def test_non_int_priority_rejected(self):
        with pytest.raises(RequestError, match="priority"):
            parse_request(
                {"kind": "run", "config": _smoke_config_dict(), "priority": "high"}
            )

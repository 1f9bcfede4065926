"""Property tests for the run-store content hash: stable across process
restarts, insensitive to dict ordering, and sensitive to every config
field."""

import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.diffusion.agent import DiffusionParams
from repro.experiments.config import SCHEMES, ExperimentConfig, FailureModel, smoke
from repro.experiments.store import canonical_json, config_payload, run_key
from repro.net.channel import ChannelSpec


def _cfg(**overrides) -> ExperimentConfig:
    return ExperimentConfig.from_profile(
        smoke(), "greedy", 50, seed=1, duration=8.0, warmup=3.0, **overrides
    )


def _shuffled(obj, rng):
    """Deep-copy ``obj`` with every dict's insertion order randomized."""
    if isinstance(obj, dict):
        items = list(obj.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng) for k, v in items}
    if isinstance(obj, list):
        return [_shuffled(v, rng) for v in obj]
    return obj


class TestDictOrderInsensitivity:
    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_canonical_json_ignores_insertion_order(self, rng):
        payload = config_payload(_cfg(failures=FailureModel(fraction=0.2, epoch=6.0)))
        assert canonical_json(_shuffled(payload, rng)) == canonical_json(payload)

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                      st.text(max_size=8), st.none()),
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_arbitrary_dicts_canonicalize_order_free(self, d, rng):
        assert canonical_json(_shuffled(d, rng)) == canonical_json(d)


class TestCrossProcessStability:
    def test_key_identical_in_a_fresh_interpreter(self):
        """A process restart (fresh hash randomization, fresh imports)
        must produce the same key for the same config."""
        cfg = _cfg(
            n_sources=3,
            n_sinks=2,
            source_placement="random",
            aggregation="linear",
            failures=FailureModel(fraction=0.25, epoch=4.0),
        )
        here = run_key(cfg)
        src_root = str(Path(repro.__file__).resolve().parents[1])
        program = (
            "from repro.experiments.config import ExperimentConfig, FailureModel, smoke\n"
            "from repro.experiments.store import run_key\n"
            "cfg = ExperimentConfig.from_profile(\n"
            "    smoke(), 'greedy', 50, seed=1, duration=8.0, warmup=3.0,\n"
            "    n_sources=3, n_sinks=2, source_placement='random',\n"
            "    aggregation='linear',\n"
            "    failures=FailureModel(fraction=0.25, epoch=4.0))\n"
            "print(run_key(cfg))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == here

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_key_deterministic_for_any_seed(self, seed):
        cfg = replace(_cfg(), seed=seed)
        assert run_key(cfg) == run_key(replace(cfg))


class TestFieldSensitivity:
    #: one safe mutation per ExperimentConfig field (values satisfy
    #: __post_init__ and differ from _cfg()'s baseline)
    MUTATIONS = {
        "scheme": "opportunistic",
        "n_nodes": 60,
        "seed": 2,
        "duration": 9.0,
        "warmup": 3.5,
        "diffusion": DiffusionParams(exploratory_interval=11.0),
        "n_sources": 4,
        "n_sinks": 2,
        "source_placement": "random",
        "aggregation": "linear",
        "field_size": 210.0,
        "range_m": 41.0,
        "failures": FailureModel(fraction=0.2, epoch=6.0),
        "include_idle": True,
        "channel": ChannelSpec(model="pathloss"),
    }

    def test_mutations_cover_every_field(self):
        assert set(self.MUTATIONS) == {f.name for f in fields(ExperimentConfig)}

    def test_any_single_field_change_changes_the_key(self):
        base = _cfg()
        base_key = run_key(base)
        seen = {base_key}
        for name, value in self.MUTATIONS.items():
            mutated_key = run_key(replace(base, **{name: value}))
            assert mutated_key != base_key, f"field {name} not in the hash"
            seen.add(mutated_key)
        # all mutations are pairwise distinct too (no hash collisions
        # between unrelated single-field changes)
        assert len(seen) == len(self.MUTATIONS) + 1

    def test_nested_diffusion_field_changes_key(self):
        base = _cfg()
        tweaked = replace(
            base, diffusion=replace(base.diffusion, aggregation_delay=0.6)
        )
        assert run_key(tweaked) != run_key(base)

    def test_code_version_changes_key(self, monkeypatch):
        base = _cfg()
        before = run_key(base)
        monkeypatch.setattr(repro, "__version__", "999.0.0")
        assert run_key(base) != before

    def test_payload_is_json_round_trip_stable(self):
        payload = config_payload(_cfg())
        assert json.loads(canonical_json(payload)) == payload


#: int-valued numbers appear both as ints and floats: the two compare
#: equal but serialize (and so hash) differently
_times = st.one_of(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.01, max_value=300.0, allow_nan=False),
)


@st.composite
def _configs(draw) -> ExperimentConfig:
    duration = draw(_times)
    warmup = draw(st.sampled_from((0, 0.0, duration / 2)))
    model = draw(st.sampled_from(("disc", "pathloss")))
    channel = ChannelSpec(
        model=model,
        tx_power_dbm=draw(st.sampled_from((0.0, 0, -3.5))),
        capture=draw(st.booleans()),
        max_range_m=draw(st.sampled_from((None, 40, 35.5))),
        n_bands=1 if model == "disc" else draw(st.integers(min_value=1, max_value=4)),
    )
    failures = draw(
        st.one_of(
            st.none(),
            st.builds(
                FailureModel,
                fraction=st.floats(min_value=0.05, max_value=1.0),
                epoch=_times,
            ),
        )
    )
    return ExperimentConfig(
        scheme=draw(st.sampled_from(SCHEMES)),
        n_nodes=draw(st.integers(min_value=2, max_value=400)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        duration=duration,
        warmup=warmup,
        diffusion=DiffusionParams(
            exploratory_interval=draw(_times),
            cache_capacity=draw(st.integers(min_value=1, max_value=10_000)),
        ),
        n_sources=draw(st.integers(min_value=1, max_value=14)),
        n_sinks=draw(st.integers(min_value=1, max_value=5)),
        source_placement=draw(st.sampled_from(("corner", "random", "event-radius"))),
        aggregation=draw(st.sampled_from(("perfect", "linear"))),
        field_size=draw(st.sampled_from((200, 200.0, 150.5))),
        failures=failures,
        include_idle=draw(st.booleans()),
        channel=channel,
    )


class TestPayloadMatchesAsdict:
    """The payload's config block is ``dataclasses.asdict(cfg)``, leaf
    types included, so keys stay those that existing stores hold."""

    @given(_configs())
    @settings(max_examples=200, deadline=None)
    def test_config_block_equals_asdict(self, cfg):
        block = config_payload(cfg)["config"]
        assert block == asdict(cfg)
        assert canonical_json(block) == canonical_json(asdict(cfg))

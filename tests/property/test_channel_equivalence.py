"""Disc-equivalence of the degenerate pathloss channel.

``ChannelSpec.degenerate_disc(r)`` pins the channel refactor's safety
argument: a pathloss config whose sensitivity is unreachable (so link
eligibility collapses to the squared-distance ``max_range_m`` cutoff —
the disc neighbor test verbatim) with capture disabled (so corruption
uses the disc all-or-nothing logic) must reproduce the disc channel's
RunMetrics *bit-identically*.  Anything less means the abstraction
changed the physics it claims to merely parameterize.
"""

import dataclasses

import pytest

from repro.diffusion.agent import DiffusionParams
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_observed
from repro.experiments.store import run_key
from repro.net.channel import ChannelSpec
from repro.obs import ObsOptions


def _config(seed: int, scheme: str, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        scheme=scheme,
        n_nodes=120,
        seed=seed,
        duration=12.0,
        warmup=5.0,
        diffusion=DiffusionParams(exploratory_interval=6.0),
        **overrides,
    )


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_degenerate_pathloss_reproduces_disc(seed):
    scheme = ("greedy", "opportunistic")[seed % 2]
    disc = _config(seed, scheme)
    degen = _config(seed, scheme, channel=ChannelSpec.degenerate_disc(disc.range_m))

    a = run_observed(disc)
    b = run_observed(degen)

    assert dataclasses.asdict(a.metrics) == dataclasses.asdict(b.metrics)
    assert a.events_processed == b.events_processed
    # Distinct physics identity, same physics result: the channel block
    # still differs, so the two runs must never share a store entry.
    assert run_key(disc) != run_key(degen)


def test_degenerate_pathloss_matches_disc_timeline_and_audit():
    """Probe timelines and the invariant auditor flow through the
    channel abstraction unchanged."""
    disc = _config(5, "greedy")
    degen = _config(5, "greedy", channel=ChannelSpec.degenerate_disc(disc.range_m))
    obs = ObsOptions(audit=True, timeline=True)
    a = run_observed(disc, obs)
    b = run_observed(degen, obs)
    assert a.timeline.as_dict() == b.timeline.as_dict()
    assert a.audit == b.audit
    assert a.audit["ok"]

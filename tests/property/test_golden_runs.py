"""Golden-run regression for the PHY fan-out and everything above it.

Replays a fixed matrix of runs and requires *exact* equality with the
results committed in ``tests/data/golden_runs.json``: every
:class:`~repro.experiments.metrics.RunMetrics` field (per-class energy,
lifetime metrics, every counter), the simulator's logical event and
cancelled-skip totals, the auditor report, and a sha256 of the probe
timeline.

The matrix crosses 10 seeds with three network regimes (sparse, the
paper's densest field, and a beyond-paper 800-node field) and with the
audit / timeline observability combinations — each seed draws one
regime and one combination round-robin, so the seeds cover every
(regime, combination) pair.  A failure-dynamics run (nodes dropping
mid-flight and recovering) and six log-distance pathloss runs cycling
through the capture, multi-band, capture-off, exponent and hard-cutoff
channel variants complete it.

The goldens were produced by two independent PHY implementations that
agreed bit-for-bit on every case, so a mismatch here means behaviour
changed, not that the reference is suspect.  After an *intended*
behaviour change, regenerate them with::

    PYTHONPATH=src python tests/property/test_golden_runs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional

import pytest

from repro.diffusion.agent import DiffusionParams
from repro.experiments.config import ExperimentConfig, FailureModel
from repro.experiments.runner import ObservedRun, run_observed
from repro.net.channel import ChannelSpec
from repro.obs import ObsOptions

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_runs.json"

#: (name, config-overrides) — durations trimmed so the matrix stays fast
REGIMES = {
    "sparse": dict(n_nodes=50, field_size=200.0, duration=10.0, warmup=4.0),
    "paper-max": dict(n_nodes=350, field_size=200.0, duration=4.0, warmup=2.0),
    "large": dict(n_nodes=800, field_size=500.0, duration=4.0, warmup=2.0),
}

#: (audit, timeline) observability combinations
OBS_COMBOS = [(False, False), (True, False), (False, True), (True, True)]

#: pathloss channel variants: the default capture channel, multi-band,
#: capture off (disc-style corruption with pathloss eligibility), a
#: different exponent, and a hard range cutoff
PATHLOSS_SPECS = [
    ChannelSpec(model="pathloss"),
    ChannelSpec(model="pathloss", n_bands=2),
    ChannelSpec(model="pathloss", capture=False),
    ChannelSpec(model="pathloss", pathloss_exponent=2.7),
    ChannelSpec(model="pathloss", max_range_m=35.0),
]


@dataclasses.dataclass(frozen=True)
class Case:
    """One golden run: a config plus the instruments attached to it."""

    config: ExperimentConfig
    audit: bool
    timeline: bool


def _config(seed: int, regime: str) -> ExperimentConfig:
    return ExperimentConfig(
        scheme=("greedy", "opportunistic")[seed % 2],
        seed=seed,
        diffusion=DiffusionParams(exploratory_interval=6.0),
        **REGIMES[regime],
    )


def _round_robin(seed: int) -> tuple[str, bool, bool]:
    regime = list(REGIMES)[seed % len(REGIMES)]
    audit, timeline = OBS_COMBOS[seed % len(OBS_COMBOS)]
    return regime, audit, timeline


def golden_cases() -> dict[str, Case]:
    """The full matrix, keyed by the id the test is parametrized on."""
    cases: dict[str, Case] = {}
    for seed in range(10):
        regime, audit, timeline = _round_robin(seed)
        cases[f"seed-{seed}"] = Case(_config(seed, regime), audit, timeline)
    cases["failures"] = Case(
        ExperimentConfig(
            scheme="greedy",
            n_nodes=80,
            seed=123,
            duration=20.0,
            warmup=8.0,
            failures=FailureModel(fraction=0.2, epoch=5.0),
            diffusion=DiffusionParams(exploratory_interval=6.0),
        ),
        audit=True,
        timeline=True,
    )
    for seed in range(6):
        regime, audit, timeline = _round_robin(seed)
        spec = PATHLOSS_SPECS[seed % len(PATHLOSS_SPECS)]
        cfg = dataclasses.replace(_config(seed, regime), channel=spec)
        cases[f"pathloss-{seed}"] = Case(cfg, audit, timeline)
    return cases


CASES = golden_cases()


def run_case(case: Case) -> ObservedRun:
    obs = (
        ObsOptions(audit=case.audit, timeline=case.timeline)
        if case.audit or case.timeline
        else None
    )
    return run_observed(case.config, obs)


def _sha256(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def record(observed: ObservedRun) -> dict:
    """The JSON-normal golden record of one run."""
    timeline: Optional[str] = None
    if observed.timeline is not None:
        timeline = _sha256(observed.timeline.as_dict())
    rec = {
        "metrics": dataclasses.asdict(observed.metrics),
        "events_processed": observed.events_processed,
        "cancelled_skipped": observed.cancelled_skipped,
        "timeline_sha256": timeline,
        "audit": observed.audit,
    }
    # normalize through JSON so a fresh run compares like a loaded one
    return json.loads(json.dumps(rec))


def write_goldens(records: dict[str, dict], path: Path = GOLDEN_PATH) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"kind": "golden-runs", "version": 1, "runs": records}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _load_goldens() -> dict[str, dict]:
    payload = json.loads(GOLDEN_PATH.read_text())
    assert payload["kind"] == "golden-runs"
    return payload["runs"]


def test_goldens_cover_the_matrix():
    assert sorted(_load_goldens()) == sorted(CASES)


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden_run(case_id):
    case = CASES[case_id]
    want = _load_goldens()[case_id]
    got = record(run_case(case))
    assert got == want
    if case.config.failures is not None:
        # the failure path actually ran
        assert got["metrics"]["counters"].get("node.fail", 0) > 0


if __name__ == "__main__":
    write_goldens({case_id: record(run_case(case)) for case_id, case in CASES.items()})
    print(f"wrote {len(CASES)} golden runs to {GOLDEN_PATH}")

"""Tests for the online invariant auditor and static artifact audits."""

import dataclasses

import pytest

from repro.obs.audit import (
    Auditor,
    EnergyAttributionChecker,
    GradientAcyclicityChecker,
    LineageTerminationChecker,
    MAX_FINDINGS_PER_CHECKER,
    RxHasTxChecker,
    audit_figure_cells,
    audit_static,
    format_findings,
)
from repro.sim.trace import TraceRecord


def rec(time, category, **fields):
    return TraceRecord(time, category, tuple(fields.items()))


def smoke_cfg(scheme="greedy", seed=4):
    from repro.experiments.config import ExperimentConfig, smoke

    return ExperimentConfig.from_profile(smoke(), scheme, 60, seed=seed)


class TestRxHasTx:
    def test_matched_pair_clean(self):
        c = RxHasTxChecker()
        c.observe(rec(0.0, "phy.tx", frame=7, src=1, dst=2, size=10, kind=0, cls="data"))
        c.observe(rec(0.1, "phy.rx", frame=7, node=2, src=1))
        c.finalize()
        assert c.findings == []

    def test_phantom_rx_flagged(self):
        c = RxHasTxChecker()
        c.observe(rec(0.1, "phy.rx", frame=99, node=2, src=1))
        c.finalize()
        assert len(c.findings) == 1
        assert c.findings[0].invariant == "rx-has-tx"
        assert "99" in c.findings[0].message

    def test_finding_cap(self):
        c = RxHasTxChecker()
        for i in range(MAX_FINDINGS_PER_CHECKER + 10):
            c.observe(rec(float(i), "phy.rx", frame=1000 + i, node=2, src=1))
        c.finalize()
        assert len(c.findings) == MAX_FINDINGS_PER_CHECKER + 1
        assert c.findings[-1].severity == "warning"
        assert "suppressed" in c.findings[-1].message


class TestLineageTermination:
    def test_generated_then_delivered_clean(self):
        c = LineageTerminationChecker()
        c.observe(rec(1.0, "data.gen", node=5, interest=1, src=5, seq=0))
        c.observe(rec(2.0, "data.deliver", interest=1, sink=0, key=[5, 0]))
        c.finalize()
        assert c.findings == []

    def test_fabricated_delivery_flagged(self):
        c = LineageTerminationChecker()
        c.observe(rec(2.0, "data.deliver", interest=1, sink=0, key=[5, 0]))
        c.finalize()
        assert len(c.findings) == 1
        assert c.findings[0].invariant == "lineage-termination"


class TestGradientAcyclicity:
    def test_chain_clean(self):
        c = GradientAcyclicityChecker()
        c.observe(rec(1.0, "gradient.reinforce", node=3, interest=1, neighbor=2))
        c.observe(rec(1.1, "gradient.reinforce", node=2, interest=1, neighbor=1))
        c.observe(rec(1.2, "gradient.reinforce", node=1, interest=1, neighbor=0))
        c.finalize()
        assert c.findings == []

    def test_two_way_edge_is_not_a_cycle(self):
        # Both endpoints prefer each other: the forwarding rule suppresses
        # this pair, so the auditor must not report it.
        c = GradientAcyclicityChecker()
        c.observe(rec(1.0, "gradient.reinforce", node=1, interest=1, neighbor=2))
        c.observe(rec(1.1, "gradient.reinforce", node=2, interest=1, neighbor=1))
        c.finalize()
        assert c.findings == []

    def test_three_cycle_flagged(self):
        c = GradientAcyclicityChecker()
        c.observe(rec(1.0, "gradient.reinforce", node=1, interest=1, neighbor=2))
        c.observe(rec(1.1, "gradient.reinforce", node=2, interest=1, neighbor=3))
        c.observe(rec(1.2, "gradient.reinforce", node=3, interest=1, neighbor=1))
        assert len(c.findings) == 1
        assert c.findings[0].invariant == "gradient-acyclic"
        assert "1 -> 2 -> 3 -> 1" in c.findings[0].message or "cycle" in c.findings[0].message

    def test_degrade_breaks_cycle(self):
        c = GradientAcyclicityChecker()
        c.observe(rec(1.0, "gradient.reinforce", node=1, interest=1, neighbor=2))
        c.observe(rec(1.1, "gradient.reinforce", node=2, interest=1, neighbor=3))
        c.observe(rec(1.2, "gradient.degrade", node=2, interest=1, neighbor=3))
        c.observe(rec(1.3, "gradient.reinforce", node=3, interest=1, neighbor=1))
        c.finalize()
        assert c.findings == []

    def test_stale_edge_skipped_with_timeout(self):
        c = GradientAcyclicityChecker(data_timeout=10.0)
        c.observe(rec(1.0, "gradient.reinforce", node=1, interest=1, neighbor=2))
        c.observe(rec(2.0, "gradient.reinforce", node=2, interest=1, neighbor=3))
        # node 3 closes the loop, but node 1's edge is 50 s stale by then
        c.observe(rec(51.0, "gradient.reinforce", node=3, interest=1, neighbor=1))
        c.finalize()
        assert c.findings == []


class TestEnergyAttribution:
    class FakeNode:
        def __init__(self, node_id, meter):
            self.node_id = node_id
            self.energy = meter

    def make_meter(self):
        from repro.net.energy import EnergyMeter, EnergyParams

        m = EnergyMeter(EnergyParams())
        m.note_tx(1.0, "data")
        m.note_rx(0.0, 2.0, "interest")
        return m

    def test_consistent_meter_clean(self):
        c = EnergyAttributionChecker()
        c.finalize([self.FakeNode(0, self.make_meter())])
        assert c.findings == []

    def test_tampered_meter_flagged(self):
        m = self.make_meter()
        m.tx_time_by_class["data"] += 0.5  # corrupt the attribution
        c = EnergyAttributionChecker()
        c.finalize([self.FakeNode(3, m)])
        assert len(c.findings) == 1
        assert c.findings[0].invariant == "energy-attribution"
        assert c.findings[0].context["node"] == 3

    def test_no_nodes_skips(self):
        c = EnergyAttributionChecker()
        c.finalize(None)
        assert c.findings == []


class TestAuditorOnLiveRuns:
    @pytest.mark.parametrize("scheme", ["greedy", "opportunistic"])
    def test_clean_run_has_zero_findings(self, scheme):
        from repro.experiments.runner import run_observed
        from repro.obs import ObsOptions

        observed = run_observed(smoke_cfg(scheme), ObsOptions(audit=True))
        assert observed.audit is not None
        assert observed.audit["ok"], observed.audit["findings"]
        assert observed.audit["n_findings"] == 0
        assert observed.audit["records_seen"] > 0

    def test_audit_does_not_change_metrics(self):
        from repro.experiments.runner import run_observed
        from repro.obs import ObsOptions

        plain = run_observed(smoke_cfg()).metrics
        audited = run_observed(smoke_cfg(), ObsOptions(audit=True)).metrics
        assert dataclasses.asdict(plain) == dataclasses.asdict(audited)

    def test_injected_fault_is_caught(self):
        # Tamper with one node's attribution after a clean audited run:
        # the finalize-time checker must catch it.
        from repro.experiments.runner import build_world

        cfg = smoke_cfg()
        world = build_world(cfg)
        auditor = Auditor()
        auditor.attach(world.tracer)
        world.sim.run(until=cfg.duration)
        world.nodes[7].energy.rx_time_by_class["interest"] = 1e6
        findings = auditor.finalize(world.nodes)
        assert any(f.invariant == "energy-attribution" for f in findings)

    def test_manifest_embeds_audit_section(self, tmp_path):
        from repro.experiments.runner import run_observed
        from repro.obs import ObsOptions, load_manifest

        path = tmp_path / "m.json"
        run_observed(smoke_cfg(), ObsOptions(audit=True, manifest_path=path))
        manifest = load_manifest(path)
        assert manifest["audit"]["ok"] is True
        assert manifest["audit"]["checkers"] == [
            "rx-has-tx",
            "lineage-termination",
            "gradient-acyclic",
            "energy-attribution",
        ]


class TestStaticAudit:
    def clean_metrics(self):
        return {
            "scheme": "greedy",
            "total_energy_j": 3.0,
            "energy_by_class": {"data": 2.0, "interest": 1.0},
            "distinct_delivered": 10,
            "delivery_ratio": 1.0,
            "counters": {
                "radio.tx": 5,
                "radio.rx": 7,
                "radio.tx_class{cls=data}": 3,
                "radio.tx_class{cls=interest}": 2,
                "radio.rx_class{cls=data}": 7,
                "diffusion.item_delivered": 12,
            },
        }

    def test_clean_metrics_pass(self):
        assert audit_static(self.clean_metrics()) == []

    def test_energy_mismatch_flagged(self):
        m = self.clean_metrics()
        m["total_energy_j"] = 4.0
        findings = audit_static(m)
        assert [f.invariant for f in findings] == ["energy-attribution"]

    def test_counter_mismatch_flagged(self):
        m = self.clean_metrics()
        m["counters"]["radio.tx_class{cls=data}"] = 99
        findings = audit_static(m)
        assert [f.invariant for f in findings] == ["radio-class-counters"]

    def test_overcounted_delivery_flagged(self):
        m = self.clean_metrics()
        m["distinct_delivered"] = 13
        findings = audit_static(m)
        assert [f.invariant for f in findings] == ["delivery-accounting"]

    def test_real_run_metrics_pass(self):
        from repro.experiments.runner import run_experiment

        metrics = run_experiment(smoke_cfg())
        assert audit_static(dataclasses.asdict(metrics)) == []

    def test_figure_cells(self):
        clean = [{"scheme": "greedy", "x": 50, "energy": 1.0, "delay": 0.1,
                  "energy_stdev": 0.0, "ratio": 0.9, "n_runs": 2}]
        assert audit_figure_cells(clean) == []
        bad = [dict(clean[0], ratio=1.5, energy=-1.0, n_runs=0)]
        invariants = {f.invariant for f in audit_figure_cells(bad)}
        assert invariants == {"delivery-accounting", "figure-sanity"}


class TestFormatFindings:
    def test_empty(self):
        assert "ok" in format_findings([])

    def test_rendered_fields(self):
        c = RxHasTxChecker()
        c.observe(rec(1.5, "phy.rx", frame=3, node=2, src=1))
        text = format_findings(c.findings)
        assert "rx-has-tx" in text
        assert "t=1.500" in text

"""Unit tests for the radio energy model."""

import pytest

from repro.net.energy import EnergyMeter, EnergyParams


class TestEnergyParams:
    def test_paper_defaults(self):
        p = EnergyParams()
        assert p.tx_power_w == pytest.approx(0.660)
        assert p.rx_power_w == pytest.approx(0.395)
        assert p.idle_power_w == pytest.approx(0.035)

    def test_idle_ratios_match_paper(self):
        # "idle time power dissipation was ... nearly 10% of its receive
        # power ... and about 5% of its transmit power"
        p = EnergyParams()
        assert p.idle_power_w / p.rx_power_w == pytest.approx(0.0886, abs=0.01)
        assert p.idle_power_w / p.tx_power_w == pytest.approx(0.053, abs=0.01)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            EnergyParams(tx_power_w=-1.0)


class TestEnergyMeter:
    def test_tx_accounting(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(2.0)
        m.note_tx(1.0)
        assert m.tx_time == pytest.approx(3.0)

    def test_rx_accounting(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(0.0, 1.0)
        m.note_rx(5.0, 0.5)
        assert m.rx_time == pytest.approx(1.5)

    def test_overlapping_rx_merged(self):
        # Two frames overlapping at the receiver must not double-charge.
        m = EnergyMeter(EnergyParams())
        m.note_rx(0.0, 1.0)
        m.note_rx(0.5, 1.0)  # overlaps [0.5, 1.0]
        assert m.rx_time == pytest.approx(1.5)

    def test_fully_contained_rx_free(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(0.0, 2.0)
        m.note_rx(0.5, 1.0)  # entirely inside
        assert m.rx_time == pytest.approx(2.0)

    def test_negative_duration_rejected(self):
        m = EnergyMeter(EnergyParams())
        with pytest.raises(ValueError):
            m.note_tx(-1.0)
        with pytest.raises(ValueError):
            m.note_rx(0.0, -1.0)

    def test_communication_energy(self):
        m = EnergyMeter(EnergyParams(tx_power_w=1.0, rx_power_w=0.5, idle_power_w=0.1))
        m.note_tx(2.0)
        m.note_rx(0.0, 4.0)
        assert m.communication_energy_j() == pytest.approx(2.0 + 2.0)

    def test_idle_time(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(1.0)
        m.note_rx(0.0, 2.0)
        assert m.idle_time(10.0) == pytest.approx(7.0)

    def test_idle_time_clamped_nonnegative(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(5.0)
        assert m.idle_time(1.0) == 0.0

    def test_total_energy_includes_idle(self):
        m = EnergyMeter(EnergyParams(tx_power_w=1.0, rx_power_w=1.0, idle_power_w=0.5))
        m.note_tx(1.0)
        assert m.total_energy_j(3.0) == pytest.approx(1.0 + 0.5 * 2.0)

    def test_fresh_meter_zero(self):
        m = EnergyMeter(EnergyParams())
        assert m.communication_energy_j() == 0.0
        assert m.total_energy_j(0.0) == 0.0


class TestOutOfOrderRx:
    """The meter keeps only the rightmost charged interval, so a reception
    starting before it raises instead of guessing what it overlaps, and
    leaves the meter as it was."""

    def test_start_before_charged_interval_raises(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(10.0, 1.0)  # [10, 11]
        with pytest.raises(ValueError, match="start order"):
            m.note_rx(0.0, 1.0)  # [0, 1], disjoint and earlier
        assert m.rx_time == pytest.approx(1.0)

    def test_left_overlap_raises(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(5.0, 2.0)  # [5, 7]
        with pytest.raises(ValueError):
            m.note_rx(4.0, 2.0)  # [4, 6] reaches left of the interval
        assert m.rx_time == pytest.approx(2.0)

    def test_raise_leaves_meter_unchanged(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(0.0, 1.0, "data")  # [0, 1]
        m.note_rx(2.0, 1.0, "data")  # [2, 3]
        before = (m.rx_time, m._rx_start, m._rx_last, dict(m.rx_time_by_class))
        with pytest.raises(ValueError):
            m.note_rx(0.5, 2.0, "ack")  # [0.5, 2.5] would bridge the gap
        assert (m.rx_time, m._rx_start, m._rx_last, dict(m.rx_time_by_class)) == before
        m.note_rx(2.5, 1.0, "ack")  # in order again: only [3, 3.5] is new
        assert m.rx_time == pytest.approx(2.5)
        assert m.rx_time_by_class["ack"] == pytest.approx(0.5)

    def test_start_inside_rightmost_interval_is_accepted(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(10.0, 5.0)  # [10, 15]
        m.note_rx(11.0, 1.0)  # contained: free
        m.note_rx(10.0, 6.0)  # starts with the interval: only [15, 16] is new
        assert m.rx_time == pytest.approx(6.0)
        with pytest.raises(ValueError):
            m.note_rx(0.0, 20.0)
        assert m.rx_time == pytest.approx(6.0)


class TestClassAttribution:
    def test_tx_classes_sum_to_total(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(1.0, "interest")
        m.note_tx(2.0, "data")
        m.note_tx(0.5, "data")
        assert m.tx_time_by_class == {"interest": 1.0, "data": 2.5}
        assert sum(m.tx_time_by_class.values()) == pytest.approx(m.tx_time)

    def test_rx_overlap_charges_marginal_time_to_class(self):
        m = EnergyMeter(EnergyParams())
        m.note_rx(0.0, 1.0, "data")
        m.note_rx(0.5, 1.0, "ack")  # only [1.0, 1.5] is new
        assert m.rx_time_by_class["data"] == pytest.approx(1.0)
        assert m.rx_time_by_class["ack"] == pytest.approx(0.5)
        assert sum(m.rx_time_by_class.values()) == pytest.approx(m.rx_time)

    def test_unclassified_default(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(1.0)
        m.note_rx(0.0, 1.0)
        assert m.tx_time_by_class == {"other": 1.0}
        assert m.rx_time_by_class == {"other": 1.0}

    def test_energy_by_class_j(self):
        m = EnergyMeter(EnergyParams(tx_power_w=2.0, rx_power_w=1.0, idle_power_w=0.0))
        m.note_tx(1.0, "data")
        m.note_rx(0.0, 3.0, "data")
        m.note_tx(0.5, "ack")
        assert m.energy_by_class_j() == pytest.approx({"data": 5.0, "ack": 1.0})
        assert sum(m.energy_by_class_j().values()) == pytest.approx(
            m.communication_energy_j()
        )

    def test_class_times_snapshot_is_copy(self):
        m = EnergyMeter(EnergyParams())
        m.note_tx(1.0, "data")
        snap = m.class_times()
        m.note_tx(1.0, "data")
        assert snap["data"] == (1.0, 0.0)
        assert m.class_times()["data"] == (2.0, 0.0)

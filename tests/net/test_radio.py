"""Unit tests for the PHY: range, collisions, half duplex, energy."""

import pytest

from repro.net.energy import EnergyMeter, EnergyParams
from repro.net.packet import BROADCAST, Frame
from repro.net.radio import Channel, Radio, RadioParams
from repro.sim import Simulator, Tracer


def make_channel(range_m=40.0):
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    return sim, tracer, Channel(sim, tracer, RadioParams(range_m=range_m))


def make_radio(channel, node_id, x, y, up=True):
    meter = EnergyMeter(EnergyParams())
    radio = Radio(node_id, x, y, channel, meter)
    radio.up = up
    return radio, meter, radio


class TestRadioParams:
    def test_air_time(self):
        p = RadioParams(bitrate_bps=1.6e6)
        assert p.air_time(64) == pytest.approx(64 * 8 / 1.6e6)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(range_m=0)
        with pytest.raises(ValueError):
            RadioParams(bitrate_bps=-1)


class TestPropagation:
    def test_in_range_node_receives(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 30, 0)
        got = []
        b.deliver = got.append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert len(got) == 1

    def test_out_of_range_node_silent(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 50, 0)
        got = []
        b.deliver = got.append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert got == []

    def test_boundary_exactly_at_range_receives(self):
        sim, _tr, ch = make_channel(range_m=40.0)
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 40.0, 0)
        got = []
        b.deliver = got.append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert len(got) == 1

    def test_sender_does_not_hear_itself(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        got = []
        a.deliver = got.append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert got == []

    def test_all_neighbors_receive_broadcast(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        got = {i: [] for i in (1, 2, 3)}
        for i, x in ((1, 10), (2, 20), (3, 30)):
            r, _, _ = make_radio(ch, i, x, 0)
            r.deliver = got[i].append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert all(len(v) == 1 for v in got.values())

    def test_neighbor_cache(self):
        _sim, _tr, ch = make_channel()
        make_radio(ch, 0, 0, 0)
        make_radio(ch, 1, 30, 0)
        make_radio(ch, 2, 100, 0)
        assert [r.node_id for r in ch.neighbors(0)] == [1]
        assert ch.neighbors(2) == []

    def test_duplicate_node_id_rejected(self):
        _sim, _tr, ch = make_channel()
        make_radio(ch, 0, 0, 0)
        with pytest.raises(ValueError):
            make_radio(ch, 0, 10, 0)

    def test_distance(self):
        _sim, _tr, ch = make_channel()
        make_radio(ch, 0, 0, 0)
        make_radio(ch, 1, 3, 4)
        assert ch.distance(0, 1) == pytest.approx(5.0)


class TestCollisions:
    def test_overlapping_frames_collide(self):
        sim, tracer, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 0, 30)
        c, _, _ = make_radio(ch, 2, 0, 15)  # hears both
        got = []
        c.deliver = got.append
        sim.schedule(0.0, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.schedule(0.0, b.start_tx, Frame(src=1, dst=BROADCAST, size=64))
        sim.run()
        ch.publish_counters()
        assert got == []
        assert tracer.registry.value("radio.collision") >= 2

    def test_hidden_terminal_collision(self):
        # a and b cannot hear each other but both reach c.
        sim, _tr, ch = make_channel(range_m=40.0)
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 70, 0)
        c, _, _ = make_radio(ch, 2, 35, 0)
        assert ch.neighbors(0) == [c] or c in ch.neighbors(0)
        got = []
        c.deliver = got.append
        sim.schedule(0.0, a.start_tx, Frame(src=0, dst=2, size=64))
        sim.schedule(0.0001, b.start_tx, Frame(src=1, dst=2, size=64))
        sim.run()
        assert got == []

    def test_non_overlapping_frames_both_received(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        c, _, _ = make_radio(ch, 2, 30, 0)
        got = []
        c.deliver = got.append
        air = ch.params.air_time(64)
        sim.schedule(0.0, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.schedule(air * 2 + 0.001, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert len(got) == 2

    def test_half_duplex_receiver_transmitting_misses(self):
        sim, tracer, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 30, 0)
        got = []
        b.deliver = got.append
        # b starts transmitting just before a's frame arrives.
        sim.schedule(0.0, b.start_tx, Frame(src=1, dst=BROADCAST, size=64))
        sim.schedule(0.00001, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        ch.publish_counters()
        assert got == []
        assert tracer.registry.value("radio.halfduplex_loss") >= 1


class TestLivenessAndEnergy:
    def test_down_receiver_gets_nothing_and_pays_nothing(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, meter, _ = make_radio(ch, 1, 30, 0)
        b.up = False
        got = []
        b.deliver = got.append
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert got == []
        assert meter.rx_time == 0.0

    def test_receiver_down_at_arrival_start_gets_nothing(self):
        # b is up when a transmits, so it is among the frame's receivers,
        # but goes down in the propagation delay before the arrival
        # starts and is back up long before the frame ends.
        sim, tracer, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, meter, _ = make_radio(ch, 1, 30, 0)
        got = []
        b.deliver = got.append
        prop = ch.params.propagation_delay_s
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.schedule(prop / 2, setattr, b, "up", False)
        sim.schedule(prop * 2, setattr, b, "up", True)
        sim.run()
        assert got == []
        assert meter.rx_time == 0.0
        assert b.busy_until == 0.0
        # nothing of the missed frame lingers: b's next reception is clean
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert len(got) == 1
        ch.publish_counters()
        assert tracer.registry.value("radio.collision") == 0

    def test_down_sender_cannot_transmit(self):
        _sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        a.up = False
        with pytest.raises(RuntimeError):
            a.start_tx(Frame(src=0, dst=BROADCAST, size=64))

    def test_tx_energy_charged_to_sender(self):
        sim, _tr, ch = make_channel()
        a, meter, _ = make_radio(ch, 0, 0, 0)
        make_radio(ch, 1, 30, 0)
        a.start_tx(Frame(src=0, dst=BROADCAST, size=64))
        sim.run()
        assert meter.tx_time == pytest.approx(ch.params.air_time(64))

    def test_rx_energy_charged_even_for_unaddressed_frames(self):
        # Promiscuous cost: overhearing a unicast for someone else.
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        _b, bm, _ = make_radio(ch, 1, 20, 0)
        _c, cm, _ = make_radio(ch, 2, 35, 0)
        a.start_tx(Frame(src=0, dst=1, size=64))
        sim.run()
        air = ch.params.air_time(64)
        assert bm.rx_time == pytest.approx(air)
        assert cm.rx_time == pytest.approx(air)

    def test_rx_energy_charged_for_corrupted_frames(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 0, 30)
        _c, cm, _ = make_radio(ch, 2, 0, 15)
        sim.schedule(0.0, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.schedule(0.0, b.start_tx, Frame(src=1, dst=BROADCAST, size=64))
        sim.run()
        assert cm.rx_time > 0.0

    def test_medium_busy_during_neighbor_tx(self):
        sim, _tr, ch = make_channel()
        a, _, _ = make_radio(ch, 0, 0, 0)
        b, _, _ = make_radio(ch, 1, 30, 0)
        busy_seen = []
        prop = ch.params.propagation_delay_s
        sim.schedule(0.0, a.start_tx, Frame(src=0, dst=BROADCAST, size=64))
        sim.schedule(prop + 0.0001, lambda: busy_seen.append(b.medium_busy()))
        sim.run()
        assert busy_seen == [True]
        assert not b.medium_busy()  # after the frame ends

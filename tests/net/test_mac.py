"""Unit tests for the CSMA/CA MAC."""

import pytest

from repro.net.energy import EnergyMeter, EnergyParams
from repro.net.mac import CsmaMac, MacParams
from repro.net.packet import BROADCAST
from repro.net.radio import Channel, Radio, RadioParams
from repro.sim import RngRegistry, Simulator, Tracer


def make_net(n_nodes, spacing=30.0, mac_params=None, range_m=40.0):
    """n MACs on a line; returns (sim, tracer, macs, states)."""
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    channel = Channel(sim, tracer, RadioParams(range_m=range_m))
    rngs = RngRegistry(11)
    macs, states = [], []
    for i in range(n_nodes):
        meter = EnergyMeter(EnergyParams())
        radio = Radio(i, i * spacing, 0.0, channel, meter)
        mac = CsmaMac(sim, radio, mac_params or MacParams(), rngs.stream(f"mac.{i}"), tracer)
        macs.append(mac)
        states.append(radio)
    return sim, tracer, macs, states


class TestBroadcast:
    def test_broadcast_delivered_to_neighbors(self):
        sim, _tr, macs, _ = make_net(3)
        got = []
        macs[1].receive_callback = lambda p, f: got.append((p, f))
        macs[0].send("hello", BROADCAST, 64)
        sim.run()
        assert got == [("hello", 0)]

    def test_broadcast_not_acked(self):
        sim, tracer, macs, _ = make_net(2)
        macs[0].send("x", BROADCAST, 64)
        sim.run()
        macs[0].radio.channel.publish_counters()
        assert tracer.registry.value("mac.ack_tx") == 0

    def test_queue_drains_in_order(self):
        sim, _tr, macs, _ = make_net(2)
        got = []
        macs[1].receive_callback = lambda p, f: got.append(p)
        for i in range(5):
            macs[0].send(i, BROADCAST, 64)
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_queue_limit_drops(self):
        params = MacParams(queue_limit=2)
        sim, tracer, macs, _ = make_net(2, mac_params=params)
        accepted = [macs[0].send(i, BROADCAST, 64) for i in range(5)]
        # One frame may already be in service; the queue holds 2 more.
        assert accepted.count(False) >= 1
        assert tracer.registry.value("mac.drop_queue") >= 1
        sim.run()


class TestUnicast:
    def test_unicast_delivered_and_acked(self):
        sim, tracer, macs, _ = make_net(2)
        got = []
        macs[1].receive_callback = lambda p, f: got.append((p, f))
        macs[0].send("data", 1, 64)
        sim.run()
        macs[0].radio.channel.publish_counters()
        assert got == [("data", 0)]
        assert tracer.registry.value("mac.acked") == 1

    def test_unicast_for_other_node_ignored(self):
        sim, _tr, macs, _ = make_net(3, spacing=20.0)
        got = []
        macs[2].receive_callback = lambda p, f: got.append(p)
        macs[0].send("data", 1, 64)
        sim.run()
        assert got == []

    def test_unreachable_unicast_dropped_after_retries(self):
        sim, tracer, macs, _ = make_net(2, spacing=100.0)  # out of range
        macs[0].send("data", 1, 64)
        sim.run()
        assert tracer.registry.value("mac.drop_retry") == 1
        assert tracer.registry.value("mac.retry") == MacParams().retry_limit + 1

    def test_drop_then_next_frame_sent(self):
        sim, _tr, macs, _ = make_net(3, spacing=30.0)
        # 0 -> 5 unreachable (no such node); then broadcast must still flow.
        got = []
        macs[1].receive_callback = lambda p, f: got.append(p)
        macs[0].send("lost", 99, 64)
        macs[0].send("ok", BROADCAST, 64)
        sim.run()
        assert got == ["ok"]

    def test_retry_succeeds_after_transient_interference(self):
        sim, tracer, macs, _ = make_net(2)
        got = []
        macs[1].receive_callback = lambda p, f: got.append(p)
        macs[0].send("data", 1, 64)
        sim.run()
        assert got == ["data"]
        assert tracer.registry.value("mac.drop_retry") == 0


class TestCarrierSense:
    def test_concurrent_senders_defer_and_both_deliver(self):
        sim, _tr, macs, _ = make_net(3, spacing=20.0)
        got = []
        macs[2].receive_callback = lambda p, f: got.append(p)
        macs[0].send("a", 2, 64)
        macs[1].send("b", 2, 64)
        sim.run()
        assert sorted(got) == ["a", "b"]

    def test_many_contenders_all_eventually_deliver(self):
        sim, _tr, macs, _ = make_net(5, spacing=10.0)
        got = []
        macs[4].receive_callback = lambda p, f: got.append(p)
        for i in range(4):
            macs[i].send(f"m{i}", 4, 64)
        sim.run()
        assert sorted(got) == ["m0", "m1", "m2", "m3"]

    def test_busy_property(self):
        sim, _tr, macs, _ = make_net(2)
        assert not macs[0].busy
        macs[0].send("x", BROADCAST, 64)
        assert macs[0].busy
        sim.run()
        assert not macs[0].busy


class TestFailure:
    def test_send_while_down_dropped(self):
        sim, tracer, macs, states = make_net(2)
        states[0].up = False
        assert macs[0].send("x", 1, 64) is False
        assert tracer.registry.value("mac.drop_down") == 1
        sim.run()

    def test_fail_flushes_queue(self):
        sim, _tr, macs, states = make_net(2)
        macs[0].send("a", BROADCAST, 64)
        macs[0].send("b", BROADCAST, 64)
        macs[0].fail()
        states[0].up = False
        got = []
        macs[1].receive_callback = lambda p, f: got.append(p)
        sim.run()
        assert macs[0].queue_length() == 0
        assert got == []

    def test_down_receiver_never_delivers_upward(self):
        sim, _tr, macs, states = make_net(2)
        states[1].up = False
        got = []
        macs[1].receive_callback = lambda p, f: got.append(p)
        macs[0].send("x", BROADCAST, 64)
        sim.run()
        assert got == []


class TestParams:
    def test_invalid_cw_rejected(self):
        with pytest.raises(ValueError):
            MacParams(cw_min=0)
        with pytest.raises(ValueError):
            MacParams(cw_min=16, cw_max=8)

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            MacParams(retry_limit=-1)
        with pytest.raises(ValueError):
            MacParams(queue_limit=0)

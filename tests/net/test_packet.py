"""Unit tests for link-layer frames."""

import random

import pytest

from repro.net.energy import EnergyMeter, EnergyParams
from repro.net.mac import CsmaMac, MacParams
from repro.net.packet import BROADCAST, Frame, FrameKind
from repro.net.radio import Channel, Radio, RadioParams
from repro.sim import Simulator, Tracer


def sent_frame_ids():
    """Ids of every frame (data and ACK) put on the air by two MACs."""
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    channel = Channel(sim, tracer, RadioParams())
    macs = [
        CsmaMac(
            sim,
            Radio(i, 20.0 * i, 0.0, channel, EnergyMeter(EnergyParams())),
            MacParams(),
            random.Random(i),
            tracer,
        )
        for i in range(2)
    ]
    ids = []
    tracer.enable("phy.tx")
    tracer.add_listener(lambda rec: ids.append(rec.get("frame")))
    for k in range(3):
        macs[0].send(k, 1, 64)  # unicast: ACKed by node 1
        macs[1].send(k, BROADCAST, 36)
    sim.run()
    return ids


class TestFrame:
    def test_unique_ids(self):
        # Ids are unique on a channel and numbered per channel, so a
        # second channel in the same process repeats the first's.
        ids = sent_frame_ids()
        # 9 frames (3 unicasts, their 3 ACKs, 3 broadcasts), 9 ids
        assert sorted(set(ids)) == list(range(1, 10))
        assert sent_frame_ids() == ids

    def test_frame_built_outside_a_mac_has_id_zero(self):
        assert Frame(src=1, dst=2, size=64).frame_id == 0

    def test_broadcast_flag(self):
        assert Frame(src=1, dst=BROADCAST, size=10).is_broadcast
        assert not Frame(src=1, dst=2, size=10).is_broadcast

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            Frame(src=1, dst=2, size=0)
        with pytest.raises(ValueError):
            Frame(src=1, dst=2, size=-5)

    def test_default_kind_is_data(self):
        assert Frame(src=1, dst=2, size=10).kind == FrameKind.DATA

    def test_payload_carried(self):
        payload = {"anything": 1}
        assert Frame(src=1, dst=2, size=10, payload=payload).payload is payload


class TestAck:
    def test_ack_reverses_direction(self):
        f = Frame(src=3, dst=7, size=64)
        ack = f.ack_frame(10)
        assert ack.src == 7
        assert ack.dst == 3
        assert ack.size == 10
        assert ack.kind == FrameKind.ACK

    def test_ack_payload_references_frame(self):
        f = Frame(src=3, dst=7, size=64, frame_id=5)
        ack = f.ack_frame(10, frame_id=6)
        assert ack.payload == 5
        assert ack.frame_id == 6

    def test_broadcast_not_acknowledged(self):
        f = Frame(src=3, dst=BROADCAST, size=64)
        with pytest.raises(ValueError):
            f.ack_frame(10)

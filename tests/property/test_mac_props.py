"""Property-based tests for the MAC layer: conservation of frames."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.energy import EnergyMeter, EnergyParams
from repro.net.mac import CsmaMac, MacParams
from repro.net.packet import BROADCAST
from repro.net.radio import Channel, Radio, RadioParams
from repro.sim import RngRegistry, Simulator, Tracer


def clique(n_nodes, seed):
    """n MACs all in range of one another."""
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    channel = Channel(sim, tracer, RadioParams(range_m=1000.0))
    rngs = RngRegistry(seed)
    macs = []
    for i in range(n_nodes):
        meter = EnergyMeter(EnergyParams())
        radio = Radio(i, float(i), 0.0, channel, meter)
        macs.append(CsmaMac(sim, radio, MacParams(), rngs.stream(f"m{i}"), tracer))
    return sim, tracer, macs


class TestConservation:
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_unicast_frames_accounted_exactly_once(self, n_nodes, n_frames, seed):
        """Every queued unicast either gets ACKed or is dropped after the
        retry limit — nothing vanishes, nothing is double-counted."""
        sim, tracer, macs = clique(n_nodes, seed)
        delivered = []
        for mac in macs:
            mac.receive_callback = lambda p, f: delivered.append(p)
        accepted = 0
        for k in range(n_frames):
            sender = macs[k % (n_nodes - 1)]
            if sender.send(f"p{k}", n_nodes - 1, 64):
                accepted += 1
        sim.run()
        macs[0].radio.channel.publish_counters()
        acked = tracer.registry.value("mac.acked")
        dropped = tracer.registry.value("mac.drop_retry")
        assert acked + dropped == accepted

    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_broadcasts_from_one_sender_all_heard(self, n_nodes, n_frames, seed):
        """A single sender's broadcasts never collide with each other, so
        every receiver hears every frame exactly once, in order."""
        sim, _tracer, macs = clique(n_nodes, seed)
        heard: dict[int, list] = {i: [] for i in range(1, n_nodes)}
        for i in range(1, n_nodes):
            macs[i].receive_callback = lambda p, f, i=i: heard[i].append(p)
        for k in range(n_frames):
            assert macs[0].send(k, BROADCAST, 36)
        sim.run()
        for i in range(1, n_nodes):
            assert heard[i] == list(range(n_frames))

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_simulation_always_terminates_idle(self, n_nodes, seed):
        """No self-sustaining MAC activity: the event queue drains."""
        sim, _tracer, macs = clique(n_nodes, seed)
        for i, mac in enumerate(macs):
            mac.send(i, BROADCAST, 64)
            mac.send(i, (i + 1) % n_nodes, 64)
        sim.run()
        assert sim.pending_count() == 0

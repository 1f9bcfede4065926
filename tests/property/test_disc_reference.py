"""The disc reception rules against the per-arrival reference.

Under the disc rules a receiver keeps only a count of its arrivals in
flight and the token of its one clean arrival (``repro.net.radio``).
This module keeps the implementation that those two fields replaced: one
``_Arrival`` object per receiver per frame, held in a per-receiver
in-flight list that every new arrival walks.  Bare channels and radios
then play the same random schedules of overlapping transmissions and
liveness toggles under both, which must agree on everything a receiver
observes or is charged: deliveries in order, the collision and
half-duplex counts, the per-class rx counts, receive energy, the
carrier-sense horizon and the trace records.

The goldens pin realistic runs; these schedules reach the rare windows
they may miss: a receiver that goes down between ``transmit`` and the
arrival start, one that fails and recovers during a reception, and a
half-duplex start on top of a clean arrival.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.energy import EnergyMeter, EnergyParams
from repro.net.packet import BROADCAST, Frame
from repro.net.radio import Channel, Radio, RadioParams
from repro.sim import Simulator, Tracer

#: schedule resolution in seconds; the 1 us propagation delay is 2 ticks,
#: so a toggle one tick after a transmission lands before its arrival
#: start, and one byte of air time is 10 ticks
TICK = 0.5e-6

CLASSES = ("interest", "data", "ack")


class _RefArrival:
    """One in-flight frame at one receiver."""

    __slots__ = ("frame", "cls", "start", "end", "corrupted")

    def __init__(self, frame, cls, start, end):
        self.frame = frame
        self.cls = cls
        self.start = start
        self.end = end
        self.corrupted = False


class ReferenceChannel(Channel):
    """A disc channel that receives through per-arrival objects."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: node id -> its in-flight arrivals
        self.in_flight = {}

    def transmit(self, sender, frame):
        params = self.params
        duration = params.air_time(frame.size)
        prop = params.propagation_delay_s
        sim = self.sim
        now = sim.now
        tracer = self.tracer
        self.n_tx_bytes += frame.size
        self._frame_bytes.observe(frame.size)
        cls = frame.msg_class
        self._tx_class_counts[cls] = self._tx_class_counts.get(cls, 0) + 1
        if tracer.wants("phy.tx"):
            tracer.record(
                "phy.tx",
                frame=frame.frame_id,
                src=sender.node_id,
                dst=frame.dst,
                size=frame.size,
                kind=frame.kind,
                cls=cls,
            )
        sender.energy.note_tx(duration, cls)
        end_of_tx = now + duration
        start = now + prop
        end = start + duration
        if end_of_tx > sender.tx_until:
            sender.tx_until = end_of_tx
        arrivals = [
            (receiver, _RefArrival(frame, cls, start, end))
            for receiver in self.neighbors(sender.node_id)
            if receiver.up
        ]
        if arrivals:
            n = len(arrivals)
            sim.schedule_cohort_at(start, n, self._fanout_start, arrivals)
            sim.schedule_cohort_at(now + (prop + duration), n, self._fanout_end, arrivals)
        return duration

    def _fanout_start(self, arrivals):
        for receiver, arrival in arrivals:
            self._arrival_start(receiver, arrival)

    def _fanout_end(self, arrivals):
        record_rx = self.tracer.wants("phy.rx")
        for receiver, arrival in arrivals:
            self._arrival_end(receiver, arrival, record_rx)

    def _arrival_start(self, radio, arrival):
        if not radio.up:
            arrival.corrupted = True  # radio off: nothing heard, nothing spent
            return
        end = arrival.end
        if end > radio.busy_until:
            radio.busy_until = end
        radio.energy.note_rx(arrival.start, end - arrival.start, arrival.cls)
        if self.sim.now < radio.tx_until:
            # Half duplex: we miss frames that arrive while we transmit.
            arrival.corrupted = True
            self.n_halfduplex_loss += 1
        active = self.in_flight.setdefault(radio.node_id, [])
        if active:
            # Overlap with another in-flight frame: everyone is corrupted.
            hit = 0
            for other in active:
                if not other.corrupted:
                    other.corrupted = True
                    hit += 1
            if not arrival.corrupted:
                arrival.corrupted = True
                hit += 1
            self.n_collision += hit
        active.append(arrival)

    def _arrival_end(self, radio, arrival, record_rx):
        try:
            self.in_flight.get(radio.node_id, []).remove(arrival)
        except ValueError:
            return  # arrival was never started (node was down)
        if arrival.corrupted or not radio.up:
            return
        if self.sim.now < radio.tx_until:
            self.n_halfduplex_loss += 1
            return
        counts = self._rx_class_counts
        counts[arrival.cls] = counts.get(arrival.cls, 0) + 1
        if record_rx:
            self.tracer.record(
                "phy.rx",
                frame=arrival.frame.frame_id,
                node=radio.node_id,
                src=arrival.frame.src,
            )
        if radio.deliver is not None:
            radio.deliver(arrival.frame)


def play(channel_cls, positions, txs, toggles):
    """Run one schedule on a fresh channel; returns everything observed.

    ``txs`` holds ``(tick, sender, size_bytes, msg_class)`` broadcasts (a
    sender that is down then skips its turn); ``toggles`` holds
    ``(tick, node)`` liveness flips.  Events at one tick keep their order
    in the schedule, transmissions first.
    """
    sim = Simulator()
    tracer = Tracer(lambda: sim.now)
    channel = channel_cls(sim, tracer, RadioParams())
    radios = [
        Radio(i, float(x), float(y), channel, EnergyMeter(EnergyParams()))
        for i, (x, y) in enumerate(positions)
    ]
    deliveries = {r.node_id: [] for r in radios}
    for r in radios:
        r.deliver = lambda frame, got=deliveries[r.node_id]: got.append(
            (sim.now, frame.frame_id)
        )
    records = []
    tracer.enable("phy.tx", "phy.rx")
    tracer.add_listener(records.append)

    def send(radio, frame):
        if radio.up:
            radio.start_tx(frame)

    def toggle(radio):
        radio.up = not radio.up

    for k, (tick, sender, size, cls) in enumerate(txs, start=1):
        frame = Frame(src=sender, dst=BROADCAST, size=size, msg_class=cls, frame_id=k)
        sim.schedule_at(tick * TICK, send, radios[sender], frame)
    for tick, node in toggles:
        sim.schedule_at(tick * TICK, toggle, radios[node])
    sim.run()
    return {
        "deliveries": deliveries,
        "n_collision": channel.n_collision,
        "n_halfduplex_loss": channel.n_halfduplex_loss,
        "rx_class_counts": dict(channel._rx_class_counts),
        "rx_energy": [
            (r.energy.rx_time, r.energy.rx_time_by_class)
            for r in radios
        ],
        "busy_until": [r.busy_until for r in radios],
        "records": [(rec.time, rec.category, rec.fields) for rec in records],
    }


@st.composite
def schedules(draw):
    """Random positions, overlapping broadcasts and liveness flips.

    Positions span under two ranges, so links, gaps and hidden terminals
    all occur.  Flips are placed relative to a transmission's tick, so
    they land in its propagation window or its air time often.
    """
    n = draw(st.integers(min_value=2, max_value=6))
    positions = draw(
        st.lists(
            st.tuples(st.integers(0, 70), st.integers(0, 70)), min_size=n, max_size=n
        )
    )
    txs = draw(
        st.lists(
            st.tuples(
                st.integers(0, 400),
                st.integers(0, n - 1),
                st.integers(1, 20),
                st.sampled_from(CLASSES),
            ),
            min_size=1,
            max_size=12,
        )
    )
    anchors = [tick for tick, *_ in txs]
    flips = draw(
        st.lists(
            st.tuples(
                st.sampled_from(anchors), st.integers(-2, 220), st.integers(0, n - 1)
            ),
            max_size=10,
        )
    )
    toggles = [(max(0, anchor + delta), node) for anchor, delta, node in flips]
    return positions, txs, toggles


@given(schedules())
# node 1 goes down one tick after the transmission, before the arrival
# start, and comes back up during the reception
@example(([(0, 0), (10, 0), (20, 0)], [(0, 0, 16, "data"), (40, 2, 2, "ack")], [(1, 1), (30, 1)]))
# node 1 fails and recovers during a clean reception
@example(([(0, 0), (10, 0)], [(0, 0, 16, "data")], [(20, 1), (40, 1)]))
# node 1 fails during a clean reception and stays down
@example(([(0, 0), (10, 0)], [(0, 0, 16, "data")], [(20, 1)]))
# node 1 starts transmitting during a clean reception, then node 2's
# frame starts arriving while it transmits
@example(
    (
        [(0, 0), (30, 0), (60, 0)],
        [(0, 0, 16, "data"), (20, 1, 4, "ack"), (30, 2, 4, "interest")],
        [],
    )
)
@settings(max_examples=300, deadline=None)
def test_disc_rules_match_per_arrival_reference(schedule):
    positions, txs, toggles = schedule
    assert play(Channel, positions, txs, toggles) == play(
        ReferenceChannel, positions, txs, toggles
    )

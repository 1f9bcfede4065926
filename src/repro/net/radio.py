"""Wireless PHY: shared channel, propagation models, collisions, energy.

Baseline model (matching the ns-2 setup the paper used):

* **Disc propagation** — a transmission is heard by every *up* node within
  ``range_m`` (40 m default); nothing beyond.  Propagation delay is a small
  constant (distances are ~100 m, so ~0.3 us; we use 1 us).
* **Fixed transmit power** — no power control; "we measure energy as
  equivalent to hops" (paper §4.1) holds because every hop costs the same.
* **Half duplex** — a radio cannot receive while transmitting.
* **Collisions, no capture** — two frames overlapping in time at a receiver
  corrupt each other there (this includes hidden-terminal collisions, which
  is what degrades the opportunistic scheme's low-latency paths at high
  density).
* **Promiscuous energy** — every in-range radio pays receive energy for
  every frame, corrupted or not, exactly like a real listening radio.

Propagation and corruption are pluggable behind
:class:`~repro.net.channel.ChannelModel` (``Channel(..., model=...)``):
the default :class:`~repro.net.channel.DiscModel` keeps the baseline
above bit-identically, while :class:`~repro.net.channel.PathlossModel`
replaces the disc with a log-distance link budget and all-or-nothing
collisions with an SINR capture test over per-receiver, per-band running
interference sums (see DESIGN.md §14 for the math and the equivalence
argument).

The :class:`Channel` owns topology (positions, precomputed neighbor index
arrays — and, for capture models, per-pair receive powers — via a uniform
grid) and the :class:`Radio` instances; radios are driven by the MAC
layer above.

Each broadcast services its whole neighborhood with two *cohort* events
(arrival start and arrival end) that walk its receivers in ascending
node-id order (see DESIGN.md §13).  The channel model picks the rules
they apply:

* **Disc rules** (every model with ``capture`` off): the second arrival
  to start at a receiver corrupts everything in flight there, so a
  receiver never holds more than one clean arrival.  Each radio keeps
  only a count of its arrivals in flight and the token of its clean one,
  and the two cohort events do each receiver's work inline, with no
  per-arrival object (DESIGN.md §9).
* **SINR capture**: each receiver keeps its in-flight :class:`_Arrival`
  objects, with their powers, and :meth:`Radio.arrival_start` /
  :meth:`Radio.arrival_end` decide decoding by the capture test.

``tests/property/test_golden_runs.py`` pins the resulting RunMetrics,
timelines and audits bit for bit, and
``tests/property/test_disc_reference.py`` checks the disc rules against
the per-arrival implementation they replaced.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..sim import Simulator, Tracer
from .channel import ChannelModel, DiscModel
from .energy import EnergyMeter
from .packet import Frame

__all__ = ["RadioParams", "Channel", "Radio"]


@dataclass(frozen=True)
class RadioParams:
    """PHY constants (paper defaults: 40 m range, 1.6 Mbps)."""

    range_m: float = 40.0
    bitrate_bps: float = 1.6e6
    propagation_delay_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.range_m <= 0 or self.bitrate_bps <= 0 or self.propagation_delay_s < 0:
            raise ValueError("invalid radio parameters")

    def air_time(self, size_bytes: int) -> float:
        """Seconds the channel is occupied by a frame of ``size_bytes``."""
        return size_bytes * 8.0 / self.bitrate_bps


class _Arrival:
    """One in-flight frame at one receiver, under SINR capture.

    The disc rules need no per-arrival state (see :func:`_disc_start`).
    """

    __slots__ = ("frame", "cls", "start", "end", "corrupted", "rx_mw", "band", "smax")

    def __init__(
        self,
        frame: Frame,
        cls: str,
        start: float,
        end: float,
        rx_mw: float,
        band: int,
    ) -> None:
        self.frame = frame
        #: frame.msg_class, stashed once per fan-out (hot-path alias)
        self.cls = cls
        self.start = start
        self.end = end
        self.corrupted = False
        #: linear received power at this receiver (capture models)
        self.rx_mw = rx_mw
        #: frequency band of the frame (``src % n_bands``)
        self.band = band
        #: max same-band power sum seen during this arrival's airtime
        self.smax = 0.0


def _disc_start(
    channel: "Channel",
    receivers: list["Radio"],
    down: list["Radio"],
    cls: str,
    start: float,
    end: float,
) -> None:
    """Begin one frame's reception at every receiver, under the disc rules.

    ``down`` is fresh per transmission, so besides collecting the
    receivers that are down now (the end skips them) it is the frame's
    *token*: a receiver's ``_clean`` holds it while this frame is the one
    clean arrival in flight there.  That one suffices because the second
    arrival to start at a receiver corrupts everything in flight, itself
    included.
    """
    now = channel.sim.now
    rx_time = end - start
    collided = halfduplex = 0
    for r in receivers:
        if not r.up:
            down.append(r)  # radio off: nothing heard, nothing spent
            continue
        if end > r.busy_until:
            r.busy_until = end
        r.energy.note_rx(start, rx_time, cls)
        if now < r.tx_until:
            # Half duplex: a transmitting radio misses the frame, and the
            # frame still corrupts the one in flight.
            halfduplex += 1
            if r._clean is not None:
                r._clean = None
                collided += 1
        elif r._n_active:
            # Overlap with another in-flight frame: everyone is corrupted.
            collided += 1 if r._clean is None else 2
            r._clean = None
        else:
            r._clean = down
        r._n_active += 1
    if collided:
        channel.n_collision += collided
    if halfduplex:
        channel.n_halfduplex_loss += halfduplex


def _disc_end(
    channel: "Channel",
    receivers: list["Radio"],
    down: list["Radio"],
    frame: Frame,
    cls: str,
) -> None:
    """Finish one frame's reception at every receiver, under the disc rules.

    A receiver that still holds the frame's token (see
    :func:`_disc_start`) and is up and not transmitting counts the frame
    and gets it delivered.  Whether anyone records ``phy.rx`` is asked
    once per frame, not once per receiver.
    """
    now = channel.sim.now
    tracer = channel.tracer
    record_rx = tracer.wants("phy.rx")
    delivered = 0
    for r in receivers:
        if down and r in down:
            continue  # down when the frame started: never received
        r._n_active -= 1
        if r._clean is not down:
            continue  # corrupted by a collision or half duplex
        r._clean = None
        if not r.up:
            continue
        if now < r.tx_until:
            # Started transmitting mid-reception (should be rare given
            # carrier sense, but possible with zero-backoff ACKs).
            channel.n_halfduplex_loss += 1
            continue
        delivered += 1
        if record_rx:
            tracer.record("phy.rx", frame=frame.frame_id, node=r.node_id, src=frame.src)
        if r.deliver is not None:
            r.deliver(frame)
    if delivered:
        counts = channel._rx_class_counts
        try:
            counts[cls] += delivered
        except KeyError:
            counts[cls] = delivered


def _capture_start(arrivals: list) -> None:
    """Begin reception of one frame at every receiver, under SINR capture."""
    for receiver, arrival in arrivals:
        receiver.arrival_start(arrival)


def _capture_end(arrivals: list, tracer: Tracer) -> None:
    """Finish reception of one frame at every receiver, under SINR capture.

    Whether anyone records ``phy.rx`` is asked once per frame, not once
    per receiver.
    """
    record_rx = tracer.wants("phy.rx")
    for receiver, arrival in arrivals:
        receiver.arrival_end(arrival, record_rx)


def _top_up(counter, total: int) -> None:
    """Raise a registry counter to ``total`` (never lowers it)."""
    if total > counter.value:
        counter.inc(total - counter.value)


class Channel:
    """The shared wireless medium: positions, neighborhoods, delivery."""

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        params: RadioParams,
        model: Optional[ChannelModel] = None,
    ) -> None:
        self.sim = sim
        self.tracer = tracer
        self.params = params
        #: propagation/corruption strategy (default: the paper's disc)
        self.model: ChannelModel = model if model is not None else DiscModel(params.range_m)
        #: SINR-capture mode (pathloss with capture on); hot-path alias
        self._capture = self.model.capture
        self._n_bands = self.model.n_bands
        self._noise_mw = self.model.noise_mw
        self._thr = self.model.thr
        self.radios: dict[int, Radio] = {}
        #: radios by row (row = registration order)
        self._row_radio: list["Radio"] = []
        self._row_of: dict[int, int] = {}
        #: per-row neighbor rows, presorted by neighbor node id
        self._nbr_rows: Optional[list[np.ndarray]] = None
        #: per-row linear rx power at each neighbor, aligned with
        #: ``_nbr_rows`` (capture models only; None otherwise)
        self._nbr_rxmw: Optional[list[np.ndarray]] = None
        #: lazily materialized Radio lists for the neighbors() API
        self._nbr_radios: dict[int, list["Radio"]] = {}
        #: lazily materialized per-neighbor rx powers as builtin floats
        self._nbr_rx_list: dict[int, list[float]] = {}
        self._frame_bytes = tracer.registry.histogram(
            "radio.frame_bytes", buckets=(10, 36, 64, 128, 256, 512)
        )
        # The PHY counts in plain ints, because a registry counter bump
        # per receiver per frame is measurable at fan-out rates;
        # publish_counters() copies the totals into the registry.
        # Per-message-class tx/rx frame counts (cardinality bounded by
        # MESSAGE_CLASSES, ~9); their sums are radio.tx and radio.rx.
        self._tx_class_counts: dict[str, int] = {}
        self._rx_class_counts: dict[str, int] = {}
        #: ``radio.tx_bytes``: bytes put on the air
        self.n_tx_bytes = 0
        #: ``radio.collision``: arrivals corrupted by an overlap
        self.n_collision = 0
        #: ``radio.halfduplex_loss``: frames missed by a transmitting receiver
        self.n_halfduplex_loss = 0
        #: ``radio.sinr_loss``: frames that failed the SINR capture test
        self.n_sinr_loss = 0
        #: MACs on this channel's radios (each CsmaMac appends itself);
        #: publish_counters() sums their counters
        self.macs: list = []
        #: frame ids for this channel's MACs: unique per channel, so a
        #: run's trace does not depend on what ran before it
        self.frame_ids = itertools.count(1)

    def publish_counters(self) -> None:
        """Publish the PHY and MAC counters to the registry.

        Tops up the unlabelled ``radio.*`` counters from this channel's
        fields and per-class counts, the ``mac.*`` counters from the sum
        over :attr:`macs`, and the ``radio.tx_class{cls=...}`` /
        ``radio.rx_class{cls=...}`` series.  A counter that never fired
        stays unregistered, as if it had been counted per event.

        Idempotent: each call raises the counters to the accumulated
        totals, so a second call, with or without traffic in between,
        never double-counts.  :func:`~repro.experiments.runner.run_observed`
        calls it after the run; a caller that drives ``sim.run`` itself
        calls it before reading these counters from the registry.
        """
        totals = {
            "radio.tx": sum(self._tx_class_counts.values()),
            "radio.tx_bytes": self.n_tx_bytes,
            "radio.rx": sum(self._rx_class_counts.values()),
            "radio.collision": self.n_collision,
            "radio.halfduplex_loss": self.n_halfduplex_loss,
            "radio.sinr_loss": self.n_sinr_loss,
        }
        for mac in self.macs:
            for name, n in mac.counts().items():
                totals[name] = totals.get(name, 0) + n
        counter = self.tracer.registry.counter
        for name, n in totals.items():
            if n:
                _top_up(counter(name), n)
        for name, counts in (
            ("radio.tx_class", self._tx_class_counts),
            ("radio.rx_class", self._rx_class_counts),
        ):
            for cls in sorted(counts):
                _top_up(counter(name, cls=cls), counts[cls])

    def register(self, radio: "Radio") -> None:
        if radio.node_id in self.radios:
            raise ValueError(f"duplicate node id {radio.node_id}")
        self.radios[radio.node_id] = radio
        self._row_of[radio.node_id] = len(self._row_radio)
        self._row_radio.append(radio)
        self._nbr_rows = None  # invalidate cache
        self._nbr_rxmw = None
        self._nbr_radios.clear()
        self._nbr_rx_list.clear()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def neighbors(self, node_id: int) -> list["Radio"]:
        """Radios within range of ``node_id`` (excluding itself).

        Materialized lazily from the row-index cache, in ascending
        neighbor node-id order, and memoized — the transmit path hits
        this per frame.
        """
        cached = self._nbr_radios.get(node_id)
        if cached is None:
            rows = self.neighbor_rows(node_id)
            radios = self._row_radio
            cached = [radios[r] for r in rows]
            self._nbr_radios[node_id] = cached
        return cached

    def neighbor_rows(self, node_id: int) -> np.ndarray:
        """Rows within range of ``node_id``, presorted by node id."""
        if self._nbr_rows is None:
            self._build_neighbor_cache()
        assert self._nbr_rows is not None
        return self._nbr_rows[self._row_of[node_id]]

    def _neighbor_rx(self, node_id: int) -> list[float]:
        """Per-neighbor linear rx powers as builtin floats (memoized).

        Aligned with :meth:`neighbors`; capture fan-outs read these so
        numpy scalars never enter per-arrival arithmetic.
        """
        cached = self._nbr_rx_list.get(node_id)
        if cached is None:
            if self._nbr_rows is None:
                self._build_neighbor_cache()
            assert self._nbr_rxmw is not None
            cached = [float(v) for v in self._nbr_rxmw[self._row_of[node_id]]]
            self._nbr_rx_list[node_id] = cached
        return cached

    def _build_neighbor_cache(self) -> None:
        """Grid-bucketed neighbor computation: O(N * degree).

        The cache is a list of presorted ``np.intp`` row arrays;
        distances are float64, bitwise the same tests a per-pair loop
        would apply.  Link eligibility comes from the channel model;
        capture models additionally yield a per-pair linear rx-power
        array aligned with each row array (the SINR test is then pure
        per-receiver arithmetic).
        """
        n = len(self._row_radio)
        xs = np.array([r.x for r in self._row_radio])
        ys = np.array([r.y for r in self._row_radio])
        ids = np.array([r.node_id for r in self._row_radio], dtype=np.int64)
        model = self.model
        cell = model.grid_cell_m
        cx = np.floor_divide(xs, cell).astype(np.int64)
        cy = np.floor_divide(ys, cell).astype(np.int64)
        grid: dict[tuple[int, int], list[int]] = {}
        for row in range(n):
            grid.setdefault((int(cx[row]), int(cy[row])), []).append(row)
        want_rx = self._capture
        result: list[np.ndarray] = [None] * n  # type: ignore[list-item]
        result_rx: list[np.ndarray] = [None] * n if want_rx else None  # type: ignore[assignment]
        empty = np.empty(0, dtype=np.intp)
        empty_f = np.empty(0)
        for (gx, gy), rows_here in grid.items():
            cand_lists = [
                got
                for dx in (-1, 0, 1)
                for dy in (-1, 0, 1)
                if (got := grid.get((gx + dx, gy + dy))) is not None
            ]
            cand = np.concatenate([np.asarray(c, dtype=np.intp) for c in cand_lists])
            # presort once per cell so every row's mask comes out id-ordered
            cand = cand[np.argsort(ids[cand], kind="stable")]
            candx, candy = xs[cand], ys[cand]
            for row in rows_here:
                ddx = candx - xs[row]
                ddy = candy - ys[row]
                eligible, rx = model.link(ddx * ddx + ddy * ddy)
                keep = eligible & (cand != row)
                near = cand[keep]
                result[row] = near if near.size else empty
                if want_rx:
                    result_rx[row] = rx[keep] if near.size else empty_f
        self._nbr_rows = result
        self._nbr_rxmw = result_rx

    def distance(self, a: int, b: int) -> float:
        ra, rb = self.radios[a], self.radios[b]
        return math.hypot(ra.x - rb.x, ra.y - rb.y)

    # ------------------------------------------------------------------
    # transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: "Radio", frame: Frame) -> float:
        """Put ``frame`` on the air from ``sender``; returns air time.

        Delivery (or corruption) at each in-range receiver is scheduled on
        the simulator; the caller (MAC) is responsible for its own
        end-of-transmission bookkeeping.

        All receivers hear the frame at the same two instants (start and
        end of reception), so the whole neighborhood is serviced by *two*
        scheduled cohort events over the receivers that are up now — not
        two events per receiver.  Receivers are visited in ascending
        node-id order inside each fan-out.  Each cohort entry counts one
        logical event per receiver toward ``Simulator.events_processed``.
        """
        params = self.params
        duration = params.air_time(frame.size)
        prop = params.propagation_delay_s
        sim = self.sim
        now = sim.now
        tracer = self.tracer
        self.n_tx_bytes += frame.size
        self._frame_bytes.observe(frame.size)
        cls = frame.msg_class
        counts = self._tx_class_counts
        try:
            counts[cls] += 1
        except KeyError:
            counts[cls] = 1
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
        # NB: now + (prop + duration), not (now + prop) + duration — the
        # end event's timestamp must match the historical float exactly
        # (it differs from ``end`` by an ULP on some inputs, and event
        # timestamps feed tie-breaking and MAC timing).
        end_at = now + (prop + duration)
        if self._capture:
            band = sender.node_id % self._n_bands
            arrivals = [
                (receiver, _Arrival(frame, cls, start, end, rx_mw, band))
                for receiver, rx_mw in zip(
                    self.neighbors(sender.node_id), self._neighbor_rx(sender.node_id)
                )
                if receiver.up
            ]
            if arrivals:
                n = len(arrivals)
                sim.schedule_cohort_at(start, n, _capture_start, arrivals)
                sim.schedule_cohort_at(end_at, n, _capture_end, arrivals, tracer)
            return duration
        receivers = [r for r in self.neighbors(sender.node_id) if r.up]
        if receivers:
            n = len(receivers)
            down: list[Radio] = []
            sim.schedule_cohort_at(start, n, _disc_start, self, receivers, down, cls, start, end)
            sim.schedule_cohort_at(end_at, n, _disc_end, self, receivers, down, frame, cls)
        return duration


class Radio:
    """One node's radio: reception state, carrier sense, energy."""

    __slots__ = (
        "node_id",
        "x",
        "y",
        "channel",
        "energy",
        "tracer",
        "sim",
        "tx_until",
        "busy_until",
        "_n_active",
        "_clean",
        "_active",
        "deliver",
        "up",
        "_interf",
    )

    def __init__(
        self,
        node_id: int,
        x: float,
        y: float,
        channel: Channel,
        energy: EnergyMeter,
    ) -> None:
        self.node_id = node_id
        self.x = x
        self.y = y
        self.channel = channel
        self.energy = energy
        self.tracer = channel.tracer
        self.sim = channel.sim
        #: end of our own current transmission (half-duplex bookkeeping)
        self.tx_until = 0.0
        #: carrier-sense horizon: medium considered busy until this time
        self.busy_until = 0.0
        #: disc rules: arrivals in flight here, and the token of the one
        #: clean arrival among them, or None (see _disc_start)
        self._n_active = 0
        self._clean: Optional[list] = None
        #: SINR capture: the arrivals in flight here
        self._active: list[_Arrival] = []
        #: callback(frame) installed by the MAC for clean receptions
        self.deliver: Optional[Callable[[Frame], None]] = None
        #: liveness flag, pushed by the owning node on fail/recover.
        #: A plain attribute on purpose: it is read per receiver per
        #: frame (the transmit fan-out and both cohort events), where a
        #: property + callback indirection is measurable.
        self.up = True
        #: SINR capture: per-band running interference sums
        self._interf = [0.0] * channel._n_bands if channel._capture else None
        channel.register(self)

    # ------------------------------------------------------------------
    @property
    def transmitting(self) -> bool:
        return self.sim.now < self.tx_until

    def medium_busy(self) -> bool:
        """Carrier sense: energy on the channel or our own transmission."""
        now = self.sim.now
        return now < self.busy_until or now < self.tx_until

    def start_tx(self, frame: Frame) -> float:
        """Transmit ``frame``; returns its air time."""
        if not self.up:
            raise RuntimeError(f"node {self.node_id} is down; cannot transmit")
        return self.channel.transmit(self, frame)

    # ------------------------------------------------------------------
    # reception path under SINR capture (driven by Channel-scheduled
    # events; the disc rules run inline in _disc_start/_disc_end)
    # ------------------------------------------------------------------
    def arrival_start(self, arrival: _Arrival) -> None:
        """Begin one arrival under SINR capture."""
        if not self.up:
            arrival.corrupted = True  # radio off: nothing heard, nothing spent
            return
        end = arrival.end
        if end > self.busy_until:
            self.busy_until = end
        self.energy.note_rx(arrival.start, end - arrival.start, arrival.cls)
        if self.sim.now < self.tx_until:
            # Half duplex: we miss frames that arrive while we transmit.
            arrival.corrupted = True
            self.channel.n_halfduplex_loss += 1
        # No pairwise corruption: advance this band's running power sum
        # and raise the watermark of every same-band arrival in flight
        # (sums only grow at starts, so tracking the max here is exact).
        # A half-duplex-lost frame still radiates.
        band = arrival.band
        interf = self._interf
        s = interf[band] + arrival.rx_mw
        interf[band] = s
        for other in self._active:
            if other.band == band and s > other.smax:
                other.smax = s
        arrival.smax = s
        self._active.append(arrival)

    def arrival_end(self, arrival: _Arrival, record_rx: bool) -> None:
        """Finish one arrival under SINR capture; a decodable one is delivered.

        ``record_rx`` says whether to emit a ``phy.rx`` record (the
        fan-out asks the tracer once per frame).
        """
        try:
            self._active.remove(arrival)
        except ValueError:
            return  # arrival was never started (node was down)
        self._interf[arrival.band] -= arrival.rx_mw
        if arrival.corrupted or not self.up:
            return
        if self.sim.now < self.tx_until:
            # Started transmitting mid-reception (should be rare given
            # carrier sense, but possible with zero-backoff ACKs).
            self.channel.n_halfduplex_loss += 1
            return
        ch = self.channel
        if arrival.rx_mw < ch._thr * (ch._noise_mw + (arrival.smax - arrival.rx_mw)):
            ch.n_sinr_loss += 1
            return
        counts = ch._rx_class_counts
        cls = arrival.cls
        try:
            counts[cls] += 1
        except KeyError:
            counts[cls] = 1
        if record_rx:
            self.tracer.record(
                "phy.rx",
                frame=arrival.frame.frame_id,
                node=self.node_id,
                src=arrival.frame.src,
            )
        if self.deliver is not None:
            self.deliver(arrival.frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Radio {self.node_id} at ({self.x:.1f},{self.y:.1f})>"

"""Simplified 802.11-style CSMA/CA MAC.

Replaces the ns-2 1.6 Mbps 802.11 MAC the paper used.  The mechanisms that
matter for the study are kept:

* **carrier sense + random backoff** — contention grows with density, which
  jitters delivery order (the effect that de-synchronises the opportunistic
  scheme's lowest-latency paths, §5.2);
* **collisions** — simultaneous transmissions are lost at common receivers
  (handled in the PHY), so congestion costs both energy and delivery ratio;
* **broadcast vs unicast** — broadcasts (interest/exploratory floods) are
  fire-and-forget; unicasts (data along gradients, reinforcements) are
  ACKed with bounded retransmission, like 802.11 DCF.

RTS/CTS and virtual carrier sense are omitted — the original study ran with
small frames (64 B) far below any RTS threshold.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import ScheduledEvent, Simulator, Tracer
from .packet import BROADCAST, Frame, FrameKind
from .radio import Radio

__all__ = ["MacParams", "CsmaMac"]


@dataclass(frozen=True)
class MacParams:
    """MAC timing and retry constants (802.11-flavored defaults)."""

    slot_time_s: float = 20e-6
    sifs_s: float = 10e-6
    difs_s: float = 50e-6
    cw_min: int = 8
    cw_max: int = 256
    retry_limit: int = 4
    ack_size_bytes: int = 10
    queue_limit: int = 128

    def __post_init__(self) -> None:
        if self.cw_min < 1 or self.cw_max < self.cw_min:
            raise ValueError("invalid contention window bounds")
        if self.retry_limit < 0 or self.queue_limit < 1:
            raise ValueError("invalid retry/queue limits")


class CsmaMac:
    """Per-node CSMA/CA transmitter + receiver.

    Upper layers call :meth:`send`; clean receptions are handed to the
    ``receive_callback(payload, from_id)`` installed by the node.  The MAC
    owns a FIFO queue and transmits one frame at a time.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Radio,
        params: MacParams,
        rng: random.Random,
        tracer: Tracer,
    ) -> None:
        self.sim = sim
        self.radio = radio
        self.params = params
        self.rng = rng
        self.tracer = tracer
        radio.deliver = self._on_phy_receive
        #: the channel's frame-id source (data frames and ACKs)
        self._frame_ids = radio.channel.frame_ids

        self.receive_callback: Optional[Callable[[Any, int], None]] = None
        self._queue: deque[Frame] = deque()
        self._current: Optional[Frame] = None
        self._retries = 0
        self._cw = params.cw_min
        self._pending: Optional[ScheduledEvent] = None
        self._ack_timer: Optional[ScheduledEvent] = None
        # ACK air time + SIFS + propagation both ways + one slot of slack.
        ack_air = radio.channel.params.air_time(params.ack_size_bytes)
        prop = radio.channel.params.propagation_delay_s
        self._ack_timeout = params.sifs_s + ack_air + 2 * prop + params.slot_time_s

        registry = tracer.registry
        self._backoff_slots = registry.histogram(
            "mac.backoff_slots", buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
        )
        self._queue_depth = registry.histogram(
            "mac.queue_depth", buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128)
        )
        # Counters that fire once per frame or once per receiver are
        # plain ints; Channel.publish_counters() sums them over the
        # channel's MACs into the registry (see counts()).
        self.n_tx = 0
        self.n_rx = 0
        self.n_defer = 0
        self.n_acked = 0
        self.n_ack_tx = 0
        radio.channel.macs.append(self)

    def counts(self) -> dict[str, int]:
        """This MAC's plain-int counters, by registry counter name."""
        return {
            "mac.tx": self.n_tx,
            "mac.rx": self.n_rx,
            "mac.defer": self.n_defer,
            "mac.acked": self.n_acked,
            "mac.ack_tx": self.n_ack_tx,
        }

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def send(self, payload: Any, dst: int, size: int) -> bool:
        """Queue ``payload`` for transmission.  Returns False on queue drop."""
        if not self.radio.up:
            self.tracer.count("mac.drop_down")
            return False
        if len(self._queue) >= self.params.queue_limit:
            self.tracer.count("mac.drop_queue")
            return False
        self._queue.append(
            Frame(
                src=self.radio.node_id,
                dst=dst,
                size=size,
                payload=payload,
                # duck-typed: diffusion messages declare a wire_class; the
                # net layer stays payload-agnostic and just carries it.
                msg_class=getattr(payload, "wire_class", "other"),
                frame_id=next(self._frame_ids),
            )
        )
        self._queue_depth.observe(len(self._queue))
        self._kick()
        return True

    @property
    def busy(self) -> bool:
        """True while a frame is being contended for, sent, or awaiting ACK."""
        return self._current is not None

    def queue_length(self) -> int:
        return len(self._queue)

    def _kick(self) -> None:
        if self._current is not None or not self._queue:
            return
        self._current = self._queue.popleft()
        self._retries = 0
        self._cw = self.params.cw_min
        self._backoff()

    def _backoff(self) -> None:
        """Defer DIFS + a random number of slots, then sense-and-transmit."""
        slots = self.rng.randrange(self._cw)
        self._backoff_slots.observe(slots)
        delay = self.params.difs_s + slots * self.params.slot_time_s
        self._pending = self.sim.schedule(delay, self._sense_and_transmit)

    def _sense_and_transmit(self) -> None:
        self._pending = None
        if self._current is None:
            return
        if not self.radio.up:
            self._abort_current("mac.drop_down")
            return
        if self.radio.medium_busy():
            # Medium busy: double the window and re-contend after it frees.
            self.n_defer += 1
            self._cw = min(self._cw * 2, self.params.cw_max)
            wait = max(self.radio.busy_until - self.sim.now, 0.0)
            self._pending = self.sim.schedule(wait + self._jitter(), self._backoff_now)
            return
        frame = self._current
        duration = self.radio.start_tx(frame)
        self.n_tx += 1
        self.sim.schedule(duration, self._tx_done)

    def _backoff_now(self) -> None:
        self._pending = None
        self._backoff()

    def _jitter(self) -> float:
        return self.rng.random() * self.params.slot_time_s

    def _tx_done(self) -> None:
        frame = self._current
        if frame is None:
            return
        if frame.is_broadcast:
            self._complete()
        else:
            self._ack_timer = self.sim.schedule(self._ack_timeout, self._on_ack_timeout)

    def _on_ack_timeout(self) -> None:
        self._ack_timer = None
        self._retries += 1
        self.tracer.count("mac.retry")
        if self._retries > self.params.retry_limit:
            self._abort_current("mac.drop_retry")
            return
        self._cw = min(self._cw * 2, self.params.cw_max)
        self._backoff()

    def _complete(self) -> None:
        self._current = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._kick()

    def _abort_current(self, counter: str) -> None:
        self.tracer.count(counter)
        self._current = None
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        self._kick()

    def fail(self) -> None:
        """Node went down: flush all MAC state and the queue."""
        self._queue.clear()
        self._current = None
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def _on_phy_receive(self, frame: Frame) -> None:
        if frame.kind == FrameKind.ACK:
            self._handle_ack(frame)
            return
        if frame.dst != BROADCAST and frame.dst != self.radio.node_id:
            return  # overheard unicast for someone else (energy already paid)
        if frame.dst == self.radio.node_id:
            self._send_ack(frame)
        self.n_rx += 1
        if self.receive_callback is not None:
            self.receive_callback(frame.payload, frame.src)

    def _handle_ack(self, ack: Frame) -> None:
        if ack.dst != self.radio.node_id:
            return
        current = self._current
        if (
            current is not None
            and self._ack_timer is not None
            and ack.payload == current.frame_id
        ):
            self.n_acked += 1
            self._complete()

    def _send_ack(self, frame: Frame) -> None:
        ack = frame.ack_frame(self.params.ack_size_bytes, next(self._frame_ids))
        self.sim.schedule(self.params.sifs_s, self._transmit_ack, ack)

    def _transmit_ack(self, ack: Frame) -> None:
        # ACKs pre-empt via SIFS (no carrier sense), but a half-duplex radio
        # that is mid-transmission simply cannot send one.
        if not self.radio.up or self.radio.transmitting:
            self.tracer.count("mac.ack_skipped")
            return
        self.radio.start_tx(ack)
        self.n_ack_tx += 1

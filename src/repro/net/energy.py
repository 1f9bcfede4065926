"""Radio energy accounting.

Reproduces the paper's modified ns-2 energy model, calibrated to the
Sensoria WINS NG radio [Kaiser]:

* transmit:  660 mW
* receive:   395 mW   (also charged for promiscuous overhearing — every
  in-range radio pays reception cost, as in ns-2)
* idle:       35 mW   ("about 10% of receive, about 5% of transmit")

The model accumulates time-in-state; energy is derived on demand.  The
paper's *average dissipated energy* metric is dominated by communication
energy (see DESIGN.md §4): with idle charged over the full run, the idle
floor (35 mW x N x T) is identical across schemes and would flatten the
comparison, so the experiment harness reports tx+rx by default and exposes
``include_idle`` for the full number.

Receive time is charged against a watermark.  The radio reports each
reception when it starts, in time order, so a reception that overlaps
the previous one (a collision) bills only its air time past the last
charged edge, and the meter keeps two floats per node rather than a
history of intervals.

Every charge additionally carries a **message class** (``"interest"``,
``"exploratory"``, ``"data"``, ``"aggregate"``, ``"reinforcement"``, ...;
see :data:`MESSAGE_CLASSES`) so a run's energy decomposes by protocol
phase — the breakdown the original diffusion and LEACH evaluations report.
The same increment feeds both the total and its class bucket, so class
totals sum to ``tx_time`` / ``rx_time`` up to float summation order
(within 1e-9 over any realistic run); the auditor
(:class:`repro.obs.audit.EnergyAttributionChecker`) verifies the identity
on every audited run.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyParams", "EnergyMeter", "MESSAGE_CLASSES", "UNCLASSIFIED"]

#: the message classes energy charges are attributed to (wire classes of
#: the diffusion messages, plus the MAC's ACKs and a catch-all)
MESSAGE_CLASSES = (
    "interest",
    "exploratory",
    "data",        # single-item aggregates (unmerged readings)
    "aggregate",   # multi-item aggregates (merged readings)
    "reinforcement",
    "negative",
    "cost",        # greedy incremental-cost advertisements
    "ack",
    "other",
)

#: class used when a frame's payload does not declare a wire class
UNCLASSIFIED = "other"


@dataclass(frozen=True)
class EnergyParams:
    """Per-state radio power draw in watts (paper defaults)."""

    tx_power_w: float = 0.660
    rx_power_w: float = 0.395
    idle_power_w: float = 0.035

    def __post_init__(self) -> None:
        for name in ("tx_power_w", "rx_power_w", "idle_power_w"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class EnergyMeter:
    """Accumulates radio time-in-state for one node.

    The radio layer calls :meth:`note_tx` / :meth:`note_rx` with frame air
    times.  Idle time is everything else: a node's radio is either
    transmitting, receiving (possibly a corrupted frame — energy is spent
    either way), or idle-listening.  Overlapping receptions are merged
    against the rightmost charged interval ``[_rx_start, _rx_last]``, so
    receive time never exceeds wall-clock time.  Receptions must be
    reported in start order: a start before ``_rx_start`` could overlap
    charged time the meter no longer remembers, so it raises instead of
    guessing.
    """

    __slots__ = (
        "params",
        "tx_time",
        "rx_time",
        "_rx_start",
        "_rx_last",
        "tx_time_by_class",
        "rx_time_by_class",
    )

    def __init__(self, params: EnergyParams) -> None:
        self.params = params
        self.tx_time = 0.0
        self.rx_time = 0.0
        #: the rightmost charged receive interval [_rx_start, _rx_last];
        #: a reception starting inside it is billed only past _rx_last
        self._rx_start = float("-inf")
        self._rx_last = float("-inf")
        #: per-message-class time-in-state (sums to tx_time / rx_time)
        self.tx_time_by_class: dict[str, float] = {}
        self.rx_time_by_class: dict[str, float] = {}

    def note_tx(self, duration: float, cls: str = UNCLASSIFIED) -> None:
        """Charge one transmission of ``duration`` seconds to class ``cls``."""
        if duration < 0:
            raise ValueError("negative duration")
        self.tx_time += duration
        by_class = self.tx_time_by_class
        try:
            by_class[cls] += duration
        except KeyError:
            by_class[cls] = duration

    def note_rx(self, start: float, duration: float, cls: str = UNCLASSIFIED) -> None:
        """Charge a reception starting at ``start`` lasting ``duration``.

        Only the part of ``[start, start + duration]`` not already covered
        by earlier charges is billed (to class ``cls``), so total receive
        time stays physical however receptions overlap.  ``start`` must
        not precede the start of the rightmost charged interval
        (``ValueError`` otherwise, with nothing charged).
        """
        if duration < 0:
            raise ValueError("negative duration")
        end = start + duration
        last = self._rx_last
        if start >= last:
            # At or past the rightmost charged edge: a fresh interval.
            if end <= start:
                return
            self._rx_start = start
            charged = end - start
        elif start >= self._rx_start:
            # Overlaps the rightmost interval, as a collision does.
            if end <= last:
                return  # entirely inside the already-charged interval
            charged = end - last
        else:
            raise ValueError(
                f"reception start {start!r} precedes the charged interval "
                f"starting at {self._rx_start!r}; report receptions in start order"
            )
        self._rx_last = end
        self.rx_time += charged
        by_class = self.rx_time_by_class
        try:
            by_class[cls] += charged
        except KeyError:
            by_class[cls] = charged

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def class_times(self) -> dict[str, tuple[float, float]]:
        """Per-class ``(tx_time, rx_time)`` snapshot (copies, safe to keep)."""
        classes = set(self.tx_time_by_class) | set(self.rx_time_by_class)
        return {
            cls: (self.tx_time_by_class.get(cls, 0.0), self.rx_time_by_class.get(cls, 0.0))
            for cls in classes
        }

    def energy_by_class_j(self) -> dict[str, float]:
        """Communication energy decomposed by message class (joules)."""
        txp, rxp = self.params.tx_power_w, self.params.rx_power_w
        out: dict[str, float] = {}
        for cls, t in self.tx_time_by_class.items():
            out[cls] = out.get(cls, 0.0) + txp * t
        for cls, t in self.rx_time_by_class.items():
            out[cls] = out.get(cls, 0.0) + rxp * t
        return out

    def idle_time(self, total_time: float) -> float:
        """Idle-listening time over a run of ``total_time`` seconds."""
        busy = self.tx_time + self.rx_time
        return max(0.0, total_time - busy)

    def communication_energy_j(self) -> float:
        """Energy spent transmitting and receiving (the comparison metric)."""
        return (
            self.params.tx_power_w * self.tx_time
            + self.params.rx_power_w * self.rx_time
        )

    def total_energy_j(self, total_time: float) -> float:
        """Full dissipated energy including idle listening."""
        return (
            self.communication_energy_j()
            + self.params.idle_power_w * self.idle_time(total_time)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EnergyMeter tx={self.tx_time:.4f}s rx={self.rx_time:.4f}s>"

"""Time-resolved run telemetry: periodic in-sim probes into columnar series.

Every metric the repo reported before this module was an end-of-run
aggregate, but the paper's density claims are about *dynamics* — the
greedy scheme pays during interest/exploratory flooding and earns it
back later — and lifetime metrics (time to first node death, half-energy
time) need state sampled over simulated time.  A :class:`Timeline` is a
compact recorder for exactly that:

* probes are **pre-bound zero-argument callables** registered once per
  run (:func:`install_standard_probes` wires the standard set: alive/dead
  node counts, cumulative generated/delivered data events, gradient-table
  sizes, MAC collisions/backoffs, simulator pending-event depth, and
  per-message-class energy);
* samples land in **parallel columnar arrays** (``array('d')`` per float
  probe, ``array('q')`` per int probe, one shared time column) — no
  per-sample dict churn, so the canonical bench stays inside the CI
  regression gate with timelines enabled;
* the cadence is driven by the simulator itself (:meth:`Timeline.attach`
  schedules ticks at ``0, i, 2i, ...`` strictly below the horizon) and
  :meth:`Timeline.finalize` guarantees one closing sample at run end, so
  the last partial interval is never dropped.

Sampling is wall-clock-free and RNG-free: tick events consume scheduler
sequence numbers but never touch an RNG stream, so a run with a timeline
attached produces bit-identical :class:`~repro.experiments.metrics.RunMetrics`
to one without (asserted by the determinism tests).

Serialization round-trips losslessly through :meth:`Timeline.as_dict` /
:meth:`Timeline.from_dict` (the run store persists that JSON image), and
``repro timeline`` renders any timeline as an ASCII sparkline table via
:func:`format_timeline`.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Union

__all__ = [
    "TIMELINE_VERSION",
    "TimelineProbe",
    "Timeline",
    "install_standard_probes",
    "save_timeline",
    "load_timeline",
    "sparkline",
    "format_timeline",
]

#: bump when the as_dict()/from_dict() schema changes shape
TIMELINE_VERSION = 1

#: array typecodes per probe kind (int probes must return genuine ints:
#: ``array('q').append`` rejects floats by design)
_TYPECODES = {"float": "d", "int": "q"}


class TimelineProbe:
    """One named, typed, pre-bound sampling callable.

    ``fn`` is called with no arguments at every sample point; its return
    value is appended to this probe's column.  ``kind`` selects the
    column type: ``"float"`` -> ``array('d')``, ``"int"`` -> ``array('q')``.
    """

    __slots__ = ("name", "kind", "fn", "description", "values")

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], Any]],
        kind: str = "float",
        description: str = "",
        values: Optional[Sequence] = None,
    ) -> None:
        if kind not in _TYPECODES:
            raise ValueError(f"probe kind must be 'float' or 'int', got {kind!r}")
        self.name = name
        self.kind = kind
        self.fn = fn
        self.description = description
        self.values = array(_TYPECODES[kind], values if values is not None else ())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimelineProbe {self.name} ({self.kind}, {len(self.values)} samples)>"


class Timeline:
    """Columnar recorder of periodic probe samples over simulated time.

    Lifecycle: :meth:`register` probes, :meth:`attach` to a simulator
    (schedules the sampling ticks), run the simulation, then
    :meth:`finalize` for the guaranteed closing sample.  A finalized
    timeline, like one loaded back from :meth:`from_dict`, has data but
    no callables — it can be rendered, diffed, and exported but not
    re-attached.
    """

    def __init__(
        self, interval: Optional[float] = None, duration: Optional[float] = None
    ) -> None:
        #: sim-seconds between samples (set at construction or attach time)
        self.interval = interval
        #: sampling horizon (the run duration); the final sample lands here
        self.duration = duration
        #: shared time column, parallel to every probe's value column
        self.times: array = array("d")
        self.probes: list[TimelineProbe] = []
        self._by_name: dict[str, TimelineProbe] = {}
        # pre-bound (fn, append) pairs — the entire per-sample work
        self._samplers: list[tuple[Callable[[], Any], Callable[[Any], None]]] = []
        self._sim = None
        self._finalized = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        fn: Callable[[], Any],
        kind: str = "float",
        description: str = "",
    ) -> TimelineProbe:
        """Add one probe; must happen before the first sample."""
        if self.times:
            raise RuntimeError("cannot register probes after sampling started")
        if name in self._by_name:
            raise ValueError(f"duplicate probe name: {name}")
        probe = TimelineProbe(name, fn, kind, description)
        self.probes.append(probe)
        self._by_name[name] = probe
        self._samplers.append((fn, probe.values.append))
        return probe

    def attach(self, sim, duration: float) -> "Timeline":
        """Schedule sampling ticks on ``sim`` at ``0, i, 2i, ... < duration``.

        The closing sample at ``duration`` itself comes from
        :meth:`finalize` after ``sim.run()`` returns.
        """
        if self.interval is None or self.interval <= 0:
            raise ValueError(f"timeline interval must be positive, got {self.interval!r}")
        self.duration = duration
        self._sim = sim
        sim.schedule(0.0, self._tick)
        return self

    def _tick(self) -> None:
        sim = self._sim
        self.sample(sim.now)
        # strict inequality: the horizon sample belongs to finalize(),
        # and nothing may be scheduled past the run end
        if sim.now + self.interval < self.duration:
            sim.schedule(self.interval, self._tick)

    def finalize(self, now: Optional[float] = None) -> None:
        """Take the guaranteed closing sample (idempotent).

        Then drop the probe callables and the simulator: they close over
        the run's world, which a kept timeline must not hold alive.
        """
        if self._finalized:
            return
        self._finalized = True
        t = self.duration if now is None else now
        self.sample(t if t is not None else 0.0)
        self._samplers = []
        self._sim = None
        for probe in self.probes:
            probe.fn = None

    def sample(self, now: float) -> None:
        """Record one sample row at sim time ``now``."""
        self.times.append(now)
        for fn, append in self._samplers:
            append(fn())

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return len(self.times)

    def names(self) -> list[str]:
        return [p.name for p in self.probes]

    def series(self, name: str) -> tuple[list[float], list]:
        """``(times, values)`` for one probe, as plain lists."""
        probe = self._by_name[name]
        return list(self.times), list(probe.values)

    def nbytes(self) -> int:
        """In-memory payload size of all columns (time + every probe)."""
        total = self.times.itemsize * len(self.times)
        for probe in self.probes:
            total += probe.values.itemsize * len(probe.values)
        return total

    def crossing_time(
        self, name: str, threshold: float, interpolate: bool = True
    ) -> Optional[float]:
        """First sim time the probe reaches ``threshold``, or None.

        With ``interpolate`` the crossing is linearly interpolated between
        the bracketing samples (right for continuous series like
        cumulative energy); without it the first sample at-or-above the
        threshold is returned verbatim (right for discrete counts).
        """
        probe = self._by_name.get(name)
        if probe is None or not self.times:
            return None
        values = probe.values
        prev_t, prev_v = self.times[0], values[0]
        if prev_v >= threshold:
            return prev_t
        for t, v in zip(self.times, values):
            if v >= threshold:
                if interpolate and v != prev_v:
                    frac = (threshold - prev_v) / (v - prev_v)
                    return prev_t + frac * (t - prev_t)
                return t
            prev_t, prev_v = t, v
        return None

    def derived(self) -> dict[str, Optional[float]]:
        """Time-derived summary statistics of the sampled series.

        * ``time_to_first_death`` — first sample where ``nodes.alive``
          dropped below its initial value (sample resolution: the exact
          event time lives on :class:`~repro.experiments.metrics.RunMetrics`);
        * ``min_alive`` — the lowest sampled alive count;
        * ``half_energy_time`` — interpolated sim time at which the run
          had dissipated half of its final cumulative ``energy.total``;
        * ``half_delivery_time`` — first sample with at least half of the
          final ``data.delivered`` count.
        """
        out: dict[str, Optional[float]] = {}
        alive = self._by_name.get("nodes.alive")
        if alive is not None and len(alive.values):
            initial = alive.values[0]
            out["time_to_first_death"] = next(
                (t for t, v in zip(self.times, alive.values) if v < initial), None
            )
            out["min_alive"] = float(min(alive.values))
        energy = self._by_name.get("energy.total")
        if energy is not None and len(energy.values):
            final = energy.values[-1]
            out["half_energy_time"] = (
                self.crossing_time("energy.total", final / 2.0) if final > 0 else None
            )
        delivered = self._by_name.get("data.delivered")
        if delivered is not None and len(delivered.values):
            final = delivered.values[-1]
            out["half_delivery_time"] = (
                self.crossing_time("data.delivered", final / 2.0, interpolate=False)
                if final > 0
                else None
            )
        return out

    def accounting(self, path: Optional[Union[str, Path]] = None) -> dict[str, Any]:
        """The manifest ``timeline`` block: probe list, cadence, size."""
        block: dict[str, Any] = {
            "interval": self.interval,
            "duration": self.duration,
            "samples": self.n_samples,
            "probes": self.names(),
            "bytes": self.nbytes(),
            "derived": self.derived(),
        }
        if path is not None:
            block["path"] = str(path)
        return block

    # ------------------------------------------------------------------
    # (de)serialization — lossless: JSON preserves repr-exact floats
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {
            "timeline_version": TIMELINE_VERSION,
            "kind": "timeline",
            "interval": self.interval,
            "duration": self.duration,
            "times": list(self.times),
            "probes": [
                {
                    "name": p.name,
                    "kind": p.kind,
                    "description": p.description,
                    "values": list(p.values),
                }
                for p in self.probes
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Timeline":
        version = data.get("timeline_version")
        if version != TIMELINE_VERSION:
            raise ValueError(f"unsupported timeline version: {version!r}")
        tl = cls(interval=data.get("interval"), duration=data.get("duration"))
        tl.times = array("d", data.get("times", ()))
        for spec in data.get("probes", ()):
            probe = TimelineProbe(
                spec["name"],
                fn=None,
                kind=spec.get("kind", "float"),
                description=spec.get("description", ""),
                values=spec.get("values", ()),
            )
            tl.probes.append(probe)
            tl._by_name[probe.name] = probe
        return tl


def save_timeline(timeline: Timeline, path: Union[str, Path]) -> Path:
    """Write a timeline as a standalone JSON artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(timeline.as_dict(), sort_keys=True))
    return path


def load_timeline(path: Union[str, Path]) -> Timeline:
    """Reload a timeline JSON artifact (store entries included)."""
    return Timeline.from_dict(json.loads(Path(path).read_text()))


# ----------------------------------------------------------------------
# the standard probe set
# ----------------------------------------------------------------------
def install_standard_probes(
    timeline: Timeline,
    *,
    sim,
    nodes,
    agents=(),
    collector=None,
    tracer=None,
) -> Timeline:
    """Register the standard probe set against one built world.

    Every probe is a closure over live objects — O(1) or O(nodes) per
    sample, no allocation beyond the array append.  Probe order (and
    hence column order) is fixed, which keeps serialized timelines
    byte-comparable across runs.
    """
    # Imported here, not at module top: repro.net pulls in repro.sim which
    # imports this package's registry — a module-level import would be
    # circular while repro.obs is still initializing.
    from ..net.energy import MESSAGE_CLASSES

    reg = timeline.register

    reg(
        "sim.pending_events",
        sim.pending_count,
        "int",
        "scheduler heap depth (pending future events)",
    )
    reg(
        "sim.events_processed",
        lambda: sim.events_processed,
        "int",
        "cumulative events fired by the kernel",
    )

    n_total = len(nodes)

    def alive() -> int:
        return sum(1 for n in nodes if n.up)

    reg("nodes.alive", alive, "int", "nodes currently up")
    reg("nodes.dead", lambda: n_total - alive(), "int", "nodes currently failed")

    if collector is not None:
        sent = collector.sent
        delivery_times = collector.delivery_times
        reg(
            "data.generated",
            lambda: sum(sent.values()),
            "int",
            "cumulative post-warmup data events generated at sources",
        )
        reg(
            "data.delivered",
            delivery_times.__len__,
            "int",
            "cumulative distinct post-warmup deliveries at sinks",
        )

    if agents:

        def gradient_entries() -> int:
            total = 0
            for agent in agents:
                tables = getattr(agent, "gradients", None)
                if tables:
                    for table in tables.values():
                        total += len(table)
            return total

        reg(
            "gradients.entries",
            gradient_entries,
            "int",
            "total gradient-table entries across all agents",
        )

    if tracer is not None:
        # The channel counts collisions in a plain int and publishes it
        # to the registry only after the run, so read the live field.
        channel = nodes[0].radio.channel if nodes else None
        reg(
            "mac.collisions",
            lambda: channel.n_collision if channel is not None else 0,
            "int",
            "cumulative channel collisions",
        )
        registry = tracer.registry

        def backoffs() -> int:
            hist = registry.find("mac.backoff_slots")
            return int(hist.count) if hist is not None else 0

        reg("mac.backoffs", backoffs, "int", "cumulative MAC backoff draws")

    def total_energy() -> float:
        total = 0.0
        for n in nodes:
            m = n.energy
            total += m.params.tx_power_w * m.tx_time + m.params.rx_power_w * m.rx_time
        return total

    reg(
        "energy.total",
        total_energy,
        "float",
        "cumulative communication energy, all nodes (J)",
    )

    def max_node_energy() -> float:
        worst = 0.0
        for n in nodes:
            m = n.energy
            e = m.params.tx_power_w * m.tx_time + m.params.rx_power_w * m.rx_time
            if e > worst:
                worst = e
        return worst

    reg(
        "energy.max_node",
        max_node_energy,
        "float",
        "cumulative communication energy of the hottest node (J)",
    )

    def class_energy(cls: str) -> Callable[[], float]:
        def probe() -> float:
            total = 0.0
            for n in nodes:
                m = n.energy
                tx = m.tx_time_by_class.get(cls)
                if tx:
                    total += m.params.tx_power_w * tx
                rx = m.rx_time_by_class.get(cls)
                if rx:
                    total += m.params.rx_power_w * rx
            return total

        return probe

    for cls in MESSAGE_CLASSES:
        reg(
            f"energy.{cls}",
            class_energy(cls),
            "float",
            f"cumulative communication energy of {cls!r} frames (J)",
        )
    return timeline


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a series as unicode block characters, resampled to ``width``.

    Downsampling takes each bucket's max so short spikes stay visible; a
    constant series renders as the lowest block.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        buckets = []
        n = len(vals)
        for i in range(width):
            lo = i * n // width
            hi = max(lo + 1, (i + 1) * n // width)
            buckets.append(max(vals[lo:hi]))
        vals = buckets
    low, high = min(vals), max(vals)
    span = high - low
    if span <= 0:
        return _SPARK_CHARS[0] * len(vals)
    top = len(_SPARK_CHARS) - 1
    return "".join(_SPARK_CHARS[int((v - low) / span * top)] for v in vals)


def _fmt_num(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def format_timeline(
    timeline: Timeline,
    probes: Optional[Sequence[str]] = None,
    width: int = 40,
) -> str:
    """ASCII summary table: one sparkline row per probe plus derived stats."""
    header = (
        f"timeline: {timeline.n_samples} samples"
        f" @ {_fmt_num(timeline.interval) if timeline.interval else '?'} s"
        f" over [0, {_fmt_num(timeline.duration) if timeline.duration else '?'}] s"
        f" ({len(timeline.probes)} probes, {timeline.nbytes()} bytes)"
    )
    lines = [header]
    selected = timeline.probes
    if probes:
        wanted = set(probes)
        selected = [p for p in timeline.probes if p.name in wanted]
        missing = wanted - {p.name for p in selected}
        if missing:
            lines.append(f"(unknown probes skipped: {', '.join(sorted(missing))})")
    if not selected:
        lines.append("(no probes)")
        return "\n".join(lines)
    name_w = max(len(p.name) for p in selected)
    val_w = 12
    lines.append(
        f"{'probe':<{name_w}}  {'first':>{val_w}}  {'last':>{val_w}}"
        f"  {'min':>{val_w}}  {'max':>{val_w}}  series"
    )
    for p in selected:
        vals = p.values
        if len(vals):
            first, last = _fmt_num(vals[0]), _fmt_num(vals[-1])
            lo, hi = _fmt_num(min(vals)), _fmt_num(max(vals))
            spark = sparkline(vals, width)
        else:
            first = last = lo = hi = "-"
            spark = ""
        lines.append(
            f"{p.name:<{name_w}}  {first:>{val_w}}  {last:>{val_w}}"
            f"  {lo:>{val_w}}  {hi:>{val_w}}  {spark}"
        )
    derived = {k: v for k, v in timeline.derived().items() if v is not None}
    if derived:
        lines.append(
            "derived: "
            + ", ".join(f"{k}={_fmt_num(v)}" for k, v in sorted(derived.items()))
        )
    return "\n".join(lines)

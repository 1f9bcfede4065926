"""Online invariant auditor: pluggable checkers over the trace stream.

An :class:`Auditor` attaches to a live :class:`~repro.sim.trace.Tracer`
(or replays a JSONL trace) and verifies cross-layer invariants that the
flat counters cannot express:

* **rx-has-tx** — every ``phy.rx`` names a frame some ``phy.tx`` emitted
  (no receptions out of thin air);
* **lineage-termination** — every ``data.deliver`` key roots in a real
  ``data.gen`` event (sinks never count fabricated readings);
* **gradient-acyclic** — the reinforced data-gradient graph per interest
  stays loop-free, modulo the two-way edges the forwarding rule
  (:meth:`~repro.diffusion.agent.DiffusionAgent._usable_outlets`)
  suppresses by construction;
* **energy-attribution** — per-class tx/rx time sums to each meter's
  totals within :data:`ENERGY_TOLERANCE_J` (finalize-time, needs nodes).

Violations become structured :class:`AuditFinding` records, never
exceptions: the auditor observes a run, it does not alter it.
:func:`audit_static` applies the subset of invariants visible in a
persisted artifact (manifest, store entry, or bare metrics dict), which
is what ``repro audit <run>`` uses on non-trace inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.trace import TraceRecord, Tracer

__all__ = [
    "ENERGY_TOLERANCE_J",
    "MAX_FINDINGS_PER_CHECKER",
    "AuditFinding",
    "InvariantChecker",
    "RxHasTxChecker",
    "LineageTerminationChecker",
    "GradientAcyclicityChecker",
    "EnergyAttributionChecker",
    "Auditor",
    "audit_trace",
    "audit_static",
    "audit_figure_cells",
    "format_findings",
]

#: absolute slack for energy-identity checks (float summation order drifts
#: class sums from running totals by ~1e-14 J per realistic run)
ENERGY_TOLERANCE_J = 1e-9

#: per-checker cap so one systemic fault does not flood the report
MAX_FINDINGS_PER_CHECKER = 100


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation."""

    invariant: str
    message: str
    severity: str = "error"  # "error" | "warning"
    time: Optional[float] = None
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "invariant": self.invariant,
            "severity": self.severity,
            "message": self.message,
        }
        if self.time is not None:
            out["time"] = self.time
        if self.context:
            out["context"] = dict(self.context)
        return out


class InvariantChecker:
    """Base: observe trace records, report findings, finish at finalize."""

    #: the invariant this checker verifies (finding key)
    name = "base"
    #: trace categories this checker needs enabled to see anything
    categories: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.findings: list[AuditFinding] = []
        self._suppressed = 0

    def emit(
        self,
        message: str,
        *,
        severity: str = "error",
        time: Optional[float] = None,
        **context: Any,
    ) -> None:
        if len(self.findings) >= MAX_FINDINGS_PER_CHECKER:
            self._suppressed += 1
            return
        self.findings.append(
            AuditFinding(self.name, message, severity, time, context)
        )

    def observe(self, rec: "TraceRecord") -> None:  # pragma: no cover - interface
        pass

    def finalize(self, nodes: Optional[Iterable[Any]] = None) -> None:
        if self._suppressed:
            self.findings.append(
                AuditFinding(
                    self.name,
                    f"{self._suppressed} further violations suppressed "
                    f"(cap {MAX_FINDINGS_PER_CHECKER})",
                    "warning",
                )
            )
            self._suppressed = 0


class RxHasTxChecker(InvariantChecker):
    """Every clean reception names a frame some transmission put on air."""

    name = "rx-has-tx"
    categories = ("phy.tx", "phy.rx")

    def __init__(self) -> None:
        super().__init__()
        self._tx_frames: set[int] = set()

    def observe(self, rec: "TraceRecord") -> None:
        cat = rec.category
        if cat == "phy.tx":
            self._tx_frames.add(rec.get("frame"))
        elif cat == "phy.rx":
            frame = rec.get("frame")
            if frame not in self._tx_frames:
                self.emit(
                    f"node {rec.get('node')} received frame {frame} "
                    f"from {rec.get('src')} with no matching transmission",
                    time=rec.time,
                    node=rec.get("node"),
                    frame=frame,
                )


class LineageTerminationChecker(InvariantChecker):
    """Every delivered event's lineage terminates in a real generation."""

    name = "lineage-termination"
    categories = ("data.gen", "data.deliver")

    def __init__(self) -> None:
        super().__init__()
        self._generated: set[tuple[int, int]] = set()
        #: (time, interest, sink, key) deliveries, judged at finalize so a
        #: record-order quirk can never fake a violation
        self._deliveries: list[tuple[float, int, int, tuple[int, int]]] = []

    def observe(self, rec: "TraceRecord") -> None:
        cat = rec.category
        if cat == "data.gen":
            self._generated.add((rec.get("src"), rec.get("seq")))
        elif cat == "data.deliver":
            raw = rec.get("key")
            self._deliveries.append(
                (rec.time, rec.get("interest"), rec.get("sink"), (raw[0], raw[1]))
            )

    def finalize(self, nodes: Optional[Iterable[Any]] = None) -> None:
        for time, interest, sink, key in self._deliveries:
            if key not in self._generated:
                self.emit(
                    f"sink {sink} counted event {key} for interest {interest} "
                    "but no data.gen record exists for it",
                    time=time,
                    sink=sink,
                    key=list(key),
                )
        super().finalize(nodes)


class GradientAcyclicityChecker(InvariantChecker):
    """The reinforced data-gradient graph stays free of routing loops.

    Each node keeps a *single* outgoing data gradient per interest
    (:meth:`~repro.diffusion.gradient.GradientTable.reinforce`), so the
    audited structure is a functional graph: ``node -> preferred
    neighbor``.  Two caveats keep the check honest:

    * **two-way edges are not loops** — when both endpoints hold data
      gradients toward each other, the forwarding rule refuses to use
      either direction (``_usable_outlets``), so the walk stops there
      instead of reporting a cycle;
    * **stale edges are skipped** — gradients decay silently after
      ``data_timeout``; without an expiry horizon, an edge reinforced
      long ago could close a phantom cycle with fresh edges.
    """

    name = "gradient-acyclic"
    categories = ("gradient.reinforce", "gradient.degrade")

    def __init__(self, data_timeout: Optional[float] = None) -> None:
        super().__init__()
        self.data_timeout = data_timeout
        #: interest -> node -> (preferred neighbor, reinforce time)
        self._edges: dict[int, dict[int, tuple[int, float]]] = {}

    def observe(self, rec: "TraceRecord") -> None:
        cat = rec.category
        if cat == "gradient.reinforce":
            node, neighbor = rec.get("node"), rec.get("neighbor")
            interest = rec.get("interest")
            self._edges.setdefault(interest, {})[node] = (neighbor, rec.time)
            self._check_walk(interest, node, rec.time)
        elif cat == "gradient.degrade":
            edges = self._edges.get(rec.get("interest"))
            if edges is not None:
                entry = edges.get(rec.get("node"))
                if entry is not None and entry[0] == rec.get("neighbor"):
                    del edges[rec.get("node")]

    def _live(self, entry: Optional[tuple[int, float]], now: float) -> Optional[int]:
        if entry is None:
            return None
        if self.data_timeout is not None and now - entry[1] > self.data_timeout:
            return None
        return entry[0]

    def _check_walk(self, interest: int, start: int, now: float) -> None:
        edges = self._edges[interest]
        path = [start]
        seen = {start}
        node = start
        while True:
            nxt = self._live(edges.get(node), now)
            if nxt is None:
                return  # dead end: no (live) outgoing data gradient
            if self._live(edges.get(nxt), now) == node:
                return  # two-way edge: suppressed by the forwarding rule
            if nxt in seen:
                cycle = path[path.index(nxt):] + [nxt]
                self.emit(
                    f"interest {interest}: reinforced gradients form cycle "
                    f"{' -> '.join(map(str, cycle))}",
                    time=now,
                    interest=interest,
                    cycle=cycle,
                )
                return
            seen.add(nxt)
            path.append(nxt)
            node = nxt


class EnergyAttributionChecker(InvariantChecker):
    """Per-class energy attribution sums to each meter's totals.

    Pure finalize-time check over the live energy meters: for every node,
    ``sum(tx_time_by_class) == tx_time`` and likewise for rx, within
    :data:`ENERGY_TOLERANCE_J` after conversion to joules.  Skipped (with
    a note finding suppressed) when no nodes are supplied — offline trace
    replays have no meters to inspect.
    """

    name = "energy-attribution"
    categories = ()

    def finalize(self, nodes: Optional[Iterable[Any]] = None) -> None:
        if nodes is not None:
            for node in nodes:
                meter = node.energy
                txp = meter.params.tx_power_w
                rxp = meter.params.rx_power_w
                tx_gap = txp * abs(sum(meter.tx_time_by_class.values()) - meter.tx_time)
                rx_gap = rxp * abs(sum(meter.rx_time_by_class.values()) - meter.rx_time)
                if tx_gap > ENERGY_TOLERANCE_J or rx_gap > ENERGY_TOLERANCE_J:
                    self.emit(
                        f"node {node.node_id}: class-attributed energy drifts "
                        f"from meter totals (tx {tx_gap:.3e} J, rx {rx_gap:.3e} J)",
                        time=None,
                        node=node.node_id,
                        tx_gap_j=tx_gap,
                        rx_gap_j=rx_gap,
                    )
        super().finalize(nodes)


class Auditor:
    """Runs a set of invariant checkers over a trace stream.

    Attach to a live tracer with :meth:`attach` (enables the categories
    the checkers need and registers a listener), or feed records manually
    via :meth:`observe`.  :meth:`finalize` runs the end-of-run checks and
    returns every finding, ordered by time.
    """

    def __init__(
        self,
        checkers: Optional[list[InvariantChecker]] = None,
        *,
        data_timeout: Optional[float] = None,
    ) -> None:
        if checkers is None:
            checkers = [
                RxHasTxChecker(),
                LineageTerminationChecker(),
                GradientAcyclicityChecker(data_timeout=data_timeout),
                EnergyAttributionChecker(),
            ]
        self.checkers = checkers
        self.records_seen = 0
        self._finalized = False

    def categories_needed(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for checker in self.checkers:
            for cat in checker.categories:
                seen[cat] = None
        return tuple(seen)

    def attach(self, tracer: "Tracer") -> None:
        tracer.enable(*self.categories_needed())
        tracer.add_listener(self.observe)

    def observe(self, rec: "TraceRecord") -> None:
        self.records_seen += 1
        for checker in self.checkers:
            checker.observe(rec)

    def finalize(self, nodes: Optional[Iterable[Any]] = None) -> list[AuditFinding]:
        if not self._finalized:
            for checker in self.checkers:
                checker.finalize(nodes)
            self._finalized = True
        return self.findings()

    def findings(self) -> list[AuditFinding]:
        out: list[AuditFinding] = []
        for checker in self.checkers:
            out.extend(checker.findings)
        out.sort(key=lambda f: (f.time is None, f.time or 0.0))
        return out

    def report(self) -> dict[str, Any]:
        """JSON-ready summary (embedded in manifests' ``audit`` section)."""
        findings = self.findings()
        return {
            "ok": not any(f.severity == "error" for f in findings),
            "checkers": [c.name for c in self.checkers],
            "records_seen": self.records_seen,
            "n_findings": len(findings),
            "findings": [f.as_dict() for f in findings],
        }


def audit_trace(
    path: Union[str, Path], *, data_timeout: Optional[float] = None
) -> list[AuditFinding]:
    """Replay a JSONL trace file through the stream checkers."""
    from .export import read_trace

    auditor = Auditor(data_timeout=data_timeout)
    for rec in read_trace(Path(path)):
        auditor.observe(rec)
    return auditor.finalize()


def _counter_items(counters: dict, prefix: str) -> list[tuple[str, int]]:
    """Flat-snapshot entries of one labelled counter family."""
    head = prefix + "{"
    return [(k, v) for k, v in counters.items() if k.startswith(head)]


def audit_static(metrics: dict[str, Any]) -> list[AuditFinding]:
    """Audit the invariants visible in a persisted metrics dict.

    ``metrics`` is the ``dataclasses.asdict`` form of
    :class:`~repro.experiments.metrics.RunMetrics` — what manifests and
    store entries embed.  Checks:

    * per-class energy sums to ``total_energy_j`` within
      :data:`ENERGY_TOLERANCE_J`;
    * per-class radio counters sum to the total tx/rx counters;
    * sinks never counted more distinct events than the kernel delivered.
    """
    findings: list[AuditFinding] = []
    counters = metrics.get("counters", {})

    by_class = metrics.get("energy_by_class") or {}
    if by_class:
        total = metrics.get("total_energy_j", 0.0)
        gap = abs(sum(by_class.values()) - total)
        if gap > ENERGY_TOLERANCE_J:
            findings.append(
                AuditFinding(
                    "energy-attribution",
                    f"energy_by_class sums to {sum(by_class.values()):.6f} J "
                    f"but total_energy_j is {total:.6f} J (gap {gap:.3e})",
                    context={"gap_j": gap},
                )
            )

    for direction in ("tx", "rx"):
        per_class = _counter_items(counters, f"radio.{direction}_class")
        total_name = f"radio.{direction}"
        if per_class and total_name in counters:
            class_sum = sum(v for _k, v in per_class)
            if class_sum != counters[total_name]:
                findings.append(
                    AuditFinding(
                        "radio-class-counters",
                        f"per-class {direction} counters sum to {class_sum} "
                        f"but {total_name} is {counters[total_name]}",
                        context={
                            "direction": direction,
                            "class_sum": class_sum,
                            "total": counters[total_name],
                        },
                    )
                )

    delivered_counter = counters.get("diffusion.item_delivered")
    distinct = metrics.get("distinct_delivered")
    if delivered_counter is not None and distinct is not None:
        if distinct > delivered_counter:
            findings.append(
                AuditFinding(
                    "delivery-accounting",
                    f"metrics report {distinct} distinct delivered events but "
                    f"the kernel only delivered {delivered_counter} items",
                    context={
                        "distinct_delivered": distinct,
                        "item_delivered": delivered_counter,
                    },
                )
            )

    ratio = metrics.get("delivery_ratio")
    if ratio is not None and not 0.0 <= ratio <= 1.0 + 1e-9:
        findings.append(
            AuditFinding(
                "delivery-accounting",
                f"delivery_ratio {ratio} outside [0, 1]",
                context={"delivery_ratio": ratio},
            )
        )
    return findings


def audit_figure_cells(cells: Iterable[dict[str, Any]]) -> list[AuditFinding]:
    """Static sanity checks on a figure's cell summaries."""
    findings: list[AuditFinding] = []
    for cell in cells:
        label = f"{cell.get('scheme')}@{cell.get('x')}"
        ratio = cell.get("ratio")
        if ratio is not None and not 0.0 <= ratio <= 1.0 + 1e-9:
            findings.append(
                AuditFinding(
                    "delivery-accounting",
                    f"cell {label}: delivery ratio {ratio} outside [0, 1]",
                    context={"cell": label, "ratio": ratio},
                )
            )
        for field_name in ("energy", "delay", "energy_stdev"):
            value = cell.get(field_name)
            if value is not None and value < 0:
                findings.append(
                    AuditFinding(
                        "figure-sanity",
                        f"cell {label}: negative {field_name} ({value})",
                        context={"cell": label, "field": field_name, "value": value},
                    )
                )
        n_runs = cell.get("n_runs")
        if n_runs is not None and n_runs <= 0:
            findings.append(
                AuditFinding(
                    "figure-sanity",
                    f"cell {label}: summarizes {n_runs} runs",
                    context={"cell": label, "n_runs": n_runs},
                )
            )
    return findings


def format_findings(findings: list[AuditFinding]) -> str:
    """Human-readable table of findings (empty-state message included)."""
    if not findings:
        return "audit: ok (no findings)"
    lines = [f"audit: {len(findings)} finding(s)"]
    for f in findings:
        when = f"t={f.time:.3f}" if f.time is not None else "t=  end"
        lines.append(f"  [{f.severity:<7}] {when} {f.invariant:<22} {f.message}")
    return "\n".join(lines)

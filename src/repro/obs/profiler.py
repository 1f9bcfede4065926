"""Layer profiler: where one simulator run spent its wall time.

A *layer* is a group of the package's modules (see :data:`LAYER_MODULES`).
:class:`StackSampler` is a thread that samples the measured thread's
Python stack about once a millisecond.  Each sample goes to the innermost
frame whose module belongs to the package; standard-library, numpy and C
code therefore count toward the package layer that called them.  Frames
of package modules outside every layer, and samples with no package frame
at all, go to ``other``.  A sample is weighted by the wall time since the
previous one: the sampler gets the interpreter lock at once while numpy
has released it but waits out a switch interval while Python code runs,
so counting samples alone would over-charge native code.

:class:`Profiler` is that sampler around one ``sim.run``; it also reads
the pending-event heap depth at every sample.  The simulator has no
profiling hook, so a profiled run executes the same event loop as an
unprofiled one and its ``RunMetrics`` are bit-identical.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Simulator

__all__ = [
    "LAYER_MODULES",
    "layer_of_module",
    "Classifier",
    "StackSampler",
    "Profiler",
    "format_profile",
]

#: layer -> package-relative module prefixes it owns (longest prefix wins)
LAYER_MODULES: dict[str, tuple[str, ...]] = {
    "sim.engine": ("sim",),
    "net.radio": ("net.radio", "net.channel", "net.packet"),
    "net.mac": ("net.mac",),
    "net.energy": ("net.energy",),
    "net.node": ("net.node",),
    "net.topology": ("net.topology", "net.fieldcache"),
    "diffusion": ("diffusion",),
    "core": ("core",),
    "aggregation": ("aggregation",),
    "obs.shims": ("sim.trace", "obs.registry"),
    "experiments.runner": ("experiments.runner",),
    "experiments.sweeps": ("experiments.sweeps",),
    "experiments.store": ("experiments.store",),
    "service.http": ("service.http",),
    "service.scheduler": ("service.scheduler", "service.jobs"),
}

#: seconds between stack samples
SAMPLE_INTERVAL_S = 0.0005
#: interpreter switch interval while sampling, so the sampler thread gets
#: the lock about once a millisecond (the default is 5 ms)
SWITCH_INTERVAL_S = 0.001

#: the package's source directory (``src/repro``)
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_PREFIXES = sorted(
    ((prefix, layer) for layer, prefixes in LAYER_MODULES.items() for prefix in prefixes),
    key=lambda item: -len(item[0]),
)


def layer_of_module(relmod: str) -> str:
    """Layer of a module named relative to the package (``"net.mac"``)."""
    for prefix, layer in _PREFIXES:
        if relmod == prefix or relmod.startswith(prefix + "."):
            return layer
    return "other"


class Classifier:
    """Maps code filenames to layers; ``None`` marks code outside the package.

    ``package_dir`` is the package's source directory (``src/repro``).
    Everything else -- the standard library, numpy, a caller's own timing
    wrappers -- is transparent: it is charged to the package frame that
    called it, or to ``other`` when no package frame is on the stack.
    """

    def __init__(self, package_dir: str) -> None:
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._cache: dict[str, Optional[str]] = {}

    def layer_of_file(self, filename: str) -> Optional[str]:
        try:
            return self._cache[filename]
        except KeyError:
            pass
        path = os.path.realpath(filename) if filename and filename[0] != "<" else filename
        layer: Optional[str] = None
        if path.startswith(self.package_dir):
            rel = path[len(self.package_dir):]
            rel = rel[: -len(".py")] if rel.endswith(".py") else rel
            parts = [p for p in rel.split(os.sep) if p and p != "__init__"]
            layer = layer_of_module(".".join(parts))
        self._cache[filename] = layer
        return layer

    def layer_of_frame(self, frame) -> str:
        """Layer of the innermost package frame on the stack."""
        while frame is not None:
            layer = self.layer_of_file(frame.f_code.co_filename)
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"


class StackSampler:
    """Samples one thread's stack from a helper thread (a context manager).

    ``counts`` holds samples per layer, ``weights`` the wall seconds they
    stand for, and ``wall_s`` the sampled interval.  The switch interval
    is shortened while sampling so the helper thread gets the interpreter
    lock about once a millisecond; leaving the context restores it and
    joins the thread, also when the measured code raised.
    """

    def __init__(
        self,
        classifier: Classifier,
        interval_s: float = SAMPLE_INTERVAL_S,
        switch_s: float = SWITCH_INTERVAL_S,
    ) -> None:
        self.classifier = classifier
        self.interval_s = interval_s
        self.switch_s = switch_s
        self.counts: Counter = Counter()
        self.weights: Counter = Counter()
        self.wall_s = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target = 0
        self._t0 = 0.0
        self._old_switch = 0.0

    def __enter__(self) -> "StackSampler":
        self._target = threading.get_ident()
        self._stop.clear()
        self._old_switch = sys.getswitchinterval()
        sys.setswitchinterval(self.switch_s)
        self._thread = threading.Thread(target=self._loop, name="layer-sampler", daemon=True)
        self._t0 = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.wall_s += time.perf_counter() - self._t0
        self._stop.set()
        assert self._thread is not None
        try:
            self._thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(self._old_switch)
        if self._thread.is_alive():
            raise RuntimeError("layer sampler thread did not stop")

    def _loop(self) -> None:
        frames = sys._current_frames
        classify = self.classifier.layer_of_frame
        target = self._target
        last = time.perf_counter()
        while not self._stop.wait(self.interval_s):
            frame = frames().get(target)
            now = time.perf_counter()
            if frame is not None:
                layer = classify(frame)
                self.counts[layer] += 1
                self.weights[layer] += now - last
                self.on_sample()
            last = now
            del frame

    def on_sample(self) -> None:
        """Called on the sampler thread after every sample; a no-op here."""

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def seconds(self) -> dict[str, float]:
        """Self time per layer: its share of the sample weight times the wall time."""
        total = sum(self.weights.values())
        return {layer: self.wall_s * w / total for layer, w in self.weights.items()}


class Profiler(StackSampler):
    """Layer profile of one simulator run: ``with Profiler(sim): sim.run()``.

    The sampler thread starts on entry and is joined on exit; read
    :meth:`report` afterwards.  Event counts are taken from construction.
    """

    def __init__(self, sim: "Simulator") -> None:
        super().__init__(Classifier(PACKAGE_DIR))
        self.sim = sim
        self.heap_depths: list[int] = []
        self._events0 = sim.events_processed
        self._cancelled0 = sim.cancelled_skipped

    def on_sample(self) -> None:
        # The event loop may be between dropping cancelled entries and
        # uncounting them, which reads short; clamp that to an empty heap.
        self.heap_depths.append(max(self.sim.pending_count(), 0))

    def report(self) -> dict[str, Any]:
        """The run's profile, as the run manifest's ``profile`` block holds it.

        ``layers`` maps each layer that received a sample to its exclusive
        wall time (``self_s``), its share of the sample weight (``share``;
        the shares sum to 1) and its sample count, largest ``self_s`` first.
        """
        wall = max(self.wall_s, 1e-12)
        events = self.sim.events_processed - self._events0
        total = sum(self.weights.values())
        seconds = self.seconds()
        depths = self.heap_depths or [0]
        return {
            "wall_time_s": wall,
            "events": events,
            "events_per_sec": events / wall,
            "sim_time_s": self.sim.now,
            "cancelled_churn": self.sim.cancelled_skipped - self._cancelled0,
            "samples": self.samples,
            "heap_min": min(depths),
            "heap_max": max(depths),
            "heap_mean": statistics.fmean(depths),
            "layers": {
                layer: {
                    "self_s": seconds[layer],
                    "share": self.weights[layer] / total,
                    "samples": self.counts[layer],
                }
                for layer in sorted(seconds, key=lambda k: -seconds[k])
            },
        }


def format_profile(report: dict[str, Any]) -> str:
    """Render a :meth:`Profiler.report` as the CLI's layer table."""
    lines = [
        f"events processed       {report['events']}",
        f"events/sec             {report['events_per_sec']:,.0f}",
        f"wall time              {report['wall_time_s']:.3f} s "
        f"(sim time {report['sim_time_s']:.1f} s)",
        f"cancelled-entry churn  {report['cancelled_churn']}",
        f"heap depth             min {report['heap_min']}  mean {report['heap_mean']:.1f}  "
        f"max {report['heap_max']}",
        "",
        f"exclusive wall time by layer ({report['samples']} stack samples):",
    ]
    header = f"  {'layer':<20} {'self s':>9} {'share':>7} {'samples':>8}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for layer, row in report["layers"].items():
        lines.append(
            f"  {layer:<20} {row['self_s']:>9.3f} {row['share']:>7.1%} {row['samples']:>8}"
        )
    return "\n".join(lines)

"""Resumable, content-addressed run store.

A long sweep is a grid of expensive, fully deterministic simulations
(densities x schemes x seeds).  A saved figure
(:mod:`repro.experiments.persistence`) only helps once *every* run of a
figure finished; a crash, Ctrl-C, or :class:`~repro.experiments.sweeps.RunFailure`
partway through discards hours of completed work.  The store closes that
gap at run granularity:

* every completed :class:`~repro.experiments.metrics.RunMetrics` is
  written to ``<root>/runs/<key>.json``, where ``key`` is a canonical
  **content hash** of everything that determines the run — the full
  :class:`~repro.experiments.config.ExperimentConfig` (scheme, field and
  workload parameters, seed, failure model), the wire-format constants
  snapshot, and the package code version (the same identity block the
  provenance manifests record);
* writes are **atomic** (unique temp file in the same directory +
  ``os.replace``), so a killed process can never leave a half-written
  entry that a resume would trust;
* :func:`~repro.experiments.sweeps.run_configs` consults the store
  before dispatching to the pool, skips hits, and persists each miss as
  soon as its future resolves — re-running a crashed 200-run sweep
  executes only the unfinished tail and is bit-identical to an
  uninterrupted run (cached metrics round-trip exactly: JSON preserves
  int/float kinds and ``repr``-exact float values).

Invalidation is by construction: any change to a config field or to the
package version changes the key, so stale entries are never *read* —
they merely occupy disk until ``repro-wsn store gc`` prunes them.

The ``runs/`` directory is the only listing: ``store ls`` and the
daemon's ``/api/v1/runs`` read the entry files themselves, so no second
index can go stale.  A handle parses each entry once: it remembers the
metrics of every entry it read or wrote, and a remembered entry is
checked with one stat of its file, so an entry another process deleted
or rewrote is never served from memory.  Concurrent writers need no
lock: each key's entry is immutable, written by atomic replace, and
``store gc`` spares temp files younger than :data:`TMP_LITTER_MIN_AGE_S`.

Hit/miss/persist/skip counts are recorded as counters in an
:class:`~repro.obs.registry.MetricsRegistry` owned by (or passed to) the
store, and surface in figure manifests via :meth:`RunStore.stats`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Union

from ..obs.registry import MetricsRegistry
from .config import ExperimentConfig
from .metrics import RunMetrics

__all__ = [
    "STORE_VERSION",
    "canonical_json",
    "config_payload",
    "run_key",
    "RunStore",
    "StoreStats",
    "open_store",
    "stored_timeline",
]

#: bump to invalidate every existing store entry (schema change)
#: v2: RunMetrics gained energy_by_class (per-message-class energy breakdown)
#: v3: RunMetrics gained lifetime scalars (time_to_first_death,
#:     time_to_half_delivery); timelines persist beside entries
#: v4: ExperimentConfig gained the channel block (pluggable PHY models)
STORE_VERSION = 4

#: gc only collects ``*.tmp`` litter older than this — a younger temp
#: file may belong to a live writer between ``mkstemp`` and ``os.replace``
TMP_LITTER_MIN_AGE_S = 60.0

#: what ``rm`` accepts: a key or key prefix (never a glob pattern)
_KEY_PREFIX = re.compile(r"[0-9a-f]+")


def canonical_json(obj: Any) -> str:
    """Render ``obj`` as canonical JSON: sorted keys, minimal separators.

    Two dicts that differ only in key insertion order render identically,
    which is what makes the content hash insensitive to how the payload
    was assembled.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _constants_snapshot() -> dict[str, Any]:
    from .. import constants

    return {name: getattr(constants, name) for name in constants.__all__}


def _code_version() -> str:
    import repro

    return getattr(repro, "__version__", "unknown")


#: field names per type seen by :func:`_as_dict`; ``None`` marks a leaf type
_FIELD_NAMES: dict[type, Optional[tuple[str, ...]]] = {}


def _as_dict(obj: Any) -> Any:
    """``dataclasses.asdict(obj)`` for config shapes, without its deep copy.

    A config's leaves are immutable scalars (numbers, strings, ``None``),
    so they are shared instead of copied, and each class's field names
    are looked up once.  Only the walk is cached, never a result: two
    configs that compare equal can still differ in a leaf's type
    (``duration=15`` and ``15.0``), and so in their keys.
    """
    cls = type(obj)
    try:
        names = _FIELD_NAMES[cls]
    except KeyError:
        names = _FIELD_NAMES[cls] = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
    if names is None:
        return obj
    return {name: _as_dict(getattr(obj, name)) for name in names}


def config_payload(cfg: ExperimentConfig) -> dict[str, Any]:
    """The full identity of one run, as a JSON-friendly dict.

    Everything that can change the run's result is in here; nothing else
    is (host, wall time, and observability options do not affect
    :class:`RunMetrics` and are deliberately excluded).  Its ``"config"``
    block equals ``dataclasses.asdict(cfg)``.
    """
    return {
        "store_version": STORE_VERSION,
        "code_version": _code_version(),
        "constants": _constants_snapshot(),
        "config": _as_dict(cfg),
    }


def run_key(cfg: ExperimentConfig) -> str:
    """Canonical content hash (hex sha256) identifying one run."""
    return hashlib.sha256(canonical_json(config_payload(cfg)).encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Lookup/persist accounting for one store handle (not persisted)."""

    hits: int = 0
    misses: int = 0
    persisted: int = 0
    #: completed-but-not-persisted outcomes (``RunFailure`` placeholders)
    skipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


class RunStore:
    """Directory of content-addressed run results.

    Layout::

        <root>/runs/<sha256>.json        one entry per completed run (atomic)
        <root>/timelines/<sha256>.json   optional probe timeline per run

    A store can be shared by concurrent sweeps: entries are immutable
    functions of their key, temp files are uniquely named, and
    ``os.replace`` makes the final rename atomic, so the worst race is
    two processes writing the same bytes twice.

    A handle remembers the parsed metrics of every entry it read or
    wrote, for as long as it lives, with the stat of the file they came
    from.  A lookup of a remembered key stats the file again: a missing
    file is a miss, and a changed one (inode, size or ``mtime_ns``) is
    read again.  So ``rm`` and ``gc`` from any process, and an entry
    rewritten in place, behave as if every lookup read the file.
    """

    def __init__(
        self, root: Union[str, Path], registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.root = Path(root)
        self.runs_dir = self.root / "runs"
        self.timelines_dir = self.root / "timelines"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = StoreStats()
        #: key -> (stat stamp of the entry file, its parsed metrics)
        self._memo: dict[str, tuple[tuple[int, int, int], RunMetrics]] = {}

    # ------------------------------------------------------------------
    # lookup / persist
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.runs_dir / f"{key}.json"

    def contains(self, cfg: ExperimentConfig, key: Optional[str] = None) -> bool:
        """Whether ``runs/`` holds a file for ``cfg`` (always asks the disk).

        ``key`` is ``run_key(cfg)``, if the caller has computed it.
        """
        return self.path_for(key or run_key(cfg)).exists()

    def get(self, cfg: ExperimentConfig, key: Optional[str] = None) -> Optional[RunMetrics]:
        """Return the stored metrics for ``cfg``, or None on a miss.

        ``key`` is ``run_key(cfg)``, if the caller has computed it.  A
        corrupt or unreadable entry counts as a miss (the next put
        overwrites it).  A hit returns the handle's one parsed copy of
        the entry, shared with every earlier hit on it: treat it as
        read-only.
        """
        metrics = self._lookup(key or run_key(cfg))
        if metrics is None:
            self.stats.misses += 1
            self.registry.counter("store.miss").inc()
            return None
        self.stats.hits += 1
        self.registry.counter("store.hit").inc()
        return metrics

    def put(
        self, cfg: ExperimentConfig, metrics: RunMetrics, key: Optional[str] = None
    ) -> Path:
        """Persist one completed run atomically; returns the entry path.

        ``key`` is ``run_key(cfg)``, if the caller has computed it.
        """
        key = key or run_key(cfg)
        entry = {
            "store_version": STORE_VERSION,
            "key": key,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "identity": config_payload(cfg),
            "metrics": dataclasses.asdict(metrics),
        }
        path = self.path_for(key)
        text = json.dumps(entry, indent=2, sort_keys=True)
        self._atomic_write(path, text)
        try:
            stamp = _stamp(os.stat(path))
        except OSError:  # deleted already: a lookup will find no file
            pass
        else:
            # remember what a read of the file returns, not the caller's object
            self._memo[key] = (stamp, _metrics_from_dict(json.loads(text)["metrics"]))
        self.stats.persisted += 1
        self.registry.counter("store.persist").inc()
        return path

    def entry(self, key: str) -> Optional[dict[str, Any]]:
        """The whole stored entry (identity and metrics) for ``key``, or None."""
        return self._read_entry(self.path_for(key))

    def note_skipped(self) -> None:
        """Record an outcome that completed without metrics (a failure)."""
        self.stats.skipped += 1
        self.registry.counter("store.skip").inc()

    # ------------------------------------------------------------------
    # timelines (sampled probe series, persisted beside the run entry)
    # ------------------------------------------------------------------
    def timeline_path_for(self, key_or_cfg: Union[str, ExperimentConfig]) -> Path:
        key = key_or_cfg if isinstance(key_or_cfg, str) else run_key(key_or_cfg)
        return self.timelines_dir / f"{key}.json"

    def put_timeline(
        self, key_or_cfg: Union[str, ExperimentConfig], timeline
    ) -> Path:
        """Persist one run's probe timeline atomically.

        ``timeline`` is a :class:`~repro.obs.timeline.Timeline` or its
        ``as_dict()`` image.  The file is the timeline dict itself (so
        ``repro timeline``/``repro diff`` load it directly) annotated
        with the store version and key.
        """
        key = key_or_cfg if isinstance(key_or_cfg, str) else run_key(key_or_cfg)
        data = timeline.as_dict() if hasattr(timeline, "as_dict") else dict(timeline)
        data = {**data, "store_version": STORE_VERSION, "key": key}
        self.timelines_dir.mkdir(parents=True, exist_ok=True)
        path = self.timeline_path_for(key)
        self._atomic_write(path, json.dumps(data, sort_keys=True))
        self.registry.counter("store.timeline_persist").inc()
        return path

    def get_timeline(
        self, key_or_cfg: Union[str, ExperimentConfig]
    ) -> Optional[dict[str, Any]]:
        """The stored timeline dict for a run, or None (see :func:`stored_timeline`)."""
        key = key_or_cfg if isinstance(key_or_cfg, str) else run_key(key_or_cfg)
        return stored_timeline(self.path_for(key))

    # ------------------------------------------------------------------
    # maintenance: ls / gc / rm
    # ------------------------------------------------------------------
    def ls(self) -> list[dict[str, Any]]:
        """Entry summaries from a directory scan, in key order."""
        rows = []
        for path in sorted(self.runs_dir.glob("*.json")):
            entry = self._read_entry(path)
            if entry is not None:
                rows.append(self._summary(entry))
        return rows

    def rm(self, keys: Iterable[str]) -> int:
        """Delete entries by key or unambiguous key prefix.

        ``ls`` (and the CLI table) shows truncated keys, so prefixes are
        accepted; a prefix matching several entries deletes nothing for
        that argument, and so does anything but lowercase hex (an empty
        string or a glob pattern is no key).  Returns how many entries
        were deleted.
        """
        removed = 0
        for key in keys:
            if not _KEY_PREFIX.fullmatch(key):
                continue
            path = self.path_for(key)
            if not path.exists():
                matches = list(self.runs_dir.glob(f"{key}*.json"))
                if len(matches) != 1:
                    continue
                path = matches[0]
            path.unlink()
            self._memo.pop(path.stem, None)
            sibling = self.timelines_dir / path.name
            if sibling.exists():
                sibling.unlink()
            removed += 1
        return removed

    def gc(self, prune_stale_versions: bool = True) -> dict[str, int]:
        """Collect garbage.

        Removes temp-file litter from killed writers, corrupt entries,
        and (by default) entries written by a different package or store
        version — those keys can never be looked up again, so they are
        unreachable by construction.  Timelines are garbage too when
        corrupt, stale, or orphaned (their run entry is gone).
        """
        stats = {
            "tmp_removed": 0,
            "corrupt_removed": 0,
            "stale_removed": 0,
            "kept": 0,
            "timelines_removed": 0,
            "timelines_kept": 0,
        }
        stats["tmp_removed"] += self._sweep_tmp_litter(self.runs_dir)
        current = (STORE_VERSION, _code_version())
        kept_keys: set[str] = set()
        for path in sorted(self.runs_dir.glob("*.json")):
            entry = self._read_entry(path)
            if entry is None:
                path.unlink()
                self._memo.pop(path.stem, None)
                stats["corrupt_removed"] += 1
                continue
            written_by = (
                entry.get("store_version"),
                entry.get("identity", {}).get("code_version"),
            )
            if prune_stale_versions and written_by != current:
                path.unlink()
                self._memo.pop(path.stem, None)
                stats["stale_removed"] += 1
                continue
            kept_keys.add(entry.get("key", path.stem))
            stats["kept"] += 1
        if self.timelines_dir.exists():
            stats["tmp_removed"] += self._sweep_tmp_litter(self.timelines_dir)
            for path in sorted(self.timelines_dir.glob("*.json")):
                if path.stem in kept_keys and self.get_timeline(path.stem) is not None:
                    stats["timelines_kept"] += 1
                else:
                    path.unlink()
                    stats["timelines_removed"] += 1
        return stats

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _summary(entry: dict[str, Any]) -> dict[str, Any]:
        cfg = entry.get("identity", {}).get("config", {})
        metrics = entry.get("metrics", {})
        return {
            "key": entry.get("key"),
            "scheme": cfg.get("scheme"),
            "n_nodes": cfg.get("n_nodes"),
            "seed": cfg.get("seed"),
            "created_at": entry.get("created_at"),
            "code_version": entry.get("identity", {}).get("code_version"),
            "delivery_ratio": metrics.get("delivery_ratio"),
        }

    def _lookup(self, key: str) -> Optional[RunMetrics]:
        """The metrics stored under ``key``, parsed at most once per file."""
        path = self.path_for(key)
        try:
            stamp = _stamp(os.stat(path))
        except OSError:
            self._memo.pop(key, None)
            return None
        known = self._memo.get(key)
        if known is not None and known[0] == stamp:
            return known[1]
        # stamped before the read: a write racing the read changes the
        # stamp again, so the next lookup reads the file once more
        entry = self._read_entry(path)
        if entry is None:
            self._memo.pop(key, None)
            return None
        metrics = _metrics_from_dict(entry["metrics"])
        self._memo[key] = (stamp, metrics)
        return metrics

    @staticmethod
    def _read_entry(path: Path) -> Optional[dict[str, Any]]:
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):  # ValueError: bad JSON or not UTF-8 text
            return None
        if not isinstance(entry, dict) or entry.get("store_version") != STORE_VERSION:
            return None
        if "metrics" not in entry:
            return None
        return entry

    @staticmethod
    def _sweep_tmp_litter(directory: Path) -> int:
        """Unlink abandoned ``*.tmp`` files; returns how many went.

        Only files older than :data:`TMP_LITTER_MIN_AGE_S` are litter —
        a fresh one may be a live writer's in-flight payload whose
        ``os.replace`` has not happened yet; deleting it would turn the
        writer's atomic put into a crash.  Vanishing files (another gc,
        or the writer's own rename) are skipped, not errors.
        """
        removed = 0
        cutoff = time.time() - TMP_LITTER_MIN_AGE_S
        for tmp in directory.glob("*.tmp*"):
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


def _metrics_from_dict(data: dict[str, Any]) -> RunMetrics:
    return RunMetrics(
        scheme=data["scheme"],
        n_nodes=int(data["n_nodes"]),
        seed=int(data["seed"]),
        avg_dissipated_energy=float(data["avg_dissipated_energy"]),
        avg_delay=float(data["avg_delay"]),
        delivery_ratio=float(data["delivery_ratio"]),
        total_energy_j=float(data["total_energy_j"]),
        distinct_delivered=int(data["distinct_delivered"]),
        events_sent=int(data["events_sent"]),
        mean_degree=float(data["mean_degree"]),
        counters=dict(data.get("counters", {})),
        energy_by_class=dict(data.get("energy_by_class", {})),
        time_to_first_death=_opt_float(data.get("time_to_first_death")),
        time_to_half_delivery=_opt_float(data.get("time_to_half_delivery")),
    )


def _opt_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    """What identifies one version of an entry file: inode, size, mtime.

    An atomic put makes a new inode; an in-place rewrite changes the
    size or the mtime.
    """
    return st.st_ino, st.st_size, st.st_mtime_ns


def stored_timeline(entry_path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """The timeline stored with the entry at ``entry_path``, or None.

    The entry is ``<root>/runs/<key>.json`` and its timeline
    ``<root>/timelines/<key>.json``.  A missing, unreadable or corrupt
    timeline, or one another :data:`STORE_VERSION` wrote, is a miss.
    This is the one reader of stored timelines: :meth:`RunStore.get_timeline`
    (the daemon's ``/api/v1/runs/<key>/timeline`` and ``store gc``) and
    ``repro timeline <entry>`` both call it.  It only reads, so it
    creates no store directories.
    """
    entry_path = Path(entry_path)
    path = entry_path.parent.parent / "timelines" / entry_path.name
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):  # ValueError: bad JSON or not UTF-8 text
        return None
    if not isinstance(data, dict) or data.get("store_version") != STORE_VERSION:
        return None
    return data


def open_store(
    store: Union["RunStore", str, Path, None],
) -> Optional["RunStore"]:
    """Coerce a ``store=`` argument (path or handle) to a RunStore."""
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)

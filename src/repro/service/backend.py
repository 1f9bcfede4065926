"""Result storage for the sweep service.

:class:`LocalDirBackend` is a local
:class:`~repro.experiments.store.RunStore` directory fronted by a
sqlite listing index.  Its run lookup and persist methods (``get``,
``contains``, ``put``, ``note_skipped``) are the store's own, so the
:class:`~repro.experiments.sweeps.RunExecutor` probes and persists
through it exactly as it does through a plain ``RunStore``.

The content-addressed run directory stays exactly as ``RunStore`` lays
it out (``runs/<sha256>.json`` payloads are authoritative, writes
atomic), and a sqlite ``index.db`` rides beside it so listing thousands
of entries for the ``/api/v1/runs`` endpoint is one indexed query
instead of a directory scan.  The sqlite index is a cache with the same
contract as ``index.json``: rebuildable from the payload files at any
time (:meth:`LocalDirBackend.reindex`), never consulted for lookups.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path
from typing import Any, Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.metrics import RunMetrics
from ..experiments.store import RunStore
from ..obs.registry import MetricsRegistry

__all__ = ["LocalDirBackend"]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    key TEXT PRIMARY KEY,
    scheme TEXT,
    n_nodes INTEGER,
    seed INTEGER,
    created_at TEXT,
    code_version TEXT,
    delivery_ratio REAL
)
"""

_COLUMNS = (
    "key",
    "scheme",
    "n_nodes",
    "seed",
    "created_at",
    "code_version",
    "delivery_ratio",
)


class LocalDirBackend:
    """A local ``RunStore`` directory fronted by a sqlite listing index.

    All methods are synchronous and fast (local disk / one sqlite
    query); the scheduler calls them from the event loop thread.
    ``index.db`` lives inside the store root, one row per entry, upserted
    on every :meth:`put`.  Opening a backend over a store that
    already has entries (a warm cache produced by ``repro figure`` runs)
    lazily reindexes so the listing is complete from the first request.
    """

    def __init__(
        self, root: Union[str, Path], registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.store = RunStore(root, registry=self.registry)
        self.db_path = self.store.root / "index.db"
        self._db = sqlite3.connect(self.db_path)
        self._db.execute(_SCHEMA)
        self._db.commit()
        if self._count() == 0 and any(self.store.runs_dir.glob("*.json")):
            self.reindex()

    # ------------------------------------------------------------------
    # run lookup / persist
    # ------------------------------------------------------------------
    def get(self, cfg: ExperimentConfig) -> Optional[RunMetrics]:
        """Stored metrics for ``cfg``, or None; counts a hit or a miss."""
        return self.store.get(cfg)

    def contains(self, cfg: ExperimentConfig) -> bool:
        """Whether ``cfg`` is stored, without counting a lookup."""
        return self.store.contains(cfg)

    def put(self, cfg: ExperimentConfig, metrics: RunMetrics) -> Path:
        """Persist one completed run and index it; returns the entry path."""
        path = self.store.put(cfg, metrics)
        entry = self.store._read_entry(path)
        if entry is not None:
            self._upsert(self.store._summary(entry))
        return path

    def note_skipped(self) -> None:
        """Record a run that completed without metrics (a failure)."""
        self.store.note_skipped()

    def entry(self, key: str) -> Optional[dict[str, Any]]:
        return self.store._read_entry(self.store.path_for(key))

    def timeline(self, key: str) -> Optional[dict[str, Any]]:
        return self.store.get_timeline(key)

    # ------------------------------------------------------------------
    # listing index
    # ------------------------------------------------------------------
    def summaries(self) -> list[dict[str, Any]]:
        rows = self._db.execute(
            f"SELECT {', '.join(_COLUMNS)} FROM runs ORDER BY created_at, key"
        ).fetchall()
        return [dict(zip(_COLUMNS, row)) for row in rows]

    def reindex(self) -> int:
        """Rebuild the sqlite index from the payload files."""
        rows = self.store.ls()
        with self._db:
            self._db.execute("DELETE FROM runs")
            for row in rows:
                self._upsert(row, commit=False)
        return len(rows)

    def stats(self) -> dict[str, Any]:
        """Counters for ``/metrics``: entries, hits, misses, persists."""
        return {"entries": self._count(), **self.store.stats.as_dict()}

    def close(self) -> None:
        self._db.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _count(self) -> int:
        return int(self._db.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def _upsert(self, summary: dict[str, Any], commit: bool = True) -> None:
        self._db.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(_COLUMNS))})",
            tuple(summary.get(col) for col in _COLUMNS),
        )
        if commit:
            self._db.commit()

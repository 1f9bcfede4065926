#!/usr/bin/env python3
"""Bench-regression gate: fail when throughput drops vs the baseline.

Compares a fresh ``repro bench`` payload against the committed
trajectory in ``BENCH_sweep.json`` and exits non-zero when events/sec
dropped by more than the threshold (default 25%).

Usage::

    PYTHONPATH=src python -m repro bench --profile quick --out /tmp/bench.json
    python tools/check_bench.py /tmp/bench.json \
        --baseline BENCH_sweep.json --threshold 0.25

The baseline entry is the most recent committed result with the same
``(profile, timeline, spans)`` triple as the candidate (different
profiles have different event mixes, and timeline-on runs pay probe
overhead and spans-on runs pay tracing overhead, so none of those are
ever compared to each other; entries predating named profiles are keyed
by their legacy ``quick`` flag, and entries predating the spans flag
read as spans-off).  A hostname mismatch
is reported — cross-machine throughput comparisons are noisy, which is
one reason the threshold is generous — but the gate is still enforced.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_entries(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    if isinstance(data, dict) and data.get("kind") == "bench-trajectory":
        return list(data.get("entries", []))
    if isinstance(data, dict) and data.get("kind") == "bench":
        return [data]
    raise SystemExit(f"{path}: not a bench payload or trajectory")


def entry_profile(entry: dict) -> str:
    """The entry's workload profile (legacy entries map via their quick flag)."""
    profile = entry.get("profile")
    if profile is not None:
        return str(profile)
    return "quick" if entry.get("quick") else "canonical"


def pick_baseline(
    entries: list[dict], profile: str, timeline: bool = False, spans: bool = False
) -> dict | None:
    matching = [
        e
        for e in entries
        if entry_profile(e) == profile
        and bool(e.get("timeline")) is timeline
        and bool(e.get("spans")) is spans
    ]
    return matching[-1] if matching else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh bench JSON (payload or trajectory)")
    parser.add_argument(
        "--baseline", default="BENCH_sweep.json", help="committed trajectory file"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="max tolerated fractional events/sec drop (default 0.25)",
    )
    args = parser.parse_args(argv)

    current = load_entries(Path(args.current))[-1]
    profile = entry_profile(current)
    baseline = pick_baseline(
        load_entries(Path(args.baseline)),
        profile,
        bool(current.get("timeline")),
        bool(current.get("spans")),
    )
    if baseline is None:
        print(
            f"check_bench: no baseline with profile={profile} "
            f"timeline={bool(current.get('timeline'))} "
            f"spans={bool(current.get('spans'))} in "
            f"{args.baseline}; nothing to gate against"
        )
        return 0

    base_eps = baseline["events_per_sec"]
    cur_eps = current["events_per_sec"]
    slowdown = 1.0 - cur_eps / base_eps if base_eps > 0 else 0.0
    base_host = baseline.get("environment", {}).get("hostname", "?")
    cur_host = current.get("environment", {}).get("hostname", "?")

    print(
        f"check_bench: baseline {base_eps:,.0f} events/s ({base_host}) -> "
        f"current {cur_eps:,.0f} events/s ({cur_host}): "
        f"{'slowdown' if slowdown > 0 else 'speedup'} {abs(slowdown):.1%} "
        f"(threshold {args.threshold:.0%})"
    )
    if base_host != cur_host:
        print("check_bench: note — different hosts, comparison is approximate")
    if slowdown > args.threshold:
        print(
            f"check_bench: FAIL — events/sec dropped {slowdown:.1%} "
            f"(> {args.threshold:.0%})",
            file=sys.stderr,
        )
        return 1
    print("check_bench: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

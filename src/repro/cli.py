"""Command-line driver: ``repro-wsn`` / ``python -m repro``.

Subcommands::

    repro-wsn run   --scheme greedy -n 150 --seed 1          # one experiment
    repro-wsn run   --profile --trace-out t.jsonl \\
                    --manifest m.json                        # ... observed
    repro-wsn fig   fig5 --profile fast --trials 2           # one paper figure
    repro-wsn trees --nodes 100 200 350 --trials 5           # GIT vs SPT table
    repro-wsn all   --profile fast                           # every figure
    repro-wsn bench --out BENCH_sweep.json                   # canonical perf run
    repro-wsn stats m.json                                   # inspect manifest
    repro-wsn fig fig5 --profile smoke --save f.json         # one file: the figure manifest
    repro-wsn stats t.jsonl                                  # inspect trace
    repro-wsn stats --list-categories                        # trace categories
    repro-wsn run --audit --trace-out t.jsonl                # audited run
    repro-wsn audit t.jsonl                                  # replay invariants
    repro-wsn audit m.json                                   # static invariants
    repro-wsn diff a.json b.json                             # compare artifacts
    repro-wsn run --timeline                                 # sampled probe series
    repro-wsn timeline tl.json                               # render a timeline
    repro-wsn timeline runs/runs/KEY.json                    # ... from a store entry
    repro-wsn timeline f.json --cell greedy@150              # ... one saved figure's cell
    repro-wsn timeline tl.json --chrome-trace t.json         # ... and export it to Perfetto
    repro-wsn run --channel pathloss --bands 2               # pathloss/SINR PHY
    repro-wsn fig channel-density --profile fast             # disc vs pathloss
    repro-wsn fig fig5 --store runs/                         # resumable sweep
    repro-wsn store ls runs/                                 # list stored runs
    repro-wsn store ls runs/ --json                          # ... machine-readable
    repro-wsn store gc runs/                                 # prune stale entries
    repro-wsn store rm runs/ KEY [KEY...]                    # delete entries
    repro-wsn serve --store runs/ --port 8642                # results daemon
    repro-wsn client submit --figure fig5 --wait             # figure via daemon
    repro-wsn client status job-000001                       # poll a job
    repro-wsn client fetch job-000001                        # fetch results
    repro-wsn client metrics                                 # daemon /metrics
    repro-wsn client trace job-000001 --chrome-trace t.json  # span tree -> Perfetto
    repro-wsn top --port 8642                                # live ops dashboard
    repro-wsn loadtest --requests 500 --concurrency 100      # hammer a warm daemon

Figures print the same series the paper plots (see
:mod:`repro.experiments.report`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .experiments import (
    FIGURES,
    PROFILES,
    ExperimentConfig,
    FailureModel,
    figure_plan,
    format_figure,
    format_tree_table,
    git_vs_spt_table,
    run_figure_plan,
)
from .obs.options import TRACE_CATEGORIES

__all__ = ["main", "build_parser"]


def _add_channel_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--channel`` flag group (run and fig verbs)."""
    from .net.channel import CHANNEL_MODELS, ChannelSpec

    defaults = ChannelSpec(model="pathloss")
    group = parser.add_argument_group(
        "channel", "PHY channel model (defaults shown are the pathloss spec's)"
    )
    group.add_argument(
        "--channel",
        choices=CHANNEL_MODELS,
        default="disc",
        help="channel model: the paper's 40 m disc (default) or "
        "log-distance pathloss with SINR capture",
    )
    group.add_argument(
        "--tx-power-dbm", type=float, default=None, metavar="DBM",
        help=f"transmit power (default {defaults.tx_power_dbm:g})",
    )
    group.add_argument(
        "--pathloss-exponent", type=float, default=None, metavar="N",
        help=f"log-distance exponent (default {defaults.pathloss_exponent:g})",
    )
    group.add_argument(
        "--reference-loss-db", type=float, default=None, metavar="DB",
        help=f"pathloss at 1 m (default {defaults.reference_loss_db:g})",
    )
    group.add_argument(
        "--noise-floor-dbm", type=float, default=None, metavar="DBM",
        help=f"noise power (default {defaults.noise_floor_dbm:g})",
    )
    group.add_argument(
        "--rx-sensitivity-dbm", type=float, default=None, metavar="DBM",
        help=f"weakest decodable rx power (default {defaults.rx_sensitivity_dbm:g})",
    )
    group.add_argument(
        "--capture-threshold-db", type=float, default=None, metavar="DB",
        help=f"SINR needed to decode (default {defaults.capture_threshold_db:g})",
    )
    group.add_argument(
        "--no-capture", action="store_true",
        help="disable SINR capture (disc-style all-or-nothing collisions)",
    )
    group.add_argument(
        "--max-range-m", type=float, default=None, metavar="M",
        help="hard reach cutoff in meters (default: link budget only)",
    )
    group.add_argument(
        "--bands", type=int, default=None, metavar="K",
        help="frequency bands; only same-band frames interfere (default 1)",
    )


def _channel_spec(args: argparse.Namespace):
    """Build the config's ChannelSpec from the ``--channel`` flag group.

    Returns None for the default disc channel (the config keeps its
    default block, so disc store keys are unchanged); raises ValueError
    when pathloss parameters are given without ``--channel pathloss``.
    """
    from .net.channel import ChannelSpec

    flags = {
        "tx_power_dbm": args.tx_power_dbm,
        "pathloss_exponent": args.pathloss_exponent,
        "reference_loss_db": args.reference_loss_db,
        "noise_floor_dbm": args.noise_floor_dbm,
        "rx_sensitivity_dbm": args.rx_sensitivity_dbm,
        "capture_threshold_db": args.capture_threshold_db,
        "max_range_m": args.max_range_m,
        "n_bands": args.bands,
    }
    given = {k: v for k, v in flags.items() if v is not None}
    if args.channel == "disc":
        if given or args.no_capture:
            extra = sorted(given) + (["no_capture"] if args.no_capture else [])
            raise ValueError(
                f"channel parameters {extra} need --channel pathloss "
                "(the disc channel has no tunables)"
            )
        return None
    if args.no_capture:
        given["capture"] = False
    return ChannelSpec(model="pathloss", **given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-wsn",
        description="Greedy aggregation in WSNs (ICDCS 2002) — reproduction driver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment and print its metrics")
    sim_g = run_p.add_argument_group(
        "simulation", "what to run: scheme, workload, geometry"
    )
    sim_g.add_argument("--scheme", choices=("greedy", "opportunistic"), default="greedy")
    sim_g.add_argument("-n", "--nodes", type=int, default=150)
    sim_g.add_argument("--sources", type=int, default=5)
    sim_g.add_argument("--sinks", type=int, default=1)
    sim_g.add_argument("--seed", type=int, default=1)
    sim_g.add_argument("--duration", type=float, default=50.0)
    sim_g.add_argument("--warmup", type=float, default=17.0)
    sim_g.add_argument(
        "--field-size",
        type=float,
        default=200.0,
        metavar="M",
        help="side of the square deployment field in meters",
    )
    sim_g.add_argument(
        "--placement", choices=("corner", "random", "event-radius"), default="corner"
    )
    sim_g.add_argument(
        "--aggregation",
        choices=("perfect", "linear", "none", "timestamp", "outline"),
        default="perfect",
    )
    sim_g.add_argument("--failures", action="store_true", help="enable §5.3 node dynamics")
    sim_g.add_argument("--include-idle", action="store_true")
    sim_g.add_argument(
        "--store",
        metavar="PATH",
        help="consult/update a content-addressed run store at PATH",
    )
    obs_g = run_p.add_argument_group(
        "observability", "instruments attached to the run and their artifacts"
    )
    obs_g.add_argument(
        "--profile",
        action="store_true",
        help="report exclusive wall time per layer, events/sec and heap depth",
    )
    obs_g.add_argument(
        "--trace-out",
        metavar="PATH",
        help="stream enabled trace categories to a JSONL file",
    )
    obs_g.add_argument(
        "--trace-categories",
        nargs="+",
        default=["*"],
        choices=("*", *TRACE_CATEGORIES),
        metavar="CAT",
        help="categories to trace (default: everything; "
        "list them with `stats --list-categories`)",
    )
    obs_g.add_argument(
        "--manifest", metavar="PATH", help="write the run provenance manifest here"
    )
    obs_g.add_argument(
        "--audit",
        action="store_true",
        help="run the online invariant auditor; exit 1 on any finding",
    )
    obs_g.add_argument(
        "--timeline",
        action="store_true",
        help="sample the standard probe timeline and print its sparkline summary",
    )
    obs_g.add_argument(
        "--timeline-interval",
        type=float,
        default=None,
        metavar="SEC",
        help="sim-seconds between timeline samples (default: duration/10)",
    )
    obs_g.add_argument(
        "--timeline-out",
        metavar="PATH",
        help="write the sampled timeline as JSON (implies --timeline)",
    )
    _add_channel_args(run_p)

    fig_p = sub.add_parser(
        "fig",
        help="reproduce one of figures 5-10, the large-field density study, "
        "or the disc-vs-pathloss channel study",
    )
    fig_p.add_argument("figure", choices=sorted(FIGURES))
    fig_p.add_argument("--profile", choices=sorted(PROFILES), default="fast")
    fig_p.add_argument("--trials", type=int, default=None)
    fig_p.add_argument("--workers", type=int, default=0)
    fig_p.add_argument(
        "--save", metavar="PATH",
        help="write the figure and how it was run as one JSON manifest",
    )
    fig_p.add_argument("--csv", metavar="PATH", help="export the series as CSV")
    fig_p.add_argument(
        "--store",
        metavar="PATH",
        help="resumable sweep: skip runs already in the store at PATH, "
        "persist each fresh run as it completes",
    )
    _add_channel_args(fig_p)

    inspect_p = sub.add_parser(
        "inspect", help="run one experiment and print its aggregation tree"
    )
    inspect_p.add_argument("--scheme", choices=("greedy", "opportunistic"), default="greedy")
    inspect_p.add_argument("-n", "--nodes", type=int, default=120)
    inspect_p.add_argument("--sources", type=int, default=5)
    inspect_p.add_argument("--seed", type=int, default=1)
    inspect_p.add_argument("--duration", type=float, default=50.0)

    trees_p = sub.add_parser("trees", help="GIT vs SPT abstract comparison table")
    trees_p.add_argument("--nodes", type=int, nargs="+", default=[100, 200, 350])
    trees_p.add_argument("--sources", type=int, default=5)
    trees_p.add_argument("--trials", type=int, default=10)
    trees_p.add_argument("--seed", type=int, default=7)

    all_p = sub.add_parser("all", help="reproduce every figure")
    all_p.add_argument("--profile", choices=sorted(PROFILES), default="fast")
    all_p.add_argument("--trials", type=int, default=None)
    all_p.add_argument("--workers", type=int, default=0)
    all_p.add_argument(
        "--store", metavar="PATH", help="resumable sweeps via the run store at PATH"
    )

    store_p = sub.add_parser(
        "store", help="inspect and maintain a content-addressed run store"
    )
    store_sub = store_p.add_subparsers(dest="store_command", required=True)
    store_ls = store_sub.add_parser("ls", help="list stored runs")
    store_ls.add_argument("path", help="store directory")
    store_ls.add_argument(
        "--json", action="store_true", help="machine-readable entry list on stdout"
    )
    store_gc = store_sub.add_parser(
        "gc", help="prune temp litter, corrupt entries, and stale-version entries"
    )
    store_gc.add_argument("path", help="store directory")
    store_gc.add_argument(
        "--keep-stale",
        action="store_true",
        help="keep entries written by other package/store versions",
    )
    store_rm = store_sub.add_parser("rm", help="delete entries by key")
    store_rm.add_argument("path", help="store directory")
    store_rm.add_argument("keys", nargs="+", metavar="KEY", help="entry keys (sha256)")

    bench_p = sub.add_parser(
        "bench", help="run the canonical sweep benchmark and write BENCH_sweep.json"
    )
    bench_p.add_argument(
        "--profile",
        metavar="NAME",
        default="canonical",
        help="named workload profile: canonical (default), quick (the "
        "~10x cheaper CI smoke), large, large-quick, pathloss, pathloss-quick",
    )
    bench_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also time the parallel executor and verify it matches serial",
    )
    bench_p.add_argument(
        "--out", metavar="PATH", default="BENCH_sweep.json", help="where to write the JSON"
    )
    bench_p.add_argument(
        "--timeline",
        action="store_true",
        help="run with the standard probe timeline attached (the probe-overhead gate)",
    )
    bench_p.add_argument(
        "--spans",
        action="store_true",
        help="record request-tracing spans around each run (the span-overhead gate)",
    )
    bench_p.add_argument(
        "--json",
        action="store_true",
        help="machine-readable benchmark payload on stdout (instead of the table)",
    )

    serve_p = sub.add_parser(
        "serve", help="run the async sweep/results daemon over a run store"
    )
    serve_p.add_argument(
        "--store", required=True, metavar="PATH", help="run-store directory to serve"
    )
    serve_p.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_p.add_argument(
        "--port", type=int, default=8642, help="listen port (0 picks an ephemeral port)"
    )
    serve_p.add_argument(
        "--workers", type=int, default=2, help="simulation worker processes"
    )
    serve_p.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (for scripts using --port 0)",
    )
    serve_p.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (one object per line, with correlation ids)",
    )
    serve_p.add_argument(
        "--no-spans",
        action="store_true",
        help="disable request-tracing span retention (tracing is on by default)",
    )
    serve_p.add_argument(
        "--span-capacity",
        type=int,
        default=None,
        metavar="N",
        help="span ring-buffer size (default 8192; bounds trace memory)",
    )

    client_p = sub.add_parser("client", help="talk to a running repro-wsn daemon")
    client_p.add_argument("--host", default="127.0.0.1", help="daemon address")
    client_p.add_argument("--port", type=int, default=8642, help="daemon port")
    client_sub = client_p.add_subparsers(dest="client_command", required=True)
    client_submit = client_sub.add_parser(
        "submit", help="submit a figure or a raw JSON spec; prints the job"
    )
    client_submit.add_argument(
        "--figure", choices=sorted(FIGURES), help="figure to compute via the daemon"
    )
    client_submit.add_argument(
        "--profile", choices=sorted(PROFILES), default="fast", help="fidelity profile"
    )
    client_submit.add_argument("--trials", type=int, default=None, help="fields per point")
    client_submit.add_argument(
        "--n-nodes", type=int, default=None, help="field size for source/sink sweeps"
    )
    client_submit.add_argument(
        "--xs", type=int, nargs="+", default=None, metavar="X", help="sweep values"
    )
    client_submit.add_argument(
        "--priority", type=int, default=None, help="queue priority (lower drains first)"
    )
    client_submit.add_argument(
        "--spec", metavar="FILE", help="raw JSON request body (overrides --figure)"
    )
    client_submit.add_argument(
        "--wait", action="store_true", help="block until done and print the results"
    )
    _add_channel_args(client_submit)
    client_status = client_sub.add_parser(
        "status", help="show one job (or all jobs) as JSON"
    )
    client_status.add_argument("job_id", nargs="?", help="job id (omit to list all)")
    client_fetch = client_sub.add_parser(
        "fetch", help="wait for a job and print its results as JSON"
    )
    client_fetch.add_argument("job_id", help="job id")
    client_fetch.add_argument("--out", metavar="PATH", help="also write the JSON here")
    client_sub.add_parser("metrics", help="print the daemon's /metrics payload")
    client_trace = client_sub.add_parser(
        "trace", help="fetch a job's span tree (optionally export to Chrome/Perfetto)"
    )
    client_trace.add_argument("job_id", help="job id")
    client_trace.add_argument(
        "--chrome-trace",
        metavar="PATH",
        help="also write the spans as a Chrome trace (open in Perfetto/about:tracing)",
    )
    client_trace.add_argument(
        "--timeline-key",
        metavar="KEY",
        help="merge this stored run's probe timeline into the Chrome trace",
    )
    client_spans = client_sub.add_parser(
        "spans", help="print recent daemon spans (newest first)"
    )
    client_spans.add_argument("--limit", type=int, default=50, help="max spans")
    client_spans.add_argument(
        "--name", default=None, help="filter by span name (or prefix ending in '.')"
    )
    client_spans.add_argument("--trace", default=None, help="filter by trace id")

    top_p = sub.add_parser(
        "top", help="live terminal dashboard over a running daemon's /metrics"
    )
    top_p.add_argument("--host", default="127.0.0.1", help="daemon address")
    top_p.add_argument("--port", type=int, default=8642, help="daemon port")
    top_p.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    top_p.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="render N frames then exit (0 = run until interrupted)",
    )
    top_p.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of redrawing in place (for logs/pipes)",
    )

    loadtest_p = sub.add_parser(
        "loadtest", help="replay concurrent figure submissions against a daemon"
    )
    loadtest_p.add_argument("--host", default="127.0.0.1", help="daemon address")
    loadtest_p.add_argument("--port", type=int, default=8642, help="daemon port")
    loadtest_p.add_argument(
        "--figure", choices=sorted(FIGURES), default="fig5", help="figure to replay"
    )
    loadtest_p.add_argument(
        "--profile", choices=sorted(PROFILES), default="fast", help="fidelity profile"
    )
    loadtest_p.add_argument(
        "--xs", type=int, nargs="+", default=None, metavar="X", help="sweep values"
    )
    loadtest_p.add_argument("--trials", type=int, default=None, help="fields per point")
    loadtest_p.add_argument(
        "--requests", type=int, default=500, help="total submissions to replay"
    )
    loadtest_p.add_argument(
        "--concurrency", type=int, default=100, help="maximum submissions in flight"
    )
    loadtest_p.add_argument(
        "--timeout", type=float, default=30.0, help="per-request timeout (seconds)"
    )

    stats_p = sub.add_parser(
        "stats",
        help="pretty-print a run manifest, a saved figure, or a JSONL trace file",
    )
    stats_p.add_argument(
        "file", nargs="?",
        help="path to a run manifest, saved figure, or trace produced by this tool",
    )
    stats_p.add_argument(
        "--top", type=int, default=12, help="how many top counters/categories to show"
    )
    stats_p.add_argument(
        "--list-categories",
        action="store_true",
        help="list every known trace category and exit",
    )

    audit_p = sub.add_parser(
        "audit", help="verify run invariants on a trace, manifest, or store entry"
    )
    audit_p.add_argument(
        "file", help="JSONL trace (stream checks) or JSON artifact (static checks)"
    )
    audit_p.add_argument(
        "--json", action="store_true", help="machine-readable findings on stdout"
    )

    diff_p = sub.add_parser(
        "diff", help="compare two run/figure/timeline artifacts (manifests, store entries, saved figures)"
    )
    diff_p.add_argument("a", help="baseline artifact")
    diff_p.add_argument("b", help="candidate artifact")
    diff_p.add_argument(
        "--json", action="store_true", help="machine-readable diff on stdout"
    )

    timeline_p = sub.add_parser(
        "timeline",
        help="render a probe timeline from a saved artifact, store entry, or figure cell",
    )
    timeline_p.add_argument(
        "target",
        help="timeline JSON, store entry, run manifest, "
        "or saved figure (the latter needs --cell)",
    )
    timeline_p.add_argument(
        "--cell",
        metavar="SCHEME@X",
        help="which saved-figure cell to re-run, under the profile and "
        "channel the figure records (e.g. greedy@150; channel-density "
        "cells are scheme@channel@x, e.g. greedy@pathloss@150)",
    )
    timeline_p.add_argument(
        "--trial", type=int, default=0, help="trial index for figure-cell re-runs"
    )
    timeline_p.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SEC",
        help="sampling interval for live re-runs (default: duration/10)",
    )
    timeline_p.add_argument(
        "--probes", nargs="+", metavar="NAME", help="only render these probes"
    )
    timeline_p.add_argument(
        "--width", type=int, default=40, help="sparkline width in characters"
    )
    timeline_p.add_argument(
        "--json", action="store_true", help="machine-readable timeline on stdout"
    )
    timeline_p.add_argument(
        "--chrome-trace",
        metavar="OUT",
        help="also export the timeline as Chrome-trace counter tracks "
        "(for viewing in Perfetto; no verb reads it back)",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments.config import fast
    from .experiments.runner import run_observed
    from .obs import ObsOptions, format_profile

    profile = fast()
    try:
        channel = _channel_spec(args)
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    extra = {"channel": channel} if channel is not None else {}
    cfg = ExperimentConfig(
        scheme=args.scheme,
        n_nodes=args.nodes,
        n_sources=args.sources,
        n_sinks=args.sinks,
        seed=args.seed,
        duration=args.duration,
        warmup=args.warmup,
        field_size=args.field_size,
        diffusion=profile.diffusion,
        source_placement=args.placement,
        aggregation=args.aggregation,
        failures=FailureModel(epoch=profile.failure_epoch) if args.failures else None,
        include_idle=args.include_idle,
        **extra,
    )
    obs = None
    wants_obs = (
        args.profile
        or args.trace_out
        or args.manifest
        or args.audit
        or args.timeline
        or args.timeline_out
    )
    if wants_obs:
        obs = ObsOptions(
            profile=args.profile,
            trace_path=args.trace_out,
            trace_categories=tuple(args.trace_categories),
            manifest_path=args.manifest,
            audit=args.audit,
            timeline=args.timeline,
            timeline_interval=args.timeline_interval,
            timeline_path=args.timeline_out,
        )
    if args.store and obs is None:
        from .experiments.store import RunStore
        from .experiments.sweeps import RunFailure, run_configs

        store = RunStore(args.store)
        [result] = run_configs([cfg], store=store, return_failures=True)
        if isinstance(result, RunFailure):
            print(result.traceback, end="", file=sys.stderr)
            print(f"run: {result.error}", file=sys.stderr)
            return 1
        observed = None
        if store.stats.hits:
            print(f"run store: hit ({args.store})")
    else:
        observed = run_observed(cfg, obs)
        result = observed.metrics
        if args.store:
            # An observed run is always executed fresh (the caller asked
            # for artifacts); its result still lands in the store so later
            # sweeps can reuse it.
            from .experiments.store import RunStore

            store = RunStore(args.store)
            store.put(cfg, result)
            if observed.timeline is not None:
                store.put_timeline(cfg, observed.timeline)
            print(f"run store: persisted ({args.store})")
    print(f"scheme                 {result.scheme}")
    print(f"channel                {cfg.channel.model}")
    print(f"nodes                  {result.n_nodes} (mean degree {result.mean_degree:.1f})")
    print(f"avg dissipated energy  {result.avg_dissipated_energy:.6f} J/node/event")
    print(f"avg delay              {result.avg_delay:.4f} s")
    print(f"delivery ratio         {result.delivery_ratio:.3f}")
    print(f"distinct delivered     {result.distinct_delivered} / {result.events_sent}")
    if result.time_to_first_death is not None:
        print(f"first node death       {result.time_to_first_death:.3f} s")
    if result.time_to_half_delivery is not None:
        print(f"half delivery at       {result.time_to_half_delivery:.3f} s")
    if observed is not None:
        if observed.profile is not None:
            print()
            print(format_profile(observed.profile))
        if observed.timeline is not None:
            from .obs import format_timeline

            print()
            print(format_timeline(observed.timeline))
        if observed.trace_path is not None:
            print(f"\ntrace written: {observed.trace_path}")
        if observed.timeline_path is not None:
            print(f"timeline written: {observed.timeline_path}")
        if observed.manifest_path is not None:
            print(f"manifest written: {observed.manifest_path}")
        if observed.audit is not None:
            from .obs.audit import AuditFinding, format_findings

            findings = [
                AuditFinding(**{**f, "context": f.get("context", {})})
                for f in observed.audit["findings"]
            ]
            print()
            print(format_findings(findings))
            if not observed.audit["ok"]:
                return 1
    return 0


def _sweep_progress(done: int, total: int) -> None:
    """Coarse progress line for long parallel sweeps (stderr, no spam)."""
    step = max(1, total // 10)
    if done % step == 0 or done == total:
        print(f"sweep: {done}/{total} runs", file=sys.stderr)


def _store_block(store, path) -> dict:
    """The manifest/reporting summary of one sweep's store accounting."""
    return {"path": str(path), **store.stats.as_dict()}


def _cmd_fig(args: argparse.Namespace) -> int:
    import time

    from .experiments import format_channel_figure

    profile = PROFILES[args.profile]()
    progress = _sweep_progress if args.workers and args.workers > 1 else None
    try:
        channel = _channel_spec(args)
    except ValueError as exc:
        print(f"fig: {exc}", file=sys.stderr)
        return 2
    store = None
    if args.store:
        from .experiments.store import RunStore

        store = RunStore(args.store)
    t0 = time.perf_counter()
    result = run_figure_plan(
        figure_plan(args.figure, profile, trials=args.trials, channel=channel),
        workers=args.workers, progress=progress, store=store,
    )
    wall = time.perf_counter() - t0
    formatter = (
        format_channel_figure if args.figure == "channel-density" else format_figure
    )
    print(formatter(result))
    if store is not None:
        s = store.stats
        print(
            f"run store: {s.hits} hits, {s.misses} misses, "
            f"{s.persisted} persisted ({args.store})"
        )
    if args.save:
        from .experiments.persistence import build_figure_manifest, save_manifest

        manifest = build_figure_manifest(
            result,
            profile,
            wall_time_s=wall,
            trials=args.trials,
            workers=args.workers,
            store=_store_block(store, args.store) if store is not None else None,
            channel=channel,
        )
        print(f"saved: {save_manifest(manifest, args.save)}")
    if args.csv:
        from .experiments.persistence import export_figure_csv

        print(f"exported: {export_figure_csv(result, args.csv)}")
    return 0


#: the verbs that read each kind of artifact that
#: :func:`~repro.obs.load_artifact` returns
_ARTIFACT_READERS = {
    "run": ("stats", "audit", "diff", "timeline"),
    "figure": ("stats", "audit", "diff", "timeline"),
    "store-entry": ("audit", "diff", "timeline"),
    "timeline": ("diff", "timeline"),
    "trace": ("stats", "audit"),
}


def _read_artifact(verb: str, path) -> tuple[str, dict]:
    """Classify ``path`` with :func:`~repro.obs.load_artifact` for ``verb``.

    Raises ``OSError`` or ``ValueError`` for a file that cannot be read,
    that is no artifact, or whose kind ``verb`` does not read; each
    artifact verb prints the message and exits 2.
    """
    from .obs import load_artifact

    kind, data = load_artifact(path)
    readers = _ARTIFACT_READERS[kind]
    if verb not in readers:
        reason = f"{path} is a {kind.replace('-', ' ')}, which 'repro {verb}' does not read"
        if kind == "trace":
            reason += (
                "; a JSONL trace holds records, not a timeline "
                "(record one with 'repro run --timeline-out')"
            )
        raise ValueError(
            f"{reason}; read it with " + " or ".join(f"'repro {v}'" for v in readers)
        )
    return kind, data


def _cmd_stats(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import format_manifest, trace_summary

    if args.list_categories:
        width = max(len(name) for name in TRACE_CATEGORIES)
        for name, description in sorted(TRACE_CATEGORIES.items()):
            print(f"{name:<{width}}  {description}")
        return 0
    if not args.file:
        print("stats: a manifest/trace path is required (or --list-categories)", file=sys.stderr)
        return 2
    path = Path(args.file)
    try:
        kind, data = _read_artifact("stats", path)
    except (OSError, ValueError) as exc:
        print(f"stats: {exc}", file=sys.stderr)
        return 2
    if kind != "trace":
        print(format_manifest(data, top_counters=args.top))
        return 0
    try:
        summary = trace_summary(path)
    except ValueError as exc:  # a torn line past the header
        print(f"stats: {path}: bad trace line: {exc}", file=sys.stderr)
        return 2
    t_min, t_max = summary["time_span"]
    span = f"{t_min:.3f} .. {t_max:.3f} s" if t_min is not None else "empty"
    print(f"trace {summary['path']} (v{summary['trace_version']})")
    print(f"records     {summary['records']}")
    print(f"time span   {span}")
    print(f"categories ({len(summary['categories'])}):")
    for cat, n in list(summary["categories"].items())[: args.top]:
        print(f"  {cat:<32} {n}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs.audit import (
        audit_figure_cells,
        audit_static,
        audit_trace,
        format_findings,
    )

    path = Path(args.file)
    try:
        kind, data = _read_artifact("audit", path)
    except (OSError, ValueError) as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return 2
    if kind == "trace":
        try:
            findings = audit_trace(path)
        except ValueError as exc:  # a torn line past the header
            print(f"audit: {path}: bad trace line: {exc}", file=sys.stderr)
            return 2
        mode = "stream (trace replay)"
    elif kind == "figure":
        findings = audit_figure_cells(data["cells"])
        mode = "static (figure cells)"
    else:  # a run manifest or a store entry
        findings = audit_static(data["metrics"])
        mode = "static (run metrics)"
    if args.json:
        print(
            json.dumps(
                {
                    "file": str(path),
                    "mode": mode,
                    "ok": not any(f.severity == "error" for f in findings),
                    "findings": [f.as_dict() for f in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"{path} — {mode}")
        print(format_findings(findings))
    return 1 if any(f.severity == "error" for f in findings) else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from .obs.diff import diff_artifacts, format_diff

    try:
        for path in (args.a, args.b):
            _read_artifact("diff", path)
        diff = diff_artifacts(args.a, args.b)
    except (OSError, ValueError) as exc:
        print(f"diff: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(format_diff(diff))
    return 0 if diff["equal"] else 1


def _timeline_from_live_run(cfg, interval) -> "object":
    """Re-run one config with the standard probes attached."""
    from .experiments.runner import run_observed
    from .obs import ObsOptions

    observed = run_observed(
        cfg, ObsOptions(timeline=True, timeline_interval=interval)
    )
    return observed.timeline


def _load_timeline_target(args: argparse.Namespace):
    """Resolve the ``timeline`` verb's target to ``(Timeline, source)``.

    A saved timeline renders as it is.  A store entry or run manifest
    renders the timeline stored with it, else re-runs its config; a saved
    figure re-runs one ``--cell`` under the profile and channel it
    records.
    """
    import json
    from pathlib import Path

    from .experiments import config_from_dict, figure_cell_config
    from .experiments.store import stored_timeline
    from .net.channel import ChannelSpec
    from .obs import Timeline

    path = Path(args.target)
    kind, data = _read_artifact("timeline", path)
    if kind == "timeline":
        return Timeline.from_dict(data), "timeline artifact"
    if kind == "store-entry":
        stored = stored_timeline(path)
        if stored is not None:
            return Timeline.from_dict(stored), f"store timeline ({path.stem})"
        cfg = config_from_dict(data["identity"]["config"])
        return _timeline_from_live_run(cfg, args.interval), "live re-run (store entry)"
    if kind == "run":
        tl_path = (data.get("timeline") or {}).get("path")
        if tl_path and Path(tl_path).exists():
            return (
                Timeline.from_dict(json.loads(Path(tl_path).read_text())),
                f"run manifest -> {tl_path}",
            )
        cfg = config_from_dict(data["config"])
        return _timeline_from_live_run(cfg, args.interval), "live re-run (run manifest)"
    # a saved figure: re-run one cell
    if not args.cell:
        raise ValueError("figure artifacts need --cell SCHEME@X (e.g. --cell greedy@150)")
    # rpartition: channel-density cells are labeled scheme@channel@x
    # (e.g. greedy@pathloss@150) — x is always the last @-field
    scheme, _, x_str = args.cell.rpartition("@")
    if not scheme:
        raise ValueError(f"--cell must look like SCHEME@X, got {args.cell!r}")
    profile_name = data["profile"]["name"]
    channel = data.get("channel")  # absent from older manifests: disc
    cfg = figure_cell_config(
        data["figure_id"],
        PROFILES[profile_name](),
        scheme,
        float(x_str),
        trial=args.trial,
        channel=None if channel is None else ChannelSpec(**channel),
    )
    return (
        _timeline_from_live_run(cfg, args.interval),
        f"live re-run ({data['figure_id']} {args.cell} trial {args.trial}, "
        f"profile {profile_name})",
    )


def _cmd_timeline(args: argparse.Namespace) -> int:
    import json

    from .obs import format_timeline, write_chrome_trace

    try:
        timeline, source = _load_timeline_target(args)
    except (KeyError, OSError, ValueError) as exc:
        print(f"timeline: {exc}", file=sys.stderr)
        return 2
    if args.chrome_trace:
        out = write_chrome_trace(args.chrome_trace, timeline=timeline)
        print(f"chrome trace written: {out}", file=sys.stderr)
    if args.json:
        print(json.dumps(timeline.as_dict(), sort_keys=True))
    else:
        print(f"source: {source}")
        print(format_timeline(timeline, probes=args.probes, width=args.width))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from .experiments.config import fast
    from .experiments.inspect import active_tree, compare_with_ideal, tree_stats
    from .experiments.runner import build_world

    profile = fast()
    cfg = ExperimentConfig(
        scheme=args.scheme,
        n_nodes=args.nodes,
        n_sources=args.sources,
        seed=args.seed,
        duration=args.duration,
        warmup=min(profile.warmup, args.duration / 2),
        diffusion=profile.diffusion,
    )
    world = build_world(cfg)
    world.sim.run(until=cfg.duration)
    tree = active_tree(world)
    stats = tree_stats(tree, world.sources, world.sinks[0])
    cmp = compare_with_ideal(world)
    print(f"scheme {args.scheme}, {args.nodes} nodes, sources {sorted(world.sources)}, "
          f"sink {world.sinks[0]}")
    print(f"live tree: {stats.n_edges} edges, {stats.n_junctions} junction(s), "
          f"depth {stats.depth}, stranded sources {list(stats.stranded_sources) or 'none'}")
    print(
        "centralized references: "
        f"SPT {cmp['spt_edges']:.0f} edges, GIT {cmp['git_edges']:.0f}, "
        f"Steiner(KMB) {cmp['steiner_edges']:.0f}"
    )
    print("\nedges (node -> preferred downstream):")
    for u, v in sorted(tree.edges()):
        role = "source" if u in world.sources else "relay "
        print(f"  {role} {u:4d} -> {v}")
    return 0


def _cmd_trees(args: argparse.Namespace) -> int:
    rows = git_vs_spt_table(
        n_nodes=args.nodes, n_sources=args.sources, trials=args.trials, seed=args.seed
    )
    print(format_tree_table(rows))
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    profile = PROFILES[args.profile]()
    progress = _sweep_progress if args.workers and args.workers > 1 else None
    store = None
    if args.store:
        from .experiments.store import RunStore

        store = RunStore(args.store)
    for name in sorted(name for name, fig in FIGURES.items() if fig.paper):
        result = run_figure_plan(
            figure_plan(name, profile, trials=args.trials),
            workers=args.workers, progress=progress, store=store,
        )
        print(format_figure(result))
        print()
    print(format_tree_table(git_vs_spt_table()))
    if store is not None:
        s = store.stats
        print(
            f"\nrun store: {s.hits} hits, {s.misses} misses, "
            f"{s.persisted} persisted ({args.store})"
        )
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from .experiments.store import RunStore

    store = RunStore(args.path)
    if args.store_command == "ls":
        rows = store.ls()
        if args.json:
            import json

            print(json.dumps({"path": str(store.root), "entries": rows}, sort_keys=True))
            return 0
        if not rows:
            print(f"empty store: {args.path}")
            return 0
        print(f"{'key':<16} {'scheme':<14} {'nodes':>5} {'seed':>10} {'ratio':>6}  created")
        for row in rows:
            ratio = row.get("delivery_ratio")
            ratio_s = f"{ratio:.3f}" if isinstance(ratio, (int, float)) else "?"
            print(
                f"{row['key'][:16]:<16} {str(row.get('scheme')):<14} "
                f"{str(row.get('n_nodes')):>5} {str(row.get('seed')):>10} "
                f"{ratio_s:>6}  {row.get('created_at')}"
            )
        print(f"{len(rows)} entries")
        return 0
    if args.store_command == "gc":
        stats = store.gc(prune_stale_versions=not args.keep_stale)
        print(
            f"gc: kept {stats['kept']}, removed {stats['stale_removed']} stale, "
            f"{stats['corrupt_removed']} corrupt, {stats['tmp_removed']} temp files"
        )
        return 0
    removed = store.rm(args.keys)
    print(f"removed {removed} of {len(args.keys)} entries")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .experiments.bench import format_bench, run_bench, save_bench

    payload = run_bench(
        profile=args.profile,
        workers=args.workers,
        timeline=args.timeline,
        spans=args.spans,
    )
    try:
        path = save_bench(payload, args.out)
    except ValueError as exc:
        print(f"repro bench: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(format_bench(payload))
        print(f"\nwritten: {path}")
    par = payload.get("parallel")
    if par and not par["identical"]:
        print("ERROR: parallel results diverged from serial", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    from pathlib import Path

    from .service import build_service

    span_kwargs = {}
    if args.span_capacity is not None:
        span_kwargs["span_capacity"] = args.span_capacity
    daemon = build_service(
        args.store,
        host=args.host,
        port=args.port,
        run_workers=args.workers,
        spans=not args.no_spans,
        log_json=args.log_json,
        **span_kwargs,
    )

    async def _serve() -> None:
        await daemon.start()
        print(
            f"serving on http://{daemon.host}:{daemon.port} "
            f"(store: {args.store}, workers: {args.workers})",
            flush=True,
        )
        if args.port_file:
            Path(args.port_file).write_text(str(daemon.port))
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await daemon.stop()
        print("shutdown complete", flush=True)

    asyncio.run(_serve())
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import dataclasses
    import json
    from pathlib import Path

    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.client_command == "submit":
            if args.spec:
                submitted = client.submit(json.loads(Path(args.spec).read_text()))
            elif args.figure:
                channel = _channel_spec(args)
                submitted = client.submit_figure(
                    args.figure,
                    args.profile,
                    trials=args.trials,
                    n_nodes=args.n_nodes,
                    xs=args.xs,
                    channel=None if channel is None else dataclasses.asdict(channel),
                    priority=args.priority,
                )
            else:
                print("client submit: need --figure or --spec", file=sys.stderr)
                return 2
            if not args.wait:
                print(json.dumps(submitted, indent=2, sort_keys=True))
                return 0
            job_id = submitted["job"]["id"]
            status = client.wait(job_id)
            if status["status"] != "done":
                print(json.dumps(status, indent=2, sort_keys=True))
                print(f"client: job {job_id} failed: {status['error']}", file=sys.stderr)
                return 1
            print(json.dumps(client.result(job_id), indent=2, sort_keys=True))
            return 0
        if args.client_command == "status":
            payload = client.job(args.job_id) if args.job_id else {"jobs": client.jobs()}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.client_command == "fetch":
            result = client.fetch(args.job_id)
            text = json.dumps(result, indent=2, sort_keys=True)
            if args.out:
                Path(args.out).write_text(text)
                print(f"written: {args.out}")
            else:
                print(text)
            return 0
        if args.client_command == "trace":
            payload = client.trace(args.job_id)
            if args.chrome_trace:
                from .obs.export import write_chrome_trace

                timeline = None
                if args.timeline_key:
                    timeline = client.run_timeline(args.timeline_key)
                out = write_chrome_trace(
                    args.chrome_trace, spans=payload["spans"], timeline=timeline
                )
                print(json.dumps(payload, indent=2, sort_keys=True))
                print(f"chrome trace written: {out}")
            else:
                print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if args.client_command == "spans":
            payload = client.recent_spans(
                limit=args.limit, name=args.name, trace=args.trace
            )
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        print(json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    except ValueError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"client: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, TimeoutError, OSError) as exc:
        print(
            f"client: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return 1


def _cmd_top(args: argparse.Namespace) -> int:
    from .service.top import run_top

    return run_top(
        host=args.host,
        port=args.port,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from .service.loadtest import run_load_test

    spec = {"kind": "figure", "figure": args.figure, "profile": args.profile}
    if args.xs is not None:
        spec["xs"] = args.xs
    if args.trials is not None:
        spec["trials"] = args.trials
    payload = run_load_test(
        args.host,
        args.port,
        spec=spec,
        requests=args.requests,
        concurrency=args.concurrency,
        timeout=args.timeout,
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    if payload["errors"]:
        print(f"loadtest: {payload['errors']} requests failed", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "fig": _cmd_fig,
    "trees": _cmd_trees,
    "all": _cmd_all,
    "bench": _cmd_bench,
    "inspect": _cmd_inspect,
    "stats": _cmd_stats,
    "store": _cmd_store,
    "audit": _cmd_audit,
    "diff": _cmd_diff,
    "timeline": _cmd_timeline,
    "serve": _cmd_serve,
    "client": _cmd_client,
    "top": _cmd_top,
    "loadtest": _cmd_loadtest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

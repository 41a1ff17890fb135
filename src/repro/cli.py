"""Command-line interface: run experiments without writing Python.

Examples::

    python -m repro list                       # workloads and designs
    python -m repro run lbm06 dynamic_ptmc     # one simulation + report
    python -m repro sweep spec06 --jobs 4      # speedup matrix over a suite
    python -m repro sweep lbm06                # ... or over one workload
    python -m repro timeline lbm06 static_ptmc # phase-resolved sparklines
    python -m repro cache stats                # on-disk result cache

    python -m repro trace ingest app.trace     # content-address a real trace
    python -m repro sweep trace:<hash> -j 4    # replay it across designs

    python -m repro serve                      # job-queue daemon
    python -m repro worker --url http://h:8035 # drain a remote daemon's queue
    python -m repro submit lbm06 dynamic_ptmc  # enqueue over HTTP
    python -m repro wait <job-id>              # block until done
    python -m repro result <job-id>            # fetch the SimResult

The global flags name a run's options (``--ops``, ``--warmup``,
``--llc-policy``, and for a ``trace:<hash>`` workload ``--trace-limit``,
``--no-loop`` and ``--trace-seed``); every verb that simulates resolves
them through :func:`repro.sim.runner.resolve_run`, as the service does a
submitted job's, so one spelling of a run is one cache key everywhere.

Results are cached on disk (content-addressed, ``~/.cache/repro-ptmc``
or ``$REPRO_CACHE_DIR``), so repeat invocations are near-instant; pass
``--no-disk-cache`` to opt out or ``repro cache clear`` to start fresh.
The service shares that store: a submitted job whose identity is
already cached completes instantly.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

from repro.analysis import banner, format_metrics, format_table
from repro.energy import relative_energy
from repro.sim import runner
from repro.sim.diskcache import DiskCache, code_digest
from repro.sim.parallel import sweep_with_report
from repro.sim.results import geometric_mean, weighted_speedup
from repro.sim.runner import simulate
from repro.sim.system import DESIGNS
from repro.telemetry import StatRegistry
from repro.traces.store import TraceStoreError, configure_trace_store, trace_store
from repro.workloads import ALL_64, MEMORY_INTENSIVE, SUITE_BY_NAME

#: Suite registry shared with scripts (``repro.workloads.SUITE_BY_NAME``).
SUITES = SUITE_BY_NAME


#: Headline paths ``repro timeline`` plots when ``--metrics`` is omitted
#: (filtered to what the run actually registered, so design-specific
#: paths can be listed here safely).
DEFAULT_TIMELINE_METRICS = (
    "dram.reads",
    "dram.writes",
    "llc.hits",
    "llc.misses",
    "dram.row_hits",
)

#: Controller and policy counters ``repro run`` prints under their paths
#: (those the design registered).
RUN_METRICS = (
    "ptmc.inversions", "ptmc.invalidate_writes", "ptmc.clean_writebacks", "ptmc.lit_occupancy",
    "policy.benefits", "policy.costs", "policy.compression_enabled",
)


#: The verbs that simulate: ``main`` resolves their target's runs first.
SIMULATING = ("run", "stats", "timeline", "sweep")


def _run_options(args) -> dict:
    """The run options the global flags name (``runner.RUN_OPTIONS``).

    A trace flag left unset names no option, so a roster workload run
    without one is valid.
    """
    options = {
        "ops_per_core": args.ops,
        "warmup_ops": args.warmup,
        "llc_policy": args.llc_policy,
        "trace_limit": args.trace_limit,
        "trace_loop": False if args.no_loop else None,
        "trace_seed": args.trace_seed,
    }
    return {name: value for name, value in options.items() if value is not None}


def _resolve(args) -> None:
    """Set ``args.workloads`` and ``args.config``: the runs a verb names.

    A sweep's target may be a suite, any other target is one workload;
    each resolves with the global run flags through
    :func:`~repro.sim.runner.resolve_run`.
    """
    targets = [args.workload]
    if args.command == "sweep":
        targets = SUITES.get(args.workload, targets)
    runs = [runner.resolve_run(target, _run_options(args)) for target in targets]
    args.workloads = [workload for workload, _ in runs]
    args.config = runs[0][1]


def cmd_list(args) -> int:
    print(banner("Designs"))
    for design in DESIGNS:
        print(f"  {design}")
    print(banner("Workloads"))
    rows = []
    for w in MEMORY_INTENSIVE:
        if hasattr(w, "footprint_lines"):
            rows.append([w.name, w.suite, w.footprint_lines, f"{w.write_frac:.2f}"])
        else:  # MIX workloads compose several specs
            members = ", ".join(sorted({s.name for s in w.specs}))
            rows.append([w.name, w.suite, "-", members])
    print(format_table(["name", "suite", "footprint (lines)", "write frac / members"], rows))
    print(f"\n(+ {len(ALL_64) - len(MEMORY_INTENSIVE)} low-MPKI fillers in 'all64')")
    return 0


def cmd_policies(args) -> int:
    from repro.cache.replacement import DEFAULT_POLICY, POLICIES

    print(banner("LLC replacement policies"))
    rows = [
        [name, cls.__name__, cls.description + (" *" if name == DEFAULT_POLICY else "")]
        for name, cls in sorted(POLICIES.items())
    ]
    print(format_table(["name", "class", "description"], rows))
    print(
        "\n(* default)  These are the shared L3's choices; the private L1s "
        "and L2s run lru.  Select one with --llc-policy on run/stats/timeline/"
        "sweep/submit; pytest benchmarks/test_abl_policy_search.py ranks them all."
    )
    return 0


def cmd_run(args) -> int:
    workload, config = args.workloads[0], args.config
    result = simulate(workload, args.design, config)
    base = simulate(workload, "uncompressed", config)
    rel = relative_energy(result, base)
    print(banner(f"{args.workload} on {args.design}"))
    rows = [
        ["weighted speedup", f"{weighted_speedup(result, base):.3f}"],
        ["cycles (max core)", result.elapsed_cycles],
        ["DRAM accesses", result.total_dram_accesses],
        ["L3 hit rate", f"{result.l3_hit_rate:.1%}"],
        ["energy (norm.)", f"{rel.energy:.3f}"],
        ["EDP (norm.)", f"{rel.edp:.3f}"],
    ]
    if result.llp_accuracy is not None:
        rows.append(["LLP accuracy", f"{result.llp_accuracy:.1%}"])
    if result.metadata_hit_rate is not None:
        rows.append(["metadata-cache hit", f"{result.metadata_hit_rate:.1%}"])
    counters = [(path, result.metrics[path]) for path in RUN_METRICS if path in result.metrics]
    for key, value in counters + sorted(result.extras.items()):
        rows.append([key, f"{value:.0f}" if value >= 1 else f"{value:.3f}"])
    print(format_table(["metric", "value"], rows))
    print("\nDRAM traffic by category:")
    for category, count in sorted(
        result.bandwidth_by_category().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {category.value:<20} {count}")
    return 0


def _runner_metrics() -> dict:
    """Process-wide runner counters as ``runner.*`` telemetry paths."""
    registry = StatRegistry()
    runner.register_stats(registry.scope("runner"))
    return registry.delta()


def cmd_stats(args) -> int:
    result = simulate(args.workloads[0], args.design, args.config)
    runner_metrics = _runner_metrics()
    merged = {**result.metrics, **runner_metrics}
    if args.metrics:
        wanted = [m.strip() for m in args.metrics.split(",") if m.strip()]
        missing = sorted(set(wanted) - set(merged))
        if missing:
            print(
                f"metrics not present in this result: {', '.join(missing)}\n"
                f"('repro stats {args.workload} {args.design} --json' lists "
                "every available path)"
            )
            return 2
        merged = {m: merged[m] for m in wanted}
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
        return 0
    if args.metrics:
        print(banner(f"Telemetry: {args.workload} on {args.design}"))
        print(format_metrics(merged))
        return 0
    print(banner(f"Telemetry: {args.workload} on {args.design}"))
    print(format_metrics(result.metrics))
    print(banner("Runner (this process)"))
    print(format_metrics(runner_metrics))
    return 0


def cmd_sweep(args) -> int:
    designs = [d.strip() for d in args.designs.split(",") if d.strip()]
    unknown = sorted(set(designs) - set(DESIGNS))
    if unknown:
        print(f"unknown designs: {', '.join(unknown)}; choose from {DESIGNS}")
        return 2
    matrix, report = sweep_with_report(args.workloads, designs, args.config, jobs=args.jobs)
    print(banner(f"Sweep over '{args.workload}' (speedup vs uncompressed)"))
    print(
        format_table(
            ["workload", *designs],
            [
                [name, *(f"{row[d]:.3f}" for d in designs)]
                for name, row in matrix.items()
            ],
        )
    )
    geomeans = [
        f"{geometric_mean(row[d] for row in matrix.values()):.3f}" for d in designs
    ]
    print(format_table(["", *designs], [["geomean", *geomeans]]))
    trace_metrics = next(
        (r.metrics for r in report.results if "trace.replayed_records" in r.metrics), None
    )
    if trace_metrics is not None:
        print(
            f"\nreplayed {int(trace_metrics['trace.replayed_records'])} records "
            f"({int(trace_metrics['trace.synthesized_fills'])} synthesized fills, "
            f"{int(trace_metrics['trace.loops'])} loops) in the measured window"
        )
    counts = report.counts()
    print(
        f"\n{counts['jobs']} runs with --jobs {report.jobs_used}: "
        f"{counts['executed']} executed, {counts['disk_hits']} from disk "
        f"({report.wall_seconds:.2f}s wall)"
    )
    if report.seconds:
        print(
            f"per-run wall time: min {min(report.seconds):.3f}s / "
            f"mean {sum(report.seconds) / len(report.seconds):.3f}s / "
            f"max {max(report.seconds):.3f}s"
        )
    if args.dump_metrics:
        payload = json.dumps(report.metrics_matrix(), indent=2, sort_keys=True)
        if args.dump_metrics == "-":
            print(payload)
        else:
            with open(args.dump_metrics, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            print(
                f"wrote metrics for {len(report.results)} runs "
                f"to {args.dump_metrics}"
            )
    return 0


def cmd_timeline(args) -> int:
    from repro.analysis.timeline import format_timeline

    result = simulate(
        args.workloads[0], args.design, args.config, sample_interval=args.interval
    )
    timeseries = result.timeseries
    if timeseries is None or not len(timeseries):
        print("no samples collected")
        return 1
    if args.json:
        print(json.dumps(timeseries.to_json_dict(), indent=2, sort_keys=True))
        return 0
    available = sorted(timeseries.paths())
    if args.metrics:
        paths = [m.strip() for m in args.metrics.split(",") if m.strip()]
        missing = sorted(set(paths) - set(available))
        if missing:
            print(
                f"series not present in this result: {', '.join(missing)}\n"
                f"(available: {', '.join(available)})"
            )
            return 2
    else:
        paths = [p for p in DEFAULT_TIMELINE_METRICS if p in set(available)]
    if not paths:
        print(
            "none of the default timeline metrics are present in this "
            "result's time series; pass --metrics with one of: "
            + ", ".join(available)
        )
        return 2
    print(banner(f"Timeline: {args.workload} on {args.design}"))
    try:
        print(format_timeline(timeseries, paths, show_warmup=not args.no_warmup))
    except (KeyError, ValueError) as exc:
        print(f"cannot render timeline: {exc}; see 'repro stats {args.workload} "
              f"{args.design} --json' for the full path list")
        return 2
    return 0


def cmd_cache(args) -> int:
    cache = runner.disk_cache() or DiskCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    if args.action == "prune":
        if args.older_than is None:
            print("cache prune requires --older-than <days>")
            return 2
        removed = cache.prune(args.older_than * 86400.0)
        print(
            f"pruned {removed} cached results older than {args.older_than:g} "
            f"days from {cache.root}"
        )
        return 0
    stats = cache.stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True, default=str))
        return 0
    print(banner("Simulation result cache"))
    print(format_table(["key", "value"], [[k, str(v)] for k, v in stats.items()]))
    return 0


# -- trace verbs -----------------------------------------------------------


def _trace_info_rows(info: dict) -> list:
    """Sidecar dict -> [key, value] table rows (reuse histogram last)."""
    rows = [
        ["hash", info["hash"]],
        ["name", info["name"] or "-"],
        ["records", str(info["records"])],
        ["reads / writes", f"{info['reads']} / {info['writes']}"],
        ["write fraction", f"{info['write_frac']:.3f}"],
        ["unique lines", str(info["unique_lines"])],
        ["footprint", f"{info['footprint_bytes'] / 1024:.1f} KiB"],
        ["parse errors", str(info["parse_errors"])],
    ]
    reuse = info.get("reuse_distance") or {}
    if reuse:
        ordered = sorted(
            reuse.items(), key=lambda kv: (kv[0] == "cold", int(kv[0]) if kv[0] != "cold" else 0)
        )
        rows.append(
            ["reuse distance", "  ".join(f"{k}:{v}" for k, v in ordered)]
        )
    return rows


def cmd_trace_ingest(args) -> int:
    from repro.traces.formats import TraceParseError

    mode = "lenient" if args.lenient else "strict"
    if args.url:
        from pathlib import Path

        client = _client(args)
        data = Path(args.path).read_bytes()
        trace = client.upload_trace(
            data, name=args.name or Path(args.path).name, fmt=args.format, mode=mode
        )
        created, digest, records = trace["created"], trace["hash"], trace["records"]
        errors = trace["parse_errors"]
    else:
        store = trace_store()
        try:
            info, created = store.ingest_path(
                args.path, name=args.name or "", fmt=args.format, mode=mode
            )
        except FileNotFoundError:
            print(f"no such trace file: {args.path}")
            return 2
        except (TraceParseError, TraceStoreError) as exc:
            print(f"ingest failed: {exc}")
            return 2
        digest, records, errors = info.hash, info.records, info.parse_errors
    verb = "ingested" if created else "already stored (deduplicated)"
    print(f"{verb}: trace:{digest[:12]} ({records} records"
          + (f", {errors} lines skipped" if errors else "") + ")")
    print(f"full hash: {digest}")
    print(f"run it with: repro sweep trace:{digest[:12]}")
    return 0


def cmd_trace_list(args) -> int:
    if args.url:
        infos = _client(args).traces()
    else:
        infos = [info.to_json_dict() for info in trace_store().list()]
    if args.json:
        print(json.dumps(infos, indent=2, sort_keys=True))
        return 0
    if not infos:
        print("no traces stored; add one with 'repro trace ingest <file>'")
        return 0
    rows = [
        [
            info["hash"][:12],
            info["name"] or "-",
            str(info["records"]),
            f"{info['write_frac']:.2f}",
            str(info["unique_lines"]),
            f"{info['footprint_bytes'] / 1024:.0f} KiB",
        ]
        for info in infos
    ]
    print(format_table(
        ["hash", "name", "records", "write frac", "unique lines", "footprint"], rows
    ))
    return 0


def cmd_trace_info(args) -> int:
    if args.url:
        from repro.service.client import ServiceError

        try:
            info = _client(args).trace_info(args.trace_hash)
        except ServiceError as exc:
            print(f"trace error: {exc}")
            return 2
    else:
        try:
            info = trace_store().info(args.trace_hash).to_json_dict()
        except TraceStoreError as exc:
            print(f"trace error: {exc}")
            return 2
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(banner(f"Trace {info['hash'][:12]}"))
    print(format_table(["key", "value"], _trace_info_rows(info)))
    return 0


def cmd_trace(args) -> int:
    handlers = {
        "ingest": cmd_trace_ingest,
        "list": cmd_trace_list,
        "info": cmd_trace_info,
    }
    return handlers[args.trace_command](args)


# -- service verbs ---------------------------------------------------------


def _client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url, token=getattr(args, "token", None))


def _job_row(job: dict) -> list:
    age = max(0.0, time.time() - job["created_at"])
    return [
        job["id"][:12],
        job["workload"],
        job["design"],
        job["state"],
        str(job["priority"]),
        f"{job['attempts']}/{job['max_attempts']}",
        f"{age:.0f}s",
        job.get("source") or "-",
    ]


_JOB_COLUMNS = ["id", "workload", "design", "state", "prio", "attempts", "age", "source"]


def cmd_serve(args) -> int:
    from repro.service.daemon import ServiceDaemon

    if args.no_disk_cache:
        print("repro serve needs the disk cache (it is the result store); "
              "drop --no-disk-cache")
        return 2
    try:
        daemon = ServiceDaemon(
            db_path=args.db,
            cache_dir=args.cache_dir,
            trace_dir=args.trace_dir,
            host=args.host,
            port=args.port,
            workers=args.workers,
            default_timeout=args.job_timeout,
            max_attempts=args.max_attempts,
            drain_seconds=args.drain_seconds,
            log_stream=None if args.quiet else sys.stderr,
            token=args.token,
            lease_seconds=args.lease_seconds,
            reaper_interval=args.reaper_interval,
            max_queued=args.max_queued,
            rate_limit=args.rate_limit,
        )
    except ValueError as exc:  # a bad --job-timeout, --max-attempts or --lease-seconds
        print(f"cannot serve: {exc}")
        return 2

    def _stop(signum, frame):
        daemon.request_stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    workers = "remote-only" if args.remote_only else args.workers
    print(
        f"repro service listening on {daemon.url} "
        f"(db={daemon.store.path}, cache={daemon.cache.root}, "
        f"workers={workers})",
        flush=True,
    )
    if args.remote_only:
        # Queue + reaper + HTTP only: execution belongs to remote
        # ``repro worker`` processes claiming over the API.
        daemon.start(run_scheduler=False)
        while not daemon.worker.stopping:
            time.sleep(0.2)
        daemon.stop()
    else:
        daemon.run()
    print("repro service drained cleanly", flush=True)
    return 0


def cmd_worker(args) -> int:
    from repro.obs.logging import StructuredLog
    from repro.service.client import ServiceClient
    from repro.service.daemon import Claim
    from repro.service.worker import HttpSource, Worker
    from repro.util.schema import check_field

    if args.no_disk_cache:
        print("repro worker needs the disk cache (results are written "
              "through it before upload); drop --no-disk-cache")
        return 2
    try:  # the daemon takes no lease that never lapses
        check_field(Claim, "lease_seconds", args.lease_seconds)
    except ValueError as exc:
        print(f"cannot start worker: {exc}")
        return 2
    # the digest of the code imported now, before any job (pool processes
    # inherit it): claims and uploads must name the code that runs them
    code_digest()
    log = StructuredLog(stream=None if args.quiet else sys.stderr)
    source = HttpSource(ServiceClient(args.url, token=args.token), log=log)
    worker = Worker(
        source,
        worker_id=args.worker_id,
        concurrency=args.workers,
        lease_seconds=args.lease_seconds,
        poll_interval=args.poll,
        drain_seconds=args.drain_seconds,
        max_jobs=args.max_jobs,
        log=log,
    )

    def _stop(signum, frame):
        worker.request_stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    print(
        f"repro worker {worker.worker_id} draining {source.client.url} "
        f"(concurrency={worker.concurrency}, lease={worker.lease_seconds:g}s)",
        flush=True,
    )
    stats = worker.run()
    print(
        f"repro worker exiting: {stats.completed} completed, "
        f"{stats.failed} failed, {stats.lease_lost} leases lost",
        flush=True,
    )
    return 0 if stats.upload_errors == 0 else 1


def cmd_submit(args) -> int:
    client = _client(args)
    job = client.submit(
        args.workload,
        args.design,
        priority=args.priority,
        max_attempts=args.max_attempts,
        timeout=args.job_timeout,
        **_run_options(args),
    )
    verb = "submitted" if job["created"] else "joined"
    print(f"{verb} job {job['id']} ({job['workload']} on {job['design']}): "
          f"{job['state']}" + (f" [{job['source']}]" if job.get("source") else ""))
    if args.wait:
        return _wait_and_report(client, job["id"], args.timeout, args.poll)
    return 0


def cmd_jobs(args) -> int:
    jobs = _client(args).jobs(state=args.state, limit=args.limit)
    if not jobs:
        print("no jobs")
        return 0
    print(format_table(_JOB_COLUMNS, [_job_row(job) for job in jobs]))
    return 0


def _wait_and_report(client, job_id: str, timeout, poll) -> int:
    from repro.service.client import JobFailed, ServiceError

    try:
        job = client.wait(job_id, timeout=timeout, poll=poll)
    except JobFailed as exc:
        print(f"job {exc.job['id']} ended {exc.job['state']}: {exc.job.get('error')}")
        return 1
    except ServiceError as exc:
        print(str(exc))
        return 1
    result = client.result(job["id"])
    print(f"job {job['id']} done [{job.get('source')}]")
    rows = [
        ["cycles (max core)", result.elapsed_cycles],
        ["DRAM accesses", result.total_dram_accesses],
        ["L3 hit rate", f"{result.l3_hit_rate:.1%}"],
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def cmd_wait(args) -> int:
    return _wait_and_report(_client(args), args.job_id, args.timeout, args.poll)


def cmd_result(args) -> int:
    client = _client(args)
    result = client.result(args.job_id)
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2, sort_keys=True))
        return 0
    print(banner(f"{result.workload} on {result.design}"))
    print(format_metrics(result.metrics))
    return 0


def cmd_cancel(args) -> int:
    job = _client(args).cancel(args.job_id)
    print(f"cancelled job {job['id']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PTMC (HPCA 2019) reproduction — simulation driver",
    )
    from repro.cache.replacement import DEFAULT_POLICY, POLICIES

    parser.add_argument("--ops", type=int, default=4000, help="measured ops per core")
    parser.add_argument("--warmup", type=int, default=6000, help="warmup ops per core")
    parser.add_argument(
        "--llc-policy",
        choices=sorted(POLICIES),
        default=DEFAULT_POLICY,
        help="the shared L3's replacement policy (default: %(default)s; "
        "the private L1s and L2s run lru; see 'repro policies')",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk result cache location (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-ptmc/sim)",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="do not read or write the persistent result cache",
    )
    parser.add_argument(
        "--trace-dir",
        default=None,
        help="trace store location (default: $REPRO_TRACE_DIR or "
        "~/.cache/repro-ptmc/traces)",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON of this invocation to PATH "
        "(open in https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-limit",
        type=int,
        default=None,
        metavar="N",
        help="trace:<hash> workloads: replay only the first N records (default: all)",
    )
    parser.add_argument(
        "--no-loop",
        action="store_true",
        help="trace:<hash> workloads: stop when the trace ends instead of "
        "looping to fill the run",
    )
    parser.add_argument(
        "--trace-seed",
        type=int,
        default=None,
        metavar="N",
        help="trace:<hash> workloads: seed for synthesized write data and "
        "inter-access gaps (default: 0)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and designs")

    sub.add_parser("policies", help="list LLC replacement policies")

    run = sub.add_parser("run", help="simulate one (workload, design) pair")
    run.add_argument("workload")
    run.add_argument("design", choices=DESIGNS)

    stats = sub.add_parser(
        "stats", help="full telemetry-registry dump for one simulation"
    )
    stats.add_argument("workload")
    stats.add_argument("design", choices=DESIGNS)
    stats.add_argument(
        "--json", action="store_true", help="emit the metrics mapping as JSON"
    )
    stats.add_argument(
        "--metrics",
        default=None,
        help="comma-separated registry paths to show (default: everything)",
    )

    sweep = sub.add_parser(
        "sweep",
        help="speedup matrix over a suite, a workload or a trace (parallel with --jobs)",
    )
    sweep.add_argument(
        "workload",
        metavar="target",
        help=f"a suite ({', '.join(sorted(SUITES))}), a roster workload or trace:<hash>",
    )
    sweep.add_argument(
        "--designs",
        default="static_ptmc,dynamic_ptmc,ideal",
        help="comma-separated design list (default: %(default)s)",
    )
    sweep.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="worker processes (default: serial in-process)",
    )
    sweep.add_argument(
        "--dump-metrics",
        metavar="PATH",
        default=None,
        help="write per-run telemetry as JSON to PATH ('-' for stdout)",
    )

    timeline = sub.add_parser(
        "timeline", help="phase-resolved telemetry sparklines for one run"
    )
    timeline.add_argument("workload")
    timeline.add_argument("design", choices=DESIGNS)
    timeline.add_argument(
        "--interval",
        type=int,
        default=2000,
        metavar="N",
        help="line-accesses per sample (default: %(default)s)",
    )
    timeline.add_argument(
        "--metrics",
        default=None,
        help="comma-separated registry paths to plot (default: headline "
        "dram/llc counters present in the run)",
    )
    timeline.add_argument(
        "--no-warmup", action="store_true", help="hide the warmup-phase samples"
    )
    timeline.add_argument(
        "--json", action="store_true", help="emit the raw time series as JSON"
    )

    cache = sub.add_parser("cache", help="inspect, clear, or prune the result cache")
    cache.add_argument("action", choices=["stats", "clear", "prune"])
    cache.add_argument(
        "--older-than",
        type=float,
        metavar="DAYS",
        default=None,
        help="prune: delete entries last written more than DAYS days ago",
    )
    cache.add_argument(
        "--json", action="store_true", help="stats: emit the summary as JSON"
    )

    trace = sub.add_parser(
        "trace", help="ingest and inspect memory-access traces (sweep trace:<hash> replays one)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    trace_ingest = trace_sub.add_parser(
        "ingest", help="parse and store a trace file (content-addressed)"
    )
    trace_ingest.add_argument("path", help="trace file (text, binary, or gzip)")
    trace_ingest.add_argument(
        "--name", default=None, help="display name (default: the file name locally)"
    )
    trace_ingest.add_argument(
        "--format",
        choices=["auto", "text", "binary"],
        default="auto",
        help="input format (default: sniffed)",
    )
    trace_ingest.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed lines (counted) instead of failing on the first",
    )
    trace_ingest.add_argument(
        "--url",
        default=None,
        help="upload to a running daemon (POST /traces) instead of the "
        "local store",
    )

    trace_list = trace_sub.add_parser("list", help="list stored traces")
    trace_list.add_argument("--json", action="store_true")
    trace_list.add_argument(
        "--url", default=None, help="list a running daemon's traces instead"
    )

    trace_info = trace_sub.add_parser(
        "info", help="one trace's characterization (hash prefix ok)"
    )
    trace_info.add_argument("trace_hash", help="content hash or unique prefix")
    trace_info.add_argument("--json", action="store_true")
    trace_info.add_argument(
        "--url", default=None, help="ask a running daemon instead"
    )

    from repro.service.client import default_url
    from repro.service.jobstore import default_db_path

    def _service_args(p, waitable: bool = False) -> None:
        p.add_argument(
            "--url",
            default=None,
            help=f"service address (default: $REPRO_SERVICE_URL or {default_url()})",
        )
        p.add_argument(
            "--token",
            default=None,
            help="bearer token for an auth-enabled daemon "
            "(default: $REPRO_SERVICE_TOKEN)",
        )
        if waitable:
            p.add_argument(
                "--timeout",
                type=float,
                default=None,
                help="give up waiting after this many seconds",
            )
            p.add_argument(
                "--poll",
                type=float,
                default=0.2,
                help="poll interval while waiting (seconds)",
            )

    serve = sub.add_parser("serve", help="run the job-queue service daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8035, help="listen port (0 picks a free one)"
    )
    serve.add_argument(
        "--db",
        default=None,
        help=f"job database (default: $REPRO_SERVICE_DB or {default_db_path()})",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="simulation worker processes"
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="per-job deadline in seconds (default: none)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="default bounded retries per job",
    )
    serve.add_argument(
        "--drain-seconds",
        type=float,
        default=30.0,
        help="grace period for in-flight jobs on SIGTERM/SIGINT",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured JSON event log (stderr by default)",
    )
    serve.add_argument(
        "--token",
        default=None,
        help="bearer token required on mutating requests "
        "(default: $REPRO_SERVICE_TOKEN; unset = open)",
    )
    serve.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="work-lease duration for claimed jobs; a worker that stops "
        "heartbeating loses its jobs after this long",
    )
    serve.add_argument(
        "--reaper-interval",
        type=float,
        default=1.0,
        help="how often the daemon scans for expired leases (seconds)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=10_000,
        help="reject new submissions (429) beyond this queue depth "
        "(0 = unbounded)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client requests/second ceiling (token bucket; 0 = off)",
    )
    serve.add_argument(
        "--remote-only",
        action="store_true",
        help="run no local workers: queue, reaper, and HTTP only "
        "(execution is left to 'repro worker' processes)",
    )

    worker = sub.add_parser(
        "worker", help="drain a remote daemon's queue on this machine"
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identity for leases/telemetry (default: hostname:pid)",
    )
    worker.add_argument(
        "--workers", type=int, default=2, help="simulation worker processes"
    )
    worker.add_argument(
        "--lease-seconds",
        type=float,
        default=15.0,
        help="lease duration requested per claim (renewed at half-lease)",
    )
    worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="idle poll interval when the queue is empty (seconds)",
    )
    worker.add_argument(
        "--drain-seconds",
        type=float,
        default=30.0,
        help="grace period for in-flight jobs on SIGTERM/SIGINT",
    )
    worker.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after finishing this many jobs (default: run forever)",
    )
    worker.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the structured JSON event log (stderr by default)",
    )
    _service_args(worker)

    submit = sub.add_parser("submit", help="enqueue one job on the service")
    submit.add_argument("workload")
    submit.add_argument("design", choices=DESIGNS)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--max-attempts", type=int, default=None)
    submit.add_argument(
        "--job-timeout", type=float, default=None, help="per-job deadline (seconds)"
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the job finishes"
    )
    _service_args(submit, waitable=True)

    jobs = sub.add_parser("jobs", help="list service jobs")
    jobs.add_argument(
        "--state",
        choices=["queued", "running", "done", "failed", "cancelled"],
        default=None,
    )
    jobs.add_argument("--limit", type=int, default=50)
    _service_args(jobs)

    wait = sub.add_parser("wait", help="block until a job finishes")
    wait.add_argument("job_id")
    _service_args(wait, waitable=True)

    result = sub.add_parser("result", help="fetch a finished job's result")
    result.add_argument("job_id")
    result.add_argument("--json", action="store_true")
    _service_args(result)

    cancel = sub.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job_id")
    _service_args(cancel)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not args.no_disk_cache:
        runner.configure_disk_cache(args.cache_dir)
    if args.trace_dir is not None:
        configure_trace_store(args.trace_dir)
    if args.command in SIMULATING:
        try:
            _resolve(args)
        except (KeyError, ValueError, TraceStoreError) as exc:
            message = exc.args[0] if isinstance(exc, KeyError) else exc
            print(f"cannot run {args.workload}: {message}")
            return 2
    tracer = None
    if args.trace_out:
        from repro.obs.tracing import Tracer, set_tracer

        tracer = set_tracer(Tracer(process_name=f"repro-{args.command}"))
    handlers = {
        "list": cmd_list,
        "policies": cmd_policies,
        "run": cmd_run,
        "stats": cmd_stats,
        "sweep": cmd_sweep,
        "timeline": cmd_timeline,
        "cache": cmd_cache,
        "trace": cmd_trace,
        "serve": cmd_serve,
        "worker": cmd_worker,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "wait": cmd_wait,
        "result": cmd_result,
        "cancel": cmd_cancel,
    }
    try:
        if args.command in ("submit", "jobs", "wait", "result", "cancel", "trace"):
            from repro.service.client import ServiceError

            try:
                return handlers[args.command](args)
            except ServiceError as exc:
                print(f"service error: {exc}")
                return 1
        return handlers[args.command](args)
    finally:
        if tracer is not None:
            from repro.obs.tracing import set_tracer

            events = tracer.write(args.trace_out)
            set_tracer(None)
            print(
                f"wrote {events} trace events (trace_id {tracer.trace_id}) to "
                f"{args.trace_out}; open in https://ui.perfetto.dev"
            )


if __name__ == "__main__":
    sys.exit(main())

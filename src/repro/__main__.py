"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the registered benchmark apps and their known bugs;
* ``run APP BUG`` — execute one app with the bug's breakpoints and print
  the outcome (``--seed``, ``--timeout``, ``--trials``, ``--no-bp``);
* ``table1`` / ``table2`` / ``section5`` / ``section62`` / ``section63``
  — regenerate a table of the paper's evaluation (``--trials``);
* ``explore APP [BUG]`` — systematically enumerate the app's schedule
  space and report in what fraction of it the bug manifests
  (``--dpor``, ``--sleep-sets``, ``--workers``, ``--max-schedules``);
* ``metrics APP`` — run one app (or a trial sweep) under the
  observability subsystem and print the metrics registry as JSON;
* ``export-trace APP`` — record one run and export its trace as Chrome
  trace-event JSON (Perfetto-loadable) or replayable JSONL
  (``--seed``, ``--bug``, ``--format chrome|jsonl``, ``--out``);
* ``serve`` — run the reproduction daemon (``repro.svc``): accept trial
  and exploration jobs over local HTTP/JSON, with a bounded queue,
  ``/health`` + ``/metrics`` endpoints, and graceful SIGTERM drain
  (``--port``, ``--slots``, ``--queue-size``, ``--job-timeout``,
  ``--port-file``);
* ``route`` — run the fleet router: consistent-hash jobs across many
  daemons with shard failover and per-tenant shedding
  (``--peers``, ``--replicas``, ``--probe-interval``, ``--eject-after``,
  ``--tenant-inflight-limit``), or administer a running router's ring
  (``--admin status|add|remove --peer URL --server URL``);
* ``submit APP [BUG]`` — submit one job to a running daemon and print
  the result exactly like the corresponding local command
  (``--server``, ``--kind trials|explore|infer``, ``--trials``,
  ``--seed``, ``--tenant``);
* ``analyze APP`` — run every detector over one traced execution and
  print (or ``--json``-dump) the merged findings;
* ``infer APP`` — the push-button pipeline: trace one run, generate
  breakpoint candidates from the detector reports, confirm them through
  trial sweeps and print the ranked reproduction report
  (``--seed``, ``--trials``, ``--timeout``, ``--json``, ``--out``);
* ``cache stats|clear`` — inspect or empty the content-addressed result
  cache (``--cache-dir``).

Multi-trial and exploration commands accept ``--cache-dir DIR`` (or the
``REPRO_CACHE_DIR`` environment variable) to memoize results in a
content-addressed on-disk cache — cached answers are bit-identical to
fresh ones — and ``--no-cache`` to bypass it; ``serve`` shares one cache
across all jobs and surfaces ``cache.hit``/``cache.miss`` on
``/metrics``.

Multi-trial commands accept ``--workers N`` (0 = serial, the default;
``-1`` = one worker per CPU) to fan the seeded trials over a process
pool, and ``--trial-timeout SECONDS`` to bound each trial's wall-clock
time; results are identical to serial runs for the same seeds.
``submit --workers`` names the daemon's worker processes for the job
and must be 0 or more (the client cannot know the daemon's CPU count).
``run``/``report`` accept ``--metrics-out FILE`` to dump the merged
metrics registry of everything they executed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.apps import ALL_APPS, AppConfig, get_app
from repro.harness import (
    build_section5,
    build_section62,
    build_section63,
    build_table1,
    build_table2,
    render,
    run_trials,
)


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(ALL_APPS):
        cls = ALL_APPS[name]
        print(f"{name}  (original: {cls.paper_loc} LoC)")
        for bug_id, spec in cls.bugs.items():
            err = spec.error or "(silent)"
            note = f"  [{spec.comments}]" if spec.comments else ""
            print(f"    {bug_id:16s} {spec.kind:14s} {err}{note}")
    return 0


def _trial_count(text: str) -> int:
    """argparse type of every ``--trials`` flag: an integer of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"trials must be positive, got {n}")
    return n


def _workers_arg(args: argparse.Namespace):
    """Map a ``--workers`` flag to the library's ``workers``: 0 → serial
    (None), negative → auto-size to the machine."""
    w = getattr(args, "workers", 0)
    if w == 0:
        return None
    return "auto" if w < 0 else w


def _cache_from_args(args: argparse.Namespace):
    """Build the :class:`repro.cache.ResultCache` the flags select.

    ``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
    turns caching on; ``--no-cache`` wins over both.  Returns None when
    caching is off.
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if not cache_dir:
        return None
    from repro.cache import ResultCache

    return ResultCache(cache_dir)


def _write_metrics(path: str, snapshot) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote metrics to {path}")


def _print_trials(label: str, stats) -> None:
    """Print a trial sweep's :class:`~repro.harness.TrialStats` (``run``, ``submit``)."""
    print(
        f"{label}: reproduced {stats.bug_hits}/{stats.trials} "
        f"(bp hit rate {stats.bp_hit_rate:.2f}, mean runtime {stats.mean_runtime:.4f}s"
        + (f", MTTE {stats.mtte:.3f}s)" if stats.mtte is not None else ")")
    )
    for f in stats.failures:
        print(f"  seed {f.seed}: {f.kind} after {f.attempts} attempt(s) {f.message}")


def _cmd_run(args: argparse.Namespace) -> int:
    cls = get_app(args.app)
    bug = None if args.no_bp else args.bug
    if args.bug not in cls.bugs:
        print(f"error: {args.app} has no bug {args.bug!r}; known: {list(cls.bugs)}")
        return 2
    metrics_out = getattr(args, "metrics_out", None)
    if args.trials > 1:
        stats = run_trials(
            cls, n=args.trials, bug=bug, timeout=args.timeout, base_seed=args.seed,
            workers=_workers_arg(args), trial_timeout=args.trial_timeout,
            collect_metrics=metrics_out is not None,
            cache=_cache_from_args(args),
        )
        _print_trials(f"{args.app}/{args.bug}", stats)
        if metrics_out is not None:
            _write_metrics(metrics_out, stats.metrics)
        return 0
    registry = None
    if metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    app = cls(AppConfig(bug=bug, timeout=args.timeout))
    run = app.run(seed=args.seed, record_trace=args.timeline, obs=registry)
    print(f"{args.app}/{args.bug} seed={args.seed}:")
    print(f"  bug reproduced : {run.bug_hit}")
    print(f"  error symptom  : {run.error}")
    print(f"  breakpoint hit : {run.bp_hit()}")
    print(f"  virtual runtime: {run.runtime:.4f}s  ({run.result.steps} steps)")
    print(f"  result         : {run.result.summary()}")
    if args.timeline:
        from repro.sim.timeline import around_breakpoints, render_timeline

        window = around_breakpoints(run.result.trace, context=4)
        print("\nTimeline around the breakpoints:")
        print(render_timeline(window if window else run.result.trace, limit=40))
    if registry is not None:
        _write_metrics(metrics_out, registry.snapshot())
    return 0


_TABLES = {
    "table1": (build_table1, "Table 1 — Java programs"),
    "table2": (build_table2, "Table 2 — C/C++ programs"),
    "section5": (build_section5, "Section 5 — log4j conflict orders"),
    "section62": (build_section62, "Section 6.2 — pause time"),
    "section63": (build_section63, "Section 6.3 — precision refinements"),
}


def _cmd_table(args: argparse.Namespace) -> int:
    builder, title = _TABLES[args.command]
    rows = builder(n=args.trials, workers=_workers_arg(args),
                   cache=_cache_from_args(args))
    print(title + f" ({args.trials} trials)")
    print(render(rows))
    return 0


def main(argv=None) -> int:
    """Parse ``argv`` and dispatch to the selected subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Concurrent Breakpoints reproduction (Park & Sen, PPoPP 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark apps and bugs")

    def _add_parallel_flags(
        p, workers_help="trial worker processes (0 = serial, -1 = one per CPU)"
    ):
        p.add_argument(
            "--workers", type=int, default=0, metavar="N", help=workers_help,
        )
        p.add_argument(
            "--trial-timeout", type=float, default=None, metavar="SECONDS",
            help="per-trial wall-clock budget (requires --workers)",
        )

    def _add_cache_flags(p):
        p.add_argument(
            "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
            metavar="DIR",
            help="content-addressed result cache directory "
                 "(default: $REPRO_CACHE_DIR; unset = caching off)",
        )
        p.add_argument(
            "--no-cache", action="store_true",
            help="bypass the result cache even when --cache-dir is set",
        )

    run_p = sub.add_parser("run", help="run one app/bug")
    run_p.add_argument("app")
    run_p.add_argument("bug")
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    run_p.add_argument("--trials", type=_trial_count, default=1)
    run_p.add_argument("--no-bp", action="store_true", help="run without breakpoints")
    run_p.add_argument("--timeline", action="store_true",
                       help="print the event timeline around the breakpoints")
    run_p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="dump the run's metrics registry as JSON")
    _add_parallel_flags(run_p)
    _add_cache_flags(run_p)

    exp_p = sub.add_parser(
        "explore",
        help="enumerate the schedule space and measure the bug's share of it",
    )
    exp_p.add_argument("app")
    exp_p.add_argument("bug", nargs="?", default=None,
                       help="activate a bug's breakpoints during every run")
    exp_p.add_argument("--dpor", action="store_true",
                       help="dynamic partial-order reduction (rejects timed programs)")
    exp_p.add_argument("--sleep-sets", action="store_true",
                       help="prune sleep-set-redundant schedules (requires --dpor)")
    exp_p.add_argument("--workers", type=int, default=0, metavar="N",
                       help="shard the DPOR tree over N worker processes "
                            "(0 = serial, -1 = one per CPU; requires --dpor)")
    exp_p.add_argument("--max-schedules", type=int, default=2000, metavar="K")
    exp_p.add_argument("--max-steps", type=int, default=None)
    exp_p.add_argument("--seed", type=int, default=0)
    exp_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    exp_p.add_argument("--shard-depth", type=int, default=2)
    exp_p.add_argument("--witnesses", type=int, default=3, metavar="K",
                       help="print up to K bug-hitting schedules")
    exp_p.add_argument("--bound-preemptions", type=int, default=None, metavar="N",
                       help="cut schedules needing more than N preemptions "
                            "(bounded systematic search)")
    exp_p.add_argument("--bound-variables", type=int, default=None, metavar="N",
                       help="cut schedules whose preemptions touch more than "
                            "N distinct synchronisation variables")
    _add_cache_flags(exp_p)

    met_p = sub.add_parser("metrics", help="run under observability and print metrics JSON")
    met_p.add_argument("app")
    met_p.add_argument("--bug", default=None,
                       help="activate a bug's breakpoints during the run")
    met_p.add_argument("--seed", type=int, default=0)
    met_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    met_p.add_argument("--trials", type=_trial_count, default=1,
                       help="sweep seeds seed..seed+N-1 and merge the registries")
    met_p.add_argument("--out", default=None, metavar="FILE",
                       help="write JSON here instead of stdout")
    _add_parallel_flags(met_p)
    _add_cache_flags(met_p)

    ex_p = sub.add_parser("export-trace",
                          help="record one run and export its trace")
    ex_p.add_argument("app")
    ex_p.add_argument("--bug", default=None,
                      help="activate a bug's breakpoints during the run")
    ex_p.add_argument("--seed", type=int, default=0)
    ex_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    ex_p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                      help="chrome = Perfetto-loadable trace-event JSON; "
                           "jsonl = versioned, replayable event log")
    ex_p.add_argument("--out", default=None, metavar="FILE",
                      help="write the export here instead of stdout")

    srv_p = sub.add_parser("serve", help="run the reproduction-as-a-service daemon")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8642,
                       help="TCP port (0 = ephemeral; see --port-file)")
    srv_p.add_argument("--slots", type=int, default=2, metavar="N",
                       help="concurrent job executor slots")
    srv_p.add_argument("--queue-size", type=int, default=16, metavar="N",
                       help="bounded queue capacity (full = 503 + Retry-After)")
    srv_p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                       help="default per-job wall-clock budget")
    srv_p.add_argument("--max-job-retries", type=int, default=1, metavar="N",
                       help="extra attempts for a job whose worker crashed")
    srv_p.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port here once listening")
    srv_p.add_argument("--peers", nargs="+", default=None, metavar="URL",
                       help="run as a fleet router over these daemons instead "
                            "of a single daemon (alias for 'repro route')")
    _add_cache_flags(srv_p)

    rt_p = sub.add_parser(
        "route",
        help="run a fleet router consistent-hashing jobs across daemons, "
             "or administer a running one (--admin)",
    )
    rt_p.add_argument("--peers", nargs="+", default=None, metavar="URL",
                      help="daemon base URLs (http://host:port), one per shard "
                           "(required unless --admin)")
    rt_p.add_argument("--host", default="127.0.0.1")
    rt_p.add_argument("--port", type=int, default=8640,
                      help="TCP port (0 = ephemeral; see --port-file)")
    rt_p.add_argument("--replicas", type=int, default=64, metavar="N",
                      help="virtual ring nodes per peer")
    rt_p.add_argument("--forwarders", type=int, default=64, metavar="N",
                      help="max concurrent shard-forwarding threads "
                           "(elastic: grown on demand)")
    rt_p.add_argument("--probe-interval", type=float, default=2.0, metavar="SECONDS",
                      help="health-probe period for ejection/re-admission "
                           "(0 disables the periodic probe)")
    rt_p.add_argument("--eject-after", type=int, default=3, metavar="N",
                      help="consecutive upstream failures before a shard is "
                           "ejected from placement")
    rt_p.add_argument("--tenant-inflight-limit", type=int, default=0, metavar="N",
                      help="shed any tenant holding N unfinished fleet jobs "
                           "with 429 (0 = off)")
    rt_p.add_argument("--port-file", default=None, metavar="FILE",
                      help="write the bound port here once listening")
    rt_p.add_argument("--admin", choices=("status", "add", "remove"), default=None,
                      help="administer a running router instead of serving: "
                           "status = print ring membership; add/remove = live "
                           "rebalancing (needs --peer)")
    rt_p.add_argument("--peer", default=None, metavar="URL",
                      help="the shard URL --admin add/remove operates on")
    rt_p.add_argument("--server", default="http://127.0.0.1:8640", metavar="URL",
                      help="running router address for --admin verbs")
    rt_p.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                      help="--admin remove: how long to wait for the departing "
                           "shard's in-flight jobs")

    sb_p = sub.add_parser("submit", help="submit one job to a running daemon")
    sb_p.add_argument("app")
    sb_p.add_argument("bug", nargs="?", default=None)
    sb_p.add_argument("--server", default="http://127.0.0.1:8642", metavar="URL",
                      help="daemon address (see 'repro serve')")
    sb_p.add_argument("--kind", choices=("trials", "explore", "infer"), default="trials")
    sb_p.add_argument("--steer-attempts", type=int, default=5, metavar="N",
                      help="infer jobs: active-testing runs per unmatched candidate")
    sb_p.add_argument("--trials", type=_trial_count, default=100)
    sb_p.add_argument("--seed", type=int, default=0)
    sb_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    sb_p.add_argument("--no-bp", action="store_true", help="run without breakpoints")
    sb_p.add_argument("--dpor", action="store_true",
                      help="exploration jobs: dynamic partial-order reduction")
    sb_p.add_argument("--sleep-sets", action="store_true",
                      help="exploration jobs: sleep-set pruning (requires --dpor)")
    sb_p.add_argument("--max-schedules", type=int, default=2000, metavar="K")
    sb_p.add_argument("--bound-preemptions", type=int, default=None, metavar="N",
                      help="exploration jobs: cut schedules needing more than "
                           "N preemptions")
    sb_p.add_argument("--bound-variables", type=int, default=None, metavar="N",
                      help="exploration jobs: cut schedules whose preemptions "
                           "touch more than N distinct variables")
    sb_p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                      help="per-job wall-clock budget")
    sb_p.add_argument("--wait-timeout", type=float, default=None, metavar="SECONDS",
                      help="give up waiting for the result after this long")
    sb_p.add_argument("--no-cache", action="store_true",
                      help="ask the daemon to bypass its result cache for this job")
    sb_p.add_argument("--tenant", default="anon", metavar="NAME",
                      help="fair-share accounting label (multi-tenant fleets); "
                           "never affects results or cache identity")
    _add_parallel_flags(
        sb_p,
        workers_help="worker processes the daemon uses for this job; 0 = serial",
    )

    an_p = sub.add_parser("analyze", help="run all detectors over one traced execution")
    an_p.add_argument("app")
    an_p.add_argument("--bug", default=None, help="activate a bug's breakpoints during the run")
    an_p.add_argument("--seed", type=int, default=0)
    an_p.add_argument("--json", action="store_true",
                      help="emit the findings as canonical JSON instead of text")
    an_p.add_argument("--out", default=None, metavar="FILE",
                      help="write the JSON here instead of stdout (implies --json)")

    inf_p = sub.add_parser(
        "infer",
        help="trace one run, infer breakpoint candidates and confirm them",
    )
    inf_p.add_argument("app")
    inf_p.add_argument("--seed", type=int, default=0,
                       help="seed of the plain traced run the detectors analyse")
    inf_p.add_argument("--trials", type=_trial_count, default=20,
                       help="confirmation sweep size per candidate order")
    inf_p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")
    inf_p.add_argument("--base-seed", type=int, default=0,
                       help="first seed of each confirmation sweep")
    inf_p.add_argument("--steer-attempts", type=int, default=5, metavar="N",
                       help="active-testing runs per unmatched candidate")
    inf_p.add_argument("--json", action="store_true",
                       help="emit the wire-format report instead of text")
    inf_p.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON here instead of stdout (implies --json)")
    _add_parallel_flags(inf_p)
    _add_cache_flags(inf_p)

    suite_p = sub.add_parser("suite", help="print a bug's breakpoint suite")
    suite_p.add_argument("app")
    suite_p.add_argument("bug")
    suite_p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    report_p = sub.add_parser("report", help="regenerate the full evaluation report")
    report_p.add_argument("--trials", type=_trial_count, default=100)
    report_p.add_argument("--out", default=None, help="write Markdown to this file")
    report_p.add_argument("--metrics-out", default=None, metavar="FILE",
                          help="dump the merged metrics of every sweep as JSON")
    _add_parallel_flags(report_p)
    _add_cache_flags(report_p)

    for name in _TABLES:
        tp = sub.add_parser(name, help=f"regenerate {name}")
        tp.add_argument("--trials", type=_trial_count, default=100)
        _add_parallel_flags(tp)
        _add_cache_flags(tp)

    cache_p = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=("stats", "clear"),
                         help="stats = entry count and size; clear = drop everything")
    cache_p.add_argument("--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
                         metavar="DIR",
                         help="cache directory (default: $REPRO_CACHE_DIR)")

    args = parser.parse_args(argv)
    if getattr(args, "trial_timeout", None) is not None and getattr(args, "workers", 0) == 0:
        parser.error("--trial-timeout requires --workers (serial trials cannot be preempted)")
    if args.command == "submit" and args.workers < 0:
        # The client cannot know the daemon's CPU count, so "one per
        # CPU" has no meaning on the wire.
        parser.error(f"submit --workers must be 0 or more, got {args.workers}")
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "export-trace":
        return _cmd_export_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "route":
        return _cmd_route(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_table(args)


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ResultCache

    if not args.cache_dir:
        print("error: no cache directory (pass --cache-dir or set REPRO_CACHE_DIR)")
        return 2
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.root}")
        return 0
    st = cache.stats()
    print(f"cache {st.root}:")
    print(f"  entries     : {st.entries}")
    print(f"  total bytes : {st.total_bytes}")
    print(f"  size bound  : {st.max_bytes}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.svc import ReproService, serve_forever

    if getattr(args, "peers", None):
        # `repro serve --peers ...` is the router spelled differently.
        return _cmd_route(args)
    service = ReproService(
        host=args.host,
        port=args.port,
        queue_size=args.queue_size,
        slots=args.slots,
        job_timeout=args.job_timeout,
        max_job_retries=args.max_job_retries,
        cache_dir=None if args.no_cache else args.cache_dir,
    ).start()
    return serve_forever(service, port_file=args.port_file)


def _cmd_route(args: argparse.Namespace) -> int:
    if getattr(args, "admin", None):
        return _cmd_route_admin(args)
    if not getattr(args, "peers", None):
        print("error: --peers is required when serving (or pass --admin)")
        return 2
    from repro.svc import FleetRouter, serve_forever

    router = FleetRouter(
        list(args.peers),
        host=args.host,
        port=args.port,
        replicas=getattr(args, "replicas", 64),
        forwarders=getattr(args, "forwarders", 64),
        probe_interval=getattr(args, "probe_interval", 2.0),
        eject_after=getattr(args, "eject_after", 3),
        tenant_inflight_limit=getattr(args, "tenant_inflight_limit", 0),
    ).start()
    return serve_forever(router, port_file=args.port_file)


def _cmd_route_admin(args: argparse.Namespace) -> int:
    from repro.svc import ReproClient, ServiceError

    client = ReproClient(args.server)
    try:
        if args.admin == "status":
            doc = client.ring()
            print(f"ring of {args.server} ({doc['replicas']} replicas/shard):")
            for s in doc["shards"]:
                state = "member" if s["member"] else "removed"
                if s["draining"]:
                    state = "draining"
                liveness = "up" if s["alive"] else "DOWN"
                print(f"  s{s['shard']}: {s['url']} [{state}, {liveness}, "
                      f"{s['inflight']} in flight, {s['failures']} strike(s)]")
            return 0
        if not args.peer:
            print(f"error: --admin {args.admin} requires --peer URL")
            return 2
        if args.admin == "add":
            doc = client.ring_add(args.peer)
            print(f"added {doc['added']} to {args.server} as shard s{doc['shard']}")
            return 0
        doc = client.ring_remove(args.peer, drain_timeout=args.drain_timeout)
        drained = "drained" if doc["drained"] else "NOT fully drained (timed out)"
        print(f"removed {doc['removed']} (shard s{doc['shard']}) "
              f"from {args.server}: {drained}")
        return 0
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.server}: {exc}")
        return 2
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.svc import JobFailed, JobSpec, ReproClient, ServiceError

    client = ReproClient(args.server)
    bug = None if getattr(args, "no_bp", False) else args.bug
    tenant = getattr(args, "tenant", "anon")
    if args.kind == "trials":
        spec = JobSpec(
            kind="trials", app=args.app, bug=bug, trials=args.trials,
            timeout=args.timeout, base_seed=args.seed,
            workers=args.workers,
            trial_timeout=args.trial_timeout, job_timeout=args.job_timeout,
            no_cache=args.no_cache, tenant=tenant,
        )
    elif args.kind == "infer":
        spec = JobSpec(
            kind="infer", app=args.app, bug=None, trials=args.trials,
            timeout=args.timeout, base_seed=0, seed=args.seed,
            steer_attempts=args.steer_attempts,
            workers=args.workers,
            trial_timeout=args.trial_timeout, job_timeout=args.job_timeout,
            no_cache=args.no_cache, tenant=tenant,
        )
    else:
        spec = JobSpec(
            kind="explore", app=args.app, bug=bug, dpor=args.dpor,
            sleep_sets=args.sleep_sets, max_schedules=args.max_schedules,
            seed=args.seed, timeout=args.timeout,
            workers=args.workers,
            bound_preemptions=args.bound_preemptions,
            bound_variables=args.bound_variables,
            job_timeout=args.job_timeout,
            no_cache=args.no_cache, tenant=tenant,
        )
    try:
        job_id = client.submit(spec)
        record = client.wait(job_id, timeout=args.wait_timeout)
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.server}: {exc}")
        return 2
    except JobFailed as exc:
        print(f"error: {exc}")
        return 3
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    result = record["result"]
    if result["type"] == "infer":
        from repro.infer import InferenceReport

        print(InferenceReport.from_wire(result).render())
    elif result["type"] == "trials":
        from repro.svc import stats_from_wire

        _print_trials(f"{args.app}/{args.bug}", stats_from_wire(result))
    else:
        from repro.harness import ExplorationSummary

        _print_exploration(ExplorationSummary.from_wire(result), args.max_schedules)
    print(f"  job            : {record['id']} ({record['attempts']} attempt(s), "
          f"{record['latency_seconds']:.2f}s end-to-end)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import contextlib

    from repro.harness import generate_report

    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        from repro.obs import MetricsRegistry, collecting

        sink = MetricsRegistry()
        collect_cm = collecting(sink)
    else:
        sink = None
        collect_cm = contextlib.nullcontext()
    with collect_cm:
        text = generate_report(trials=args.trials, markdown=args.out is not None,
                               workers=_workers_arg(args),
                               cache=_cache_from_args(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if sink is not None:
        _write_metrics(metrics_out, sink.snapshot())
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    cls = get_app(args.app)
    if args.bug is not None and args.bug not in cls.bugs:
        print(f"error: {args.app} has no bug {args.bug!r}; known: {list(cls.bugs)}")
        return 2
    if args.trials > 1:
        stats = run_trials(
            cls, n=args.trials, bug=args.bug, timeout=args.timeout,
            base_seed=args.seed, workers=_workers_arg(args),
            trial_timeout=args.trial_timeout, collect_metrics=True,
            cache=_cache_from_args(args),
        )
        snapshot = stats.metrics
    else:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        app = cls(AppConfig(bug=args.bug, timeout=args.timeout))
        app.run(seed=args.seed, obs=registry)
        snapshot = registry.snapshot()
    if args.out:
        _write_metrics(args.out, snapshot)
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _print_exploration(res, max_schedules: int) -> None:
    """Print an :class:`~repro.harness.ExplorationSummary` (``explore``, ``submit``)."""
    from repro.sim.timeline import render_choice_path

    coverage = "complete" if res.complete else f"capped at {max_schedules}"
    print(f"{res.app}" + (f"/{res.bug}" if res.bug else "") + ":")
    print(f"  schedules      : {res.schedules} explored ({coverage}, {res.pool_mode} pool)")
    print(
        f"  bug hit        : {res.hits}/{res.schedules} schedules "
        f"(fraction {res.hit_fraction:.4f}, weighted {res.hit_probability:.4f})"
    )
    if res.bound is not None:
        limits = ", ".join(
            f"{k} <= {v}" for k, v in sorted(res.bound.items()) if v is not None
        )
        cuts = res.cuts or {}
        print(
            f"  bounding       : {limits}; cuts: "
            f"{cuts.get('preemption_cuts', 0)} preemption, "
            f"{cuts.get('variable_cuts', 0)} variable"
        )
    if res.dpor is not None:
        st = res.dpor
        line = (
            f"  dpor           : {st['branches_added']} branches, "
            f"{st['conservative_fallbacks']} fallbacks, "
            f"{st['sleep_set_prunes']} sleep-set prunes, "
            f"{st['executed_steps']} steps executed"
        )
        if st.get("preemption_cuts") or st.get("variable_cuts"):
            line += (
                f", {st.get('preemption_cuts', 0)} preemption cuts, "
                f"{st.get('variable_cuts', 0)} variable cuts"
            )
        print(line)
    for choices in res.witnesses:
        print(f"  witness        : {render_choice_path(choices)}")


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.harness import explore_summary
    from repro.sim.explore import Bound

    cls = get_app(args.app)
    if args.bug is not None and args.bug not in cls.bugs:
        print(f"error: {args.app} has no bug {args.bug!r}; known: {list(cls.bugs)}")
        return 2
    if (args.sleep_sets or args.workers) and not args.dpor:
        print("error: --sleep-sets and --workers require --dpor")
        return 2
    for name in ("bound_preemptions", "bound_variables"):
        val = getattr(args, name)
        if val is not None and val < 0:
            print(f"error: --{name.replace('_', '-')} must be >= 0, got {val}")
            return 2
    bound = Bound.from_values(args.bound_preemptions, args.bound_variables)

    try:
        res = explore_summary(
            args.app,
            args.bug,
            witness_limit=args.witnesses,
            cache=_cache_from_args(args),
            dpor=args.dpor,
            sleep_sets=args.sleep_sets,
            workers=_workers_arg(args),
            shard_depth=args.shard_depth,
            max_schedules=args.max_schedules,
            max_steps=args.max_steps,
            seed=args.seed,
            timeout=args.timeout,
            bound=bound,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2

    _print_exploration(res, args.max_schedules)
    return 0


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.obs import dump_chrome, record_app_run, to_chrome_trace, trace_to_jsonl

    cls = get_app(args.app)
    if args.bug is not None and args.bug not in cls.bugs:
        print(f"error: {args.app} has no bug {args.bug!r}; known: {list(cls.bugs)}")
        return 2
    run, meta = record_app_run(args.app, args.bug, args.seed, timeout=args.timeout)
    trace = run.result.trace
    if args.format == "chrome":
        # The recorded schedule can be thousands of entries; Perfetto
        # does not need it, so keep the chrome metadata lean.
        chrome_meta = {k: v for k, v in meta.items() if k != "schedule"}
        if args.out:
            dump_chrome(trace, args.out,
                        process_name=f"{args.app} seed={args.seed}",
                        meta=chrome_meta)
            text = None
        else:
            text = json.dumps(
                to_chrome_trace(trace, process_name=f"{args.app} seed={args.seed}",
                                meta=chrome_meta),
                sort_keys=True,
            )
    else:
        text = trace_to_jsonl(trace, meta=meta)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            text = None
    if args.out:
        print(f"wrote {args.format} trace ({len(trace)} events) to {args.out}")
    else:
        print(text)
    return 0


def _emit_json(doc, out: "str | None") -> None:
    """Print (or write to ``out``) a wire document as canonical JSON."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote JSON to {out}")
    else:
        print(text)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.detect import analysis_to_dict, analyze

    if args.app not in ALL_APPS:
        print(f"error: unknown app {args.app!r}; known: {sorted(ALL_APPS)}")
        return 2
    cls = get_app(args.app)
    if args.bug is not None and args.bug not in cls.bugs:
        print(f"error: {args.app} has no bug {args.bug!r}; known: {list(cls.bugs)}")
        return 2
    app = cls(AppConfig(bug=args.bug))
    run = app.run(seed=args.seed, record_trace=True)
    report = analyze(run.result.trace)
    if args.json or args.out:
        # The same serialization `repro infer --json` embeds, so the two
        # commands' findings diff cleanly against each other.
        _emit_json(analysis_to_dict(report), args.out)
        return 0
    print(f"{args.app} seed={args.seed} bug={args.bug}: "
          f"{run.result.summary()}, {report.total_findings} finding(s)\n")
    print(report.render())
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    from repro.infer import infer_app

    if args.app not in ALL_APPS:
        print(f"error: unknown app {args.app!r}; known: {sorted(ALL_APPS)}")
        return 2
    try:
        report = infer_app(
            args.app,
            seed=args.seed,
            trials=args.trials,
            timeout=args.timeout,
            base_seed=args.base_seed,
            steer_attempts=args.steer_attempts,
            workers=_workers_arg(args),
            trial_timeout=args.trial_timeout,
            cache=_cache_from_args(args),
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    if args.json or args.out:
        _emit_json(report.to_wire(), args.out)
        return 0
    print(report.render())
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from repro.apps.suites import suite_for

    suite = suite_for(args.app, args.bug)
    if suite is None:
        print(f"error: no suite for {args.app}/{args.bug}")
        return 2
    print(suite.to_json() if args.json else suite.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands (``python -m repro <command> --help`` lists each one's flags):

* ``list`` — the registered benchmark apps and their known bugs;
* ``run APP BUG`` — execute one app with the bug's breakpoints and print
  the outcome, or with ``--trials N`` the sweep's reproduction rate;
* ``table1`` / ``table2`` / ``section5`` / ``section62`` / ``section63``
  / ``report`` — regenerate one table, or all, of the paper's evaluation;
* ``explore APP [BUG]`` — systematically enumerate the app's schedule
  space and report in what fraction of it the bug manifests;
* ``metrics APP`` — run one app (or a trial sweep) under the
  observability subsystem and print the metrics registry as JSON;
* ``export-trace APP`` — record one run and export its trace as Chrome
  trace-event JSON (Perfetto-loadable) or replayable JSONL;
* ``analyze APP`` — run every detector over one traced execution;
* ``infer APP`` — trace one run, generate breakpoint candidates from the
  detector reports, confirm them through trial sweeps and rank them;
* ``suite APP BUG`` — print a bug's breakpoint suite;
* ``serve`` — run the reproduction daemon (``repro.svc``);
* ``route`` — run the fleet router over many daemons, or administer a
  running router's ring (``--admin status|add|remove``);
* ``submit APP [BUG]`` — submit one job to a running daemon and print
  the result exactly like the corresponding local command;
* ``cache stats|clear`` — inspect or empty the result cache.

Job commands are JobSpecs (:class:`repro.svc.jobs.JobSpec`).  ``run`` and
``metrics`` with ``--trials`` above 1, ``explore`` and ``infer`` each
describe one job (a trial sweep, an exploration or an inference), and
``submit --kind trials|explore|infer`` describes the same job with the
same flags.  :func:`_job_spec` builds the spec, :meth:`JobSpec.validate`
checks it and :func:`repro.svc.jobs.job_call` maps it to the library
call's keywords.  A local command makes that call here; ``submit`` sends
the spec to a daemon, which makes the same call.  One printer per result
kind prints either answer, so a job command and its ``submit`` twin
accept, refuse and print alike.  Every other command that runs an app
checks it and its bug the way ``JobSpec.validate`` does; every refusal
prints ``error:`` and exits 2.

``--cache-dir DIR`` (default ``$REPRO_CACHE_DIR``) memoizes results in
a content-addressed on-disk cache, bit-identical to fresh ones;
``--no-cache`` bypasses it.  ``--workers N`` fans trials (or, with
``--dpor``, exploration shards) over a process pool: 0 = serial, -1 =
one per CPU, except on ``submit``, where it counts the daemon's
processes for the job and must be 0 or more.  Results never depend on
either flag.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    default_workers,
    render,
    run_trials,
)
from repro.svc.jobs import JobSpec, JobValidationError, job_call, result_from_wire

# --- flags: each group is declared once ------------------------------------


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _trial_count(text: str) -> int:
    """argparse type of every ``--trials`` flag: an integer of at least 1."""
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"trials must be positive, got {n}")
    return n


def _local_workers(text: str) -> int:
    """argparse type of a local ``--workers``: 0 = serial, negative = one
    worker per CPU (resolved here, so the spec carries the count)."""
    n = _int(text)
    return default_workers() if n < 0 else n


def _daemon_workers(text: str) -> int:
    """argparse type of ``submit --workers``: the daemon's processes for
    the job.  The client cannot know the daemon's CPU count, so "one per
    CPU" has no meaning on the wire."""
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more on submit, got {n}")
    return n


def _add_seed_flags(p: argparse.ArgumentParser, seed_help: str | None = None) -> None:
    p.add_argument("--seed", type=int, default=0, help=seed_help)
    p.add_argument("--timeout", type=float, default=0.1, help="pause time T (s)")


def _add_trials_flag(p: argparse.ArgumentParser, default: int, help: str | None = None) -> None:
    p.add_argument("--trials", type=_trial_count, default=default, help=help)


def _add_bug_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bug", default=None, help="activate a bug's breakpoints during the run")


def _add_parallel_flags(
    p: argparse.ArgumentParser,
    workers_help: str = "trial worker processes (0 = serial, -1 = one per CPU)",
    workers_type=_local_workers,
    trial_timeout: bool = True,
) -> None:
    p.add_argument("--workers", type=workers_type, default=0, metavar="N", help=workers_help)
    if trial_timeout:
        p.add_argument(
            "--trial-timeout", type=float, default=None, metavar="SECONDS",
            help="per-trial wall-clock budget (requires --workers)",
        )


def _add_cache_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"), metavar="DIR",
        help="content-addressed result cache directory "
             "(default: $REPRO_CACHE_DIR; unset = caching off)",
    )
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the result cache even when --cache-dir is set")


def _add_explore_flags(p: argparse.ArgumentParser) -> None:
    """The search of an exploration job (``explore``, ``submit --kind explore``)."""
    p.add_argument("--dpor", action="store_true",
                   help="dynamic partial-order reduction (rejects timed programs)")
    p.add_argument("--sleep-sets", action="store_true",
                   help="prune sleep-set-redundant schedules (requires --dpor)")
    p.add_argument("--max-schedules", type=int, default=2000, metavar="K")
    p.add_argument("--bound-preemptions", type=int, default=None, metavar="N",
                   help="cut schedules needing more than N preemptions "
                        "(bounded systematic search)")
    p.add_argument("--bound-variables", type=int, default=None, metavar="N",
                   help="cut schedules whose preemptions touch more than "
                        "N distinct synchronisation variables")


def _add_steer_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--steer-attempts", type=int, default=5, metavar="N",
                   help="active-testing runs per unmatched candidate")


def _add_output_flags(
    p: argparse.ArgumentParser, out_help: str | None = None, json_help: str | None = None
) -> None:
    """``--out FILE`` and ``--json``, each added when given its help text."""
    if out_help is not None:
        p.add_argument("--out", default=None, metavar="FILE", help=out_help)
    if json_help is not None:
        p.add_argument("--json", action="store_true", help=json_help)


def _add_listen_flags(p: argparse.ArgumentParser, port: int) -> None:
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=port,
                   help="TCP port (0 = ephemeral; see --port-file)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the bound port here once listening")


_TABLES = {
    "table1": (build_table1, "Table 1 — Java programs"),
    "table2": (build_table2, "Table 2 — C/C++ programs"),
    "section5": (build_section5, "Section 5 — log4j conflict orders"),
    "section62": (build_section62, "Section 6.2 — pause time"),
    "section63": (build_section63, "Section 6.3 — precision refinements"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Concurrent Breakpoints reproduction (Park & Sen, PPoPP 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, **defaults)
        return p

    command("list", _cmd_list, "list benchmark apps and bugs")

    p = command("run", _cmd_run, "run one app/bug", kind="trials")
    p.add_argument("app")
    p.add_argument("bug")
    _add_seed_flags(p)
    _add_trials_flag(p, 1)
    p.add_argument("--no-bp", action="store_true", help="run without breakpoints")
    p.add_argument("--timeline", action="store_true",
                   help="print the event timeline around the breakpoints")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="dump the run's metrics registry as JSON")
    _add_parallel_flags(p)
    _add_cache_flags(p)

    p = command("explore", _cmd_job,
                "enumerate the schedule space and measure the bug's share of it",
                kind="explore")
    p.add_argument("app")
    p.add_argument("bug", nargs="?", default=None,
                   help="activate a bug's breakpoints during every run")
    _add_explore_flags(p)
    _add_parallel_flags(p, "shard the DPOR tree over N worker processes "
                           "(0 = serial, -1 = one per CPU; requires --dpor)",
                        trial_timeout=False)
    p.add_argument("--max-steps", type=int, default=None)
    _add_seed_flags(p)
    p.add_argument("--shard-depth", type=int, default=2)
    p.add_argument("--witnesses", dest="witness_limit", type=int, default=3, metavar="K",
                   help="print up to K bug-hitting schedules")
    _add_cache_flags(p)

    p = command("metrics", _cmd_metrics, "run under observability and print metrics JSON",
                kind="trials")
    p.add_argument("app")
    _add_bug_flag(p)
    _add_seed_flags(p)
    _add_trials_flag(p, 1, "sweep seeds seed..seed+N-1 and merge the registries")
    _add_output_flags(p, out_help="write JSON here instead of stdout")
    _add_parallel_flags(p)
    _add_cache_flags(p)

    p = command("export-trace", _cmd_export_trace, "record one run and export its trace")
    p.add_argument("app")
    _add_bug_flag(p)
    _add_seed_flags(p)
    p.add_argument("--format", choices=("chrome", "jsonl"), default="chrome",
                   help="chrome = Perfetto-loadable trace-event JSON; "
                        "jsonl = versioned, replayable event log")
    _add_output_flags(p, out_help="write the export here instead of stdout")

    p = command("serve", _cmd_serve, "run the reproduction-as-a-service daemon")
    _add_listen_flags(p, 8642)
    p.add_argument("--slots", type=int, default=2, metavar="N",
                   help="concurrent job executor slots")
    p.add_argument("--queue-size", type=int, default=16, metavar="N",
                   help="bounded queue capacity (full = 503 + Retry-After)")
    p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                   help="default per-job wall-clock budget")
    p.add_argument("--max-job-retries", type=int, default=1, metavar="N",
                   help="extra attempts for a job whose worker crashed")
    _add_cache_flags(p)

    p = command("route", _cmd_route, "run a fleet router consistent-hashing jobs across "
                "daemons, or administer a running one (--admin)")
    p.add_argument("--peers", nargs="+", default=None, metavar="URL", help="daemon base URLs "
                   "(http://host:port), one per shard (required unless --admin)")
    _add_listen_flags(p, 8640)
    p.add_argument("--replicas", type=int, default=64, metavar="N",
                   help="virtual ring nodes per peer")
    p.add_argument("--forwarders", type=int, default=64, metavar="N",
                   help="max concurrent shard-forwarding threads (elastic: grown on demand)")
    p.add_argument("--probe-interval", type=float, default=2.0, metavar="SECONDS", help="health-"
                   "probe period for ejection/re-admission (0 disables the periodic probe)")
    p.add_argument("--eject-after", type=int, default=3, metavar="N", help="consecutive "
                   "upstream failures before a shard is ejected from placement")
    p.add_argument("--tenant-inflight-limit", type=int, default=0, metavar="N",
                   help="shed any tenant holding N unfinished fleet jobs with 429 (0 = off)")
    p.add_argument("--admin", choices=("status", "add", "remove"), default=None,
                   help="administer a running router instead of serving: status = print "
                        "ring membership; add/remove = live rebalancing (needs --peer)")
    p.add_argument("--peer", default=None, metavar="URL",
                   help="the shard URL --admin add/remove operates on")
    p.add_argument("--server", default="http://127.0.0.1:8640", metavar="URL",
                   help="running router address for --admin verbs")
    p.add_argument("--drain-timeout", type=float, default=30.0, metavar="SECONDS",
                   help="--admin remove: how long to wait for the departing shard's jobs")

    p = command("submit", _cmd_submit, "submit one job to a running daemon")
    p.add_argument("app")
    p.add_argument("bug", nargs="?", default=None)
    p.add_argument("--server", default="http://127.0.0.1:8642", metavar="URL",
                   help="daemon address (see 'repro serve')")
    p.add_argument("--kind", choices=("trials", "explore", "infer"), default="trials")
    p.add_argument("--tenant", default="anon", metavar="NAME",
                   help="fair-share accounting label (multi-tenant fleets); "
                        "never affects results or cache identity")
    p.add_argument("--job-timeout", type=float, default=None, metavar="SECONDS",
                   help="per-job wall-clock budget")
    p.add_argument("--wait-timeout", type=float, default=None, metavar="SECONDS",
                   help="give up waiting for the result after this long")
    p.add_argument("--no-cache", action="store_true",
                   help="ask the daemon to bypass its result cache for this job")
    _add_seed_flags(p)
    _add_trials_flag(p, 100)
    p.add_argument("--no-bp", action="store_true", help="run without breakpoints")
    _add_explore_flags(p)
    _add_steer_flag(p)
    _add_parallel_flags(p, "worker processes the daemon uses for this job; 0 = serial",
                        workers_type=_daemon_workers)

    p = command("analyze", _cmd_analyze, "run all detectors over one traced execution")
    p.add_argument("app")
    _add_bug_flag(p)
    p.add_argument("--seed", type=int, default=0)
    _add_output_flags(p, out_help="write the JSON here instead of stdout (implies --json)",
                      json_help="emit the findings as canonical JSON instead of text")

    p = command("infer", _cmd_job,
                "trace one run, infer breakpoint candidates and confirm them", kind="infer")
    p.add_argument("app")
    _add_seed_flags(p, "seed of the plain traced run the detectors analyse")
    _add_trials_flag(p, 20, "confirmation sweep size per candidate order")
    p.add_argument("--base-seed", type=int, default=0,
                   help="first seed of each confirmation sweep")
    _add_steer_flag(p)
    _add_output_flags(p, out_help="write the JSON here instead of stdout (implies --json)",
                      json_help="emit the wire-format report instead of text")
    _add_parallel_flags(p)
    _add_cache_flags(p)

    p = command("suite", _cmd_suite, "print a bug's breakpoint suite")
    p.add_argument("app")
    p.add_argument("bug")
    _add_output_flags(p, json_help="emit JSON instead of text")

    p = command("report", _cmd_report, "regenerate the full evaluation report")
    _add_trials_flag(p, 100)
    _add_output_flags(p, out_help="write Markdown to this file")
    p.add_argument("--metrics-out", default=None, metavar="FILE",
                   help="dump the merged metrics of every sweep as JSON")
    _add_parallel_flags(p)
    _add_cache_flags(p)

    for name in _TABLES:
        p = command(name, _cmd_table, f"regenerate {name}")
        _add_trials_flag(p, 100)
        _add_parallel_flags(p)
        _add_cache_flags(p)

    p = command("cache", _cmd_cache, "inspect or clear the result cache")
    p.add_argument("action", choices=("stats", "clear"),
                   help="stats = entry count and size; clear = drop everything")
    p.add_argument("--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"), metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run the selected subcommand."""
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "trial_timeout", None) is not None and not args.workers:
        parser.error("--trial-timeout requires --workers (serial trials cannot be preempted)")
    try:
        return args.func(args)
    except JobValidationError as exc:
        print(f"error: {exc}")
        return 2


# --- jobs: one JobSpec, run here or on a daemon, one printer per kind ------

#: Per job kind, the flags (by argparse dest) that set the JobSpec field
#: of the same name.  A command without one of them (``submit`` has no
#: ``--max-steps``) leaves that field at its default.
_SPEC_FLAGS = {
    "trials": ("trials", "timeout", "workers", "trial_timeout"),
    "explore": ("timeout", "workers", "dpor", "sleep_sets", "max_schedules", "max_steps",
                "shard_depth", "witness_limit", "bound_preemptions", "bound_variables"),
    "infer": ("trials", "timeout", "workers", "trial_timeout", "base_seed", "steer_attempts"),
}
#: The service knobs (``submit`` only) and ``--no-cache``, for every kind.
_SERVICE_FLAGS = ("job_timeout", "tenant", "no_cache")


def _job_spec(args: argparse.Namespace, **fields) -> JobSpec:
    """The validated :class:`JobSpec` a job command's flags describe.

    ``--seed`` is a trial sweep's ``base_seed`` and the ``seed`` of the
    other kinds; an infer job takes no bug.  ``--no-bp`` drops the bug
    once the check that it exists has passed.  ``fields`` sets what no
    flag names (``collect_metrics``).
    """
    kind = args.kind
    for name in _SPEC_FLAGS[kind] + _SERVICE_FLAGS:
        if hasattr(args, name):
            fields[name] = getattr(args, name)
    fields["base_seed" if kind == "trials" else "seed"] = args.seed
    bug = None if kind == "infer" else args.bug
    spec = JobSpec(kind=kind, app=args.app, bug=bug, **fields).validate()
    if kind == "explore" and spec.workers and not spec.dpor:
        raise JobValidationError("workers requires dpor: the workers shard the DPOR walk")
    return dataclasses.replace(spec, bug=None) if getattr(args, "no_bp", False) else spec


def _run_local(args: argparse.Namespace, **fields):
    """Run the job ``args`` describe in this process: ``(spec, result)``."""
    spec = _job_spec(args, **fields)
    first, kw = job_call(spec)
    if spec.kind == "trials":
        call = run_trials
    elif spec.kind == "explore":
        from repro.harness import explore_summary as call
    else:
        from repro.infer import infer_app as call
    try:
        return spec, call(first, cache=_cache_from_args(args), **kw)
    except ValueError as exc:  # a job the library refuses, e.g. DPOR on a timed app
        raise JobValidationError(str(exc)) from None


def _cache_from_args(args: argparse.Namespace):
    """The :class:`repro.cache.ResultCache` the flags select, or None.

    ``--cache-dir`` (or the ``REPRO_CACHE_DIR`` environment variable)
    turns caching on; ``--no-cache`` wins over both.
    """
    if args.no_cache or not args.cache_dir:
        return None
    from repro.cache import ResultCache

    return ResultCache(args.cache_dir)


def _print_trials(args: argparse.Namespace, spec: JobSpec, stats) -> None:
    """Print a trial sweep's :class:`~repro.harness.TrialStats`."""
    print(
        f"{args.app}/{args.bug}: reproduced {stats.bug_hits}/{stats.trials} "
        f"(bp hit rate {stats.bp_hit_rate:.2f}, mean runtime {stats.mean_runtime:.4f}s"
        + (f", MTTE {stats.mtte:.3f}s)" if stats.mtte is not None else ")")
    )
    for f in stats.failures:
        print(f"  seed {f.seed}: {f.kind} after {f.attempts} attempt(s) {f.message}")


def _print_exploration(args: argparse.Namespace, spec: JobSpec, res) -> None:
    """Print an :class:`~repro.harness.ExplorationSummary`.  A sharded
    walk caps each shard at ``max_schedules``, not the whole walk."""
    from repro.sim.timeline import render_choice_path

    if res.complete:
        coverage = "complete"
    else:
        sharded = spec.dpor and spec.workers
        coverage = f"capped at {spec.max_schedules}" + (" per shard" if sharded else "")
    print(f"{res.app}" + (f"/{res.bug}" if res.bug else "") + ":")
    print(f"  schedules      : {res.schedules} explored ({coverage}, {res.pool_mode} pool)")
    print(f"  bug hit        : {res.hits}/{res.schedules} schedules "
          f"(fraction {res.hit_fraction:.4f}, weighted {res.hit_probability:.4f})")
    if res.bound is not None:
        limits = ", ".join(f"{k} <= {v}" for k, v in sorted(res.bound.items()) if v is not None)
        cuts = res.cuts or {}
        print(f"  bounding       : {limits}; cuts: {cuts.get('preemption_cuts', 0)} preemption, "
              f"{cuts.get('variable_cuts', 0)} variable")
    if res.dpor is not None:
        st = res.dpor
        line = (f"  dpor           : {st['branches_added']} branches, "
                f"{st['conservative_fallbacks']} fallbacks, {st['sleep_set_prunes']} "
                f"sleep-set prunes, {st['executed_steps']} steps executed")
        if st.get("preemption_cuts") or st.get("variable_cuts"):
            line += (f", {st.get('preemption_cuts', 0)} preemption cuts, "
                     f"{st.get('variable_cuts', 0)} variable cuts")
        print(line)
    for choices in res.witnesses:
        print(f"  witness        : {render_choice_path(choices)}")


def _print_inference(args: argparse.Namespace, spec: JobSpec, report) -> None:
    """Print an :class:`~repro.infer.InferenceReport`, or its wire form
    with ``--json``/``--out``."""
    if getattr(args, "json", False) or getattr(args, "out", None):
        _emit_json(report.to_wire(), args.out)
    else:
        print(report.render())


_PRINTERS = {"trials": _print_trials, "explore": _print_exploration, "infer": _print_inference}


def _cmd_job(args: argparse.Namespace) -> int:
    """``explore`` and ``infer``: run the job here and print its result."""
    spec, result = _run_local(args)
    _PRINTERS[spec.kind](args, spec, result)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.svc import JobFailed, ReproClient, ServiceError

    spec = _job_spec(args)
    try:
        with ReproClient(args.server) as client:
            job_id = client.submit(spec)
            try:
                record = client.wait(job_id, timeout=args.wait_timeout)
            except TimeoutError:
                print(f"error: job {job_id} not finished after --wait-timeout "
                      f"{args.wait_timeout:g}s; it stays on {args.server}")
                return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: cannot reach {args.server}: {exc}")
        return 2
    except JobFailed as exc:
        print(f"error: {exc}")
        return 3
    except ServiceError as exc:
        print(f"error: {exc}")
        return 2
    _PRINTERS[spec.kind](args, spec, result_from_wire(record["result"]))
    print(f"  job            : {record['id']} ({record['attempts']} attempt(s), "
          f"{record['latency_seconds']:.2f}s end-to-end)")
    return 0


def _app_class(app: str, bug: str | None = None):
    """The class of app ``app``, after the app/bug check every command
    makes: :meth:`JobSpec.validate`'s, so it refuses alike here and on
    a daemon."""
    JobSpec(app=app, bug=bug).validate()
    return get_app(app)


def _write_metrics(path: str, snapshot) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote metrics to {path}")


def _emit_json(doc, out: "str | None") -> None:
    """Print (or write to ``out``) a wire document as canonical JSON."""
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote JSON to {out}")
    else:
        print(text)


# --- commands ---------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    for name in sorted(ALL_APPS):
        cls = ALL_APPS[name]
        print(f"{name}  (original: {cls.paper_loc} LoC)")
        for bug_id, spec in cls.bugs.items():
            err = spec.error or "(silent)"
            note = f"  [{spec.comments}]" if spec.comments else ""
            print(f"    {bug_id:16s} {spec.kind:14s} {err}{note}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    metrics_out = args.metrics_out
    if args.trials > 1:
        spec, stats = _run_local(args, collect_metrics=metrics_out is not None)
        _print_trials(args, spec, stats)
        if metrics_out is not None:
            _write_metrics(metrics_out, stats.metrics)
        return 0
    cls = _app_class(args.app, args.bug)
    registry = None
    if metrics_out is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    app = cls(AppConfig(bug=None if args.no_bp else args.bug, timeout=args.timeout))
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


def _cmd_metrics(args: argparse.Namespace) -> int:
    if args.trials > 1:
        snapshot = _run_local(args, collect_metrics=True)[1].metrics
    else:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        app = _app_class(args.app, args.bug)(AppConfig(bug=args.bug, timeout=args.timeout))
        app.run(seed=args.seed, obs=registry)
        snapshot = registry.snapshot()
    if args.out:
        _write_metrics(args.out, snapshot)
    else:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    builder, title = _TABLES[args.command]
    rows = builder(n=args.trials, workers=args.workers, cache=_cache_from_args(args))
    print(title + f" ({args.trials} trials)")
    print(render(rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import contextlib

    from repro.harness import generate_report
    from repro.obs import collecting

    collect = collecting() if args.metrics_out is not None else contextlib.nullcontext()
    with collect as sink:
        text = generate_report(trials=args.trials, markdown=args.out is not None,
                               workers=args.workers, cache=_cache_from_args(args))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    if sink is not None:
        _write_metrics(args.metrics_out, sink.snapshot())
    return 0


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
    if args.admin:
        return _cmd_route_admin(args)
    if not args.peers:
        print("error: --peers is required when serving (or pass --admin)")
        return 2
    from repro.svc import FleetRouter, serve_forever

    router = FleetRouter(
        list(args.peers),
        host=args.host,
        port=args.port,
        replicas=args.replicas,
        forwarders=args.forwarders,
        probe_interval=args.probe_interval,
        eject_after=args.eject_after,
        tenant_inflight_limit=args.tenant_inflight_limit,
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


def _cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.obs import record_app_run, to_chrome_trace, trace_to_jsonl

    _app_class(args.app, args.bug)
    run, meta = record_app_run(args.app, args.bug, args.seed, timeout=args.timeout)
    trace = run.result.trace
    if args.format == "chrome":
        # The recorded schedule can be thousands of entries; Perfetto
        # does not need it, so keep the chrome metadata lean.
        chrome_meta = {k: v for k, v in meta.items() if k != "schedule"}
        doc = to_chrome_trace(trace, process_name=f"{args.app} seed={args.seed}",
                              meta=chrome_meta)
        text = json.dumps(doc, sort_keys=True)
    else:
        text = trace_to_jsonl(trace, meta=meta)
    if not args.out:
        print(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.format} trace ({len(trace)} events) to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.detect import analysis_to_dict, analyze

    app = _app_class(args.app, args.bug)(AppConfig(bug=args.bug))
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

#!/usr/bin/env python3
"""End-to-end, layer-attributed benchmark of the reproduction stack.

One run measures one workload for ``--seconds`` seconds, in a fresh
interpreter that is also the only load-generating process::

    python3 benchmarks/e2e/run.py --workload trials --seed 0 --seconds 20 --trace 0

One closed-loop client repeats a fixed round of jobs until time is up.
On a shared host the same work runs up to twice as slowly while other
tenants load the physical cores, for seconds to minutes at a time, so
a fixed pure-Python reference loop is timed between jobs and each
job's wall time is scaled to the speed at which that loop takes
``metrics.REF_SECONDS``.  A round position's latency is its median over
the rounds.  The run prints every end-to-end metric with its unit (and the
raw wall-clock figures beside them), checks every output, and ends with
one JSON line holding ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 1`` is a separate run that records spans and
prints the per-layer metrics instead.

Without ``--workload`` every workload runs, each in its own interpreter.
``--repeat N`` runs N alternating sets on seeds ``seed .. seed+N-1`` and
prints each metric's median and quartiles.  ``--record-expected``
rewrites ``expected/seed0.json`` from seed-0 runs.

Run files (server logs, cache directories, spans, the Chrome trace)
go under ``.e2e_runs/<workload>/`` at the repository root.  README.md
describes the workloads, the metric dictionary and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import metrics  # noqa: E402  (no repro imports; safe before the src check)

RUNS = ROOT / ".e2e_runs"
EXPECTED = HERE / "expected" / "seed0.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Set-ups per run, between these counts: a run sets up again while the
#: set-ups so far took less than SETUP_BUDGET_S seconds.  setup_s is
#: their median.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_BUDGET_S = 6.0
#: Rounds every run makes however slow the host; the first is the
#: window whose counts and result digests must repeat exactly.
MIN_ROUNDS = 3
#: Share of svc_cold jobs re-run through execute_job.
CHECK_FRAC = 0.1
#: Wall budget of the traced-vs-untraced calibration block.
CALIBRATE_S = 3.0
#: Paired router/shard requests behind svc.router.hop_frac.
HOP_PAIRS = 30
#: Bounds on one job, one server start and one server drain.
JOB_WAIT_S = 120.0
START_S = 60.0
STOP_S = 30.0
#: Seconds between repeated SIGTERMs to a server that has not exited.
TERM_REPEAT_S = 0.5


@dataclasses.dataclass
class JobRun:
    """One job of the timed phase, as its client saw it."""

    round: int
    index: int
    spec: Any
    start: float
    end: float
    wire: Optional[Dict[str, Any]] = None
    queue_wait: float = 0.0
    latency: float = 0.0
    error: Optional[str] = None

    @property
    def wall(self) -> float:
        """Seconds from submission to result."""
        return self.end - self.start


# ---------------------------------------------------------------------------
# Servers
# ---------------------------------------------------------------------------


class Fleet:
    """The server processes of one set-up, each started through serve.py.

    ``svc_cold`` runs one daemon with two slots; ``svc_warm`` runs a
    router in front of two one-slot shards with separate caches.  Every
    server leads its own process group, so
    :meth:`stop` also reaps pool workers a crashed server would leave
    behind.
    """

    def __init__(self, workload: str, directory: Path, trace_dir: Optional[Path]) -> None:
        self.workload = workload
        self.dir = directory
        self.trace_dir = trace_dir
        self.procs: List[subprocess.Popen] = []
        self.url = ""
        self.shards: List[str] = []

    def _launch(self, label: str, argv: List[str]) -> Tuple[subprocess.Popen, Path]:
        port_file = self.dir / f"{label}.port"
        cmd = [sys.executable, str(HERE / "serve.py")]
        if self.trace_dir is not None:
            cmd += ["--trace-dir", str(self.trace_dir)]
        cmd += [*argv, "--port", "0", "--port-file", str(port_file)]
        with open(self.dir / f"{label}.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, start_new_session=True)
        self.procs.append(proc)
        return proc, port_file

    def _await(self, proc: subprocess.Popen, port_file: Path) -> str:
        deadline = time.monotonic() + START_S
        while True:
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                return f"http://127.0.0.1:{int(text)}"
            if proc.poll() is not None:
                raise RuntimeError(f"server exited rc={proc.returncode}; log in {self.dir}")
            if time.monotonic() > deadline:
                raise RuntimeError(f"server not listening after {START_S}s; log in {self.dir}")
            time.sleep(0.005)

    def start(self) -> "Fleet":
        """Launch the servers and block until the entry point is healthy."""
        if self.workload == "svc_cold":
            started = [self._launch("daemon", ["serve", "--slots", "2",
                                               "--cache-dir", str(self.dir / "cache")])]
            self.shards = [self._await(*p) for p in started]
            self.url = self.shards[0]
        else:
            started = [
                self._launch(f"shard{i}", ["serve", "--slots", "1",
                                           "--cache-dir", str(self.dir / f"cache{i}")])
                for i in range(2)
            ]
            self.shards = [self._await(*p) for p in started]
            self.url = self._await(*self._launch("router", ["route", "--peers", *self.shards]))
        self._await_healthy()
        return self

    def _await_healthy(self) -> None:
        from repro.svc import ReproClient, ServiceError

        deadline = time.monotonic() + START_S
        with ReproClient(self.url, timeout=5.0) as client:
            while time.monotonic() < deadline:
                try:
                    doc = client.health()
                except (OSError, http.client.HTTPException, ServiceError):
                    doc = {}
                if doc.get("status") == "ok" and all(s.get("ok") for s in doc.get("shards", [])):
                    return
                time.sleep(0.005)
        raise RuntimeError(f"{self.url} not healthy after {START_S}s")

    def scrape(self) -> Dict[str, float]:
        """Counter values summed over every daemon's ``/metrics``."""
        from repro.svc import ReproClient

        totals: Dict[str, float] = {}
        for url in self.shards:
            with ReproClient(url, timeout=10.0) as client:
                for name, doc in client.metrics().items():
                    if isinstance(doc, dict) and "value" in doc:
                        totals[name] = totals.get(name, 0) + doc["value"]
        return totals

    def stop(self) -> None:
        """SIGTERM every server (router first), wait, and kill stragglers.

        A server waits for SIGTERM in its main thread, but the kernel may
        deliver the signal to another of its threads, which leaves the
        main thread asleep; the signal is therefore repeated until the
        server exits.
        """
        deadline = time.monotonic() + STOP_S
        for proc in reversed(self.procs):
            while proc.poll() is None and time.monotonic() < deadline:
                proc.send_signal(signal.SIGTERM)
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=TERM_REPEAT_S)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(proc.pid, signal.SIGKILL)
        self.procs = []


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


class Bench:
    """State of one run: workload, seed, servers, recorder and results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        import jobs

        self.jobs = jobs
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.svc = workload in jobs.SVC_WORKLOADS
        self.dir = RUNS / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self.trace_dir: Optional[Path] = None
        self.recorder = None
        if trace:
            import spans

            self.trace_dir = self.dir / "spans"
            self.trace_dir.mkdir()
            spans.write_flag(self.trace_dir, True)
            self.recorder = spans.install(self.trace_dir)
        self.fleet: Optional[Fleet] = None
        self.client: Any = None
        #: Reference samples of the timed phase: (time, seconds of one pass).
        self.refs: List[Tuple[float, float]] = []

    # -- spans ----------------------------------------------------------
    def span(self, name: str, layer: str, job: Optional[str] = None):
        """A span of the bench process, or nothing when not tracing."""
        if self.recorder is None:
            return contextlib.nullcontext({})
        return self.recorder.span(name, layer, job)

    # -- set-up ---------------------------------------------------------
    def setup(self) -> List[float]:
        """Set up ``SETUP_MIN_REPS`` to ``SETUP_MAX_REPS`` times, stopping
        once ``SETUP_BUDGET_S`` have passed; keeps the last set-up running.

        Returns each set-up's wall time.  These are not scaled to the
        reference speed: a reference pass next to a set-up does not track
        the set-up's speed (subprocess start, imports, server start).
        """
        times: List[float] = []
        for rep in range(SETUP_MAX_REPS):
            if len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_BUDGET_S:
                break
            if self.svc:
                if self.fleet is not None:
                    self.fleet.stop()
                rep_dir = self.dir / f"setup{rep}"
                rep_dir.mkdir()
                t0 = time.perf_counter()
                self.fleet = Fleet(self.workload, rep_dir, self.trace_dir).start()
                self._warm_service()
            else:
                t0 = time.perf_counter()
                self._probe()
            times.append(time.perf_counter() - t0)
        if not self.svc:
            self.jobs.direct(self.jobs.warmup_spec(self.workload))
        return times

    def _probe(self) -> None:
        """A fresh interpreter importing, generating jobs and warming up."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", self.workload, "--seed", str(self.seed)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
        line = proc.stdout.readline()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=START_S) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (rc={proc.returncode}, said {line!r})")

    def _warm_service(self) -> None:
        """One warm-up job (svc_cold) or the 64-config pre-warm (svc_warm)."""
        from repro.svc import ReproClient

        specs = ([self.jobs.warmup_spec(self.workload)] if self.workload == "svc_cold"
                 else self.jobs.warm_configs(self.seed))
        with ReproClient(self.fleet.url) as client:
            for spec in specs:
                client.wait(client.submit(spec), timeout=JOB_WAIT_S)

    # -- execution ------------------------------------------------------
    def execute(self, round_: int, index: int, spec: Any) -> JobRun:
        """Run one job the way this workload's callers do; never raises."""
        start = time.perf_counter()
        try:
            with self.span("bench.job", "bench", f"{round_}.{index}"):
                if not self.svc:
                    wire = self.jobs.direct(spec)
                    return JobRun(round_, index, spec, start, time.perf_counter(), wire)
                with self.span("svc.client.submit", "svc.client"):
                    job_id = self.client.submit(spec)
                with self.span("svc.client.wait", "svc.client"):
                    record = self.client.wait(job_id, timeout=JOB_WAIT_S)
            return JobRun(round_, index, spec, start, time.perf_counter(), record["result"],
                          queue_wait=record["queue_wait_seconds"] or 0.0,
                          latency=record["latency_seconds"] or 0.0)
        except Exception as exc:  # noqa: BLE001 - failed, refused or timed out: counted
            error = f"{type(exc).__name__}: {exc}"
        return JobRun(round_, index, spec, start, time.perf_counter(), error=error)

    def phase(self, at_window: Callable[[], None]):
        """The timed closed loop: rounds of jobs until time is up.

        The reference loop is timed once before the first job and after
        every job, with no job in flight.  ``at_window`` runs after round
        0 (the cut for the exact counts).  The run stops after a round
        once ``MIN_ROUNDS`` rounds are done and less than half a round's
        time is left.  Returns the runs and the phase timestamps.
        """
        runs: List[JobRun] = []
        t_start = time.perf_counter()
        deadline = t_start + self.seconds
        self.refs = [(time.perf_counter(), metrics.reference_pass())]
        t_cut = t_start
        for r, specs in enumerate(self.jobs.rounds(self.workload, self.seed)):
            for i, spec in enumerate(specs):
                runs.append(self.execute(r, i, spec))
                self.refs.append((time.perf_counter(), metrics.reference_pass()))
            now = time.perf_counter()
            if r == 0:
                t_cut = now
                at_window()
            if r + 1 >= MIN_ROUNDS and now + (now - t_start) / (r + 1) / 2 > deadline:
                break
        return runs, t_start, time.perf_counter(), t_cut

    # -- checks ---------------------------------------------------------
    def check(self, runs: List[JobRun], recording: bool) -> List[str]:
        """Every reason the outputs are wrong (empty when all are right).

        Seed-0 digests are compared with ``expected/seed0.json`` unless
        this run is ``recording`` them.
        """
        from repro.svc.jobs import execute_job

        jobs = self.jobs
        errors = [f"job {r.round}.{r.index}: {why}" for r in runs
                  if r.wire is not None and (why := jobs.check(r.spec, r.wire))]
        done = [r for r in runs if r.wire is not None]
        if not self.svc:
            first: Dict[int, str] = {}
            errors += [f"job {r.round}.{r.index}: differs from round 0" for r in done
                       if first.setdefault(r.index, jobs.digest(r.wire)) != jobs.digest(r.wire)]
        elif self.workload == "svc_cold":
            rng = random.Random(f"check/{self.workload}/{self.seed}")
            sample = rng.sample(done, math.ceil(CHECK_FRAC * len(done)))
            errors += [f"job {r.round}.{r.index}: differs from execute_job" for r in sample
                       if jobs.digest(execute_job(r.spec)) != jobs.digest(r.wire)]
        else:
            seen: Dict[str, str] = {}
            final: Dict[Tuple[str, str, Optional[str]], JobRun] = {}
            for r in done:
                key = json.dumps(r.spec.to_json(), sort_keys=True)
                if seen.setdefault(key, jobs.digest(r.wire)) != jobs.digest(r.wire):
                    errors.append(f"job {r.round}.{r.index}: resubmit answered differently")
                final[(r.spec.kind, r.spec.app, r.spec.bug)] = r
            errors += [f"config {key}: differs from execute_job" for key, r in final.items()
                       if jobs.digest(execute_job(r.spec)) != jobs.digest(r.wire)]
        if self.seed == 0 and not recording and EXPECTED.exists():
            expected = json.loads(EXPECTED.read_text()).get(self.workload)
            if expected is not None and expected != self.window_digests(runs):
                errors.append(f"seed-0 result digests differ from {EXPECTED.name}")
        return errors

    def window_digests(self, runs: List[JobRun]) -> List[Optional[str]]:
        """Digests of the round-0 results."""
        return [self.jobs.digest(r.wire) if r.wire is not None else None
                for r in runs if r.round == 0]

    # -- traced-run extras ----------------------------------------------
    def calibrate(self, specs: List[Any]) -> float:
        """Median over job pairs of traced / untraced wall, minus one.

        Each pair runs one job twice, tracing off and on in alternating
        order (svc_cold bypasses the cache, so both runs do the work).
        """
        if self.workload == "svc_cold":
            specs = [dataclasses.replace(s, no_cache=True) for s in specs]
        ratios = []
        budget = time.perf_counter() + CALIBRATE_S
        while len(ratios) < 4 or (time.perf_counter() < budget and len(ratios) < 4 * len(specs)):
            i = len(ratios)
            walls = {}
            for enabled in ((False, True) if i % 2 == 0 else (True, False)):
                self.recorder.set_enabled(enabled)
                run = self.execute(-1, -1, specs[i % len(specs)])
                if run.error is not None:
                    raise RuntimeError(f"calibration job failed: {run.error}")
                walls[enabled] = run.wall
            ratios.append(walls[True] / walls[False])
        self.recorder.set_enabled(True)
        return statistics.median(ratios) - 1

    def router_hop(self, specs: List[Any]) -> float:
        """Median routed-minus-direct wall of the same hit, over routed wall."""
        from repro.svc import ReproClient

        with contextlib.ExitStack() as stack:
            router = stack.enter_context(ReproClient(self.fleet.url))
            shards = [stack.enter_context(ReproClient(u)) for u in self.fleet.shards]
            owner = {}
            for i, spec in enumerate(specs):
                job_id = router.submit(spec)
                router.wait(job_id, timeout=JOB_WAIT_S)
                owner[i] = shards[int(job_id.split(":", 1)[0][1:])]
            hops, routed = [], []
            for n in range(HOP_PAIRS):
                i = n % len(specs)
                walls = {}
                for via in (("router", "shard") if n % 2 == 0 else ("shard", "router")):
                    conn = router if via == "router" else owner[i]
                    t0 = time.perf_counter()
                    conn.wait(conn.submit(specs[i]), timeout=JOB_WAIT_S)
                    walls[via] = time.perf_counter() - t0
                hops.append(walls["router"] - walls["shard"])
                routed.append(walls["router"])
        return statistics.median(hops) / statistics.median(routed)

    # -- the run --------------------------------------------------------
    def run(self, record_expected: bool) -> Dict[str, Any]:
        """Set up, measure, check and tear down; returns the result line."""
        setup_times = self.setup()
        tracing = self.recorder is not None
        counters: Dict[str, Dict[str, float]] = {}

        def at_window() -> None:
            if tracing and self.svc:
                counters["cut"] = self.fleet.scrape()

        try:
            if self.svc:
                self.client = counting_client(self.fleet.url)
                if tracing:
                    counters["start"] = self.fleet.scrape()
            runs, t_start, t_end, t_cut = self.phase(at_window)
            extras: Dict[str, float] = {
                "svc.client.requests_per_job":
                    self.client.requests / len(runs) if self.svc else 0.0,
            }
            if tracing:
                specs = [r.spec for r in runs if r.round == 0 and r.wire is not None]
                extras["trace.overhead_frac"] = self.calibrate(specs) if specs else 0.0
                extras["svc.router.hop_frac"] = (
                    self.router_hop(specs[:8]) if specs and self.workload == "svc_warm" else 0.0
                )
            errors = self.check(runs, record_expected)
        finally:
            if self.client is not None:
                self.client.close()
            if self.fleet is not None:
                self.fleet.stop()
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

        done = [r for r in runs if r.wire is not None]
        failed = [r for r in runs if r.wire is None]
        scaled = metrics.normalize([(r.start, r.end) for r in done], self.refs)
        latency = metrics.per_position((r.index, s) for r, s in zip(done, scaled))
        if not done:
            errors.append("no job completed")
        print(f"workload {self.workload}  seed {self.seed}  seconds {self.seconds:g}  "
              f"trace {int(tracing)}  rounds {runs[-1].round + 1}  "
              f"phase {t_end - t_start:.2f} s")
        for r in failed[:5]:
            print(f"  failed job {r.round}.{r.index}: {r.error}", file=sys.stderr)
        tail = metrics.tail_samples(len(latency), 90) if latency else 0
        print(f"latency samples: n={len(latency)} job positions ({len(done)} jobs); "
              f"{tail} beyond p90"
              + ("" if tail >= 10 else "  (fewer than 10: p90 is not resolved)"))
        if tracing:
            values = self.layer_metrics(runs, latency, t_start, t_end, t_cut, counters, extras)
            spec = metrics.PER_LAYER
        else:
            values = metrics.latency_summary(latency)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = rss_kb / 1024.0
            spec = metrics.E2E
            wall = metrics.latency_summary(metrics.per_position((r.index, r.wall) for r in done))
            print(f"reference pass: median {statistics.median(v for _, v in self.refs) * 1e3:.3f}"
                  f" ms, nominal {metrics.REF_SECONDS * 1e3:g} ms")
            print("wall clock, unscaled: " + "  ".join(
                f"{name} {value:.6g}" for name, value in wall.items()))
            print("set-ups: " + " ".join(f"{t:.3f}" for t in setup_times) + " s")
        print(metrics.table([(name, f"{values[name]:.6g}", spec[name].unit) for name in spec]))
        for e in errors[:20]:
            print(f"WRONG OUTPUT: {e}", file=sys.stderr)
        if record_expected and not errors:
            write_expected(self.workload, self.window_digests(runs))
        return {
            "correct": not errors,
            "attempted": len(runs),
            "failed": len(failed),
            "metrics": metrics.emit(values, spec),
        }

    def layer_metrics(self, runs, latency, t_start, t_end, t_cut, counters, extras):
        """Per-layer values from the spans, job records and counters."""
        import spans

        all_spans = spans.load(self.trace_dir)
        phase = spans.within(all_spans, t_start, t_end)
        window = spans.within(all_spans, t_start, t_cut)
        own = spans.layer_self(phase)
        done = [r for r in runs if r.wire is not None]
        root_total = spans.total(phase, spans.ROOT_SPAN)
        values = metrics.shares(
            own,
            root_total=root_total,
            client_total=own.get("svc.client", 0.0),
            latency=sum(r.latency for r in done),
            queue_wait=sum(r.queue_wait for r in done),
            lookup=spans.total(phase, "svc.try_cached_result"),
            worker=spans.total(phase, "svc.execute_job"),
        )
        values.update(extras)
        kernel = [s for s in phase if s.name == "sim.kernel.Kernel.run"]
        kernel_s = sum(s.duration for s in kernel)
        explore = [s for s in phase if s.name == "harness.explore_app"]
        explore_s = sum(s.duration for s in explore)
        values["sim.kernel.steps_per_s"] = (
            sum(s.attrs["steps"] for s in kernel) / kernel_s if kernel_s else 0.0)
        values["sim.explore.schedules_per_s"] = (
            sum(s.attrs["schedules"] for s in explore) / explore_s if explore_s else 0.0)
        values["sim.kernel.steps"] = sum(
            s.attrs["steps"] for s in window if s.name == "sim.kernel.Kernel.run")
        wires = [r.wire for r in done if r.round == 0]
        explored = [w for w in wires if w["type"] == "explore"]
        values["sim.explore.schedules"] = sum(w["schedules"] for w in explored)
        values["sim.dpor.sleep_set_prunes"] = sum(
            (w["dpor"] or {}).get("sleep_set_prunes", 0) for w in explored)
        values["sim.dpor.preemption_cuts"] = sum(
            (w["cuts"] or {}).get("preemption_cuts", 0) for w in explored)
        values["infer.candidates"] = sum(
            len(w["candidates"]) for w in wires if w["type"] == "infer")
        start, cut = counters.get("start", {}), counters.get("cut", {})
        for name in ("cache.hit", "cache.partial_hit", "cache.miss", "cache.store",
                     "svc.pool.jobs", "svc.pool.crashes", "svc.jobs.retries"):
            values[name] = cut.get(name, 0) - start.get(name, 0)
        if self.workload == "trials":
            # Positions alternate armed and plain sweeps of one row and seed range.
            armed = sum(w for i, w in latency.items() if i % 2 == 0)
            plain = sum(w for i, w in latency.items() if i % 2 == 1)
            values["core.armed_over_plain"] = armed / plain
        else:
            values["core.armed_over_plain"] = 0.0

        with open(self.dir / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(spans.chrome_trace(phase, t_start), fh)
        layers = sorted(own.items(), key=lambda kv: -kv[1])
        (self.dir / "layers.json").write_text(json.dumps(
            {layer: {"self_s": s, "share_of_root": s / root_total} for layer, s in layers},
            indent=2) + "\n")
        print("self time by layer (spans in the timed phase; shares of client job wall"
              + ("; svc.client spans enclose the server-side layers):" if self.svc else "):"))
        print(metrics.table([("layer", "self_s", "share")] + [
            (layer, f"{s:.4f}", f"{s / root_total:.4f}") for layer, s in layers]))
        print(f"chrome trace: {self.dir / 'trace.json'} ({len(phase)} spans)")
        if values["trace.unattributed_frac"] >= 0.10:
            print("warning: trace.unattributed_frac is 0.10 or more", file=sys.stderr)
        return values


def counting_client(url: str):
    """A keep-alive :class:`repro.svc.ReproClient` that counts the HTTP
    requests it sends in ``requests``."""
    from repro.svc import ReproClient

    client = ReproClient(url)
    client.requests = 0
    send = client._request

    def counted(*args, **kwargs):
        client.requests += 1
        return send(*args, **kwargs)

    client._request = counted
    return client


def write_expected(workload: str, digests: List[Optional[str]]) -> None:
    """Store one workload's seed-0 window digests in expected/seed0.json."""
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    doc[workload] = digests
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload} digests in {EXPECTED}")


def sandbox_tmp(run_dir: Path) -> None:
    """Keep the temporary files of this process, its set-up probes and
    its servers inside the run directory."""
    os.environ["TMPDIR"] = tempfile.tempdir = str(run_dir / "tmp")


# ---------------------------------------------------------------------------
# Several runs
# ---------------------------------------------------------------------------


def orchestrate(args: argparse.Namespace, workloads: Tuple[str, ...]) -> int:
    """Run every workload ``--repeat`` times, alternating, each in its own
    interpreter; print medians and quartiles and one combined result."""
    results: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    rc = 0
    for rep in range(args.repeat):
        order = workloads if rep % 2 == 0 else tuple(reversed(workloads))
        for workload in order:
            seed = 0 if args.record_expected else args.seed + rep
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.record_expected:
                cmd.append("--record-expected")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                rc = rc or proc.returncode or 1
                continue
            results[workload].append(json.loads(lines[-1]))
    if args.repeat > 1:
        print(spread_report(results))
    combined = {
        "correct": rc == 0 and all(d["correct"] for docs in results.values() for d in docs),
        "attempted": sum(d["attempted"] for docs in results.values() for d in docs),
        "failed": sum(d["failed"] for docs in results.values() for d in docs),
        "metrics": {
            f"{w}.{name}": {"value": statistics.median(d["metrics"][name]["value"] for d in docs),
                            "unit": docs[0]["metrics"][name]["unit"]}
            for w, docs in results.items() if docs
            for name in docs[0]["metrics"]
        },
    }
    print(json.dumps(combined))
    return rc


def spread_report(results: Dict[str, List[Dict[str, Any]]]) -> str:
    """Median, quartiles, relative IQR, suggested bound, and the two
    alternated half-sets' medians for every metric of every workload."""
    rows = [("workload", "metric", "median", "q1", "q3", "iqr/med", "bound", "even/odd-1")]
    for workload, docs in results.items():
        if len(docs) < 2:
            continue
        for name in docs[0]["metrics"]:
            values = [d["metrics"][name]["value"] for d in docs]
            med, q1, q3, rel = metrics.spread(values)
            even = statistics.median(values[0::2])
            odd = statistics.median(values[1::2])
            drift = even / odd - 1 if odd else math.inf
            rows.append((workload, name, f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}", f"{rel:.4f}",
                         f"{metrics.suggested_bound(rel):.3f}", f"{drift:+.4f}"))
    return metrics.table(rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def default_seconds() -> float:
    """``run_seconds`` from BENCHMARK.json (20 when it is absent)."""
    try:
        return float(json.loads(BENCHMARK.read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20.0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse the command line and run one workload or orchestrate many."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    import jobs

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=jobs.WORKLOADS, default=None,
                        help="one workload (default: all, each in its own interpreter)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1 = traced run printing the per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run N alternating sets on seeds seed..seed+N-1")
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected/seed0.json from seed-0 runs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.repeat < 1 or args.seconds <= 0:
        parser.error("--repeat and --seconds must be positive")
    if args.record_expected and args.seed != 0:
        parser.error("--record-expected records seed 0")

    if args.setup_probe:
        next(jobs.rounds(args.workload, args.seed))
        jobs.direct(jobs.warmup_spec(args.workload))
        print("ready", flush=True)
        return 0
    if args.workload is None or args.repeat > 1:
        workloads = (args.workload,) if args.workload else jobs.WORKLOADS
        return orchestrate(args, workloads)

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    sandbox_tmp(bench.dir)
    result = bench.run(args.record_expected)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

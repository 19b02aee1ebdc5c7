#!/usr/bin/env python3
"""End-to-end smoke test of the reproduction service, as CI runs it.

Two modes, selected by ``--fleet``:

**Single daemon** (default) exercises the daemon exactly the way an
operator would: start ``python -m repro serve`` as a subprocess on an
ephemeral port, submit one trial job and one exploration job through
the CLI client and diff each output byte for byte against the local
``run``/``explore`` command (only ``submit``'s trailing ``job`` line
may differ), scrape ``/metrics`` for the operational surface (queue
depth gauge, job latency histogram), send SIGTERM, and assert the drain
is clean (exit code 0, port released).

**Fleet** boots two cache-backed daemons plus the consistent-hash
router (``python -m repro route``) as three separate processes, routes
a mixed batch of run/explore/infer jobs through the router, and
asserts every cross-shard result equals the direct in-process library
call — the differential contract, held across process and shard
boundaries.  A warm resubmit must be served from the owning shard's
cache (``cache.hit``).  A **chaos phase** then SIGKILLs one shard with
a batch in flight, admits a spare daemon via ``POST /ring``, retires
the corpse, and asserts every job in the batch still completes
bit-identically to the direct call (the router's failover path).
Finally a SIGTERM to the router must drain the surviving fleet
cleanly.

Usage::

    PYTHONPATH=src python tools/serve_smoke.py [--fleet]

Exits 0 on success, 1 with a diagnostic on any failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TIMEOUT = 90.0


def fail(msg, *procs):
    """Print a diagnostic (plus daemon output, if any) and exit 1."""
    print(f"serve-smoke FAIL: {msg}", file=sys.stderr)
    for proc in procs:
        if proc is None:
            continue
        proc.kill()
        out, _ = proc.communicate(timeout=10)
        print(f"--- output of pid {proc.pid} ---\n{out}", file=sys.stderr)
    sys.exit(1)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return env


def _spawn(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )


def _await_port(port_file, proc, *others):
    """Block until ``proc`` writes its bound port; returns a base URL."""
    deadline = time.monotonic() + TIMEOUT
    while not port_file.exists() or not port_file.read_text().strip():
        if proc.poll() is not None or time.monotonic() > deadline:
            fail("daemon did not come up", proc, *others)
        time.sleep(0.05)
    return f"http://127.0.0.1:{int(port_file.read_text())}"


def _repro(argv, *procs):
    """Run one ``python -m repro`` command to completion; its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=_env(), text=True, capture_output=True, timeout=TIMEOUT,
    )
    if done.returncode != 0:
        fail(f"repro {' '.join(argv)}: rc={done.returncode}:\n"
             f"{done.stdout}{done.stderr}", *procs)
    return done.stdout


#: Single-daemon jobs: a local command, the ``submit --kind`` that sends
#: the same job to the daemon, and a line the output must contain.
#: ``submit`` must print exactly what the local command prints, plus
#: one trailing ``job`` line.
SUBMITS = [
    (["run", "figure4", "error1", "--trials", "5", "--timeout", "0.2"],
     "trials", "reproduced 5/5"),
    (["explore", "figure4", "error1", "--max-schedules", "40"],
     "explore", "witness"),
]


def _terminate_clean(proc, name, *others):
    """SIGTERM ``proc`` and assert a clean drain (rc 0, 'drained')."""
    proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"{name} did not drain within the timeout", proc, *others)
    if proc.returncode != 0:
        fail(f"{name} exited rc={proc.returncode}:\n{out}", *others)
    if "drained" not in out:
        fail(f"no drain confirmation in {name} output:\n{out}", *others)
    print(f"{name}: SIGTERM drain clean (rc=0)")


def single_smoke():
    """The original single-daemon sequence."""
    with tempfile.TemporaryDirectory() as tmp:
        port_file = Path(tmp) / "svc.port"
        daemon = _spawn(["serve", "--port", "0", "--slots", "2",
                         "--port-file", str(port_file)])
        try:
            base = _await_port(port_file, daemon)
            print(f"daemon up on {base}")

            for argv, kind, expect in SUBMITS:
                local = _repro(argv, daemon)
                if expect not in local:
                    fail(f"no {expect!r} in `repro {argv[0]}` output:\n{local}", daemon)
                remote = _repro(["submit", *argv[1:], "--kind", kind,
                                 "--server", base], daemon)
                *body, job = remote.splitlines(keepends=True)
                if not job.startswith("  job            : ") or "".join(body) != local:
                    fail(f"submit --kind {kind} output differs from "
                         f"`repro {argv[0]}`:\n{remote}---\n{local}", daemon)
                print(f"submit --kind {kind} prints exactly like `repro {argv[0]}`")

            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
                snap = json.load(resp)
            for required in ("svc.queue.depth", "svc.job_latency_seconds",
                             "svc.jobs.completed"):
                if required not in snap:
                    fail(f"/metrics missing {required}: {sorted(snap)}", daemon)
            if snap["svc.job_latency_seconds"]["count"] < 1:
                fail("latency histogram recorded nothing", daemon)
            if snap["svc.jobs.completed"]["value"] < 1:
                fail("completion counter recorded nothing", daemon)
            print("metrics OK: queue depth gauge + latency histogram present")

            _terminate_clean(daemon, "daemon")
        finally:
            if daemon.poll() is None:
                daemon.kill()

    print("serve-smoke OK")
    sys.exit(0)


def fleet_smoke():
    """Two shards + router: mixed jobs, differential, chaos, drain."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.apps import get_app
    from repro.harness import explore_summary, run_trials
    from repro.infer import infer_app
    from repro.svc import (
        ConsistentHashRing,
        JobSpec,
        ReproClient,
        routing_fingerprint,
    )
    from repro.svc.jobs import stats_to_wire

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shards, procs = [], []
        try:
            for i in range(2):
                pf = tmp / f"shard{i}.port"
                proc = _spawn([
                    "serve", "--port", "0", "--slots", "2",
                    "--port-file", str(pf),
                    "--cache-dir", str(tmp / f"cache{i}"),
                ])
                procs.append(proc)
                shards.append(_await_port(pf, proc, *procs[:-1]))
            router_pf = tmp / "router.port"
            router_proc = _spawn([
                "route", "--peers", *shards,
                "--port", "0", "--port-file", str(router_pf),
            ])
            procs.append(router_proc)
            base = _await_port(router_pf, router_proc, *procs[:-1])
            print(f"fleet up: router {base} -> shards {', '.join(shards)}")

            client = ReproClient(base)
            health = client.health()
            if health.get("role") != "router" or health.get("status") != "ok":
                fail(f"router health not ok: {health}", *procs)
            if not all(s.get("ok") for s in health.get("shards", [])):
                fail(f"unhealthy shard in {health['shards']}", *procs)
            print("router health OK (2 shards reachable)")

            # Operator path: the stock CLI submits through the router.
            submit = subprocess.run(
                [sys.executable, "-m", "repro", "submit", "figure4", "error1",
                 "--trials", "5", "--timeout", "0.2", "--server", base],
                cwd=REPO, env=_env(), text=True, capture_output=True,
                timeout=TIMEOUT,
            )
            if submit.returncode != 0 or "reproduced 5/5" not in submit.stdout:
                fail(f"CLI submit through router rc={submit.returncode}:\n"
                     f"{submit.stdout}{submit.stderr}", *procs)
            print("CLI submit through router: reproduced 5/5")

            # Mixed job batch, each checked against the direct in-process
            # call — the fleet is a transport, not a semantics.
            remote_trials = client.run_trials("figure4", bug="error1", n=5,
                                              timeout=0.2)
            direct_trials = run_trials(get_app("figure4"), n=5, bug="error1",
                                       timeout=0.2)
            if remote_trials != direct_trials:
                fail("routed trials result differs from direct call", *procs)

            remote_explore = client.explore("figure4", "error1",
                                            max_schedules=50)
            direct_explore = explore_summary("figure4", "error1",
                                             max_schedules=50).to_wire()
            if remote_explore != direct_explore:
                fail("routed explore result differs from direct call", *procs)

            remote_infer = client.infer("bank", trials=10, timeout=0.2)
            direct_infer = infer_app("bank", trials=10, timeout=0.2)
            if remote_infer.to_wire() != direct_infer.to_wire():
                fail("routed infer result differs from direct call", *procs)
            print("mixed run/explore/infer results == direct in-process calls")

            # Every fleet id names its shard; the second identical trials
            # submission above was a warm hit on the owning shard's cache.
            if not all(j["id"].startswith("s") for j in client.jobs()):
                fail("fleet job ids are not shard-prefixed", *procs)
            snap = client.metrics()
            routed = snap.get("svc.router.jobs.routed", {}).get("value", 0)
            if routed < 4:
                fail(f"router routed {routed} jobs, expected >= 4", *procs)
            hits = 0
            for url in shards:
                with urllib.request.urlopen(f"{url}/metrics", timeout=10) as r:
                    hits += json.load(r).get("cache.hit", {}).get("value", 0)
            if hits < 1:
                fail("warm resubmit was not served from a shard cache", *procs)
            print(f"shard caches OK ({hits} warm hit(s)); "
                  f"{routed} jobs routed")

            # --- Chaos phase: kill a shard mid-batch, repair the ring. ---
            spare_pf = tmp / "spare.port"
            spare_proc = _spawn([
                "serve", "--port", "0", "--slots", "2",
                "--port-file", str(spare_pf),
                "--cache-dir", str(tmp / "cache-spare"),
            ])
            procs.append(spare_proc)
            spare = _await_port(spare_pf, spare_proc, *procs[:-1])

            # Build a batch that provably splits across both shards (the
            # local ring mirrors the router's: same URLs, same order).
            ring = ConsistentHashRing(shards)
            chaos, owners = [], []
            for i in range(500):
                if len(chaos) == 8:
                    break
                spec = JobSpec(app="figure4", bug="error1", trials=5,
                               timeout=round(0.21 + i * 1e-3, 4))
                owner = ring.lookup(routing_fingerprint(spec))
                if owners.count(owner) >= 4:
                    continue
                chaos.append(spec)
                owners.append(owner)
            if sorted(set(owners)) != [0, 1]:
                fail(f"chaos batch did not split across shards: {owners}",
                     *procs)

            ids = [client.submit(spec) for spec in chaos]
            procs[0].kill()  # SIGKILL shard 0 with the batch in flight
            procs[0].wait()
            added = client.ring_add(spare)
            print(f"chaos: shard0 SIGKILLed mid-batch; spare {spare} "
                  f"admitted as shard {added['shard']}")

            for job_id, spec in zip(ids, chaos):
                doc = client.wait(job_id, timeout=TIMEOUT)
                if doc["state"] != "done":
                    fail(f"chaos job {job_id} ended {doc['state']}: {doc}",
                         *procs)
                direct = run_trials(get_app(spec.app), n=spec.trials,
                                    bug=spec.bug, timeout=spec.timeout)
                if doc["result"] != stats_to_wire(direct):
                    fail(f"chaos job {job_id} differs from the direct call",
                         *procs)
            snap = client.metrics()
            rescued = sum(
                snap.get(f"svc.router.failover.{k}", {}).get("value", 0)
                for k in ("submit_reroutes", "job_reroutes"))
            if rescued < 1:
                fail(f"no failover recorded for the killed shard: "
                     f"{sorted(k for k in snap if 'failover' in k)}", *procs)
            print(f"chaos: all 8 jobs bit-identical to direct calls "
                  f"({rescued} failover reroute(s))")

            # Retire the corpse; the fleet must report healthy again.
            client.ring_remove(shards[0])
            health = client.health()
            if health.get("status") != "ok" or len(health["shards"]) != 2:
                fail(f"fleet not healthy after ring repair: {health}", *procs)
            print("chaos: dead shard retired via POST /ring; fleet healthy")

            # SIGTERM to the router drains it; each surviving shard then
            # drains on its own SIGTERM (shard 0 died in the chaos phase).
            _terminate_clean(router_proc, "router",
                             *[p for p in procs if p is not router_proc])
            _terminate_clean(procs[1], "shard1", spare_proc)
            _terminate_clean(spare_proc, "spare")
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()

    print("serve-smoke (fleet) OK")
    sys.exit(0)


def main():
    """Run the smoke sequence; exits via sys.exit."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fleet", action="store_true",
                        help="smoke two shards + the consistent-hash router")
    args = parser.parse_args()
    if args.fleet:
        fleet_smoke()
    single_smoke()


if __name__ == "__main__":
    main()

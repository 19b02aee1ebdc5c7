"""``repro.svc`` — reproduction-as-a-service daemon.

Every other entry point in this repository is a one-shot process: it
pays interpreter startup plus the imports its command needs, runs one
sweep, and exits.  The paper's Table 2 subjects are *long-running
servers*, and the ROADMAP's north star is a system serving sustained
traffic — this package closes that gap with a resident daemon that
accepts reproduction jobs over a local HTTP/JSON protocol and executes
them on the existing harness:

* :mod:`repro.svc.protocol` — the ``repro.svc/1`` wire surface;
* :mod:`repro.svc.jobs` — job specs, records, and lossless result
  serialization (the bit-identity layer);
* :mod:`repro.svc.queue` — bounded admission queue with
  reject-with-retry-after backpressure and weighted-fair per-tenant
  lanes (greedy tenants shed with 429, polite tenants unharmed);
* :mod:`repro.svc.http` — the selectors-based async HTTP frontend
  (thousands of keep-alive connections, parked long-polls, one thread);
* :mod:`repro.svc.pool` — the persistent pre-forked worker pool
  (import once, serve many jobs, recycle after N or on crash);
* :mod:`repro.svc.executor` — slot threads that run the jobs the event
  loop hands them on the pool, with wall-clock timeouts and bounded
  crash retry;
* :mod:`repro.svc.server` — the HTTP daemon, whose event-loop thread
  owns all of its state; ``/health`` + ``/metrics`` introspection,
  graceful SIGTERM drain;
* :mod:`repro.svc.router` — the fleet router: cache-affine
  consistent-hash sharding across many daemons, with shard failover,
  health tracking, and live ring rebalancing (``/ring``);
* :mod:`repro.svc.client` — the client library (``ReproClient``).

The service is a **transport layer, never a semantics layer**: a job is
a pure function of its spec, executed by the very same
:func:`repro.harness.run_trials` / :func:`repro.harness.explore_app`
code path the CLI uses, so results returned over the socket are
bit-identical to direct in-process calls (``tests/svc/`` holds the
differential battery; DESIGN.md documents the argument).
"""

import importlib

# The job model stays eager: every other submodule but ``http`` and
# ``protocol`` imports it anyway.
from .jobs import (
    JobRecord,
    JobSpec,
    JobValidationError,
    execute_job,
    stats_from_wire,
    stats_to_wire,
)

#: Re-exported name -> defining submodule, imported on first access:
#: a process that only builds or runs jobs loads no server, router or
#: HTTP client.
_LAZY = {
    "PROTOCOL": "protocol",
    "BackpressureError": "client",
    "JobFailed": "client",
    "ReproClient": "client",
    "ServiceError": "client",
    "AsyncHTTPFrontend": "http",
    "JobExecutor": "executor",
    "WorkerPool": "pool",
    "BoundedJobQueue": "queue",
    "QueueClosed": "queue",
    "QueueFull": "queue",
    "TenantOverShare": "queue",
    "ConsistentHashRing": "router",
    "FleetRouter": "router",
    "routing_fingerprint": "router",
    "ReproService": "server",
    "ServiceDraining": "server",
    "serve_forever": "server",
}

__all__ = [
    *_LAZY,
    "JobRecord",
    "JobSpec",
    "JobValidationError",
    "execute_job",
    "stats_from_wire",
    "stats_to_wire",
]


def __getattr__(name: str):
    """Resolve a re-exported name on first access, then keep it bound."""
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value

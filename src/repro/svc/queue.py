"""Bounded, tenant-fair job queue with reject-with-retry-after backpressure.

The service never buffers unbounded work: a queue of ``maxsize`` jobs is
the only admission buffer, and a submission that finds it full is
*rejected immediately* with a retry hint rather than parked — a slow
consumer must surface as client-visible backpressure, not as silent
memory growth (the HTTP layer maps :class:`QueueFull` to ``503`` +
``Retry-After``).

**Tenancy.** Every :class:`~repro.svc.jobs.JobSpec` carries a ``tenant``
label (default ``"anon"``); the queue keeps one FIFO lane per tenant and
dequeues them weighted-round-robin (:meth:`BoundedJobQueue.get`), so a
tenant's burst delays its *own* backlog, not everyone else's.  On top of
the global capacity check, a tenant whose queued + in-flight occupancy
reaches its fair share of the queue **while other tenants are active**
is shed with :class:`TenantOverShare` (the HTTP layer maps it to ``429``
+ ``Retry-After``).  With a single active tenant neither mechanism can
trigger, so single-tenant (and therefore single-daemon pre-tenancy)
semantics are byte-for-byte the old FIFO queue.

Draining is a one-way door: :meth:`BoundedJobQueue.close` refuses every
subsequent ``put`` (:class:`QueueClosed`), while ``get`` keeps serving
until the backlog is empty — accepted jobs always finish, which is the
in-flight half of the SIGTERM contract.

The queue is a plain object of the daemon's event-loop thread
(:mod:`repro.svc.server`): it needs no lock, and ``get`` never blocks.

Depth is mirrored into the service metrics registry on every transition
(``svc.queue.depth`` gauge, ``svc.queue.high_water``), alongside the
per-tenant families ``svc.tenant.<name>.queued`` /
``svc.tenant.<name>.inflight`` (gauges, bounded to the first
``_TENANT_METRIC_LIMIT`` distinct tenants), ``svc.tenant.shed``
(counter) and ``svc.queue.tenants`` (active-tenant gauge).
"""

from __future__ import annotations

import collections
from typing import Deque, Dict, Optional

from repro.obs.metrics import MetricsRegistry

from .jobs import JobRecord

__all__ = ["QueueFull", "QueueClosed", "TenantOverShare", "BoundedJobQueue"]

#: Per-tenant gauges are emitted for at most this many distinct tenant
#: names (metric keys must stay bounded); accounting itself is exact for
#: every tenant regardless.
_TENANT_METRIC_LIMIT = 32


class QueueFull(Exception):
    """The queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"job queue full, retry after {retry_after:.2f}s")
        self.retry_after = retry_after


class QueueClosed(Exception):
    """The service is draining; no new jobs are accepted."""


class TenantOverShare(Exception):
    """One tenant exceeded its fair queue share while others are active.

    The HTTP layer maps this to ``429 Too Many Requests`` +
    ``Retry-After`` — the *tenant-local* backpressure signal, distinct
    from the global :class:`QueueFull` 503.
    """

    def __init__(self, tenant: str, share: int, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is at its fair share ({share} of the queue); "
            f"retry after {retry_after:.2f}s"
        )
        self.tenant = tenant
        self.share = share
        self.retry_after = retry_after


class BoundedJobQueue:
    """Bounded queue of :class:`~repro.svc.jobs.JobRecord` with one FIFO
    lane per tenant and weighted-round-robin dequeue.

    ``retry_hint`` is a callable returning the suggested client backoff
    in seconds (the service supplies its executor's, based on observed
    job latency); it is consulted only on rejection.  ``tenant_weights``
    maps tenant name to a positive integer dequeue weight (unlisted
    tenants weigh 1): a weight-2 tenant is served two jobs per
    round-robin turn and owns twice the fair share.
    """

    def __init__(
        self,
        maxsize: int,
        metrics: Optional[MetricsRegistry] = None,
        retry_hint=None,
        tenant_weights: Optional[Dict[str, int]] = None,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"queue maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self._lanes: "collections.OrderedDict[str, Deque[JobRecord]]" = (
            collections.OrderedDict()
        )
        self._order: Deque[str] = collections.deque()  # round-robin of lanes
        self._credit: Dict[str, int] = {}  # turns left this RR pass
        self._inflight: Dict[str, int] = {}  # dequeued, not yet finished
        self._depth = 0
        self._closed = False
        self._metrics = metrics
        self._metric_tenants: set = set()
        self._retry_hint = retry_hint
        self._weights = dict(tenant_weights or {})
        for tenant, weight in self._weights.items():
            if int(weight) <= 0:
                raise ValueError(
                    f"tenant weight must be positive, got {tenant}={weight}"
                )

    # ------------------------------------------------------------------
    def _weight(self, tenant: str) -> int:
        """Dequeue weight of ``tenant`` (1 unless configured otherwise)."""
        return int(self._weights.get(tenant, 1))

    @staticmethod
    def _tenant_of(record: JobRecord) -> str:
        """The record's admission-control lane (spec tenant label)."""
        return getattr(record.spec, "tenant", "anon") or "anon"

    def _note_depth(self) -> None:
        """Mirror depth and per-tenant occupancy into the registry."""
        if self._metrics is None:
            return
        self._metrics.gauge("svc.queue.depth", volatile=True).set(self._depth)
        self._metrics.gauge("svc.queue.high_water", volatile=True).max(self._depth)
        self._metrics.gauge("svc.queue.tenants", volatile=True).set(
            len(self._active_tenants())
        )

    def _note_tenant(self, tenant: str) -> None:
        """Refresh one tenant's queued/inflight gauges (bounded keyspace)."""
        if self._metrics is None:
            return
        if tenant not in self._metric_tenants:
            if len(self._metric_tenants) >= _TENANT_METRIC_LIMIT:
                return
            self._metric_tenants.add(tenant)
        lane = self._lanes.get(tenant)
        self._metrics.gauge(f"svc.tenant.{tenant}.queued", volatile=True).set(
            len(lane) if lane else 0
        )
        self._metrics.gauge(f"svc.tenant.{tenant}.inflight", volatile=True).set(
            self._inflight.get(tenant, 0)
        )

    def _active_tenants(self) -> set:
        """Tenants with queued or in-flight work right now."""
        active = {t for t, lane in self._lanes.items() if lane}
        active.update(t for t, n in self._inflight.items() if n > 0)
        return active

    @property
    def depth(self) -> int:
        """Jobs currently queued (excludes running jobs)."""
        return self._depth

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called (drain mode)?"""
        return self._closed

    def tenants_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant ``{"queued": n, "inflight": n}`` occupancy map."""
        out: Dict[str, Dict[str, int]] = {}
        for tenant in self._active_tenants():
            lane = self._lanes.get(tenant)
            out[tenant] = {
                "queued": len(lane) if lane else 0,
                "inflight": self._inflight.get(tenant, 0),
            }
        return out

    # ------------------------------------------------------------------
    def put(self, record: JobRecord) -> None:
        """Enqueue, or reject: :class:`QueueClosed` when draining,
        :class:`QueueFull` at capacity, :class:`TenantOverShare` when
        the record's tenant is at its share and other tenants are active.
        """
        tenant = self._tenant_of(record)
        if self._closed:
            raise QueueClosed("service is draining")
        if self._depth >= self.maxsize:
            if self._metrics is not None:
                self._metrics.counter("svc.queue.rejected", volatile=True).inc()
            hint = self._retry_hint() if self._retry_hint is not None else 1.0
            raise QueueFull(max(0.05, float(hint)))
        active = self._active_tenants()
        active.add(tenant)
        if len(active) > 1:
            total_weight = sum(self._weight(t) for t in active)
            share = max(1, (self.maxsize * self._weight(tenant)) // total_weight)
            lane = self._lanes.get(tenant)
            occupancy = (len(lane) if lane else 0) + self._inflight.get(tenant, 0)
            if occupancy >= share:
                if self._metrics is not None:
                    self._metrics.counter("svc.tenant.shed", volatile=True).inc()
                hint = self._retry_hint() if self._retry_hint is not None else 1.0
                # One slot's worth of backoff, not a full queue drain:
                # the tenant only needs one of its own jobs to finish.
                raise TenantOverShare(
                    tenant, share, max(0.05, float(hint) / self.maxsize)
                )
        lane = self._lanes.get(tenant)
        if lane is None:
            lane = self._lanes[tenant] = collections.deque()
        if not lane and tenant not in self._order:
            self._order.append(tenant)
            self._credit[tenant] = self._weight(tenant)
        lane.append(record)
        self._depth += 1
        self._note_depth()
        self._note_tenant(tenant)

    def get(self) -> Optional[JobRecord]:
        """Dequeue the next job weighted-round-robin across tenant lanes
        (None when nothing is queued).

        Within one lane order is FIFO; across lanes each tenant is served
        ``weight`` jobs per turn.
        """
        if self._depth == 0:
            return None
        tenant = self._order[0]
        lane = self._lanes[tenant]
        record = lane.popleft()
        self._depth -= 1
        self._credit[tenant] -= 1
        if not lane:
            self._order.popleft()
            self._credit.pop(tenant, None)
            del self._lanes[tenant]
        elif self._credit[tenant] <= 0:
            self._order.rotate(-1)
            self._credit[tenant] = self._weight(tenant)
        self._note_depth()
        self._note_tenant(tenant)
        return record

    # ------------------------------------------------------------------
    def note_running(self, record: JobRecord) -> None:
        """Account a dequeued job as in flight for its tenant.

        Called by the executor the moment it hands the job to a slot;
        in-flight occupancy counts against the tenant's fair share, so a
        tenant cannot dodge shedding by keeping the queue short while
        hogging every slot.
        """
        tenant = self._tenant_of(record)
        self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
        self._note_tenant(tenant)
        self._note_depth()

    def note_finished(self, record: JobRecord) -> None:
        """Release a finished job's in-flight share accounting."""
        tenant = self._tenant_of(record)
        left = self._inflight.get(tenant, 0) - 1
        if left > 0:
            self._inflight[tenant] = left
        else:
            self._inflight.pop(tenant, None)
        self._note_tenant(tenant)
        self._note_depth()

    def close(self) -> None:
        """Enter drain mode: refuse puts, keep serving the backlog."""
        self._closed = True

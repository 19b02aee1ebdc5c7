"""Fleet router: cache-affine sharding with failover and live rebalancing.

One :class:`ReproService` daemon scales to its worker pool; a *fleet*
scales to many daemons — if jobs land on shards so that each shard's
content-addressed :class:`~repro.cache.ResultCache` stays hot.  The
router is a thin HTTP tier (same ``repro.svc/1`` protocol, same
:class:`~repro.svc.http.AsyncHTTPFrontend` event loop) in front of N
independent daemons ("shards"), and its one load-bearing decision is the
placement key:

* **Jobs are hashed by their cache storage key**
  (:func:`routing_fingerprint`: the job kind's key function in
  :mod:`repro.cache.fingerprint` — :func:`~repro.cache.trials_key`,
  :func:`~repro.cache.explore_key` or :func:`~repro.cache.infer_key` —
  applied to the job's call keywords), *not* by job id or round
  robin.  The storage key is the identity the cache groups entries
  under — for trial sweeps it deliberately excludes the seed range, so
  overlapping ranges of one config land on one shard and extend one
  entry; resubmits of any cached config are answered from that shard's
  warm cache without a single cross-shard read.  This is also why the
  fleet preserves the parallel == serial contract: a job runs (or is
  served from cache) on exactly one daemon through exactly the same
  code path as a direct call, and the router never splits, merges, or
  re-orders result payloads.
* **Placement is a consistent-hash ring** (:class:`ConsistentHashRing`,
  SHA-256 points, ``replicas`` virtual nodes per peer), so adding or
  removing a daemon remaps only ~1/N of the key space instead of
  reshuffling every shard's cache.

**Fault tolerance.**  Shards die; the fleet must not.  The router keeps
a per-shard health record (consecutive-failure ejection after
``eject_after`` strikes, re-admission by a background ``/health``
prober every ``probe_interval`` seconds) and falls over in two places:

* **Submit failover** — when the owning shard is ejected or refuses the
  connection, the job goes to the next *live* shard in ring-successor
  order (:meth:`ConsistentHashRing.preference`).  A failed ``POST`` is
  **never replayed against the same shard** (it may have accepted the
  job before dying — a same-shard retry would double-submit, the exact
  hazard the client layer refuses to take); moving to a different shard
  is safe because a job is a pure function of its spec — at worst the
  dead shard hosts an orphan execution nobody will ever observe.
* **Mid-job rescue** — a poll that finds the owning shard dead (or the
  job forgotten after a shard restart) re-submits the spec to the next
  live shard and keeps polling under the *original* client-visible id.
  Determinism makes the re-execution invisible: the rescued result is
  bit-identical to what the dead shard would have returned.

**Tenancy.**  The router mirrors the daemons' per-tenant accounting:
every acknowledged job counts against its spec's ``tenant`` label
(``svc.tenant.<name>.inflight``), and an optional
``tenant_inflight_limit`` sheds tenants over the cap with ``429`` +
``Retry-After`` before a single upstream byte is spent.  Shard-local
fairness (weighted-fair dequeue, fair-share shedding) lives in
:mod:`repro.svc.queue`; the router forwards those ``429``\\ s verbatim.

**Live rebalancing.**  ``GET /ring`` reports membership; ``POST /ring``
adds a shard (health-probed before admission) or removes one — removal
stops *new* placements immediately (the ring is rebuilt without the
shard) and waits for the shard's routed in-flight jobs to finish before
retiring it, so a rebalance drops zero jobs and remaps only the hash
ranges that actually moved.  Shard indices are append-only: a removed
shard keeps its index (and its in-flight ids keep resolving) and a
re-added URL gets its old index back, so client-visible ids
``s<shard>:<upstream-id>`` never dangle.

Long-polls are forwarded in bounded chunks by an elastic pool of
forwarder threads (grown on demand up to ``forwarders``, each holding
per-peer keep-alive :class:`~repro.svc.client.ReproClient`
connections), while the router's own event loop parks the downstream
connection for free — past the cap, waiters time-slice poll chunks
instead of failing.

Operational surface (``GET /metrics``): ``svc.router.jobs.routed``,
``svc.router.forwarded``, ``svc.router.upstream_errors``,
``svc.router.peer.<i>.jobs`` / ``.alive`` / ``.inflight`` per shard,
the failover family (``svc.router.failover.submit_reroutes``,
``.job_reroutes``, ``.ejections``, ``.readmissions``, ``.exhausted``),
the membership counters (``svc.router.ring.added`` / ``.removed``), and
``svc.tenant.<name>.inflight`` — ``docs/operations.md`` is the full
reference.
"""

from __future__ import annotations

import bisect
import hashlib
import queue as _queue
import threading
import time
import urllib.parse
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache import explore_key, infer_key, trials_key
from repro.obs.metrics import MetricsRegistry

from . import protocol
from .client import ReproClient
from .http import DEFERRED, AsyncHTTPFrontend, Request, Response
from .jobs import JobSpec, JobValidationError, job_call

__all__ = ["ConsistentHashRing", "routing_fingerprint", "FleetRouter"]

#: Upstream long-polls are chunked so a forwarder thread is never held
#: for a client's full wait budget (seconds).
_POLL_CHUNK = 1.0

#: The routed-job table (client id → current shard placement) is
#: bounded; terminal entries are evicted oldest-first past this size.
_ROUTED_LIMIT = 4096

#: Per-tenant gauges are emitted for at most this many distinct tenant
#: names (metric keys must stay bounded; accounting stays exact).
_TENANT_METRIC_LIMIT = 32


#: The key function of each job kind (:mod:`repro.cache.fingerprint`).
_KEY_FUNCTIONS = {"trials": trials_key, "explore": explore_key, "infer": infer_key}


def routing_fingerprint(spec: JobSpec) -> str:
    """The placement key of one job: its cache storage key.

    The kind's key function applied to the job's call keywords
    (:func:`~repro.svc.jobs.job_call`), the very key the shard's
    :class:`repro.cache.ResultCache` looks the job up and stores it
    under, so two jobs share a routing key if and only if they could
    share a cache entry.  Raises ``KeyError`` for an unknown app — the
    router answers 400 before routing anything.
    """
    first, kw = job_call(spec)
    return _KEY_FUNCTIONS[spec.kind](first, **kw)[0]


class ConsistentHashRing:
    """A classic consistent-hash ring over peer indices.

    Each peer contributes ``replicas`` virtual nodes at
    ``sha256(f"{peer}#{i}")`` points; a key maps to the first node at or
    after its own SHA-256 point (wrapping).  Properties the tests pin
    down: deterministic (same peers → same placements), balanced (no
    peer starves with enough replicas), and *stable* — removing one peer
    moves only the keys that pointed at it, adding one moves keys only
    onto the newcomer.
    """

    def __init__(self, peers: List[str], replicas: int = 64) -> None:
        if not peers:
            raise ValueError("consistent-hash ring needs at least one peer")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.peers = list(peers)
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for idx, peer in enumerate(self.peers):
            for i in range(replicas):
                digest = hashlib.sha256(f"{peer}#{i}".encode("utf-8")).hexdigest()
                points.append((int(digest, 16), idx))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [o for _, o in points]

    def lookup(self, key: str) -> int:
        """Peer index owning ``key``."""
        point = int(hashlib.sha256(key.encode("utf-8")).hexdigest(), 16)
        i = bisect.bisect_right(self._points, point)
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._owners[i]

    def preference(self, key: str) -> Iterator[int]:
        """Peer indices for ``key`` in ring-successor (failover) order.

        The first yielded index is :meth:`lookup`'s owner; each
        subsequent one is the next *distinct* peer walking the ring
        clockwise from the key's point.  This is the fleet's failover
        order: when the owner is dead, its keys spill onto its ring
        successor — the same peer that would own them if the dead shard
        were removed outright, so failover placement and a permanent
        rebalance agree.
        """
        point = int(hashlib.sha256(key.encode("utf-8")).hexdigest(), 16)
        start = bisect.bisect_right(self._points, point)
        seen: set = set()
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == len(self.peers):
                    return


class _Shard:
    """One fleet member's routing state (append-only stable index)."""

    __slots__ = ("idx", "url", "alive", "member", "draining", "failures", "inflight")

    def __init__(self, idx: int, url: str) -> None:
        self.idx = idx
        self.url = url
        self.alive = True  # reachable as far as we know (probed/observed)
        self.member = True  # part of the ring (False once removed)
        self.draining = False  # removal in progress, finishing its jobs
        self.failures = 0  # consecutive upstream failures
        self.inflight = 0  # jobs routed here, not yet observed terminal


class _RoutedJob:
    """Where one accepted job currently lives (for mid-job rescue).

    The client-visible id is fixed at acknowledgement time; the
    ``shard``/``upstream_id`` pair it maps to changes when the job is
    rescued onto a different shard.  ``lock`` serializes rescuers so two
    concurrent pollers cannot both re-submit the job.
    """

    __slots__ = (
        "visible_id",
        "fingerprint",
        "body",
        "tenant",
        "shard",
        "upstream_id",
        "failovers",
        "terminal",
        "lock",
    )

    def __init__(
        self,
        visible_id: str,
        fingerprint: str,
        body: Dict[str, Any],
        tenant: str,
        shard: int,
        upstream_id: str,
    ) -> None:
        self.visible_id = visible_id
        self.fingerprint = fingerprint
        self.body = body
        self.tenant = tenant
        self.shard = shard
        self.upstream_id = upstream_id
        self.failovers = 0
        self.terminal = False
        self.lock = threading.Lock()


class _Forwarders:
    """Elastic thread pool running upstream HTTP calls off the event loop.

    Threads are spawned on demand — a task submitted while no thread is
    idle grows the pool, up to ``max_threads`` — so an upstream
    long-poll can hold a thread for its whole chunk without starving
    other waiters of poll slots.  Past the cap, tasks queue and waiters
    degrade gracefully to time-sliced chunks.  Each thread keeps one
    keep-alive :class:`ReproClient` per peer (clients are not
    thread-safe, so they are thread-local); tasks are plain thunks and
    may re-enqueue themselves (chunked long-polls).  ``peers`` is the
    router's **append-only** URL table, shared by reference, so shards
    admitted after startup are addressable without restarting the pool.
    """

    def __init__(self, peers: List[str], max_threads: int, timeout: float) -> None:
        self._peers = peers
        self._timeout = timeout
        self._max = max(1, max_threads)
        self._tasks: "_queue.Queue[Optional[Callable[[], None]]]" = _queue.Queue()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        #: Every client ever handed out, so stop() can close their
        #: keep-alive sockets (thread-locals are unreachable from stop).
        self._clients: List[ReproClient] = []
        self._idle = 0
        self._stopping = False

    def client(self, idx: int) -> ReproClient:
        """This thread's keep-alive client for peer ``idx``."""
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        if idx not in clients:
            created = ReproClient(self._peers[idx], timeout=self._timeout)
            with self._lock:
                self._clients.append(created)
            clients[idx] = created
        return clients[idx]

    def submit(self, task: Callable[[], None]) -> None:
        """Enqueue one thunk, growing the pool if no thread is idle."""
        with self._lock:
            if self._stopping:
                return
            if self._idle == 0 and len(self._threads) < self._max:
                t = threading.Thread(
                    target=self._run,
                    name=f"svc-fwd-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(t)
                t.start()
        self._tasks.put(task)

    def _run(self) -> None:
        while True:
            with self._lock:
                self._idle += 1
            try:
                task = self._tasks.get()
            finally:
                with self._lock:
                    self._idle -= 1
            if task is None:
                return
            try:
                task()
            except Exception:  # noqa: BLE001 - a bad forward must not kill the pool
                pass

    def stop(self, timeout: float = 5.0) -> None:
        """Drain the workers and close every keep-alive upstream socket."""
        with self._lock:
            self._stopping = True
            threads = list(self._threads)
        for _ in threads:
            self._tasks.put(None)
        for t in threads:
            t.join(timeout=timeout)
        # Close upstream keep-alive sockets after the workers exit —
        # including clients created by tasks that were already dequeued
        # when _stopping flipped.
        with self._lock:
            clients, self._clients = list(self._clients), []
        for c in clients:
            try:
                c.close()
            except Exception:  # noqa: BLE001 - closing a dead socket is fine
                pass


class FleetRouter:
    """The fleet's front door: one address, N cache-affine shards.

    Speaks the daemon's own protocol, so every existing client — the
    CLI, :class:`ReproClient`, the bench — points at a router URL
    unchanged.  ``peers`` are daemon base URLs (``http://host:port``).

    Fault-tolerance knobs: ``eject_after`` consecutive upstream
    failures eject a shard from placement (a failed background probe
    ejects immediately); a prober thread re-checks every
    ``probe_interval`` seconds and re-admits recovered shards (``0``
    disables the thread).  ``failover=False`` restores the strict
    owner-only routing of the pre-failover router — no health tracking,
    no rescue — which the throughput bench uses to price the hardened
    path.  ``tenant_inflight_limit`` (``0`` = off) sheds any single
    tenant holding that many unfinished fleet jobs with ``429``, in
    either mode.
    """

    def __init__(
        self,
        peers: List[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replicas: int = 64,
        forwarders: int = 64,
        upstream_timeout: float = 30.0,
        probe_interval: float = 2.0,
        eject_after: int = 3,
        failover: bool = True,
        tenant_inflight_limit: int = 0,
    ) -> None:
        if eject_after <= 0:
            raise ValueError(f"eject_after must be positive, got {eject_after}")
        self.host = host
        self.requested_port = port
        self.metrics = MetricsRegistry()
        self.replicas = replicas
        self._failover = failover
        self._probe_interval = probe_interval
        self._eject_after = eject_after
        self._tenant_limit = tenant_inflight_limit
        #: Append-only: a shard keeps its index forever (ids ``s<i>:...``
        #: must resolve across membership changes); removal just clears
        #: its ``member`` flag.
        self._shards: List[_Shard] = [
            _Shard(i, url) for i, url in enumerate(peers)
        ]
        self._urls: List[str] = [s.url for s in self._shards]  # shared w/ pool
        self.ring = ConsistentHashRing(self._urls, replicas=replicas)
        self._ring_to_stable: List[int] = list(range(len(self._shards)))
        self._routed: "Dict[str, _RoutedJob]" = {}
        self._routed_order: List[str] = []  # FIFO for bounded eviction
        self._tenant_inflight: Dict[str, int] = {}
        self._metric_tenants: set = set()
        self._forwarders_n = forwarders
        self._upstream_timeout = upstream_timeout
        self._forwarders: Optional[_Forwarders] = None
        self._frontend: Optional[AsyncHTTPFrontend] = None
        self._prober: Optional[threading.Thread] = None
        self._probe_stop = threading.Event()
        self._draining = False
        self._lock = threading.Lock()
        self.metrics.gauge("svc.router.peers").set(len(self._shards))
        for s in self._shards:
            self.metrics.gauge(f"svc.router.peer.{s.idx}.alive", volatile=True).set(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        """Probe the shards, start the forwarder pool, bind the frontend.

        The synchronous startup probe is load-bearing: a peer that is
        unreachable *now* is marked dead *now*, so the first ``/health``
        reports it degraded and the first submission routes around it —
        instead of the router claiming a healthy fleet it never checked.
        """
        self._forwarders = _Forwarders(
            self._urls, self._forwarders_n, self._upstream_timeout
        )
        self._probe_all()
        if self._failover and self._probe_interval > 0:
            self._prober = threading.Thread(
                target=self._probe_loop, name="svc-router-probe", daemon=True
            )
            self._prober.start()
        self._frontend = AsyncHTTPFrontend(
            self._handle,
            self.host,
            self.requested_port,
            metrics=self.metrics,
            on_disconnect=self._on_parked_disconnect,
            name="svc-router",
        ).start()
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._frontend is not None, "router not started"
        return self._frontend.port

    @property
    def address(self) -> str:
        """Base URL clients should use."""
        return f"http://{self.host}:{self.port}"

    @property
    def peers(self) -> List[str]:
        """Base URLs of the current ring members (stable-index order)."""
        with self._lock:
            return [s.url for s in self._shards if s.member]

    def describe(self) -> str:
        """One-line banner for ``repro route``."""
        with self._lock:
            parts = [
                f"{s.url}{'' if s.alive else ' (DOWN)'}"
                for s in self._shards
                if s.member
            ]
        return (
            f"repro.svc fleet router on {self.address} "
            f"({len(parts)} shard(s): {', '.join(parts)})"
        )

    def __enter__(self) -> "FleetRouter":
        if self._frontend is None:
            self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop intake, fan ``/drain`` out to every member, stop serving."""
        with self._lock:
            self._draining = True
            members = [s for s in self._shards if s.member]
        deadline = None if timeout is None else time.monotonic() + timeout
        for s in members:
            try:
                remaining = self._upstream_timeout
                if deadline is not None:
                    remaining = max(0.1, deadline - time.monotonic())
                ReproClient(s.url, timeout=remaining).drain()
            except Exception:  # noqa: BLE001 - a dead peer is already drained
                pass
        self.close()
        return True

    def close(self) -> None:
        """Stop the prober, frontend, and forwarder pool (peers keep running)."""
        self._probe_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
            self._prober = None
        if self._frontend is not None:
            self._frontend.stop()
            self._frontend = None
        if self._forwarders is not None:
            self._forwarders.stop()
            self._forwarders = None

    # ------------------------------------------------------------------
    # Shard health (ejection / re-admission state machine)
    # ------------------------------------------------------------------
    def _note_peer_failure(self, idx: int) -> None:
        """One more consecutive failure; eject at ``eject_after``."""
        with self._lock:
            s = self._shards[idx]
            s.failures += 1
            if s.alive and s.failures >= self._eject_after:
                self._eject_locked(s)

    def _note_peer_down(self, idx: int) -> None:
        """Definitive death (failed health probe): eject immediately."""
        with self._lock:
            s = self._shards[idx]
            s.failures = max(s.failures, self._eject_after)
            if s.alive:
                self._eject_locked(s)

    def _note_peer_ok(self, idx: int) -> None:
        """A successful upstream exchange: reset strikes, re-admit."""
        with self._lock:
            s = self._shards[idx]
            s.failures = 0
            if not s.alive:
                s.alive = True
                self.metrics.counter(
                    "svc.router.failover.readmissions", volatile=True
                ).inc()
                self.metrics.gauge(
                    f"svc.router.peer.{idx}.alive", volatile=True
                ).set(1)

    def _eject_locked(self, s: _Shard) -> None:
        """Flip one shard to dead (caller holds the lock).

        Ejection does **not** rebuild the ring: placement falls through
        to the ring successor via :meth:`_candidates_for`, so a flapping
        shard keeps its hash ranges (and its warm cache) for the moment
        it comes back.  Only membership changes remap the ring.
        """
        s.alive = False
        self.metrics.counter("svc.router.failover.ejections", volatile=True).inc()
        self.metrics.gauge(f"svc.router.peer.{s.idx}.alive", volatile=True).set(0)

    def _probe_loop(self) -> None:
        """Background prober: re-check every member shard periodically."""
        while not self._probe_stop.wait(self._probe_interval):
            self._probe_all()

    def _probe_all(self) -> None:
        """Probe every member's ``/health`` once, on fresh connections."""
        with self._lock:
            members = [s for s in self._shards if s.member]
        for s in members:
            probe = ReproClient(s.url, timeout=min(2.0, self._upstream_timeout))
            try:
                probe.health()
            except Exception:  # noqa: BLE001 - any failure means unreachable
                self._note_peer_down(s.idx)
            else:
                self._note_peer_ok(s.idx)
            finally:
                probe.close()

    def _candidates_for(self, fingerprint: str) -> Tuple[List[int], List[int]]:
        """``(preference, live)`` stable shard indices for one key.

        ``preference`` is the full ring-successor order over members;
        ``live`` filters it to shards currently believed reachable.
        """
        with self._lock:
            ring, mapping = self.ring, self._ring_to_stable
            pref = [mapping[r] for r in ring.preference(fingerprint)]
            live = [i for i in pref if self._shards[i].alive]
        return pref, live

    # ------------------------------------------------------------------
    # Routed-job table (mid-job rescue bookkeeping)
    # ------------------------------------------------------------------
    def _register_routed(
        self,
        visible_id: str,
        fingerprint: str,
        body: Dict[str, Any],
        tenant: str,
        idx: int,
        upstream_id: str,
    ) -> None:
        """Track an acknowledged job for rescue and share accounting."""
        entry = _RoutedJob(visible_id, fingerprint, body, tenant, idx, upstream_id)
        with self._lock:
            self._routed[visible_id] = entry
            self._routed_order.append(visible_id)
            self._shards[idx].inflight += 1
            self._tenant_inflight[tenant] = self._tenant_inflight.get(tenant, 0) + 1
            self._note_shard_locked(idx)
            self._note_tenant_locked(tenant)
            self._evict_routed_locked()

    def _evict_routed_locked(self) -> None:
        """Bound the routed table: drop oldest (terminal-first) entries."""
        while len(self._routed) > _ROUTED_LIMIT:
            victim_key = next(
                (k for k in self._routed_order if self._routed[k].terminal),
                self._routed_order[0],
            )
            self._routed_order.remove(victim_key)
            victim = self._routed.pop(victim_key)
            if not victim.terminal:
                victim.terminal = True  # stop accounting against shares
                self._release_accounting_locked(victim)

    def _settle_routed(self, entry: _RoutedJob) -> None:
        """Mark a routed job terminal exactly once, releasing its shares."""
        with self._lock:
            if entry.terminal:
                return
            entry.terminal = True
            self._release_accounting_locked(entry)

    def _release_accounting_locked(self, entry: _RoutedJob) -> None:
        """Decrement the shard and tenant in-flight counts of one entry."""
        s = self._shards[entry.shard]
        s.inflight = max(0, s.inflight - 1)
        left = self._tenant_inflight.get(entry.tenant, 0) - 1
        if left > 0:
            self._tenant_inflight[entry.tenant] = left
        else:
            self._tenant_inflight.pop(entry.tenant, None)
        self._note_shard_locked(entry.shard)
        self._note_tenant_locked(entry.tenant)

    def _note_shard_locked(self, idx: int) -> None:
        """Mirror one shard's routed in-flight count into the registry."""
        self.metrics.gauge(f"svc.router.peer.{idx}.inflight", volatile=True).set(
            self._shards[idx].inflight
        )

    def _note_tenant_locked(self, tenant: str) -> None:
        """Mirror one tenant's in-flight count (bounded metric keyspace)."""
        if tenant not in self._metric_tenants:
            if len(self._metric_tenants) >= _TENANT_METRIC_LIMIT:
                return
            self._metric_tenants.add(tenant)
        self.metrics.gauge(f"svc.tenant.{tenant}.inflight", volatile=True).set(
            self._tenant_inflight.get(tenant, 0)
        )

    # ------------------------------------------------------------------
    # HTTP handling (event-loop thread — must not block)
    # ------------------------------------------------------------------
    def _handle(self, request: Request, token: Any):
        path = request.path
        if request.method == "GET":
            if path == "/health":
                return self._defer(token, self._health_task)
            if path == "/metrics":
                return Response(200, self.metrics.snapshot())
            if path == "/ring":
                return Response(200, self._ring_doc())
            if path == "/jobs":
                return self._defer(token, self._list_task)
            if path.startswith("/jobs/"):
                return self._handle_get_job(request, token)
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        if request.method == "POST":
            if path == "/jobs":
                return self._handle_submit(request, token)
            if path == "/ring":
                return self._handle_ring_post(request, token)
            if path == "/drain":
                with self._lock:
                    self._draining = True
                self._fan_out(lambda client: client.drain())
                return Response(
                    202, {"draining": True, "protocol": protocol.PROTOCOL}
                )
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        return Response(404, protocol.error_body(f"unsupported method {request.method}"))

    def _on_parked_disconnect(self, token: Any) -> None:
        with self._lock:
            self.metrics.counter("svc.http.disconnects", volatile=True).inc()

    def _defer(self, token: Any, task: Callable[[Any], None]):
        """Park the connection and hand the slow work to a forwarder."""
        assert self._forwarders is not None
        self._forwarders.submit(lambda: task(token))
        return DEFERRED

    def _complete(self, token: Any, response: Response) -> None:
        frontend = self._frontend
        if frontend is not None:
            frontend.complete(token, response)

    def _count(self, name: str) -> None:
        with self._lock:
            self.metrics.counter(name, volatile=True).inc()

    @staticmethod
    def _retry_headers(status: int, doc: Dict[str, Any]) -> Optional[Dict[str, str]]:
        """``Retry-After`` header for forwarded backpressure responses."""
        if status in (503, 429) and doc.get("retry_after") is not None:
            return {"Retry-After": f"{float(doc['retry_after']):.3f}"}
        return None

    # ------------------------------------------------------------------
    # Submission routing (with failover)
    # ------------------------------------------------------------------
    def _handle_submit(self, request: Request, token: Any):
        with self._lock:
            if self._draining:
                return Response(
                    503, protocol.error_body("service is draining", draining=True)
                )
        try:
            spec = JobSpec.from_json(protocol.loads(request.body)).validate()
            fingerprint = routing_fingerprint(spec)
        except (ValueError, JobValidationError, KeyError) as exc:
            return Response(400, protocol.error_body(str(exc)))
        tenant = spec.tenant
        if self._tenant_limit > 0:
            with self._lock:
                held = self._tenant_inflight.get(tenant, 0)
            if held >= self._tenant_limit:
                self._count("svc.tenant.shed")
                return Response(
                    429,
                    protocol.error_body(
                        f"tenant {tenant!r} has {held} fleet jobs in flight "
                        f"(limit {self._tenant_limit})",
                        retry_after=0.5,
                    ),
                    headers={"Retry-After": "0.500"},
                )
        self._count("svc.router.jobs.routed")
        body = spec.to_json()

        def task(tok: Any = token) -> None:
            assert self._forwarders is not None
            pref, live = self._candidates_for(fingerprint)
            # Dead owner → ring successors.  With no live shard at all,
            # still try the owner: it reproduces the honest failure
            # (connection refused → 502) instead of inventing one.
            candidates = (live or pref[:1]) if self._failover else pref[:1]
            last_error: Optional[str] = None
            for hop, idx in enumerate(candidates):
                client = self._forwarders.client(idx)
                try:
                    status, doc = client._request("POST", "/jobs", body=body)
                except Exception as exc:  # noqa: BLE001 - dead shard → next hop
                    # Never replay the POST against the same shard: it
                    # may have accepted before dying, and a same-shard
                    # replay could double-submit.  Moving on is safe —
                    # an orphan execution is unobservable.
                    self._count("svc.router.upstream_errors")
                    if self._failover:
                        self._note_peer_failure(idx)
                    last_error = f"{self._shards[idx].url}: {exc}"
                    continue
                if self._failover:
                    self._note_peer_ok(idx)
                self._count("svc.router.forwarded")
                if status == 202 and "id" in doc:
                    visible = f"s{idx}:{doc['id']}"
                    self._count(f"svc.router.peer.{idx}.jobs")
                    if hop > 0:
                        self._count("svc.router.failover.submit_reroutes")
                    self._register_routed(
                        visible, fingerprint, body, tenant, idx, doc["id"]
                    )
                    doc["id"] = visible
                    self._complete(tok, Response(202, doc))
                    return
                # Shard is alive but refused (503 backlog, 429 tenant
                # share, 400...): forward verbatim — rerouting a full
                # queue elsewhere would defeat both affinity and the
                # fairness accounting.
                self._complete(
                    tok, Response(status, doc, headers=self._retry_headers(status, doc))
                )
                return
            self._count("svc.router.failover.exhausted")
            self._complete(
                tok,
                Response(
                    502,
                    protocol.error_body(
                        f"no live shard accepted the job ({last_error})"
                    ),
                ),
            )

        return self._defer(token, lambda tok: task(tok))

    # ------------------------------------------------------------------
    # Result forwarding (chunked upstream long-polls, mid-job rescue)
    # ------------------------------------------------------------------
    def _parse_routed_id(self, raw: str) -> Optional[Tuple[int, str]]:
        """Split ``s<peer>:<id>`` (quoted or not) into its parts."""
        job_id = urllib.parse.unquote(raw)
        if not job_id.startswith("s"):
            return None
        head, sep, rest = job_id.partition(":")
        if not sep or not rest:
            return None
        try:
            idx = int(head[1:])
        except ValueError:
            return None
        if not 0 <= idx < len(self._shards):
            return None
        return idx, rest

    def _handle_get_job(self, request: Request, token: Any):
        raw = request.path[len("/jobs/"):]
        visible_id = urllib.parse.unquote(raw)
        wait, err = protocol.parse_wait(request.query)
        if err is not None:
            return Response(400, protocol.error_body(err))
        deadline = None if wait is None else time.monotonic() + wait

        def task(tok: Any = token) -> None:
            assert self._forwarders is not None
            # A parked downstream conn that died is a wasted upstream
            # poll — stop early (complete() on it is a no-op anyway).
            if getattr(tok, "dead", False):
                return
            with self._lock:
                entry = self._routed.get(visible_id)
            if entry is not None:
                idx, upstream_id = entry.shard, entry.upstream_id
            else:
                parsed = self._parse_routed_id(raw)
                if parsed is None:
                    self._complete(
                        tok,
                        Response(
                            404,
                            protocol.error_body(
                                "no such job (fleet ids look like "
                                "'s<shard>:<job-id>')"
                            ),
                        ),
                    )
                    return
                idx, upstream_id = parsed
            remaining = None if deadline is None else deadline - time.monotonic()
            chunk = None
            if remaining is not None and remaining > 0:
                chunk = min(_POLL_CHUNK, remaining)
            client = self._forwarders.client(idx)
            try:
                status, doc = client.result_raw(upstream_id, wait=chunk)
            except Exception as exc:  # noqa: BLE001 - dead shard → rescue or 502
                self._count("svc.router.upstream_errors")
                if self._failover:
                    self._note_peer_failure(idx)
                if entry is not None:
                    if self._failover:
                        self._rescue(tok, entry, idx, task)
                        return
                    # Without failover the job is lost, and so are its shares.
                    self._settle_routed(entry)
                self._complete(
                    tok,
                    Response(
                        502,
                        protocol.error_body(
                            f"upstream shard {self._shards[idx].url} "
                            f"unreachable: {exc}"
                        ),
                    ),
                )
                return
            if self._failover:
                self._note_peer_ok(idx)
            self._count("svc.router.forwarded")
            if status == 404 and entry is not None and not entry.terminal:
                # The shard restarted and forgot the job (the process
                # is gone but the port answers): same recovery as a
                # dead shard — re-place the spec elsewhere.  Without
                # failover the job is lost, and so are its shares.
                if self._failover:
                    self._rescue(tok, entry, idx, task)
                    return
                self._settle_routed(entry)
            if status == 200 and "id" in doc:
                # The id the client polls stays stable across rescues.
                doc["id"] = visible_id
            terminal = doc.get("state") in ("done", "failed")
            if terminal and entry is not None:
                self._settle_routed(entry)
            out_of_time = remaining is None or remaining - (chunk or 0.0) <= 0
            if status != 200 or terminal or out_of_time:
                self._complete(tok, Response(status, doc))
                return
            # Still running and wait budget left: re-enqueue so the
            # forwarder thread is freed between chunks.
            self._forwarders.submit(lambda: task(tok))

        return self._defer(token, lambda tok: task(tok))

    def _rescue(
        self,
        tok: Any,
        entry: _RoutedJob,
        failed_idx: int,
        task: Callable[..., None],
    ) -> None:
        """Move a lost in-flight job to the next live shard, keep polling.

        Runs on a forwarder thread with the poll that discovered the
        loss.  The per-entry lock serializes rescuers: concurrent
        pollers of the same job either win the lock and re-place the
        job once, or observe the (possibly updated) placement and
        simply poll again — never a second re-submission.
        """
        assert self._forwarders is not None
        if not entry.lock.acquire(blocking=False):
            time.sleep(0.05)  # another poller is re-placing it right now
            self._forwarders.submit(lambda: task(tok))
            return
        try:
            with self._lock:
                moved = entry.terminal or entry.shard != failed_idx
                exhausted = entry.failovers >= len(self._shards)
            if moved:
                self._forwarders.submit(lambda: task(tok))
                return
            if not exhausted:
                _, live = self._candidates_for(entry.fingerprint)
                targets = [i for i in live if i != failed_idx]
            else:
                targets = []
            for idx in targets:
                client = self._forwarders.client(idx)
                try:
                    status, doc = client._request(
                        "POST", "/jobs", body=entry.body
                    )
                except Exception:  # noqa: BLE001 - also dead → next candidate
                    self._count("svc.router.upstream_errors")
                    self._note_peer_failure(idx)
                    continue
                if status == 202 and "id" in doc:
                    with self._lock:
                        old = self._shards[entry.shard]
                        old.inflight = max(0, old.inflight - 1)
                        self._note_shard_locked(entry.shard)
                        entry.shard = idx
                        entry.upstream_id = doc["id"]
                        entry.failovers += 1
                        self._shards[idx].inflight += 1
                        self._note_shard_locked(idx)
                    self._count("svc.router.failover.job_reroutes")
                    self._count(f"svc.router.peer.{idx}.jobs")
                    self._forwarders.submit(lambda: task(tok))
                    return
                if status in (503, 429):
                    # Alive but shedding: re-poll shortly; the original
                    # placement's failure will re-trigger the rescue.
                    time.sleep(min(0.2, float(doc.get("retry_after", 0.1))))
                    self._forwarders.submit(lambda: task(tok))
                    return
            self._count("svc.router.failover.exhausted")
            self._settle_routed(entry)
            self._complete(
                tok,
                Response(
                    502,
                    protocol.error_body(
                        f"job {entry.visible_id} lost: shard "
                        f"{self._shards[failed_idx].url} died and no live "
                        f"shard could take the job over"
                    ),
                ),
            )
        finally:
            entry.lock.release()

    # ------------------------------------------------------------------
    # Ring membership (live rebalancing)
    # ------------------------------------------------------------------
    def _rebuild_ring_locked(self) -> None:
        """Recompute the ring over current members (caller holds lock).

        A shard being drained for removal is excluded the moment the
        removal is requested — new placements skip it immediately —
        while its stable index (and its in-flight ids) remain valid.
        """
        members = [s for s in self._shards if s.member and not s.draining]
        self.ring = ConsistentHashRing(
            [s.url for s in members], replicas=self.replicas
        )
        self._ring_to_stable = [s.idx for s in members]
        self.metrics.gauge("svc.router.peers").set(len(members))

    def _ring_doc(self) -> Dict[str, Any]:
        """The ``GET /ring`` membership document."""
        with self._lock:
            shards = [
                {
                    "shard": s.idx,
                    "url": s.url,
                    "member": s.member,
                    "alive": s.alive,
                    "draining": s.draining,
                    "failures": s.failures,
                    "inflight": s.inflight,
                }
                for s in self._shards
            ]
        return {
            "protocol": protocol.PROTOCOL,
            "replicas": self.replicas,
            "shards": shards,
        }

    def _handle_ring_post(self, request: Request, token: Any):
        try:
            doc = protocol.loads(request.body)
        except ValueError as exc:
            return Response(400, protocol.error_body(str(exc)))
        action = doc.get("action")
        peer = doc.get("peer")
        if action not in ("add", "remove"):
            return Response(
                400, protocol.error_body("ring action must be 'add' or 'remove'")
            )
        if not isinstance(peer, str) or not peer.startswith("http://"):
            return Response(
                400, protocol.error_body("peer must be an http://host:port URL")
            )
        if action == "add":
            return self._defer(token, lambda tok: self._ring_add_task(tok, peer))
        try:
            drain_timeout = float(doc.get("drain_timeout", 30.0))
        except (TypeError, ValueError):
            return Response(400, protocol.error_body("drain_timeout must be a number"))
        with self._lock:
            target = next(
                (s for s in self._shards if s.member and s.url == peer), None
            )
            if target is None:
                return Response(
                    404, protocol.error_body(f"{peer} is not a ring member")
                )
            actives = [s for s in self._shards if s.member and not s.draining]
            if len(actives) <= 1:
                return Response(
                    400,
                    protocol.error_body(
                        "refusing to remove the last shard from the ring"
                    ),
                )
            target.draining = True
            self._rebuild_ring_locked()  # new placements skip it from now on
        return self._defer(
            token, lambda tok: self._ring_remove_task(tok, target, drain_timeout)
        )

    def _ring_add_task(self, tok: Any, peer: str) -> None:
        """Probe and admit one shard (forwarder thread: does I/O)."""
        probe = ReproClient(peer, timeout=min(2.0, self._upstream_timeout))
        try:
            probe.health()
        except Exception as exc:  # noqa: BLE001 - refuse unreachable peers
            self._complete(
                tok,
                Response(
                    502,
                    protocol.error_body(
                        f"cannot admit {peer}: health probe failed ({exc})"
                    ),
                ),
            )
            return
        finally:
            probe.close()
        with self._lock:
            existing = next((s for s in self._shards if s.url == peer), None)
            if existing is not None and existing.member and not existing.draining:
                self._complete(
                    tok,
                    Response(
                        409,
                        protocol.error_body(f"{peer} is already a ring member"),
                    ),
                )
                return
            if existing is not None:
                # Rejoining shard gets its old stable index back, so any
                # still-circulating s<idx>: ids point at the right URL.
                existing.member = True
                existing.draining = False
                existing.alive = True
                existing.failures = 0
                shard = existing
            else:
                shard = _Shard(len(self._shards), peer)
                self._shards.append(shard)
                self._urls.append(peer)  # visible to the forwarder pool
            self.metrics.gauge(
                f"svc.router.peer.{shard.idx}.alive", volatile=True
            ).set(1)
            self._rebuild_ring_locked()
            self.metrics.counter("svc.router.ring.added", volatile=True).inc()
        self._complete(
            tok,
            Response(
                200,
                {
                    "added": peer,
                    "shard": shard.idx,
                    "protocol": protocol.PROTOCOL,
                },
            ),
        )

    def _ring_remove_task(
        self, tok: Any, target: _Shard, drain_timeout: float
    ) -> None:
        """Wait out a departing shard's in-flight jobs, then retire it.

        The shard was already dropped from placement by the handler;
        this waits for jobs the router routed there (tracked in the
        routed table) to reach a terminal state — zero dropped jobs —
        then clears membership.  The wait polls the departing shard
        itself, so jobs nobody is long-polling right now still drain
        (their results stay fetchable on the shard until it is
        retired).  On timeout the shard is retired anyway
        (``"drained": false``): its leftovers are rescued by the
        mid-job path if a client is still polling them.
        """
        assert self._forwarders is not None
        deadline = time.monotonic() + max(0.0, drain_timeout)
        while time.monotonic() < deadline:
            with self._lock:
                if target.inflight == 0:
                    break
                pending = [
                    e
                    for e in self._routed.values()
                    if e.shard == target.idx and not e.terminal
                ]
            probe = self._forwarders.client(target.idx)
            for entry in pending:
                try:
                    status, doc = probe.result_raw(entry.upstream_id)
                except Exception:  # noqa: BLE001 - shard died mid-drain:
                    break  # the rescue path owns its jobs from here on
                if status == 404 or (
                    status == 200 and doc.get("state") in ("done", "failed")
                ):
                    self._settle_routed(entry)
            time.sleep(0.05)
        with self._lock:
            drained = target.inflight == 0
            target.member = False
            target.draining = False
            self._rebuild_ring_locked()
            self.metrics.counter("svc.router.ring.removed", volatile=True).inc()
        self._complete(
            tok,
            Response(
                200,
                {
                    "removed": target.url,
                    "shard": target.idx,
                    "drained": drained,
                    "protocol": protocol.PROTOCOL,
                },
            ),
        )

    # ------------------------------------------------------------------
    # Aggregated endpoints (run on a forwarder thread)
    # ------------------------------------------------------------------
    def _member_indices(self) -> List[int]:
        """Stable indices of current members, for fan-out endpoints."""
        with self._lock:
            return [s.idx for s in self._shards if s.member]

    def _fan_out(self, call: Callable[[ReproClient], Any]) -> None:
        """Run ``call`` against every member on a forwarder thread."""
        assert self._forwarders is not None

        def task() -> None:
            assert self._forwarders is not None
            for idx in self._member_indices():
                try:
                    call(self._forwarders.client(idx))
                except Exception:  # noqa: BLE001 - best-effort broadcast
                    self._count("svc.router.upstream_errors")

        self._forwarders.submit(task)

    def _health_task(self, token: Any) -> None:
        assert self._forwarders is not None
        shards = []
        all_ok = True
        for idx in self._member_indices():
            entry: Dict[str, Any] = {"url": self._shards[idx].url, "shard": idx}
            try:
                entry["health"] = self._forwarders.client(idx).health()
                entry["ok"] = entry["health"].get("status") in ("ok", "draining")
            except Exception as exc:  # noqa: BLE001 - a dead peer is reported, not raised
                self._count("svc.router.upstream_errors")
                entry["ok"] = False
                entry["error"] = str(exc)
            # Fold the live probe into the tracked health state, so a
            # /health request doubles as an out-of-band probe tick.
            if self._failover:
                if entry["ok"]:
                    self._note_peer_ok(idx)
                else:
                    self._note_peer_down(idx)
            with self._lock:
                s = self._shards[idx]
                entry["alive"] = s.alive
                entry["failures"] = s.failures
                entry["inflight"] = s.inflight
            all_ok = all_ok and entry["ok"]
            shards.append(entry)
        with self._lock:
            draining = self._draining
            tenants = dict(self._tenant_inflight)
        body = {
            "status": "draining" if draining else ("ok" if all_ok else "degraded"),
            "protocol": protocol.PROTOCOL,
            "role": "router",
            "shards": shards,
            "tenants": tenants,
        }
        self._complete(token, Response(200, body))

    def _list_task(self, token: Any) -> None:
        assert self._forwarders is not None
        jobs: List[Dict[str, Any]] = []
        for idx in self._member_indices():
            try:
                for rec in self._forwarders.client(idx).jobs():
                    rec["id"] = f"s{idx}:{rec['id']}"
                    jobs.append(rec)
            except Exception:  # noqa: BLE001 - skip unreachable shards in listings
                self._count("svc.router.upstream_errors")
        self._complete(token, Response(200, {"jobs": jobs}))

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

**One thread owns the state.**  The frontend's event-loop thread is the
only thread that reads or writes the router's state: the ring, shard
health, the routed-job table, tenant and shard in-flight counts, the
draining flag and the router's metrics.  Forwarder threads only make
the upstream HTTP call; each answer (the ``(status, doc)`` pair, or the
exception) comes back through :meth:`AsyncHTTPFrontend.schedule
<repro.svc.http.AsyncHTTPFrontend.schedule>`, and a loop method decides
what happens next.  Health probes and a departing shard's drain are
loop timers.  So every routing decision is one step of one thread — a
tenant's cap check and its slot reservation cannot interleave with
another submit — and needs no lock.

**Fault tolerance.**  Shards die; the fleet must not.  The router keeps
a per-shard health record (consecutive-failure ejection after
``eject_after`` strikes, re-admission by a ``/health`` probe every
``probe_interval`` seconds) and falls over in two places:

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
  live shard, other than that one, that holds no copy of the job (a
  shard that answered 404 for its copy holds none), and keeps polling
  under the *original* client-visible id; a job moves at most once per
  shard in the fleet.  Determinism makes the re-execution invisible:
  the rescued result is bit-identical to what the dead shard would
  have returned.

**Tenancy.**  The router mirrors the daemons' per-tenant accounting:
every job counts against its spec's ``tenant`` label
(``svc.tenant.<name>.inflight``) from the moment it is admitted until
it is settled, and an optional ``tenant_inflight_limit`` sheds tenants
over the cap with ``429`` + ``Retry-After`` before a single upstream
byte is spent.  Shard-local fairness (round-robin dequeue,
fair-share shedding) lives in :mod:`repro.svc.queue`; the router
forwards those ``429``\\ s verbatim.

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
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

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

#: Seconds one upstream request may take before it counts as failed.
_HOP_TIMEOUT = 30.0

#: Seconds a ``/health`` probe may take before the shard counts as down.
_PROBE_TIMEOUT = 2.0

#: Seconds between a departing shard's drain polls, and before a poller
#: that found its job being re-placed polls again.
_RETRY_DELAY = 0.05

#: The routed-job table (client id → current shard placement) is
#: bounded; terminal entries are evicted oldest-first past this size.
_ROUTED_LIMIT = 4096

#: Per-tenant gauges are emitted for at most this many distinct tenant
#: names (metric keys must stay bounded; accounting stays exact).
_TENANT_METRIC_LIMIT = 32


#: The key function of each job kind (:mod:`repro.cache.fingerprint`).
_KEY_FUNCTIONS = {"trials": trials_key, "explore": explore_key, "infer": infer_key}

#: A reply handler: takes an upstream answer, runs on the loop thread.
_Reply = Callable[[Any], None]


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
    """One admitted job: its spec, and where it currently lives.

    The client-visible id is fixed when a shard accepts the job; the
    ``shard``/``upstream_id`` pair it maps to changes when the job is
    rescued onto a different shard (``failovers`` counts the moves).
    ``holders`` are the shards that may hold a copy of the job: the job
    is never posted to one of them.  A shard joins when a ``POST`` is
    sent to it and leaves when that ``POST`` is refused before it was
    sent, when it answers the ``POST`` without taking the job, or when
    it answers a poll of its copy with 404 (it restarted and forgot
    the job).  ``moving`` is set while a rescue's ``POST`` is out, so a
    second poller waits for it instead of re-placing the job a second
    time.
    """

    __slots__ = (
        "visible_id",
        "fingerprint",
        "body",
        "tenant",
        "shard",
        "upstream_id",
        "holders",
        "failovers",
        "moving",
        "terminal",
    )

    def __init__(self, fingerprint: str, body: Dict[str, Any], tenant: str) -> None:
        self.visible_id = ""
        self.fingerprint = fingerprint
        self.body = body
        self.tenant = tenant
        self.shard = -1
        self.upstream_id = ""
        self.holders: Set[int] = set()
        self.failovers = 0
        self.moving = False
        self.terminal = False


class _Forwarders:
    """Elastic thread pool making the router's upstream HTTP calls.

    The threads do upstream I/O and nothing else: :meth:`request` sends
    one request on a pool thread and hands its answer to ``deliver``
    (the frontend's ``schedule``), so the reply handler runs on the
    loop thread that owns the router's state.  Threads are spawned on
    demand — a request made while no thread is idle grows the pool, up
    to ``max_threads`` — so an upstream long-poll can hold a thread for
    its whole chunk without starving other waiters of poll slots.  Past
    the cap, requests queue and waiters degrade gracefully to
    time-sliced chunks.  Each thread keeps one keep-alive
    :class:`ReproClient` per upstream URL (clients are not thread-safe,
    so they are thread-local).
    """

    def __init__(
        self,
        max_threads: int,
        deliver: Callable[[Callable[[], None]], None],
    ) -> None:
        self._deliver = deliver
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

    def request(
        self,
        url: str,
        method: str,
        path: str,
        reply: _Reply,
        body: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> None:
        """Send one request to ``url`` on a pool thread.

        ``reply(answer)`` then runs on the loop thread, where ``answer``
        is the ``(status, doc)`` pair or the exception the exchange
        raised.
        """

        def task() -> None:
            try:
                answer: Any = self._client(url)._request(
                    method, path, body=body, timeout=timeout
                )
            except Exception as exc:  # noqa: BLE001 - the reply handler decides
                answer = exc
            self._deliver(lambda: reply(answer))

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

    def _client(self, url: str) -> ReproClient:
        """This thread's keep-alive client for ``url``."""
        clients = getattr(self._local, "clients", None)
        if clients is None:
            clients = self._local.clients = {}
        if url not in clients:
            created = ReproClient(url, timeout=_HOP_TIMEOUT)
            with self._lock:
                self._clients.append(created)
            clients[url] = created
        return clients[url]

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
            task()

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


def _health_error(answer: Any) -> Optional[str]:
    """Why one ``/health`` answer shows an unhealthy peer (None if healthy)."""
    if isinstance(answer, Exception):
        return str(answer)
    status, doc = answer
    if status >= 400:
        return f"HTTP {status}: {doc.get('error', 'unknown error')}"
    if doc.get("status") not in ("ok", "draining"):
        return f"status {doc.get('status')!r}"
    return None


class FleetRouter:
    """The fleet's front door: one address, N cache-affine shards.

    Speaks the daemon's own protocol, so every existing client — the
    CLI, :class:`ReproClient`, the bench — points at a router URL
    unchanged.  ``peers`` are daemon base URLs (``http://host:port``).

    Threading: after :meth:`start`, the frontend's event-loop thread
    owns every piece of routing state, and the forwarder threads only
    talk upstream (see the module docstring).  Once started,
    :attr:`peers`, :meth:`describe` and :meth:`drain` may be called from
    any thread: they run their reads and writes on the loop through
    :meth:`AsyncHTTPFrontend.call
    <repro.svc.http.AsyncHTTPFrontend.call>` and wait for them.  Before
    :meth:`start` no loop exists and the caller owns the state.

    Fault-tolerance knobs: ``eject_after`` consecutive upstream
    failures eject a shard from placement (a failed ``/health`` probe
    ejects immediately); a loop timer probes every member every
    ``probe_interval`` seconds and re-admits recovered shards (``0``
    disables the timer; the synchronous startup probe always runs).
    ``tenant_inflight_limit`` (``0`` = off) sheds any single tenant
    holding that many unfinished fleet jobs with ``429``.
    """

    def __init__(
        self,
        peers: List[str],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replicas: int = 64,
        forwarders: int = 64,
        probe_interval: float = 2.0,
        eject_after: int = 3,
        tenant_inflight_limit: int = 0,
    ) -> None:
        if eject_after <= 0:
            raise ValueError(f"eject_after must be positive, got {eject_after}")
        self.host = host
        self.requested_port = port
        self.metrics = MetricsRegistry()
        self.replicas = replicas
        self._probe_interval = probe_interval
        self._eject_after = eject_after
        self._tenant_limit = tenant_inflight_limit
        #: Append-only: a shard keeps its index forever (ids ``s<i>:...``
        #: must resolve across membership changes); removal just clears
        #: its ``member`` flag.
        self._shards: List[_Shard] = [
            _Shard(i, url) for i, url in enumerate(peers)
        ]
        self.ring = ConsistentHashRing(list(peers), replicas=replicas)
        self._ring_to_stable: List[int] = list(range(len(self._shards)))
        #: Accepted jobs by visible id; dict order is acceptance order.
        self._routed: "Dict[str, _RoutedJob]" = {}
        self._tenant_inflight: Dict[str, int] = {}
        self._metric_tenants: set = set()
        self._forwarders_n = forwarders
        self._forwarders: Optional[_Forwarders] = None
        self._frontend: Optional[AsyncHTTPFrontend] = None
        self._draining = False
        self.metrics.gauge("svc.router.peers").set(len(self._shards))
        for s in self._shards:
            self.metrics.gauge(f"svc.router.peer.{s.idx}.alive", volatile=True).set(1)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetRouter":
        """Probe the shards, then start the forwarder pool and the loop.

        The synchronous startup probe is load-bearing: a peer that is
        unreachable *now* is marked dead *now*, so the first ``/health``
        reports it degraded and the first submission routes around it —
        instead of the router claiming a healthy fleet it never checked.
        Its results are applied before the loop thread exists.
        """
        frontend = AsyncHTTPFrontend(
            self._handle,
            self.host,
            self.requested_port,
            metrics=self.metrics,
            on_disconnect=self._on_parked_disconnect,
            name="svc-router",
        )
        self._forwarders = _Forwarders(self._forwarders_n, frontend.schedule)
        self._probe_all()
        if self._probe_interval > 0:
            frontend.call_later(self._probe_interval, self._probe_tick)
        self._frontend = frontend
        frontend.start()
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
        return self._frontend.call(lambda: [s.url for s in self._shards if s.member])

    def describe(self) -> str:
        """One-line banner for ``repro route``."""
        parts = self._frontend.call(
            lambda: [
                f"{s.url}{'' if s.alive else ' (DOWN)'}"
                for s in self._shards
                if s.member
            ]
        )
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

        def stop_intake() -> List[str]:
            self._draining = True
            return [s.url for s in self._shards if s.member]

        members = self._frontend.call(stop_intake)
        deadline = None if timeout is None else time.monotonic() + timeout
        for url in members:
            try:
                remaining = _HOP_TIMEOUT
                if deadline is not None:
                    remaining = max(0.1, deadline - time.monotonic())
                ReproClient(url, timeout=remaining).drain()
            except Exception:  # noqa: BLE001 - a dead peer is already drained
                pass
        self.close()
        return True

    def close(self) -> None:
        """Stop the frontend (and its timers), then the forwarder pool."""
        if self._frontend is not None:
            self._frontend.stop()
        if self._forwarders is not None:
            self._forwarders.stop()
            self._forwarders = None

    # ------------------------------------------------------------------
    # Shard health (ejection / re-admission state machine)
    # ------------------------------------------------------------------
    def _note_peer_failure(self, idx: int) -> None:
        """One more consecutive failure; eject at ``eject_after``."""
        s = self._shards[idx]
        s.failures += 1
        if s.alive and s.failures >= self._eject_after:
            self._eject(s)

    def _note_peer_down(self, idx: int) -> None:
        """Definitive death (failed health probe): eject immediately."""
        s = self._shards[idx]
        s.failures = max(s.failures, self._eject_after)
        if s.alive:
            self._eject(s)

    def _note_peer_ok(self, idx: int) -> None:
        """A successful upstream exchange: reset strikes, re-admit."""
        s = self._shards[idx]
        s.failures = 0
        if not s.alive:
            s.alive = True
            self.metrics.counter(
                "svc.router.failover.readmissions", volatile=True
            ).inc()
            self.metrics.gauge(f"svc.router.peer.{idx}.alive", volatile=True).set(1)

    def _eject(self, s: _Shard) -> None:
        """Flip one shard to dead.

        Ejection does **not** rebuild the ring: placement falls through
        to the ring successor via :meth:`_candidates_for`, so a flapping
        shard keeps its hash ranges (and its warm cache) for the moment
        it comes back.  Only membership changes remap the ring.
        """
        s.alive = False
        self.metrics.counter("svc.router.failover.ejections", volatile=True).inc()
        self.metrics.gauge(f"svc.router.peer.{s.idx}.alive", volatile=True).set(0)

    def _probed(self, idx: int, answer: Any) -> Optional[str]:
        """Fold one ``/health`` answer into shard ``idx``'s health.

        Returns why the shard is unhealthy, or None.
        """
        error = _health_error(answer)
        if error is None:
            self._note_peer_ok(idx)
        else:
            self._note_peer_down(idx)
        return error

    def _exchanged(self, idx: int, answer: Any) -> bool:
        """Count one upstream job exchange and fold it into ``idx``'s health.

        Returns True if the shard answered at all (any HTTP status).
        """
        if isinstance(answer, Exception):
            self.metrics.counter("svc.router.upstream_errors", volatile=True).inc()
            self._note_peer_failure(idx)
            return False
        self.metrics.counter("svc.router.forwarded", volatile=True).inc()
        self._note_peer_ok(idx)
        return True

    def _probe_all(self) -> None:
        """The startup probe: every member's ``/health``, synchronously.

        Runs on the caller's thread before the loop exists, on fresh
        connections.
        """
        for s in self._shards:
            probe = ReproClient(s.url, timeout=_PROBE_TIMEOUT)
            try:
                answer: Any = probe._request("GET", "/health")
            except Exception as exc:  # noqa: BLE001 - any failure means unreachable
                answer = exc
            finally:
                probe.close()
            self._probed(s.idx, answer)

    def _probe_tick(self) -> None:
        """Loop timer: probe every member, re-arm once all have answered."""
        idxs = self._member_indices()

        def probed(answers: List[Any]) -> None:
            for idx, answer in zip(idxs, answers):
                self._probed(idx, answer)
            self._frontend.call_later(self._probe_interval, self._probe_tick)

        self._gather(
            [(idx, "/health") for idx in idxs], probed, timeout=_PROBE_TIMEOUT
        )

    def _candidates_for(self, fingerprint: str) -> Tuple[List[int], List[int]]:
        """``(preference, live)`` stable shard indices for one key.

        ``preference`` is the full ring-successor order over members;
        ``live`` filters it to shards currently believed reachable.
        """
        pref = [self._ring_to_stable[r] for r in self.ring.preference(fingerprint)]
        return pref, [i for i in pref if self._shards[i].alive]

    # ------------------------------------------------------------------
    # Accounting (tenant slots, shard in-flight counts, routed table)
    # ------------------------------------------------------------------
    def _add_tenant(self, tenant: str, delta: int) -> None:
        """Take (``+1``) or release (``-1``) one of ``tenant``'s slots."""
        left = self._tenant_inflight.get(tenant, 0) + delta
        if left > 0:
            self._tenant_inflight[tenant] = left
        else:
            self._tenant_inflight.pop(tenant, None)
        if tenant not in self._metric_tenants:
            if len(self._metric_tenants) >= _TENANT_METRIC_LIMIT:
                return  # bounded metric keyspace; accounting stays exact
            self._metric_tenants.add(tenant)
        self.metrics.gauge(f"svc.tenant.{tenant}.inflight", volatile=True).set(
            max(left, 0)
        )

    def _add_shard(self, idx: int, delta: int) -> None:
        """Count one more (``+1``) or one fewer (``-1``) job on shard ``idx``."""
        s = self._shards[idx]
        s.inflight = max(0, s.inflight + delta)
        self.metrics.gauge(f"svc.router.peer.{idx}.inflight", volatile=True).set(
            s.inflight
        )

    def _register_routed(self, job: _RoutedJob, idx: int, upstream_id: str) -> None:
        """Track a job shard ``idx`` accepted (its tenant slot is already held)."""
        job.visible_id = f"s{idx}:{upstream_id}"
        job.shard, job.upstream_id = idx, upstream_id
        stale = self._routed.pop(job.visible_id, None)
        if stale is not None:  # a restarted shard handed out the id again
            self._settle_routed(stale)
        self._routed[job.visible_id] = job
        self._add_shard(idx, 1)
        while len(self._routed) > _ROUTED_LIMIT:
            # Evict the oldest terminal entry, else the oldest entry
            # (which then stops counting against its shares).
            victim = next(
                (k for k, e in self._routed.items() if e.terminal),
                next(iter(self._routed)),
            )
            self._settle_routed(self._routed.pop(victim))

    def _settle_routed(self, job: _RoutedJob) -> None:
        """Mark a routed job terminal exactly once, releasing its shares."""
        if job.terminal:
            return
        job.terminal = True
        self._add_shard(job.shard, -1)
        self._add_tenant(job.tenant, -1)

    # ------------------------------------------------------------------
    # HTTP handling (event-loop thread — must not block)
    # ------------------------------------------------------------------
    def _handle(self, request: Request, token: Any):
        path = request.path
        if request.method == "GET":
            if path == "/health":
                return self._handle_health(token)
            if path == "/metrics":
                return Response(200, self.metrics.snapshot())
            if path == "/ring":
                return Response(200, self._ring_doc())
            if path == "/jobs":
                return self._handle_list(token)
            if path.startswith("/jobs/"):
                return self._handle_get_job(request, token)
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        if request.method == "POST":
            if path == "/jobs":
                return self._handle_submit(request, token)
            if path == "/ring":
                return self._handle_ring_post(request, token)
            if path == "/drain":
                self._draining = True
                for idx in self._member_indices():
                    self._send(idx, "POST", "/drain", self._failed)
                return Response(
                    202, {"draining": True, "protocol": protocol.PROTOCOL}
                )
            return Response(404, protocol.error_body(f"no such endpoint {path!r}"))
        return Response(404, protocol.error_body(f"unsupported method {request.method}"))

    def _on_parked_disconnect(self, token: Any) -> None:
        self.metrics.counter("svc.http.disconnects", volatile=True).inc()

    def _send(self, idx: int, method: str, path: str, reply: _Reply, **kw: Any) -> None:
        """Hand one request to shard ``idx`` to a forwarder's ``request``."""
        self._forwarders.request(self._shards[idx].url, method, path, reply, **kw)

    def _gather(
        self, requests: List[Tuple[int, str]], done: _Reply, **kw: Any
    ) -> None:
        """``GET`` each ``(idx, path)``; ``done(answers)``, in order, once all are in."""
        answers: Dict[int, Any] = {}

        def reply(i: int, answer: Any) -> None:
            answers[i] = answer
            if len(answers) == len(requests):
                done([answers[j] for j in range(len(requests))])

        for i, (idx, path) in enumerate(requests):
            self._send(idx, "GET", path, lambda a, i=i: reply(i, a), **kw)

    def _failed(self, answer: Any) -> bool:
        """True, counted as an upstream error, if a fan-out answer failed."""
        failed = isinstance(answer, Exception) or answer[0] >= 400
        if failed:
            self.metrics.counter("svc.router.upstream_errors", volatile=True).inc()
        return failed

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
        held = self._tenant_inflight.get(tenant, 0)
        if 0 < self._tenant_limit <= held:
            self.metrics.counter("svc.tenant.shed", volatile=True).inc()
            return Response(
                429,
                protocol.error_body(
                    f"tenant {tenant!r} has {held} fleet jobs in flight "
                    f"(limit {self._tenant_limit})",
                    retry_after=0.5,
                ),
                headers={"Retry-After": "0.500"},
            )
        # The check above and this reservation are one loop step, so no
        # other submit can slip between them.  The slot is released if
        # no shard accepts the job, and otherwise when it is settled.
        self._add_tenant(tenant, 1)
        self.metrics.counter("svc.router.jobs.routed", volatile=True).inc()
        job = _RoutedJob(fingerprint, spec.to_json(), tenant)
        pref, live = self._candidates_for(fingerprint)
        # Dead owner → ring successors.  With no live shard at all,
        # still try the owner: it reproduces the honest failure
        # (connection refused → 502) instead of inventing one.
        self._submit_to(token, job, live or pref[:1], "")
        return DEFERRED

    def _submit_to(
        self, token: Any, job: _RoutedJob, candidates: List[int], error: str
    ) -> None:
        """POST a new job to the first of ``candidates``, the rest in reserve."""
        if not candidates:
            self.metrics.counter("svc.router.failover.exhausted", volatile=True).inc()
            self._add_tenant(job.tenant, -1)
            msg = f"no live shard accepted the job ({error})"
            self._frontend.complete(token, Response(502, protocol.error_body(msg)))
            return
        idx, rest = candidates[0], candidates[1:]
        job.holders.add(idx)

        def reply(answer: Any) -> None:
            if not self._exchanged(idx, answer):
                # Never replay the POST against the same shard: it may
                # have accepted before dying, and a same-shard replay
                # could double-submit.  Moving on is safe — an orphan
                # execution is unobservable.
                if isinstance(answer, ConnectionRefusedError):
                    job.holders.discard(idx)  # the POST never left
                self._submit_to(
                    token, job, rest, f"{self._shards[idx].url}: {answer}"
                )
                return
            status, doc = answer
            if status == 202 and "id" in doc:
                self.metrics.counter(f"svc.router.peer.{idx}.jobs", volatile=True).inc()
                if error:  # an earlier candidate failed
                    self.metrics.counter(
                        "svc.router.failover.submit_reroutes", volatile=True
                    ).inc()
                self._register_routed(job, idx, doc["id"])
                doc["id"] = job.visible_id
                self._frontend.complete(token, Response(202, doc))
                return
            # Shard is alive but refused (503 backlog, 429 tenant
            # share, 400...): forward verbatim — rerouting a full
            # queue elsewhere would defeat both affinity and the
            # fairness accounting.
            self._add_tenant(job.tenant, -1)
            self._frontend.complete(
                token, Response(status, doc, headers=self._retry_headers(status, doc))
            )

        self._send(idx, "POST", "/jobs", reply, body=job.body)

    # ------------------------------------------------------------------
    # Result forwarding (chunked upstream long-polls, mid-job rescue)
    # ------------------------------------------------------------------
    def _parse_routed_id(self, job_id: str) -> Optional[Tuple[int, str]]:
        """Split ``s<peer>:<id>`` into its parts."""
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
        visible_id = urllib.parse.unquote(request.path[len("/jobs/"):])
        wait, err = protocol.parse_wait(request.query)
        if err is not None:
            return Response(400, protocol.error_body(err))
        if visible_id not in self._routed and self._parse_routed_id(visible_id) is None:
            return Response(
                404,
                protocol.error_body(
                    "no such job (fleet ids look like 's<shard>:<job-id>')"
                ),
            )
        deadline = None if wait is None else time.monotonic() + wait
        self._poll(token, visible_id, deadline)
        return DEFERRED

    def _poll(self, token: Any, visible_id: str, deadline: Optional[float]) -> None:
        """Forward one long-poll chunk for ``visible_id`` to its shard."""
        # A parked downstream conn that died is a wasted upstream
        # poll — stop early (complete() on it is a no-op anyway).
        if getattr(token, "dead", False):
            return
        job = self._routed.get(visible_id)
        if job is not None:
            idx, upstream_id = job.shard, job.upstream_id
        else:
            idx, upstream_id = self._parse_routed_id(visible_id)  # type: ignore[misc]
        remaining = None if deadline is None else deadline - time.monotonic()
        chunk = None
        if remaining is not None and remaining > 0:
            chunk = min(_POLL_CHUNK, remaining)
        path, timeout = f"/jobs/{urllib.parse.quote(upstream_id)}", None
        if chunk is not None:
            path += f"?wait={chunk:g}"
            timeout = max(_HOP_TIMEOUT, chunk + 10.0)

        def reply(answer: Any) -> None:
            if not self._exchanged(idx, answer):
                if job is not None and not job.terminal:
                    self._rescue(token, job, (idx, upstream_id), deadline)
                    return
                msg = f"upstream shard {self._shards[idx].url} unreachable: {answer}"
                self._frontend.complete(token, Response(502, protocol.error_body(msg)))
                return
            status, doc = answer
            if status == 404 and job is not None and not job.terminal:
                # The shard restarted and forgot the job (the process
                # is gone but the port answers): it holds no copy now,
                # and the job is re-placed elsewhere as from a dead shard.
                if (job.shard, job.upstream_id) == (idx, upstream_id):
                    job.holders.discard(idx)
                self._rescue(token, job, (idx, upstream_id), deadline)
                return
            if status == 200 and "id" in doc:
                # The id the client polls stays stable across rescues.
                doc["id"] = visible_id
            terminal = doc.get("state") in ("done", "failed")
            if terminal and job is not None:
                self._settle_routed(job)
            out_of_time = remaining is None or remaining - (chunk or 0.0) <= 0
            if status != 200 or terminal or out_of_time:
                self._frontend.complete(token, Response(status, doc))
                return
            self._poll(token, visible_id, deadline)  # budget left: next chunk

        self._send(idx, "GET", path, reply, timeout=timeout)

    def _rescue(
        self,
        token: Any,
        job: _RoutedJob,
        lost: Tuple[int, str],
        deadline: Optional[float],
    ) -> None:
        """Move a lost in-flight job to the next live shard, keep polling.

        Runs with the poll reply that found the copy ``lost`` (a
        ``(shard, upstream id)`` placement) gone.  A poller that finds
        the job already moved polls its new placement; one that finds a
        move under way polls again shortly, so the job is re-placed
        once, never twice.  The job never goes back to the shard that
        lost it, nor to one that may hold a copy, and it moves at most
        ``len(shards)`` times.
        """
        if job.moving:
            self._frontend.call_later(
                _RETRY_DELAY, lambda: self._poll(token, job.visible_id, deadline)
            )
            return
        if (job.shard, job.upstream_id) != lost:
            self._poll(token, job.visible_id, deadline)
            return
        targets: List[int] = []
        if job.failovers < len(self._shards):
            _, live = self._candidates_for(job.fingerprint)
            targets = [i for i in live if i != lost[0] and i not in job.holders]
        job.moving = True
        self._rescue_to(token, job, targets, deadline)

    def _rescue_to(
        self, token: Any, job: _RoutedJob, targets: List[int], deadline: Optional[float]
    ) -> None:
        """POST a lost job to the first of ``targets``, the rest in reserve.

        The job stays placed on the shard that lost it until one accepts.
        """
        if not targets:
            job.moving = False
            self.metrics.counter("svc.router.failover.exhausted", volatile=True).inc()
            self._settle_routed(job)
            msg = (
                f"job {job.visible_id} lost: shard {self._shards[job.shard].url} "
                f"died and no live shard could take the job over"
            )
            self._frontend.complete(token, Response(502, protocol.error_body(msg)))
            return
        idx, rest = targets[0], targets[1:]
        job.holders.add(idx)

        def reply(answer: Any) -> None:
            if not self._exchanged(idx, answer):
                if isinstance(answer, ConnectionRefusedError):
                    job.holders.discard(idx)  # the POST never left
                self._rescue_to(token, job, rest, deadline)
                return
            status, doc = answer
            if status == 202 and "id" in doc:
                job.moving = False
                if not job.terminal:
                    self._add_shard(job.shard, -1)
                    self._add_shard(idx, 1)
                job.shard, job.upstream_id = idx, doc["id"]
                job.failovers += 1
                self.metrics.counter(
                    "svc.router.failover.job_reroutes", volatile=True
                ).inc()
                self.metrics.counter(f"svc.router.peer.{idx}.jobs", volatile=True).inc()
                self._poll(token, job.visible_id, deadline)
                return
            job.holders.discard(idx)  # it answered, and did not take the job
            if status in (503, 429):
                # Alive but shedding: re-poll shortly; the original
                # placement's failure will re-trigger the rescue.
                job.moving = False
                self._frontend.call_later(
                    min(0.2, float(doc.get("retry_after", 0.1))),
                    lambda: self._poll(token, job.visible_id, deadline),
                )
                return
            self._rescue_to(token, job, rest, deadline)

        self._send(idx, "POST", "/jobs", reply, body=job.body)

    # ------------------------------------------------------------------
    # Ring membership (live rebalancing)
    # ------------------------------------------------------------------
    def _rebuild_ring(self) -> None:
        """Recompute the ring over current members.

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

    def _member_indices(self) -> List[int]:
        """Stable indices of current members, for fan-out endpoints."""
        return [s.idx for s in self._shards if s.member]

    def _ring_doc(self) -> Dict[str, Any]:
        """The ``GET /ring`` membership document."""
        return {
            "protocol": protocol.PROTOCOL,
            "replicas": self.replicas,
            "shards": [
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
            ],
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
            self._forwarders.request(
                peer,
                "GET",
                "/health",
                lambda answer: self._admit(token, peer, answer),
                timeout=_PROBE_TIMEOUT,
            )
            return DEFERRED
        try:
            drain_timeout = float(doc.get("drain_timeout", 30.0))
        except (TypeError, ValueError):
            return Response(400, protocol.error_body("drain_timeout must be a number"))
        target = next((s for s in self._shards if s.member and s.url == peer), None)
        if target is None:
            return Response(404, protocol.error_body(f"{peer} is not a ring member"))
        if target.draining:
            return Response(409, protocol.error_body(f"{peer} is already draining"))
        if sum(1 for s in self._shards if s.member and not s.draining) <= 1:
            return Response(
                400,
                protocol.error_body("refusing to remove the last shard from the ring"),
            )
        target.draining = True
        self._rebuild_ring()  # new placements skip it from now on
        self._drain_tick(token, target, time.monotonic() + max(0.0, drain_timeout))
        return DEFERRED

    def _admit(self, token: Any, peer: str, answer: Any) -> None:
        """Admit ``peer`` to the ring once its health probe has answered."""
        error = _health_error(answer)
        if error is not None:
            msg = f"cannot admit {peer}: health probe failed ({error})"
            self._frontend.complete(token, Response(502, protocol.error_body(msg)))
            return
        shard = next((s for s in self._shards if s.url == peer), None)
        if shard is not None and shard.member:
            why = "is already a ring member"
            if shard.draining:  # it may rejoin once its removal is done
                why = "is draining out of the ring"
            response = Response(409, protocol.error_body(f"{peer} {why}"))
            self._frontend.complete(token, response)
            return
        if shard is None:
            shard = _Shard(len(self._shards), peer)
            self._shards.append(shard)
        # A rejoining shard gets its old stable index back, so any
        # still-circulating s<idx>: ids point at the right URL.
        shard.member, shard.alive, shard.failures = True, True, 0
        self.metrics.gauge(f"svc.router.peer.{shard.idx}.alive", volatile=True).set(1)
        self._rebuild_ring()
        self.metrics.counter("svc.router.ring.added", volatile=True).inc()
        doc = {"added": peer, "shard": shard.idx, "protocol": protocol.PROTOCOL}
        self._frontend.complete(token, Response(200, doc))

    def _drain_tick(self, token: Any, target: _Shard, deadline: float) -> None:
        """Retire a departing shard once its routed jobs are settled.

        The shard was already dropped from placement by the handler.
        Each tick (a loop timer) polls the shard for every job the
        router routed there and has not settled, and settles each one
        the shard reports finished or forgotten — zero dropped jobs —
        so jobs nobody is long-polling right now still drain (their
        results stay fetchable on the shard until it is retired).  On
        timeout the shard is retired anyway (``"drained": false``): its
        leftovers are rescued by the mid-job path if a client is still
        polling them.
        """
        pending = [
            e for e in self._routed.values() if e.shard == target.idx and not e.terminal
        ]
        if not pending or time.monotonic() >= deadline:
            target.member = False
            target.draining = False
            self._rebuild_ring()
            self.metrics.counter("svc.router.ring.removed", volatile=True).inc()
            doc = {
                "removed": target.url,
                "shard": target.idx,
                "drained": not pending,
                "protocol": protocol.PROTOCOL,
            }
            self._frontend.complete(token, Response(200, doc))
            return
        copies = [(job, job.upstream_id) for job in pending]

        def polled(answers: List[Any]) -> None:
            for (job, upstream_id), answer in zip(copies, answers):
                if isinstance(answer, Exception):
                    continue
                status, doc = answer
                # A job rescued off the shard meanwhile is not settled here.
                still_here = (job.shard, job.upstream_id) == (target.idx, upstream_id)
                if still_here and (status == 404 or doc.get("state") in ("done", "failed")):
                    self._settle_routed(job)
            self._frontend.call_later(
                _RETRY_DELAY, lambda: self._drain_tick(token, target, deadline)
            )

        self._gather(
            [(target.idx, f"/jobs/{urllib.parse.quote(uid)}") for _, uid in copies],
            polled,
        )

    # ------------------------------------------------------------------
    # Aggregated endpoints (fanned out, answered when all shards reply)
    # ------------------------------------------------------------------
    def _handle_health(self, token: Any):
        idxs = self._member_indices()

        def answered(answers: List[Any]) -> None:
            shards = []
            for idx, answer in zip(idxs, answers):
                s = self._shards[idx]
                entry: Dict[str, Any] = {"url": s.url, "shard": idx}
                if not self._failed(answer):
                    entry["health"] = answer[1]
                # Fold the live probe into the tracked health state, so a
                # /health request doubles as an out-of-band probe tick.
                error = self._probed(idx, answer)
                entry["ok"] = error is None
                if error is not None:
                    entry["error"] = error
                entry.update(alive=s.alive, failures=s.failures, inflight=s.inflight)
                shards.append(entry)
            all_ok = all(e["ok"] for e in shards)
            body = {
                "status": "draining"
                if self._draining
                else ("ok" if all_ok else "degraded"),
                "protocol": protocol.PROTOCOL,
                "role": "router",
                "shards": shards,
                "tenants": dict(self._tenant_inflight),
            }
            self._frontend.complete(token, Response(200, body))

        self._gather([(idx, "/health") for idx in idxs], answered)
        return DEFERRED

    def _handle_list(self, token: Any):
        idxs = self._member_indices()

        def answered(answers: List[Any]) -> None:
            jobs: List[Dict[str, Any]] = []
            for idx, answer in zip(idxs, answers):
                if self._failed(answer):
                    continue  # skip unreachable shards in listings
                for rec in answer[1].get("jobs", []):
                    rec["id"] = f"s{idx}:{rec['id']}"
                    jobs.append(rec)
            self._frontend.complete(token, Response(200, {"jobs": jobs}))

        self._gather([(idx, "/jobs") for idx in idxs], answered)
        return DEFERRED

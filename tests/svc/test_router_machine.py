"""The fleet router's loop methods, driven in-process by a state machine.

Every routing decision of :class:`~repro.svc.FleetRouter` is a plain
method of its event loop, and its upstream traffic goes through one
forwarder-pool call.  This suite swaps the pool and the frontend for
fakes that only record: each upstream request waits in ``pending``
until a rule answers it (a submit gets 202, 429, 503, a refused
connection or one reset after the request may have left; a poll gets
running, done, 404 or either connection error), and each
answer, timer and client response is observed by a pure model of the
fleet.  Other rules submit, poll, probe a shard, add one to the ring
and remove one.  No sockets, threads or sleeps.

The invariants, checked after every step:

* a tenant's count is its reserved submits plus its accepted, unsettled
  jobs, and never exceeds the cap;
* a shard's in-flight count is the number of unsettled jobs placed on
  it;
* a visible id never changes (every answer about a job carries it);
* a job is never posted to a shard that may hold a copy of it: one
  that took it, or whose ``POST`` failed after it may have left, and
  that has not answered a poll of that copy with 404 since (the
  double-submit rule);
* a job moves at most once per shard;
* a submit goes to the first live shard of
  :meth:`ConsistentHashRing.preference`, or to the owner when none is
  live;
* shard health follows the ejection rules.
"""

import urllib.parse

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.svc import ConsistentHashRing, FleetRouter, JobSpec, routing_fingerprint
from repro.svc import protocol
from repro.svc.http import DEFERRED, Request, Response

URLS = [f"http://127.0.0.1:{port}" for port in (7101, 7102, 7103, 7104)]
TENANTS = ("a", "b")
CAP = 2
EJECT_AFTER = 2
KEYS = 6  # distinct placement keys (the spec's timeout moves the key)

SUBMIT_ANSWERS = ("202", "429", "503", "refused", "reset")
POLL_ANSWERS = ("running", "done", "404", "refused", "reset")
ERRORS = {"refused": ConnectionRefusedError, "reset": ConnectionResetError}


class _Token:
    """A parked request, as the router sees it."""

    dead = False


class _Frontend:
    """Records what the router answers and the timers it arms."""

    def __init__(self):
        self.answers = {}
        self.timers = []

    def complete(self, token, response):
        assert token not in self.answers, "a request was answered twice"
        self.answers[token] = response

    def call_later(self, delay, fn):
        self.timers.append(fn)


class _Upstream:
    """One request the router handed to the forwarder pool."""

    def __init__(self, url, method, path, reply, body):
        self.url, self.method, self.path = url, method, path
        self.reply, self.body = reply, body

    @property
    def kind(self):
        if self.method == "POST":
            return "submit"
        if self.path == "/health":
            return "health"
        return "poll" if "?" in self.path else "drain"

    @property
    def upstream_id(self):
        return urllib.parse.unquote(self.path.split("?")[0][len("/jobs/"):])


class _Pool:
    """Records every upstream request instead of sending it."""

    def __init__(self):
        self.requests = []

    def request(self, url, method, path, reply, body=None, timeout=None):
        self.requests.append(_Upstream(url, method, path, reply, body))


class _Job:
    """The model of one submitted job."""

    def __init__(self, tenant, body, token):
        self.tenant, self.body, self.token = tenant, body, token
        self.state = "reserved"  # → accepted → settled, or → refused
        self.visible = None
        self.shard = self.upstream_id = None
        self.holders = set()
        self.moves = 0
        self.polls = []


class RouterMachine(RuleBasedStateMachine):
    """Drives one unstarted router's loop methods and models the fleet."""

    def __init__(self):
        super().__init__()
        self.router = FleetRouter(
            URLS[:3], probe_interval=0, eject_after=EJECT_AFTER,
            tenant_inflight_limit=CAP,
        )
        self.pool = self.router._forwarders = _Pool()
        self.frontend = self.router._frontend = _Frontend()
        self.shards = [
            {"url": url, "member": True, "draining": False, "alive": True, "failures": 0}
            for url in URLS[:3]
        ]
        self.jobs = []
        self.pending = []
        self.seen_requests = 0
        self.seen_answers = set()
        self.ring_tokens = {}  # token → (action, url)
        self.drain_ticks = {}  # drain poll → its tick's answers so far
        self.by_upstream_id = {}

    # -- model helpers --------------------------------------------------
    def _idx(self, url):
        return next((i for i, s in enumerate(self.shards) if s["url"] == url), None)

    def _strike(self, idx):
        s = self.shards[idx]
        s["failures"] += 1
        if s["failures"] >= EJECT_AFTER:
            s["alive"] = False

    def _ok(self, idx):
        self.shards[idx].update(alive=True, failures=0)

    def _down(self, idx):
        s = self.shards[idx]
        s.update(alive=False, failures=max(s["failures"], EJECT_AFTER))

    def _first_target(self, fingerprint):
        active = [i for i, s in enumerate(self.shards) if s["member"] and not s["draining"]]
        ring = ConsistentHashRing([self.shards[i]["url"] for i in active])
        pref = [active[r] for r in ring.preference(fingerprint)]
        live = [i for i in pref if self.shards[i]["alive"]]
        return (live or pref[:1])[0]

    def _job_by_body(self, body):
        return next(j for j in self.jobs if j.body == body)

    def _observe(self):
        """Take the router's new upstream requests and answers into the model."""
        ticks = {}
        for req in self.pool.requests[self.seen_requests:]:
            self.seen_requests += 1
            self.pending.append(req)
            if req.kind == "drain":  # one step sends one tick's polls per shard
                self.drain_ticks[req] = ticks.setdefault(req.url, [])
            if req.kind == "submit":
                job, idx = self._job_by_body(req.body), self._idx(req.url)
                assert idx not in job.holders, "a job was posted to a shard that may hold a copy"
                job.holders.add(idx)
        for token, response in self.frontend.answers.items():
            if token in self.seen_answers:
                continue
            self.seen_answers.add(token)
            self._answered(token, response)

    def _answered(self, token, response):
        if token in self.ring_tokens:
            action, url = self.ring_tokens.pop(token)
            idx = self._idx(url)
            is_member = idx is not None and self.shards[idx]["member"]
            if action == "add":
                assert response.status in ((409, 502) if is_member else (200, 502))
            if action == "add" and response.status == 200:
                if idx is None:
                    self.shards.append({"url": url})
                    idx = len(self.shards) - 1
                self.shards[idx].update(
                    member=True, draining=False, alive=True, failures=0
                )
                assert response.body["shard"] == idx
            elif action == "remove":
                assert response.status == 200
                unsettled = [j for j in self.jobs if j.state == "accepted" and j.shard == idx]
                assert response.body["drained"] == (not unsettled)
                self.shards[idx].update(member=False, draining=False)
            return
        for job in self.jobs:
            if token is job.token:
                if response.status == 202:
                    assert response.body["id"] == job.visible
                else:
                    job.state = "refused"
                return
            if token in job.polls:
                if response.status == 200:
                    assert response.body["id"] == job.visible
                    assert response.body["state"] == "done"
                elif response.status == 404:
                    assert job.state == "settled"
                else:
                    assert response.status == 502
                if job.state == "accepted":
                    job.state = "settled"
                return
        raise AssertionError(f"answer to an unknown request: {response.status}")

    def _drain_polled(self, req, job, outcome):
        """Once a drain tick's last poll is in, settle what it saw finished."""
        tick = self.drain_ticks.pop(req)
        tick.append((job, req.upstream_id, outcome))
        if any(self.drain_ticks.get(r) is tick for r in self.pending):
            return
        idx = self._idx(req.url)
        for job, upstream_id, outcome in tick:
            here = (job.shard, job.upstream_id) == (idx, upstream_id)
            if outcome in ("done", "404") and job.state == "accepted" and here:
                job.state = "settled"  # the drain saw it finished or forgotten

    # -- rules ----------------------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS), key=st.integers(0, KEYS - 1))
    def submit(self, tenant, key):
        spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2 + key / 1000,
                       base_seed=len(self.jobs), tenant=tenant)
        body, token = spec.to_json(), _Token()
        held = sum(1 for j in self.jobs if j.tenant == tenant
                   and j.state in ("reserved", "accepted"))
        first = self._first_target(routing_fingerprint(spec))
        request = Request("POST", "/jobs", "", {}, protocol.dumps(body))
        result = self.router._handle(request, token)
        if held >= CAP:
            assert isinstance(result, Response) and result.status == 429
            return
        assert result is DEFERRED
        self.jobs.append(_Job(tenant, body, token))
        self._observe()
        assert [(r.url, r.body) for r in self.pending if r.body == body] == [
            (URLS[first], body)
        ], "a submit did not go to the first live shard of its preference"

    @precondition(lambda self: any(j.visible for j in self.jobs))
    @rule(k=st.integers(0, 1000))
    def poll(self, k):
        accepted = [j for j in self.jobs if j.visible]
        job, token = accepted[k % len(accepted)], _Token()
        job.polls.append(token)
        request = Request("GET", f"/jobs/{urllib.parse.quote(job.visible)}",
                          "wait=3600", {}, b"")
        assert self.router._handle(request, token) is DEFERRED
        before = len(self.pending)
        self._observe()
        (req,) = self.pending[before:]
        assert (req.kind, self._idx(req.url), req.upstream_id) == (
            "poll", job.shard, job.upstream_id
        )

    @precondition(lambda self: self.pending)
    @rule(k=st.integers(0, 1000), choice=st.integers(0, 4))
    def answer(self, k, choice):
        req = self.pending.pop(k % len(self.pending))
        idx = self._idx(req.url)
        if req.kind == "submit":
            job = self._job_by_body(req.body)
            outcome = SUBMIT_ANSWERS[choice]
            if outcome == "202":
                uid = f"u{len(self.by_upstream_id)}"
                answer = (202, {"id": uid, "state": "queued"})
                if job.state == "reserved":
                    job.state, job.visible = "accepted", f"s{idx}:{uid}"
                else:
                    job.moves += 1
                job.shard, job.upstream_id = idx, uid
                self.by_upstream_id[uid] = job
            elif outcome in ERRORS:
                answer = ERRORS[outcome](outcome)
                if outcome == "refused":
                    job.holders.discard(idx)  # the request never left
            else:
                answer = (int(outcome), {"error": "busy", "retry_after": 0.1})
                job.holders.discard(idx)
            (self._strike if outcome in ERRORS else self._ok)(idx)
        elif req.kind == "health":
            answer = ConnectionRefusedError("refused") if choice >= 3 else (
                200, {"status": "ok"}
            )
        else:
            job = self.by_upstream_id[req.upstream_id]
            outcome = POLL_ANSWERS[choice]
            current = (job.shard, job.upstream_id) == (idx, req.upstream_id)
            if outcome in ERRORS:
                answer = ERRORS[outcome](outcome)
            elif outcome == "404":
                answer = (404, {"error": "no such job"})
            else:
                answer = (200, {"id": req.upstream_id, "state": outcome})
            if req.kind == "poll":
                (self._strike if outcome in ERRORS else self._ok)(idx)
                if outcome == "404" and current:
                    job.holders.discard(idx)  # the shard forgot its copy
            else:
                self._drain_polled(req, job, outcome)
        req.reply(answer)
        self._observe()

    @rule(idx=st.integers(0, len(URLS) - 1), ok=st.booleans())
    def probe(self, idx, ok):
        if idx >= len(self.shards):
            return
        self.router._probed(idx, (200, {"status": "ok"}) if ok else OSError("down"))
        (self._ok if ok else self._down)(idx)

    @rule(idx=st.integers(0, len(URLS) - 1))
    def ring_add(self, idx):
        token = _Token()
        self.ring_tokens[token] = ("add", URLS[idx])
        body = protocol.dumps({"action": "add", "peer": URLS[idx]})
        assert self.router._handle(Request("POST", "/ring", "", {}, body), token) is DEFERRED
        self._observe()

    @rule(idx=st.integers(0, len(URLS) - 1), patient=st.booleans())
    def ring_remove(self, idx, patient):
        token = _Token()
        body = protocol.dumps({"action": "remove", "peer": URLS[idx],
                               "drain_timeout": 3600 if patient else 0})
        result = self.router._handle(Request("POST", "/ring", "", {}, body), token)
        target = self._idx(URLS[idx])
        if target is None or not self.shards[target]["member"]:
            assert result.status == 404
            return
        if self.shards[target]["draining"]:
            assert result.status == 409
            return
        if sum(1 for s in self.shards if s["member"] and not s["draining"]) <= 1:
            assert result.status == 400
            return
        assert result is DEFERRED
        self.shards[target]["draining"] = True
        self.ring_tokens[token] = ("remove", URLS[idx])
        self._observe()

    @precondition(lambda self: self.frontend.timers)
    @rule()
    def fire_timer(self):
        self.frontend.timers.pop(0)()
        self._observe()

    # -- invariants -----------------------------------------------------
    @invariant()
    def tenant_counts_are_reservations_plus_unsettled_jobs(self):
        for tenant in TENANTS:
            held = sum(1 for j in self.jobs if j.tenant == tenant
                       and j.state in ("reserved", "accepted"))
            assert self.router._tenant_inflight.get(tenant, 0) == held <= CAP

    @invariant()
    def shard_counts_are_unsettled_jobs_placed_there(self):
        for idx, shard in enumerate(self.router._shards):
            placed = sum(1 for j in self.jobs if j.state == "accepted" and j.shard == idx)
            assert shard.inflight == placed

    @invariant()
    def a_job_moves_at_most_once_per_shard(self):
        for job in self.jobs:
            assert job.moves <= len(self.shards)

    @invariant()
    def visible_ids_never_change(self):
        for job in self.jobs:
            if job.visible:
                assert self.router._routed[job.visible].visible_id == job.visible

    @invariant()
    def health_follows_the_ejection_rules(self):
        assert [(s.alive, s.failures) for s in self.router._shards] == [
            (s["alive"], s["failures"]) for s in self.shards
        ]
        assert [(s.member, s.draining) for s in self.router._shards] == [
            (s["member"], s["draining"]) for s in self.shards
        ]


def test_a_shard_that_refused_the_post_can_take_the_job_over_later():
    """A refused connection never carried the ``POST``, so the shard holds
    no copy: when the shard that took the job forgets it, the rescue may
    post it to the shard that refused it."""
    router = FleetRouter(URLS[:2], probe_interval=0)
    pool = router._forwarders = _Pool()
    frontend = router._frontend = _Frontend()
    spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
    owner = router.ring.lookup(routing_fingerprint(spec))
    token = _Token()
    router._handle(Request("POST", "/jobs", "", {}, protocol.dumps(spec.to_json())), token)
    pool.requests[-1].reply(ConnectionRefusedError("refused"))
    pool.requests[-1].reply((202, {"id": "u1", "state": "queued"}))
    visible = frontend.answers[token].body["id"]
    poll = Request("GET", f"/jobs/{urllib.parse.quote(visible)}", "wait=3600", {}, b"")
    router._handle(poll, _Token())
    pool.requests[-1].reply((404, {"error": "no such job"}))
    assert [(r.method, r.url) for r in pool.requests] == [
        ("POST", URLS[owner]), ("POST", URLS[1 - owner]), ("GET", URLS[1 - owner]),
        ("POST", URLS[owner]),
    ]


def _poll(router, visible):
    """Long-poll ``visible`` through the router; returns the parked token."""
    token = _Token()
    path = f"/jobs/{urllib.parse.quote(visible)}"
    assert router._handle(Request("GET", path, "wait=3600", {}, b""), token) is DEFERRED
    return token


def test_a_stale_404_does_not_free_a_shard_that_holds_the_job_again():
    """A poll of a copy the job has since left answers 404 after the job
    came back to that shard: the shard holds the newer copy, so it stays
    a holder, and the poller polls the newer copy."""
    router = FleetRouter(URLS[:3], probe_interval=0)
    pool = router._forwarders = _Pool()
    frontend = router._frontend = _Frontend()
    spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
    token = _Token()
    router._handle(Request("POST", "/jobs", "", {}, protocol.dumps(spec.to_json())), token)
    first = pool.requests[-1]
    first.reply((202, {"id": "u0", "state": "queued"}))
    visible = frontend.answers[token].body["id"]
    _poll(router, visible)
    stale = pool.requests[-1]
    # Shard A forgets the job: it moves to some shard B.
    _poll(router, visible)
    pool.requests[-1].reply((404, {"error": "no such job"}))
    pool.requests[-1].reply((202, {"id": "u1", "state": "queued"}))
    # B forgets it: the rescue walks on to A (refusals skip any other shard).
    _poll(router, visible)
    pool.requests[-1].reply((404, {"error": "no such job"}))
    while pool.requests[-1].url != first.url:
        pool.requests[-1].reply(ConnectionRefusedError("refused"))
    pool.requests[-1].reply((202, {"id": "u2", "state": "queued"}))
    job = router._routed[visible]
    assert (URLS[job.shard], job.upstream_id) == (first.url, "u2")
    stale.reply((404, {"error": "no such job"}))
    assert job.shard in job.holders
    assert (pool.requests[-1].url, pool.requests[-1].upstream_id) == (first.url, "u2")


def test_a_drain_does_not_settle_a_job_rescued_off_the_shard():
    """A poll rescues a job off a shard that is draining out of the ring;
    the drain's poll of the old copy then answers done.  The job runs on,
    so it keeps its tenant slot and its place in the new shard's count."""
    machine = RouterMachine()
    machine.submit("a", 0)
    machine.answer(0, 0)  # 202
    machine.ring_remove(machine.jobs[0].shard, True)
    machine.poll(0)
    for kind, choice in (("poll", 2), ("submit", 0), ("drain", 1)):  # 404, 202, done
        machine.answer(next(i for i, r in enumerate(machine.pending) if r.kind == kind), choice)
    assert machine.jobs[0].state == "accepted"
    machine.tenant_counts_are_reservations_plus_unsettled_jobs()
    machine.shard_counts_are_unsettled_jobs_placed_there()


RouterMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestRouterMachine = RouterMachine.TestCase

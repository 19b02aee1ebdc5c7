"""The daemon's loop methods, driven in-process by a state machine.

Every decision of :class:`~repro.svc.ReproService` is one step of its
event loop: a submit, a ``GET /jobs/<id>`` with or without ``wait``, a
long-poll's deadline timer, ``POST /drain``, a slot's hand-back of a
finished job and a slot thread's report that it retired its worker.
This suite swaps the frontend and the slot threads' inboxes for fakes
that only record, and drives those steps against a pure model of the
daemon: two tenants share a small queue, two slots and a history
patched down to a few records.  No sockets, threads, sleeps or clock.

The invariants, checked after every step:

* a tenant is shed with ``429`` exactly when its queued + running count
  reaches ``max(1, maxsize // active tenants)`` while another tenant is
  active, so a lone active tenant never is; each tenant is served FIFO;
* no queued or running record is evicted, the history holds at most the
  limit plus the unfinished records, and the oldest finished records go
  first;
* every parked ``GET`` is answered exactly once: when its job ends, or
  when its deadline fires;
* ``busy`` ≤ slots, and ``/health`` is one consistent snapshot: ``busy``
  is the number of running records and ``queue_depth`` the number of
  queued ones;
* the service stops exactly when every slot has retired and either a
  client was sent each finished record in the history or the grace
  timer fired, and then nothing is queued or running.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.pool import Result
from repro.svc import JobSpec, ReproService
from repro.svc import protocol, server
from repro.svc.http import DEFERRED, Request

SLOTS = 2
MAXSIZE = 3
LIMIT = 2
TENANTS = ("a", "b")
PAYLOAD = {"type": "trials"}
UNFINISHED = ("queued", "running")


class _Token:
    """A request, as the daemon sees it."""

    dead = False


class _Timer:
    def __init__(self, fn):
        self.fn, self.cancelled = fn, False

    def cancel(self):
        self.cancelled = True


class _Frontend:
    """Records what the daemon answers, the timers it arms and its stop."""

    def __init__(self):
        self.answers = {}  # token → every response the daemon gave it
        self.timers = []
        self.stopped = False

    def complete(self, token, response):
        self.answers.setdefault(token, []).append(response)

    def call_later(self, delay, fn):
        timer = _Timer(fn)
        self.timers.append(timer)
        return timer

    def stop(self):
        self.stopped = True


class _Inbox:
    """A slot thread's inbox: records what the loop hands the slot."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class _Job:
    """The model of one accepted job."""

    def __init__(self, job_id, tenant):
        self.id, self.tenant = job_id, tenant
        self.state = "queued"
        self.slot = None
        self.polls = {}  # parked token → its deadline timer
        self.read = False  # a client was sent its terminal record


class DaemonMachine(RuleBasedStateMachine):
    """Drives one unstarted daemon's loop methods and models the daemon."""

    def __init__(self):
        super().__init__()
        self._limit, server._HISTORY_LIMIT = server._HISTORY_LIMIT, LIMIT
        self.svc = ReproService(slots=SLOTS, queue_size=MAXSIZE)
        self.frontend = self.svc._frontend = _Frontend()
        self.inboxes = self.svc.executor._inboxes = [_Inbox() for _ in range(SLOTS)]
        self.seen = [0] * SLOTS
        self.jobs = {}  # id → _Job, in acceptance order
        self.history = []  # the ids the daemon should still hold
        self.draining = False
        self.retiring = [False] * SLOTS
        self.retired = [False] * SLOTS
        self.grace = None  # the timer the last retirement armed
        self.grace_fired = False

    def teardown(self):
        server._HISTORY_LIMIT = self._limit

    # -- model helpers --------------------------------------------------
    def _in(self, *states):
        return [j for j in self.jobs.values() if j.state in states]

    def _observe(self):
        """Take what the loop handed the slots into the model."""
        for slot, inbox in enumerate(self.inboxes):
            for item in inbox.items[self.seen[slot]:]:
                self.seen[slot] += 1
                if item is None:
                    assert self.draining and not self._in(*UNFINISHED)
                    assert not self.retiring[slot]
                    self.retiring[slot] = True
                    continue
                record = self.svc.executor._running[slot]
                assert item[0] is record.spec
                job = self.jobs[record.id]
                assert job.state == "queued"
                assert not any(j.slot == slot for j in self._in("running"))
                queued = [j for j in self._in("queued") if j.tenant == job.tenant]
                assert job is queued[0], "a tenant's jobs were served out of order"
                job.state, job.slot = "running", slot

    def _evict(self):
        finished = [i for i in self.history if self.jobs[i].state not in UNFINISHED]
        for job_id in finished[:max(0, len(self.history) - LIMIT)]:
            self.history.remove(job_id)

    # -- rules ----------------------------------------------------------
    @rule(tenant=st.sampled_from(TENANTS), n=st.integers(1, 3))
    def submit(self, tenant, n):
        for _ in range(n):
            self._submit(tenant)

    def _submit(self, tenant):
        spec = JobSpec(app="figure4", bug="error1", trials=1,
                       base_seed=len(self.jobs), tenant=tenant)
        unfinished = self._in(*UNFINISHED)
        active = {j.tenant for j in unfinished} | {tenant}
        held = sum(1 for j in unfinished if j.tenant == tenant)
        share = max(1, MAXSIZE // len(active))
        if self.draining or len(self._in("queued")) >= MAXSIZE:
            expected = 503
        elif len(active) > 1 and held >= share:
            expected = 429
        else:
            expected = 202
        body = protocol.dumps(spec.to_json())
        response = self.svc._handle(Request("POST", "/jobs", "", {}, body), _Token())
        assert response.status == expected, (response.status, response.body)
        if expected == 503:
            assert bool(response.body.get("draining")) == self.draining
        if expected == 202:
            job = _Job(response.body["id"], tenant)
            self.jobs[job.id] = job
            self.history.append(job.id)
            self._evict()
        self._observe()

    @precondition(lambda self: self._in("running"))
    @rule(k=st.integers(0, 100), outcome=st.sampled_from(("done", "failed", "hit")))
    def hand_back(self, k, outcome):
        running = self._in("running")
        job = running[k % len(running)]
        if outcome == "hit":
            cached, result = PAYLOAD, None
        elif outcome == "done":
            cached, result = None, Result(None, True, value=PAYLOAD)
        else:
            cached, result = None, Result(None, False, kind="crash", message="x", attempts=2)
        self.svc.executor._settle(job.slot, cached, result, ())
        job.state, job.slot = ("failed" if outcome == "failed" else "done"), None
        for token, timer in job.polls.items():
            (answer,) = self.frontend.answers[token]
            assert (answer.status, answer.body["state"]) == (200, job.state)
            assert timer.cancelled
            job.read = True
        job.polls.clear()
        self._evict()
        self._observe()

    @precondition(lambda self: self.jobs)
    @rule(k=st.integers(0, 100), wait=st.booleans(), unfinished=st.booleans())
    def get(self, k, wait, unfinished):
        jobs = (unfinished and self._in(*UNFINISHED)) or list(self.jobs.values())
        job = jobs[k % len(jobs)]
        token = _Token()
        request = Request("GET", f"/jobs/{job.id}", "wait=3600" if wait else "", {}, b"")
        timers = len(self.frontend.timers)
        result = self.svc._handle(request, token)
        if job.id not in self.history:
            assert result.status == 404
        elif wait and job.state in UNFINISHED:
            assert result is DEFERRED
            (timer,) = self.frontend.timers[timers:]
            job.polls[token] = timer
        else:
            assert (result.status, result.body["state"]) == (200, job.state)
            job.read = job.read or job.state not in UNFINISHED

    @precondition(lambda self: any(j.polls for j in self.jobs.values()))
    @rule(k=st.integers(0, 100))
    def deadline(self, k):
        parked = [(j, t) for j in self.jobs.values() for t in j.polls]
        job, token = parked[k % len(parked)]
        timer = job.polls.pop(token)
        assert not timer.cancelled
        timer.fn()
        (answer,) = self.frontend.answers[token]
        assert (answer.status, answer.body["state"]) == (200, job.state)

    @precondition(lambda self: len(self.jobs) >= 3)
    @rule()
    def drain(self):
        response = self.svc._handle(Request("POST", "/drain", "", {}, b""), _Token())
        assert response.status == 202
        self.draining = True
        self._observe()

    @precondition(lambda self: any(r and not d for r, d in zip(self.retiring, self.retired)))
    @rule(k=st.integers(0, 100))
    def slot_retires(self, k):
        slots = [s for s in range(SLOTS) if self.retiring[s] and not self.retired[s]]
        self.retired[slots[k % len(slots)]] = True
        timers = len(self.frontend.timers)
        self.svc.executor._slot_retired()
        if all(self.retired):
            (self.grace,) = self.frontend.timers[timers:]

    @precondition(lambda self: self.grace and not self.grace_fired and not self.frontend.stopped)
    @rule()
    def grace_expires(self):
        self.grace_fired = True
        self.grace.fn()

    # -- invariants -----------------------------------------------------
    @invariant()
    def unfinished_records_are_never_evicted(self):
        for job in self._in(*UNFINISHED):
            assert job.id in self.svc._jobs

    @invariant()
    def history_is_bounded_and_evicts_the_oldest_finished_first(self):
        unfinished = sum(not rec.terminal for rec in self.svc._jobs.values())
        assert len(self.svc._jobs) <= LIMIT + unfinished
        assert list(self.svc._jobs) == self.history

    @invariant()
    def every_parked_get_is_answered_exactly_once(self):
        for job in self.jobs.values():
            for token, timer in job.polls.items():
                assert job.state in UNFINISHED and not timer.cancelled
                assert token not in self.frontend.answers
        for token, answers in self.frontend.answers.items():
            assert len(answers) == 1, "a request was answered twice"

    @invariant()
    def health_is_one_snapshot_and_busy_fits_the_slots(self):
        doc = self.svc._health()
        assert doc["busy"] <= SLOTS
        assert doc["busy"] == doc["jobs"].get("running", 0) == len(self._in("running"))
        assert doc["queue_depth"] == doc["jobs"].get("queued", 0) == len(self._in("queued"))
        assert doc["status"] == ("draining" if self.draining else "ok")

    @invariant()
    def stops_once_drained_and_every_result_was_sent(self):
        read = all(self.jobs[i].read for i in self.history)
        assert self.frontend.stopped == (all(self.retired) and (read or self.grace_fired))
        if self.frontend.stopped:
            assert not self._in(*UNFINISHED)
            assert self.svc.wait_drained(0)


DaemonMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestDaemonMachine = DaemonMachine.TestCase

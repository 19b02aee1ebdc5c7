"""End-to-end HTTP service tests: endpoints, backpressure, drain."""

import functools
import http.client
import itertools
import json
import os
import socket
import threading

import pytest

from repro.svc import (
    BackpressureError,
    JobSpec,
    ReproClient,
    ReproService,
    ServiceError,
)
from repro.svc.client import JobFailed
from repro.svc.executor import JobExecutor
from repro.svc.jobs import JobRecord
from repro.svc.pool import WorkerPool
from repro.svc.queue import BoundedJobQueue

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") and not hasattr(os, "posix_spawn"),
    reason="service tests need a POSIX process model",
)


@pytest.fixture()
def service():
    svc = ReproService(slots=2, queue_size=8).start()
    yield svc
    svc.close()


@pytest.fixture()
def client(service):
    return ReproClient(service.address)


class TestEndpoints:
    def test_health_shape(self, client):
        doc = client.health()
        assert doc["status"] == "ok"
        assert doc["protocol"] == "repro.svc/1"
        assert doc["queue_depth"] == 0
        assert doc["slots"] == 2

    def test_metrics_exposes_queue_depth_and_latency_histogram(self, client):
        client.run_trials("figure4", bug="error1", n=2, timeout=0.2)
        snap = client.metrics()
        assert "svc.queue.depth" in snap
        assert snap["svc.job_latency_seconds"]["type"] == "histogram"
        assert snap["svc.job_latency_seconds"]["count"] >= 1
        assert snap["svc.jobs.completed"]["value"] >= 1

    def test_submit_then_poll(self, client):
        job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=2,
                                       timeout=0.2))
        record = client.wait(job_id, timeout=30)
        assert record["state"] == "done"
        assert record["result"]["bug_hits"] == 2
        # results stay readable after completion
        again = client.result(job_id)
        assert again["result"] == record["result"]

    def test_bounded_explore_job_surfaces_cuts_in_metrics(self, client):
        job_id = client.submit(JobSpec(kind="explore", app="bank",
                                       bug="lost_update", dpor=True,
                                       max_schedules=2000,
                                       bound_preemptions=1))
        record = client.wait(job_id, timeout=60)
        assert record["state"] == "done"
        result = record["result"]
        assert result["bound"] == {"preemptions": 1, "variables": None}
        assert result["cuts"]["preemption_cuts"] > 0
        # The worker's cut accounting crossed the fork boundary into the
        # service registry.
        snap = client.metrics()
        assert (
            snap["explore.dpor.preemption_cuts"]["value"]
            >= result["cuts"]["preemption_cuts"]
        )

    def test_jobs_listing(self, client):
        job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=1,
                                       timeout=0.2))
        client.wait(job_id, timeout=30)
        listed = client.jobs()
        assert any(j["id"] == job_id and j["state"] == "done" for j in listed)

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.result("job-999999")
        assert exc.value.status == 404

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._check(*client._request("GET", "/nope"))
        assert exc.value.status == 404

    def test_invalid_spec_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(JobSpec(app="nosuchapp"))
        assert exc.value.status == 400
        assert "unknown app" in exc.value.message

    def test_snapshots_spec_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(JobSpec(kind="explore", app="bank", snapshots=True))
        assert exc.value.status == 400
        assert "fork snapshot executor was removed" in exc.value.message

    def test_sleep_sets_without_dpor_spec_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(JobSpec(kind="explore", app="figure4", bug="error1",
                                  sleep_sets=True))
        assert exc.value.status == 400
        assert "sleep_sets requires dpor" in exc.value.message

    def test_negative_workers_spec_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(JobSpec(app="figure4", bug="error1", trials=2, workers=-1))
        assert exc.value.status == 400
        assert "workers must be >= 0" in exc.value.message

    def test_unknown_spec_field_400(self, client):
        status, doc = client._request("POST", "/jobs", body={"frobnicate": 1})
        assert status == 400
        assert "unknown job spec field" in doc["error"]

    def test_malformed_body_400(self, service, client):
        conn = http.client.HTTPConnection(service.host, service.port, timeout=5)
        try:
            conn.request("POST", "/jobs", body=b"not json{",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
            assert "malformed" in json.loads(resp.read())["error"]
        finally:
            conn.close()

    def test_invalid_wait_param_400(self, client):
        job_id = client.submit(JobSpec(app="figure4", bug="error1", trials=1,
                                       timeout=0.2))
        status, doc = client._request("GET", f"/jobs/{job_id}?wait=banana")
        assert status == 400


class TestBackpressure:
    def test_full_queue_rejected_with_retry_after(self, gate, monkeypatch):
        # The gate holds the jobs until the client helper's first attempt
        # below has been turned away too.
        handle_submit, rejected = ReproService._handle_submit, itertools.count(1)

        def releasing(service, request):
            response = handle_submit(service, request)
            if response.status == 503 and next(rejected) == 2:
                gate.release(3)
            return response

        monkeypatch.setattr(ReproService, "_handle_submit", releasing)
        svc = ReproService(slots=1, queue_size=1, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            first = client.submit(spec)
            gate.started()  # the first job occupies the slot
            second = client.submit(spec)  # fills the queue
            status, doc = client._request("POST", "/jobs", body=spec.to_json())
            assert status == 503
            assert doc["retry_after"] > 0
            # the client helper retries through the hint and succeeds
            third = client.submit(spec, max_wait=60.0)
            for job_id in (first, second, third):
                assert client.wait(job_id, timeout=60)["state"] == "done"
            assert client.metrics()["svc.queue.rejected"]["value"] >= 1
        finally:
            svc.close()

    def test_exhausted_patience_raises_backpressure_error(self, gate):
        svc = ReproService(slots=1, queue_size=1, fault_hook=gate.hook).start()
        try:
            client = ReproClient(svc.address)
            spec = JobSpec(app="figure4", bug="error1", trials=1, timeout=0.2)
            client.submit(spec)
            gate.started()  # the first job occupies the slot
            client.submit(spec)
            with pytest.raises(BackpressureError):
                client.submit(spec, max_wait=0.0)
        finally:
            svc.close()


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new(self):
        svc = ReproService(slots=2, queue_size=8).start()
        client = ReproClient(svc.address)
        try:
            spec = JobSpec(app="figure4", bug="error1", trials=3, timeout=0.2)
            ids = [client.submit(spec) for _ in range(3)]
            client.drain()
            assert client.health()["status"] == "draining"
            with pytest.raises(BackpressureError, match="draining"):
                client.submit(spec)
            # every accepted job still completes with a readable result
            for job_id in ids:
                record = client.wait(job_id, timeout=60)
                assert record["result"]["bug_hits"] == 3
            assert svc.wait_drained(timeout=30)
        finally:
            svc.close()

    def test_an_unstarted_service_drains_at_once(self):
        svc = ReproService(slots=1, queue_size=2)
        assert svc.drain(timeout=5)
        svc.close()

    def test_drained_service_releases_port(self):
        svc = ReproService(slots=1, queue_size=2).start()
        port = svc.port
        assert svc.drain(timeout=30)
        svc.close()
        # the listener is gone: a fresh connect must fail
        with pytest.raises(OSError):
            s = socket.create_connection(("127.0.0.1", port), timeout=0.5)
            s.close()


def _raise_or_hold(hold, spec, attempt):
    """Fault hook: seed 13 raises; tenant ``held`` waits on the gate."""
    if spec.base_seed == 13:
        raise RuntimeError("injected")
    if spec.tenant == "held":
        hold(spec, attempt)


#: The daemon's state-changing methods, by owning class.
_LOOP_METHODS = {
    ReproService: ("_submit", "_evict", "_handle_get_job", "_list_jobs", "_health",
                   "_begin_drain", "_retired", "_on_parked_disconnect"),
    JobExecutor: ("dispatch", "retire", "_settle", "_slot_retired", "_note_done",
                  "_note_busy", "retry_hint"),
    BoundedJobQueue: ("put", "get", "note_running", "note_finished", "close",
                      "tenants_snapshot"),
    JobRecord: ("mark_running", "finish", "fail", "subscribe", "unsubscribe"),
    WorkerPool: ("_count",),
}


class TestLoopOwnership:
    def test_every_state_change_runs_on_the_loop_thread(self, gate, monkeypatch, tmp_path):
        """Wrap the daemon's state-changing methods, run its paths through
        real sockets — submit to done, a full cache hit, a job whose fault
        hook raises, long-polls, a ``429`` tenant shed, ``/health`` and
        ``POST /drain`` — and check every call ran on the loop thread."""
        calls, recording = [], threading.Event()
        for cls, names in _LOOP_METHODS.items():
            for name in names:
                def wrapped(*args, _name=name, _method=getattr(cls, name), **kw):
                    if recording.is_set():
                        calls.append((_name, threading.current_thread()))
                    return _method(*args, **kw)

                monkeypatch.setattr(cls, name, wrapped)
        svc = ReproService(
            slots=1, queue_size=2, cache_dir=str(tmp_path),
            fault_hook=functools.partial(_raise_or_hold, gate.hook),
        ).start()
        recording.set()
        loop = svc._frontend._thread
        try:
            client = ReproClient(svc.address)
            spec = JobSpec(app="figure4", bug="error1", trials=2, timeout=0.2)
            assert client.wait(client.submit(spec), timeout=60)["state"] == "done"
            assert client.wait(client.submit(spec), timeout=60)["state"] == "done"  # a hit
            broken = JobSpec(app="figure4", bug="error1", trials=1, base_seed=13)
            with pytest.raises(JobFailed, match="injected"):
                client.wait(client.submit(broken), timeout=60)
            held = client.submit(JobSpec(app="figure4", trials=1, tenant="held"))
            gate.started()
            other = client.submit(JobSpec(app="figure4", trials=1, tenant="other"))
            status, _ = client._request(
                "POST", "/jobs", body=JobSpec(app="figure4", tenant="held").to_json()
            )
            assert status == 429
            assert client.health()["busy"] == 1
            gate.release()
            for job_id in (held, other):
                assert client.wait(job_id, timeout=60)["state"] == "done"
            client.drain()
            assert svc.wait_drained(30)
            recording.clear()
        finally:
            svc.close()
        names = {name for name, _ in calls}
        assert {"_submit", "_settle", "dispatch", "fail", "finish", "subscribe",
                "_count", "_health", "_begin_drain", "_slot_retired", "_retired"} <= names
        assert {thread for _, thread in calls} == {loop}
        assert svc.metrics.snapshot()["cache.hit"]["value"] >= 1


class TestClientValidation:
    def test_bad_url_rejected(self):
        with pytest.raises(ValueError):
            ReproClient("ftp://nope:1")

    def test_unreachable_server_raises_oserror(self):
        client = ReproClient("http://127.0.0.1:9", timeout=0.5)
        with pytest.raises(OSError):
            client.health()

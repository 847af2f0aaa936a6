"""In-process unit tests for the serving layer (repro.serve).

Protocol decoding, admission control, the job table and the subgoal
fan-out are tested here without a real socket; the end-to-end daemon
(subprocess over a unix socket) lives in ``test_serve_daemon.py``.
"""

import json
import multiprocessing
import threading
import time

import pytest

from repro.obs.metrics import set_metrics
from repro.robust.budget import Budget
from repro.serve.admission import (AdmissionController, Draining,
                                   QueueFull)
from repro.serve.daemon import ServeConfig, VerificationService
from repro.serve.jobs import JobTable
from repro.serve.protocol import (MAX_BODY_BYTES, BudgetCaps,
                                  ProtocolError, parse_batch_request,
                                  parse_verify_request)
from repro.robust import faults


def _body(document) -> bytes:
    return json.dumps(document).encode("utf-8")


def _parse(document, caps=None, defaults=None):
    return parse_verify_request(_body(document),
                                caps or BudgetCaps(), defaults)


class TestProtocolDecoding:
    def test_bundled_program_accepted(self):
        request = _parse({"program": "reverse"})
        assert request.label == "reverse"
        assert "program" in request.source
        assert request.background is False

    def test_inline_source_accepted(self):
        request = _parse({"source": "program p; begin end."})
        assert request.label == "<inline>"
        assert request.source.startswith("program")

    @pytest.mark.parametrize("document,status,code", [
        ({}, 400, "bad-request"),
        ({"program": "reverse", "source": "x"}, 400, "bad-request"),
        ({"program": 7}, 400, "bad-request"),
        ({"program": "no-such-program"}, 404, "unknown-program"),
        ({"source": "   "}, 400, "bad-request"),
        ({"program": "reverse", "options": ["fast"]}, 400,
         "bad-request"),
        ({"program": "reverse", "options": {"warp": True}}, 400,
         "bad-request"),
        ({"program": "reverse", "options": {"order": True}}, 400,
         "bad-request"),
        ({"program": "reverse", "options": {"reduce": "yes"}}, 400,
         "bad-request"),
        ({"program": "reverse", "budget": {"fuel": 3}}, 400,
         "bad-request"),
        ({"program": "reverse", "budget": {"timeout": -1}}, 400,
         "bad-request"),
        ({"program": "reverse", "budget": {"timeout": True}}, 400,
         "bad-request"),
        ({"program": "reverse", "async": "please"}, 400,
         "bad-request"),
    ])
    def test_invalid_requests_rejected(self, document, status, code):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(document)
        assert excinfo.value.status == status
        assert excinfo.value.code == code
        rendered = excinfo.value.to_dict()
        assert rendered["error"]["code"] == code
        assert rendered["error"]["message"]

    def test_not_json_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_verify_request(b"{nope", BudgetCaps())
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-json"

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_verify_request(b"[1, 2]", BudgetCaps())
        assert excinfo.value.status == 400

    def test_oversized_body_rejected_before_parsing(self):
        blob = b"x" * (MAX_BODY_BYTES + 1)
        with pytest.raises(ProtocolError) as excinfo:
            parse_verify_request(blob, BudgetCaps())
        assert excinfo.value.status == 413
        assert excinfo.value.code == "body-too-large"

    def test_budget_clamped_to_server_caps(self):
        caps = BudgetCaps(timeout=10.0, max_bdd_nodes=1000)
        request = _parse({"program": "reverse",
                          "budget": {"timeout": 99.0,
                                     "max_bdd_nodes": 500}}, caps)
        assert request.timeout == 10.0       # capped
        assert request.max_bdd_nodes == 500  # under the cap: honoured
        assert request.max_states is None

    def test_caps_are_the_defaults(self):
        caps = BudgetCaps(timeout=7.0, max_states=123)
        request = _parse({"program": "reverse"}, caps)
        assert request.timeout == 7.0
        assert request.max_states == 123

    def test_options_merge_over_server_defaults(self):
        request = _parse({"program": "reverse",
                          "options": {"slice": False}},
                         defaults={"reduce": False, "slice": True})
        assert request.reduce is False   # server default
        assert request.slice is False    # request override
        assert request.simulate is True  # built-in default

    def test_decode_fault_site_fires(self):
        with faults.injected("serve.request_decode:error"):
            with pytest.raises(RuntimeError):
                _parse({"program": "reverse"})

    def test_batch_decoded_per_item(self):
        requests = parse_batch_request(
            _body({"requests": [{"program": "reverse"},
                                {"program": "swap"}]}),
            BudgetCaps())
        assert [r.label for r in requests] == ["reverse", "swap"]

    def test_batch_error_names_offending_item(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch_request(
                _body({"requests": [{"program": "reverse"},
                                    {"program": "bogus"}]}),
                BudgetCaps())
        assert excinfo.value.status == 404
        assert "requests[1]" in excinfo.value.message

    def test_batch_requires_nonempty_list(self):
        for document in ({}, {"requests": []}, {"requests": "x"}):
            with pytest.raises(ProtocolError) as excinfo:
                parse_batch_request(_body(document), BudgetCaps())
            assert excinfo.value.status == 400

    def test_batch_size_capped(self):
        items = [{"program": "reverse"}] * 5
        with pytest.raises(ProtocolError) as excinfo:
            parse_batch_request(_body({"requests": items}),
                                BudgetCaps(), max_items=4)
        assert excinfo.value.status == 413
        assert excinfo.value.code == "batch-too-large"


class TestAdmissionController:
    def test_serial_admission(self):
        control = AdmissionController(max_concurrent=2, max_queue=0)
        with control.admitted():
            with control.admitted():
                pass
        assert control.snapshot()["active"] == 0

    def test_queue_full_rejects_with_retry_after(self):
        control = AdmissionController(max_concurrent=1, max_queue=0)
        release = threading.Event()
        started = threading.Event()

        def occupy():
            with control.admitted():
                started.set()
                release.wait(10)

        thread = threading.Thread(target=occupy)
        thread.start()
        try:
            assert started.wait(5)
            with pytest.raises(QueueFull) as excinfo:
                with control.admitted():
                    pass
            assert excinfo.value.retry_after >= 1
        finally:
            release.set()
            thread.join()

    def test_waiter_admitted_when_slot_frees(self):
        control = AdmissionController(max_concurrent=1, max_queue=4)
        release = threading.Event()
        started = threading.Event()
        order = []

        def occupy():
            with control.admitted():
                started.set()
                release.wait(10)
            order.append("first")

        def wait_in_queue():
            with control.admitted():
                order.append("second")

        first = threading.Thread(target=occupy)
        first.start()
        assert started.wait(5)
        second = threading.Thread(target=wait_in_queue)
        second.start()
        time.sleep(0.1)  # let the second request join the queue
        assert control.snapshot()["waiting"] == 1
        release.set()
        first.join(5)
        second.join(5)
        assert order == ["first", "second"]

    def test_draining_rejects_new_requests(self):
        control = AdmissionController(max_concurrent=2, max_queue=2)
        control.start_draining()
        with pytest.raises(Draining):
            with control.admitted():
                pass
        assert control.draining is True

    def test_draining_wakes_and_rejects_waiters(self):
        control = AdmissionController(max_concurrent=1, max_queue=2)
        release = threading.Event()
        started = threading.Event()
        outcome = []

        def occupy():
            with control.admitted():
                started.set()
                release.wait(10)

        def waiter():
            try:
                with control.admitted():
                    outcome.append("admitted")
            except Draining:
                outcome.append("drained")

        first = threading.Thread(target=occupy)
        first.start()
        assert started.wait(5)
        second = threading.Thread(target=waiter)
        second.start()
        time.sleep(0.1)
        control.start_draining()
        second.join(5)
        assert outcome == ["drained"]
        release.set()
        first.join(5)

    def test_wait_idle(self):
        control = AdmissionController(max_concurrent=1, max_queue=0)
        assert control.wait_idle(0.1) is True
        release = threading.Event()
        started = threading.Event()

        def occupy():
            with control.admitted():
                started.set()
                release.wait(10)

        thread = threading.Thread(target=occupy)
        thread.start()
        assert started.wait(5)
        assert control.wait_idle(0.1) is False
        release.set()
        assert control.wait_idle(5.0) is True
        thread.join()

    def test_retry_after_scales_with_backlog(self):
        slow = AdmissionController(max_concurrent=1, max_queue=0,
                                   initial_estimate=30.0)
        fast = AdmissionController(max_concurrent=1, max_queue=0,
                                   initial_estimate=0.1)
        # An empty controller still answers with a sane minimum.
        assert fast.retry_after() >= 1
        assert slow.retry_after() >= fast.retry_after()


class TestJobTable:
    def test_lifecycle(self):
        table = JobTable()
        job = table.create("reverse")
        assert table.get(job.id) is job
        assert job.to_dict()["state"] == "queued"
        table.start(job)
        assert job.to_dict()["state"] == "running"
        table.finish(job, 200, {"outcome": "VERIFIED"})
        document = job.to_dict()
        assert document["state"] == "done"
        assert document["status"] == 200
        assert document["result"] == {"outcome": "VERIFIED"}
        assert "finished" in document

    def test_failed_state(self):
        table = JobTable()
        job = table.create("bad")
        table.finish(job, 422, {"error": {}}, failed=True)
        assert job.to_dict()["state"] == "failed"

    def test_unknown_id_is_none(self):
        assert JobTable().get("deadbeef") is None

    def test_finished_jobs_evicted_beyond_retention(self):
        table = JobTable(retention=2)
        jobs = [table.create(f"job-{index}") for index in range(4)]
        for job in jobs:
            table.finish(job, 200, {})
        remaining = [job for job in jobs if table.get(job.id)]
        assert len(remaining) == 2
        assert remaining == jobs[2:]  # oldest finished dropped first

    def test_unfinished_jobs_never_evicted(self):
        table = JobTable(retention=1)
        live = [table.create(f"live-{index}") for index in range(3)]
        done = table.create("done")
        table.finish(done, 200, {})
        assert all(table.get(job.id) for job in live)
        snapshot = table.snapshot()
        assert snapshot["queued"] == 3

    def test_result_hidden_when_not_requested(self):
        table = JobTable()
        job = table.create("reverse")
        table.finish(job, 200, {"outcome": "VERIFIED"})
        assert "result" not in job.to_dict(with_result=False)


class TestServiceFanOut:
    """The daemon's subgoal fan-out, driven in process against a real
    two-worker pool."""

    @pytest.fixture
    def service(self):
        service = VerificationService(ServeConfig(workers=2,
                                                  timeout=None))
        try:
            yield service
        finally:
            service.drain()
            set_metrics(None)
            assert not multiprocessing.active_children()

    def test_subgoals_submitted_in_index_order(self, service,
                                               monkeypatch):
        submitted = []
        original = service.pool.submit

        def spy(payload, key, on_done):
            submitted.append((key, payload.index))
            original(payload, key, on_done)

        monkeypatch.setattr(service.pool, "submit", spy)
        status, document, _ = service.handle_verify(
            _body({"program": "reverse"}))
        assert status == 200
        assert document["outcome"] == "VERIFIED"
        indices = list(range(len(document["subgoals"])))
        assert len(indices) > 2
        assert submitted == list(zip(indices, indices))

    def test_budget_reports_the_request_limits(self, service):
        status, document, _ = service.handle_verify(_body(
            {"program": "reverse",
             "budget": {"timeout": 120, "max_states": 100000}}))
        assert status == 200
        assert document["outcome"] == "VERIFIED"
        assert document["budget"] == Budget(
            timeout=120, max_states=100000).limits()

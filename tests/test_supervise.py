"""Tests for the supervised worker pool (repro.parallel.supervise).

The pool's contract is *every submitted task is answered*: by a
worker reply, a quarantine notice (:class:`CrashReply`) or a shutdown
notice — never silence.  These tests kill, hang and starve workers in
every way the fault model names and assert that contract holds with
no orphan processes left behind.
"""

import os
import queue
import time

import pytest

from repro.parallel.supervise import CrashReply, SupervisedPool
from repro.robust import faults

from diffcheck import assert_no_orphans


# ----------------------------------------------------------------------
# Module-level task functions (must be importable from worker
# processes)
# ----------------------------------------------------------------------

def echo_task(payload):
    return ("echo", payload)


def slow_echo_task(payload):
    time.sleep(0.3)
    return ("echo", payload)


def crash_task(payload):
    """Dies hard — no reply, no cleanup — when told to."""
    if payload == "die":
        os._exit(7)
    return ("ok", payload)


def crash_once_task(payload):
    """Dies on the first attempt only: ``payload`` is a sentinel path
    that survives the crash and pacifies the retry."""
    if not os.path.exists(payload):
        with open(payload, "w") as handle:
            handle.write("seen")
        os._exit(7)
    return ("ok", payload)


def sleep_task(payload):
    time.sleep(30.0)
    return ("never", payload)


def fire_decide_task(payload):
    """Runs the worker's installed fault plan at the decide site —
    the unit-level analogue of the engine's per-attempt hook."""
    faults.fire("verify.decide")
    return ("ok", payload)


@pytest.fixture(autouse=True)
def _no_orphans():
    yield
    assert_no_orphans()


class TestHappyPath:
    def test_every_task_answered(self):
        pool = SupervisedPool(echo_task, jobs=2)
        out = queue.Queue()
        try:
            for index in range(8):
                pool.submit(index, key=index, on_done=out.put)
            replies = [out.get(timeout=30) for _ in range(8)]
        finally:
            pool.close()
        assert sorted(payload for _, payload in replies) == list(range(8))
        assert pool.outstanding == 0

    def test_stats_shape(self):
        pool = SupervisedPool(echo_task, jobs=2)
        out = queue.Queue()
        try:
            pool.submit("x", key="x", on_done=out.put)
            out.get(timeout=30)
            stats = pool.stats()
        finally:
            pool.close()
        assert stats["jobs"] == 2
        assert stats["quarantined"] == 0
        for worker in stats["workers"]:
            assert worker["state"] in ("busy", "idle")
            assert worker["pid"] > 0


class TestCrashRecovery:
    def test_poison_task_quarantined_others_survive(self):
        pool = SupervisedPool(crash_task, jobs=2, max_attempts=2)
        out = queue.Queue()
        try:
            pool.submit("die", key="poison", on_done=out.put)
            for index in range(4):
                pool.submit(f"ok-{index}", key=index, on_done=out.put)
            replies = [out.get(timeout=60) for _ in range(5)]
        finally:
            pool.close()
        crashes = [r for r in replies if isinstance(r, CrashReply)]
        healthy = [r for r in replies if not isinstance(r, CrashReply)]
        assert len(crashes) == 1
        assert crashes[0].key == "poison"
        assert crashes[0].attempts == 2
        assert crashes[0].reason == "crashed"
        assert crashes[0].exitcode == 7
        assert "quarantined" in crashes[0].describe()
        assert sorted(p for _, p in healthy) == \
            [f"ok-{i}" for i in range(4)]
        assert pool.stats()["quarantined"] == 1

    def test_crash_once_retried_to_success(self, tmp_path):
        sentinel = str(tmp_path / "crashed-once")
        pool = SupervisedPool(crash_once_task, jobs=1, max_attempts=3)
        out = queue.Queue()
        try:
            pool.submit(sentinel, key=0, on_done=out.put)
            reply = out.get(timeout=60)
        finally:
            pool.close()
        assert reply == ("ok", sentinel)
        assert pool.stats()["restarts"] >= 1

    def test_hung_worker_detected_and_quarantined(self):
        # An injected heartbeat fault silently kills each worker's
        # beat thread; a busy worker without a heartbeat is exactly
        # what a deadlocked or SIGSTOPped worker looks like from the
        # supervisor's chair.
        pool = SupervisedPool(sleep_task, jobs=1, max_attempts=2,
                              faults_spec="serve.heartbeat:error",
                              hang_timeout=0.8)
        out = queue.Queue()
        try:
            pool.submit("x", key="hung", on_done=out.put)
            reply = out.get(timeout=60)
        finally:
            pool.close()
        assert isinstance(reply, CrashReply)
        assert reply.reason == "hung"
        assert reply.attempts == 2

    def test_counted_kill_rule_consumed_on_respawn(self):
        # verify.decide:kill:1 must mean "exactly one crash", not
        # "every fresh worker crashes once": the supervisor accounts
        # the observed death against the rule before respawning.
        pool = SupervisedPool(fire_decide_task, jobs=1, max_attempts=3,
                              faults_spec="verify.decide:kill:1")
        out = queue.Queue()
        try:
            for index in range(3):
                pool.submit(index, key=index, on_done=out.put)
            replies = [out.get(timeout=60) for _ in range(3)]
        finally:
            pool.close()
        assert all(reply[0] == "ok" for reply in replies)
        assert pool.stats()["restarts"] == 1


class TestSpawnFailure:
    def test_unspawnable_pool_answers_everything(self):
        with faults.injected("serve.worker_spawn:error"):
            pool = SupervisedPool(echo_task, jobs=2, max_attempts=2)
            out = queue.Queue()
            try:
                for index in range(3):
                    pool.submit(index, key=index, on_done=out.put)
                replies = [out.get(timeout=60) for _ in range(3)]
            finally:
                pool.close(drain=False)
        assert all(isinstance(r, CrashReply) for r in replies)
        assert {r.reason for r in replies} <= {"spawn-failed",
                                               "shutdown"}

    def test_spawn_fault_retried_once_recovers(self):
        with faults.injected("serve.worker_spawn:error:1"):
            pool = SupervisedPool(echo_task, jobs=1)
            out = queue.Queue()
            try:
                pool.submit("x", key=0, on_done=out.put)
                reply = out.get(timeout=60)
            finally:
                pool.close()
        assert reply == ("echo", "x")


class TestShutdown:
    def test_terminate_answers_outstanding_with_shutdown(self):
        pool = SupervisedPool(sleep_task, jobs=1)
        out = queue.Queue()
        pool.submit("a", key="a", on_done=out.put)
        pool.submit("b", key="b", on_done=out.put)
        time.sleep(0.3)  # let the first task start
        pool.terminate()
        replies = [out.get(timeout=30) for _ in range(2)]
        assert all(isinstance(r, CrashReply) for r in replies)
        assert {r.reason for r in replies} == {"shutdown"}

    def test_submit_after_close_answers_immediately(self):
        pool = SupervisedPool(echo_task, jobs=1)
        pool.close()
        out = queue.Queue()
        pool.submit("late", key="late", on_done=out.put)
        reply = out.get(timeout=5)
        assert isinstance(reply, CrashReply)
        assert reply.reason == "shutdown"

    def test_drain_close_finishes_queued_work(self):
        pool = SupervisedPool(slow_echo_task, jobs=2)
        out = queue.Queue()
        for index in range(4):
            pool.submit(index, key=index, on_done=out.put)
        pool.close(drain=True)
        replies = [out.get(timeout=5) for _ in range(4)]
        assert sorted(p for _, p in replies) == list(range(4))

    def test_close_is_idempotent(self):
        pool = SupervisedPool(echo_task, jobs=1)
        pool.close()
        pool.close()
        pool.terminate()

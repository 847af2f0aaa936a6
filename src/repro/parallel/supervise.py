"""A supervised worker pool that treats worker death as normal.

The plain :class:`multiprocessing.Pool` behind PR 4's executor has a
latent hang: ``imap_unordered`` waits for one reply per submitted
task, so a worker that dies *mid-task* — SIGKILLed by the kernel's
OOM killer, or crashed hard enough to skip its reply envelope —
strands the whole run.  A long-lived verification service cannot
afford that failure mode, and neither can the CLI's ``-j`` runs.

This pool replaces the task/reply plumbing with explicitly supervised
worker processes:

* each worker owns a duplex pipe; a daemon thread inside it sends a
  **heartbeat** every :data:`HEARTBEAT_INTERVAL` seconds, so the
  supervisor can tell *hung* (beating stopped) from *busy* (beating,
  still computing) from *dead* (pipe closed, exit code set);
* the dispatcher thread watches every pipe; a closed pipe or a stale
  heartbeat marks the worker dead, the worker is **re-spawned**, and
  its in-flight task is **retried with exponential backoff**;
* a task that out-lives :attr:`SupervisedPool.max_attempts` dispatch
  attempts is **quarantined**: its callback receives a
  :class:`CrashReply` instead of a worker reply, which the fan-out
  folds into a structured ``ERROR`` row.  Every submitted task is
  therefore answered — by a reply, a crash report, or a shutdown
  notice — and nothing ever waits forever;
* fault-injection is first-class: the ``serve.worker_spawn`` and
  ``serve.heartbeat`` sites fire inside the spawn path and the beat
  loop, and the crash kinds (``exit``/``kill``) let tests SIGKILL a
  busy worker deterministically.  When a worker dies while a
  count-limited crash rule is live, the supervisor decrements the
  rule before re-spawning (the dead worker cannot report that it
  fired), so ``verify.decide:kill:1`` means "exactly one crash", not
  "every fresh worker crashes once".

The pool is *persistent*: :meth:`SupervisedPool.submit` can be called
at any time.  Its one client is
:class:`repro.parallel.pool.SubgoalFanOut`, over a pool per
``verify -j`` run, per ``table -j`` run, or per daemon.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Callable, Deque, Dict, List, Optional

from repro.obs.metrics import current_metrics
from repro.robust import faults

#: Seconds between worker heartbeats.
HEARTBEAT_INTERVAL = 0.2

#: Seconds before the first retry (of a task, or of a failed spawn);
#: the delay doubles per attempt up to :data:`BACKOFF_CAP`.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: How long the dispatcher sleeps waiting for pipe traffic.
_POLL_SECONDS = 0.05

#: Exit code of a worker killed by the supervisor (hang response).
_KILLED_BY_SUPERVISOR = "killed by supervisor"


@dataclass
class CrashReply:
    """Delivered to a task's callback when no worker could answer it.

    ``reason`` is one of ``crashed`` (the worker died mid-task on
    every attempt), ``hung`` (heartbeats stopped), ``spawn-failed``
    (no worker could be started at all), ``shutdown`` (the pool was
    terminated with the task still outstanding) or
    ``supervisor-error`` (an internal dispatcher failure — every task
    is still answered).
    """

    key: object
    attempts: int
    exitcode: Optional[int]
    reason: str

    def describe(self) -> str:
        detail = self.reason
        if self.exitcode is not None:
            detail += f", exit code {self.exitcode}"
        return (f"worker {detail} after {self.attempts} "
                f"attempt(s); task quarantined")


class _Task:
    __slots__ = ("seq", "key", "payload", "on_done", "attempts",
                 "not_before", "last_exitcode", "last_reason")

    def __init__(self, seq: int, key: object, payload: object,
                 on_done: Callable[[object], None]) -> None:
        self.seq = seq
        self.key = key
        self.payload = payload
        self.on_done = on_done
        self.attempts = 0
        self.not_before = 0.0
        self.last_exitcode: Optional[int] = None
        self.last_reason = "crashed"


class _Slot:
    __slots__ = ("process", "conn", "busy", "last_beat", "spawned_at",
                 "tasks_done")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.busy: Optional[_Task] = None
        self.last_beat = time.monotonic()
        self.spawned_at = time.monotonic()
        self.tasks_done = 0


def _worker_main(conn, task_fn: Callable[[object], object],
                 faults_spec: str, heartbeat_interval: float) -> None:
    """One worker: receive tasks, answer them, beat in between.

    The beat thread shares the pipe with the task loop under a lock.
    An injected ``serve.heartbeat`` fault silently ends the beat
    thread — from the supervisor's side that worker looks hung, which
    is exactly the failure the site exists to stage.
    """
    if faults_spec:
        try:
            faults.install(faults.parse_plan(faults_spec))
        except faults.FaultSpecError:
            pass
    send_lock = threading.Lock()
    stop_beating = threading.Event()

    def beat() -> None:
        while not stop_beating.wait(heartbeat_interval):
            try:
                faults.fire("serve.heartbeat")
                with send_lock:
                    conn.send(("hb",))
            except Exception:  # noqa: BLE001 — a dead beat thread is
                # the injected failure; the supervisor notices.
                return

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            _, seq, payload = message
            reply = task_fn(payload)
            with send_lock:
                conn.send(("reply", seq, reply))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        stop_beating.set()


class SupervisedPool:
    """A crash-tolerant, persistent pool of worker processes.

    Args:
        task_fn: module-level callable executed in the worker for each
            payload; expected to catch its own exceptions and return a
            reply object (:func:`repro.parallel.worker.run_subgoal_task`
            is the canonical example).
        jobs: maximum concurrent worker processes.
        faults_spec: ``REPRO_FAULTS`` spec forwarded to every worker
            (and re-forwarded, possibly with consumed crash rules, to
            re-spawned ones).
        max_attempts: dispatch attempts per task before quarantine.
        hang_timeout: seconds without a heartbeat after which a *busy*
            worker is declared hung and killed; None disables hang
            detection (death detection stays on).
    """

    def __init__(self, task_fn: Callable[[object], object], jobs: int,
                 faults_spec: str = "", max_attempts: int = 3,
                 hang_timeout: Optional[float] = None) -> None:
        self.task_fn = task_fn
        self.jobs = max(1, jobs)
        self.max_attempts = max(1, max_attempts)
        self.hang_timeout = hang_timeout
        self._fault_plan: Optional[faults.FaultPlan] = None
        self._fault_spec = faults_spec
        if faults_spec:
            try:
                self._fault_plan = faults.parse_plan(faults_spec)
            except faults.FaultSpecError:
                self._fault_plan = None
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._queue: Deque[_Task] = deque()
        self._slots: List[_Slot] = []
        self._seq = 0
        self._outstanding = 0
        self._draining = False
        self._terminating = False
        self._closed = False
        self._spawn_failures = 0
        self._spawn_not_before = 0.0
        self._restarts = 0
        self._quarantined = 0
        self._dispatcher = threading.Thread(target=self._loop,
                                            daemon=True,
                                            name="repro-pool-dispatch")
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Public surface (any thread)
    # ------------------------------------------------------------------

    def submit(self, payload: object, key: object,
               on_done: Callable[[object], None]) -> None:
        """Enqueue one task; ``on_done`` receives exactly one reply —
        the worker's reply object or a :class:`CrashReply` — from the
        dispatcher thread."""
        with self._lock:
            if self._draining or self._terminating or self._closed:
                task = _Task(self._seq, key, payload, on_done)
                task.last_reason = "shutdown"
                self._deliver_crash(task, "shutdown")
                return
            self._seq += 1
            self._queue.append(_Task(self._seq, key, payload, on_done))
            self._outstanding += 1

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet answered."""
        with self._lock:
            return self._outstanding

    def stats(self) -> Dict[str, object]:
        """A JSON-ready snapshot for health/stats endpoints."""
        with self._lock:
            workers = [{
                "pid": slot.process.pid,
                "state": "busy" if slot.busy is not None else "idle",
                "tasks_done": slot.tasks_done,
                "age_seconds": round(time.monotonic()
                                     - slot.spawned_at, 3),
            } for slot in self._slots]
            return {
                "jobs": self.jobs,
                "workers": workers,
                "queued_tasks": len(self._queue),
                "outstanding": self._outstanding,
                "restarts": self._restarts,
                "quarantined": self._quarantined,
                "spawn_failures": self._spawn_failures,
            }

    def close(self, drain: bool = True, grace: Optional[float] = None
              ) -> None:
        """Stop the pool.

        ``drain=True`` lets queued and in-flight tasks finish (up to
        ``grace`` seconds, unlimited when None) before workers are
        stopped; ``drain=False`` kills workers immediately and answers
        every outstanding task with a ``shutdown`` crash reply.
        """
        with self._lock:
            if self._closed:
                return
            if drain:
                self._draining = True
            else:
                self._terminating = True
        if drain and grace is not None:
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                if self.outstanding == 0:
                    break
                time.sleep(_POLL_SECONDS)
            with self._lock:
                if self._outstanding:
                    self._terminating = True
        self._dispatcher.join()
        with self._lock:
            self._closed = True

    def terminate(self) -> None:
        """Kill every worker now; outstanding tasks get ``shutdown``
        crash replies.  Nothing survives this call."""
        self.close(drain=False)

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        try:
            while True:
                with self._lock:
                    terminating = self._terminating
                    done = (self._draining and self._outstanding == 0)
                if terminating or done:
                    break
                try:
                    self._reap_dead()
                    self._check_hangs()
                    self._dispatch_ready()
                    self._wait_for_traffic()
                except Exception:  # noqa: BLE001 — the dispatcher
                    # must outlive any single bad iteration; a repeat
                    # offender is caught by the outer handler.
                    current_metrics().counter(
                        "serve.pool.dispatch_errors").inc()
                    time.sleep(_POLL_SECONDS)
        except BaseException:  # noqa: BLE001 — answer, then give up
            self._fail_everything("supervisor-error")
        finally:
            self._shutdown_workers()
            self._fail_everything("shutdown")

    def _wait_for_traffic(self) -> None:
        with self._lock:
            conns = [slot.conn for slot in self._slots]
        if not conns:
            time.sleep(_POLL_SECONDS)
            return
        try:
            ready = mp_connection.wait(conns, timeout=_POLL_SECONDS)
        except OSError:
            return
        for conn in ready:
            with self._lock:
                slot = next((s for s in self._slots
                             if s.conn is conn), None)
            if slot is None:
                continue
            self._drain_slot(slot)

    def _drain_slot(self, slot: _Slot) -> None:
        try:
            while slot.conn.poll():
                message = slot.conn.recv()
                self._handle_message(slot, message)
        except (EOFError, OSError):
            self._handle_death(slot, "crashed")

    def _handle_message(self, slot: _Slot, message) -> None:
        slot.last_beat = time.monotonic()
        if message[0] == "hb":
            return
        _, seq, reply = message
        task = slot.busy
        if task is None or task.seq != seq:
            # A straggler reply from a worker we already gave up on
            # (e.g. it recovered right as we killed it): the task was
            # answered elsewhere, drop the duplicate.
            current_metrics().counter("serve.pool.stale_replies").inc()
            return
        slot.busy = None
        slot.tasks_done += 1
        with self._lock:
            self._outstanding -= 1
        self._safe_callback(task, reply)

    # -- death, hangs, retries -----------------------------------------

    def _reap_dead(self) -> None:
        with self._lock:
            slots = list(self._slots)
        for slot in slots:
            if not slot.process.is_alive():
                self._drain_slot_final(slot)

    def _drain_slot_final(self, slot: _Slot) -> None:
        """A dead worker's pipe may still hold a final reply (it
        answered, then crashed between tasks): take it before
        declaring the in-flight task lost."""
        try:
            while slot.conn.poll():
                message = slot.conn.recv()
                self._handle_message(slot, message)
        except (EOFError, OSError):
            pass
        self._handle_death(slot, "crashed")

    def _check_hangs(self) -> None:
        if self.hang_timeout is None:
            return
        now = time.monotonic()
        with self._lock:
            hung = [slot for slot in self._slots
                    if slot.busy is not None
                    and now - slot.last_beat > self.hang_timeout]
        for slot in hung:
            current_metrics().counter("serve.pool.hangs").inc()
            try:
                slot.process.kill()
                slot.process.join(1.0)
            except OSError:
                pass
            self._handle_death(slot, "hung")

    def _handle_death(self, slot: _Slot, reason: str) -> None:
        with self._lock:
            if slot not in self._slots:
                return
            self._slots.remove(slot)
            self._restarts += 1
        current_metrics().counter("serve.pool.crashes").inc()
        try:
            slot.conn.close()
        except OSError:
            pass
        try:
            # Reap before reading the exit code: EOF on the pipe can
            # precede the zombie being waited on.
            slot.process.join(1.0)
        except (OSError, AssertionError):
            pass
        exitcode = slot.process.exitcode
        # Account the crash against a count-limited exit/kill fault
        # rule: the dead worker fired it but could not report that.
        if self._fault_plan is not None and \
                self._fault_plan.consume_crash():
            self._fault_spec = self._fault_plan.to_spec()
        task = slot.busy
        slot.busy = None
        if task is not None:
            task.last_exitcode = exitcode
            task.last_reason = reason
            self._retry_or_quarantine(task, reason, exitcode)

    def _retry_or_quarantine(self, task: _Task, reason: str,
                             exitcode: Optional[int]) -> None:
        if task.attempts >= self.max_attempts:
            with self._lock:
                self._outstanding -= 1
                self._quarantined += 1
            current_metrics().counter("serve.pool.quarantined").inc()
            self._safe_callback(
                task, CrashReply(key=task.key, attempts=task.attempts,
                                 exitcode=exitcode, reason=reason))
            return
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (task.attempts - 1)))
        task.not_before = time.monotonic() + delay
        current_metrics().counter("serve.pool.retries").inc()
        with self._lock:
            self._queue.append(task)

    # -- spawning and dispatch -----------------------------------------

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        while True:
            with self._lock:
                task = self._next_ready(now)
                if task is None:
                    return
                slot = next((s for s in self._slots if s.busy is None),
                            None)
            if slot is None:
                slot = self._spawn()
                if slot is None:
                    with self._lock:
                        self._queue.appendleft(task)
                    self._maybe_fail_unspawnable()
                    return
            task.attempts += 1
            slot.busy = task
            slot.last_beat = time.monotonic()
            try:
                slot.conn.send(("task", task.seq, task.payload))
            except (OSError, ValueError):
                # The worker died between poll and send; the task
                # never started, so the attempt does not count.
                task.attempts -= 1
                slot.busy = None
                with self._lock:
                    self._queue.appendleft(task)
                self._handle_death(slot, "crashed")
                return

    def _next_ready(self, now: float) -> Optional[_Task]:
        """Pop the first dispatchable task (lock held by caller)."""
        for _ in range(len(self._queue)):
            task = self._queue.popleft()
            if task.not_before <= now:
                return task
            self._queue.append(task)
        return None

    def _spawn(self) -> Optional[_Slot]:
        with self._lock:
            if len(self._slots) >= self.jobs:
                return None
            if time.monotonic() < self._spawn_not_before:
                return None
        try:
            faults.fire("serve.worker_spawn")
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, self.task_fn, self._fault_spec,
                      HEARTBEAT_INTERVAL),
                daemon=True, name="repro-worker")
            process.start()
            child_conn.close()
        except KeyboardInterrupt:
            raise
        except Exception:  # noqa: BLE001 — spawn failure is a fault
            # site; back off and let the caller decide whether the
            # pool is beyond saving.
            with self._lock:
                self._spawn_failures += 1
                delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** min(
                    self._spawn_failures, 6)))
                self._spawn_not_before = time.monotonic() + delay
            current_metrics().counter(
                "serve.pool.spawn_failures").inc()
            return None
        slot = _Slot(process, parent_conn)
        with self._lock:
            self._slots.append(slot)
            self._spawn_failures = 0
        current_metrics().counter("serve.pool.spawns").inc()
        return slot

    def _maybe_fail_unspawnable(self) -> None:
        """With no live worker and ``max_attempts`` consecutive spawn
        failures, no task can ever run: answer them all instead of
        queueing forever."""
        with self._lock:
            broken = (not self._slots
                      and self._spawn_failures >= self.max_attempts)
        if broken:
            self._fail_everything("spawn-failed")

    # -- teardown ------------------------------------------------------

    def _fail_everything(self, reason: str) -> None:
        while True:
            with self._lock:
                task = self._queue.popleft() if self._queue else None
                busy = None
                if task is None:
                    for slot in self._slots:
                        if slot.busy is not None:
                            busy = slot.busy
                            slot.busy = None
                            break
                if task is None and busy is None:
                    return
                self._outstanding -= 1
            self._deliver_crash(task if task is not None else busy,
                                reason)

    def _deliver_crash(self, task: _Task, reason: str) -> None:
        self._safe_callback(
            task, CrashReply(key=task.key, attempts=max(1, task.attempts),
                             exitcode=task.last_exitcode, reason=reason))

    def _safe_callback(self, task: _Task, reply: object) -> None:
        try:
            task.on_done(reply)
        except Exception:  # noqa: BLE001 — a broken callback must not
            # take the dispatcher (and every other task) down with it.
            current_metrics().counter(
                "serve.pool.callback_errors").inc()

    def _shutdown_workers(self) -> None:
        with self._lock:
            slots = list(self._slots)
            self._slots = []
            terminating = self._terminating
            # Hand in-flight tasks back to the queue so the closing
            # _fail_everything() answers them with shutdown notices.
            for slot in slots:
                if slot.busy is not None:
                    self._queue.append(slot.busy)
                    slot.busy = None
        for slot in slots:
            if not terminating:
                try:
                    slot.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
        deadline = time.monotonic() + (0.0 if terminating else 2.0)
        for slot in slots:
            remaining = max(0.0, deadline - time.monotonic())
            slot.process.join(remaining)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(2.0)
            try:
                slot.conn.close()
            except OSError:
                pass


"""The subgoal fan-out: submit, gather, reassemble.

Parallel verification is only worth having if it is *observationally
equivalent* to the sequential engine — same verdicts, same outcomes,
same counterexamples, same per-subgoal statistics, same JSON schema.
The design here buys that equivalence structurally:

* the unit of work is exactly the sequential engine's unit of
  isolation — one subgoal, the loop-free triple paper §5 decides on
  its own — decided by the very same
  :class:`~repro.verify.engine.Verifier` code path in the worker, with
  a fresh BDD manager per attempt as always;
* :class:`SubgoalFanOut` is the only fan-out: ``verify -j`` makes one
  per run, ``table -j`` one per program over a pool the whole table
  shares, and ``repro serve`` one per request over the daemon's pool;
* its tasks enter the supervised pool's FIFO queue
  (:mod:`repro.parallel.supervise`) in index order, and an idle
  worker takes the next one;
* a task carries the parent's pickled verifier, and a worker ships
  back its ``SubgoalResult`` without the subgoal
  (:mod:`repro.parallel.wire`); the parent re-attaches its own and
  reassembles results **in subgoal order**, so every reporter and the
  JSON document see the order a sequential run would produce;
* each reply's worker metrics registry is merged once into the
  parent's (counters sum, gauges max — the max-over-subgoals rule),
  and per-subgoal ``CompilationStats`` ride inside each result.

The one documented divergence: a run deadline is *partitioned*
(:func:`partition_deadline`) rather than shared absolutely, so a
stuck worker exhausts only its own slice and can never starve its
siblings.  ``tests/diffcheck.py`` is the enforcement arm of this
module's contract.
"""

from __future__ import annotations

import math
import os
import queue
import time
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.mso.compile import CompilationStats
from repro.obs.metrics import current_metrics
from repro.parallel.supervise import CrashReply, SupervisedPool
from repro.parallel.wire import (SubgoalTask, WorkerReply,
                                 rebuild_subgoal_result)
from repro.parallel.worker import run_subgoal_task
from repro.verify.engine import (Outcome, Subgoal, SubgoalResult,
                                 VerificationResult, Verifier,
                                 describe_exception, record_run_metrics)


def resolve_jobs(jobs: Optional[int]) -> int:
    """CLI semantics of ``--jobs``: None/1 = sequential, 0 = one per
    CPU, N = N workers."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ReproError(f"--jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def partition_deadline(remaining: Optional[float], pending: int,
                       workers: int) -> Optional[float]:
    """Per-task wall-clock slice of one shared deadline.

    With ``pending`` tasks on ``workers`` workers the tasks run in at
    most ``ceil(pending / workers)`` waves, and each task gets
    ``remaining / waves``: even if a worker wedges inside its slice,
    every other task still owns enough of the deadline to run.
    Returns None when there is no deadline.  A non-positive
    ``remaining`` yields 0.0 — every task's budget trips immediately,
    mirroring the sequential engine's behaviour once its absolute
    deadline has passed.
    """
    if remaining is None:
        return None
    if remaining <= 0 or pending <= 0:
        return 0.0
    waves = math.ceil(pending / max(1, workers))
    return remaining / waves


def open_pool(jobs: int,
              hang_timeout: Optional[float] = None) -> SupervisedPool:
    """A supervised pool of subgoal workers.  ``REPRO_FAULTS`` is
    forwarded to every worker it spawns."""
    return SupervisedPool(run_subgoal_task, jobs,
                          faults_spec=os.environ.get("REPRO_FAULTS", ""),
                          hang_timeout=hang_timeout)


def error_row(subgoal: Subgoal, message: str,
              attempts: int = 1) -> SubgoalResult:
    """The ``ERROR`` row of a subgoal no worker decided: a lost task
    surfaces like any other degraded subgoal — a row in the report,
    never a hung run or a raw traceback."""
    return SubgoalResult(subgoal=subgoal, valid=False,
                         counterexample=None, stats=CompilationStats(),
                         formula_size=0, seconds=0.0,
                         outcome=Outcome.ERROR, error=message,
                         attempts=attempts)


class SubgoalFanOut:
    """One program's subgoals in flight on a supervised pool.

    Construction submits one :class:`SubgoalTask` per subgoal, in
    index order, each carrying its :func:`partition_deadline` slice of
    the verifier's timeout; :meth:`result` gathers the answers.
    """

    def __init__(self, pool: SupervisedPool, verifier: Verifier,
                 subgoals: List[Subgoal]) -> None:
        self.verifier = verifier
        self.subgoals = subgoals
        self._replies: "queue.Queue[Union[CrashReply, WorkerReply]]" \
            = queue.Queue()
        timeout_slice = partition_deadline(verifier.timeout,
                                           len(subgoals), pool.jobs)
        for index in range(len(subgoals)):
            pool.submit(SubgoalTask(verifier, index, timeout_slice),
                        index, self._replies.put)

    def result(self, deadline: Optional[float] = None
               ) -> VerificationResult:
        """Gather every answer into one result, in subgoal order.

        One rule covers every answer.  A worker result is rebuilt
        against the parent's own subgoal.  A :class:`CrashReply` (the
        task was quarantined, or the pool shut down first) or an
        ``error`` reply becomes an ``ERROR`` row.  An ``interrupted``
        reply, or a KeyboardInterrupt here, stops the gather and marks
        the run interrupted; the subgoals answered so far are kept.  A
        subgoal still unanswered at ``deadline`` (a
        :func:`time.monotonic` instant; None waits for every answer)
        becomes an ``ERROR`` row.  Each reply's worker metrics are
        merged once into :func:`current_metrics`.
        """
        verifier = self.verifier
        result = VerificationResult(verifier.program.name)
        budget = verifier._make_budget(verifier.timeout)
        if budget is not None:
            result.budget = budget.limits()
        rows: Dict[int, SubgoalResult] = {}
        try:
            while len(rows) < len(self.subgoals):
                wait = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                try:
                    reply = self._replies.get(timeout=wait)
                except queue.Empty:
                    break
                index = int(reply.key)  # type: ignore[arg-type]
                subgoal = self.subgoals[index]
                if isinstance(reply, CrashReply):
                    rows[index] = error_row(subgoal, reply.describe(),
                                            reply.attempts)
                    continue
                if reply.metrics is not None:
                    current_metrics().merge(reply.metrics)
                if reply.kind == "interrupted":
                    result.interrupted = True
                    break
                if reply.kind == "error":
                    message = describe_exception(
                        reply.value)  # type: ignore[arg-type]
                    rows[index] = error_row(subgoal,
                                            f"worker error: {message}")
                else:
                    rows[index] = rebuild_subgoal_result(
                        reply.value, subgoal)  # type: ignore[arg-type]
        except KeyboardInterrupt:
            result.interrupted = True
        for index, subgoal in enumerate(self.subgoals):
            if index in rows:
                result.results.append(rows[index])
            elif not result.interrupted:
                result.results.append(error_row(
                    subgoal, "no worker answered before the deadline"))
        record_run_metrics(result)
        return result


def verify_parallel(verifier: Verifier) -> VerificationResult:
    """Decide one program's subgoals on a pool of its own.

    The subgoals are collected first, so a front-end failure surfaces
    exactly as in the sequential path, before any worker exists.  The
    result is verdict-, outcome-, counterexample- and stats-identical
    to ``verifier.verify()`` with ``jobs=1``; only wall-clock time and
    the deadline-sharing rule differ.
    """
    subgoals = verifier.collect_subgoals()
    pool = open_pool(min(verifier.jobs, len(subgoals)))
    clean = False
    try:
        result = SubgoalFanOut(pool, verifier, subgoals).result()
        clean = not result.interrupted
    finally:
        # An interrupted or failed run terminates the pool instead of
        # draining it, so no orphaned worker outlives the run.
        pool.close(drain=clean)
    return result

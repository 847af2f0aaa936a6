"""The process-pool executor: fan out, merge, reassemble.

Parallel verification is only worth having if it is *observationally
equivalent* to the sequential engine — same verdicts, same outcomes,
same counterexamples, same per-subgoal statistics, same JSON schema.
The design here buys that equivalence structurally:

* the unit of work is exactly the sequential engine's unit of
  isolation (one subgoal, or one whole program for ``table``), decided
  by the very same :class:`~repro.verify.engine.Verifier` code path in
  the worker, with a fresh BDD manager per attempt as always;
* tasks enter the supervised pool's FIFO queue
  (:mod:`repro.parallel.supervise`) in index order, and an idle
  worker takes the next one;
* workers ship back plain data (:mod:`repro.parallel.wire`); the
  parent reassembles results **in subgoal order**, so every reporter
  and the JSON document see the order a sequential run would produce;
* per-worker metrics registries are merged into the parent's both
  under ``worker.<slot>.`` namespaces and into the top-level merged
  view (counters sum, gauges max — PR 2's max-over-subgoals rule);
* per-worker ``CompilationStats`` ride inside each subgoal result and
  aggregate through the existing ``CompilationStats.merge``.

The one documented divergence: a run deadline is *partitioned*
(:func:`partition_deadline`) rather than shared absolutely, so a
stuck worker exhausts only its own slice and can never starve its
siblings.  ``tests/diffcheck.py`` is the enforcement arm of this
module's contract.
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.mso.compile import CompilationStats
from repro.obs import trace as obs_trace
from repro.obs.metrics import current_metrics
from repro.parallel.supervise import CrashReply, run_supervised
from repro.parallel.wire import (EngineOptions, ProgramTask, SubgoalTask,
                                 WireSubgoalResult, WorkerReply,
                                 rebuild_run, rebuild_subgoal_result)
from repro.parallel import worker as worker_mod
from repro.verify.engine import (Outcome, VerificationResult, Verifier)


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


def engine_options(verifier: Verifier) -> EngineOptions:
    """The picklable option set a worker needs to replay decisions."""
    tracer = verifier.tracer
    return EngineOptions(
        simulate=verifier.simulate,
        reduce=verifier.reduce,
        slice=verifier.slice,
        cache_dir=verifier.cache_dir,
        cache_max_mb=verifier.cache_max_mb,
        timeout=verifier.timeout,
        max_bdd_nodes=verifier.max_bdd_nodes,
        max_states=verifier.max_states,
        max_steps=verifier.max_steps,
        trace_detail=None if tracer is None else bool(tracer.detail),
    )


class _ReplyCollector:
    """Merges worker replies into the parent's metrics registry,
    assigning dense worker slots (``worker.0``, ``worker.1``, ...) in
    first-reply order so namespaces are stable run to run."""

    def __init__(self) -> None:
        self._slots: Dict[int, int] = {}

    def absorb(self, reply: WorkerReply) -> None:
        if reply.metrics is None:
            return
        registry = current_metrics()
        if not registry.enabled:
            return
        slot = self._slots.setdefault(reply.pid, len(self._slots))
        registry.merge(reply.metrics)
        registry.merge(reply.metrics, prefix=f"worker.{slot}.")


def error_subgoal_wire(index: int, message: str, attempts: int = 1,
                       description: str = "") -> WireSubgoalResult:
    """A synthesized ``ERROR`` row for a subgoal no worker could
    answer — the supervised-pool analogue of the engine's degradation
    ladder, so a lost task surfaces exactly like any other per-subgoal
    failure: a row in the report, never a hung run."""
    return WireSubgoalResult(
        index=index,
        description=description or f"subgoal {index}",
        valid=False,
        outcome=Outcome.ERROR.value,
        error=message,
        attempts=attempts,
        budget=None,
        seconds=0.0,
        formula_size=0,
        tracks_before=0,
        tracks_after=0,
        stats=CompilationStats(),
        span=None,
        counterexample=None,
    )


def crash_subgoal_wire(index: int, crash: CrashReply,
                       description: str = "") -> WireSubgoalResult:
    """Fold a quarantined subgoal task (the worker died on every
    attempt — OOM kill, hard exit, hang) into a structured ``ERROR``
    row."""
    return error_subgoal_wire(index, crash.describe(),
                              attempts=crash.attempts,
                              description=description)


# ----------------------------------------------------------------------
# verify -j N: subgoal-level parallelism
# ----------------------------------------------------------------------

def verify_parallel(verifier: Verifier) -> VerificationResult:
    """Decide one program's subgoals across a worker pool.

    The reassembled result is verdict-, outcome-, counterexample- and
    stats-identical to ``verifier.verify()`` with ``jobs=1``; only
    wall-clock time and the deadline-sharing rule differ.
    """
    program = verifier.program
    # Front-end failures (unsupported nesting, bad annotations) must
    # surface exactly as in the sequential path: before any worker.
    subgoals = verifier.collect_subgoals()
    jobs = max(1, min(verifier.jobs, len(subgoals)))
    options = engine_options(verifier)

    result = VerificationResult(program.name)
    budget = verifier._make_budget(verifier.timeout)
    if budget is not None:
        result.budget = budget.limits()

    indices = list(range(len(subgoals)))
    slice_seconds = partition_deadline(verifier.timeout, len(indices),
                                       jobs)
    payloads: List[object] = [
        SubgoalTask(program=program, index=index, options=options,
                    timeout_slice=slice_seconds)
        for index in indices]

    collector = _ReplyCollector()
    wires: Dict[int, object] = {}
    errors: List[BaseException] = []

    def on_reply(reply) -> bool:
        if isinstance(reply, CrashReply):
            # The worker died on every attempt: a structured ERROR
            # row, exactly like any other degraded subgoal.
            index = int(reply.key)  # type: ignore[arg-type]
            wires[index] = crash_subgoal_wire(
                index, reply,
                description=getattr(subgoals[index], "description", ""))
            return False
        collector.absorb(reply)
        if reply.kind == "error":
            # Unexpected escape (the engine degrades everything it
            # can); surface it like the sequential path would.
            errors.append(reply.value)  # type: ignore[arg-type]
            return True
        wires[int(reply.key)] = reply.value  # type: ignore[arg-type]
        return False

    tracer = verifier.tracer
    with obs_trace.activate(tracer) if tracer is not None \
            else nullcontext():
        with obs_trace.span("verify", program=program.name,
                            parallel=True, jobs=jobs,
                            subgoals=len(subgoals)):
            interrupted = run_supervised(payloads, indices,
                                         worker_mod.run_subgoal_task,
                                         jobs, on_reply)
    if errors:
        raise errors[0]

    metrics = current_metrics()
    budget_steps = 0
    for index in range(len(subgoals)):
        wire = wires.get(index)
        if wire is None:
            continue  # undecided at interrupt time
        decided = rebuild_subgoal_result(wire, subgoals[index])
        result.results.append(decided)
        metrics.counter(
            f"verify.outcome.{decided.outcome.value}").inc()
        if decided.budget is not None:
            budget_steps += int(decided.budget.get("steps") or 0)
    result.interrupted = interrupted
    metrics.gauge("verify.tracks_before").set(result.tracks_before)
    metrics.gauge("verify.tracks_after").set(result.tracks_after)
    if result.budget is not None:
        metrics.gauge("verify.budget.steps").set(budget_steps)
    return result


# ----------------------------------------------------------------------
# table --jobs N: program-level parallelism
# ----------------------------------------------------------------------

def run_table(names: List[str], options: EngineOptions, jobs: int,
              keep_going: bool = False
              ) -> Tuple[List[VerificationResult], bool]:
    """Verify many programs across a worker pool.

    Returns the results **in input order** (restricted to the
    programs that finished, when interrupted) plus the interrupted
    flag — the same contract as the sequential ``table`` loop.  Each
    program gets the full configured timeout, exactly as sequential
    ``table`` re-creates a budget per program.
    """
    jobs = max(1, min(jobs, len(names))) if names else 1
    payloads: List[object] = [
        ProgramTask(name=name, options=options, keep_going=keep_going)
        for name in names]

    collector = _ReplyCollector()
    finished: Dict[str, VerificationResult] = {}
    errors: List[BaseException] = []
    saw_engine_interrupt = [False]

    def on_reply(reply) -> bool:
        name = str(reply.key)
        if isinstance(reply, CrashReply):
            # A program whose worker died on every attempt becomes a
            # structured error row (exit code 3), never a raw crash
            # of the whole table run.
            finished[name] = VerificationResult(program=name,
                                                error=reply.describe())
            return False
        collector.absorb(reply)
        if reply.kind == "error":
            exc = reply.value
            if keep_going and isinstance(exc, (ReproError, OSError)):
                finished[name] = VerificationResult(program=name,
                                                    error=str(exc))
                return False
            errors.append(exc)  # type: ignore[arg-type]
            return True
        run = rebuild_run(reply.value)  # type: ignore[arg-type]
        finished[name] = run
        if run.interrupted:
            # Mirror the sequential loop: keep the partial program
            # report, then stop the whole table.
            saw_engine_interrupt[0] = True
            return True
        return False

    interrupted = run_supervised(payloads, list(names),
                                 worker_mod.run_program_task,
                                 jobs, on_reply)
    if errors:
        raise errors[0]
    results = [finished[name] for name in names if name in finished]
    return results, interrupted or saw_engine_interrupt[0]

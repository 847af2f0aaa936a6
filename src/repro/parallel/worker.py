"""The worker-process entry point for the parallel executor.

Each worker process owns its own world: a fresh BDD manager per
decision attempt (the engine already guarantees that), its own metrics
registry, and its own budget carved out of the run deadline.  The
task's pickled :class:`~repro.verify.engine.Verifier` arrives with a
fresh tracer of its own when the parent's had one.  Nothing is shared
with the parent but the pickled task in and the pickled
:class:`~repro.parallel.wire.WorkerReply` out, whose result is the
worker's :class:`~repro.verify.engine.SubgoalResult` without its
subgoal.

A worker never lets an exception escape: the engine's degradation
ladder already folds per-subgoal failures into structured outcomes,
and whatever still gets through — an injected ``KeyboardInterrupt``,
an error outside the ladder — is wrapped into the reply envelope,
which the parent's fan-out turns into an interrupted run or an
``ERROR`` row.  This keeps the process pool healthy (a raising task
would otherwise kill its worker) and keeps fault-injection behaviour
identical to the in-process path.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.parallel.wire import (SubgoalTask, WorkerReply,
                                 wire_subgoal_result)


def run_subgoal_task(task: SubgoalTask) -> WorkerReply:
    """Decide one subgoal with the parent's verifier, under this
    worker's own metrics registry."""
    metrics = MetricsRegistry()
    try:
        with activate_metrics(metrics):
            result = task.verifier.decide_index(
                task.index, timeout=task.timeout_slice)
        return WorkerReply(kind="result", key=task.index,
                           value=wire_subgoal_result(result),
                           metrics=metrics)
    except KeyboardInterrupt:
        return WorkerReply(kind="interrupted", key=task.index,
                           value=None, metrics=metrics)
    except BaseException as exc:  # noqa: BLE001 — the envelope IS the
        # error channel; a raising task must not kill its worker.
        return WorkerReply(kind="error", key=task.index, value=exc,
                           metrics=metrics)

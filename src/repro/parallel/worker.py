"""The worker-process entry point for the parallel executor.

Each worker process owns its own world: a fresh BDD manager per
decision attempt (the engine already guarantees that), its own metrics
registry, its own tracer, and its own budget carved out of the run
deadline.  Nothing is shared with the parent but the pickled task in
and the pickled :class:`~repro.parallel.wire.WorkerReply` out.

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

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.parallel.wire import (SubgoalTask, WorkerReply,
                                 wire_subgoal_result)
from repro.verify.engine import Verifier


def run_subgoal_task(task: SubgoalTask) -> WorkerReply:
    """Decide one subgoal of an already-typed program."""
    metrics = MetricsRegistry()
    options = task.options
    try:
        with activate_metrics(metrics):
            verifier = Verifier(task.program,  # type: ignore[arg-type]
                                simulate=options.simulate,
                                reduce=options.reduce,
                                slice=options.slice,
                                cache_dir=options.cache_dir,
                                cache_max_mb=options.cache_max_mb,
                                timeout=options.timeout,
                                max_bdd_nodes=options.max_bdd_nodes,
                                max_states=options.max_states,
                                max_steps=options.max_steps)
            if options.trace_detail is not None:
                tracer = obs_trace.Tracer(detail=options.trace_detail)
                with obs_trace.activate(tracer):
                    result = verifier.decide_index(
                        task.index, timeout=task.timeout_slice)
            else:
                result = verifier.decide_index(
                    task.index, timeout=task.timeout_slice)
        return WorkerReply(kind="result", key=task.index,
                           value=wire_subgoal_result(task.index, result),
                           metrics=metrics)
    except KeyboardInterrupt:
        return WorkerReply(kind="interrupted", key=task.index,
                           value=None, metrics=metrics)
    except BaseException as exc:  # noqa: BLE001 — the envelope IS the
        # error channel; a raising task must not kill its worker.
        return WorkerReply(kind="error", key=task.index, value=exc,
                           metrics=metrics)

"""Worker-process entry points for the parallel executor.

Each worker process owns its own world: a fresh BDD manager per
decision attempt (the engine already guarantees that), its own metrics
registry, its own tracer, and its own budget carved out of the run
deadline.  Nothing is shared with the parent but the pickled task in
and the pickled :class:`~repro.parallel.wire.WorkerReply` out.

A worker never lets an exception escape: the engine's degradation
ladder already folds per-subgoal failures into structured outcomes,
and whatever still gets through — front-end errors on a ``table``
task, an injected ``KeyboardInterrupt`` — is wrapped into the reply
envelope for the parent to re-raise or record.  This keeps the
process pool healthy (a raising task would otherwise kill its worker)
and keeps fault-injection behaviour identical to the in-process path.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.pascal import check_program, parse_program
from repro.parallel.wire import (EngineOptions, ProgramTask, SubgoalTask,
                                 WorkerReply, wire_run,
                                 wire_subgoal_result)
from repro.programs import load_source
from repro.verify.engine import VerificationResult, Verifier


def _verifier_for(program: object, options: EngineOptions,
                  tracer: Optional[obs_trace.Tracer],
                  timeout: Optional[float]) -> Verifier:
    return Verifier(program,  # type: ignore[arg-type]
                    simulate=options.simulate,
                    reduce=options.reduce,
                    slice=options.slice,
                    cache_dir=options.cache_dir,
                    cache_max_mb=options.cache_max_mb,
                    tracer=tracer,
                    timeout=timeout,
                    max_bdd_nodes=options.max_bdd_nodes,
                    max_states=options.max_states,
                    max_steps=options.max_steps)


def _tracer_for(options: EngineOptions) -> Optional[obs_trace.Tracer]:
    if options.trace_detail is None:
        return None
    return obs_trace.Tracer(detail=options.trace_detail)


def run_subgoal_task(task: SubgoalTask) -> WorkerReply:
    """Decide one subgoal of an already-typed program."""
    metrics = MetricsRegistry()
    try:
        with activate_metrics(metrics):
            tracer = _tracer_for(task.options)
            verifier = _verifier_for(task.program, task.options,
                                     tracer=None,
                                     timeout=task.options.timeout)
            if tracer is not None:
                with obs_trace.activate(tracer):
                    result = verifier.decide_index(
                        task.index, timeout=task.timeout_slice)
            else:
                result = verifier.decide_index(
                    task.index, timeout=task.timeout_slice)
        return WorkerReply(kind="result", key=task.index,
                           value=wire_subgoal_result(task.index, result),
                           pid=os.getpid(), metrics=metrics)
    except KeyboardInterrupt:
        return WorkerReply(kind="interrupted", key=task.index,
                           value=None, pid=os.getpid(), metrics=metrics)
    except BaseException as exc:  # noqa: BLE001 — the envelope IS the
        # error channel; a raising task must not kill its worker.
        return WorkerReply(kind="error", key=task.index, value=exc,
                           pid=os.getpid(), metrics=metrics)


def run_program_task(task: ProgramTask) -> WorkerReply:
    """Verify one whole program (``table``/batch granularity).

    Each program gets the full configured timeout, exactly as the
    sequential ``table`` loop gives each program its own budget.
    """
    metrics = MetricsRegistry()
    try:
        with activate_metrics(metrics):
            source = load_source(task.name)
            program = check_program(parse_program(source))
            tracer = _tracer_for(task.options)
            verifier = _verifier_for(program, task.options,
                                     tracer=tracer,
                                     timeout=task.options.timeout)
            result: VerificationResult = verifier.verify()
        return WorkerReply(kind="run", key=task.name,
                           value=wire_run(result),
                           pid=os.getpid(), metrics=metrics)
    except KeyboardInterrupt:
        return WorkerReply(kind="interrupted", key=task.name,
                           value=None, pid=os.getpid(), metrics=metrics)
    except BaseException as exc:  # noqa: BLE001 — see run_subgoal_task
        return WorkerReply(kind="error", key=task.name, value=exc,
                           pid=os.getpid(), metrics=metrics)

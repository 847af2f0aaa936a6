"""Picklable payloads crossing the worker process boundary.

Subgoals themselves cannot travel: their obligations close over
formula builders and interpreter state.  Instead, a worker receives
the *typed program* (or just a program name, for ``table`` tasks) and
an index, re-derives the subgoal deterministically, and ships back a
:class:`WireSubgoalResult` — plain data mirroring
:class:`repro.verify.engine.SubgoalResult` field for field.  The
parent re-attaches its own :class:`Subgoal` object (or a
:class:`WireSubgoal` shim when it never parsed the program), so the
reassembled ``VerificationResult`` renders and serialises exactly as
a sequential run's would.

Spans travel as their ``to_dict()`` trees and are rebuilt into real
:class:`~repro.obs.trace.Span` objects by :func:`span_from_dict`, so
``--profile``/``--json`` output is structurally identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mso.compile import CompilationStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span
from repro.verify.counterexample import Counterexample
from repro.verify.engine import Outcome, SubgoalResult, VerificationResult


# ----------------------------------------------------------------------
# Task payloads (parent -> worker)
# ----------------------------------------------------------------------

@dataclass
class EngineOptions:
    """The picklable subset of :class:`repro.verify.engine.Verifier`
    configuration a worker needs to reproduce a decision exactly."""

    simulate: bool = True
    reduce: bool = True
    slice: bool = True
    cache_dir: Optional[str] = None
    cache_max_mb: Optional[float] = None
    timeout: Optional[float] = None
    max_bdd_nodes: Optional[int] = None
    max_states: Optional[int] = None
    max_steps: Optional[int] = None
    #: None = no tracer; False = phase spans; True = detail spans.
    trace_detail: Optional[bool] = None


@dataclass
class SubgoalTask:
    """Decide subgoal ``index`` of ``program`` (a ``verify -j`` unit)."""

    program: object  # TypedProgram; picklable AST dataclasses
    index: int
    options: EngineOptions
    #: This task's share of the run deadline (None = no deadline);
    #: replaces ``options.timeout`` so a stuck sibling cannot starve it.
    timeout_slice: Optional[float] = None


@dataclass
class ProgramTask:
    """Verify one whole program (a ``table``/batch unit)."""

    name: str
    options: EngineOptions
    keep_going: bool = False


# ----------------------------------------------------------------------
# Results (worker -> parent)
# ----------------------------------------------------------------------

@dataclass
class WireSubgoalResult:
    """One decided subgoal, flattened to plain data."""

    index: int
    description: str
    valid: bool
    outcome: str
    error: Optional[str]
    attempts: int
    budget: Optional[Dict[str, object]]
    seconds: float
    formula_size: int
    tracks_before: int
    tracks_after: int
    stats: CompilationStats
    span: Optional[Dict[str, object]]
    counterexample: Optional[Counterexample]
    #: Check-obligation names, so text reports of rebuilt results can
    #: list them even when the parent never split the program.
    checks: Tuple[str, ...] = ()
    statements_before: int = 0
    statements_after: int = 0
    variable_order: Optional[Tuple[str, ...]] = None
    cache: Optional[Dict[str, object]] = None


@dataclass
class WireRun:
    """One whole-program verification, flattened."""

    program: str
    subgoals: List[WireSubgoalResult] = field(default_factory=list)
    error: Optional[str] = None
    interrupted: bool = False
    budget: Optional[Dict[str, object]] = None


@dataclass
class WorkerReply:
    """Envelope for everything a worker sends back for one task.

    ``kind`` is one of ``result`` (value = WireSubgoalResult),
    ``run`` (value = WireRun), ``error`` (value = the pickled
    exception, re-raised or degraded by the parent) or
    ``interrupted`` (value = None; the worker saw KeyboardInterrupt).
    """

    kind: str
    key: object
    value: object
    pid: int = 0
    metrics: Optional[MetricsRegistry] = None


# ----------------------------------------------------------------------
# Subgoal shim and (de)serialisation helpers
# ----------------------------------------------------------------------

@dataclass
class WireSubgoal:
    """Stands in for a :class:`~repro.verify.engine.Subgoal` when the
    parent never split the program itself (``table`` tasks).  Carries
    what the reporters read: the description and the check names."""

    description: str
    check: Tuple["WireObligation", ...] = ()
    assume: Tuple["WireObligation", ...] = ()
    statements: Tuple[object, ...] = ()


@dataclass
class WireObligation:
    """Name-only obligation for :class:`WireSubgoal` (the text report
    lists check names for failed/verbose subgoals)."""

    name: str


def span_from_dict(document: Optional[Dict[str, object]]) -> Optional[Span]:
    """Rebuild a :class:`Span` tree from its ``to_dict()`` form.

    The rebuilt span reports the recorded duration (``start`` 0,
    ``end`` = seconds) and never re-enters a tracer, so it behaves
    exactly like the original for rendering and JSON export.
    """
    if document is None:
        return None
    span = Span(str(document["name"]), dict(document["attrs"]), None)
    span.start = 0.0
    span.end = float(document["seconds"])
    span.children = [span_from_dict(child)
                     for child in document["children"]]
    return span


def wire_subgoal_result(index: int,
                        result: SubgoalResult) -> WireSubgoalResult:
    """Flatten one engine result for the trip to the parent."""
    return WireSubgoalResult(
        index=index,
        description=result.description,
        valid=result.valid,
        outcome=result.outcome.value,
        error=result.error,
        attempts=result.attempts,
        budget=result.budget,
        seconds=result.seconds,
        formula_size=result.formula_size,
        tracks_before=result.tracks_before,
        tracks_after=result.tracks_after,
        stats=result.stats,
        span=result.span.to_dict() if result.span is not None else None,
        counterexample=result.counterexample,
        checks=tuple(item.name for item in result.subgoal.check),
        statements_before=result.statements_before,
        statements_after=result.statements_after,
        variable_order=result.variable_order,
        cache=result.cache,
    )


def rebuild_subgoal_result(wire: WireSubgoalResult,
                           subgoal: object = None) -> SubgoalResult:
    """Inflate a wire result back into a :class:`SubgoalResult`.

    ``subgoal`` is the parent's own Subgoal object when it has one
    (``verify -j``); otherwise a :class:`WireSubgoal` shim carrying
    the worker-reported description and check names.
    """
    if subgoal is None:
        subgoal = WireSubgoal(
            description=wire.description,
            check=tuple(WireObligation(name) for name in wire.checks))
    return SubgoalResult(
        subgoal=subgoal,
        valid=wire.valid,
        counterexample=wire.counterexample,
        stats=wire.stats,
        formula_size=wire.formula_size,
        seconds=wire.seconds,
        span=span_from_dict(wire.span),
        tracks_before=wire.tracks_before,
        tracks_after=wire.tracks_after,
        outcome=Outcome(wire.outcome),
        error=wire.error,
        attempts=wire.attempts,
        budget=wire.budget,
        statements_before=wire.statements_before,
        statements_after=wire.statements_after,
        variable_order=wire.variable_order,
        cache=wire.cache,
    )


def wire_run(result: VerificationResult) -> WireRun:
    """Flatten one whole-program result for the trip to the parent."""
    return WireRun(
        program=result.program,
        subgoals=[wire_subgoal_result(i, sub)
                  for i, sub in enumerate(result.results)],
        error=result.error,
        interrupted=result.interrupted,
        budget=result.budget,
    )


def rebuild_run(wire: WireRun) -> VerificationResult:
    """Inflate a wire run back into a :class:`VerificationResult`."""
    result = VerificationResult(program=wire.program, error=wire.error,
                                interrupted=wire.interrupted,
                                budget=wire.budget)
    for sub in wire.subgoals:
        result.results.append(rebuild_subgoal_result(sub))
    return result

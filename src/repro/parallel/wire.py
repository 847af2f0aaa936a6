"""Picklable payloads crossing the worker process boundary.

Subgoals themselves cannot travel: their obligations close over
formula builders and interpreter state.  Instead, a worker receives
the *typed program* and a subgoal index, re-derives the subgoal
deterministically, and ships back a :class:`WireSubgoalResult` —
plain data mirroring :class:`repro.verify.engine.SubgoalResult` field
for field.  The parent re-attaches its own :class:`Subgoal` object,
so the reassembled ``VerificationResult`` renders and serialises
exactly as a sequential run's would.  The verdict cache stores the
same wire form.

Spans travel as their ``to_dict()`` trees and are rebuilt into real
:class:`~repro.obs.trace.Span` objects by :func:`span_from_dict`, so
``--profile``/``--json`` output is structurally identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.mso.compile import CompilationStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span
from repro.verify.counterexample import Counterexample
from repro.verify.engine import Outcome, Subgoal, SubgoalResult


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
    """Decide subgoal ``index`` of ``program`` — the one unit of
    parallel work, for ``verify -j``, ``table -j`` and the daemon."""

    program: object  # TypedProgram; picklable AST dataclasses
    index: int
    options: EngineOptions
    #: This task's share of the run deadline (None = no deadline);
    #: replaces ``options.timeout`` so a stuck sibling cannot starve it.
    timeout_slice: Optional[float] = None


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
    statements_before: int = 0
    statements_after: int = 0
    variable_order: Optional[Tuple[str, ...]] = None
    cache: Optional[Dict[str, object]] = None


@dataclass
class WorkerReply:
    """Envelope for everything a worker sends back for one task.

    ``kind`` is one of ``result`` (value = WireSubgoalResult),
    ``error`` (value = the pickled exception, which the parent turns
    into an ``ERROR`` row) or ``interrupted`` (value = None; the
    worker saw KeyboardInterrupt).
    """

    kind: str
    key: object
    value: object
    metrics: Optional[MetricsRegistry] = None


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
        statements_before=result.statements_before,
        statements_after=result.statements_after,
        variable_order=result.variable_order,
        cache=result.cache,
    )


def rebuild_subgoal_result(wire: WireSubgoalResult,
                           subgoal: Subgoal) -> SubgoalResult:
    """Inflate a wire result back into a :class:`SubgoalResult` for
    the parent's own ``subgoal``."""
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


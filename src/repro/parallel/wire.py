"""Picklable payloads crossing the worker process boundary.

A task is the parent's own :class:`~repro.verify.engine.Verifier`
plus a subgoal index: the verifier pickles with its typed program and
every setting (:meth:`~repro.verify.engine.Verifier.__getstate__`),
and the worker re-derives the subgoal deterministically.  Subgoals
themselves cannot travel — their obligations close over formula
builders and interpreter state — so the worker sends back its
:class:`~repro.verify.engine.SubgoalResult` without its subgoal, and
the parent re-attaches its own.  The record keeps its counterexample,
statistics and closed span tree, so the reassembled
``VerificationResult`` renders and serialises exactly as a sequential
run's would.  The verdict cache stores the same detached record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.obs.metrics import MetricsRegistry
from repro.verify.engine import Subgoal, SubgoalResult, Verifier


@dataclass
class SubgoalTask:
    """Decide subgoal ``index`` with ``verifier`` — the one unit of
    parallel work, for ``verify -j``, ``table -j`` and the daemon."""

    verifier: Verifier
    index: int
    #: This task's share of the run deadline (None = no deadline); it
    #: replaces the verifier's timeout, so a stuck sibling cannot
    #: starve it.
    timeout_slice: Optional[float] = None


@dataclass
class WorkerReply:
    """Envelope for everything a worker sends back for one task.

    ``kind`` is one of ``result`` (value = the
    :class:`SubgoalResult`, without its subgoal), ``error`` (value =
    the pickled exception, which the parent turns into an ``ERROR``
    row) or ``interrupted`` (value = None; the worker saw
    KeyboardInterrupt).
    """

    kind: str
    key: object
    value: object
    metrics: Optional[MetricsRegistry] = None


def wire_subgoal_result(result: SubgoalResult) -> SubgoalResult:
    """The result without its subgoal, ready for the trip to the
    parent."""
    return replace(result, subgoal=None)  # type: ignore[arg-type]


def rebuild_subgoal_result(record: SubgoalResult,
                           subgoal: Subgoal) -> SubgoalResult:
    """A worker's record with the parent's own ``subgoal``
    re-attached."""
    return replace(record, subgoal=subgoal)

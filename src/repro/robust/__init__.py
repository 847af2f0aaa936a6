"""Resource governance: budgets, graceful degradation, fault injection.

The pipeline's worst case is non-elementary, so production use needs a
guarantee stronger than "usually fast": **every verification
terminates with a structured verdict**.  This package supplies the
two pieces:

* :mod:`repro.robust.budget` — a :class:`Budget` (wall-clock deadline,
  BDD-node cap, automaton-state cap, step fuel) with cheap cooperative
  cancellation checks threaded through the hot loops, raising a
  structured :class:`BudgetExceeded`;
* :mod:`repro.robust.faults` — deterministic fault injection at named
  pipeline sites (env var ``REPRO_FAULTS`` or the :func:`injected`
  context manager), so the error paths are testable.

The verification engine (:mod:`repro.verify.engine`) consumes both:
each subgoal is decided under the active budget, a tripped budget or
internal error triggers one retry under the alternate
cone-of-influence configuration, and irrecoverable subgoals are
recorded as ``TIMEOUT`` / ``BUDGET_EXCEEDED`` / ``ERROR`` outcomes
instead of aborting the run.
"""

from repro.robust.budget import (NULL_BUDGET, Budget, BudgetExceeded,
                                 activate, current_budget)
from repro.robust.faults import (FAULT_KINDS, FAULT_SITES, FaultPlan,
                                 FaultSpecError, injected, install,
                                 install_from_env, parse_plan)

__all__ = ["Budget", "BudgetExceeded", "NULL_BUDGET", "activate",
           "current_budget", "FAULT_KINDS", "FAULT_SITES", "FaultPlan",
           "FaultSpecError", "injected", "install", "install_from_env",
           "parse_plan"]

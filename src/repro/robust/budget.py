"""Resource budgets with cooperative cancellation.

The decision procedure is complete but non-elementary in the worst
case: one pathological subgoal can blow up in BDD nodes, automaton
states, or wall-clock time.  A :class:`Budget` turns those unbounded
failure modes into a structured, catchable :class:`BudgetExceeded` so
that every verification terminates with a verdict.

The pattern mirrors :mod:`repro.obs.trace`: a process-wide *active*
budget defaulting to :data:`NULL_BUDGET`, whose checks are no-ops, so
the cancellation points in the hot loops (:mod:`repro.bdd.mtbdd`,
:mod:`repro.automata.symbolic`, :mod:`repro.mso.compile`,
:mod:`repro.symbolic.exec`) cost one function call when no budget is
set.

Three kinds of check, from hottest to coldest:

* :meth:`Budget.tick` — one per unit of work (a BDD cache miss, a
  product state, a formula node).  Counts steps; reads the wall clock
  only every :data:`TIME_CHECK_MASK` + 1 ticks.
* :meth:`Budget.check_nodes` / :meth:`Budget.check_states` — called
  with a current size when a structure grows (every few thousand BDD
  nodes, every automaton operation).
* :meth:`Budget.check_time` — an unconditional deadline read at phase
  boundaries (subgoal start, compilation start).

The wall-clock deadline is *absolute* — shared by every subgoal of a
sequential run; a parallel run gives each task its own slice of it
(:func:`repro.parallel.pool.partition_deadline`) — while the
node/state caps apply to each attempt's fresh BDD manager.  See
``docs/ARCHITECTURE.md`` §9.

Example:
    >>> budget = Budget(max_steps=10)
    >>> with activate(budget):
    ...     try:
    ...         for _ in range(100):
    ...             tick("example")
    ...     except BudgetExceeded as exc:
    ...         print(exc.limit)
    steps
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Union

from repro.errors import ReproError

#: ``tick`` reads the wall clock once per this-many + 1 steps, so the
#: deadline check stays off the critical path of the BDD recursions.
TIME_CHECK_MASK = 0xFF

#: The limit names a :class:`BudgetExceeded` can carry.
LIMIT_DEADLINE = "deadline"
LIMIT_BDD_NODES = "bdd_nodes"
LIMIT_STATES = "automaton_states"
LIMIT_STEPS = "steps"
LIMIT_INJECTED = "injected"


class BudgetExceeded(ReproError):
    """A resource budget tripped a limit.

    Attributes:
        limit: which limit tripped — ``deadline``, ``bdd_nodes``,
            ``automaton_states``, ``steps``, or ``injected`` (from the
            fault-injection hook).
        site: the named pipeline site where the check fired
            (``bdd.apply``, ``automata.product``, ``mso.compile``, ...).
        value: the observed value at the trip point.
        cap: the configured limit.
    """

    def __init__(self, limit: str, site: str,
                 value: Union[int, float], cap: Union[int, float]) -> None:
        super().__init__(
            f"{limit} budget exceeded at {site} ({value} > {cap})")
        self.limit = limit
        self.site = site
        self.value = value
        self.cap = cap

    def __reduce__(self):
        # Exception's default pickling replays ``args`` (the formatted
        # message) into ``__init__``, which takes four positionals; a
        # budget trip must survive the worker->parent process boundary
        # intact, so rebuild from the structured fields instead.
        return (type(self), (self.limit, self.site, self.value, self.cap))


class Budget:
    """A cooperative resource budget for one verification run.

    Args:
        timeout: wall-clock seconds from construction; the deadline is
            absolute, so checks keep tripping once it has passed.
        max_bdd_nodes: cap on a BDD manager's total node count.
        max_states: cap on any single automaton's state count.
        max_steps: cap on total cooperative steps (cache misses,
            product states, ...) — a deterministic fuel limit.
    """

    __slots__ = ("timeout", "max_bdd_nodes", "max_states", "max_steps",
                 "started", "deadline", "steps", "tripped")

    #: Real budgets are active; the null budget is not.
    active = True

    def __init__(self, timeout: Optional[float] = None,
                 max_bdd_nodes: Optional[int] = None,
                 max_states: Optional[int] = None,
                 max_steps: Optional[int] = None) -> None:
        self.timeout = timeout
        self.max_bdd_nodes = max_bdd_nodes
        self.max_states = max_states
        self.max_steps = max_steps
        self.started = time.perf_counter()
        self.deadline = (None if timeout is None
                         else self.started + timeout)
        self.steps = 0
        self.tripped: Optional[BudgetExceeded] = None

    # ------------------------------------------------------------------

    def _trip(self, limit: str, site: str, value: Union[int, float],
              cap: Union[int, float]) -> None:
        exc = BudgetExceeded(limit, site, value, cap)
        self.tripped = exc
        raise exc

    def tick(self, site: str) -> None:
        """One unit of work at ``site``; the hot cancellation point."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            self._trip(LIMIT_STEPS, site, self.steps, self.max_steps)
        if self.deadline is not None and \
                (self.steps & TIME_CHECK_MASK) == 0 and \
                time.perf_counter() > self.deadline:
            self._trip(LIMIT_DEADLINE, site,
                       round(time.perf_counter() - self.started, 3),
                       self.timeout)

    def check_time(self, site: str) -> None:
        """Unconditional deadline check (phase boundaries)."""
        if self.deadline is not None and \
                time.perf_counter() > self.deadline:
            self._trip(LIMIT_DEADLINE, site,
                       round(time.perf_counter() - self.started, 3),
                       self.timeout)

    def check_nodes(self, site: str, count: int) -> None:
        """Check a BDD manager's node count against the cap."""
        if self.max_bdd_nodes is not None and count > self.max_bdd_nodes:
            self._trip(LIMIT_BDD_NODES, site, count, self.max_bdd_nodes)
        self.check_time(site)

    def check_states(self, site: str, count: int) -> None:
        """Check an automaton's state count against the cap."""
        if self.max_states is not None and count > self.max_states:
            self._trip(LIMIT_STATES, site, count, self.max_states)
        self.check_time(site)

    # ------------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return time.perf_counter() - self.started

    def limits(self) -> Dict[str, object]:
        """The configured limits, JSON-ready (None = unlimited)."""
        return {
            "timeout": self.timeout,
            "max_bdd_nodes": self.max_bdd_nodes,
            "max_states": self.max_states,
            "max_steps": self.max_steps,
        }

    def snapshot(self) -> Dict[str, object]:
        """Current consumption, JSON-ready."""
        tripped = None
        if self.tripped is not None:
            tripped = {"limit": self.tripped.limit,
                       "site": self.tripped.site}
        return {"steps": self.steps,
                "seconds": round(self.elapsed, 6),
                "tripped": tripped}


class _NullBudget:
    """The no-op budget: every check passes, nothing is counted."""

    __slots__ = ()
    active = False
    steps = 0
    tripped = None

    def tick(self, site: str) -> None:
        pass

    def check_time(self, site: str) -> None:
        pass

    def check_nodes(self, site: str, count: int) -> None:
        pass

    def check_states(self, site: str, count: int) -> None:
        pass

    def snapshot(self) -> None:
        return None


NULL_BUDGET = _NullBudget()

_ACTIVE: object = NULL_BUDGET


def current_budget():
    """The process's active budget (:data:`NULL_BUDGET` by default)."""
    return _ACTIVE


@contextmanager
def activate(budget: Budget) -> Iterator[Budget]:
    """Make ``budget`` the active budget for the duration."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = budget
    try:
        yield budget
    finally:
        _ACTIVE = previous


def tick(site: str) -> None:
    """Module-level hot cancellation point: ``current_budget().tick``."""
    _ACTIVE.tick(site)  # type: ignore[attr-defined]


def check_nodes(site: str, count: int) -> None:
    """Module-level node-cap check against the active budget."""
    _ACTIVE.check_nodes(site, count)  # type: ignore[attr-defined]


def check_states(site: str, count: int) -> None:
    """Module-level state-cap check against the active budget."""
    _ACTIVE.check_states(site, count)  # type: ignore[attr-defined]

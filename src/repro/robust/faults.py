"""Deterministic fault injection at named pipeline sites.

The degradation machinery (per-subgoal isolation, the retry ladder,
structured outcomes) is exactly the code that never runs on healthy
inputs, so it needs a way to be *made* to run: a fault plan names a
pipeline site and an exception kind, and the site's
:func:`fire` call raises that exception when the pipeline reaches it.

Plans come from the ``REPRO_FAULTS`` environment variable (the CLI
installs it for the duration of each call) or from the
:func:`injected` context manager (tests).  The spec grammar is a comma-separated list of rules::

    site:kind[:count]

where ``site`` is one of :data:`FAULT_SITES`, ``kind`` one of
:data:`FAULT_KINDS`, and the optional ``count`` limits how many times
the rule fires (default: every time the site is reached).  Examples::

    REPRO_FAULTS="mso.compile:memory"          # every compilation OOMs
    REPRO_FAULTS="verify.decide:budget:1"      # first attempt only
    REPRO_FAULTS="automata.product:error,exec.symbolic:timeout"

Kinds:

* ``budget`` — :class:`~repro.robust.budget.BudgetExceeded` with
  limit ``injected`` (degrades to a ``BUDGET_EXCEEDED`` outcome);
* ``timeout`` — :class:`BudgetExceeded` with limit ``deadline``
  (degrades to a ``TIMEOUT`` outcome, no retry);
* ``memory`` — :class:`MemoryError`;
* ``error`` — a plain :class:`RuntimeError` (an "impossible" internal
  failure);
* ``recursion`` — :class:`RecursionError`;
* ``interrupt`` — :class:`KeyboardInterrupt` (exercises the CLI's
  partial-report flush and exit code 130);
* ``exit`` — ``os._exit(13)``: the process dies instantly, without
  cleanup handlers, finally blocks or a traceback — a worker crash;
* ``kill`` — ``SIGKILL`` to the own process: indistinguishable from
  the kernel's OOM killer.  ``exit``/``kill`` (the *crash kinds*,
  :data:`CRASH_KINDS`) only make sense inside a worker process that a
  supervisor watches; fired in the main process they end the run, by
  design.

When no plan is installed, :func:`fire` is a single global read.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Union

from repro.robust.budget import (LIMIT_DEADLINE, LIMIT_INJECTED,
                                 BudgetExceeded)

#: Every named injection point, in pipeline order.  Each name has a
#: matching ``fire(...)`` call in the module it names.
FAULT_SITES = (
    "verify.decide",          # repro.verify.engine — one per attempt
    "exec.symbolic",          # repro.symbolic.exec — statement lists
    "mso.compile",            # repro.mso.compile — formula -> DFA
    "automata.product",       # repro.automata.symbolic
    "automata.determinize",   # repro.automata.symbolic
    "automata.minimize",      # repro.automata.symbolic
    "verify.counterexample",  # repro.verify.engine — decode/simulate
    "serve.worker_spawn",     # repro.parallel.supervise — pool spawn
    "serve.heartbeat",        # repro.parallel.supervise — worker beat
    "serve.request_decode",   # repro.serve.protocol — request JSON
    "serve.cache_write",      # repro.verify.cache — entry store
)

#: Exception kinds a rule may raise.
FAULT_KINDS = ("budget", "timeout", "memory", "error", "recursion",
               "interrupt", "exit", "kill")

#: Kinds that terminate the process instead of raising — only
#: recoverable under a supervised worker pool.
CRASH_KINDS = ("exit", "kill")

#: The sites that fire only on serving/supervision paths (the matrix
#: tests drive them separately from the in-process decision sites).
SERVE_SITES = tuple(site for site in FAULT_SITES
                    if site.startswith("serve."))


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec string is malformed."""


class _Rule:
    __slots__ = ("site", "kind", "remaining")

    def __init__(self, site: str, kind: str,
                 count: Optional[int]) -> None:
        self.site = site
        self.kind = kind
        self.remaining = count  # None = unlimited

    def raise_fault(self) -> None:
        if self.kind == "budget":
            raise BudgetExceeded(LIMIT_INJECTED, self.site, 0, 0)
        if self.kind == "timeout":
            raise BudgetExceeded(LIMIT_DEADLINE, self.site, 0, 0)
        if self.kind == "memory":
            raise MemoryError(f"injected out-of-memory at {self.site}")
        if self.kind == "recursion":
            raise RecursionError(f"injected recursion blowup at "
                                 f"{self.site}")
        if self.kind == "interrupt":
            raise KeyboardInterrupt
        if self.kind == "exit":
            os._exit(13)
        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError(f"injected fault at {self.site}")


class FaultPlan:
    """A set of rules, indexed by site."""

    def __init__(self) -> None:
        self._rules: Dict[str, List[_Rule]] = {}

    def add(self, site: str, kind: str,
            count: Optional[int] = None) -> "FaultPlan":
        """Register one rule; returns self for chaining."""
        if site not in FAULT_SITES:
            raise FaultSpecError(
                f"unknown fault site {site!r}; expected one of "
                f"{', '.join(FAULT_SITES)}")
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        self._rules.setdefault(site, []).append(_Rule(site, kind, count))
        return self

    def fire(self, site: str) -> None:
        """Raise the configured fault if a live rule matches ``site``."""
        rules = self._rules.get(site)
        if not rules:
            return
        for rule in rules:
            if rule.remaining is None:
                rule.raise_fault()
            if rule.remaining > 0:
                rule.remaining -= 1
                rule.raise_fault()

    def to_spec(self) -> str:
        """Serialise back to the ``site:kind[:count]`` comma-list (the
        supervisor re-spawns workers with an updated spec)."""
        chunks: List[str] = []
        for rules in self._rules.values():
            for rule in rules:
                if rule.remaining is None:
                    chunks.append(f"{rule.site}:{rule.kind}")
                else:
                    chunks.append(
                        f"{rule.site}:{rule.kind}:{rule.remaining}")
        return ",".join(chunks)

    def consume_crash(self) -> bool:
        """Account one crash-kind firing in a *dead* worker.

        A worker that dies at an ``exit``/``kill`` site cannot report
        that its count-limited rule fired — so its supervisor, which
        observed the death, decrements the first live count-limited
        crash rule before re-spawning a replacement.  Returns True
        when a rule was decremented.  Unlimited crash rules are left
        alone: they mean "every attempt dies" (the quarantine path).
        """
        for rules in self._rules.values():
            for rule in rules:
                if rule.kind in CRASH_KINDS and \
                        rule.remaining is not None and \
                        rule.remaining > 0:
                    rule.remaining -= 1
                    return True
        return False


def parse_plan(spec: str) -> FaultPlan:
    """Parse a ``site:kind[:count]`` comma-list into a plan."""
    plan = FaultPlan()
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) == 2:
            site, kind = parts
            count: Optional[int] = None
        elif len(parts) == 3:
            site, kind, count_text = parts
            try:
                count = int(count_text)
            except ValueError:
                raise FaultSpecError(
                    f"bad fault count in {chunk!r}") from None
        else:
            raise FaultSpecError(
                f"bad fault rule {chunk!r}; expected site:kind[:count]")
        plan.add(site.strip(), kind.strip(), count)
    return plan


_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install a plan process-wide (None clears)."""
    global _PLAN
    _PLAN = plan


def install_from_env(environ: Optional[Dict[str, str]] = None
                     ) -> Optional[FaultPlan]:
    """Install the plan described by ``REPRO_FAULTS``, or clear it;
    returns the plan it replaced, for :func:`install` to restore."""
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_FAULTS", "")
    previous = _PLAN
    install(parse_plan(spec) if spec.strip() else None)
    return previous


@contextmanager
def injected(spec: Union[str, FaultPlan]) -> Iterator[FaultPlan]:
    """Install a plan for the duration (test fixture entry point)."""
    plan = parse_plan(spec) if isinstance(spec, str) else spec
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    try:
        yield plan
    finally:
        _PLAN = previous


def fire(site: str) -> None:
    """The per-site hook; a no-op unless a plan names ``site``."""
    if _PLAN is not None:
        _PLAN.fire(site)

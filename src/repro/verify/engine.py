"""The verification engine: programs -> subgoals -> decided triples.

The engine applies the paper's recipe (§5).  For
``{pre} ... while B do {I} S ... {post}`` it emits:

1. **entry** — from the precondition, the code before the loop
   establishes the invariant and makes the guard safe to evaluate;
2. **preservation** — from ``I`` and a true, safely evaluated guard,
   the body re-establishes ``I`` (and guard safety);
3. the verification of the rest continues from ``I & ~B``.

Cut-point assertions split triples the same way.  A missing invariant
or assertion stands for "well-formedness only", the system default.

Every subgoal is decided *completely*: the loop-free statements are
executed symbolically (:mod:`repro.symbolic.exec`), the obligation

    wf_string & assume & ~oom  =>  ~error & wf_graph & checks

is compiled to an automaton, and validity is its universality.  A
failing subgoal yields the shortest string in the difference language,
decoded into a concrete store and simulated for explanation (§5).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import (Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)

from repro.analysis.coi import cone_of_influence
from repro.analysis.fingerprint import subgoal_fingerprint
from repro.analysis.order import choose_order
from repro.analysis.slice import (SliceResult, dropped_statements,
                                  guard_vars, slice_statements,
                                  statement_count)
from repro.errors import ExecutionError, VerificationError
from repro.mso.ast import Formula
from repro.mso.build import FormulaBuilder as F
from repro.mso.compile import CompilationStats, Compiler
from repro.pascal import check_program, parse_program
from repro.pascal.ast import Annotation
from repro.pascal.typed import (TAssertStmt, TIf, TWhile, TypedProgram)
from repro.storelogic.check import check_formula, free_program_vars
from repro.storelogic.eval import eval_formula
from repro.storelogic.parser import parse_formula
from repro.storelogic.ast import STrue
from repro.obs.metrics import current_metrics
from repro.stores.encode import Symbol, decode_store
from repro.stores.model import Store
from repro.storelogic.translate import translate_formula
from repro.obs import trace as obs_trace
from repro.obs.trace import Span
from repro.robust import budget as robust_budget
from repro.robust import faults
from repro.robust.budget import Budget, BudgetExceeded
from repro.symbolic.exec import eval_guard, exec_statements
from repro.symbolic.layout import TrackLayout
from repro.symbolic.state import SymbolicStore, initial_store
from repro.symbolic.wf import wf_graph, wf_string
from repro.exec.interpreter import Interpreter, Trace
from repro.verify.cache import open_cache
from repro.verify.counterexample import Counterexample, explain_failure


class Outcome(Enum):
    """How one subgoal (or a whole run) ended.

    ``VERIFIED`` / ``FAILED`` are verdicts; the remaining members are
    *degraded* outcomes — the decision procedure did not finish, but
    the run carried on and recorded why:

    * ``TIMEOUT`` — the wall-clock deadline passed;
    * ``BUDGET_EXCEEDED`` — a node/state/step cap (or an injected
      budget fault) tripped on every attempt;
    * ``ERROR`` — an internal exception survived the retry ladder;
    * ``INTERRUPTED`` — the run stopped on Ctrl-C with subgoals still
      undecided (whole-run aggregate only).
    """

    VERIFIED = "VERIFIED"
    FAILED = "FAILED"
    TIMEOUT = "TIMEOUT"
    BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
    ERROR = "ERROR"
    INTERRUPTED = "INTERRUPTED"

    @property
    def decided(self) -> bool:
        """True for real verdicts, False for degraded outcomes."""
        return self in (Outcome.VERIFIED, Outcome.FAILED)


#: Aggregation order: the *worst* subgoal outcome names the run.
_OUTCOME_SEVERITY = {
    Outcome.VERIFIED: 0,
    Outcome.TIMEOUT: 1,
    Outcome.BUDGET_EXCEEDED: 2,
    Outcome.INTERRUPTED: 3,
    Outcome.ERROR: 4,
    Outcome.FAILED: 5,
}


def _outcome_of_exception(exc: BaseException) -> Outcome:
    if isinstance(exc, BudgetExceeded):
        if exc.limit == robust_budget.LIMIT_DEADLINE:
            return Outcome.TIMEOUT
        return Outcome.BUDGET_EXCEEDED
    return Outcome.ERROR


def describe_exception(exc: BaseException) -> str:
    """The text of a degraded row's ``error``: the exception's type
    and message (a budget trip's own message says both)."""
    if isinstance(exc, BudgetExceeded):
        return str(exc)
    message = str(exc)
    name = type(exc).__name__
    return f"{name}: {message}" if message else name


@dataclass
class Obligation:
    """One named assume/check item of a subgoal."""

    name: str
    #: builds the M2L formula under a given interpretation
    producer: Callable[[SymbolicStore], Formula]
    #: evaluates the same condition on a concrete store (explanations)
    concrete: Optional[Callable[[Store], bool]] = None
    #: the program variables the formula mentions (relevance seeds;
    #: see :mod:`repro.analysis.slice`)
    vars: FrozenSet[str] = frozenset()
    #: a line-free canonical key of the obligation's condition, used by
    #: the verdict-cache fingerprint (the display ``name`` embeds line
    #: numbers and would defeat caching across reflows)
    key: str = ""


@dataclass
class Subgoal:
    """A loop-free Hoare triple to decide."""

    description: str
    assume: List[Obligation]
    statements: Tuple[object, ...]
    check: List[Obligation]


@dataclass
class SubgoalResult:
    """Outcome of deciding one subgoal.  Without its ``subgoal``, it
    is the record a parallel worker sends back and the verdict cache
    stores."""

    subgoal: Subgoal
    valid: bool
    counterexample: Optional[Counterexample]
    stats: CompilationStats
    formula_size: int
    seconds: float
    #: Phase timing tree of this decision, when a tracer was active;
    #: its total equals :attr:`seconds`.
    span: Optional[Span] = None
    #: Automaton tracks of the full store alphabet, and after the
    #: cone-of-influence reduction (equal when reduction is off).
    tracks_before: int = 0
    tracks_after: int = 0
    #: How the decision ended: a verdict (``VERIFIED``/``FAILED``) or
    #: a degraded outcome (``TIMEOUT``/``BUDGET_EXCEEDED``/``ERROR``).
    outcome: Outcome = Outcome.VERIFIED
    #: Human-readable cause for degraded outcomes, else None.
    error: Optional[str] = None
    #: Decision attempts made (2 when the retry ladder toggled the
    #: cone-of-influence reduction).
    attempts: int = 1
    #: Budget consumption of this subgoal (steps/seconds/tripped),
    #: None when no budget was active.
    budget: Optional[Dict[str, object]] = None
    #: Recursive statement counts of the subgoal before and after the
    #: statement-level backward slice (equal when slicing is off).
    statements_before: int = 0
    statements_after: int = 0
    #: The kept program variables in BDD track order
    #: (:func:`repro.analysis.order.choose_order`); None when no
    #: attempt decided the subgoal.
    variable_order: Optional[Tuple[str, ...]] = None
    #: Verdict-cache trace (``{"fingerprint": ..., "hit": bool}``) when
    #: a cache was consulted, else None.
    cache: Optional[Dict[str, object]] = None

    @property
    def description(self) -> str:
        return self.subgoal.description

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (stable schema; see
        :meth:`VerificationResult.to_dict`)."""
        counterexample = None
        if self.counterexample is not None:
            counterexample = {
                "description": self.counterexample.description,
                "explanation": self.counterexample.explanation,
            }
        return {
            "description": self.description,
            "valid": self.valid,
            "outcome": self.outcome.value,
            "error": self.error,
            "attempts": self.attempts,
            "budget": self.budget,
            "seconds": self.seconds,
            "formula_size": self.formula_size,
            "tracks_before": self.tracks_before,
            "tracks_after": self.tracks_after,
            "statements_before": self.statements_before,
            "statements_after": self.statements_after,
            "variable_order": (None if self.variable_order is None
                               else list(self.variable_order)),
            "cache": self.cache,
            "stats": self.stats.to_dict(),
            "span": self.span.to_dict() if self.span else None,
            "counterexample": counterexample,
        }


@dataclass
class VerificationResult:
    """Outcome of verifying a whole program."""

    program: str
    results: List[SubgoalResult] = field(default_factory=list)
    #: Front-end failure before any subgoal could be decided (only set
    #: by degraded drivers such as ``repro table --keep-going``).
    error: Optional[str] = None
    #: True when the run stopped early on KeyboardInterrupt; the
    #: recorded results are the subgoals decided before the interrupt.
    interrupted: bool = False
    #: The budget limits the run was configured with, None when
    #: unlimited.
    budget: Optional[Dict[str, object]] = None

    @property
    def valid(self) -> bool:
        """True iff every subgoal was decided valid (an interrupted or
        errored run is never valid — its verdict is unknown)."""
        if self.error is not None or self.interrupted:
            return False
        return all(result.valid for result in self.results)

    @property
    def outcome(self) -> Outcome:
        """The worst outcome across subgoals (``FAILED`` dominates,
        then ``ERROR``, ``INTERRUPTED``, ``BUDGET_EXCEEDED``,
        ``TIMEOUT``)."""
        worst = Outcome.VERIFIED
        if self.error is not None:
            worst = Outcome.ERROR
        elif self.interrupted:
            worst = Outcome.INTERRUPTED
        for result in self.results:
            if _OUTCOME_SEVERITY[result.outcome] > \
                    _OUTCOME_SEVERITY[worst]:
                worst = result.outcome
        return worst

    @property
    def counterexample(self) -> Optional[Counterexample]:
        """The first counterexample, if any."""
        for result in self.results:
            if result.counterexample is not None:
                return result.counterexample
        return None

    @property
    def seconds(self) -> float:
        return sum(result.seconds for result in self.results)

    @property
    def formula_size(self) -> int:
        return sum(result.formula_size for result in self.results)

    @property
    def max_states(self) -> int:
        return max((result.stats.max_states for result in self.results),
                   default=0)

    @property
    def max_nodes(self) -> int:
        return max((result.stats.max_nodes for result in self.results),
                   default=0)

    @property
    def tracks_before(self) -> int:
        """Tracks of the full store alphabet (max over subgoals)."""
        return max((result.tracks_before for result in self.results),
                   default=0)

    @property
    def tracks_after(self) -> int:
        """Tracks actually compiled, after the cone-of-influence
        reduction (max over subgoals)."""
        return max((result.tracks_after for result in self.results),
                   default=0)

    @property
    def statements_before(self) -> int:
        """Statements collected into subgoals (sum, recursive count)."""
        return sum(result.statements_before for result in self.results)

    @property
    def statements_after(self) -> int:
        """Statements kept by the backward slice (sum)."""
        return sum(result.statements_after for result in self.results)

    @property
    def cache_hits(self) -> int:
        """Subgoals answered from the verdict cache."""
        return sum(1 for result in self.results
                   if result.cache is not None and result.cache["hit"])

    def aggregate_stats(self) -> CompilationStats:
        """All subgoal statistics merged into one record (counters
        summed, high-water marks maximised)."""
        merged = CompilationStats()
        for result in self.results:
            merged.merge(result.stats)
        return merged

    def to_dict(self) -> Dict[str, object]:
        """A schema-stable, JSON-ready document of the whole run.

        Top-level keys: ``schema_version``, ``program``, ``valid``,
        ``outcome``, ``error``, ``interrupted``, ``budget``,
        ``seconds``, ``formula_size``, ``max_states``, ``max_nodes``,
        ``stats`` (merged), ``subgoals`` (each with ``description``,
        ``valid``, ``outcome``, ``error``, ``attempts``, ``budget``,
        ``seconds``, ``formula_size``, ``stats``, ``span``,
        ``counterexample``).  Schema version 2 added the outcome and
        budget keys; new keys may be added, existing keys keep their
        meaning.
        """
        return {
            "schema_version": 2,
            "program": self.program,
            "valid": self.valid,
            "outcome": self.outcome.value,
            "error": self.error,
            "interrupted": self.interrupted,
            "budget": self.budget,
            "seconds": self.seconds,
            "formula_size": self.formula_size,
            "max_states": self.max_states,
            "max_nodes": self.max_nodes,
            "tracks_before": self.tracks_before,
            "tracks_after": self.tracks_after,
            "statements_before": self.statements_before,
            "statements_after": self.statements_after,
            "cache_hits": self.cache_hits,
            "stats": self.aggregate_stats().to_dict(),
            "subgoals": [result.to_dict() for result in self.results],
        }


@dataclass
class SubgoalPlan:
    """One prepared decision attempt: the (possibly sliced) statements
    to execute symbolically and how to lay out the tracks."""

    #: apply the cone-of-influence alphabet reduction
    reduce: bool
    #: the statement slice and its kept tracks (the identity slice
    #: when slicing is off)
    sliced: SliceResult

    @property
    def statements(self) -> Tuple[object, ...]:
        return self.sliced.statements

    @property
    def keep(self) -> Optional[FrozenSet[str]]:
        """The kept variable subset, None for the full alphabet."""
        return self.sliced.tracks if self.reduce else None

    def layout(self, schema) -> TrackLayout:
        return TrackLayout(schema, variables=self.keep)


def _trace_mode() -> str:
    """The active tracer's mode, as a cache-fingerprint component: a
    cached result carries its recorded span, so a hit must have been
    computed under the same tracing configuration."""
    tracer = obs_trace.current_tracer()
    if tracer is obs_trace.NULL_TRACER:
        return "off"
    return "detail" if getattr(tracer, "detail", False) else "on"


def verify_source(text: str, **kwargs: object) -> VerificationResult:
    """Parse, check and verify a program source."""
    return verify_program(check_program(parse_program(text)), **kwargs)


def verify_program(program: TypedProgram,
                   **kwargs: object) -> VerificationResult:
    """Verify a typed program."""
    return Verifier(program, **kwargs).verify()  # type: ignore[arg-type]


def record_run_metrics(result: VerificationResult) -> None:
    """The run-level metrics of one verification, whether its
    subgoals were decided in this process or by workers: one
    ``verify.outcome.*`` count per subgoal, and gauges for the track
    counts and the budget steps the subgoals spent."""
    metrics = current_metrics()
    for decided in result.results:
        metrics.counter(f"verify.outcome.{decided.outcome.value}").inc()
    # Gauges mirror the JSON report: the max over subgoals, not
    # whichever subgoal happened to be decided last.
    metrics.gauge("verify.tracks_before").set(result.tracks_before)
    metrics.gauge("verify.tracks_after").set(result.tracks_after)
    if result.budget is not None:
        metrics.gauge("verify.budget.steps").set(sum(
            int(decided.budget.get("steps") or 0)
            for decided in result.results if decided.budget))


class Verifier:
    """Decides all of one program's subgoals.

    Args:
        program: the typed program to verify.
        simulate: run counterexamples through the concrete interpreter
            for richer explanations.
        reduce: drop automaton tracks of variables outside each
            subgoal's cone of influence (:mod:`repro.analysis.slice`).
            Verdicts and counterexamples are unaffected; automata only
            get smaller.  ``--no-reduce`` on the CLI turns it off.
        slice: drop dead pure-copy statements from each subgoal before
            symbolic execution (:mod:`repro.analysis.slice`).  Verdicts
            are unaffected (``docs/ARCHITECTURE.md`` §11); the
            transduction just wraps fewer predicates.  ``--no-slice``
            on the CLI turns it off.
        cache_dir: root of an on-disk verdict cache
            (:mod:`repro.verify.cache`); subgoals whose content
            fingerprint is already stored replay their decided result
            instead of recomputing it.  None (the default) disables
            caching.
        cache_max_mb: LRU size cap for the verdict cache in
            megabytes — least-recently-used entries are evicted once
            the cache grows past it.  None (the default) = unbounded.
        tracer: record phase spans into this tracer for the duration
            of :meth:`verify` and :meth:`decide_index` (None leaves the
            process's active tracer in charge — usually the no-op
            sink).
        timeout: wall-clock budget in seconds for the whole run; the
            deadline is absolute, so once it passes every remaining
            subgoal degrades to a ``TIMEOUT`` outcome quickly.
        max_bdd_nodes: cap on each attempt's BDD-manager node count.
        max_states: cap on any single automaton's state count.
        max_steps: deterministic fuel cap on cooperative steps.
        jobs: worker processes deciding subgoals concurrently; 1 (the
            default) keeps today's in-process sequential behaviour,
            ``N > 1`` fans subgoals out over :mod:`repro.parallel`.
            Verdicts, outcomes, counterexamples and per-subgoal stats
            are identical either way (see ``tests/diffcheck.py``); the
            run deadline is partitioned across subgoals instead of
            being one shared absolute clock.
    """

    def __init__(self, program: TypedProgram,
                 simulate: bool = True,
                 reduce: bool = True,
                 slice: bool = True,
                 cache_dir: Optional[str] = None,
                 cache_max_mb: Optional[float] = None,
                 tracer: Optional[obs_trace.Tracer] = None,
                 timeout: Optional[float] = None,
                 max_bdd_nodes: Optional[int] = None,
                 max_states: Optional[int] = None,
                 max_steps: Optional[int] = None,
                 jobs: int = 1) -> None:
        self.program = program
        self.simulate = simulate
        self.reduce = reduce
        self.slice = slice
        self.cache_dir = cache_dir
        self.cache_max_mb = cache_max_mb
        self.cache = open_cache(cache_dir, max_mb=cache_max_mb)
        self.tracer = tracer
        self.timeout = timeout
        self.max_bdd_nodes = max_bdd_nodes
        self.max_states = max_states
        self.max_steps = max_steps
        self.jobs = jobs
        self._budget: Optional[Budget] = None
        # One concrete interpreter serves every obligation and
        # counterexample simulation; it is stateless between runs.
        self._interpreter = Interpreter(program)
        # Guard formulas per (store generation, loop position): stable
        # identities, unlike id(), which may be reused after GC.
        self._guard_cache: Dict[Tuple[int, int, str],
                                Tuple[Formula, Formula]] = {}

    def __getstate__(self) -> Dict[str, object]:
        """A worker's copy: the typed program and every setting.  This
        process's guard-formula cache and budget stay behind, and a
        tracer travels as a fresh one with the same ``detail``."""
        state = dict(self.__dict__, _guard_cache={}, _budget=None)
        if self.tracer is not None:
            state["tracer"] = obs_trace.Tracer(detail=self.tracer.detail)
        return state

    # ------------------------------------------------------------------

    def _make_budget(self,
                     timeout: Optional[float]) -> Optional[Budget]:
        """A budget for the configured caps and the given wall-clock
        allowance, or None when every limit is unlimited."""
        if all(limit is None for limit in
               (timeout, self.max_bdd_nodes, self.max_states,
                self.max_steps)):
            return None
        return Budget(timeout=timeout,
                      max_bdd_nodes=self.max_bdd_nodes,
                      max_states=self.max_states,
                      max_steps=self.max_steps)

    def _tracing(self):
        """Activate this verifier's tracer; without one, the process's
        active tracer stays in charge."""
        return obs_trace.activate(self.tracer if self.tracer is not None
                                  else obs_trace.current_tracer())

    def verify(self) -> VerificationResult:
        """Collect and decide every subgoal."""
        if self.jobs > 1:
            # The process-pool executor reassembles a result that is
            # verdict-identical to the sequential path below.
            from repro.parallel.pool import verify_parallel
            return verify_parallel(self)
        self._budget = self._make_budget(self.timeout)
        try:
            with self._tracing():
                return self._run_budgeted()
        finally:
            self._budget = None

    def _run_budgeted(self) -> VerificationResult:
        if self._budget is not None:
            with robust_budget.activate(self._budget):
                return self._verify()
        return self._verify()

    def decide_index(self, index: int,
                     timeout: Optional[float] = None) -> SubgoalResult:
        """Decide the subgoal at ``index`` of :meth:`collect_subgoals`.

        The parallel worker entry point: subgoal collection is
        deterministic, so parent and worker agree on the numbering
        without shipping the (unpicklable) subgoal closures across
        the process boundary.  ``timeout`` replaces the run timeout —
        the worker's slice of the partitioned run deadline.  Like
        :meth:`verify`, it runs under this verifier's tracer.
        """
        effective = self.timeout if timeout is None else timeout
        self._budget = self._make_budget(effective)
        try:
            with self._tracing():
                subgoal = self.collect_subgoals()[index]
                if self._budget is not None:
                    with robust_budget.activate(self._budget):
                        return self.decide(subgoal)
                return self.decide(subgoal)
        finally:
            self._budget = None

    def _verify(self) -> VerificationResult:
        result = VerificationResult(self.program.name)
        if self._budget is not None:
            result.budget = self._budget.limits()
        with obs_trace.span("verify", program=self.program.name):
            with obs_trace.span("subgoals.split") as sp:
                subgoals = self.collect_subgoals()
                if sp:
                    sp.annotate(subgoals=len(subgoals))
            for subgoal in subgoals:
                try:
                    decided = self.decide(subgoal)
                except KeyboardInterrupt:
                    # Ctrl-C: keep what was decided so far; the caller
                    # can still emit a partial structured report.
                    result.interrupted = True
                    break
                result.results.append(decided)
            record_run_metrics(result)
        return result

    # ------------------------------------------------------------------
    # Subgoal collection
    # ------------------------------------------------------------------

    def collect_subgoals(self) -> List[Subgoal]:
        """Split the program into loop-free triples."""
        subgoals: List[Subgoal] = []
        pre = [self._assertion_obligation("precondition",
                                          self.program.pre)]
        post = [self._assertion_obligation("postcondition",
                                           self.program.post)]
        self._split(subgoals, pre, tuple(self.program.body), post,
                    "postcondition")
        return subgoals

    def _split(self, subgoals: List[Subgoal], assume: List[Obligation],
               statements: Tuple[object, ...], final: List[Obligation],
               final_desc: str) -> None:
        prefix: List[object] = []
        for statement in statements:
            if isinstance(statement, TWhile):
                inv = self._assertion_obligation(
                    f"invariant (line {statement.line})",
                    statement.invariant)
                guard_safe = self._guard_obligation(statement, safe=True)
                guard_true = self._guard_obligation(statement, value=True)
                guard_false = self._guard_obligation(statement,
                                                     value=False)
                subgoals.append(Subgoal(
                    f"loop entry (line {statement.line})",
                    assume, tuple(prefix), [inv, guard_safe]))
                self._split(subgoals, [inv, guard_safe, guard_true],
                            statement.body, [inv, guard_safe],
                            f"invariant preservation "
                            f"(line {statement.line})")
                assume = [inv, guard_safe, guard_false]
                prefix = []
            elif isinstance(statement, TAssertStmt):
                cut = self._assertion_obligation(
                    f"assertion (line {statement.line})",
                    statement.annotation)
                subgoals.append(Subgoal(
                    f"assertion (line {statement.line})",
                    assume, tuple(prefix), [cut]))
                assume = [cut]
                prefix = []
            else:
                self._reject_nested_loops(statement)
                prefix.append(statement)
        subgoals.append(Subgoal(final_desc, assume, tuple(prefix), final))

    def _reject_nested_loops(self, statement: object) -> None:
        if isinstance(statement, TIf):
            for inner in statement.then_body + statement.else_body:
                if isinstance(inner, (TWhile, TAssertStmt)):
                    raise VerificationError(
                        "loops and assertions inside conditional "
                        "branches are not supported; hoist the "
                        "conditional or add a cut-point assertion "
                        "before it", line=getattr(inner, "line", 0))
                self._reject_nested_loops(inner)

    # ------------------------------------------------------------------
    # Obligations
    # ------------------------------------------------------------------

    def _assertion_obligation(self, name: str,
                              annotation: Optional[Annotation]
                              ) -> Obligation:
        if annotation is None:
            formula: object = STrue()
            text = "true (well-formedness only)"
        else:
            formula = check_formula(parse_formula(annotation.text),
                                    self.program.schema)
            text = annotation.text
        return Obligation(
            name=f"{name}: {{{text}}}",
            producer=lambda st, f=formula: translate_formula(f, st),
            concrete=lambda store, f=formula: eval_formula(f, store),
            vars=free_program_vars(formula),
            key=("assert:true" if annotation is None
                 else f"assert:{annotation.text}"))

    def _guard_obligation(self, loop: TWhile, safe: bool = False,
                          value: Optional[bool] = None) -> Obligation:
        interpreter = self._interpreter

        def producer(st: SymbolicStore) -> Formula:
            val, err = self._eval_guard_cached(st, loop)
            if safe:
                return F.not_(err)
            return val if value else F.not_(val)

        def concrete(store: Store) -> bool:
            try:
                result = interpreter._guard(store, loop.cond)
            except ExecutionError:
                return not safe and value is None
            if safe:
                return True
            return result if value else not result

        kind = "guard is safe to evaluate" if safe else \
            f"guard is {'true' if value else 'false'}"
        return Obligation(name=f"{kind}: {loop.cond}",
                          producer=producer, concrete=concrete,
                          vars=guard_vars(loop.cond),
                          key=f"guard:{kind}:{loop.cond}")

    def _eval_guard_cached(self, st: SymbolicStore,
                           loop: TWhile) -> Tuple[Formula, Formula]:
        # The guard is identified by its loop's position in the source
        # and its text, the store by its generation — both stable,
        # whereas id() values can be recycled once the objects from an
        # earlier decide() are garbage-collected, which would silently
        # return a formula built over a dead store's variables.
        key = (st.generation, loop.line, str(loop.cond))
        found = self._guard_cache.get(key)
        if found is None:
            found = eval_guard(st, loop.cond)
            self._guard_cache[key] = found
        return found

    # ------------------------------------------------------------------
    # Deciding one subgoal
    # ------------------------------------------------------------------

    def _plan_subgoal(self, subgoal: Subgoal, reduce: bool,
                      slice_flag: bool) -> SubgoalPlan:
        """Prepare one decision attempt: one backward relevance pass
        (slicing the statements when ``slice_flag``, keeping the
        tracks it finds relevant when ``reduce``)."""
        schema = self.program.schema
        # Assume obligations are evaluated on the initial store, so
        # their variables must keep their tracks no matter what the
        # statements later overwrite; only check obligations (read
        # from the final store) flow backward through kills.
        assume_vars: FrozenSet[str] = frozenset()
        for obligation in subgoal.assume:
            assume_vars |= obligation.vars
        check_vars: FrozenSet[str] = frozenset()
        for obligation in subgoal.check:
            check_vars |= obligation.vars
        if slice_flag:
            sliced = slice_statements(subgoal.statements, check_vars,
                                      schema, assume_vars)
        else:
            count = statement_count(subgoal.statements)
            tracks = (cone_of_influence(subgoal.statements, check_vars,
                                        schema, assume_vars)
                      if reduce else frozenset(schema.all_vars()))
            sliced = SliceResult(tuple(subgoal.statements), count, count,
                                 tracks)
        return SubgoalPlan(reduce=reduce, sliced=sliced)

    def _fingerprint(self, subgoal: Subgoal, plan: SubgoalPlan) -> str:
        """The verdict-cache key of one subgoal under this engine's
        configuration.  Hashes the *original* statements — the slice
        and cone are deterministic functions of them (and the code
        fingerprint covers the functions themselves), while the
        counterexample simulation reads the originals directly."""
        options = (
            f"simulate={self.simulate}",
            f"reduce={plan.reduce}",
            f"slice={self.slice}",
            f"trace={_trace_mode()}",
        )
        return subgoal_fingerprint(
            self.program.schema, subgoal.statements,
            [item.key for item in subgoal.assume],
            [item.key for item in subgoal.check],
            options)

    def _cached_result(self, subgoal: Subgoal, fingerprint: str,
                       budget: Optional[Budget],
                       started: float) -> Optional[SubgoalResult]:
        """Replay a stored verdict for ``subgoal``, or None on a miss;
        anything stored that is not a decided :class:`SubgoalResult`
        is a miss."""
        assert self.cache is not None
        record = self.cache.lookup(fingerprint)
        if not isinstance(record, SubgoalResult) or \
                not record.outcome.decided:
            return None
        elapsed = time.perf_counter() - started
        return replace(record, subgoal=subgoal, seconds=elapsed,
                       cache={"fingerprint": fingerprint, "hit": True},
                       budget=None if budget is None else
                       {"steps": 0, "seconds": elapsed, "tripped": None})

    def analyze(self) -> Dict[str, object]:
        """The static per-subgoal preparation report behind
        ``repro analyze``: what the slice keeps and drops, which
        tracks the cone of influence removes (``kept_vars`` in track
        order) and the verdict-cache fingerprint.  Pure front-end
        work — no automata are built, nothing is decided."""
        schema = self.program.schema
        entries: List[Dict[str, object]] = []
        for subgoal in self.collect_subgoals():
            plan = self._plan_subgoal(subgoal, self.reduce, self.slice)
            layout = plan.layout(schema)
            dropped = dropped_statements(subgoal.statements,
                                         plan.statements)
            entries.append({
                "description": subgoal.description,
                "statements_before": plan.sliced.before,
                "statements_after": plan.sliced.after,
                "dropped_statements": [
                    {"line": getattr(statement, "line", 0),
                     "text": str(statement)}
                    for statement in dropped],
                "tracks_before": (len(layout.labels)
                                  + len(schema.all_vars())),
                "tracks_after": len(layout.free_vars()),
                "kept_vars": layout.var_names(),
                "dropped_vars": layout.dropped_vars(),
                "fingerprint": self._fingerprint(subgoal, plan),
            })
        return {
            "schema_version": 2,
            "program": self.program.name,
            "options": {"reduce": self.reduce, "slice": self.slice},
            "subgoals": entries,
        }

    def decide(self, subgoal: Subgoal) -> SubgoalResult:
        """Decide one subgoal under the degradation ladder.

        The first attempt runs with the configured optimisations
        (reduction, slicing); when it trips a budget cap or raises,
        the subgoal is retried once with the reduction toggled and
        slicing off.  A passed wall-clock deadline skips the retry —
        the second attempt could only time out again.  A subgoal that
        no attempt could decide is recorded with a degraded
        :class:`Outcome` instead of aborting the run.

        With a verdict cache configured, the subgoal's content
        fingerprint is looked up first; a hit replays the stored
        result.  Only first-attempt decided verdicts are stored — a
        degraded outcome or a retry-ladder success under a different
        plan says nothing about what the next run would compute.
        """
        budget = self._budget
        steps_before = budget.steps if budget is not None else 0
        started = time.perf_counter()
        plan = self._plan_subgoal(subgoal, self.reduce, self.slice)
        fingerprint: Optional[str] = None
        if self.cache is not None:
            fingerprint = self._fingerprint(subgoal, plan)
            cached = self._cached_result(subgoal, fingerprint, budget,
                                         started)
            if cached is not None:
                return cached
        last_exc: Optional[BaseException] = None
        for attempts in (1, 2):
            if attempts == 2:
                # The fallback rung toggles the reduction and turns
                # slicing off — maximally different from the first
                # attempt.
                plan = self._plan_subgoal(subgoal, not self.reduce,
                                          False)
            try:
                faults.fire("verify.decide")
                result = self._decide_attempt(subgoal, plan)
            except KeyboardInterrupt:
                raise
            except BudgetExceeded as exc:
                last_exc = exc
                if exc.limit == robust_budget.LIMIT_DEADLINE:
                    break
                continue
            except Exception as exc:  # noqa: BLE001 — isolation is
                # the point: MemoryError/RecursionError included, any
                # attempt failure degrades instead of killing the run.
                last_exc = exc
                continue
            result.outcome = (Outcome.VERIFIED if result.valid
                              else Outcome.FAILED)
            result.attempts = attempts
            if budget is not None:
                result.budget = {
                    "steps": budget.steps - steps_before,
                    "seconds": result.seconds,
                    "tripped": None,
                }
            if fingerprint is not None:
                result.cache = {"fingerprint": fingerprint,
                                "hit": False}
                if attempts == 1 and self.cache is not None:
                    # Stored without its subgoal, whose obligations
                    # close over formula builders.
                    record = replace(result, subgoal=None)  # type: ignore
                    self.cache.store(fingerprint, record)
            return result
        elapsed = time.perf_counter() - started
        assert last_exc is not None
        outcome = _outcome_of_exception(last_exc)
        consumed: Optional[Dict[str, object]] = None
        if budget is not None:
            consumed = {
                "steps": budget.steps - steps_before,
                "seconds": elapsed,
                "tripped": ({"limit": last_exc.limit,
                             "site": last_exc.site}
                            if isinstance(last_exc, BudgetExceeded)
                            else None),
            }
        return SubgoalResult(subgoal=subgoal, valid=False,
                             counterexample=None,
                             stats=CompilationStats(),
                             formula_size=0, seconds=elapsed,
                             outcome=outcome,
                             error=describe_exception(last_exc),
                             attempts=attempts, budget=consumed,
                             cache=(None if fingerprint is None else
                                    {"fingerprint": fingerprint,
                                     "hit": False}))

    def _decide_attempt(self, subgoal: Subgoal,
                        plan: SubgoalPlan) -> SubgoalResult:
        """Decide one loop-free triple completely (a single ladder
        attempt; fresh compiler and BDD manager each time)."""
        started = time.perf_counter()
        with obs_trace.span("subgoal",
                            description=subgoal.description) as sub:
            schema = self.program.schema
            compiler = Compiler()
            layout = plan.layout(schema)
            tracks_before = len(layout.labels) + len(schema.all_vars())
            tracks_after = len(layout.free_vars())
            metrics = current_metrics()
            metrics.counter("verify.tracks_dropped").inc(
                tracks_before - tracks_after)
            metrics.counter("verify.slice.statements_dropped").inc(
                plan.sliced.dropped)
            if sub:
                sub.annotate(tracks_before=tracks_before,
                             tracks_after=tracks_after,
                             statements_before=plan.sliced.before,
                             statements_after=plan.sliced.after)
            layout.register(compiler)
            st0 = initial_store(schema, layout)
            with obs_trace.span("exec.symbolic") as sp:
                outcome = exec_statements(st0, plan.statements)
                if sp:
                    sp.annotate(statements=len(plan.statements))
            with obs_trace.span("translate") as sp:
                assume = F.conj(
                    [wf_string(layout)]
                    + [item.producer(st0) for item in subgoal.assume]
                    + [F.not_(outcome.oom)])
                obligation = F.conj(
                    [F.not_(outcome.error), wf_graph(outcome.store)]
                    + [item.producer(outcome.store)
                       for item in subgoal.check])
                negation = F.and_(assume, F.not_(obligation))
                formula_size = negation.size()
                if sp:
                    sp.annotate(formula_size=formula_size)
            with obs_trace.span("compile") as sp:
                dfa = compiler.compile(negation)
                if sp:
                    sp.annotate(states=dfa.num_states,
                                nodes=dfa.bdd_node_count())
            with obs_trace.span("universality") as sp:
                word = dfa.shortest_accepted()
                if sp:
                    sp.annotate(valid=word is None,
                                word_length=None if word is None
                                else len(word))
            counterexample = None
            if word is not None:
                with obs_trace.span("counterexample"):
                    counterexample = self._build_counterexample(
                        subgoal, layout, compiler, word)
        # With tracing on, the reported time is exactly the subgoal
        # span's total, so the --profile tree sums up consistently.
        elapsed = sub.seconds if sub else time.perf_counter() - started
        if sub:
            sub.annotate(seconds=elapsed, valid=word is None)
        return SubgoalResult(subgoal=subgoal, valid=word is None,
                             counterexample=counterexample,
                             stats=compiler.stats,
                             formula_size=formula_size, seconds=elapsed,
                             span=sub if sub else None,
                             tracks_before=tracks_before,
                             tracks_after=tracks_after,
                             statements_before=plan.sliced.before,
                             statements_after=plan.sliced.after,
                             variable_order=choose_order(schema,
                                                         plan.keep))

    # ------------------------------------------------------------------
    # Counterexamples
    # ------------------------------------------------------------------

    def _build_counterexample(self, subgoal: Subgoal,
                              layout: TrackLayout, compiler: Compiler,
                              word: Sequence[Dict[int, bool]]
                              ) -> Counterexample:
        faults.fire("verify.counterexample")
        with obs_trace.span("counterexample.decode") as sp:
            symbols = layout.word_to_symbols(word, compiler.tracks())
            # Variables reduced away carry no track; the reduced
            # system assumed them nil, so place them on position 0.
            dropped = layout.dropped_vars()
            if dropped and symbols:
                symbols[0] = Symbol(
                    symbols[0].label,
                    symbols[0].bitmap | frozenset(dropped))
            store = decode_store(self.program.schema, symbols)
            if sp:
                sp.annotate(word_length=len(word))
        trace: Optional[Trace] = None
        runtime_error: Optional[str] = None
        final_store: Optional[Store] = None
        failed: List[str] = []
        if self.simulate:
            with obs_trace.span("counterexample.simulate"):
                working = store.clone()
                trace = Trace()
                try:
                    self._interpreter.run_statements(
                        working, subgoal.statements, trace)
                    final_store = working
                except ExecutionError as exc:
                    runtime_error = str(exc)
                if final_store is not None:
                    for item in subgoal.check:
                        if item.concrete is not None and \
                                not item.concrete(final_store):
                            failed.append(item.name)
        explanation = explain_failure(final_store, failed, runtime_error)
        return Counterexample(description=subgoal.description,
                              symbols=symbols, store=store, trace=trace,
                              explanation=explanation)

"""Pointer lints over the typed IR.

Six analyses, each reporting :class:`Diagnostic` findings with source
positions:

* ``nil-deref`` (error) — a dereference whose base variable is
  *definitely* nil, by a forward nil-ness analysis with guard-edge
  refinement (``if p = nil then`` sharpens ``p`` along both edges,
  respecting short-circuit evaluation of ``and``/``or``);
* ``bad-assertion`` (error) — an annotation that does not parse or
  mentions unknown variables/fields/variants;
* ``use-before-assign`` (warning) — a pointer variable read before
  any assignment, unless an annotation mentions it (annotated
  variables are the program's declared inputs);
* ``dead-assignment`` (warning) — a variable assignment whose value
  is never used, by backward liveness (annotations count as uses of
  their free variables; a missing postcondition or invariant keeps
  every variable live, the verifier's well-formedness default);
* ``unreachable`` (warning) — a statement the nil-ness analysis
  proves no execution reaches (only the first statement of each dead
  region is reported);
* ``lost-cell`` (error) — a statement after which *no* variable can
  still point to a cell the program allocated, before its address was
  ever stored into the heap or the cell disposed: the cell is
  unreachable garbage from then on.  A forward analysis tracks, per
  allocation site, the set of variables that may hold the address and
  whether it may have escaped into a heap field; the report fires
  exactly when the may-set empties unescaped, so it is a definite
  leak, not a heuristic.

All lints are whole-program (loops included) and produce no findings
on the bundled example programs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set

from repro.analysis import cfg as cfg_mod
from repro.analysis.cfg import ANNOTATION, BRANCH, CFG, Edge, Node
from repro.analysis.slice import guard_vars
from repro.analysis.dataflow import (Analysis, BACKWARD, DataflowResult,
                                     FORWARD, solve)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.errors import ReproError
from repro.pascal import check_program, parse_program
from repro.pascal.ast import Annotation
from repro.pascal.typed import (FieldLhs, TAnd, TAssertStmt, TAssign,
                                TDispose, TGuard, TIf, TNew, TNot, TOr,
                                TPath, TPtrCompare, TVariantTest, TWhile,
                                TypedProgram, VarLhs)
from repro.storelogic import ast as sl
from repro.storelogic.check import check_formula, free_program_vars
from repro.storelogic.parser import parse_formula

# Nil-ness lattice values (absent variables are TOP).
NIL = "nil"
NONNIL = "nonnil"
TOP = "top"

NilState = Dict[str, str]


def lint_source(text: str) -> List[Diagnostic]:
    """Lint a program source; front-end failures become diagnostics."""
    try:
        program = check_program(parse_program(text))
    except ReproError as exc:
        return [Diagnostic(
            code="front-end", severity=Severity.ERROR, message=str(exc),
            line=getattr(exc, "line", 0),
            column=getattr(exc, "column", 0))]
    return lint_program(program)


def lint_program(program: TypedProgram) -> List[Diagnostic]:
    """Run every lint over a typed program."""
    diagnostics: List[Diagnostic] = []
    diagnostics += _check_annotations(program)
    graph = cfg_mod.from_program(program)
    nil_result = solve(graph, _NilAnalysis(program))
    diagnostics += _nil_derefs(graph, nil_result)
    diagnostics += _unreachable(graph, nil_result)
    diagnostics += _use_before_assign(graph, program)
    diagnostics += _dead_assignments(graph, program)
    diagnostics += _lost_cells(graph)
    diagnostics.sort(key=lambda d: (d.line, d.column, d.code, d.message))
    return diagnostics


# ----------------------------------------------------------------------
# Annotations
# ----------------------------------------------------------------------

def _annotations(program: TypedProgram) -> List[Annotation]:
    """Every annotation of the program, in source order."""
    found: List[Annotation] = []
    if program.pre is not None:
        found.append(program.pre)

    def walk(statements: Sequence[object]) -> None:
        for statement in statements:
            if isinstance(statement, TAssertStmt):
                found.append(statement.annotation)
            elif isinstance(statement, TWhile):
                if statement.invariant is not None:
                    found.append(statement.invariant)
                walk(statement.body)
            elif isinstance(statement, TIf):
                walk(statement.then_body)
                walk(statement.else_body)

    walk(program.body)
    if program.post is not None:
        found.append(program.post)
    return found


def _check_annotations(program: TypedProgram) -> List[Diagnostic]:
    """``bad-assertion``: annotations must parse and name-check."""
    diagnostics = []
    for annotation in _annotations(program):
        try:
            check_formula(parse_formula(annotation.text),
                          program.schema)
        except ReproError as exc:
            diagnostics.append(Diagnostic(
                code="bad-assertion", severity=Severity.ERROR,
                message=f"invalid assertion {{{annotation.text}}}: "
                        f"{exc}",
                line=annotation.line, column=annotation.column))
    return diagnostics


def _annotation_vars(annotation: Annotation,
                     program: TypedProgram
                     ) -> Optional[FrozenSet[str]]:
    """The program variables an annotation mentions, or None when it
    does not parse (bad-assertion reports that separately)."""
    try:
        formula = parse_formula(annotation.text)
    except ReproError:
        return None
    return free_program_vars(formula) \
        & frozenset(program.schema.all_vars())


# ----------------------------------------------------------------------
# Nil-ness analysis (powers nil-deref and unreachable)
# ----------------------------------------------------------------------

class _NilAnalysis(Analysis[NilState]):
    """Forward must-analysis of each variable's nil-ness."""

    direction = FORWARD

    def __init__(self, program: TypedProgram) -> None:
        self.program = program

    def boundary(self, graph: CFG) -> NilState:
        state: NilState = {}
        if self.program.pre is not None:
            try:
                formula = parse_formula(self.program.pre.text)
            except ReproError:
                return state
            for conjunct in _conjuncts(formula):
                fact = _nil_fact(conjunct)
                if fact is not None:
                    state[fact[0]] = fact[1]
        return state

    def join(self, states: Sequence[NilState]) -> NilState:
        merged: NilState = {}
        first = states[0]
        for name, value in first.items():
            if value != TOP and all(other.get(name, TOP) == value
                                    for other in states[1:]):
                merged[name] = value
        return merged

    def transfer(self, node: Node, state: NilState) -> NilState:
        statement = node.statement
        if isinstance(statement, TAssign):
            state = _after_derefs(_statement_derefs(statement), state)
            if isinstance(statement.lhs, VarLhs):
                state = dict(state)
                if statement.rhs is None:
                    state[statement.lhs.name] = NIL
                elif statement.rhs.steps:
                    state.pop(statement.lhs.name, None)
                else:
                    value = state.get(statement.rhs.var, TOP)
                    state[statement.lhs.name] = value
            return state
        if isinstance(statement, TNew):
            state = _after_derefs(_statement_derefs(statement), state)
            if isinstance(statement.lhs, VarLhs):
                state = dict(state)
                state[statement.lhs.name] = NONNIL
            return state
        if isinstance(statement, TDispose):
            return _after_derefs(_statement_derefs(statement), state)
        # Branch, annotation, entry, exit: no state change (guard
        # knowledge lives on the edges).
        return state

    def refine(self, edge: Edge, state: NilState
               ) -> Optional[NilState]:
        if edge.guard is None:
            return state
        return _refine_guard(edge.guard, edge.value, state)


def _conjuncts(formula: object) -> List[object]:
    if isinstance(formula, sl.SAnd):
        return _conjuncts(formula.left) + _conjuncts(formula.right)
    return [formula]


def _nil_fact(conjunct: object) -> Optional[tuple]:
    """``v = nil`` / ``v <> nil`` facts from a precondition conjunct."""
    negated = False
    if isinstance(conjunct, sl.SNot):
        negated = True
        conjunct = conjunct.inner
    if not isinstance(conjunct, sl.SEq):
        return None
    terms = (conjunct.left, conjunct.right)
    names = [t.name for t in terms if isinstance(t, sl.TermVar)]
    nils = [t for t in terms if isinstance(t, sl.TermNil)]
    if len(names) == 1 and len(nils) == 1:
        return (names[0], NONNIL if negated else NIL)
    return None


def _after_derefs(bases: Sequence[str], state: NilState) -> NilState:
    """After a statement dereferences these variables, they are known
    non-nil (execution continued past the dereference)."""
    if not bases:
        return state
    state = dict(state)
    for name in bases:
        state[name] = NONNIL
    return state


def _value_deref(path: Optional[TPath]) -> List[str]:
    """The variable a value-position path dereferences, if any."""
    if path is not None and path.steps:
        return [path.var]
    return []


def _cell_deref(path: TPath) -> List[str]:
    """A cell-position path (field write, variant test, dispose)
    always dereferences its variable."""
    return [path.var]


def _statement_derefs(statement: object) -> List[str]:
    """Variables a (non-branch) statement dereferences."""
    if isinstance(statement, TAssign):
        bases = _value_deref(statement.rhs)
        if isinstance(statement.lhs, FieldLhs):
            bases += _cell_deref(statement.lhs.cell)
        return bases
    if isinstance(statement, TNew):
        if isinstance(statement.lhs, FieldLhs):
            return _cell_deref(statement.lhs.cell)
        return []
    if isinstance(statement, TDispose):
        return _cell_deref(statement.path)
    return []


def _refine_guard(guard: TGuard, value: bool,
                  state: NilState) -> Optional[NilState]:
    """The state after a guard evaluated to ``value`` (None when that
    outcome is impossible)."""
    if isinstance(guard, TNot):
        return _refine_guard(guard.inner, not value, state)
    if isinstance(guard, TAnd):
        if value:
            left = _refine_guard(guard.left, True, state)
            if left is None:
                return None
            return _refine_guard(guard.right, True, left)
        return _join_optional(
            _refine_guard(guard.left, False, state),
            _chain_refine(guard, state, first=False))
    if isinstance(guard, TOr):
        if not value:
            left = _refine_guard(guard.left, False, state)
            if left is None:
                return None
            return _refine_guard(guard.right, False, left)
        return _join_optional(
            _refine_guard(guard.left, True, state),
            _chain_refine(guard, state, first=True))
    if isinstance(guard, TVariantTest):
        # The test evaluated, so the cell path's base is non-nil.
        return _apply_fact(state, _cell_deref(guard.cell), None)
    if isinstance(guard, TPtrCompare):
        bases = _value_deref(guard.left) + _value_deref(guard.right)
        equal = (value != guard.negated)
        fact = None
        paths = (guard.left, guard.right)
        plain = [p for p in paths if p is not None and not p.steps]
        if None in paths and len(plain) == 1:
            fact = (plain[0].var, NIL if equal else NONNIL)
        return _apply_fact(state, bases, fact)
    raise TypeError(f"unknown guard node {guard!r}")


def _chain_refine(guard, state: NilState,
                  first: bool) -> Optional[NilState]:
    """The short-circuit case where the left operand passed and the
    right one decided: ``left`` true and ``right`` false for ``and``
    (``first=False``), ``left`` false and ``right`` true for ``or``."""
    left = _refine_guard(guard.left, not first, state)
    if left is None:
        return None
    return _refine_guard(guard.right, first, left)


def _join_optional(a: Optional[NilState],
                   b: Optional[NilState]) -> Optional[NilState]:
    if a is None:
        return b
    if b is None:
        return a
    merged: NilState = {}
    for name, value in a.items():
        if value != TOP and b.get(name, TOP) == value:
            merged[name] = value
    return merged


def _apply_fact(state: NilState, nonnil_bases: Sequence[str],
                fact: Optional[tuple]) -> Optional[NilState]:
    state = dict(state)
    for name in nonnil_bases:
        if state.get(name) == NIL:
            return None  # the dereference cannot have succeeded
        state[name] = NONNIL
    if fact is not None:
        name, value = fact
        known = state.get(name, TOP)
        if known != TOP and known != value:
            return None
        state[name] = value
    return state


# ----------------------------------------------------------------------
# nil-deref
# ----------------------------------------------------------------------

def _nil_derefs(graph: CFG,
                result: DataflowResult[NilState]) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []

    def flag(name: str, node: Node) -> None:
        diagnostics.append(Diagnostic(
            code="nil-deref", severity=Severity.ERROR,
            message=f"dereference of '{name}', which is always nil "
                    f"here", line=node.line))

    for node in graph.statement_nodes():
        if not result.reachable(node.index):
            continue
        state = result.inputs[node.index]
        if node.kind == BRANCH:
            guard = node.statement.cond  # type: ignore[union-attr]
            for name in _guard_nil_derefs(guard, state):
                flag(name, node)
        else:
            for name in _statement_derefs(node.statement):
                if state.get(name) == NIL:
                    flag(name, node)
    return diagnostics


def _guard_nil_derefs(guard: TGuard, state: NilState) -> List[str]:
    """Definitely-nil dereferences a guard performs, respecting
    short-circuit evaluation order."""
    if isinstance(guard, TNot):
        return _guard_nil_derefs(guard.inner, state)
    if isinstance(guard, (TAnd, TOr)):
        found = _guard_nil_derefs(guard.left, state)
        # The right operand only evaluates when the left let it.
        passed = _refine_guard(guard.left, isinstance(guard, TAnd),
                               state)
        if passed is not None:
            found += _guard_nil_derefs(guard.right, passed)
        return found
    if isinstance(guard, TVariantTest):
        bases = _cell_deref(guard.cell)
    else:
        assert isinstance(guard, TPtrCompare)
        bases = _value_deref(guard.left) + _value_deref(guard.right)
    return [name for name in bases if state.get(name) == NIL]


# ----------------------------------------------------------------------
# unreachable
# ----------------------------------------------------------------------

def _unreachable(graph: CFG,
                 result: DataflowResult[NilState]) -> List[Diagnostic]:
    diagnostics = []
    for node in graph.statement_nodes():
        if result.reachable(node.index):
            continue
        # Report only the head of each dead region: a node with some
        # reachable predecessor.
        if any(result.reachable(edge.src)
               for edge in graph.predecessors(node.index)):
            diagnostics.append(Diagnostic(
                code="unreachable", severity=Severity.WARNING,
                message="statement is unreachable", line=node.line))
    return diagnostics


# ----------------------------------------------------------------------
# use-before-assign
# ----------------------------------------------------------------------

class _UnassignedAnalysis(Analysis[FrozenSet[str]]):
    """Forward may-analysis: pointer variables possibly never yet
    assigned.  Annotated variables are exempt (they are inputs)."""

    direction = FORWARD

    def __init__(self, program: TypedProgram) -> None:
        annotated: Set[str] = set()
        for annotation in _annotations(program):
            # None means the annotation does not parse (bad-assertion
            # reports that); an empty set is a real answer — {true}
            # exempts nothing.
            found = _annotation_vars(annotation, program)
            annotated |= frozenset(program.schema.all_vars()) \
                if found is None else found
        self.initial = frozenset(
            name for name in program.schema.pointer_vars
            if name not in annotated)

    def boundary(self, graph: CFG) -> FrozenSet[str]:
        return self.initial

    def join(self, states: Sequence[FrozenSet[str]]) -> FrozenSet[str]:
        return frozenset().union(*states)

    def transfer(self, node: Node,
                 state: FrozenSet[str]) -> FrozenSet[str]:
        statement = node.statement
        if isinstance(statement, (TAssign, TNew)) and \
                isinstance(statement.lhs, VarLhs):
            return state - {statement.lhs.name}
        return state


def _statement_reads(statement: object) -> List[str]:
    """Variables whose values a statement (or its guard) reads."""
    if isinstance(statement, TAssign):
        reads = [statement.rhs.var] if statement.rhs is not None else []
        if isinstance(statement.lhs, FieldLhs):
            reads.append(statement.lhs.cell.var)
        return reads
    if isinstance(statement, TNew):
        if isinstance(statement.lhs, FieldLhs):
            return [statement.lhs.cell.var]
        return []
    if isinstance(statement, TDispose):
        return [statement.path.var]
    if isinstance(statement, (TIf, TWhile)):
        return sorted(guard_vars(statement.cond))
    return []


def _use_before_assign(graph: CFG,
                       program: TypedProgram) -> List[Diagnostic]:
    result = solve(graph, _UnassignedAnalysis(program))
    diagnostics = []
    reported: Set[str] = set()
    for node in graph.statement_nodes():
        if node.kind == ANNOTATION or \
                not result.reachable(node.index):
            continue
        state = result.inputs[node.index]
        for name in _statement_reads(node.statement):
            if name in state and name not in reported:
                reported.add(name)
                diagnostics.append(Diagnostic(
                    code="use-before-assign",
                    severity=Severity.WARNING,
                    message=f"pointer '{name}' may be read before "
                            f"any assignment", line=node.line))
    return diagnostics


# ----------------------------------------------------------------------
# lost-cell
# ----------------------------------------------------------------------

#: Per allocation site (the ``new``'s line): the variables that may
#: still hold the cell's address, and whether the address may have
#: been stored into a heap field ("escaped").
AllocState = Dict[int, "AllocFact"]
AllocFact = tuple  # (FrozenSet[str] aliases, bool escaped)


class _AllocAnalysis(Analysis[AllocState]):
    """Forward may-analysis of where each allocated cell's address can
    still be.  ``new(v, c)`` starts a site with may-set ``{v}``;
    copies propagate membership, overwrites remove it, a heap store of
    a member marks the site escaped, and ``dispose`` of a member
    retires the site.  A site whose may-set empties unescaped is a
    definite leak — the transfer drops it (the reporting pass replays
    the transition to attach a position)."""

    direction = FORWARD

    def boundary(self, graph: CFG) -> AllocState:
        return {}

    def join(self, states: Sequence[AllocState]) -> AllocState:
        merged: AllocState = {}
        for state in states:
            for site, (aliases, escaped) in state.items():
                old = merged.get(site)
                if old is None:
                    merged[site] = (aliases, escaped)
                else:
                    merged[site] = (old[0] | aliases,
                                    old[1] or escaped)
        return merged

    def transfer(self, node: Node, state: AllocState) -> AllocState:
        return _alloc_transfer(node.statement, state)[0]


def _drop_empty(state: AllocState) -> tuple:
    """Split a state into (live sites, leaked site lines)."""
    kept: AllocState = {}
    lost: List[int] = []
    for site, (aliases, escaped) in state.items():
        if aliases or escaped:
            kept[site] = (aliases, escaped)
        else:
            lost.append(site)
    return kept, lost


def _alloc_transfer(statement: object, state: AllocState) -> tuple:
    """One forward step: (state after, lines of sites leaked here)."""
    if isinstance(statement, TAssign):
        lhs, rhs = statement.lhs, statement.rhs
        if isinstance(lhs, FieldLhs):
            # Storing a member's value into the heap publishes the
            # cell's address; the heap may now be its only route.
            if rhs is not None and not rhs.steps:
                state = {site: (aliases, escaped or rhs.var in aliases)
                         for site, (aliases, escaped) in state.items()}
            return state, []
        updated: AllocState = {}
        for site, (aliases, escaped) in state.items():
            if rhs is not None and not rhs.steps and \
                    rhs.var in aliases:
                aliases = aliases | {lhs.name}
            else:
                # nil, a non-member variable, or a heap read (which
                # can only yield the address once it escaped — and
                # escaped sites are never reported).
                aliases = aliases - {lhs.name}
            updated[site] = (aliases, escaped)
        return _drop_empty(updated)
    if isinstance(statement, TNew):
        if isinstance(statement.lhs, FieldLhs):
            # Allocated directly into a heap field: reachable from the
            # heap by construction; nothing to track.
            return state, []
        name = statement.lhs.name
        updated = {site: (aliases - {name}, escaped)
                   for site, (aliases, escaped) in state.items()}
        kept, lost = _drop_empty(updated)
        kept[statement.line] = (frozenset([name]), False)
        return kept, lost
    if isinstance(statement, TDispose):
        path = statement.path
        if path.steps:
            # Freeing through the heap: only an escaped cell can be
            # reached this way, and escaped sites are already exempt.
            return state, []
        return {site: fact for site, fact in state.items()
                if path.var not in fact[0]}, []
    # Branches, annotations, entry/exit: no change.
    return state, []


def _lost_cells(graph: CFG) -> List[Diagnostic]:
    result = solve(graph, _AllocAnalysis())
    diagnostics = []
    for node in graph.statement_nodes():
        if node.kind in (BRANCH, ANNOTATION) or \
                not result.reachable(node.index):
            continue
        _, lost = _alloc_transfer(node.statement,
                                  result.inputs[node.index])
        for site in sorted(lost):
            diagnostics.append(Diagnostic(
                code="lost-cell", severity=Severity.ERROR,
                message=f"cell allocated at line {site} is lost here: "
                        f"no variable still points to it and its "
                        f"address was never stored",
                line=node.line))
    return diagnostics


# ----------------------------------------------------------------------
# dead-assignment
# ----------------------------------------------------------------------

class _LivenessAnalysis(Analysis[FrozenSet[str]]):
    """Backward liveness; annotations use their free variables, and a
    missing postcondition or invariant keeps everything live."""

    direction = BACKWARD

    def __init__(self, program: TypedProgram) -> None:
        self.program = program
        self.everything = frozenset(program.schema.all_vars())

    def _annotation_live(self,
                         annotation: Optional[Annotation]
                         ) -> FrozenSet[str]:
        if annotation is None:
            return self.everything
        found = _annotation_vars(annotation, self.program)
        return self.everything if found is None else found

    def boundary(self, graph: CFG) -> FrozenSet[str]:
        return self._annotation_live(self.program.post)

    def join(self, states: Sequence[FrozenSet[str]]) -> FrozenSet[str]:
        return frozenset().union(*states)

    def transfer(self, node: Node,
                 state: FrozenSet[str]) -> FrozenSet[str]:
        statement = node.statement
        if node.kind == ANNOTATION:
            if isinstance(statement, TWhile):
                return state | self._annotation_live(
                    statement.invariant)
            if isinstance(statement, TAssertStmt):
                return state | self._annotation_live(
                    statement.annotation)
            return state
        if isinstance(statement, (TAssign, TNew)) and \
                isinstance(statement.lhs, VarLhs):
            state = state - {statement.lhs.name}
        return state | frozenset(_statement_reads(statement))


def _dead_assignments(graph: CFG,
                      program: TypedProgram) -> List[Diagnostic]:
    result = solve(graph, _LivenessAnalysis(program))
    diagnostics = []
    for node in graph.statement_nodes():
        statement = node.statement
        if not isinstance(statement, TAssign) or \
                not isinstance(statement.lhs, VarLhs) or \
                not result.reachable(node.index):
            continue
        live_after = result.inputs[node.index]
        if statement.lhs.name not in live_after:
            diagnostics.append(Diagnostic(
                code="dead-assignment", severity=Severity.WARNING,
                message=f"value assigned to "
                        f"'{statement.lhs.name}' is never used",
                line=node.line))
    return diagnostics

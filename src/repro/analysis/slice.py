"""One backward relevance pass over a loop-free subgoal.

A subgoal (:class:`repro.verify.engine.Subgoal`) checks obligations
over the store reached by a loop-free statement sequence, under
assumed obligations over the initial store, plus the two
well-formedness predicates.  This pass walks the statements backward
once, from the variables the *check* obligations read plus every data
variable, and answers two questions at the same time:

* which statements can be **dropped** before symbolic execution
  (:func:`slice_statements`), so the transduction wraps fewer
  predicates;
* which variables keep an automaton **track** — the live-in set, the
  variables of the assume obligations and the data variables.  Every
  other variable is dropped from the alphabet
  (:class:`repro.symbolic.layout.TrackLayout` with a ``variables``
  subset) and assumed nil initially.
  :func:`repro.analysis.coi.cone_of_influence` is the same pass with
  dropping off, for the ``--no-slice`` path.

Soundness rules (``docs/ARCHITECTURE.md`` §8 carries the argument):

* check obligations read the *final* store, so their variables flow
  backward through kills; assume obligations read the *initial* store,
  so their variables keep their tracks unconditionally (pinning one to
  nil would change what the assumption means) and never keep a
  statement (removing a statement cannot change the initial store);
* data variables are always live: their segments carry the string
  encoding's structure;
* when the statements dispose, nothing is dropped and every variable
  keeps its track: ``dispose`` can leave any variable dangling, which
  only that variable's ``wf_graph`` conjunct notices;
* ``v := path`` kills ``v`` and gens the path's variable when ``v`` is
  live; a dereference can *fail* (the ``~error`` conjunct observes
  it), so it always gens its base and is never dropped;
* heap writes and ``new`` are never dropped (they change the graph
  every obligation reads; ``new`` has the ``oom`` outcome) and gen the
  cell they write through;
* only a pure copy — ``v := nil`` or ``v := u`` — whose target is dead
  is dropped: its final value only feeds ``wf_graph``'s per-variable
  target conjunct, which holds either way without ``dispose``;
* a conditional is dropped whole only when both sliced branches are
  empty **and** its guard cannot fail (every atom a pointer comparison
  of step-free paths; a variant test always dereferences).  A kept
  conditional gens its guard variables and slices each branch against
  the join's liveness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from repro.pascal.typed import (FieldLhs, TAnd, TAssign, TDispose, TGuard,
                                TIf, TNew, TNot, TOr, TPath, TPtrCompare,
                                TVariantTest, VarLhs)
from repro.stores.schema import Schema


@dataclass(frozen=True)
class SliceResult:
    """One subgoal's relevance: the kept statements, the kept tracks
    and the counts the reports and metrics surface."""

    statements: Tuple[object, ...]
    #: Statements of the original subgoal, counted recursively.
    before: int
    #: Statements of the slice, counted recursively.
    after: int
    #: Variables that keep an automaton track: the live-in set, the
    #: assume variables and the data variables (every variable when
    #: the statements dispose).
    tracks: FrozenSet[str]

    @property
    def dropped(self) -> int:
        return self.before - self.after


def slice_statements(statements: Sequence[object],
                     check_seeds: Iterable[str],
                     schema: Schema,
                     assume_seeds: Iterable[str] = ()) -> SliceResult:
    """Slice a loop-free statement sequence against the variables the
    check obligations read; the result also holds the kept tracks
    (the slice's live-in variables, ``assume_seeds`` and the data
    variables)."""
    return relevance(statements, check_seeds, assume_seeds, schema,
                     drop=True)


def relevance(statements: Sequence[object], check_seeds: Iterable[str],
              assume_seeds: Iterable[str], schema: Schema,
              drop: bool) -> SliceResult:
    """The backward pass behind :func:`slice_statements` (``drop``)
    and :func:`repro.analysis.coi.cone_of_influence` (no ``drop``)."""
    original = tuple(statements)
    before = statement_count(original)
    if _disposes(original):
        return SliceResult(original, before, before,
                           frozenset(schema.all_vars()))
    data_vars = frozenset(schema.data_vars)
    kept, live = _backward(original, frozenset(check_seeds) | data_vars,
                           drop)
    return SliceResult(tuple(kept), before, statement_count(kept),
                       live | frozenset(assume_seeds) | data_vars)


def guard_vars(guard: TGuard) -> FrozenSet[str]:
    """All variables a guard expression mentions."""
    if isinstance(guard, TPtrCompare):
        return _path_vars(guard.left) | _path_vars(guard.right)
    if isinstance(guard, TVariantTest):
        return frozenset([guard.cell.var])
    if isinstance(guard, (TAnd, TOr)):
        return guard_vars(guard.left) | guard_vars(guard.right)
    if isinstance(guard, TNot):
        return guard_vars(guard.inner)
    raise TypeError(f"unknown guard node {guard!r}")


def _path_vars(path) -> FrozenSet[str]:
    if path is None:
        return frozenset()
    return frozenset([path.var])


def dropped_statements(original: Sequence[object],
                       kept: Sequence[object]) -> List[object]:
    """The leaf statements of ``original`` missing from ``kept``, in
    source order (``repro analyze`` reporting).

    Kept statements appear in ``kept`` in their original order, and
    leaves are kept by identity; a conditional is matched structurally
    (the slicer rebuilds it around its sliced branches)."""
    result: List[object] = []
    index = 0
    kept = list(kept)
    for statement in original:
        match = kept[index] if index < len(kept) else None
        if isinstance(statement, TIf):
            if isinstance(match, TIf) and match.line == statement.line:
                result += dropped_statements(statement.then_body,
                                             match.then_body)
                result += dropped_statements(statement.else_body,
                                             match.else_body)
                index += 1
            else:
                result += dropped_statements(statement.then_body, ())
                result += dropped_statements(statement.else_body, ())
        elif match is statement:
            index += 1
        else:
            result.append(statement)
    return result


def statement_count(statements: Sequence[object]) -> int:
    """Statements counted recursively (a conditional counts itself
    plus both branches)."""
    total = 0
    for statement in statements:
        total += 1
        if isinstance(statement, TIf):
            total += statement_count(statement.then_body)
            total += statement_count(statement.else_body)
    return total


def _disposes(statements: Sequence[object]) -> bool:
    for statement in statements:
        if isinstance(statement, TDispose):
            return True
        if isinstance(statement, TIf) and (
                _disposes(statement.then_body)
                or _disposes(statement.else_body)):
            return True
    return False


def _backward(statements: Sequence[object], live: FrozenSet[str],
              drop: bool) -> Tuple[List[object], FrozenSet[str]]:
    """Walk one straight-line (possibly branching) sequence against
    the live-out set; returns (kept statements, live-in set)."""
    kept: List[object] = []
    for statement in reversed(statements):
        keep, live = _transfer(statement, live, drop)
        if keep is not None:
            kept.append(keep)
    kept.reverse()
    return kept, live


def _transfer(statement: object, live: FrozenSet[str], drop: bool):
    """One backward step: (kept statement or None, live-before).
    Without ``drop`` every statement is kept."""
    if isinstance(statement, TAssign):
        lhs, rhs = statement.lhs, statement.rhs
        if isinstance(lhs, FieldLhs):
            gen = {lhs.cell.var}
            if rhs is not None:
                gen.add(rhs.var)
            return statement, live | gen
        assert isinstance(lhs, VarLhs)
        derefs = isinstance(rhs, TPath) and bool(rhs.steps)
        if not derefs and lhs.name not in live:
            # A dead pure copy: cannot error, touches no heap edge,
            # and its value reaches no obligation.
            return (None if drop else statement), live
        live = live - {lhs.name}
        if rhs is not None:
            live = live | {rhs.var}
        return statement, live
    if isinstance(statement, TNew):
        if isinstance(statement.lhs, VarLhs):
            return statement, live - {statement.lhs.name}
        return statement, live | {statement.lhs.cell.var}
    if isinstance(statement, TDispose):
        # Only reachable when the caller skipped the dispose guard;
        # keep it and stay conservative.
        return statement, live | {statement.path.var}
    if isinstance(statement, TIf):
        then_kept, then_live = _backward(statement.then_body, live, drop)
        else_kept, else_live = _backward(statement.else_body, live, drop)
        joined = then_live | else_live | guard_vars(statement.cond)
        if not drop:
            return statement, joined
        if not then_kept and not else_kept and \
                _guard_cannot_fail(statement.cond):
            # Both branches sliced empty and the guard cannot error:
            # the conditional has no observable effect at all.
            return None, live
        return TIf(cond=statement.cond, then_body=tuple(then_kept),
                   else_body=tuple(else_kept), line=statement.line), \
            joined
    raise TypeError(
        f"relevance expects loop-free statements, got {statement!r}")


def _guard_cannot_fail(guard: object) -> bool:
    """True when evaluating the guard can never raise a pointer error:
    every atom compares step-free paths.  A variant test always
    dereferences its cell, so it can always fail."""
    if isinstance(guard, TPtrCompare):
        return not ((guard.left is not None and guard.left.steps)
                    or (guard.right is not None and guard.right.steps))
    if isinstance(guard, (TAnd, TOr)):
        return _guard_cannot_fail(guard.left) and \
            _guard_cannot_fail(guard.right)
    if isinstance(guard, TNot):
        return _guard_cannot_fail(guard.inner)
    return False

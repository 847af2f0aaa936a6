"""Dependency-driven BDD track ordering.

Each kept program variable becomes one second-order track, and the
compiler allocates BDD levels in the order the layout registers them
(:meth:`repro.symbolic.layout.TrackLayout.register`).  Until now that
order was the schema's declaration order — an arbitrary choice the
BDD literature warns about: variables that interact (appear in the
same assignment, comparison, or obligation) should sit on *adjacent*
levels, or every node between them duplicates for each valuation of
the unrelated tracks in between.

This pass builds a **variable-affinity graph** from the same facts the
dataflow passes read — assignments link source and target, heap
writes link the cell and the stored value, guard atoms link their
operands, and every obligation links all its free variables pairwise —
and orders the tracks by a deterministic greedy chain: start from the
highest-affinity variable, then repeatedly append the unplaced
variable with the strongest affinity to those already placed.  Ties
fall back to declaration order, so the pass is a no-op exactly when
the affinity graph says nothing.

Verdicts cannot depend on the order (it renames BDD levels, nothing
else); only automaton sizes and timings move.  ``--no-order`` restores
the declaration order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from repro.analysis.slice import guard_vars
from repro.pascal.typed import (FieldLhs, TAnd, TAssign, TDispose, TIf,
                                TNew, TNot, TOr, TPtrCompare,
                                TVariantTest)
from repro.stores.schema import Schema

#: Edge weights: statements couple variables through the transduction
#: on every obligation, guard atoms only through the error/guard
#: formulas, obligations through their own formula.
_W_STATEMENT = 3
_W_GUARD = 1
_W_OBLIGATION = 2

Affinity = Dict[Tuple[str, str], int]


def affinity_graph(statements: Sequence[object],
                   obligation_vars: Iterable[FrozenSet[str]]) -> Affinity:
    """Pairwise affinity weights between program variables."""
    weights: Affinity = {}
    _walk_statements(statements, weights)
    for var_set in obligation_vars:
        _link_clique(sorted(var_set), _W_OBLIGATION, weights)
    return weights


def choose_order(statements: Sequence[object],
                 obligation_vars: Iterable[FrozenSet[str]],
                 schema: Schema,
                 keep: Iterable[str]) -> Tuple[str, ...]:
    """The track order for the kept variables.

    Deterministic greedy chaining over the affinity graph; declaration
    order breaks every tie and is returned unchanged when the graph
    has no edges between kept variables.
    """
    declared = [name for name in schema.all_vars() if name in set(keep)]
    weights = affinity_graph(statements, obligation_vars)
    kept = set(declared)
    edges: Affinity = {pair: weight for pair, weight in weights.items()
                       if pair[0] in kept and pair[1] in kept}
    if not edges:
        return tuple(declared)
    totals = {name: 0 for name in declared}
    for (left, right), weight in edges.items():
        totals[left] += weight
        totals[right] += weight
    # Highest total affinity first; declaration order breaks ties.
    rank = {name: index for index, name in enumerate(declared)}
    start = min(declared, key=lambda name: (-totals[name], rank[name]))
    placed: List[str] = [start]
    remaining = [name for name in declared if name != start]
    while remaining:
        def pull(name: str) -> int:
            return sum(edges.get(_pair(name, other), 0)
                       for other in placed)
        best = min(remaining, key=lambda name: (-pull(name), rank[name]))
        placed.append(best)
        remaining.remove(best)
    return tuple(placed)


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _bump(a: str, b: str, weight: int, weights: Affinity) -> None:
    if a == b:
        return
    key = _pair(a, b)
    weights[key] = weights.get(key, 0) + weight


def _link_clique(names: Sequence[str], weight: int,
                 weights: Affinity) -> None:
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            _bump(left, right, weight, weights)


def _walk_statements(statements: Sequence[object],
                     weights: Affinity) -> None:
    for statement in statements:
        if isinstance(statement, TAssign):
            lhs, rhs = statement.lhs, statement.rhs
            left = lhs.cell.var if isinstance(lhs, FieldLhs) else lhs.name
            if rhs is not None:
                _bump(left, rhs.var, _W_STATEMENT, weights)
        elif isinstance(statement, TNew):
            if isinstance(statement.lhs, FieldLhs):
                # No pair: allocation reads no other variable.
                pass
        elif isinstance(statement, TDispose):
            pass
        elif isinstance(statement, TIf):
            _walk_guard(statement.cond, weights)
            _walk_statements(statement.then_body, weights)
            _walk_statements(statement.else_body, weights)


def _walk_guard(guard: object, weights: Affinity) -> None:
    if isinstance(guard, TPtrCompare):
        names = sorted(guard_vars(guard))
        _link_clique(names, _W_GUARD, weights)
    elif isinstance(guard, TVariantTest):
        pass
    elif isinstance(guard, (TAnd, TOr)):
        _walk_guard(guard.left, weights)
        _walk_guard(guard.right, weights)
    elif isinstance(guard, TNot):
        _walk_guard(guard.inner, weights)

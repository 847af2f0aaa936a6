"""Symbolic stores: interpretations of the basic store relations.

The paper's transduction technique (§4): "all basic relationships,
such as the successor relation between cells, are accounted for in a
predicate after each program statement".  A :class:`SymbolicStore`
holds exactly those predicates, each as a function from M2L position
variables to formulas *over the initial store string*:

* ``var_pos[v](P)`` — variable ``v`` points at position ``P`` (the nil
  cell is position 0);
* ``next_to(P, Q)`` — the cell at ``P`` has its pointer field set to
  the cell at ``Q``;
* ``next_nil(P)`` — the cell at ``P`` has its pointer field set to nil;
* ``label_of[(T, v)](P)`` — ``P`` is a record cell of type T, variant v;
* ``garb(P)`` — ``P`` is (currently) a garbage cell.

Statements produce new stores whose predicates wrap the old ones
(:mod:`repro.symbolic.exec`); positions never change, only their
interpretation — that is what makes the weakest-precondition
computation a formula rewriting.

All predicate functions are memoised on their argument variables, so
repeated queries share formula objects and the compiler's cache hits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.mso.ast import Formula, Var, VarKind
from repro.mso.build import FormulaBuilder as F
from repro.stores.encode import Label
from repro.stores.schema import Schema
from repro.symbolic.layout import TrackLayout

PosFn = Callable[[Var], Formula]
Rel1 = Callable[[Var], Formula]
Rel2 = Callable[[Var, Var], Formula]


def memo1(fn: Rel1) -> Rel1:
    """Memoise a unary predicate on its argument variable."""
    cache: Dict[Var, Formula] = {}

    def wrapped(p: Var) -> Formula:
        found = cache.get(p)
        if found is None:
            found = fn(p)
            cache[p] = found
        return found

    return wrapped


def memo2(fn: Rel2) -> Rel2:
    """Memoise a binary predicate on its argument variables."""
    cache: Dict[tuple, Formula] = {}

    def wrapped(p: Var, q: Var) -> Formula:
        key = (p, q)
        found = cache.get(key)
        if found is None:
            found = fn(p, q)
            cache[key] = found
        return found

    return wrapped


def fresh_pos(prefix: str) -> Var:
    """A fresh first-order position variable."""
    return Var.fresh(prefix, VarKind.FIRST)


#: Process-wide store generation numbers.  Unlike ``id()``, a
#: generation is never reused after garbage collection, so it is a
#: safe cache key for formulas derived from a store (see
#: ``Verifier._eval_guard_cached``).
_generations = itertools.count()


@dataclass
class SymbolicStore:
    """One interpretation of the basic store relations."""

    schema: Schema
    layout: TrackLayout
    var_pos: Dict[str, PosFn]
    next_to: Rel2
    next_nil: Rel1
    label_of: Dict[Label, Rel1]
    garb: Rel1

    # ------------------------------------------------------------------
    # Derived predicates (memoised lazily per store)
    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        self._derived1: Dict[object, Rel1] = {}
        self._derived2: Dict[object, Rel2] = {}
        #: Stable identity (``updated()`` copies get fresh ones too).
        self.generation = next(_generations)

    def is_nil(self, p: Var) -> Formula:
        """Position ``p`` is the nil cell (always position 0)."""
        return F.first(p)

    def is_record(self, p: Var) -> Formula:
        """``p`` is currently a record cell (any label)."""
        return self._rel1("is_record", lambda q: F.disj(
            fn(q) for fn in self.label_of.values()))(p)

    def is_cell(self, p: Var) -> Formula:
        """``p`` is a cell: nil, a record, or garbage (not a lim)."""
        return self._rel1("is_cell", lambda q: F.disj(
            [self.is_nil(q), self.is_record(q), self.garb(q)]))(p)

    def rec_of_type(self, record_name: str) -> Rel1:
        """``p`` is a record cell of the given type."""
        return self._rel1(("rec_of_type", record_name), lambda q: F.disj(
            self.label_of[label](q)
            for label in self.layout.labels_of_type(record_name)))

    def has_field(self, field_name: Optional[str] = None) -> Rel1:
        """``p`` is a record cell whose variant has a pointer field
        (of the given name, when one is supplied)."""
        labels = self.layout.labels_with_field(field_name)
        return self._rel1(("has_field", field_name), lambda q: F.disj(
            self.label_of[label](q) for label in labels))

    def deref(self, field_name: str) -> Rel2:
        """``deref(P, Q)``: traversing ``field_name`` from the cell at
        ``P`` is defined and reaches the cell at ``Q`` (``Q`` is
        position 0 when the field holds nil)."""
        def build(p: Var, q: Var) -> Formula:
            return F.and_(
                self.has_field(field_name)(p),
                F.or_(self.next_to(p, q),
                      F.and_(self.next_nil(p), F.first(q))))
        return self._rel2(("deref", field_name), build)

    def deref_defined(self, field_name: str) -> Rel1:
        """``p`` is a record cell whose variant has the field and whose
        field value is defined (a cell or nil)."""
        def build(p: Var) -> Formula:
            target = fresh_pos("dd")
            return F.and_(
                self.has_field(field_name)(p),
                F.or_(self.next_nil(p),
                      F.ex1([target], self.next_to(p, target))))
        return self._rel1(("deref_defined", field_name), build)

    def first_garbage(self, p: Var) -> Formula:
        """``p`` is the lowest-position garbage cell (the allocator's
        deterministic choice)."""
        def build(q: Var) -> Formula:
            earlier = fresh_pos("fg")
            return F.and_(
                self.garb(q),
                F.not_(F.ex1([earlier], F.and_(self.garb(earlier),
                                               F.less(earlier, q)))))
        return self._rel1("first_garbage", build)(p)

    def some_garbage(self) -> Formula:
        """Some garbage cell exists (allocation can proceed)."""
        p = fresh_pos("sg")
        return F.ex1([p], self.garb(p))

    # ------------------------------------------------------------------

    def updated(self, **changes: object) -> "SymbolicStore":
        """A copy with some predicates replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]

    def _rel1(self, key: object, fn: Rel1) -> Rel1:
        found = self._derived1.get(key)
        if found is None:
            found = memo1(fn)
            self._derived1[key] = found
        return found

    def _rel2(self, key: object, fn: Rel2) -> Rel2:
        found = self._derived2.get(key)
        if found is None:
            found = memo2(fn)
            self._derived2[key] = found
        return found


def initial_store(schema: Schema, layout: TrackLayout) -> SymbolicStore:
    """The interpretation reading a canonical store string directly.

    Variable positions are the bitmap tracks; the successor relation
    follows string adjacency (a record cell's next is the following
    position, or nil when that position is a lim).
    """
    label_of: Dict[Label, Rel1] = {}
    for label in layout.record_labels():
        track_var = layout.label_vars[label]
        label_of[label] = memo1(
            lambda p, tv=track_var: F.mem(p, tv))
    garb = memo1(lambda p: F.mem(p, layout.label_vars[("garb",)]))
    lim_var = layout.label_vars[("lim",)]

    record_labels = list(layout.record_labels())
    field_labels = layout.labels_with_field()

    def is_rec(p: Var) -> Formula:
        return F.disj(label_of[label](p) for label in record_labels)

    def has_field(p: Var) -> Formula:
        return F.disj(label_of[label](p) for label in field_labels)

    def next_to(p: Var, q: Var) -> Formula:
        return F.conj([has_field(p), F.succ(p, q), is_rec(q)])

    def next_nil(p: Var) -> Formula:
        successor = fresh_pos("nn")
        return F.and_(has_field(p),
                      F.ex1([successor],
                            F.and_(F.succ(p, successor),
                                   F.mem(successor, lim_var))))

    # Variables reduced away by a cone-of-influence layout have no
    # track; their initial interpretation is simply "at nil" (position
    # 0), which every well-formed store can realise, so transduction
    # and wf_graph work on them unchanged.
    var_pos: Dict[str, PosFn] = {}
    for name in schema.all_vars():
        track_var = layout.var_vars.get(name)
        if track_var is None:
            var_pos[name] = memo1(lambda p: F.first(p))
        else:
            var_pos[name] = memo1(lambda p, tv=track_var: F.mem(p, tv))

    return SymbolicStore(schema=schema, layout=layout, var_pos=var_pos,
                         next_to=memo2(next_to), next_nil=memo1(next_nil),
                         label_of=label_of, garb=garb)

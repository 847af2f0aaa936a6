"""Symbolic automata with MTBDD-encoded transition functions.

This is the Mona-style engine the paper's implementation rests on
(§6): a deterministic automaton over an alphabet of *bit vectors*.
Each bit position is a **track** (one per logical variable of an M2L
formula), and each state stores its entire transition function as one
multi-terminal BDD whose leaves are target states.  Operations that
would be exponential in the number of tracks on an explicit alphabet —
products, projections, minimisation — run directly on the shared
diagrams.

The alphabet is implicit: a symbol is any assignment of booleans to
tracks, and transition MTBDDs are total, so automata are always
complete.  Tracks that a transition does not test are don't-cares.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Hashable, List, Mapping,
                    Optional, Sequence, Set, Tuple)

from repro.bdd.mtbdd import Mtbdd
from repro.obs import trace as obs_trace
from repro.robust import faults
from repro.robust.budget import check_states as _budget_check_states
from repro.robust.budget import tick as _budget_tick

Assignment = Mapping[int, bool]


def numbering(order: List) -> Callable[[Hashable], int]:
    """A function numbering keys 0, 1, 2, ... in the order first seen.

    It appends each new key to ``order``, so ``order[n]`` has number n.
    """
    index: Dict[Hashable, int] = {}

    def number(key: Hashable) -> int:
        found = index.get(key)
        if found is None:
            found = index[key] = len(order)
            order.append(key)
        return found

    return number


def delta_from_function(mgr: Mtbdd, tracks: Sequence[int],
                        fn: Callable[[Dict[int, bool]], Hashable]) -> int:
    """Build an MTBDD over ``tracks`` from an explicit function.

    ``fn`` receives a total assignment of the given tracks and returns
    the leaf value.  Intended for the small hand-written base automata
    of the M2L compiler, where ``len(tracks)`` is at most three.
    Duplicate tracks are allowed (an atom may mention one variable
    twice) and collapse to a single decision.
    """
    ordered = sorted(set(tracks))

    def build(index: int, acc: Dict[int, bool]) -> int:
        if index == len(ordered):
            return mgr.leaf(fn(dict(acc)))
        track = ordered[index]
        acc[track] = False
        lo = build(index + 1, acc)
        acc[track] = True
        hi = build(index + 1, acc)
        del acc[track]
        return mgr.node(track, lo, hi)

    return build(0, {})


@dataclass
class SymbolicDfa:
    """A complete DFA over bit-vector symbols.

    Attributes:
        mgr: the MTBDD manager owning all transition diagrams.
        num_states: states are ``0 .. num_states-1``.
        initial: the start state.
        accepting: the set of accepting states.
        delta: ``delta[q]`` is an MTBDD with integer (state) leaves.
    """

    mgr: Mtbdd
    num_states: int
    initial: int
    accepting: FrozenSet[int]
    delta: List[int]

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def step(self, state: int, symbol: Assignment) -> int:
        """The successor of ``state`` under one symbol."""
        result = self.mgr.evaluate(self.delta[state], dict(symbol))
        return result  # type: ignore[return-value]

    def accepts(self, word: Sequence[Assignment]) -> bool:
        """Membership of a word of track assignments."""
        state = self.initial
        for symbol in word:
            state = self.step(state, symbol)
        return state in self.accepting

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def complement(self) -> "SymbolicDfa":
        """Language complement (automaton is complete by construction)."""
        return SymbolicDfa(
            mgr=self.mgr, num_states=self.num_states, initial=self.initial,
            accepting=frozenset(range(self.num_states)) - self.accepting,
            delta=self.delta)

    def product(self, other: "SymbolicDfa",
                accept: Callable[[bool, bool], bool]) -> "SymbolicDfa":
        """Reachable synchronous product.

        ``accept`` combines the two acceptance flags; use ``and`` for
        intersection, ``or`` for union, ``lambda a, b: a and not b``
        for difference.  Pair states are numbered as the one ``apply2``
        per state first meets them: states in number order, symbols in
        lexicographic order (track 0 first, False before True).
        """
        if other.mgr is not self.mgr:
            raise ValueError("product requires a shared MTBDD manager")
        faults.fire("automata.product")
        with obs_trace.span("automata.product", detail=True) as sp:
            mgr = self.mgr
            memo: Dict[Tuple[int, int], int] = {}
            delta: List[int] = []
            accepting: Set[int] = set()
            order: List[Tuple[int, int]] = []
            state_of = numbering(order)
            pair_state = lambda a, b: state_of((a, b))
            start = state_of((self.initial, other.initial))
            cursor = 0
            while cursor < len(order):
                _budget_tick("automata.product")
                _budget_check_states("automata.product", len(order))
                left, right = order[cursor]
                delta.append(mgr.apply2(memo, pair_state, self.delta[left],
                                        other.delta[right]))
                if accept(left in self.accepting,
                          right in other.accepting):
                    accepting.add(cursor)
                cursor += 1
            result = SymbolicDfa(mgr=mgr, num_states=len(order),
                                 initial=start,
                                 accepting=frozenset(accepting),
                                 delta=delta)
            if sp:
                sp.annotate(left_states=self.num_states,
                            right_states=other.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def intersect(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language intersection."""
        return self.product(other, lambda a, b: a and b)

    def union(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language union."""
        return self.product(other, lambda a, b: a or b)

    def difference(self, other: "SymbolicDfa") -> "SymbolicDfa":
        """Language difference ``L(self) \\ L(other)``."""
        return self.product(other, lambda a, b: a and not b)

    # ------------------------------------------------------------------
    # Projection (existential quantification of one track)
    # ------------------------------------------------------------------

    def project(self, track: int) -> "SymbolicNfa":
        """Erase ``track``: each symbol may take either value for it.

        The result is nondeterministic; determinise to get back a DFA.
        This implements existential quantification in M2L.
        """
        with obs_trace.span("automata.project", detail=True,
                            track=track, states=self.num_states):
            mgr = self.mgr
            lift: Dict[int, int] = {}
            union: Dict[Tuple[int, int], int] = {}
            delta: List[int] = []
            for q in range(self.num_states):
                lo = mgr.restrict(self.delta[q], {track: False})
                hi = mgr.restrict(self.delta[q], {track: True})
                lo_set = mgr.map_leaves(lift, lambda s: frozenset([s]), lo)
                hi_set = mgr.map_leaves(lift, lambda s: frozenset([s]), hi)
                delta.append(mgr.apply2(union, lambda a, b: a | b,
                                        lo_set, hi_set))
            return SymbolicNfa(mgr=mgr, num_states=self.num_states,
                               initial=frozenset([self.initial]),
                               accepting=self.accepting, delta=delta)

    # ------------------------------------------------------------------
    # Minimisation
    # ------------------------------------------------------------------

    def trim(self) -> "SymbolicDfa":
        """Restrict to states reachable from the initial state."""
        reachable: Set[int] = {self.initial}
        stack = [self.initial]
        while stack:
            q = stack.pop()
            for target in self.mgr.leaves(self.delta[q]):
                if target not in reachable:
                    reachable.add(target)  # type: ignore[arg-type]
                    stack.append(target)  # type: ignore[arg-type]
        if len(reachable) == self.num_states:
            return self
        remap = {old: new for new, old in enumerate(sorted(reachable))}
        memo: Dict[int, int] = {}
        delta = [self.mgr.map_leaves(memo, lambda s: remap[s],
                                     self.delta[old])
                 for old in sorted(reachable)]
        return SymbolicDfa(
            mgr=self.mgr, num_states=len(reachable),
            initial=remap[self.initial],
            accepting=frozenset(remap[q] for q in self.accepting
                                if q in remap),
            delta=delta)

    def minimize(self) -> "SymbolicDfa":
        """Moore partition refinement with hash-consed signatures.

        Two states are merged when they are acceptance-equivalent and
        their transition MTBDDs, with leaves rewritten to current block
        numbers, are the *same diagram* — an O(1) comparison thanks to
        hash-consing.
        """
        faults.fire("automata.minimize")
        with obs_trace.span("automata.minimize", detail=True) as sp:
            result = self._minimize()
            if sp:
                sp.annotate(states_before=self.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def _minimize(self) -> "SymbolicDfa":
        dfa = self.trim()
        mgr = dfa.mgr
        block = [1 if q in dfa.accepting else 0
                 for q in range(dfa.num_states)]
        num_blocks = len(set(block))
        while True:
            _budget_tick("automata.minimize")
            memo: Dict[int, int] = {}
            signatures = [
                (block[q], mgr.map_leaves(memo, lambda s: block[s],
                                          dfa.delta[q]))
                for q in range(dfa.num_states)]
            renumber: Dict[Tuple[int, int], int] = {}
            new_block = []
            for sig in signatures:
                if sig not in renumber:
                    renumber[sig] = len(renumber)
                new_block.append(renumber[sig])
            stable = len(renumber) == num_blocks
            block = new_block
            num_blocks = len(renumber)
            if stable:
                break
        # Canonical numbering: block of the initial state first is not
        # required; keep discovery order of blocks.
        representative: Dict[int, int] = {}
        for q in range(dfa.num_states):
            representative.setdefault(block[q], q)
        memo = {}
        delta = [mgr.map_leaves(memo, lambda s: block[s],
                                dfa.delta[representative[b]])
                 for b in range(num_blocks)]
        accepting = frozenset(block[q] for q in dfa.accepting)
        return SymbolicDfa(mgr=mgr, num_states=num_blocks,
                           initial=block[dfa.initial],
                           accepting=accepting, delta=delta)

    # ------------------------------------------------------------------
    # Decision queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the accepted language is empty."""
        return self.shortest_accepted() is None

    def is_universal(self) -> bool:
        """True iff every word (over all assignments) is accepted."""
        return self.complement().is_empty()

    def shortest_accepted(self) -> Optional[List[Dict[int, bool]]]:
        """A shortest accepted word, or None when the language is empty.

        Each symbol in the result is a partial assignment; tracks absent
        from it are don't-cares (callers may fix them to False).
        """
        if self.initial in self.accepting:
            return []
        parent: Dict[int, Tuple[int, Dict[int, bool]]] = {}
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            _budget_tick("automata.universality")
            state = queue.popleft()
            for assignment, target in self.mgr.paths(self.delta[state]):
                if target in seen:
                    continue
                seen.add(target)  # type: ignore[arg-type]
                parent[target] = (state, assignment)  # type: ignore[index]
                if target in self.accepting:
                    word: List[Dict[int, bool]] = []
                    cursor = target
                    while cursor != self.initial:
                        prev, via = parent[cursor]  # type: ignore[index]
                        word.append(via)
                        cursor = prev
                    word.reverse()
                    return word
                queue.append(target)  # type: ignore[arg-type]
        return None

    def includes(self, other: "SymbolicDfa") -> bool:
        """True iff ``L(other) ⊆ L(self)``."""
        return other.difference(self).is_empty()

    def equivalent(self, other: "SymbolicDfa") -> bool:
        """Language equality."""
        return self.includes(other) and other.includes(self)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def bdd_node_count(self) -> int:
        """Distinct decision nodes shared across all transition MTBDDs.

        This is the paper's "Nodes" column for a single automaton.
        """
        seen: Set[int] = set()
        count = 0
        stack = list(self.delta)
        mgr = self.mgr
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            if not mgr.is_leaf(f):
                count += 1
                stack.append(mgr.low(f))
                stack.append(mgr.high(f))
        return count

    def tracks(self) -> FrozenSet[int]:
        """All tracks any transition tests."""
        result: Set[int] = set()
        for root in self.delta:
            result |= self.mgr.support(root)
        return frozenset(result)


@dataclass
class SymbolicNfa:
    """A nondeterministic symbolic automaton.

    ``delta[q]`` is an MTBDD whose leaves are frozensets of target
    states.  Produced by :meth:`SymbolicDfa.project`; consumed by
    :meth:`determinize`.
    """

    mgr: Mtbdd
    num_states: int
    initial: FrozenSet[int]
    accepting: FrozenSet[int]
    delta: List[int]

    def determinize(self) -> SymbolicDfa:
        """Subset construction directly on the shared diagrams."""
        faults.fire("automata.determinize")
        with obs_trace.span("automata.determinize", detail=True) as sp:
            result = self._determinize()
            if sp:
                sp.annotate(nfa_states=self.num_states,
                            states=result.num_states,
                            nodes=result.bdd_node_count())
            return result

    def _determinize(self) -> SymbolicDfa:
        mgr = self.mgr
        union: Dict[Tuple[int, int], int] = {}
        rename: Dict[int, int] = {}
        empty = mgr.leaf(frozenset())
        order: List[FrozenSet[int]] = []
        state_of = numbering(order)
        state_of(self.initial)
        delta: List[int] = []
        accepting: Set[int] = set()
        cursor = 0
        while cursor < len(order):
            _budget_tick("automata.determinize")
            _budget_check_states("automata.determinize", len(order))
            subset = order[cursor]
            combined = empty
            for q in subset:
                combined = mgr.apply2(union, lambda a, b: a | b,
                                      combined, self.delta[q])
            delta.append(mgr.map_leaves(rename, state_of, combined))
            if subset & self.accepting:
                accepting.add(cursor)
            cursor += 1
        return SymbolicDfa(mgr=mgr, num_states=len(order), initial=0,
                           accepting=frozenset(accepting), delta=delta)

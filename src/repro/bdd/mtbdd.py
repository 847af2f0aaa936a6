"""Multi-terminal binary decision diagrams (MTBDDs).

An MTBDD maps bit-vector assignments to arbitrary hashable *leaf*
values.  The symbolic automata of :mod:`repro.automata.symbolic` keep
one MTBDD per state whose leaves are target states; during subset
construction the leaves are frozensets of states.  This mirrors the
Mona representation the paper credits for making the decision procedure
feasible (§6: "transition functions are encoded as binary decision
diagrams").

Nodes are hash-consed, so diagram equality is index equality, and the
number of distinct reachable nodes is the paper's "Nodes" statistic.

Example:
    >>> m = Mtbdd()
    >>> f = m.node(0, m.leaf("a"), m.leaf("b"))
    >>> m.evaluate(f, {0: True})
    'b'
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, Iterator, List, Optional,
                    Tuple)

from repro.robust.budget import check_nodes as _budget_check_nodes
from repro.robust.budget import tick as _budget_tick

#: Sentinel level for leaves; larger than any real variable level so the
#: usual top-variable computation treats leaves as "below" every node.
LEAF_LEVEL = 1 << 60

#: Node-cap checks run once per this-many + 1 node creations.
_NODE_CHECK_MASK = 0x3FF


class Mtbdd:
    """A manager owning a universe of hash-consed MTBDD nodes.

    The manager keeps the node store and ``restrict``'s memo, which is
    keyed by content and so stays useful across operations.  The memos
    of :meth:`apply2` and :meth:`map_leaves` depend on the leaf
    operator, so each belongs to one caller's operation (one product,
    one projection, one Moore round) and dies with it.
    """

    def __init__(self) -> None:
        # Internal nodes are (level, lo, hi); leaves are
        # (LEAF_LEVEL, value, None).
        self._nodes: List[Tuple[int, object, object]] = []
        self._unique: Dict[Tuple[int, object, object], int] = {}
        self._leaf_index: Dict[Hashable, int] = {}
        self._restrict_memo: Dict[
            Tuple[int, Tuple[Tuple[int, bool], ...]], int] = {}
        # Always-on cache statistics (plain ints: these sit inside the
        # hottest recursions, so no registry indirection).  A "hit" is
        # a memo-table return; a "miss" is a computed-and-inserted
        # result.  Recursive calls count individually.
        self.apply_hits = 0
        self.apply_misses = 0
        self.map_hits = 0
        self.map_misses = 0
        self.restrict_hits = 0
        self.restrict_misses = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def leaf(self, value: Hashable) -> int:
        """Return the leaf node carrying ``value`` (hash-consed)."""
        found = self._leaf_index.get(value)
        if found is not None:
            return found
        index = len(self._nodes)
        self._nodes.append((LEAF_LEVEL, value, None))
        self._leaf_index[value] = index
        return index

    def node(self, level: int, lo: int, hi: int) -> int:
        """Return the node testing ``level`` (reduced and hash-consed)."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        found = self._unique.get(key)
        if found is not None:
            return found
        index = len(self._nodes)
        self._nodes.append(key)
        self._unique[key] = index
        if (index & _NODE_CHECK_MASK) == 0:
            _budget_check_nodes("bdd.node", index)
        return index

    def is_leaf(self, f: int) -> bool:
        """True iff ``f`` carries a value rather than a decision."""
        return self._nodes[f][0] == LEAF_LEVEL

    def leaf_value(self, f: int) -> Hashable:
        """The value carried by leaf ``f``."""
        level, value, _ = self._nodes[f]
        if level != LEAF_LEVEL:
            raise ValueError(f"node {f} is not a leaf")
        return value

    def level(self, f: int) -> int:
        """Decision level of ``f`` (``LEAF_LEVEL`` for leaves)."""
        return self._nodes[f][0]

    def low(self, f: int) -> int:
        """Else-branch of internal node ``f``."""
        return self._nodes[f][1]  # type: ignore[return-value]

    def high(self, f: int) -> int:
        """Then-branch of internal node ``f``."""
        return self._nodes[f][2]  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def unique_table_size(self) -> int:
        """Internal (decision) nodes in the unique table."""
        return len(self._unique)

    @property
    def peak_nodes(self) -> int:
        """Total nodes ever created (nodes are never freed, so this is
        also the peak live count — the paper's space measure)."""
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------

    def apply2(self, memo: Dict[Tuple[int, int], int],
               op: Callable[[Hashable, Hashable], Hashable],
               f: int, g: int) -> int:
        """Combine two MTBDDs leaf-wise with the binary operator ``op``.

        ``memo`` maps each ``(f, g)`` already combined by ``op`` to its
        result.  It belongs to the calling operation: pass the same
        dict to every ``apply2`` of that ``op`` within the operation,
        and never share it between two ``op``s.  The else-branch is
        combined first, so ``op`` first meets each leaf pair in the
        lexicographic order of the assignments reaching it (lowest
        level most significant, False before True).
        """
        key = (f, g)
        cached = memo.get(key)
        if cached is not None:
            self.apply_hits += 1
            return cached
        self.apply_misses += 1
        _budget_tick("bdd.apply")
        level_f, level_g = self._nodes[f][0], self._nodes[g][0]
        if level_f == LEAF_LEVEL and level_g == LEAF_LEVEL:
            result = self.leaf(op(self.leaf_value(f), self.leaf_value(g)))
        else:
            top = min(level_f, level_g)
            f_lo, f_hi = (f, f) if level_f != top else \
                (self._nodes[f][1], self._nodes[f][2])
            g_lo, g_hi = (g, g) if level_g != top else \
                (self._nodes[g][1], self._nodes[g][2])
            result = self.node(
                top,
                self.apply2(memo, op, f_lo, g_lo),   # type: ignore[arg-type]
                self.apply2(memo, op, f_hi, g_hi))   # type: ignore[arg-type]
        memo[key] = result
        return result

    def map_leaves(self, memo: Dict[int, int],
                   op: Callable[[Hashable], Hashable], f: int) -> int:
        """Rewrite every leaf value through ``op``.

        ``memo`` maps each node already rewritten by ``op`` to its
        result; like :meth:`apply2`'s, it belongs to one operation and
        one ``op``.
        """
        cached = memo.get(f)
        if cached is not None:
            self.map_hits += 1
            return cached
        self.map_misses += 1
        _budget_tick("bdd.map")
        level, lo, hi = self._nodes[f]
        if level == LEAF_LEVEL:
            result = self.leaf(op(lo))
        else:
            mapped_lo = self.map_leaves(memo, op, lo)  # type: ignore[arg-type]
            mapped_hi = self.map_leaves(memo, op, hi)  # type: ignore[arg-type]
            result = self.node(level, mapped_lo, mapped_hi)
        memo[f] = result
        return result

    def restrict(self, f: int, assignment: Dict[int, bool]) -> int:
        """Fix the given decision variables to constants."""
        frozen = tuple(sorted(assignment.items()))
        if not frozen:
            return f
        return self._restrict(f, frozen, assignment)

    def _restrict(self, f: int, frozen: Tuple[Tuple[int, bool], ...],
                  assignment: Dict[int, bool]) -> int:
        level, lo, hi = self._nodes[f]
        if level == LEAF_LEVEL:
            return f
        key = (f, frozen)
        cached = self._restrict_memo.get(key)
        if cached is not None:
            self.restrict_hits += 1
            return cached
        self.restrict_misses += 1
        _budget_tick("bdd.restrict")
        if level in assignment:
            branch: int = hi if assignment[level] else lo
            result = self._restrict(branch, frozen, assignment)
        else:
            restricted_lo = self._restrict(
                lo, frozen, assignment)  # type: ignore[arg-type]
            restricted_hi = self._restrict(
                hi, frozen, assignment)  # type: ignore[arg-type]
            result = self.node(level, restricted_lo, restricted_hi)
        self._restrict_memo[key] = result
        return result

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def evaluate(self, f: int, assignment: Dict[int, bool]) -> Hashable:
        """Follow the decisions under ``assignment`` to a leaf value.

        Missing variables default to ``False``.
        """
        while not self.is_leaf(f):
            level, lo, hi = self._nodes[f]
            f = (hi if assignment.get(level, False)
                 else lo)  # type: ignore[assignment]
        return self.leaf_value(f)

    def leaves(self, f: int) -> frozenset:
        """The set of leaf values reachable from ``f``."""
        seen: set = set()
        values: set = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            level, lo, hi = self._nodes[g]
            if level == LEAF_LEVEL:
                values.add(lo)
            else:
                stack.append(lo)  # type: ignore[arg-type]
                stack.append(hi)  # type: ignore[arg-type]
        return frozenset(values)

    def support(self, f: int) -> frozenset:
        """The set of decision levels ``f`` depends on."""
        seen: set = set()
        levels: set = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            level, lo, hi = self._nodes[g]
            if level != LEAF_LEVEL:
                levels.add(level)
                stack.append(lo)  # type: ignore[arg-type]
                stack.append(hi)  # type: ignore[arg-type]
        return frozenset(levels)

    def node_count(self, f: int) -> int:
        """Number of distinct internal (decision) nodes under ``f``."""
        seen: set = set()
        count = 0
        stack = [f]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            level, lo, hi = self._nodes[g]
            if level != LEAF_LEVEL:
                count += 1
                stack.append(lo)  # type: ignore[arg-type]
                stack.append(hi)  # type: ignore[arg-type]
        return count

    def paths(self, f: int) -> Iterator[Tuple[Dict[int, bool], Hashable]]:
        """Iterate over all (partial assignment, leaf value) paths.

        Variables not mentioned in the assignment are don't-cares for
        that path.
        """
        def go(g: int,
               acc: Dict[int, bool]) -> Iterator[Tuple[Dict[int, bool],
                                                       Hashable]]:
            level, lo, hi = self._nodes[g]
            if level == LEAF_LEVEL:
                yield dict(acc), lo
                return
            acc[level] = False
            yield from go(lo, acc)  # type: ignore[arg-type]
            acc[level] = True
            yield from go(hi, acc)  # type: ignore[arg-type]
            del acc[level]

        yield from go(f, {})

    def find_leaf(self, f: int, want: Callable[[Hashable], bool]
                  ) -> Optional[Dict[int, bool]]:
        """A partial assignment reaching some leaf satisfying ``want``.

        Returns None when no such leaf is reachable.
        """
        for assignment, value in self.paths(f):
            if want(value):
                return assignment
        return None

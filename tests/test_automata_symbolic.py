"""Tests for the MTBDD-backed symbolic automata.

The oracle is the explicit-alphabet DFA layer: a symbolic automaton
over k tracks is compared against an explicit automaton over the
alphabet {0,1}^k on all short words.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.explicit import Dfa
from repro.automata.symbolic import (SymbolicDfa, SymbolicNfa,
                                     delta_from_function)
from repro.bdd import Mtbdd

NUM_TRACKS = 2
SYMBOLS = [dict(zip(range(NUM_TRACKS), bits))
           for bits in itertools.product([False, True],
                                         repeat=NUM_TRACKS)]


def _random_symbolic(rng, num_states, mgr=None):
    """A random complete symbolic DFA over NUM_TRACKS tracks."""
    mgr = mgr if mgr is not None else Mtbdd()
    table = {}
    for state in range(num_states):
        for index, _symbol in enumerate(SYMBOLS):
            table[(state, index)] = rng.randrange(num_states)
    delta = [
        delta_from_function(
            mgr, range(NUM_TRACKS),
            lambda a, s=state: table[
                (s, _symbol_index(a))])
        for state in range(num_states)]
    accepting = frozenset(
        state for state in range(num_states) if rng.random() < 0.4)
    return SymbolicDfa(mgr, num_states, 0, accepting, delta), table


def _symbol_index(assignment):
    value = 0
    for track in range(NUM_TRACKS):
        value = (value << 1) | int(assignment[track])
    return value


def _to_explicit(sym, table, num_states, accepting):
    alphabet = frozenset(range(len(SYMBOLS)))
    delta = [{index: table[(state, index)] for index in alphabet}
             for state in range(num_states)]
    return Dfa(num_states=num_states, alphabet=alphabet, initial=0,
               accepting=set(accepting), delta=delta)


def _words(max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(len(SYMBOLS)), repeat=length)


def _sym_word(word):
    return [SYMBOLS[index] for index in word]


_ACCEPT = {"intersect": lambda a, b: a and b,
           "union": lambda a, b: a or b,
           "difference": lambda a, b: a and not b}


def _numbered_product(left, left_table, right, right_table, accept):
    """The reachable product with pairs numbered in discovery order:
    states in number order, and symbols in lexicographic order with
    track 0 most significant and False first (the order of SYMBOLS).
    Returns its step table, accepting set and initial state."""
    order = [(left.initial, right.initial)]
    index = {order[0]: 0}
    step = {}
    for state, (p, q) in enumerate(order):
        for symbol in range(len(SYMBOLS)):
            pair = (left_table[(p, symbol)], right_table[(q, symbol)])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            step[(state, symbol)] = index[pair]
    accepting = frozenset(
        state for state, (p, q) in enumerate(order)
        if accept(p in left.accepting, q in right.accepting))
    return step, accepting, 0


class TestAgainstExplicitOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_acceptance_matches(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 5)
        exp = _to_explicit(sym, table, 5, sym.accepting)
        for word in _words(4):
            assert sym.accepts(_sym_word(word)) == exp.accepts(word)

    @pytest.mark.parametrize("seed", range(8))
    def test_product_matches(self, seed):
        rng = random.Random(seed)
        mgr = Mtbdd()
        sym1, t1 = _random_symbolic(rng, 4, mgr)
        sym2, t2 = _random_symbolic(rng, 3, mgr)
        exp1 = _to_explicit(sym1, t1, 4, sym1.accepting)
        exp2 = _to_explicit(sym2, t2, 3, sym2.accepting)
        for name in ("intersect", "union", "difference"):
            sprod = getattr(sym1, name)(sym2)
            eprod = getattr(exp1, name)(exp2)
            for word in _words(3):
                assert sprod.accepts(_sym_word(word)) == \
                    eprod.accepts(word), (name, word)

    @pytest.mark.parametrize("name", sorted(_ACCEPT))
    @pytest.mark.parametrize("seed", range(8))
    def test_product_numbers_pairs_in_discovery_order(self, seed, name):
        """The product is this exact automaton, state numbers
        included, not just one with the same language."""
        rng = random.Random(seed)
        mgr = Mtbdd()
        sym1, t1 = _random_symbolic(rng, 4, mgr)
        sym2, t2 = _random_symbolic(rng, 3, mgr)
        product = getattr(sym1, name)(sym2)
        step = {(state, symbol): product.step(state, SYMBOLS[symbol])
                for state in range(product.num_states)
                for symbol in range(len(SYMBOLS))}
        assert (step, product.accepting, product.initial) == \
            _numbered_product(sym1, t1, sym2, t2, _ACCEPT[name])

    @pytest.mark.parametrize("seed", range(8))
    def test_minimize_preserves_and_shrinks(self, seed):
        rng = random.Random(seed)
        sym, _ = _random_symbolic(rng, 6)
        mini = sym.minimize()
        assert mini.num_states <= sym.num_states
        for word in _words(4):
            assert sym.accepts(_sym_word(word)) == \
                mini.accepts(_sym_word(word))
        assert mini.equivalent(sym)

    @pytest.mark.parametrize("seed", range(8))
    def test_minimize_agrees_with_hopcroft(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 6)
        exp = _to_explicit(sym, table, 6, sym.accepting)
        assert sym.minimize().num_states == exp.minimize().num_states

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_is_existential(self, seed):
        rng = random.Random(seed)
        sym, _ = _random_symbolic(rng, 4)
        projected = sym.project(0).determinize()
        for word in _words(3):
            expected = any(
                sym.accepts([{**SYMBOLS[i], 0: choice}
                             for i, choice in zip(word, choices)])
                for choices in itertools.product([False, True],
                                                 repeat=len(word)))
            assert projected.accepts(_sym_word(word)) == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_shortest_accepted(self, seed):
        rng = random.Random(seed)
        sym, table = _random_symbolic(rng, 5)
        exp = _to_explicit(sym, table, 5, sym.accepting)
        shortest = sym.shortest_accepted()
        oracle = exp.shortest_word()
        if oracle is None:
            assert shortest is None
        else:
            assert shortest is not None
            assert len(shortest) == len(oracle)
            assert sym.accepts(shortest)


class TestStructure:
    def test_complement_is_involution(self):
        rng = random.Random(0)
        sym, _ = _random_symbolic(rng, 4)
        assert sym.complement().complement().accepting == sym.accepting

    def test_universal_and_empty(self):
        mgr = Mtbdd()
        loop = mgr.leaf(0)
        everything = SymbolicDfa(mgr, 1, 0, frozenset([0]), [loop])
        nothing = SymbolicDfa(mgr, 1, 0, frozenset(), [loop])
        assert everything.is_universal()
        assert not everything.is_empty()
        assert nothing.is_empty()
        assert not nothing.is_universal()
        assert everything.includes(nothing)
        assert not nothing.includes(everything)

    def test_trim_drops_unreachable(self):
        mgr = Mtbdd()
        # state 1 unreachable
        delta = [mgr.leaf(0), mgr.leaf(0)]
        dfa = SymbolicDfa(mgr, 2, 0, frozenset([0]), delta)
        trimmed = dfa.trim()
        assert trimmed.num_states == 1

    def test_product_requires_shared_manager(self):
        a, _ = _random_symbolic(random.Random(1), 2)
        b, _ = _random_symbolic(random.Random(2), 2)
        with pytest.raises(ValueError):
            a.intersect(b)

    def test_bdd_node_count_positive(self):
        sym, _ = _random_symbolic(random.Random(3), 4)
        assert sym.bdd_node_count() >= 0
        assert sym.tracks() <= frozenset(range(NUM_TRACKS))

    def test_step(self):
        mgr = Mtbdd()
        d0 = delta_from_function(mgr, [0], lambda a: 1 if a[0] else 0)
        dfa = SymbolicDfa(mgr, 2, 0, frozenset([1]), [d0, mgr.leaf(1)])
        assert dfa.step(0, {0: True}) == 1
        assert dfa.step(0, {0: False}) == 0

    def test_determinize_empty_initial(self):
        mgr = Mtbdd()
        nfa = SymbolicNfa(mgr, 1, frozenset(), frozenset([0]),
                          [mgr.leaf(frozenset())])
        dfa = nfa.determinize()
        assert dfa.is_empty()

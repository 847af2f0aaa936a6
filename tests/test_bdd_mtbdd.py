"""Unit and property tests for the MTBDD package."""

import itertools
import operator
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import Mtbdd


@pytest.fixture
def mgr():
    return Mtbdd()


def _var(mgr, level):
    """The Boolean function x_level, with ``bool`` leaves."""
    return mgr.node(level, mgr.leaf(False), mgr.leaf(True))


def _not(mgr, f):
    return mgr.map_leaves("not", operator.not_, f)


class TestBasics:
    def test_leaf_hash_consing(self, mgr):
        assert mgr.leaf("a") == mgr.leaf("a")
        assert mgr.leaf("a") != mgr.leaf("b")

    def test_leaf_value(self, mgr):
        assert mgr.leaf_value(mgr.leaf(42)) == 42

    def test_leaf_value_rejects_internal(self, mgr):
        node = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        with pytest.raises(ValueError):
            mgr.leaf_value(node)

    def test_redundant_node_collapses(self, mgr):
        leaf = mgr.leaf("x")
        assert mgr.node(0, leaf, leaf) == leaf

    def test_hash_consing_makes_equal_functions_identical(self, mgr):
        # x0 & x1 built directly and through De Morgan is one node.
        x, y = _var(mgr, 0), _var(mgr, 1)
        left = mgr.apply2("and", operator.and_, x, y)
        right = _not(mgr, mgr.apply2("or", operator.or_,
                                     _not(mgr, x), _not(mgr, y)))
        assert left == right

    def test_map_leaves_involution(self, mgr):
        f = mgr.apply2("xor", operator.xor, _var(mgr, 0), _var(mgr, 2))
        assert _not(mgr, _not(mgr, f)) == f
        assert _not(mgr, f) != f

    def test_evaluate(self, mgr):
        f = mgr.node(0, mgr.leaf("lo"), mgr.leaf("hi"))
        assert mgr.evaluate(f, {0: True}) == "hi"
        assert mgr.evaluate(f, {0: False}) == "lo"
        assert mgr.evaluate(f, {}) == "lo"

    def test_is_leaf(self, mgr):
        assert mgr.is_leaf(mgr.leaf(0))
        assert not mgr.is_leaf(mgr.node(1, mgr.leaf(0), mgr.leaf(1)))

    def test_low_high_level(self, mgr):
        lo, hi = mgr.leaf("a"), mgr.leaf("b")
        f = mgr.node(5, lo, hi)
        assert mgr.level(f) == 5
        assert mgr.low(f) == lo
        assert mgr.high(f) == hi


class TestCombinators:
    def test_apply2_pairs(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.node(1, mgr.leaf(10), mgr.leaf(20))
        h = mgr.apply2("pair", lambda a, b: (a, b), f, g)
        assert mgr.evaluate(h, {0: True, 1: False}) == (2, 10)
        assert mgr.evaluate(h, {0: False, 1: True}) == (1, 20)

    def test_apply2_collapses_equal_results(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.node(0, mgr.leaf(2), mgr.leaf(1))
        total = mgr.apply2("sum", lambda a, b: a + b, f, g)
        assert mgr.is_leaf(total)
        assert mgr.leaf_value(total) == 3

    def test_map_leaves(self, mgr):
        f = mgr.node(0, mgr.leaf(1), mgr.leaf(2))
        g = mgr.map_leaves("double", lambda v: v * 2, f)
        assert mgr.evaluate(g, {0: True}) == 4

    def test_restrict(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("c"))
        r = mgr.restrict(f, {0: False})
        assert mgr.evaluate(r, {1: True}) == "b"
        assert mgr.restrict(f, {}) == f

    def test_apply2_identity_and_absorbing_leaves(self, mgr):
        x = _var(mgr, 0)
        true, false = mgr.leaf(True), mgr.leaf(False)
        assert mgr.apply2("and", operator.and_, x, true) == x
        assert mgr.apply2("and", operator.and_, x, false) == false
        assert mgr.apply2("or", operator.or_, x, false) == x
        assert mgr.apply2("or", operator.or_, x, true) == true
        assert mgr.apply2("xor", operator.xor, x, x) == false

    def test_restrict_every_level_reaches_the_leaf(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("c"))
        for bits in itertools.product([False, True], repeat=2):
            env = dict(enumerate(bits))
            restricted = mgr.restrict(f, env)
            assert mgr.is_leaf(restricted)
            assert mgr.leaf_value(restricted) == mgr.evaluate(f, env)

    def test_leaves(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("a"))
        assert mgr.leaves(f) == frozenset({"a", "b"})

    def test_support(self, mgr):
        f = mgr.node(0, mgr.node(2, mgr.leaf(1), mgr.leaf(2)), mgr.leaf(3))
        assert mgr.support(f) == frozenset({0, 2})
        assert mgr.support(mgr.leaf(9)) == frozenset()

    def test_node_count(self, mgr):
        inner = mgr.node(1, mgr.leaf(1), mgr.leaf(2))
        f = mgr.node(0, inner, mgr.leaf(3))
        assert mgr.node_count(f) == 2
        assert mgr.node_count(mgr.leaf(1)) == 0

    def test_paths_cover_every_assignment(self, mgr):
        f = mgr.node(0, mgr.node(1, mgr.leaf("a"), mgr.leaf("b")),
                     mgr.leaf("c"))
        paths = list(mgr.paths(f))
        assert len(paths) == 3
        for assignment, value in paths:
            assert mgr.evaluate(f, assignment) == value

    def test_find_leaf(self, mgr):
        f = mgr.node(0, mgr.leaf("a"), mgr.leaf("b"))
        hit = mgr.find_leaf(f, lambda v: v == "b")
        assert hit == {0: True}
        assert mgr.find_leaf(f, lambda v: v == "z") is None


# ----------------------------------------------------------------------
# Property-based: MTBDDs as functions
# ----------------------------------------------------------------------

NUM_TRACKS = 3


def _tables():
    """A random function {0,1}^3 -> small int, as a lookup table."""
    return st.lists(st.integers(min_value=0, max_value=4),
                    min_size=2 ** NUM_TRACKS, max_size=2 ** NUM_TRACKS)


def _index(bits):
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value


def _from_table(mgr, table):
    from repro.automata.symbolic import delta_from_function
    return delta_from_function(
        mgr, range(NUM_TRACKS),
        lambda a: table[_index([a[t] for t in range(NUM_TRACKS)])])


@settings(max_examples=100, deadline=None)
@given(_tables())
def test_table_roundtrip(table):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    for bits in itertools.product([False, True], repeat=NUM_TRACKS):
        env = dict(enumerate(bits))
        assert mgr.evaluate(f, env) == table[_index(bits)]


@settings(max_examples=80, deadline=None)
@given(_tables(), _tables())
def test_apply2_pointwise(left, right):
    mgr = Mtbdd()
    f = _from_table(mgr, left)
    g = _from_table(mgr, right)
    h = mgr.apply2("add", lambda a, b: a + b, f, g)
    for bits in itertools.product([False, True], repeat=NUM_TRACKS):
        env = dict(enumerate(bits))
        index = _index(bits)
        assert mgr.evaluate(h, env) == left[index] + right[index]


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_leaves_is_range(table):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    assert mgr.leaves(f) == frozenset(table)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_canonical_form(table):
    """Two constructions of the same function yield the same node."""
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    g = _from_table(mgr, list(table))
    assert f == g


@settings(max_examples=80, deadline=None)
@given(_tables(), _tables())
def test_apply2_commutative_op_is_canonical(left, right):
    """The memo keys (f, g) and (g, f) differ; hash-consing still
    makes a commutative combination one node."""
    mgr = Mtbdd()
    f = _from_table(mgr, left)
    g = _from_table(mgr, right)
    assert mgr.apply2("add", operator.add, f, g) == \
        mgr.apply2("add", operator.add, g, f)


def _assignments():
    for bits in itertools.product([False, True], repeat=NUM_TRACKS):
        yield bits, dict(enumerate(bits))


@settings(max_examples=80, deadline=None)
@given(_tables(), st.integers(min_value=0, max_value=NUM_TRACKS - 1),
       st.booleans())
def test_restrict_is_the_cofactor(table, level, value):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    cofactor = mgr.restrict(f, {level: value})
    assert level not in mgr.support(cofactor)
    for _, env in _assignments():
        assert mgr.evaluate(cofactor, env) == \
            mgr.evaluate(f, {**env, level: value})


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_support_is_exactly_the_essential_levels(table):
    """A level is in the support iff flipping it changes the value on
    some assignment (reducedness leaves no redundant test)."""
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    essential = set()
    for bits, _ in _assignments():
        for level in range(NUM_TRACKS):
            flipped = list(bits)
            flipped[level] = not flipped[level]
            if table[_index(bits)] != table[_index(flipped)]:
                essential.add(level)
    assert mgr.support(f) == frozenset(essential)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_paths_partition_the_assignments(table):
    """Every full assignment extends exactly one path, so the paths
    weighted by their don't-cares count each leaf's preimage."""
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    counts: Counter = Counter()
    for assignment, value in mgr.paths(f):
        counts[value] += 2 ** (NUM_TRACKS - len(assignment))
    assert counts == Counter(table)


@settings(max_examples=80, deadline=None)
@given(_tables(), st.integers(min_value=0, max_value=4))
def test_find_leaf_returns_a_witness(table, wanted):
    mgr = Mtbdd()
    f = _from_table(mgr, table)
    witness = mgr.find_leaf(f, lambda value: value == wanted)
    if wanted not in table:
        assert witness is None
        return
    assert witness is not None
    # Levels the path leaves out are don't-cares: every extension of
    # the witness reaches the wanted leaf.
    for _, env in _assignments():
        assert mgr.evaluate(f, {**env, **witness}) == wanted


# ----------------------------------------------------------------------
# Property-based: Boolean expressions against truth tables
# ----------------------------------------------------------------------

_BINARY = {"and": operator.and_, "or": operator.or_,
           "xor": operator.xor,
           "implies": lambda a, b: (not a) or b}


def _exprs():
    leaf = st.integers(min_value=0, max_value=NUM_TRACKS - 1).map(
        lambda level: ("var", level))
    return st.recursive(
        leaf | st.sampled_from([("const", True), ("const", False)]),
        lambda children: st.tuples(
            st.sampled_from(sorted(_BINARY) + ["not"]),
            children, children),
        max_leaves=12)


def _build(mgr, expr):
    if expr[0] == "var":
        return _var(mgr, expr[1])
    if expr[0] == "const":
        return mgr.leaf(expr[1])
    op, left, right = expr
    if op == "not":
        return _not(mgr, _build(mgr, left))
    return mgr.apply2(op, _BINARY[op], _build(mgr, left),
                      _build(mgr, right))


def _truth(expr, env):
    if expr[0] == "var":
        return env[expr[1]]
    if expr[0] == "const":
        return expr[1]
    op, left, right = expr
    if op == "not":
        return not _truth(left, env)
    return bool(_BINARY[op](_truth(left, env), _truth(right, env)))


@settings(max_examples=150, deadline=None)
@given(_exprs())
def test_boolean_expressions_match_truth_table(expr):
    """Several operators share one manager and its memo tables; each
    must stay keyed apart from the others."""
    mgr = Mtbdd()
    f = _build(mgr, expr)
    for _, env in _assignments():
        assert mgr.evaluate(f, env) == _truth(expr, env)

"""Regression bounds on verification statistics.

The §6-style statistics (largest automaton, BDD nodes, subgoal count)
are deterministic for a fixed implementation; these tests pin them
inside generous brackets so an accidental regression in minimisation,
formula sharing, or the restriction technique shows up as a test
failure rather than a silent 100x slowdown.  For two programs they
also pin every count exactly, so a change to the automaton kernel
must state which work it moved.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.programs import REVERSE, SEARCH, TRIPLE
from repro.verify import verify_source

pytestmark = pytest.mark.slow

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: name -> (source, max states bracket, max nodes bracket, subgoals)
BRACKETS = {
    "reverse": (REVERSE, (50, 1_000), (100, 5_000), 3),
    "search": (SEARCH, (50, 1_000), (100, 5_000), 3),
    "triple": (TRIPLE, (100, 3_000), (500, 15_000), 1),
}


@pytest.mark.parametrize("name", sorted(BRACKETS))
def test_statistics_within_brackets(name):
    source, states_bracket, nodes_bracket, subgoals = BRACKETS[name]
    result = verify_source(source, simulate=False)
    assert result.valid
    assert len(result.results) == subgoals
    low, high = states_bracket
    assert low <= result.max_states <= high, (
        f"{name}: {result.max_states} states left the expected "
        f"bracket {states_bracket} — did minimisation or the "
        f"first-order restriction regress?")
    low, high = nodes_bracket
    assert low <= result.max_nodes <= high, (
        f"{name}: {result.max_nodes} BDD nodes left the expected "
        f"bracket {nodes_bracket}")


def test_statistics_are_deterministic():
    """Two runs of the same verification produce identical counts
    (the whole pipeline is deterministic, BFS tie-breaks included)."""
    first = verify_source(REVERSE, simulate=False)
    second = verify_source(REVERSE, simulate=False)
    assert first.max_states == second.max_states
    assert first.max_nodes == second.max_nodes
    assert first.formula_size == second.formula_size


def _subgoal_stats(name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    run = subprocess.run(
        [sys.executable, "-m", "repro", "verify", name, "--json"],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode in (0, 1), run.stderr
    return [subgoal["stats"]
            for subgoal in json.loads(run.stdout)["subgoals"]]


@pytest.mark.parametrize("name", ["reverse", "search", "fumble"])
def test_statistics_independent_of_hash_seed(name):
    """Every exact count (BDD nodes, memo misses, automaton sizes) is
    the same in processes with different string-hash seeds, so two
    runs of the same code can be compared count for count."""
    assert _subgoal_stats(name, "0") == _subgoal_stats(name, "3")


#: The ``stats`` fields of a subgoal, in report order.
_FIELDS = ("max_states", "max_nodes", "products", "projections",
           "minimizations", "compiled_nodes", "formula_memo_hits",
           "bdd_apply_hits", "bdd_apply_misses", "bdd_map_hits",
           "bdd_map_misses", "bdd_restrict_hits", "bdd_restrict_misses",
           "unique_table_size", "peak_nodes")

#: name -> the exact ``stats`` of each subgoal of ``verify NAME``
#: (loop entry, invariant preservation, postcondition), in _FIELDS
#: order.
EXACT_STATS = {
    "reverse": [
        (40, 273, 218, 50, 404, 403, 14, 7167, 10490, 19404, 28455,
         378, 928, 7039, 7208),
        (157, 424, 348, 65, 628, 627, 58, 19402, 27670, 53501, 72270,
         1651, 2892, 22372, 23195),
        (40, 273, 221, 51, 409, 408, 14, 7271, 10625, 19691, 28829,
         380, 938, 7125, 7294),
    ],
    "fumble": [
        (40, 273, 218, 50, 404, 403, 14, 7167, 10490, 19404, 28455,
         378, 928, 7039, 7208),
        (53, 273, 348, 65, 627, 626, 59, 14853, 21332, 40302, 56517,
         1293, 2400, 16067, 16472),
        (40, 273, 221, 51, 409, 408, 14, 7271, 10625, 19691, 28829,
         380, 938, 7125, 7294),
    ],
}


@pytest.mark.parametrize("name", sorted(EXACT_STATS))
def test_exact_statistics(name):
    """Every count of every subgoal equals its pinned value, so a
    change to the automaton kernel shows exactly which work it
    moved."""
    expected = [dict(zip(_FIELDS, row)) for row in EXACT_STATS[name]]
    assert _subgoal_stats(name, "0") == expected, (
        f"{name}: the exact work counts moved.  A kernel step that "
        f"changes them on purpose (ROADMAP.md, 'Rebuild the automaton "
        f"kernel step by measured step') updates EXACT_STATS and "
        f"records the old and new counts in CHANGES.md.")


def test_formula_sharing_keeps_sizes_linear():
    """The transduction shares subformulas: reverse's whole
    verification formula stays in the low thousands of nodes."""
    result = verify_source(REVERSE, simulate=False)
    assert result.formula_size < 5_000

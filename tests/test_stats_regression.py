"""Regression bounds on verification statistics.

The §6-style statistics (largest automaton, BDD nodes, subgoal count)
are deterministic for a fixed implementation; these tests pin them
inside generous brackets so an accidental regression in minimisation,
formula sharing, or the restriction technique shows up as a test
failure rather than a silent 100x slowdown.
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


def test_formula_sharing_keeps_sizes_linear():
    """The transduction shares subformulas: reverse's whole
    verification formula stays in the low thousands of nodes."""
    result = verify_source(REVERSE, simulate=False)
    assert result.formula_size < 5_000

"""Randomized soundness checks for the verdict-preserving passes.

Generates small random pointer programs (seeded, so runs are
deterministic) and asserts the engine decides each one identically
with statement slicing on vs off.  Counterexample *presence* must
agree too; slicing may legally change which same-length witness the
BFS reports first, so the witness itself is not compared.

The relevance pass keeps tracks and slices statements in one walk;
that rests on the tracks of a slice being exactly the cone of
influence of the sliced statements, which is checked here over the
generator and the corpus.
"""

import random

import pytest

from repro.analysis.coi import cone_of_influence
from repro.analysis.slice import slice_statements
from repro.pascal import check_program, parse_program
from repro.pascal.typed import TDispose, TIf
from repro.programs import ALL_PROGRAMS
from repro.verify.engine import Verifier

HEADER = """\
program fuzz;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{data} var x: List;
{pointer} var p, q: List;
begin
"""

#: Straight-line statements over the header's variables: pure copies
#: (sliceable), dereferences and heap writes (failable), allocation.
_STATEMENTS = [
    "p := nil",
    "q := nil",
    "p := x",
    "q := x",
    "p := q",
    "q := p",
    "p := x^.next",
    "q := p^.next",
    "p^.next := nil",
    "p^.next := q",
    "new(p, red)",
    "new(q, blue)",
]

_GUARDS = ["p = nil", "p <> nil", "p = q", "x <> nil"]

_POSTCONDITIONS = [
    None,
    "{p = nil}",
    "{p <> nil}",
    "{x = x}",
    "{x<next*>p}",
    "{x<next*>q & q <> nil}",
]


def generate(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randrange(2, 7)):
        roll = rng.random()
        if roll < 0.2:
            guard = rng.choice(_GUARDS)
            then = rng.choice(_STATEMENTS)
            other = rng.choice(_STATEMENTS)
            lines.append(f"  if {guard} then {then} else {other};")
        elif roll < 0.3:
            lines.append("  while p <> nil do p := p^.next;")
        else:
            lines.append(f"  {rng.choice(_STATEMENTS)};")
    lines[-1] = lines[-1].rstrip(";")
    postcondition = rng.choice(_POSTCONDITIONS)
    if postcondition is not None:
        lines.append(f"  {postcondition}")
    return HEADER + "\n".join(lines) + "\nend.\n"


def verdict(program, **kwargs):
    result = Verifier(program, **kwargs).verify()
    return (result.valid, result.outcome,
            [(subgoal.outcome, subgoal.counterexample is not None)
             for subgoal in result.results])


@pytest.mark.parametrize("seed", range(8))
def test_slicing_preserves_verdicts(seed):
    rng = random.Random(1997 + seed)
    source = generate(rng)
    program = check_program(parse_program(source))
    assert verdict(program) == verdict(program, slice=False), source


@pytest.mark.parametrize("seed", range(8, 12))
def test_cache_replay_preserves_verdicts(seed, tmp_path):
    rng = random.Random(1997 + seed)
    source = generate(rng)
    program = check_program(parse_program(source))
    cold = verdict(program, cache_dir=str(tmp_path))
    warm_result = Verifier(program, cache_dir=str(tmp_path)).verify()
    warm = (warm_result.valid, warm_result.outcome,
            [(subgoal.outcome, subgoal.counterexample is not None)
             for subgoal in warm_result.results])
    assert warm == cold, source
    assert warm_result.cache_hits == len(warm_result.results), source


def _disposes(statements) -> bool:
    return any(isinstance(statement, TDispose)
               or (isinstance(statement, TIf)
                   and (_disposes(statement.then_body)
                        or _disposes(statement.else_body)))
               for statement in statements)


def assert_tracks_are_cone_of_slice(program, label) -> int:
    """For every subgoal: the slice's tracks equal the cone of
    influence over the sliced statements plus the assume variables,
    or every variable when the body disposes.  Returns the number of
    subgoals checked."""
    schema = program.schema
    subgoals = Verifier(program).collect_subgoals()
    for subgoal in subgoals:
        assume = frozenset().union(*(item.vars for item in subgoal.assume))
        check = frozenset().union(*(item.vars for item in subgoal.check))
        sliced = slice_statements(subgoal.statements, check, schema,
                                  assume)
        if _disposes(subgoal.statements):
            expected = frozenset(schema.all_vars())
        else:
            expected = cone_of_influence(sliced.statements, check,
                                         schema, assume_seeds=assume)
        assert sliced.tracks == expected, (label, subgoal.description)
    return len(subgoals)


def test_slice_tracks_equal_cone_over_generated_programs():
    checked = 0
    for seed in range(2000):
        source = generate(random.Random(1997 + seed))
        program = check_program(parse_program(source))
        checked += assert_tracks_are_cone_of_slice(program, source)
    assert checked > 2000


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
def test_slice_tracks_equal_cone_over_corpus(name):
    program = check_program(parse_program(ALL_PROGRAMS[name]))
    assert assert_tracks_are_cone_of_slice(program, name) > 0

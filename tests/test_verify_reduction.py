"""Reduction soundness: verification results must be identical with
and without the cone-of-influence track reduction, and the reduced
run must never build bigger automata."""

import pytest

from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify.engine import Verifier


@pytest.fixture(scope="module")
def results():
    """name -> (reduced result, unreduced result)."""
    out = {}
    for name, source in ALL_PROGRAMS.items():
        program = check_program(parse_program(source))
        reduced = Verifier(program).verify()
        unreduced = Verifier(program, reduce=False).verify()
        out[name] = (reduced, unreduced)
    return out


@pytest.mark.parametrize("name", sorted(ALL_PROGRAMS))
class TestEquivalence:
    def test_same_verdicts(self, results, name):
        reduced, unreduced = results[name]
        assert reduced.valid == unreduced.valid
        assert [s.valid for s in reduced.results] == \
            [s.valid for s in unreduced.results]

    def test_same_counterexamples(self, results, name):
        reduced, unreduced = results[name]
        for with_coi, without in zip(reduced.results,
                                     unreduced.results):
            assert (with_coi.counterexample is None) == \
                (without.counterexample is None)
            if with_coi.counterexample is not None:
                assert with_coi.counterexample.explanation == \
                    without.counterexample.explanation

    def test_reduction_never_grows_automata(self, results, name):
        reduced, unreduced = results[name]
        assert reduced.max_nodes <= unreduced.max_nodes
        assert reduced.max_states <= unreduced.max_states

    def test_track_accounting(self, results, name):
        reduced, unreduced = results[name]
        for subgoal in reduced.results:
            assert subgoal.tracks_before >= subgoal.tracks_after > 0
        for subgoal in unreduced.results:
            assert subgoal.tracks_before == subgoal.tracks_after > 0


def test_reverse_actually_drops_tracks(results):
    reduced, _ = results["reverse"]
    assert reduced.tracks_after < reduced.tracks_before


ASSUME_KILLED = """\
program assumekilled;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;

{data} var x: List;
{pointer} var p, q: List;
begin
  {p <> nil}
  p := nil
  {q = nil}
end.
"""


def test_assume_vars_survive_kills():
    """An assignment must not drop the track of a variable an assume
    formula reads from the initial store: pinning p to nil would make
    the assumption {p <> nil} unsatisfiable and the subgoal vacuously
    valid (regression: reduction reported VERIFIED, --no-reduce
    FAILED)."""
    program = check_program(parse_program(ASSUME_KILLED))
    reduced = Verifier(program).verify()
    unreduced = Verifier(program, reduce=False).verify()
    assert not unreduced.valid
    assert not reduced.valid
    assert reduced.counterexample is not None
    assert reduced.counterexample.explanation == \
        unreduced.counterexample.explanation

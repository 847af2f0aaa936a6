"""Tests for statement-level backward slicing of subgoals."""

from repro.analysis import (cone_of_influence, dropped_statements,
                            slice_statements, statement_count)
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify.engine import Verifier

HEADER = """\
program t;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{data} var x: List;
{pointer} var p, q: List;
begin
"""


def typed(body: str):
    return check_program(parse_program(HEADER + body + "\nend.\n"))


def run_slice(body: str, seeds=()):
    program = typed(body)
    return program, slice_statements(program.body, seeds,
                                     program.schema)


class TestSliceStatements:
    def test_dead_pure_copies_dropped(self):
        # Neither value reaches a check; both copies are step-free.
        _, result = run_slice("  p := nil;\n  q := x")
        assert (result.before, result.after) == (2, 0)
        assert result.statements == ()
        assert result.dropped == 2

    def test_check_seed_keeps_its_chain(self):
        _, result = run_slice("  p := nil;\n  q := x", seeds=["q"])
        assert result.after == 1
        assert "q := x" in str(result.statements[0])

    def test_data_variables_always_live(self):
        # x is a data variable: an assignment into it is never dead.
        _, result = run_slice("  x := q")
        assert result.after == 1

    def test_dereference_never_dropped(self):
        # q := p^.next can fail, and ~error observes the failure.
        _, result = run_slice("  p := x;\n  q := p^.next")
        assert result.after == 2

    def test_heap_write_never_dropped(self):
        _, result = run_slice("  p := x;\n  p^.next := nil")
        assert result.after == 2

    def test_new_never_dropped_but_later_copy_is(self):
        _, result = run_slice("  new(p, red);\n  q := p")
        assert result.after == 1
        assert "new" in str(result.statements[0])

    def test_dispose_disables_slicing_entirely(self):
        # dispose makes every final value observable (dangling
        # pointers fail wf_graph), so the slice is the identity.
        _, result = run_slice("  q := x;\n  p := x;\n"
                              "  dispose(p, red)")
        assert (result.before, result.after) == (3, 3)

    def test_dispose_keeps_every_track(self):
        _, result = run_slice("  q := x;\n  p := x;\n"
                              "  dispose(p, red)")
        assert result.tracks == frozenset({"x", "p", "q"})

    def test_tracks_are_the_live_in_set(self):
        # The check reads q, which the statement overwrites; the
        # dereference reads p; the data variable x is always kept.
        _, result = run_slice("  q := p^.next", seeds=["q"])
        assert result.tracks == frozenset({"x", "p"})

    def test_assume_seeds_keep_tracks_not_statements(self):
        # An assume obligation reads p from the initial store: p keeps
        # its track, yet the dead copy into p is still dropped.
        program = typed("  p := nil;\n  q := x")
        result = slice_statements(program.body, (), program.schema,
                                  assume_seeds={"p"})
        assert result.statements == ()
        assert result.tracks == frozenset({"x", "p"})

    def test_dropped_conditional_releases_its_guard_tracks(self):
        # With the conditional sliced away nothing reads p; the cone of
        # the unsliced body (the --no-slice path) still keeps the
        # guard's variables.
        program, result = run_slice(
            "  if p = x then q := x else q := nil")
        assert result.statements == ()
        assert result.tracks == frozenset({"x"})
        assert cone_of_influence(program.body, (), program.schema) == \
            frozenset({"x", "p"})

    def test_conditional_dropped_whole(self):
        # Both branches slice empty and the guard cannot fail.
        _, result = run_slice("  if p = x then q := x else q := nil")
        assert (result.before, result.after) == (3, 0)

    def test_failing_guard_keeps_conditional(self):
        # A variant test dereferences, so the guard itself can error:
        # the conditional survives with empty branches.
        _, result = run_slice("  p := x;\n"
                              "  if p^.tag = red then q := x"
                              " else q := nil")
        assert result.after == 2  # p := x (guard var) + empty if

    def test_dereferencing_guard_keeps_conditional(self):
        _, result = run_slice("  p := x;\n"
                              "  if p^.next = nil then q := x"
                              " else q := nil")
        assert result.after == 2

    def test_branch_local_liveness(self):
        # q is live out of the conditional; both assignments stay.
        _, result = run_slice("  if p = x then q := x else q := nil",
                              seeds=["q"])
        assert result.after == 3


class TestDroppedStatements:
    def test_leaf_diff_in_source_order(self):
        # p := nil stays (it feeds the dereference); the final copy
        # into p is dead.
        program, result = run_slice("  p := nil;\n  q := p^.next;\n"
                                    "  p := x")
        dropped = dropped_statements(program.body, result.statements)
        assert [statement.line for statement in dropped] == [11]
        assert result.after == 2

    def test_conditional_branches_diffed(self):
        program, result = run_slice(
            "  p := x;\n"
            "  if p^.tag = red then q := x else q := nil")
        dropped = dropped_statements(program.body, result.statements)
        assert [statement.line for statement in dropped] == [10, 10]

    def test_nothing_dropped_is_empty(self):
        program, result = run_slice("  q := p^.next", seeds=["q"])
        assert dropped_statements(program.body,
                                  result.statements) == []


class TestStatementCount:
    def test_counts_recursively(self):
        program = typed("  p := x;\n"
                        "  if p = x then q := x else q := nil")
        assert statement_count(program.body) == 4


class TestVerifierSlicing:
    """The bundled scan program is the slicing showcase: its scratch
    variable t feeds no obligation."""

    def test_scan_subgoals_slice(self):
        program = check_program(parse_program(ALL_PROGRAMS["scan"]))
        result = Verifier(program).verify()
        assert result.outcome.value == "VERIFIED"
        assert result.statements_after < result.statements_before
        for subgoal_result in result.results:
            assert subgoal_result.statements_after <= \
                subgoal_result.statements_before

    def test_scan_verdict_identical_without_slicing(self):
        program = check_program(parse_program(ALL_PROGRAMS["scan"]))
        baseline = Verifier(program, slice=False).verify()
        sliced = Verifier(program).verify()
        assert baseline.outcome is sliced.outcome
        assert baseline.valid is sliced.valid
        assert baseline.statements_before == baseline.statements_after

    def test_corpus_slicing_never_grows(self):
        for name, source in ALL_PROGRAMS.items():
            program = check_program(parse_program(source))
            verifier = Verifier(program)
            for subgoal in verifier.collect_subgoals():
                plan = verifier._plan_subgoal(subgoal, verifier.reduce,
                                              True)
                assert plan.sliced.after <= plan.sliced.before, name

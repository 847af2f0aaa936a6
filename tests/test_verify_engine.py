"""Tests for the verification engine: subgoal splitting, triple
decision, counterexamples, and small end-to-end programs.

The heavyweight paper-program integration lives in
``test_programs.py``; here we use minimal programs so each case stays
fast.
"""

import pytest

from repro.errors import VerificationError
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.pascal import check_program, parse_program
from repro.verify import Verifier, verify_source
from repro.verify.report import format_result, format_table
from repro.stores.render import render_symbols

from util import wrap_program


def verify_body(body, pre="", post="", **kwargs):
    return verify_source(wrap_program(body, pre=pre, post=post), **kwargs)


class TestSubgoalSplitting:
    def build(self, body, pre="", post=""):
        program = check_program(parse_program(
            wrap_program(body, pre=pre, post=post)))
        return Verifier(program).collect_subgoals()

    def test_loop_free_single_subgoal(self):
        subgoals = self.build("  x := nil", pre="true", post="x = nil")
        assert len(subgoals) == 1
        assert subgoals[0].description == "postcondition"

    def test_loop_produces_three_subgoals(self):
        subgoals = self.build(
            "  while x <> nil do x := x^.next", post="x = nil")
        descriptions = [s.description for s in subgoals]
        assert len(subgoals) == 3
        assert "loop entry" in descriptions[0]
        assert "invariant preservation" in descriptions[1]
        assert descriptions[2] == "postcondition"

    def test_two_sequential_loops(self):
        subgoals = self.build(
            "  while x <> nil do x := x^.next;\n"
            "  while y <> nil do y := y^.next")
        assert len(subgoals) == 5

    def test_nested_loops(self):
        subgoals = self.build(
            "  while x <> nil do begin\n"
            "    while p <> nil do p := p^.next;\n"
            "    x := x^.next\n"
            "  end")
        # outer entry, inner entry, inner preservation, outer
        # preservation tail, postcondition
        assert len(subgoals) == 5

    def test_cut_point_assertion_splits(self):
        subgoals = self.build(
            "  x := nil\n  {x = nil}\n  y := nil", post="y = nil")
        assert len(subgoals) == 2
        assert "assertion" in subgoals[0].description

    def test_loop_inside_if_rejected(self):
        with pytest.raises(VerificationError):
            self.build(
                "  if x = nil then begin\n"
                "    while p <> nil do p := p^.next\n"
                "  end")

    def test_loop_inside_if_rejection_carries_position(self):
        with pytest.raises(VerificationError) as excinfo:
            self.build(
                "  if x = nil then begin\n"
                "    while p <> nil do p := p^.next\n"
                "  end")
        assert excinfo.value.line > 0
        assert str(excinfo.value).startswith(
            f"{excinfo.value.line}:")


class TestLoopFreeTriples:
    def test_trivial_skip_verifies(self):
        assert verify_body("  x := x").valid

    def test_assign_postcondition(self):
        assert verify_body("  p := x", post="p = x").valid

    def test_wrong_postcondition_fails(self):
        result = verify_body("  p := x", post="p <> x")
        assert not result.valid
        assert result.counterexample is not None

    def test_nil_dereference_detected(self):
        result = verify_body("  p := x^.next")
        assert not result.valid
        ce = result.counterexample
        # shortest failing store: x empty
        assert render_symbols(ce.symbols) == \
            "[nil,{p,q,x,y}] [lim,{}] [lim,{}]"
        assert "nil" in ce.explanation

    def test_precondition_excludes_error(self):
        assert verify_body("  p := x^.next", pre="x <> nil").valid

    def test_memory_leak_detected(self):
        result = verify_body("  x := nil", pre="x <> nil")
        assert not result.valid
        assert "well-formed" in result.counterexample.explanation

    def test_dangling_variable_detected(self):
        result = verify_body(
            "  p := x;\n  x := x^.next;\n  dispose(p, red)",
            pre="x <> nil & <(List:red)?>x")
        assert not result.valid  # p dangles at the end

    def test_dispose_repaired_by_clearing(self):
        # q must be cleared too: it could alias the disposed cell.
        assert verify_body(
            "  p := x;\n  x := x^.next;\n  dispose(p, red);\n"
            "  p := nil;\n  q := nil",
            pre="x <> nil & <(List:red)?>x").valid

    def test_allocation_assumed_to_succeed(self):
        """new() with no memory precondition verifies: alloc(S) is
        assumed.  The fresh cell must be linked into a list, or the
        final store would leak it."""
        assert verify_body(
            "  new(p, red);\n  p^.next := x;\n  x := p\n",
            post="p <> nil & x = p").valid

    def test_variant_mismatch_on_dispose(self):
        result = verify_body("  dispose(x, red);\n  x := nil",
                             pre="x <> nil")
        assert not result.valid  # x might be blue

    def test_variant_match_with_test(self):
        assert verify_body(
            "  if x <> nil then begin\n"
            "    if x^.tag = red then begin\n"
            "      p := x^.next; dispose(x, red); x := p;\n"
            "      p := nil; q := nil\n"
            "    end\n"
            "  end",
            pre="q = nil").valid

    def test_guard_error_detected(self):
        result = verify_body("  if p^.tag = red then p := nil")
        assert not result.valid

    def test_conditional_merging(self):
        assert verify_body(
            "  if x = nil then p := nil else p := x",
            post="p = x | (x = nil & p = nil)").valid


class TestLoops:
    def test_walk_to_end(self):
        """A pointer variable (not the data variable, which would leak
        its list) walks to nil."""
        assert verify_body(
            "  p := x;\n  while p <> nil do p := p^.next",
            post="p = nil").valid

    def test_invariant_used(self):
        assert verify_body(
            "  q := nil;\n  p := x;\n"
            "  while p <> nil do {q = nil} p := p^.next",
            post="p = nil & q = nil").valid

    def test_invariant_too_weak(self):
        result = verify_body(
            "  p := x;\n"
            "  while p <> nil do p := p^.next",
            post="q = x")
        assert not result.valid
        failing = [r for r in result.results if not r.valid]
        assert failing
        assert "postcondition" in failing[0].description

    def test_invariant_not_established(self):
        result = verify_body(
            "  while x <> nil do {x = nil} x := x^.next")
        assert not result.valid
        assert "loop entry" in [
            r.description for r in result.results if not r.valid][0]

    def test_invariant_not_preserved(self):
        result = verify_body(
            "  while x <> nil do {x<next*>p | p = nil} begin\n"
            "    p := x; x := x^.next\n"
            "  end",
            pre="p = nil")
        assert not result.valid

    def test_every_subgoal_decided_after_a_failure(self):
        result = verify_body(
            "  while x <> nil do {x = nil} x := x^.next")
        assert [r.valid for r in result.results] == [False, True, True]
        assert all(r.outcome.decided for r in result.results)


class TestResultApi:
    def test_aggregates(self):
        result = verify_body("  p := x", post="p = x")
        assert result.valid
        assert result.seconds > 0
        assert result.formula_size > 0
        assert result.max_states > 0
        assert result.max_nodes > 0
        assert result.counterexample is None

    def test_track_metrics_in_dict(self):
        result = verify_body("  p := x", post="p = x")
        report = result.to_dict()
        assert report["tracks_before"] >= report["tracks_after"] > 0
        for subgoal in report["subgoals"]:
            assert subgoal["tracks_before"] >= \
                subgoal["tracks_after"] > 0

    def test_track_gauges_agree_with_report(self):
        # The gauges must show the max over subgoals, like the JSON
        # report — not whichever subgoal was decided last.
        registry = MetricsRegistry()
        with activate_metrics(registry):
            result = verify_body(
                "  while x <> nil do {true} x := x^.next;\n"
                "  p := y", post="p = y")
        assert len(result.results) > 1
        assert registry.gauge("verify.tracks_before").value == \
            result.tracks_before
        assert registry.gauge("verify.tracks_after").value == \
            result.tracks_after

    def test_format_result_verified(self):
        result = verify_body("  p := x", post="p = x")
        text = format_result(result)
        assert "VERIFIED" in text

    def test_format_result_failed_shows_counterexample(self):
        result = verify_body("  p := x^.next")
        text = format_result(result)
        assert "FAILED" in text
        assert "counterexample" in text
        assert "[nil," in text

    def test_format_table(self):
        results = [verify_body("  p := x", post="p = x")]
        results[0].program = "tiny"
        table = format_table(results)
        assert "Program" in table
        assert "tiny" in table

    def test_verbose_lists_obligations(self):
        result = verify_body("  p := x", post="p = x")
        assert "check:" in format_result(result, verbose=True)


class TestCounterexamples:
    def test_counterexample_store_satisfies_assumptions(self):
        result = verify_body("  p := x^.next")
        ce = result.counterexample
        assert ce.store.is_well_formed()

    def test_counterexample_simulation_disabled(self):
        result = verify_body("  p := x^.next", simulate=False)
        assert result.counterexample.trace is None

    def test_counterexample_render_sections(self):
        result = verify_body("  p := x^.next")
        text = result.counterexample.render()
        for section in ("subgoal:", "string:", "initial store:",
                        "explanation:"):
            assert section in text

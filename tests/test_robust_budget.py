"""Tests for resource budgets (repro.robust.budget) and their
integration with the verification engine: cooperative cancellation,
structured TIMEOUT/BUDGET_EXCEEDED outcomes, the degradation ladder,
and verdict preservation under generous limits."""

import pytest

from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.robust.budget import (Budget, BudgetExceeded, NULL_BUDGET,
                                 activate, check_nodes, check_states,
                                 current_budget, tick)
from repro.verify import Outcome, verify_source

from util import wrap_program


def verify_body(body, pre="", post="", **kwargs):
    return verify_source(wrap_program(body, pre=pre, post=post), **kwargs)


class TestBudgetUnit:
    def test_null_budget_is_default_and_inactive(self):
        assert current_budget() is NULL_BUDGET
        assert NULL_BUDGET.active is False
        # All checks are no-ops on the null budget.
        tick("anywhere")
        check_nodes("anywhere", 10**12)
        check_states("anywhere", 10**12)

    def test_activate_restores_previous(self):
        budget = Budget(max_steps=100)
        with activate(budget):
            assert current_budget() is budget
        assert current_budget() is NULL_BUDGET

    def test_max_steps_trips_with_site(self):
        budget = Budget(max_steps=5)
        with activate(budget):
            with pytest.raises(BudgetExceeded) as info:
                for _ in range(10):
                    tick("test.site")
        assert info.value.limit == "steps"
        assert info.value.site == "test.site"
        assert budget.tripped is info.value

    def test_deadline_trips_on_check_time(self):
        budget = Budget(timeout=0.0)
        with pytest.raises(BudgetExceeded) as info:
            budget.check_time("phase.boundary")
        assert info.value.limit == "deadline"

    def test_node_and_state_caps(self):
        budget = Budget(max_bdd_nodes=10, max_states=20)
        budget.check_nodes("bdd.node", 10)  # at the cap: fine
        with pytest.raises(BudgetExceeded) as info:
            budget.check_nodes("bdd.node", 11)
        assert info.value.limit == "bdd_nodes"
        assert info.value.cap == 10
        with pytest.raises(BudgetExceeded):
            budget.check_states("automata.product", 21)

    def test_snapshot_and_limits_are_json_ready(self):
        import json
        budget = Budget(timeout=60, max_steps=3)
        with activate(budget):
            tick("a")
            tick("a")
        snapshot = budget.snapshot()
        assert snapshot["steps"] == 2
        assert snapshot["tripped"] is None
        json.dumps(snapshot)
        json.dumps(budget.limits())

    def test_message_names_limit_site_and_values(self):
        exc = BudgetExceeded("bdd_nodes", "bdd.node", 2049, 2048)
        assert "bdd_nodes" in str(exc)
        assert "bdd.node" in str(exc)
        assert "2049" in str(exc)


class TestEngineBudgets:
    def test_zero_timeout_every_subgoal_times_out(self):
        result = verify_body(
            "  while x <> nil do x := x^.next", post="x = nil",
            timeout=0.0)
        assert result.results
        assert not result.valid
        assert result.outcome is Outcome.TIMEOUT
        for subgoal in result.results:
            assert subgoal.outcome is Outcome.TIMEOUT
            assert subgoal.error
            # A passed deadline skips the pointless retry.
            assert subgoal.attempts == 1

    def test_state_cap_budget_exceeded_after_retry(self):
        result = verify_body("  p := x", post="p = x", max_states=2)
        (subgoal,) = result.results
        assert subgoal.outcome is Outcome.BUDGET_EXCEEDED
        assert subgoal.attempts == 2
        assert subgoal.budget["tripped"]["limit"] == "automaton_states"
        assert result.outcome is Outcome.BUDGET_EXCEEDED

    def test_node_cap_trips_in_bdd_layer(self):
        result = verify_body(
            "  while x <> nil do x := x^.next", post="x = nil",
            max_bdd_nodes=16)
        assert result.outcome is Outcome.BUDGET_EXCEEDED
        tripped = result.results[0].budget["tripped"]
        assert tripped["limit"] == "bdd_nodes"

    def test_max_steps_is_deterministic(self):
        first = verify_body("  p := x", post="p = x", max_steps=50)
        second = verify_body("  p := x", post="p = x", max_steps=50)
        assert first.results[0].budget["steps"] == \
            second.results[0].budget["steps"]
        assert first.outcome is second.outcome is \
            Outcome.BUDGET_EXCEEDED

    def test_generous_budget_matches_unbudgeted_verdict(self):
        source = wrap_program("  p := x", post="p = x")
        plain = verify_source(source)
        budgeted = verify_source(source, timeout=600,
                                 max_bdd_nodes=10**8, max_states=10**6)
        assert plain.valid and budgeted.valid
        assert plain.to_dict()["stats"] == budgeted.to_dict()["stats"]
        assert [r.valid for r in plain.results] == \
            [r.valid for r in budgeted.results]
        assert budgeted.budget["timeout"] == 600

    def test_budget_deactivated_after_run(self):
        verify_body("  p := x", post="p = x", timeout=600)
        assert current_budget() is NULL_BUDGET

    def test_schema_v2_document(self):
        result = verify_body("  p := x", post="p = x", max_states=2)
        document = result.to_dict()
        assert document["schema_version"] == 2
        assert document["outcome"] == "BUDGET_EXCEEDED"
        assert document["budget"]["max_states"] == 2
        subgoal = document["subgoals"][0]
        assert subgoal["outcome"] == "BUDGET_EXCEEDED"
        assert subgoal["attempts"] == 2
        assert subgoal["error"]

    def test_fallback_planned_only_after_a_failed_attempt(
            self, monkeypatch):
        # With reduction off, the fallback rung turns it on, and
        # planning that rung runs the cone of influence: work no
        # subgoal needs when its first attempt decides it.
        from repro.verify import engine
        calls = []
        original = engine.cone_of_influence

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "cone_of_influence", spy)
        program = check_program(parse_program(ALL_PROGRAMS["searchwf"]))
        result = engine.Verifier(program, reduce=False).verify()
        assert [sub.attempts for sub in result.results] == [1, 1, 1]
        assert calls == []

    def test_fallback_planned_once_when_the_first_attempt_fails(
            self, monkeypatch):
        # The ladder always runs: a tripped first attempt plans the
        # fallback rung (reduction on, so one cone of influence) and
        # tries it.
        from repro.verify import engine
        calls = []
        original = engine.cone_of_influence

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "cone_of_influence", spy)
        result = verify_body("  p := x", post="p = x", max_states=2,
                             reduce=False)
        assert result.results[0].attempts == 2
        assert len(calls) == 1


class TestExceptionPickling:
    """Every exception the engine may raise must survive the worker
    process boundary: the parallel executor ships failures back to
    the parent by pickling them, so a round trip has to preserve
    type, message, and structured fields exactly."""

    @staticmethod
    def round_trip(exc):
        import pickle
        return pickle.loads(pickle.dumps(exc))

    def test_budget_exceeded_round_trips(self):
        original = BudgetExceeded("bdd_nodes", "bdd.node", 2049, 2048)
        clone = self.round_trip(original)
        assert type(clone) is BudgetExceeded
        assert str(clone) == str(original)
        assert (clone.limit, clone.site, clone.value, clone.cap) == \
            ("bdd_nodes", "bdd.node", 2049, 2048)

    def test_verification_error_round_trips_without_double_prefix(self):
        from repro.errors import VerificationError
        original = VerificationError("subgoal exploded", line=3,
                                     column=7)
        clone = self.round_trip(original)
        assert type(clone) is VerificationError
        assert str(clone) == str(original)
        assert (clone.line, clone.column) == (3, 7)
        # Reconstruction must not re-apply the position prefix.
        assert str(clone) == "3:7: subgoal exploded"

    def test_parse_error_round_trips(self):
        from repro.errors import ParseError
        original = ParseError("unexpected token", line=1, column=2)
        clone = self.round_trip(original)
        assert type(clone) is ParseError
        assert str(clone) == str(original)

    def test_injected_fault_exceptions_round_trip(self):
        from repro.robust import faults
        for kind in faults.FAULT_KINDS:
            if kind == "interrupt":
                continue  # KeyboardInterrupt never crosses the wire
            if kind in faults.CRASH_KINDS:
                continue  # exit/kill terminate the process outright —
                # there is no exception to ship across the wire
            try:
                faults.parse_plan(f"mso.compile:{kind}").fire(
                    "mso.compile")
            except Exception as exc:
                clone = self.round_trip(exc)
                assert type(clone) is type(exc)
                assert str(clone) == str(exc)
            else:  # pragma: no cover - every kind must raise
                raise AssertionError(f"fault kind {kind} did not fire")


class TestOutcomeAggregation:
    def test_failed_dominates_degraded(self):
        from repro.verify.engine import _OUTCOME_SEVERITY
        assert _OUTCOME_SEVERITY[Outcome.FAILED] > \
            _OUTCOME_SEVERITY[Outcome.ERROR] > \
            _OUTCOME_SEVERITY[Outcome.BUDGET_EXCEEDED] > \
            _OUTCOME_SEVERITY[Outcome.TIMEOUT] > \
            _OUTCOME_SEVERITY[Outcome.VERIFIED]

    def test_decided_property(self):
        assert Outcome.VERIFIED.decided
        assert Outcome.FAILED.decided
        assert not Outcome.TIMEOUT.decided
        assert not Outcome.BUDGET_EXCEEDED.decided
        assert not Outcome.ERROR.decided

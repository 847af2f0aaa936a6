"""Tests for deterministic fault injection (repro.robust.faults).

The matrix test drives every named fault site against a small corpus
through the real CLI entry point and asserts the cardinal robustness
property: no raw traceback ever escapes ``main()`` — every failure is
a structured outcome with a documented exit code.
"""

import json

import pytest

from repro.cli import main
from repro.robust import faults
from repro.robust.budget import BudgetExceeded
from repro.verify import Outcome, verify_source

from util import wrap_program


@pytest.fixture(autouse=True)
def _clean_plan():
    """Never leak an installed plan into other tests."""
    yield
    faults.install(None)


class TestSpecParsing:
    def test_site_kind(self):
        plan = faults.parse_plan("mso.compile:memory")
        with pytest.raises(MemoryError):
            plan.fire("mso.compile")
        plan.fire("exec.symbolic")  # other sites untouched

    def test_counted_rule_expires(self):
        plan = faults.parse_plan("verify.decide:error:2")
        for _ in range(2):
            with pytest.raises(RuntimeError):
                plan.fire("verify.decide")
        plan.fire("verify.decide")  # third reach: spent

    def test_unknown_site_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan("no.such.site:error")

    def test_unknown_kind_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan("mso.compile:frobnicate")

    def test_bad_count_rejected(self):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_plan("mso.compile:error:soon")

    def test_empty_env_clears_plan(self, monkeypatch):
        faults.install(faults.parse_plan("mso.compile:error"))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        faults.install_from_env()
        faults.fire("mso.compile")  # no plan left: silent

    def test_malformed_env_spec_is_a_usage_error(self, monkeypatch,
                                                 capsys):
        monkeypatch.setenv("REPRO_FAULTS", "bogus")
        assert main(["verify", "searchwf"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_plan_lasts_for_the_call_only(self, monkeypatch,
                                              capsys):
        monkeypatch.setenv("REPRO_FAULTS", "verify.decide:error")
        assert main(["list"]) == 0
        monkeypatch.delenv("REPRO_FAULTS")
        faults.fire("verify.decide")  # the CLI's plan is gone: silent
        with faults.injected("mso.compile:error"):
            assert main(["list"]) == 0
            with pytest.raises(RuntimeError):
                faults.fire("mso.compile")  # the caller's plan is back

    def test_every_kind_raises_expected_type(self):
        expectations = {
            "budget": BudgetExceeded,
            "timeout": BudgetExceeded,
            "memory": MemoryError,
            "error": RuntimeError,
            "recursion": RecursionError,
            "interrupt": KeyboardInterrupt,
        }
        # The crash kinds (exit/kill) terminate the process instead of
        # raising, so they cannot be fired in this test process; the
        # supervised-pool tests exercise them for real.
        assert (set(expectations) | set(faults.CRASH_KINDS)
                == set(faults.FAULT_KINDS))
        for kind, exc_type in expectations.items():
            plan = faults.parse_plan(f"mso.compile:{kind}")
            with pytest.raises(exc_type):
                plan.fire("mso.compile")

    def test_crash_kinds_parse(self):
        for kind in faults.CRASH_KINDS:
            faults.parse_plan(f"verify.decide:{kind}:1")

    def test_serve_sites_registered(self):
        assert set(faults.SERVE_SITES) == {
            "serve.worker_spawn", "serve.heartbeat",
            "serve.request_decode", "serve.cache_write"}
        for site in faults.SERVE_SITES:
            faults.parse_plan(f"{site}:error")


class TestPlanSerialisation:
    def test_to_spec_round_trips(self):
        spec = "mso.compile:memory,verify.decide:kill:2,exec.symbolic:error"
        plan = faults.parse_plan(spec)
        rebuilt = faults.parse_plan(plan.to_spec())
        assert rebuilt.to_spec() == plan.to_spec()
        assert "verify.decide:kill:2" in plan.to_spec()

    def test_to_spec_tracks_spent_counts(self):
        plan = faults.parse_plan("mso.compile:error:2")
        with pytest.raises(RuntimeError):
            plan.fire("mso.compile")
        assert plan.to_spec() == "mso.compile:error:1"

    def test_spent_rule_survives_round_trip_without_firing(self):
        plan = faults.parse_plan("mso.compile:error:1")
        with pytest.raises(RuntimeError):
            plan.fire("mso.compile")
        rebuilt = faults.parse_plan(plan.to_spec())
        rebuilt.fire("mso.compile")  # remaining 0: silent

    def test_consume_crash_decrements_counted_crash_rule(self):
        plan = faults.parse_plan("verify.decide:kill:1")
        assert plan.consume_crash() is True
        assert plan.consume_crash() is False
        plan.fire("verify.decide")  # spent: the respawned worker lives

    def test_consume_crash_ignores_unlimited_rules(self):
        # An unlimited crash rule means "every attempt dies" — the
        # quarantine path; the supervisor must not eat it.
        plan = faults.parse_plan("verify.decide:exit")
        assert plan.consume_crash() is False

    def test_consume_crash_ignores_non_crash_rules(self):
        plan = faults.parse_plan("mso.compile:error:3")
        assert plan.consume_crash() is False
        assert plan.to_spec() == "mso.compile:error:3"


from repro.programs import ALL_PROGRAMS

#: Sites that fire on every run.  ``verify.counterexample`` is only
#: reached when a subgoal fails, so it gets the failing programs;
#: the ``serve.*`` sites only fire on serving/supervision paths
#: (worker pools, the daemon, cache writes) and are driven by
#: :class:`TestServeSiteFaults` plus the supervised-pool and daemon
#: suites instead of the whole-corpus matrix.
_ALWAYS_SITES = tuple(site for site in faults.FAULT_SITES
                      if site != "verify.counterexample"
                      and site not in faults.SERVE_SITES)
_FAILING_PROGRAMS = ("swap", "fumble")

_MATRIX = ([(site, program) for site in _ALWAYS_SITES
            for program in sorted(ALL_PROGRAMS)]
           + [("verify.counterexample", program)
              for program in _FAILING_PROGRAMS])


class TestFaultMatrix:
    """Every site x the whole corpus: main() returns a documented exit
    code and, with --json, a parseable structured report — never a
    traceback."""

    @pytest.mark.parametrize("site,program", _MATRIX)
    def test_error_fault_yields_structured_outcome(self, site, program,
                                                   monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", f"{site}:error")
        code = main(["verify", program, "--json"])
        assert code in (0, 1, 3), (site, program)
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] in ("VERIFIED", "FAILED", "ERROR")
        if code == 3:
            degraded = [s for s in document["subgoals"]
                        if s["outcome"] == "ERROR"]
            assert degraded
            for subgoal in degraded:
                assert "injected fault" in subgoal["error"]

    @pytest.mark.parametrize("kind,outcome", [
        ("budget", "BUDGET_EXCEEDED"),
        ("timeout", "TIMEOUT"),
        ("memory", "ERROR"),
        ("error", "ERROR"),
        ("recursion", "ERROR"),
    ])
    def test_each_kind_maps_to_outcome(self, kind, outcome,
                                       monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", f"mso.compile:{kind}")
        assert main(["verify", "reverse", "--json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] == outcome
        assert document["subgoals"][0]["outcome"] == outcome

    def test_interrupt_fault_exits_130_with_partial_json(
            self, monkeypatch, capsys):
        # Fire once, at the second subgoal: the first decides cleanly,
        # then Ctrl-C arrives; the partial report must still flush.
        monkeypatch.setenv("REPRO_FAULTS", "exec.symbolic:interrupt")
        assert main(["verify", "reverse", "--json"]) == 130
        document = json.loads(capsys.readouterr().out)
        assert document["interrupted"] is True
        assert document["outcome"] == "INTERRUPTED"
        assert document["valid"] is False

    def test_interrupt_outside_engine_exits_130(self, monkeypatch,
                                                capsys):
        monkeypatch.setenv("REPRO_FAULTS", "exec.symbolic:interrupt")
        assert main(["table", "reverse", "--json"]) == 130
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["interrupted"] is True


class TestServeSiteFaults:
    """The serving sites degrade gracefully where they fire: a failed
    cache write skips the store, a failed worker spawn is retried.
    (``serve.request_decode`` and ``serve.heartbeat`` are driven by
    the daemon and supervised-pool suites, where those paths exist.)"""

    def test_cache_write_fault_skips_store_not_run(self, tmp_path,
                                                   monkeypatch,
                                                   capsys):
        monkeypatch.setenv("REPRO_FAULTS", "serve.cache_write:error")
        assert main(["verify", "searchwf", "--json",
                     "--cache-dir", str(tmp_path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] == "VERIFIED"
        # Every store failed silently: nothing cached on disk.
        assert not list(tmp_path.rglob("*.pkl"))

    def test_worker_spawn_fault_is_retried(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "serve.worker_spawn:error:1")
        assert main(["verify", "searchwf", "--json", "-j", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] == "VERIFIED"


class TestDegradationLadder:
    def test_one_shot_fault_recovers_on_retry(self):
        with faults.injected("verify.decide:error:1"):
            result = verify_source(
                wrap_program("  p := x", post="p = x"))
        (subgoal,) = result.results
        assert subgoal.valid
        assert subgoal.outcome is Outcome.VERIFIED
        assert subgoal.attempts == 2

    def test_persistent_fault_degrades(self):
        with faults.injected("verify.decide:error"):
            result = verify_source(
                wrap_program("  p := x", post="p = x"))
        (subgoal,) = result.results
        assert not subgoal.valid
        assert subgoal.outcome is Outcome.ERROR
        assert subgoal.attempts == 2
        assert "injected fault" in subgoal.error

    def test_retry_toggles_reduction_and_preserves_verdict(self):
        """The ladder's alternate attempt (reduction toggled) must
        reach the same verdicts, for a valid and a failing program."""
        for body, post, expected in (("  p := x", "p = x", True),
                                     ("  p := x", "p = nil", False)):
            source = wrap_program(body, post=post)
            baseline = verify_source(source)
            for reduce in (True, False):
                with faults.injected("verify.decide:budget:1"):
                    retried = verify_source(source, reduce=reduce)
                (subgoal,) = retried.results
                assert subgoal.attempts == 2
                assert retried.valid is baseline.valid is expected

    def test_timeout_fault_skips_retry(self):
        with faults.injected("verify.decide:timeout"):
            result = verify_source(
                wrap_program("  p := x", post="p = x"))
        (subgoal,) = result.results
        assert subgoal.outcome is Outcome.TIMEOUT
        assert subgoal.attempts == 1

    def test_counterexample_fault_degrades_failing_subgoal(self):
        with faults.injected("verify.counterexample:memory"):
            result = verify_source(
                wrap_program("  p := x", post="p = nil"))
        (subgoal,) = result.results
        assert subgoal.outcome is Outcome.ERROR
        assert "out-of-memory" in subgoal.error

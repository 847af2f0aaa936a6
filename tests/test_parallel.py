"""Tests for the sharded parallel executor (repro.parallel).

The heavy lifting is done by the differential harness in
``diffcheck.py``; these tests run it over a fast subset of the corpus
(CI's parallel-smoke job sweeps the whole corpus) and add unit-level
coverage for jobs resolution, wire fidelity, and fault containment.
"""

import json
import math
import multiprocessing
import os

import pytest

import diffcheck
from repro.errors import ReproError
from repro.parallel import SupervisedPool, resolve_jobs
from repro.parallel.pool import partition_deadline
from repro.parallel.wire import span_from_dict
from repro.programs import ALL_PROGRAMS
from repro.verify import Outcome, verify_source

from util import wrap_program

# Fast programs only: the full-corpus sweep belongs to CI's
# parallel-smoke job, not tier-1.
FAST_NAMES = ["searchwf", "swap", "reverse"]


class TestResolveJobs:
    def test_default_is_sequential(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-1)


class TestDifferential:
    """The tentpole contract: parallel == sequential, report for
    report, on verify and table granularity."""

    @pytest.mark.parametrize("name", FAST_NAMES)
    def test_verify_matches_sequential(self, name):
        assert diffcheck.diff_verify(name, jobs=2) == []

    def test_verify_four_workers_on_passing_program(self):
        assert diffcheck.diff_verify("searchwf", jobs=4) == []

    def test_table_matches_sequential(self):
        assert diffcheck.diff_table(FAST_NAMES, jobs=2) == []

    def test_counterexample_travels_intact(self):
        code, seq, _ = diffcheck.run_cli_json(
            ["verify", "swap", "--no-simulate", "--json"])
        par_code, par, _ = diffcheck.run_cli_json(
            ["verify", "swap", "--no-simulate", "--json", "-j", "2"])
        assert code == par_code == 1
        seq_cex = [s["counterexample"] for s in seq["subgoals"]
                   if s["counterexample"]]
        par_cex = [s["counterexample"] for s in par["subgoals"]
                   if s["counterexample"]]
        assert seq_cex == par_cex

    def test_timeout_outcome_matches_sequential(self):
        # A zero deadline degrades to the same structured outcome
        # whether partitioned across workers or applied sequentially.
        # (Full report equality is not expected here: the budget
        # error messages embed measured elapsed times.)
        seq_code, seq, _ = diffcheck.run_cli_json(
            ["verify", "reverse", "--json", "--timeout", "0"])
        par_code, par, _ = diffcheck.run_cli_json(
            ["verify", "reverse", "--json", "--timeout", "0",
             "-j", "2"])
        diffcheck.assert_no_orphans()
        assert seq_code == par_code == 3
        assert seq["outcome"] == par["outcome"] == "TIMEOUT"
        assert [s["outcome"] for s in seq["subgoals"]] == \
            [s["outcome"] for s in par["subgoals"]]
        assert seq["budget"] == par["budget"]


class TestEngineLevel:
    def test_verify_source_accepts_jobs(self):
        source = wrap_program("  p := x", post="p = x")
        sequential = verify_source(source)
        parallel = verify_source(source, jobs=2)
        assert parallel.valid and sequential.valid
        assert parallel.outcome is Outcome.VERIFIED
        assert diffcheck.normalize(parallel.to_dict()) == \
            diffcheck.normalize(sequential.to_dict())

    def test_front_end_error_raised_before_any_worker(self):
        # Subgoal collection happens in the parent; a bad program
        # raises exactly the exception the sequential path raises,
        # and no pool is ever created.
        bad = "program p; begin x := ; end."
        with pytest.raises(ReproError) as sequential_info:
            verify_source(bad)
        with pytest.raises(type(sequential_info.value)):
            verify_source(bad, jobs=2)
        diffcheck.assert_no_orphans()

    def test_subgoal_results_in_sequential_order(self):
        result = verify_source(ALL_PROGRAMS["reverse"], jobs=2)
        descriptions = [r.description for r in result.results]
        sequential = verify_source(ALL_PROGRAMS["reverse"])
        assert descriptions == [r.description
                                for r in sequential.results]

    def test_subgoals_submitted_in_index_order(self, monkeypatch):
        # Nothing reorders the fan-out: subgoals enter the supervised
        # pool's FIFO queue in ascending index order.
        submitted = []
        original = SupervisedPool.submit

        def spy(self, payload, key, *args, **kwargs):
            submitted.append((key, payload.index))
            return original(self, payload, key, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "submit", spy)
        code, document, _ = diffcheck.run_cli_json(
            ["verify", "reverse", "--json", "-j", "2"])
        assert code == 0
        indices = list(range(len(document["subgoals"])))
        assert len(indices) > 2
        assert submitted == list(zip(indices, indices))

    def test_each_task_gets_its_deadline_slice(self, monkeypatch):
        slices = []
        original = SupervisedPool.submit

        def spy(self, payload, key, *args, **kwargs):
            slices.append(payload.timeout_slice)
            return original(self, payload, key, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "submit", spy)
        code, document, _ = diffcheck.run_cli_json(
            ["verify", "reverse", "--json", "-j", "2",
             "--timeout", "600"])
        assert code == 0
        count = len(document["subgoals"])
        assert slices == [partition_deadline(600.0, count, 2)] * count
        assert slices[0] == 600.0 / math.ceil(count / 2)

    def test_budget_limits_match_sequential(self):
        # Both paths report Budget.limits(): a cap without a timeout
        # is recorded, with the timeout as None.
        argv = ["verify", "reverse", "--json", "--max-states", "100000"]
        code, sequential, _ = diffcheck.run_cli_json(argv)
        par_code, parallel, _ = diffcheck.run_cli_json(argv
                                                       + ["-j", "2"])
        diffcheck.assert_no_orphans()
        assert code == par_code == 0
        assert sequential["budget"] == parallel["budget"] == {
            "timeout": None, "max_bdd_nodes": None,
            "max_states": 100000, "max_steps": None}


class TestFaultContainment:
    def test_worker_fault_degrades_not_crashes(self):
        with diffcheck.fault_env("exec.symbolic:error"):
            code, document, err = diffcheck.run_cli_json(
                ["verify", "reverse", "--json", "-j", "2"])
        diffcheck.assert_no_orphans()
        assert code == 3
        assert "Traceback" not in err
        assert document["outcome"] == "ERROR"

    def test_interrupt_in_worker_terminates_pool_exit_130(self):
        with diffcheck.fault_env("exec.symbolic:interrupt"):
            code, document, err = diffcheck.run_cli_json(
                ["verify", "reverse", "--json", "-j", "2"])
        diffcheck.assert_no_orphans()
        assert code == 130
        assert document is not None, "partial JSON must be flushed"
        assert document["interrupted"] is True
        assert "Traceback" not in err

    def test_stress_mode_seeded(self):
        problems = diffcheck.stress(FAST_NAMES, jobs=2, seed=1997,
                                    rounds=3)
        assert problems == []

    def test_no_orphans_after_runs(self):
        assert multiprocessing.active_children() == []


class TestCrashSupervision:
    """Regression tests for the latent ``imap_unordered`` hang: a
    worker that dies mid-task (SIGKILL, OOM, hard crash) must never
    strand the run — the supervisor respawns it and either retries to
    the sequential verdict or quarantines the task as a structured
    ``ERROR`` row."""

    def test_killed_worker_retried_to_sequential_verdicts(self):
        # Exactly one SIGKILL of a busy worker: the retry must
        # converge on a report identical to the sequential one.
        seq_code, seq_doc, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json"])
        with diffcheck.fault_env("verify.decide:kill:1"):
            par_code, par_doc, err = diffcheck.run_cli_json(
                ["verify", "searchwf", "--json", "-j", "2"])
        diffcheck.assert_no_orphans()
        assert "Traceback" not in err
        assert par_code == seq_code == 0
        assert diffcheck.normalize(par_doc) == \
            diffcheck.normalize(seq_doc)

    def test_poison_task_quarantined_as_error_rows(self):
        # Every attempt dies: the run completes (no hang) with each
        # subgoal quarantined as a structured ERROR row.
        with diffcheck.fault_env("verify.decide:exit"):
            code, document, err = diffcheck.run_cli_json(
                ["verify", "searchwf", "--json", "-j", "2"])
        diffcheck.assert_no_orphans()
        assert "Traceback" not in err
        assert code == 3
        assert document["outcome"] == "ERROR"
        for subgoal in document["subgoals"]:
            assert subgoal["outcome"] == "ERROR"
            assert "worker crashed" in subgoal["error"]
            assert "quarantined" in subgoal["error"]

    def test_killed_worker_in_table_run(self):
        seq_code, seq_docs, _ = diffcheck.run_cli_json(
            ["table", "searchwf", "scan", "--json"])
        with diffcheck.fault_env("verify.decide:kill:1"):
            par_code, par_docs, err = diffcheck.run_cli_json(
                ["table", "searchwf", "scan", "--json", "--jobs", "2"])
        diffcheck.assert_no_orphans()
        assert "Traceback" not in err
        assert par_code == seq_code == 0
        assert diffcheck.normalize(par_docs) == \
            diffcheck.normalize(seq_docs)

    def test_program_task_crash_degrades_table_row(self):
        # A table worker that always dies quarantines its program as
        # a structured error row; the run itself still completes.
        with diffcheck.fault_env("verify.decide:exit"):
            code, documents, err = diffcheck.run_cli_json(
                ["table", "searchwf", "--json", "--jobs", "2"])
        diffcheck.assert_no_orphans()
        assert "Traceback" not in err
        assert code == 3
        (document,) = documents
        assert document["outcome"] == "ERROR"
        assert "worker" in document["error"]


class TestWireFidelity:
    def test_span_round_trip_preserves_tree(self):
        code, document, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json", "-j", "2"])
        assert code == 0
        for subgoal in document["subgoals"]:
            tree = subgoal["span"]
            rebuilt = span_from_dict(tree)
            assert diffcheck.normalize(rebuilt.to_dict()) == \
                diffcheck.normalize(tree)

    def test_merged_stats_equal_sequential(self):
        _, seq, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json"])
        _, par, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json", "-j", "2"])
        assert seq["stats"] == par["stats"]

"""Tests for the sharded parallel executor (repro.parallel).

The heavy lifting is done by the differential harness in
``diffcheck.py``; these tests run it over a fast subset of the corpus
(CI's parallel-smoke job sweeps the whole corpus) and add unit-level
coverage for jobs resolution, wire fidelity, fault containment, and
the one fan-out's rule for every kind of reply.
"""

import copy
import json
import math
import multiprocessing
import os
import pickle
import shutil
import time

import pytest

import diffcheck
from repro.errors import ExecutionError, ReproError
from repro.exec.interpreter import Interpreter
from repro.obs.metrics import MetricsRegistry, activate_metrics
from repro.obs.trace import Tracer
from repro.parallel import (CrashReply, SubgoalFanOut, SupervisedPool,
                            resolve_jobs)
from repro.parallel.pool import partition_deadline
from repro.parallel.wire import (WorkerReply, rebuild_subgoal_result,
                                 wire_subgoal_result)
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS
from repro.verify import Outcome, verify_source
from repro.verify.engine import Verifier

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

    def test_table_crash_quarantines_every_subgoal(self):
        # Under table -j every worker dies: each of the program's
        # subgoals is quarantined as its own structured ERROR row,
        # and the run itself still completes.
        with diffcheck.fault_env("verify.decide:exit"):
            code, documents, err = diffcheck.run_cli_json(
                ["table", "searchwf", "--json", "--jobs", "2"])
        diffcheck.assert_no_orphans()
        assert "Traceback" not in err
        assert code == 3
        (document,) = documents
        assert document["outcome"] == "ERROR"
        assert document["error"] is None
        assert len(document["subgoals"]) == 3
        for subgoal in document["subgoals"]:
            assert subgoal["outcome"] == "ERROR"
            assert "worker crashed" in subgoal["error"]
            assert "quarantined" in subgoal["error"]


class ScriptedPool:
    """Stands in for :class:`SupervisedPool`: each submitted task is
    answered at once from a script (subgoal index -> reply), and an
    index the script leaves out is never answered."""

    jobs = 2

    def __init__(self, script):
        self.script = script
        self.submitted = []

    def submit(self, payload, key, on_done):
        self.submitted.append((key, payload.index))
        if key in self.script:
            on_done(self.script[key])


def _reply(kind, index, value=None):
    """A worker reply whose metrics count one ``worker.replies``."""
    metrics = MetricsRegistry()
    metrics.counter("worker.replies").inc()
    return WorkerReply(kind=kind, key=index, value=value,
                       metrics=metrics)


class TestFanOutReplies:
    """The fan-out's one rule for every answer, driven without
    processes through a scripted pool."""

    @pytest.fixture(scope="class")
    def verifier(self):
        # Four straight-line subgoals split at cut-point assertions.
        source = wrap_program(
            "  p := x;\n  {p = x}\n  q := p;\n  {q = x}\n"
            "  p := nil;\n  {q = x & p = nil}\n  q := x",
            post="q = x & p = nil")
        return Verifier(check_program(parse_program(source)))

    def _gather(self, verifier, script, deadline=None):
        subgoals = verifier.collect_subgoals()
        pool = ScriptedPool(script)
        registry = MetricsRegistry()
        with activate_metrics(registry):
            result = SubgoalFanOut(pool, verifier,
                                   subgoals).result(deadline)
        indices = list(range(len(subgoals)))
        assert pool.submitted == list(zip(indices, indices))
        return subgoals, result, registry

    def test_result_crash_error_and_silence(self, verifier):
        first = verifier.collect_subgoals()[0]
        decided = wire_subgoal_result(verifier.decide(first))
        crash = CrashReply(key=1, attempts=3, exitcode=-9,
                           reason="crashed")
        script = {0: _reply("result", 0, decided), 1: crash,
                  2: _reply("error", 2, RuntimeError("boom"))}
        subgoals, result, registry = self._gather(
            verifier, script, deadline=time.monotonic() + 0.2)
        assert len(subgoals) == 4
        assert not result.interrupted
        assert [row.subgoal for row in result.results] == subgoals
        assert [row.outcome for row in result.results] == [
            Outcome.VERIFIED, Outcome.ERROR, Outcome.ERROR,
            Outcome.ERROR]
        assert result.results[0].error is None
        assert result.results[1].error == crash.describe()
        assert result.results[1].attempts == 3
        assert result.results[2].error == \
            "worker error: RuntimeError: boom"
        assert "deadline" in result.results[3].error
        assert result.outcome is Outcome.ERROR
        # Two worker replies carried metrics; each merged once.
        assert registry.counter("worker.replies").value == 2
        assert registry.counter("verify.outcome.VERIFIED").value == 1
        assert registry.counter("verify.outcome.ERROR").value == 3

    def test_interrupted_reply_stops_the_gather(self, verifier):
        crash = CrashReply(key=0, attempts=1, exitcode=None,
                           reason="shutdown")
        script = {0: crash, 1: _reply("interrupted", 1),
                  2: _reply("error", 2, RuntimeError("late"))}
        subgoals, result, registry = self._gather(verifier, script)
        assert result.interrupted
        assert result.outcome is Outcome.ERROR
        # Only the rows gathered before the interrupt are kept, and
        # no deadline row is added for the rest.
        assert [row.subgoal for row in result.results] == subgoals[:1]
        assert "shutdown" in result.results[0].error
        assert registry.counter("worker.replies").value == 1
        assert registry.counter("verify.outcome.ERROR").value == 1

    def test_keyboard_interrupt_before_any_answer(self, verifier,
                                                  monkeypatch):
        subgoals = verifier.collect_subgoals()
        fan_out = SubgoalFanOut(ScriptedPool({}), verifier, subgoals)

        def ctrl_c(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(fan_out._replies, "get", ctrl_c)
        result = fan_out.result()
        assert result.interrupted
        assert result.results == []
        assert result.outcome is Outcome.INTERRUPTED
        assert result.to_dict()["interrupted"] is True


class TestOnePoolPerTable:
    def test_table_shares_one_pool(self, monkeypatch):
        pools, submitted = [], []
        original_init = SupervisedPool.__init__
        original_submit = SupervisedPool.submit

        def spy_init(self, *args, **kwargs):
            pools.append(self)
            original_init(self, *args, **kwargs)

        def spy_submit(self, payload, key, *args, **kwargs):
            submitted.append((payload.verifier.program.name,
                              payload.index))
            return original_submit(self, payload, key, *args, **kwargs)

        monkeypatch.setattr(SupervisedPool, "__init__", spy_init)
        monkeypatch.setattr(SupervisedPool, "submit", spy_submit)
        code, documents, _ = diffcheck.run_cli_json(
            ["table", "searchwf", "swap", "reverse", "--json",
             "--jobs", "2"])
        diffcheck.assert_no_orphans()
        assert code == 1
        assert len(pools) == 1
        expected = [(document["program"], index)
                    for document in documents
                    for index in range(len(document["subgoals"]))]
        assert [name for name, _ in expected] == \
            ["searchwf"] * 3 + ["swap"] + ["reverse"] * 3
        assert submitted == expected


def typed(name):
    return check_program(parse_program(ALL_PROGRAMS[name]))


def replays(program, result):
    """True when the counterexample's store, run through the concrete
    interpreter, ends in a runtime error, an ill-formed store or a
    false check obligation."""
    final = result.counterexample.store.clone()
    try:
        Interpreter(program).run_statements(final,
                                            result.subgoal.statements)
    except ExecutionError:
        return True
    return bool(final.violations()) or any(
        item.concrete is not None and not item.concrete(final)
        for item in result.subgoal.check)


class TestWireFidelity:
    """A result crosses the worker pipe, and enters the verdict
    cache, as itself: pickled without its subgoal."""

    def test_span_tree_pickles_on_its_own(self):
        tracer = Tracer(detail=True)
        result = Verifier(typed("searchwf"), tracer=tracer).verify()
        assert tracer.roots
        for span in tracer.roots + [row.span for row in result.results]:
            blob = pickle.dumps(span)
            assert b"Tracer" not in blob
            assert pickle.loads(blob).to_dict() == span.to_dict()

    def test_failing_subgoal_round_trip(self):
        program = typed("swap")
        verifier = Verifier(program, tracer=Tracer(detail=True))
        result = next(row for row in verifier.verify().results
                      if not row.valid)
        record = pickle.loads(pickle.dumps(wire_subgoal_result(result)))
        assert record.subgoal is None
        rebuilt = rebuild_subgoal_result(record, result.subgoal)
        assert rebuilt.to_dict() == result.to_dict()
        assert replays(program, result)
        assert replays(program, rebuilt)

    def test_shallow_copy_keeps_the_subgoal(self):
        result = verify_source(ALL_PROGRAMS["swap"]).results[0]
        assert copy.copy(result).subgoal is result.subgoal

    def test_pickled_verifier_decides_like_the_original(self,
                                                        tmp_path):
        cache_dir = str(tmp_path / "cache")
        original = Verifier(typed("searchwf"), reduce=False,
                            cache_dir=cache_dir, max_states=100000,
                            tracer=Tracer(detail=True))
        expected = original.decide_index(1).to_dict()
        assert original._guard_cache
        clone = pickle.loads(pickle.dumps(original))
        assert clone._guard_cache == {}
        assert clone.tracer is not original.tracer
        assert clone.tracer.detail is True
        assert clone.tracer.roots == []
        # The clone must compute, not replay: empty the shared cache.
        shutil.rmtree(cache_dir)
        decided = clone.decide_index(1)
        assert decided.cache["hit"] is False
        assert decided.budget is not None
        assert decided.tracks_before == decided.tracks_after
        assert decided.span is not None
        assert diffcheck.normalize(decided.to_dict()) == \
            diffcheck.normalize(expected)
        assert os.listdir(clone.cache.directory)

    def test_worker_records_replay_in_process(self, tmp_path):
        # Workers store the records; a sequential run then reads every
        # one of them back, spans, stats and counterexample intact.
        argv = ["verify", "swap", "--json", "--trace", "--cache-dir",
                str(tmp_path)]
        code, cold, _ = diffcheck.run_cli_json(argv + ["-j", "2"])
        diffcheck.assert_no_orphans()
        warm_code, warm, _ = diffcheck.run_cli_json(argv)
        assert code == warm_code == 1
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == len(warm["subgoals"]) > 0
        assert all(subgoal["span"] is not None
                   for subgoal in warm["subgoals"])
        assert any(subgoal["counterexample"] is not None
                   for subgoal in warm["subgoals"])
        assert diffcheck.normalize(warm) == diffcheck.normalize(cold)

    def test_merged_stats_equal_sequential(self):
        _, seq, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json"])
        _, par, _ = diffcheck.run_cli_json(
            ["verify", "searchwf", "--json", "-j", "2"])
        assert seq["stats"] == par["stats"]

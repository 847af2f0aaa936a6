"""Tests for the command-line driver."""

import json

import pytest

from repro.cli import main
from repro.programs import ALL_PROGRAMS


class TestListAndShow:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("reverse", "swap", "zip"):
            assert name in out

    def test_show(self, capsys):
        assert main(["show", "reverse"]) == 0
        out = capsys.readouterr().out
        assert out == ALL_PROGRAMS["reverse"]

    def test_show_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            main(["show", "nonexistent"])


class TestVerify:
    def test_verify_bundled_valid(self, capsys):
        assert main(["verify", "searchwf"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_bundled_invalid(self, capsys):
        assert main(["verify", "swap", "--no-simulate"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "counterexample" in out

    def test_verify_file(self, tmp_path, capsys):
        path = tmp_path / "prog.pas"
        path.write_text(ALL_PROGRAMS["swapfix"])
        assert main(["verify", str(path)]) == 0

    def test_verbose_flag(self, capsys):
        assert main(["verify", "searchwf", "--verbose"]) == 0
        assert "check:" in capsys.readouterr().out

    def test_front_end_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.pas"
        path.write_text("program broken; begin x := ; end.")
        assert main(["verify", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "/nonexistent/path.pas"],
        ["table", "/nonexistent/path.pas"],
        ["table", "/nonexistent/path.pas", "--jobs", "2"],
        ["analyze", "/nonexistent/path.pas"],
        ["lint", "/nonexistent/path.pas"],
        ["synth", "x = nil", "--program", "/nonexistent/path.pas"],
    ], ids=["verify", "table", "table-jobs", "analyze", "lint", "synth"])
    def test_missing_file(self, argv, capsys):
        # An unreadable source is a front-end error: one line on
        # stderr and exit 2, never a traceback or exit 1 ("failed").
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "/nonexistent/path.pas" in err
        assert "Traceback" not in err


class TestObservabilityFlags:
    def test_json_report(self, capsys):
        assert main(["verify", "searchwf", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 2
        assert document["program"] == "searchwf"
        assert document["valid"] is True
        assert document["outcome"] == "VERIFIED"
        assert document["stats"]["bdd_apply_hits"] > 0
        assert document["stats"]["bdd_apply_misses"] > 0
        assert document["stats"]["peak_nodes"] > 0
        for subgoal in document["subgoals"]:
            assert subgoal["span"]["name"] == "subgoal"

    def test_json_failing_program_still_valid_json(self, capsys):
        assert main(["verify", "swap", "--no-simulate", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["valid"] is False
        assert any(subgoal["counterexample"]
                   for subgoal in document["subgoals"])

    def test_profile_prints_timing_tree(self, capsys):
        assert main(["verify", "searchwf", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "timing (" in out
        for phase in ("exec.symbolic", "translate", "compile",
                      "universality"):
            assert phase in out

    def test_trace_records_operation_spans(self, capsys):
        assert main(["verify", "searchwf", "--trace", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        names = set()

        def collect(span):
            names.add(span["name"])
            for child in span["children"]:
                collect(child)

        for subgoal in document["subgoals"]:
            collect(subgoal["span"])
        assert "automata.product" in names
        assert "automata.minimize" in names

    def test_repro_trace_env_acts_like_trace(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert main(["verify", "searchwf", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        spans = json.dumps(out["subgoals"])
        assert "automata.product" in spans

    def test_repro_trace_zero_is_disabled(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert main(["verify", "searchwf"]) == 0
        out = capsys.readouterr().out
        assert "timing (" not in out

    def test_table_json(self, capsys):
        assert main(["table", "searchwf", "--json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert [doc["program"] for doc in documents] == ["searchwf"]
        assert documents[0]["valid"] is True


class TestTable:
    def test_table_subset(self, capsys):
        assert main(["table", "searchwf"]) == 0
        out = capsys.readouterr().out
        assert "Program" in out
        assert "searchwf" in out

    def test_table_reports_failures(self, capsys):
        assert main(["table", "searchwf", "fumble"]) == 1
        assert "NO" in capsys.readouterr().out


class TestBudgetFlags:
    def test_timeout_degrades_to_exit_3(self, capsys):
        assert main(["verify", "reverse", "--timeout", "0"]) == 3
        out = capsys.readouterr().out
        assert "TIMEOUT" in out

    def test_timeout_json_is_structured(self, capsys):
        assert main(["verify", "reverse", "--timeout", "0",
                     "--json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] == "TIMEOUT"
        assert document["valid"] is False
        assert document["budget"]["timeout"] == 0.0
        for subgoal in document["subgoals"]:
            assert subgoal["outcome"] == "TIMEOUT"
            assert subgoal["error"]

    def test_max_states_cap_trips_budget(self, capsys):
        assert main(["verify", "reverse", "--max-states", "2",
                     "--json"]) == 3
        document = json.loads(capsys.readouterr().out)
        assert document["outcome"] == "BUDGET_EXCEEDED"
        tripped = document["subgoals"][0]["budget"]["tripped"]
        assert tripped["limit"] == "automaton_states"

    def test_generous_budget_keeps_verdict(self, capsys):
        assert main(["verify", "searchwf", "--timeout", "600",
                     "--max-bdd-nodes", "100000000"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_table_timeout_keep_going(self, capsys):
        assert main(["table", "searchwf", "--timeout", "0",
                     "--keep-going", "--json"]) == 3
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["outcome"] == "TIMEOUT"

    def test_table_keep_going_records_error_rows(self, capsys):
        assert main(["table", "searchwf", "/nonexistent/x.pas",
                     "--keep-going"]) == 3
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "yes" in out

    def test_exit_code_table_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "130" in out


class TestJobsFlag:
    def test_verify_parallel_matches_sequential_shape(self, capsys):
        assert main(["verify", "searchwf", "--json"]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main(["verify", "searchwf", "--json", "-j", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["schema_version"] == 2
        assert set(parallel) == set(sequential)
        assert parallel["valid"] is sequential["valid"] is True
        assert parallel["stats"] == sequential["stats"]
        assert len(parallel["subgoals"]) == len(sequential["subgoals"])

    def test_jobs_zero_resolves_to_cpu_count(self, capsys):
        assert main(["verify", "searchwf", "--jobs", "0"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_table_jobs_flag(self, capsys):
        assert main(["table", "searchwf", "fumble", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "searchwf" in out
        assert "NO" in out

    def test_table_jobs_keep_going_error_rows(self, capsys):
        assert main(["table", "searchwf", "/nonexistent/x.pas",
                     "--keep-going", "--jobs", "2"]) == 3
        out = capsys.readouterr().out
        assert "ERROR" in out
        assert "yes" in out

    def test_negative_jobs_rejected(self, capsys):
        assert main(["verify", "searchwf", "-j", "-2"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_parallel_interrupt_exits_130_with_partial_json(
            self, capsys, monkeypatch):
        # Ctrl-C inside a worker: the pool is terminated (no orphan
        # outlives the run), the partial --json report is still
        # flushed, and the driver exits 130 like the sequential path.
        import multiprocessing
        monkeypatch.setenv("REPRO_FAULTS", "exec.symbolic:interrupt")
        code = main(["verify", "reverse", "--json", "-j", "2"])
        assert code == 130
        document = json.loads(capsys.readouterr().out)
        assert document["interrupted"] is True
        assert document["outcome"] == "INTERRUPTED"
        assert multiprocessing.active_children() == []


class TestSynth:
    def test_synthesizes_smallest_store(self, capsys):
        assert main(["synth", "x<next*>p & <(List:blue)?>p"]) == 0
        out = capsys.readouterr().out
        assert "string:" in out
        assert "(Item:blue)" in out

    def test_unsatisfiable(self, capsys):
        assert main(["synth", "x <> x"]) == 1
        assert "unsatisfiable" in capsys.readouterr().out

    def test_schema_from_file(self, tmp_path, capsys):
        path = tmp_path / "prog.pas"
        path.write_text(ALL_PROGRAMS["triple"])
        assert main(["synth", "q <> nil", "--program", str(path)]) == 0
        assert "q" in capsys.readouterr().out

    def test_bad_formula_reports_error(self, capsys):
        assert main(["synth", "x <"]) == 2
        assert "error:" in capsys.readouterr().err


BAD_PROGRAM = """\
program bad;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{data} var x: List;
{pointer} var p, q: List;
begin
  p := nil;
  q := p^.next
end.
"""

WARN_PROGRAM = """\
program warn;
type
  Color = (red, blue);
  List = ^Item;
  Item = record case tag: Color of red, blue: (next: List) end;
{data} var x: List;
{pointer} var p, q: List;
begin
  q := p
end.
"""


class TestLint:
    def test_clean_bundled_program(self, capsys):
        assert main(["lint", "searchwf"]) == 0
        assert capsys.readouterr().out == ""

    def test_clean_example_files(self, capsys):
        import pathlib
        examples = sorted(str(path) for path in
                          (pathlib.Path(__file__).resolve().parent.parent
                           / "examples").glob("*.pas"))
        assert examples
        assert main(["lint"] + examples) == 0
        assert capsys.readouterr().out == ""

    def test_error_diagnostic_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.pas"
        path.write_text(BAD_PROGRAM)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "nil-deref" in out
        assert f"{path}:10:" in out
        assert "1 error(s)" in out

    def test_warnings_exit_zero_without_strict(self, tmp_path, capsys):
        path = tmp_path / "warn.pas"
        path.write_text(WARN_PROGRAM)
        assert main(["lint", str(path)]) == 0
        assert "use-before-assign" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn.pas"
        path.write_text(WARN_PROGRAM)
        assert main(["lint", "--strict", str(path)]) == 1

    def test_json_envelope(self, tmp_path, capsys):
        path = tmp_path / "bad.pas"
        path.write_text(BAD_PROGRAM)
        assert main(["lint", "--json", str(path), "searchwf"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["errors"] == 1
        assert [t["file"] for t in report["targets"]] == \
            [str(path), "searchwf"]
        diagnostic = report["targets"][0]["diagnostics"][0]
        assert diagnostic["code"] == "nil-deref"
        assert diagnostic["severity"] == "error"
        assert diagnostic["line"] == 10
        assert report["targets"][1]["diagnostics"] == []

    def test_front_end_error_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.pas"
        path.write_text("program broken; begin x := ; end.")
        assert main(["lint", str(path)]) == 1
        assert "front-end" in capsys.readouterr().out


class TestAnalyze:
    def test_text_report_shows_slice_and_tracks(self, capsys):
        assert main(["analyze", "scan"]) == 0
        out = capsys.readouterr().out
        assert "program scan" in out
        assert "statements: " in out
        assert "- line " in out  # scan's dead copies of t
        assert "tracks: " in out
        assert "fingerprint: " in out

    def test_json_report(self, capsys):
        assert main(["analyze", "scan", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 2
        assert document["program"] == "scan"
        assert document["options"] == {"reduce": True, "slice": True}
        assert document["subgoals"]
        assert any(entry["statements_after"] <
                   entry["statements_before"]
                   for entry in document["subgoals"])
        for entry in document["subgoals"]:
            assert len(entry["fingerprint"]) == 64
            dropped = (entry["statements_before"]
                       - entry["statements_after"])
            assert len(entry["dropped_statements"]) == dropped
            assert "reordered" not in entry
            assert "variable_order" not in entry

    def test_no_slice_drops_nothing(self, capsys):
        assert main(["analyze", "scan", "--json",
                     "--no-slice"]) == 0
        document = json.loads(capsys.readouterr().out)
        for entry in document["subgoals"]:
            assert entry["statements_after"] == \
                entry["statements_before"]
            assert entry["dropped_statements"] == []

    def test_analyze_file(self, tmp_path, capsys):
        path = tmp_path / "prog.pas"
        path.write_text(ALL_PROGRAMS["reverse"])
        assert main(["analyze", str(path)]) == 0
        assert "subgoal(s)" in capsys.readouterr().out


class TestEngineFlags:
    @pytest.mark.parametrize("argv", [["verify", "scan"], ["table"],
                                      ["analyze", "scan"], ["serve"]],
                             ids=["verify", "table", "analyze", "serve"])
    def test_no_order_is_not_a_flag(self, argv, capsys):
        # Tracks are always registered in declaration order, so the
        # subcommands that share the engine flags have no ordering
        # switch; argparse rejects it before anything runs.
        with pytest.raises(SystemExit) as info:
            main(argv + ["--no-order"])
        assert info.value.code == 2
        assert "--no-order" in capsys.readouterr().err


class TestCacheFlags:
    def test_cold_then_warm_verify(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_hits"] == 0
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["valid"] is True
        assert warm["cache_hits"] == len(warm["subgoals"])
        assert warm["stats"] == cold["stats"]
        for subgoal in warm["subgoals"]:
            assert subgoal["cache"]["hit"] is True

    def test_no_cache_forces_cold_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache, "--no-cache"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cache_hits"] == 0
        for subgoal in document["subgoals"]:
            assert subgoal["cache"] is None

    def test_corrupt_cache_is_ignored(self, tmp_path, capsys):
        import pathlib
        cache = tmp_path / "cache"
        assert main(["verify", "scan", "--json",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        entries = list(pathlib.Path(cache).rglob("*.pkl"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"garbage")
        assert main(["verify", "scan", "--json",
                     "--cache-dir", str(cache)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["valid"] is True
        assert document["cache_hits"] == 0

    def test_warm_hit_marked_in_text_report(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", "scan", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["verify", "scan", "--cache-dir", cache]) == 0
        assert ", cached" in capsys.readouterr().out

    def test_table_cache_flags(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["table", "searchwf", "--json",
                     "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["table", "searchwf", "--json",
                     "--cache-dir", cache]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents[0]["cache_hits"] == \
            len(documents[0]["subgoals"])

    def test_parallel_workers_share_the_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache, "-j", "2"]) == 0
        capsys.readouterr()
        assert main(["verify", "scan", "--json",
                     "--cache-dir", cache, "-j", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["cache_hits"] == len(document["subgoals"])


class TestNoReduce:
    def test_verify_no_reduce(self, capsys):
        assert main(["verify", "searchwf", "--no-reduce", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tracks_before"] == report["tracks_after"] > 0

    def test_verify_reduce_default_drops_tracks(self, capsys):
        assert main(["verify", "reverse", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tracks_after"] < report["tracks_before"]
        for subgoal in report["subgoals"]:
            assert subgoal["tracks_after"] <= subgoal["tracks_before"]

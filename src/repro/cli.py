"""Command-line driver.

Usage::

    repro-verify verify FILE.pas [--verbose] [--no-simulate]
                                 [--profile] [--trace] [--json]
                                 [--no-reduce] [--no-slice]
                                 [--cache-dir DIR] [--no-cache]
                                 [--jobs N]
                                 [--timeout S] [--max-bdd-nodes N]
                                 [--max-states N] [--max-steps N]
    repro-verify table  [NAME ...] [--json] [--keep-going] [--jobs N]
                                   [engine flags] [budget flags]
    repro-verify analyze FILE.pas [--json] [--no-reduce] [--no-slice]
    repro-verify lint   FILE.pas [...] [--json] [--strict]
    repro-verify serve  [--port N | --unix-socket PATH] [--workers N]
                        [--max-concurrent N] [--max-queue N]
                        [--drain-grace S] [--hang-timeout S]
                        [engine flags] [cache flags] [budget flags]
    repro-verify show   NAME            # print a bundled example program
    repro-verify list                   # list the bundled programs

``serve`` runs the long-lived verification daemon: an HTTP+JSON API
(``POST /v1/verify``, ``POST /v1/batch``, ``GET /v1/jobs/<id>``,
``GET /healthz|/readyz|/v1/stats``) over a supervised worker pool
with admission control and graceful SIGTERM drain (see
``docs/ARCHITECTURE.md`` §12 and the README's "Running as a
service").  Its budget flags are per-request defaults *and* caps.

Observability flags (also triggered by the ``REPRO_TRACE=1``
environment variable, which acts like ``--trace``):

* ``--profile`` — per-subgoal phase timing tree (symbolic execution,
  translation, compilation, universality, counterexample work);
* ``--trace`` — additionally record per-operation spans (automaton
  products, projections, minimisations) for ``--json``;
* ``--json`` — emit the machine-readable run report instead of text.

Resource budgets (``--timeout``, ``--max-bdd-nodes``, ``--max-states``,
``--max-steps``) bound the decision procedure; a subgoal that trips a
limit degrades to a structured TIMEOUT/BUDGET_EXCEEDED outcome instead
of hanging (see ``docs/ARCHITECTURE.md`` §9).

``--jobs N`` (``-j N``) fans subgoals across N worker processes
(``table`` puts every program's subgoals into one pool), each idle
worker taking the next subgoal in submission order; ``-j 0`` means
one worker per CPU, and the default 1 keeps everything in-process.
Reports are verdict- and schema-identical either way
(``docs/ARCHITECTURE.md`` §10); under ``--timeout`` each program's
deadline is partitioned across its subgoals so a stuck worker cannot
starve its siblings.

Exit codes (``verify`` and ``table``): 0 verified, 1 failed with a
counterexample, 2 usage or front-end error, 3 degraded (a budget limit
tripped or an internal error was isolated), 130 interrupted by Ctrl-C
(with ``--json`` the partial report is still flushed).  ``lint`` exits
0 when no diagnostics (or only warnings, without ``--strict``) were
produced, 1 otherwise.

Engine escape hatches and A/B switches — verdicts are identical with
any combination (``tests/diffcheck.py --features`` proves it over the
whole corpus): ``--no-reduce`` disables the cone-of-influence track
reduction (:mod:`repro.analysis.coi`); ``--no-slice`` disables the
statement-level backward slice (:mod:`repro.analysis.slice`).

``--cache-dir DIR`` turns on the content-addressed verdict cache
(:mod:`repro.verify.cache`): decided subgoals are stored under DIR
keyed by their content fingerprint and replayed on later runs whose
fingerprints match; ``--no-cache`` ignores ``--cache-dir`` (e.g. to
force a cold run against a populated directory).  ``repro analyze``
prints what the engine *would* do per subgoal — slice sizes, dropped
statements, kept/dropped tracks, fingerprint — without deciding
anything.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Union

from repro.errors import ReproError
from repro.obs import trace as obs_trace
from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS, TABLE_PROGRAMS, load_source
from repro.robust import faults
from repro.robust.budget import BudgetExceeded
from repro.verify import (Outcome, VerificationResult, Verifier,
                          verify_source)
from repro.verify.report import (format_json, format_result,
                                 format_table, format_timing_tree)

_EXIT_CODES_HELP = """\
exit codes:
  0    verified — every subgoal decided valid
  1    failed — some subgoal has a counterexample
  2    usage or front-end error (unreadable source, parse, type,
       annotation)
  3    degraded — a budget limit tripped (TIMEOUT/BUDGET_EXCEEDED)
       or an internal error was isolated to a subgoal (ERROR)
  130  interrupted (Ctrl-C); with --json the partial report is
       still flushed
"""


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Verify pointer programs with monadic second-order "
                    "logic (PLDI 1997 reproduction).")
    commands = parser.add_subparsers(dest="command", required=True)

    verify_cmd = commands.add_parser(
        "verify", help="verify an annotated Pascal program",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    verify_cmd.add_argument("file", help="path to the .pas source, or a "
                                         "bundled program name")
    verify_cmd.add_argument("--verbose", action="store_true",
                            help="list every obligation per subgoal")
    verify_cmd.add_argument("--no-simulate", action="store_true",
                            help="skip concrete simulation of "
                                 "counterexamples")
    verify_cmd.add_argument("--profile", action="store_true",
                            help="print a per-subgoal phase timing tree")
    verify_cmd.add_argument("--trace", action="store_true",
                            help="record per-operation spans (products, "
                                 "projections, minimisations); implies "
                                 "--profile unless --json is given")
    verify_cmd.add_argument("--json", action="store_true",
                            help="emit the machine-readable JSON run "
                                 "report instead of the text report")
    _add_engine_flags(verify_cmd)
    _add_cache_flags(verify_cmd)
    _add_jobs_flag(verify_cmd)
    _add_budget_flags(verify_cmd)

    table_cmd = commands.add_parser(
        "table", help="regenerate the paper's statistics table",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    table_cmd.add_argument("names", nargs="*",
                           help="program subset (default: the paper's "
                                "six table programs)")
    table_cmd.add_argument("--json", action="store_true",
                           help="emit one JSON run report per program "
                                "instead of the text table")
    _add_engine_flags(table_cmd)
    _add_cache_flags(table_cmd)
    table_cmd.add_argument("--keep-going", action="store_true",
                           help="record a front-end error as an ERROR "
                                "row and continue with the remaining "
                                "programs instead of aborting")
    _add_jobs_flag(table_cmd)
    _add_budget_flags(table_cmd)

    analyze_cmd = commands.add_parser(
        "analyze", help="report per-subgoal slices, track reductions "
                        "and cache fingerprints without deciding "
                        "anything")
    analyze_cmd.add_argument("file", help="path to the .pas source, or "
                                          "a bundled program name")
    analyze_cmd.add_argument("--json", action="store_true",
                             help="emit the machine-readable JSON "
                                  "analysis report")
    _add_engine_flags(analyze_cmd)

    lint_cmd = commands.add_parser(
        "lint", help="run the static pointer lints over programs")
    lint_cmd.add_argument("files", nargs="+",
                          help="paths to .pas sources, or bundled "
                               "program names")
    lint_cmd.add_argument("--json", action="store_true",
                          help="emit the machine-readable JSON "
                               "diagnostics report")
    lint_cmd.add_argument("--strict", action="store_true",
                          help="exit nonzero on warnings too, not "
                               "just errors")

    show_cmd = commands.add_parser(
        "show", help="print a bundled example program")
    show_cmd.add_argument("name", choices=sorted(ALL_PROGRAMS))

    synth_cmd = commands.add_parser(
        "synth", help="synthesize the smallest well-formed store "
                      "satisfying a store-logic formula")
    synth_cmd.add_argument("formula",
                           help="e.g. 'x<next*>p & <(List:blue)?>p'")
    synth_cmd.add_argument("--program", default="reverse",
                           help="bundled program or .pas file whose "
                                "schema (types and variables) to use "
                                "[default: reverse]")

    serve_cmd = commands.add_parser(
        "serve", help="run the long-lived verification daemon "
                      "(HTTP+JSON API over a supervised worker pool)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="TCP bind address [default: "
                                "127.0.0.1]")
    serve_cmd.add_argument("--port", type=int, default=8421,
                           help="TCP port [default: 8421]")
    serve_cmd.add_argument("--unix-socket", metavar="PATH",
                           help="listen on a unix socket instead of "
                                "TCP (stale sockets are replaced; "
                                "the file is removed on shutdown)")
    serve_cmd.add_argument("--workers", type=int, default=2,
                           metavar="N",
                           help="supervised worker processes; 0 = "
                                "one per CPU [default: 2]")
    serve_cmd.add_argument("--max-concurrent", type=int, default=4,
                           metavar="N",
                           help="requests verifying at once; more "
                                "wait in the queue [default: 4]")
    serve_cmd.add_argument("--max-queue", type=int, default=16,
                           metavar="N",
                           help="requests allowed to wait; beyond "
                                "this, 429 + Retry-After [default: "
                                "16]")
    serve_cmd.add_argument("--drain-grace", type=float, default=10.0,
                           metavar="SECONDS",
                           help="on SIGTERM, seconds in-flight "
                                "requests get before stragglers are "
                                "completed as ERROR rows [default: "
                                "10]")
    serve_cmd.add_argument("--hang-timeout", type=float, default=30.0,
                           metavar="SECONDS",
                           help="a busy worker silent for this long "
                                "is declared hung and replaced "
                                "[default: 30]")
    _add_engine_flags(serve_cmd)
    _add_cache_flags(serve_cmd)
    _add_budget_flags(serve_cmd)
    serve_cmd.set_defaults(timeout=60.0)

    commands.add_parser("list", help="list the bundled programs")

    args = parser.parse_args(argv)
    try:
        previous_plan = faults.install_from_env()
    except faults.FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except BudgetExceeded as exc:
        # A budget trip outside the engine's retry ladder (e.g. in
        # `synth`) is still a structured degradation, not an error.
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        # The plan lives for this call only: an in-process caller
        # gets back whatever plan it had before.
        faults.install(previous_plan)


def _add_engine_flags(command: argparse.ArgumentParser) -> None:
    """The verdict-preserving engine switches shared by verify, table,
    analyze and serve."""
    command.add_argument("--no-reduce", action="store_true",
                         help="keep every variable track (disable "
                              "the cone-of-influence reduction)")
    command.add_argument("--no-slice", action="store_true",
                         help="keep every statement (disable the "
                              "backward statement slice)")


def _add_cache_flags(command: argparse.ArgumentParser) -> None:
    """The verdict-cache flags shared by verify and table."""
    command.add_argument("--cache-dir", metavar="DIR",
                         help="store and replay decided subgoals "
                              "under DIR, keyed by content "
                              "fingerprint [default: no caching]")
    command.add_argument("--no-cache", action="store_true",
                         help="ignore --cache-dir (force a cold, "
                              "uncached run)")
    command.add_argument("--cache-max-mb", type=float, metavar="MB",
                         help="LRU size cap for the verdict cache; "
                              "least-recently-used entries are "
                              "evicted past the cap [default: "
                              "unbounded]")


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    return None if args.no_cache else args.cache_dir


def _add_jobs_flag(command: argparse.ArgumentParser) -> None:
    """The parallel-execution flag shared by verify and table."""
    command.add_argument("-j", "--jobs", type=int, default=1,
                         metavar="N",
                         help="decide subgoals across N worker "
                              "processes (table: one pool for every "
                              "program); 0 = one per CPU [default: 1, "
                              "sequential]")


def _add_budget_flags(command: argparse.ArgumentParser) -> None:
    """The resource-budget flags shared by verify and table."""
    command.add_argument("--timeout", type=float, metavar="SECONDS",
                         help="wall-clock budget for the whole run; "
                              "subgoals past the deadline degrade to "
                              "TIMEOUT instead of hanging")
    command.add_argument("--max-bdd-nodes", type=int, metavar="N",
                         help="cap on BDD nodes per decision attempt "
                              "(trips BUDGET_EXCEEDED)")
    command.add_argument("--max-states", type=int, metavar="N",
                         help="cap on any single automaton's states "
                              "(trips BUDGET_EXCEEDED)")
    command.add_argument("--max-steps", type=int, metavar="N",
                         help="deterministic fuel: cap on cooperative "
                              "work steps (trips BUDGET_EXCEEDED)")


def _budget_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    return {"timeout": args.timeout,
            "max_bdd_nodes": args.max_bdd_nodes,
            "max_states": args.max_states,
            "max_steps": args.max_steps}


def _exit_code(result: VerificationResult) -> int:
    """Map one run's outcome to the documented exit code."""
    outcome = result.outcome
    if outcome is Outcome.VERIFIED:
        return 0
    if outcome is Outcome.FAILED:
        return 1
    if outcome is Outcome.INTERRUPTED:
        return 130
    return 3


def _combined_exit_code(results: List[VerificationResult],
                        interrupted: bool) -> int:
    """Table exit code: interrupt dominates, then a genuine failure,
    then any degradation, then success."""
    codes = {_exit_code(result) for result in results}
    if interrupted or 130 in codes:
        return 130
    if 1 in codes:
        return 1
    if 3 in codes:
        return 3
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for name in ALL_PROGRAMS:
            print(name)
        return 0
    if args.command == "show":
        print(ALL_PROGRAMS[args.name], end="")
        return 0
    if args.command == "table":
        return _table(args)
    if args.command == "lint":
        return _lint(args.files, as_json=args.json, strict=args.strict)
    if args.command == "verify":
        from repro.parallel import resolve_jobs

        source = load_source(args.file)
        tracer = _make_tracer(args)
        result = verify_source(source, simulate=not args.no_simulate,
                               reduce=not args.no_reduce,
                               slice=not args.no_slice,
                               cache_dir=_cache_dir(args),
                               cache_max_mb=args.cache_max_mb,
                               tracer=tracer,
                               jobs=resolve_jobs(args.jobs),
                               **_budget_kwargs(args))
        if args.json:
            print(format_json(result))
        else:
            print(format_result(result, verbose=args.verbose))
            if tracer is not None:
                print()
                print(format_timing_tree(result))
        return _exit_code(result)
    if args.command == "analyze":
        return _analyze(args)
    if args.command == "synth":
        return _synthesize(args.formula, args.program)
    if args.command == "serve":
        from repro.serve.daemon import serve_command
        return serve_command(args)
    raise AssertionError(f"unhandled command {args.command}")


def _table(args: argparse.Namespace) -> int:
    """Verify the table corpus; always flush the (possibly partial)
    report, even when interrupted mid-corpus.

    Every program's front end runs here, in input order, so a
    ``--keep-going`` error row comes from the one ``except`` below.
    Sequentially each program is then verified in turn; under
    ``--jobs`` its subgoals go to one pool the whole table shares,
    and the programs are gathered in input order."""
    from repro.parallel import SubgoalFanOut, open_pool, resolve_jobs

    names = args.names or list(TABLE_PROGRAMS)
    jobs = resolve_jobs(args.jobs)
    pool = open_pool(jobs) if jobs > 1 else None
    runs: List[Union[VerificationResult, SubgoalFanOut]] = []
    results: List[VerificationResult] = []
    interrupted = clean = False
    try:
        for name in names:
            try:
                verifier = Verifier(
                    check_program(parse_program(load_source(name))),
                    reduce=not args.no_reduce, slice=not args.no_slice,
                    cache_dir=_cache_dir(args),
                    cache_max_mb=args.cache_max_mb,
                    **_budget_kwargs(args))
                if pool is not None:
                    runs.append(SubgoalFanOut(
                        pool, verifier, verifier.collect_subgoals()))
                    continue
                result = verifier.verify()
            except KeyboardInterrupt:
                interrupted = True
                break
            except ReproError as exc:
                if not args.keep_going:
                    raise
                result = VerificationResult(program=name, error=str(exc))
            runs.append(result)
            if result.interrupted:
                break
        # A parallel table interrupted in its front end has decided
        # nothing, so there is nothing to gather.
        if pool is None or not interrupted:
            for run in runs:
                result = (run.result() if isinstance(run, SubgoalFanOut)
                          else run)
                results.append(result)
                if result.interrupted:
                    interrupted = True
                    break
        clean = not interrupted
    finally:
        if pool is not None:
            # Terminating instead of draining an interrupted or failed
            # table leaves no worker behind.
            pool.close(drain=clean)
    if args.json:
        import json as _json
        print(_json.dumps([result.to_dict() for result in results],
                          indent=2))
    else:
        print(format_table(results))
        if interrupted:
            print(f"interrupted after {len(results)} of {len(names)} "
                  f"programs", file=sys.stderr)
    return _combined_exit_code(results, interrupted)


def _analyze(args: argparse.Namespace) -> int:
    """Print the engine's per-subgoal preparation (slices, cones,
    fingerprints) without deciding anything."""
    program = check_program(parse_program(load_source(args.file)))
    verifier = Verifier(program,
                        reduce=not args.no_reduce,
                        slice=not args.no_slice)
    report = verifier.analyze()
    if args.json:
        import json as _json
        print(_json.dumps(report, indent=2))
        return 0
    options = report["options"]
    switches = ", ".join(f"{name} {'on' if value else 'off'}"
                         for name, value in options.items())
    subgoals = report["subgoals"]
    print(f"program {report['program']} — {len(subgoals)} subgoal(s) "
          f"({switches})")
    for index, entry in enumerate(subgoals):
        print(f"\n[{index}] {entry['description']}")
        before, after = (entry["statements_before"],
                         entry["statements_after"])
        print(f"  statements: {before} -> {after} "
              f"(dropped {before - after})")
        for dropped in entry["dropped_statements"]:
            print(f"    - line {dropped['line']}: {dropped['text']}")
        print(f"  tracks: {entry['tracks_before']} -> "
              f"{entry['tracks_after']}"
              + (f" (dropped vars: "
                 f"{', '.join(entry['dropped_vars'])})"
                 if entry["dropped_vars"] else ""))
        print(f"  fingerprint: {entry['fingerprint']}")
    return 0


def _lint(files: List[str], as_json: bool, strict: bool) -> int:
    """Lint sources; exit 1 on errors (with --strict, on anything)."""
    from repro.analysis import Severity, lint_source

    targets = []
    errors = warnings = 0
    for spec in files:
        diagnostics = lint_source(load_source(spec))
        file_errors = sum(1 for d in diagnostics
                          if d.severity is Severity.ERROR)
        file_warnings = len(diagnostics) - file_errors
        errors += file_errors
        warnings += file_warnings
        targets.append({
            "file": spec,
            "diagnostics": [d.to_dict() for d in diagnostics],
            "errors": file_errors,
            "warnings": file_warnings,
        })
        if not as_json:
            for diagnostic in diagnostics:
                print(f"{spec}:{diagnostic}")
    if as_json:
        import json as _json
        print(_json.dumps({
            "schema_version": 1,
            "targets": targets,
            "errors": errors,
            "warnings": warnings,
        }, indent=2))
    elif errors or warnings:
        print(f"{errors} error(s), {warnings} warning(s) in "
              f"{len(files)} file(s)")
    return 1 if errors or (strict and warnings) else 0


def _make_tracer(args: argparse.Namespace) -> Optional[obs_trace.Tracer]:
    """A tracer when any observability output was requested.

    ``--trace`` (or ``REPRO_TRACE=1``) records per-operation detail
    spans; ``--profile`` and ``--json`` need only the phase spans.
    """
    env_tracer = obs_trace.tracer_from_env()
    if args.trace or env_tracer is not None:
        return obs_trace.Tracer(detail=True)
    if args.profile or args.json:
        return obs_trace.Tracer(detail=False)
    return None


def _synthesize(formula_text: str, program_name: str) -> int:
    """Model finding: the smallest well-formed store satisfying a
    formula, over the schema of the given program."""
    from repro.mso.build import FormulaBuilder
    from repro.mso.compile import Compiler
    from repro.storelogic import check_formula, parse_formula
    from repro.storelogic.translate import translate_formula
    from repro.stores import decode_store, render_store, render_symbols
    from repro.symbolic.layout import TrackLayout
    from repro.symbolic.state import initial_store
    from repro.symbolic.wf import wf_string

    program = check_program(parse_program(load_source(program_name)))
    schema = program.schema
    formula = check_formula(parse_formula(formula_text), schema)
    compiler = Compiler()
    layout = TrackLayout(schema)
    layout.register(compiler)
    state = initial_store(schema, layout)
    automaton = compiler.compile(FormulaBuilder.and_(
        wf_string(layout), translate_formula(formula, state)))
    word = automaton.shortest_accepted()
    if word is None:
        print("unsatisfiable: no well-formed store satisfies the "
              "formula")
        return 1
    symbols = layout.word_to_symbols(word, compiler.tracks())
    print("string:", render_symbols(symbols))
    print(render_store(decode_store(schema, symbols)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

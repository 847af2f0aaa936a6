"""One pass of a cold workload, in a fresh process.

Usage: ``python3 perfbench/cold_pass.py WORKLOAD TRACE SPANS_DIR NAME...``

Verifies the named programs one after another with the verdict cache
off, then, outside the timed region, gathers what the checks need.
Prints one JSON object: per-program reports and times, the pass's
peak resident memory, the clock readings of its start and of the end
of ``import repro``, and with ``TRACE`` 1 the wrapper totals.  An
import failure is reported as ``{"import_error": ...}``.
"""

import json
import resource
import sys
import time

STARTED = time.perf_counter()

import checkout  # noqa: E402 — the start time is read first
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _source(workload, name, bundled):
    if workload == "corpus-cold":
        return bundled[name]
    return workloads.generated_source(name)


def main(argv) -> int:
    workload, trace, spans_dir, names = (argv[0], argv[1] == "1",
                                         argv[2], argv[3:])
    try:
        checkout.import_repro()
        from repro.pascal import check_program, parse_program
        from repro.programs import ALL_PROGRAMS
        from repro.verify import verify_source
    except ImportError as exc:
        print(json.dumps({"import_error": str(exc)}))
        return 0
    imported = time.perf_counter()
    recorder = tracing.Recorder(spans_dir)
    installation = tracing.install(recorder) if trace else None
    runs = []
    try:
        for name in names:
            source = _source(workload, name, ALL_PROGRAMS)
            started = time.perf_counter()
            try:
                result, error = verify_source(source), None
            except Exception as exc:  # noqa: BLE001 — counted, not raised
                result, error = None, f"{type(exc).__name__}: {exc}"
            runs.append((name, source, result, error, started,
                         time.perf_counter()))
    finally:
        if installation is not None:
            tracing.uninstall(installation)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    batch = tracing.encode(recorder.spans)
    recorder.flush()

    programs = []
    for name, source, result, error, started, finished in runs:
        entry = {"name": name, "seconds": finished - started,
                 "error": error}
        if result is not None:
            report = result.to_dict()
            counterexample = result.counterexample
            report["counterexample_length"] = (
                None if counterexample is None
                else len(counterexample.symbols))
            program = check_program(parse_program(source))
            entry["replay"] = [
                problem for subgoal in result.results
                if subgoal.outcome.value == "FAILED"
                for problem in checks.replay_problems(program, subgoal)]
            entry["report"] = report
            if trace:
                calls = tracing.layer_totals(
                    [batch], since=started, until=finished)["calls"]
                entry["wrapped"] = {
                    "minimizations": calls.get("automata.minimize", 0),
                    "projections": calls.get("automata.project", 0)}
                entry["reported"] = checks.computed_counts([report])
        programs.append(entry)
    document = {
        "started": STARTED,
        "imported": imported,
        "pass_s": sum(entry["seconds"] for entry in programs),
        "peak_rss_mb": peak_kb / 1024.0,
        "programs": programs,
    }
    if trace:
        document["layers"] = tracing.layer_totals([batch])
        document["missing"] = installation.missing
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The verifier's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload corpus-cold --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's entry points and reports the
per-layer split instead (README.md).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; progress and tables go to standard error.
When ``repro`` cannot be imported from the checkout, or a set-up step
fails, the run reports on standard error that every operation failed
and exits with code 2 without a result.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def _process_start() -> float:
    """The ``perf_counter`` reading at this process's start, from the
    start time the kernel records (clock ticks since boot); the time
    this module began running when that is unavailable."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])
        since = (time.clock_gettime(time.CLOCK_BOOTTIME)
                 - ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError, AttributeError):
        return now
    return now - since if 0.0 <= since < 60.0 else now


PROCESS_START = _process_start()

import checkout  # noqa: E402 — the start time is read first
import checks  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("corpus-cold", "scaling-cold", "serve-warm")

#: Unit of every end-to-end metric an untraced run prints, on every
#: workload.
END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}

#: Passes are not started once the run would pass this many seconds,
#: so that a run ends within three minutes whatever ``--seconds`` is.
HARD_LIMIT = 140.0
PASS_TIMEOUT = 170.0

#: Unit of every per-layer metric a traced run prints.
LAYER_UNITS = dict(
    [(name, "s") for name in tracing.LAYER_TIMES]
    + [(name, "count") for name in tracing.LAYER_CALLS]
    + [(name, "count") for name in tracing.LAYER_FLAGS]
    + [("bdd.apply.misses", "count"), ("bdd.apply.lookups", "count"),
       ("bdd.apply.hit_rate", "ratio"), ("bdd.map.misses", "count"),
       ("bdd.restrict.misses", "count"), ("bdd.peak_nodes", "count"),
       ("mso.compiled_nodes", "count"), ("mso.max_states", "count"),
       ("verify.formula_size", "count"),
       ("serve.admitted_s", "s"), ("serve.outside_s", "s"),
       ("serve.pool.retries", "count"), ("serve.request_p95_ms", "ms"),
       ("bench.trace_overhead", "ratio")])


class SetupFailed(Exception):
    """No operation could be attempted (no ``repro`` to import, a
    daemon that does not start, a pass process that never answers)."""


def _log(message) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Cold workloads
# ----------------------------------------------------------------------

def _run_pass(workload, names, traced, spans_dir) -> dict:
    command = [sys.executable, os.path.join(checkout.HERE, "cold_pass.py"),
               workload, "1" if traced else "0", spans_dir] + list(names)
    try:
        finished = subprocess.run(
            command, cwd=checkout.ROOT, env=checkout.child_environment(),
            stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass did not end within {PASS_TIMEOUT:g}s"}
    lines = finished.stdout.strip().splitlines()
    try:
        document = json.loads(lines[-1]) if lines else None
    except ValueError:
        document = None
    if finished.returncode != 0 or not isinstance(document, dict):
        tail = finished.stderr.strip().splitlines()[-5:]
        return {"crashed": f"pass exited with code {finished.returncode}: "
                           + " | ".join(tail)}
    if "import_error" in document:
        raise SetupFailed(f"repro cannot be imported: "
                          f"{document['import_error']}")
    return document


def _program_problems(workload, entry) -> list:
    if entry.get("error"):
        return [entry["error"]]
    name, report = entry["name"], entry["report"]
    problems = checks.verdict_problems(
        report, workloads.known_verdicts(workload)[name],
        workloads.COUNTEREXAMPLE_LENGTHS.get(name))
    problems += entry.get("replay", [])
    if "wrapped" in entry:
        problems += checks.call_count_problems(entry["wrapped"],
                                               entry["reported"])
    return problems


def _paper_rows(rows, note="") -> None:
    """The paper's §6 row of each ``(name, seconds, report)``: time,
    formula size, largest automaton (states) and largest transition
    BDD (nodes)."""
    _log(f"{'program':10} {'seconds':>8} {'formula':>8} {'states':>7} "
         f"{'nodes':>7}{note}")
    for name, seconds, report in rows:
        _log(f"{name:10} {seconds:8.3f} {report.get('formula_size', 0):8} "
             f"{report.get('max_states', 0):7} "
             f"{report.get('max_nodes', 0):7}")


def run_cold(workload, seconds, seed, trace) -> dict:
    names = workloads.programs(workload)
    spans_dir = "-"
    if trace:
        spans_dir = os.path.join(checkout.OUTPUT,
                                 f"trace-{workload}-seed{seed}")
        os.makedirs(spans_dir, exist_ok=True)
        for entry in os.listdir(spans_dir):
            os.remove(os.path.join(spans_dir, entry))
    plain, traced, problems = [], [], []
    attempted = failed = 0
    setup_s = measured_from = None
    longest = 0.0
    while True:
        tracing_this = trace and len(plain) > len(traced)
        started = time.perf_counter()
        document = _run_pass(workload, names, tracing_this, spans_dir)
        longest = max(longest, time.perf_counter() - started)
        attempted += len(names)
        if "crashed" in document:
            failed += len(names)
            problems.append(document["crashed"])
        else:
            if setup_s is None:
                setup_s = document["imported"] - PROCESS_START
                measured_from = document["imported"]
            for entry in document["programs"]:
                found = _program_problems(workload, entry)
                if found:
                    failed += 1
                    problems.append(f"{entry['name']}: {found[0]}")
            (traced if tracing_this else plain).append(document)
        if measured_from is None:
            raise SetupFailed(f"the first pass failed: {problems[-1]}")
        # The next pass is expected to take as long as the longest so
        # far; it is started only if it would end within the run.
        ends = time.perf_counter() - measured_from + longest
        if ends > HARD_LIMIT:
            break
        if trace and not (plain and traced):
            continue
        if ends > seconds:
            break
    outcome = {"attempted": attempted, "failed": failed,
               "problems": problems, "run_problems": []}
    if not plain:
        raise SetupFailed(f"every pass failed: {problems[-1]}")
    _log(f"{workload}: passes of "
         + ", ".join(f"{document['pass_s']:.2f}s" for document in plain))
    if not trace:
        outcome["metrics"] = {
            "setup_s": setup_s,
            "round_s": measure.median(
                [document["pass_s"] for document in plain]),
            "peak_rss_mb": measure.median(
                [document["peak_rss_mb"] for document in plain]),
        }
        return outcome
    _paper_rows((entry["name"], entry["seconds"], entry.get("report", {}))
                for entry in plain[0]["programs"])
    if not traced:
        raise SetupFailed(f"no traced pass succeeded: {problems[-1]}")
    per_pass = [dict(tracing.layer_metrics(document["layers"], 1),
                     **tracing.report_metrics(
                         [entry["report"] for entry in document["programs"]
                          if "report" in entry], 1))
                for document in traced]
    layers = {name: sum(values[name] for values in per_pass)
              / len(per_pass) for name in per_pass[0]}
    layers.update({"serve.admitted_s": 0.0, "serve.outside_s": 0.0,
                   "serve.pool.retries": 0.0,
                   "serve.request_p95_ms": 0.0})
    layers["bench.trace_overhead"] = (
        measure.median([document["pass_s"] for document in traced])
        / measure.median([document["pass_s"] for document in plain]))
    outcome["layers"] = layers
    outcome["missing"] = traced[0].get("missing", [])
    _log(f"spans written to {spans_dir}")
    return outcome


# ----------------------------------------------------------------------
# serve-warm
# ----------------------------------------------------------------------

def run_serve(seconds, seed, trace) -> dict:
    import http.client

    import serve_warm

    try:
        if not trace:
            return serve_warm.run(seconds, seed, PROCESS_START)
        spans_out = os.path.join(checkout.OUTPUT,
                                 f"trace-serve-warm-seed{seed}")
        outcome = serve_warm.run_traced(seconds, seed, spans_out)
    except (RuntimeError, OSError, ValueError,
            http.client.HTTPException) as exc:
        raise SetupFailed(f"serve-warm set-up failed: {exc}") from exc
    _paper_rows(((report["program"], report["seconds"], report)
                 for report in outcome.pop("fill_reports")),
                "   (cold fill, two workers)")
    _log(f"spans written to {spans_out}")
    return outcome


# ----------------------------------------------------------------------

def _result(outcome, trace) -> dict:
    correct = not outcome["problems"] and not outcome["run_problems"]
    values = outcome["layers" if trace else "metrics"]
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"correct": correct, "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(checkout.ROOT)
    try:
        if not checkout.has_repro():
            raise SetupFailed(f"no repro package under {checkout.SRC}")
        if args.workload == "serve-warm":
            outcome = run_serve(args.seconds, args.seed, args.trace)
        else:
            outcome = run_cold(args.workload, args.seconds, args.seed,
                               args.trace)
    except (ImportError, SetupFailed) as exc:
        # One round: a pass, or a cycle through the request mix.
        count = len(workloads.programs(args.workload))
        _log(f"{args.workload}: {exc}")
        _log(f"{args.workload}: {count} operations attempted, {count} "
             f"failed; outputs wrong; no result")
        return 2
    for problem in (outcome["run_problems"] + outcome["problems"])[:20]:
        _log(f"problem: {problem}")
    for target in outcome.get("missing", []):
        _log(f"not wrapped (missing): {target}")
    print(json.dumps(_result(outcome, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

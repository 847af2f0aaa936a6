"""Correctness checks made apart from the program under test.

Each check takes the program's outputs (its JSON run reports, or for
counterexamples the objects it returned) and the known answer, and
returns a list of problems; an empty list means the output is right.
No check compares against a stored copy of earlier output, and none
looks at a time.
"""

DEGRADED = frozenset({"TIMEOUT", "BUDGET_EXCEEDED", "ERROR",
                      "INTERRUPTED"})

#: Report keys that legitimately differ between a cold verification
#: and a replay of it from the verdict cache: times, the cache trace,
#: and per-subgoal budget consumption (a replay takes no steps).
VOLATILE_KEYS = frozenset({"seconds", "cache", "cache_hits"})
VOLATILE_SUBGOAL_KEYS = VOLATILE_KEYS | {"budget"}


def verdict_problems(report, expected_valid, cex_length=None) -> list:
    """A run report against the known verdict: no degraded outcome,
    the expected verdict, and a counterexample of the expected length
    (in symbols, as ``report["counterexample_length"]``) exactly when
    the program fails."""
    problems = []
    if report.get("error"):
        problems.append(f"front-end error: {report['error']}")
    degraded = sorted({subgoal["outcome"] for subgoal in
                       report.get("subgoals", ())} & DEGRADED)
    if degraded or report.get("outcome") in DEGRADED:
        problems.append(f"degraded outcome {degraded or report['outcome']}")
    if report.get("valid") is not expected_valid:
        problems.append(f"verdict valid={report.get('valid')}, known "
                        f"answer valid={expected_valid}")
    if cex_length is not None and \
            report.get("counterexample_length") != cex_length:
        problems.append(f"counterexample of "
                        f"{report.get('counterexample_length')} symbols, "
                        f"known length {cex_length}")
    return problems


def replay_problems(program, subgoal_result) -> list:
    """Replay a failed subgoal's counterexample through the concrete
    interpreter (:mod:`repro.exec`) and the store-logic evaluator
    (:mod:`repro.storelogic.eval`, behind each obligation's concrete
    check), which share no code with the automaton pipeline.

    The counterexample must be a well-formed store satisfying every
    assumption, and running the subgoal's statements on it must end
    in a runtime error, a store that is not well-formed, or a false
    check obligation.
    """
    from repro.errors import ExecutionError
    from repro.exec.interpreter import Interpreter

    counterexample = subgoal_result.counterexample
    if counterexample is None:
        return ["failed subgoal without a counterexample"]
    subgoal = subgoal_result.subgoal
    initial = counterexample.store
    problems = [f"counterexample store is not well-formed: {problem}"
                for problem in initial.violations()]
    for item in subgoal.assume:
        if item.concrete is not None and not item.concrete(initial):
            problems.append(f"counterexample violates {item.name}")
    final = initial.clone()
    try:
        Interpreter(program).run_statements(final, subgoal.statements)
    except ExecutionError:
        return problems
    if final.violations():
        return problems
    if any(item.concrete is not None and not item.concrete(final)
           for item in subgoal.check):
        return problems
    return problems + ["counterexample replays without a failure"]


def computed_counts(reports) -> dict:
    """The ``minimizations`` and ``projections`` of run reports, over
    the subgoals computed rather than replayed from the cache."""
    counts = {"minimizations": 0, "projections": 0}
    for report in reports:
        for subgoal in report["subgoals"]:
            if not (subgoal.get("cache") or {}).get("hit"):
                for key in counts:
                    counts[key] += subgoal["stats"][key]
    return counts


def call_count_problems(wrapped, reported) -> list:
    """Calls the wrappers counted against the counters of the
    program's own reports (``{"minimizations": n, ...}`` each)."""
    return [f"wrappers counted {wrapped[key]} {key}, the reports "
            f"{reported[key]}"
            for key in sorted(reported) if wrapped.get(key) != reported[key]]


def normalized(report):
    """A run report without its volatile keys."""
    document = {key: value for key, value in report.items()
                if key not in VOLATILE_KEYS}
    document["subgoals"] = [
        {key: value for key, value in subgoal.items()
         if key not in VOLATILE_SUBGOAL_KEYS}
        for subgoal in report.get("subgoals", ())]
    return document


def warm_problems(warm, cold) -> list:
    """A warm report must hit the cache on every subgoal and, without
    its volatile keys, equal the cold report of the same program."""
    problems = []
    subgoals = warm.get("subgoals") or []
    if not subgoals:
        problems.append("warm report has no subgoals")
    missed = [index for index, subgoal in enumerate(subgoals)
              if not (subgoal.get("cache") or {}).get("hit")]
    if missed:
        problems.append(f"cache missed on subgoals {missed}")
    if normalized(warm) != normalized(cold):
        differing = sorted(
            key for key in set(warm) | set(cold)
            if key not in VOLATILE_KEYS and warm.get(key) != cold.get(key))
        problems.append(f"warm report differs from the cold one "
                        f"({', '.join(differing)})")
    return problems


def daemon_stats_problems(stats, client_hits, filled_subgoals) -> list:
    """``/v1/stats`` against what the client saw: every hit the client
    saw, and one miss per subgoal set-up computed."""
    cache = stats.get("cache") or {}
    problems = []
    if cache.get("hits") != client_hits:
        problems.append(f"daemon counts {cache.get('hits')} cache hits, "
                        f"the client saw {client_hits}")
    if cache.get("misses") != filled_subgoals:
        problems.append(f"daemon counts {cache.get('misses')} cache "
                        f"misses, set-up filled {filled_subgoals}")
    return problems

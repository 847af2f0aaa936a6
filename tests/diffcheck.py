"""Differential test harness: parallel verification must be
observationally equivalent to sequential verification.

The parallel executor (``repro.parallel``) is only allowed to change
*wall-clock time*.  This harness enforces that contract the way the
bounded-model-checking and simulation literatures validate their
engines — by cross-checking verdicts against the reference procedure:

* run every corpus program through ``verify --json`` sequentially and
  with ``-j 2`` / ``-j 4``, normalize the reports (strip timings —
  the only field allowed to differ), and assert the documents are
  **identical**: verdicts, outcomes, counterexamples, per-subgoal
  compilation statistics, span structure, schema;
* do the same for ``table --json`` over the whole corpus;
* a deterministic-seed **stress mode** re-runs the corpus under
  injected faults and 1-second budgets with workers enabled — single
  programs through ``verify -j`` and the whole name list through
  ``table --jobs`` — and asserts every run still degrades
  structurally: no raw traceback on stderr, only structured outcomes
  in every report, and no orphaned worker process after the run;
* a **feature mode** (``--features``) cross-checks the engine's
  verdict-preserving optimisations the same way: every program with
  statement slicing + track reduction + a cold verdict cache, then a
  warm cache replay, against the same run with all of them off
  (``--no-slice --no-reduce``, so a fault in the relevance pass
  cannot sit on both sides) — verdicts, outcomes and failure presence
  must be identical (the comparison is verdict-level, see
  :func:`verdict_view`); the warm run must answer every subgoal from
  the cache, and its normalized report must equal the cold run's.

Usable three ways: imported by the pytest suite (a fast subset), run
as a script by CI's ``parallel-smoke`` job (the full corpus), or run
by hand while hacking on the executor::

    PYTHONPATH=src:tests python tests/diffcheck.py --jobs 2 4
    PYTHONPATH=src:tests python tests/diffcheck.py --stress --seed 1997
    PYTHONPATH=src:tests python tests/diffcheck.py --features
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import random
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cli import main as cli_main
from repro.programs import ALL_PROGRAMS
from repro.robust import faults

#: Keys whose values legitimately differ between runs: wall-clock
#: durations (top-level, per subgoal, per span, inside budget
#: consumption records, and as span annotations) and verdict-cache
#: bookkeeping (a sequential reference run warms the cache the
#: parallel run then hits).
VOLATILE_KEYS = frozenset({"seconds", "cache", "cache_hits"})

#: Outcomes a degraded-but-structured run may report.
STRUCTURED_OUTCOMES = frozenset({
    "VERIFIED", "FAILED", "TIMEOUT", "BUDGET_EXCEEDED", "ERROR",
    "INTERRUPTED",
})


def normalize(document):
    """Strip the volatile (timing) keys from a report, recursively.

    Everything that remains — verdicts, outcomes, counterexamples,
    per-subgoal stats, span names/attrs/structure — must be
    byte-identical between sequential and parallel runs.
    """
    if isinstance(document, dict):
        return {key: normalize(value) for key, value in document.items()
                if key not in VOLATILE_KEYS}
    if isinstance(document, list):
        return [normalize(item) for item in document]
    return document


def run_cli_json(argv: List[str]) -> Tuple[int, object, str]:
    """Run the CLI in-process, capturing (exit code, parsed JSON
    document, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    text = out.getvalue()
    document = json.loads(text) if text.strip() else None
    return code, document, err.getvalue()


def assert_no_orphans() -> None:
    """Every pool must have been joined before the run returned."""
    orphans = multiprocessing.active_children()
    assert not orphans, f"orphaned worker processes: {orphans}"


@contextlib.contextmanager
def fault_env(spec: str):
    """Set ``REPRO_FAULTS`` for the duration.

    The CLI installs the plan from the environment for the duration of
    every invocation, and the supervised pool forwards the same
    variable to every worker it spawns — so the environment, not
    ``faults.injected``, is the one channel that reaches both the
    parent and every worker under any start method.
    """
    previous = os.environ.get("REPRO_FAULTS")
    os.environ["REPRO_FAULTS"] = spec
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = previous


# ----------------------------------------------------------------------
# Equivalence checks
# ----------------------------------------------------------------------

def diff_verify(name: str, jobs: int,
                extra: Sequence[str] = ()) -> List[str]:
    """Compare ``verify --json`` sequentially vs with ``-j jobs``.
    Returns a list of human-readable mismatch descriptions."""
    base = ["verify", name, "--json", *extra]
    seq_code, seq_doc, _ = run_cli_json(base)
    par_code, par_doc, _ = run_cli_json(base + ["-j", str(jobs)])
    assert_no_orphans()
    mismatches: List[str] = []
    if seq_code != par_code:
        mismatches.append(f"{name}: exit code {seq_code} != {par_code} "
                          f"(-j {jobs})")
    if normalize(seq_doc) != normalize(par_doc):
        mismatches.extend(_explain(name, jobs, seq_doc, par_doc))
    return mismatches


def diff_table(names: Sequence[str], jobs: int,
               extra: Sequence[str] = ()) -> List[str]:
    """Compare ``table --json`` sequentially vs with ``--jobs jobs``."""
    base = ["table", *names, "--json", *extra]
    seq_code, seq_docs, _ = run_cli_json(base)
    par_code, par_docs, _ = run_cli_json(base + ["--jobs", str(jobs)])
    assert_no_orphans()
    mismatches: List[str] = []
    if seq_code != par_code:
        mismatches.append(f"table: exit code {seq_code} != {par_code} "
                          f"(--jobs {jobs})")
    seq_norm, par_norm = normalize(seq_docs), normalize(par_docs)
    if seq_norm != par_norm:
        for seq_one, par_one in zip(seq_docs, par_docs):
            mismatches.extend(_explain(seq_one.get("program", "?"),
                                       jobs, seq_one, par_one))
        if len(seq_docs) != len(par_docs):
            mismatches.append(f"table: {len(seq_docs)} programs "
                              f"sequentially, {len(par_docs)} with "
                              f"--jobs {jobs}")
    return mismatches


def _explain(name: str, jobs: int, seq_doc, par_doc) -> List[str]:
    """Pinpoint which normalized top-level/subgoal fields diverged."""
    seq_n, par_n = normalize(seq_doc), normalize(par_doc)
    if seq_n == par_n:
        return []
    problems: List[str] = []
    for key in sorted(set(seq_n) | set(par_n)):
        if seq_n.get(key) != par_n.get(key):
            if key == "subgoals":
                for i, (a, b) in enumerate(zip(seq_n[key], par_n[key])):
                    if a != b:
                        fields = [f for f in sorted(set(a) | set(b))
                                  if a.get(f) != b.get(f)]
                        problems.append(
                            f"{name} -j {jobs}: subgoal {i} differs "
                            f"in {fields}")
            else:
                problems.append(f"{name} -j {jobs}: {key!r} differs: "
                                f"{seq_n.get(key)!r} != "
                                f"{par_n.get(key)!r}")
    return problems or [f"{name} -j {jobs}: documents differ"]


def diff_corpus(names: Optional[Sequence[str]] = None,
                jobs_list: Sequence[int] = (2, 4)) -> List[str]:
    """The full differential sweep: every program, every jobs level,
    verify-granularity and table-granularity."""
    names = list(names or ALL_PROGRAMS)
    mismatches: List[str] = []
    for jobs in jobs_list:
        for name in names:
            mismatches.extend(diff_verify(name, jobs))
        mismatches.extend(diff_table(names, jobs))
    return mismatches


# ----------------------------------------------------------------------
# Feature mode: optimisations on (+cache cold/warm) vs off
# ----------------------------------------------------------------------

def verdict_view(document):
    """The verdict-level projection used for feature comparisons.

    Slicing, reduction and caching may change automaton
    sizes, spans, timings and which of several same-length
    counterexamples the BFS reports first — but never verdicts,
    outcomes, or whether a counterexample exists.
    """
    if document is None:
        return None
    return {
        "program": document.get("program"),
        "valid": document.get("valid"),
        "outcome": document.get("outcome"),
        "interrupted": document.get("interrupted"),
        "subgoals": [
            {"description": subgoal.get("description"),
             "valid": subgoal.get("valid"),
             "outcome": subgoal.get("outcome"),
             "has_counterexample":
                 subgoal.get("counterexample") is not None}
            for subgoal in document.get("subgoals", ())],
    }


def diff_features(name: str, jobs: int, cache_dir: str) -> List[str]:
    """Compare optimisations-off against optimisations-on with a cold
    then a warm verdict cache, at the given parallelism."""
    jobs_args = [] if jobs <= 1 else ["-j", str(jobs)]
    off_code, off_doc, _ = run_cli_json(
        ["verify", name, "--json", "--no-slice", "--no-reduce",
         *jobs_args])
    cold = run_cli_json(["verify", name, "--json",
                         "--cache-dir", cache_dir, *jobs_args])
    warm = run_cli_json(["verify", name, "--json",
                         "--cache-dir", cache_dir, *jobs_args])
    assert_no_orphans()
    mismatches: List[str] = []
    reference = verdict_view(off_doc)
    for label, (code, document, _) in (("cold-cache", cold),
                                       ("warm-cache", warm)):
        if code != off_code:
            mismatches.append(f"{name} {label} -j {jobs}: exit code "
                              f"{code} != {off_code} (features off)")
        if verdict_view(document) != reference:
            mismatches.append(f"{name} {label} -j {jobs}: verdicts "
                              f"differ from the features-off run")
    warm_doc = warm[1]
    if warm_doc is not None:
        subgoals = warm_doc.get("subgoals", ())
        hits = warm_doc.get("cache_hits", 0)
        if hits != len(subgoals):
            mismatches.append(f"{name} warm-cache -j {jobs}: only "
                              f"{hits} of {len(subgoals)} subgoals "
                              f"answered from the cache")
    if normalize(warm_doc) != normalize(cold[1]):
        mismatches.append(f"{name} warm-cache -j {jobs}: report "
                          f"differs from the cold-cache run")
    return mismatches


def diff_features_corpus(names: Optional[Sequence[str]] = None,
                         jobs_list: Sequence[int] = (1, 2)
                         ) -> List[str]:
    """The feature sweep: every program, sequential and parallel,
    sharing one cache directory (fingerprints disambiguate)."""
    import tempfile

    names = list(names or ALL_PROGRAMS)
    mismatches: List[str] = []
    with tempfile.TemporaryDirectory(prefix="diffcheck-cache-") as root:
        for jobs in jobs_list:
            cache_dir = os.path.join(root, f"j{jobs}")
            for name in names:
                mismatches.extend(diff_features(name, jobs, cache_dir))
    return mismatches


# ----------------------------------------------------------------------
# Stress mode: faults + tight budgets under parallelism
# ----------------------------------------------------------------------

def stress(names: Optional[Sequence[str]] = None, jobs: int = 2,
           seed: int = 1997, rounds: int = 8) -> List[str]:
    """Deterministically-seeded fault/budget storm under parallelism.

    Each round picks a program and a fault plan from the seeded RNG.
    Even rounds run ``verify NAME -j jobs --timeout 1``; odd rounds
    run ``table NAMES --jobs jobs --timeout 1`` over every name, so
    one pool is shared across programs (and a fault can interrupt a
    table midway).  Every round must stay structured: a documented
    exit code, no raw traceback on stderr, only structured outcomes
    in every report, and no orphaned workers.
    """
    names = list(names or ALL_PROGRAMS)
    rng = random.Random(seed)
    sites = [site for site in faults.FAULT_SITES]
    kinds = [kind for kind in faults.FAULT_KINDS]
    problems: List[str] = []
    for round_index in range(rounds):
        name = rng.choice(names)
        site = rng.choice(sites)
        kind = rng.choice(kinds)
        spec = f"{site}:{kind}" if rng.random() < 0.5 \
            else f"{site}:{kind}:1"
        if round_index % 2:
            argv = ["table", *names, "--json", "--jobs", str(jobs),
                    "--timeout", "1"]
            label = f"stress[{round_index}] table --jobs {jobs}"
        else:
            argv = ["verify", name, "--json", "-j", str(jobs),
                    "--timeout", "1"]
            label = f"stress[{round_index}] {name} -j {jobs}"
        label += f" REPRO_FAULTS={spec}"
        with fault_env(spec):
            code, document, err = run_cli_json(argv)
        assert_no_orphans()
        if "Traceback" in err:
            problems.append(f"{label}: raw traceback on stderr")
        if code not in (0, 1, 3, 130):
            problems.append(f"{label}: undocumented exit code {code}")
        if document is None:
            if code != 130:
                problems.append(f"{label}: no JSON flushed (exit {code})")
            continue
        reports = document if isinstance(document, list) else [document]
        for report in reports:
            if report.get("outcome") not in STRUCTURED_OUTCOMES:
                problems.append(f"{label}: unstructured run outcome "
                                f"{report.get('outcome')!r}")
            for subgoal in report.get("subgoals", ()):
                if subgoal.get("outcome") not in STRUCTURED_OUTCOMES:
                    problems.append(
                        f"{label}: unstructured subgoal outcome "
                        f"{subgoal.get('outcome')!r}")
    return problems


# ----------------------------------------------------------------------
# Script entry point (CI's parallel-smoke job)
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Differential harness: parallel verification must "
                    "match sequential verification report-for-report.")
    parser.add_argument("--jobs", type=int, nargs="+", default=[2],
                        help="worker counts to compare against "
                             "sequential [default: 2]")
    parser.add_argument("--names", nargs="*", default=None,
                        help="program subset (default: whole corpus)")
    parser.add_argument("--stress", action="store_true",
                        help="also run the seeded fault/budget storm")
    parser.add_argument("--features", action="store_true",
                        help="run the feature sweep instead: "
                             "slicing/reduction/caching on "
                             "(cold and warm cache) vs off, "
                             "verdict-for-verdict")
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)

    count = len(ALL_PROGRAMS) if args.names is None else len(args.names)
    if args.features:
        jobs_list = sorted({1, *args.jobs})
        mismatches = diff_features_corpus(args.names,
                                          jobs_list=jobs_list)
        for line in mismatches:
            print(f"MISMATCH: {line}", file=sys.stderr)
        print(f"feature sweep: {count} programs x jobs {jobs_list}: "
              f"{'OK' if not mismatches else f'{len(mismatches)} mismatches'}")
        return 1 if mismatches else 0

    mismatches = diff_corpus(args.names, jobs_list=args.jobs)
    for line in mismatches:
        print(f"MISMATCH: {line}", file=sys.stderr)
    print(f"differential sweep: {len(ALL_PROGRAMS) if args.names is None else len(args.names)} "
          f"programs x jobs {args.jobs}: "
          f"{'OK' if not mismatches else f'{len(mismatches)} mismatches'}")
    problems: List[str] = []
    if args.stress:
        problems = stress(args.names, jobs=max(args.jobs),
                          seed=args.seed, rounds=args.rounds)
        for line in problems:
            print(f"STRESS: {line}", file=sys.stderr)
        print(f"stress mode ({args.rounds} rounds, seed {args.seed}): "
              f"{'OK' if not problems else f'{len(problems)} problems'}")
    return 1 if mismatches or problems else 0


if __name__ == "__main__":
    sys.exit(main())

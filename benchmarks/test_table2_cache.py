"""T2b — slicing ratios and verdict-cache replay over the §6 corpus.

Measures the statement slices the engine computes per program, then
runs the whole table cold (empty verdict cache) and warm (every
subgoal replayed from disk), asserting identical verdicts and that
the warm run hits on >= 90% of subgoals.  Wall time is not asserted
(``perfbench`` measures time).  The results are amended into
``benchmarks/out/table1.json`` as the ``slicing`` and ``cache``
blocks (this file sorts after ``test_table1_statistics.py``, which
writes the envelope first).
"""

import json

from repro.pascal import check_program, parse_program
from repro.programs import ALL_PROGRAMS, TABLE_PROGRAMS
from repro.verify import verify_source
from repro.verify.engine import Verifier

from conftest import artifact_path


def _amend(key, block):
    path = artifact_path("table1.json")
    try:
        with open(path, encoding="utf-8") as src:
            document = json.load(src)
    except FileNotFoundError:
        # Standalone run: record into a minimal envelope.
        document = {"schema_version": 2}
    document[key] = block
    with open(path, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=2)
        out.write("\n")


def test_slice_ratios_recorded():
    """Per-program slice sizes across the whole bundled corpus.

    The §6 programs thread every statement into their obligations, so
    their ratio is 1.0; the ``scan`` example exists to exercise the
    other regime (dead scratch copies)."""
    ratios = {}
    for name in sorted(ALL_PROGRAMS):
        program = check_program(parse_program(ALL_PROGRAMS[name]))
        verifier = Verifier(program)
        before = after = 0
        for subgoal in verifier.collect_subgoals():
            plan = verifier._plan_subgoal(subgoal, verifier.reduce,
                                          True)
            before += plan.sliced.before
            after += plan.sliced.after
        ratios[name] = {
            "statements_before": before,
            "statements_after": after,
            "ratio": round(after / before, 3) if before else 1.0,
        }
    _amend("slicing", ratios)
    print()
    for name, entry in ratios.items():
        print(f"slice {name}: {entry['statements_before']} -> "
              f"{entry['statements_after']} ({entry['ratio']})")
    assert all(entry["statements_after"] <= entry["statements_before"]
               for entry in ratios.values())
    assert ratios["scan"]["ratio"] < 1.0


def _run_table(cache_dir):
    return [verify_source(TABLE_PROGRAMS[name], cache_dir=cache_dir)
            for name in TABLE_PROGRAMS]


def test_cache_cold_warm_recorded(tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold_results = _run_table(cache_dir)
    warm_results = _run_table(cache_dir)

    # Verdict identity first: a replayed wrong answer is no gain.
    assert [r.valid for r in warm_results] == \
        [r.valid for r in cold_results]
    assert all(result.valid for result in warm_results)

    subgoals = sum(len(result.results) for result in warm_results)
    hits = sum(result.cache_hits for result in warm_results)
    hit_rate = hits / subgoals if subgoals else 0.0
    block = {
        "programs": len(TABLE_PROGRAMS),
        "subgoals": subgoals,
        "warm_hits": hits,
        "warm_hit_rate": round(hit_rate, 3),
    }
    _amend("cache", block)
    print()
    print(f"table cache: {hits}/{subgoals} warm hits")

    assert sum(r.cache_hits for r in cold_results) == 0
    assert hit_rate >= 0.9, (
        f"warm table run must replay >= 90% of subgoals from the "
        f"cache, measured {hit_rate:.2f}")
